// Collectives and completion plumbing: broadcasts (binomial tree),
// reductions (paper §II-F), futures and callbacks, and the sparse-array
// size-establishment protocol (paper §II-G).

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/future.hpp"
#include "core/runtime_impl.hpp"
#include "util/log.hpp"

namespace cx {

// ---- futures / callbacks --------------------------------------------------

void Runtime::Impl::fulfill_future(FutureId fid,
                                   std::vector<std::byte>&& bytes) {
  auto& slot = me().futures[fid];
  slot.value = std::move(bytes);
  Fiber* f = slot.waiter;
  slot.waiter = nullptr;
  // Send the wake envelope even when no fiber is suspended right now
  // (f == nullptr makes the delivery a no-op): whether the consumer
  // happened to be between two timed waits when the value landed must
  // not change the counted-message ledger — the quiescence counters are
  // checkpointed, and the chaos tier compares them across runs.
  send_resume(f);
}

void Runtime::Impl::send_future_bytes(const ReplyTo& f,
                                      std::vector<std::byte>&& bytes) {
  if (!f.valid()) return;
  if (f.pe == mype()) {
    fulfill_future(f.fid, std::move(bytes));
    return;
  }
  FutureHeader h;
  h.fid = f.fid;
  rt_send(wire::make_msg(h_future, f.pe, h, bytes));
}

void Runtime::Impl::deliver_callback(const Callback& cb,
                                     std::vector<std::byte>&& bytes) {
  switch (cb.kind) {
    case Callback::Kind::Ignore:
      return;
    case Callback::Kind::Future:
      send_future_bytes(cb.future, std::move(bytes));
      return;
    case Callback::Kind::Element: {
      EntryHeader h;
      h.coll = cb.coll;
      h.idx = cb.idx;
      h.ep = cb.ep;
      rt_send(wire::make_msg(h_entry, mype(), h, bytes));
      return;
    }
    case Callback::Kind::Broadcast: {
      BcastHeader h;
      h.coll = cb.coll;
      h.ep = cb.ep;
      h.root = mype();
      rt_send(wire::make_msg(h_bcast, mype(), h, bytes));
      return;
    }
    case Callback::Kind::SparseCount: {
      // All inserts have landed (quiescence): count elements per PE.
      DoneInsertingHeader h;
      h.coll = cb.coll;
      h.root = mype();
      h.reply = cb.future;
      rt_send(wire::make_msg(h_done_inserting, mype(), h));
      return;
    }
  }
}

// ---- handlers -------------------------------------------------------------

void Runtime::Impl::on_bcast(MessagePtr msg) {
  me().processed++;
  std::size_t args_off = 0;
  const BcastHeader h = wire::read_header<BcastHeader>(msg->data, &args_off);
  auto& ps = me();
  const auto it = ps.colls.find(h.coll);
  if (h.root != -2) forward_tree(h_bcast, h.root, msg->data);
  if (it == ps.colls.end()) {
    // Keep local delivery for later; mark as forward-complete.
    BcastHeader h2 = h;
    h2.root = -2;
    stash_msg(h.coll,
              wire::make_msg(h_bcast, mype(), h2,
                             msg->data.data() + args_off,
                             msg->data.size() - args_off));
    return;
  }
  CollMeta& cm = it->second;
  const EpInfo* info = Registry::instance().find_ep(h.ep);
  if (info == nullptr) {
    CX_LOG_ERROR("dropping broadcast with unknown entry-method id ", h.ep);
    return;
  }
  // Deliver to each local element with a freshly unpacked argument tuple.
  std::vector<Chare*> local;
  local.reserve(cm.elements.size());
  for (auto& [idx, obj] : cm.elements) local.push_back(obj.get());
  for (Chare* obj : local) {
    pup::Unpacker ue(msg->data.data(), msg->data.size());
    BcastHeader dummy;
    ue | dummy;
    auto tuple = info->unpack(ue);
    deliver(obj, *info, h.ep, std::move(tuple), {}, h.reply);
  }
}

void Runtime::Impl::on_bcast_done(MessagePtr msg) {
  me().processed++;
  BcastDoneHeader h = pup::from_bytes<BcastDoneHeader>(msg->data);
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  const auto key = std::make_pair(h.reply.pe, h.reply.fid);
  auto& count = ps.bcast_done_root[key];
  count += h.count;
  // A proper-subset section multicast registers its own (smaller)
  // completion expectation; whole-collection broadcasts — and
  // all-members sections, which never register one — fire at info.size.
  const auto eit = ps.bcast_expect.find(key);
  const std::uint64_t expected =
      eit != ps.bcast_expect.end() ? eit->second : cit->second.info.size;
  if (count >= expected) {
    ps.bcast_done_root.erase(key);
    if (eit != ps.bcast_expect.end()) ps.bcast_expect.erase(eit);
    send_future_bytes(h.reply, {});
  }
}

void Runtime::Impl::on_reduce(MessagePtr msg) {
  me().processed++;
  pup::Unpacker u(msg->data.data(), msg->data.size());
  ReduceHeader h;
  u | h;
  if (!CombinerRegistry::instance().known(h.combiner)) {
    CX_LOG_ERROR("dropping contribution with unknown combiner id ",
                 h.combiner);
    return;
  }
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  std::vector<std::byte> value(msg->data.begin() + static_cast<long>(u.offset()),
                               msg->data.end());
  auto& rs = ps.red_root[{h.coll, h.red_no}];
  rs.count += h.count;
  if (h.combiner != kNoCombine) {
    if (!rs.has_acc) {
      rs.acc = std::move(value);
      rs.has_acc = true;
      rs.combiner = h.combiner;
    } else {
      rs.acc = checked_combine(h.combiner, rs.acc, value, h.coll,
                               h.contributor);
    }
  }
  if (h.cb.kind != Callback::Kind::Ignore) rs.cb = h.cb;
  const auto& info = cit->second.info;
  if (!info.inserting && rs.count >= info.size) {
    Callback cb = rs.cb;
    std::vector<std::byte> acc = std::move(rs.acc);
    ps.red_root.erase({h.coll, h.red_no});
    CX_TRACE_EVENT(mype(), machine->now(),
                   cx::trace::EventKind::RedDeliver, h.coll, h.red_no);
    deliver_callback(cb, std::move(acc));
  }
}

void Runtime::Impl::on_future(MessagePtr msg) {
  me().processed++;
  std::size_t off = 0;
  const FutureHeader h = wire::read_header<FutureHeader>(msg->data, &off);
  std::vector<std::byte> value(msg->data.begin() + static_cast<long>(off),
                               msg->data.end());
  fulfill_future(h.fid, std::move(value));
}

void Runtime::Impl::on_done_inserting(MessagePtr msg) {
  me().processed++;
  DoneInsertingHeader h = pup::from_bytes<DoneInsertingHeader>(msg->data);
  forward_tree(h_done_inserting, h.root, msg->data);
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  const std::uint64_t n =
      cit == ps.colls.end() ? 0 : cit->second.elements.size();
  InsertCountHeader ch;
  ch.coll = h.coll;
  ch.count = n;
  ch.reply = h.reply;
  rt_send(wire::make_msg(h_insert_count, static_cast<int>(h.coll) % P, ch));
}

void Runtime::Impl::on_insert_count(MessagePtr msg) {
  me().processed++;
  InsertCountHeader h = pup::from_bytes<InsertCountHeader>(msg->data);
  auto& ps = me();
  auto& [total, reports] = ps.ins_count[h.coll];
  total += h.count;
  reports++;
  if (reports == P) {
    SetSizeHeader sh;
    sh.coll = h.coll;
    sh.size = total;
    sh.root = mype();
    sh.reply = h.reply;
    ps.ins_count.erase(h.coll);
    rt_send(wire::make_msg(h_set_size, mype(), sh));
  }
}

void Runtime::Impl::on_set_size(MessagePtr msg) {
  me().processed++;
  SetSizeHeader h = pup::from_bytes<SetSizeHeader>(msg->data);
  forward_tree(h_set_size, h.root, msg->data);
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  cit->second.info.size = h.size;
  cit->second.info.inserting = false;
  SizeAckHeader ack;
  ack.coll = h.coll;
  ack.reply = h.reply;
  rt_send(wire::make_msg(h_size_ack, static_cast<int>(h.coll) % P, ack));
  // Reductions rooted here may now be complete.
  if (static_cast<int>(h.coll) % P == mype()) {
    std::vector<std::pair<CollectionId, std::uint32_t>> fire;
    for (auto& [key, rs] : ps.red_root) {
      if (key.first == h.coll && rs.count >= h.size) fire.push_back(key);
    }
    for (const auto& key : fire) {
      auto node = ps.red_root.extract(key);
      deliver_callback(node.mapped().cb, std::move(node.mapped().acc));
    }
  }
}

void Runtime::Impl::on_size_ack(MessagePtr msg) {
  me().processed++;
  SizeAckHeader h = pup::from_bytes<SizeAckHeader>(msg->data);
  auto& acks = me().size_acks[h.coll];
  if (++acks == P) {
    me().size_acks.erase(h.coll);
    send_future_bytes(h.reply, {});
  }
}

// ---- bridge from the header-only templates --------------------------------

namespace detail {

void reply_with_bytes(const ReplyTo& reply, std::vector<std::byte>&& bytes) {
  Runtime::current().impl().send_future_bytes(reply, std::move(bytes));
}

void proxy_broadcast(CollectionId coll, EpId ep, ArgsCarrier args,
                     const ReplyTo& reply) {
  auto& I = Runtime::current().impl();
  BcastHeader h;
  h.coll = coll;
  h.ep = ep;
  h.reply = reply;
  h.root = I.mype();
  I.rt_send(wire::make_msg_pup(I.h_bcast, I.mype(), h, [&](pup::Er& p) {
    args.pup(args.tuple.get(), p);
  }));
}

void sparse_done_inserting(CollectionId coll, const ReplyTo& reply) {
  // Finalizing the size is only meaningful once every in-flight insert
  // has landed; quiescence detection guarantees exactly that.
  Callback c;
  c.kind = Callback::Kind::SparseCount;
  c.coll = coll;
  c.future = reply;
  Runtime::current().start_quiescence(c);
}

void contribute_bytes(Chare& chare, std::vector<std::byte> value,
                      CombineId combiner, const Callback& target) {
  auto& I = Runtime::current().impl();
  ReduceHeader h;
  h.coll = chare.collection();
  h.red_no = I.next_red_no(chare);
  CX_TRACE_EVENT(I.mype(), I.machine->now(),
                 cx::trace::EventKind::RedContribute, h.coll, h.red_no);
  h.combiner = combiner;
  h.cb = target;
  h.count = 1;
  h.contributor = chare.this_index();
  I.rt_send(
      wire::make_msg(I.h_reduce, static_cast<int>(h.coll) % I.P, h, value));
}

ReplyTo make_future_slot() {
  auto& I = Runtime::current().impl();
  auto& ps = I.me();
  ReplyTo r;
  r.pe = I.mype();
  // Skip ids still occupied: after a restore rolls next_future back, a
  // slot with a suspended waiter may sit above the counter.
  do {
    r.fid = ++ps.next_future;
  } while (ps.futures.count(r.fid) != 0);
  return r;
}

std::vector<std::byte> future_get_bytes(const ReplyTo& f) {
  auto& I = Runtime::current().impl();
  if (f.pe != I.mype()) {
    throw std::logic_error("Future::get() must run on the creating PE");
  }
  for (;;) {
    auto& slot = I.me().futures[f.fid];
    if (slot.value.has_value()) return *slot.value;
    Fiber* cur = Fiber::current();
    if (cur == nullptr) {
      throw std::logic_error(
          "Future::get() requires a threaded entry method");
    }
    slot.waiter = cur;
    Fiber::yield();
  }
}

std::optional<std::vector<std::byte>> future_get_bytes_for(const ReplyTo& f,
                                                           double timeout_s) {
  auto& I = Runtime::current().impl();
  if (f.pe != I.mype()) {
    throw std::logic_error("Future::get_for() must run on the creating PE");
  }
  {
    auto& slot = I.me().futures[f.fid];
    if (slot.value.has_value()) return *slot.value;
  }
  Fiber* cur = Fiber::current();
  if (cur == nullptr) {
    throw std::logic_error(
        "Future::get_for() requires a threaded entry method");
  }
  // Arm a deadline: an uncounted self-timer delivered via send_after.
  auto& ps = I.me();
  const std::uint64_t token = ++ps.next_timer_token;
  ps.timer_waiters[token] = cur;
  {
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Timer;
    env->timer_token = token;
    I.machine->send_after(I.wrap_local(env, I.mype()), timeout_s);
  }
  for (;;) {
    {
      // Re-acquire the slot each pass: the map may rehash while we
      // are suspended (same discipline as future_get_bytes).
      auto& slot = I.me().futures[f.fid];
      if (slot.value.has_value()) {
        // Disarm: the timer event may still fire, but its token lookup
        // will miss and the delivery no-ops.
        I.me().timer_waiters.erase(token);
        return *slot.value;
      }
      slot.waiter = cur;
    }
    Fiber::yield();
    if (I.me().timer_waiters.count(token) == 0) {
      // The deadline fired (it erased its own token before resuming us).
      auto& slot = I.me().futures[f.fid];
      if (slot.value.has_value()) return *slot.value;  // lost race: value won
      // Timed out: drop the empty slot entirely. A later fulfill
      // recreates it value-first (so a retried get_for still sees it),
      // and a waiter slot left behind would outlive a restore's
      // next_future rollback and make post-rollback make_future_slot
      // skip an id a fault-free run hands out — fids are pupped inside
      // callbacks, so that skew shows up in checkpoint digests.
      I.me().futures.erase(f.fid);
      return std::nullopt;
    }
  }
}

bool future_ready(const ReplyTo& f) {
  auto& I = Runtime::current().impl();
  if (f.pe != I.mype()) return false;
  const auto it = I.me().futures.find(f.fid);
  return it != I.me().futures.end() && it->second.value.has_value();
}

void future_send_bytes(const ReplyTo& f, std::vector<std::byte>&& bytes) {
  Runtime::current().impl().send_future_bytes(f, std::move(bytes));
}

}  // namespace detail
}  // namespace cx
