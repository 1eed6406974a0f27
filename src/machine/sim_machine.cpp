#include "machine/sim_machine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"
#include "util/log.hpp"
#include "wire/envelope.hpp"

namespace cxm {

namespace {
// FtDrop trace reasons (slot a).
constexpr std::uint64_t kDropInjected = 0;
constexpr std::uint64_t kDropDuplicate = 1;
constexpr std::uint64_t kDropDeadDst = 2;
}  // namespace

SimMachine::SimMachine(const MachineConfig& cfg)
    : num_pes_(cfg.num_pes),
      clock_(static_cast<std::size_t>(cfg.num_pes), 0.0),
      net_(make_network(cfg.network, cfg.net, cfg.num_pes)),
      ft_(cfg.faults) {
  if (num_pes_ < 1) throw std::invalid_argument("num_pes must be >= 1");
  fifo_ = std::getenv("CHARMX_SIM_FIFO") != nullptr;
  agg_on_ = cx::wire::agg_enabled();
  if (agg_on_) {
    agg_cfg_ = cx::wire::agg_config();
    aggs_.resize(static_cast<std::size_t>(cfg.num_pes));
    // Batches and the bypass-flush rule assume in-order channels.
    fifo_ = true;
  }
  ft_enabled_ = ft_.enabled();
  if (ft_enabled_) {
    inj_ = std::make_unique<cx::ft::FaultInjector>(ft_);
    script_ = ft_.script;
    for (const cx::ft::ScriptedFault& f : script_) {
      if (f.pe < 0 || f.pe >= num_pes_) {
        throw std::invalid_argument("fault script names PE " +
                                    std::to_string(f.pe) + " of a " +
                                    std::to_string(num_pes_) + "-PE run");
      }
    }
    std::stable_sort(script_.begin(), script_.end(),
                     [](const cx::ft::ScriptedFault& a,
                        const cx::ft::ScriptedFault& b) { return a.at < b.at; });
  }
  // Failure bookkeeping is always sized: inject_kill() must work even
  // without any --ft-* config (e.g. the pool kills a worker directly).
  const auto n = static_cast<std::size_t>(num_pes_);
  senders_.resize(n);
  receivers_.resize(n);
  crashed_.assign(n, 0);
  hung_.assign(n, 0);
  unreachable_.assign(n, 0);
  failure_notified_.assign(n, 0);
  parked_.resize(n);
}

SimMachine::~SimMachine() {
  while (!heap_.empty()) {
    delete heap_.top().msg;
    heap_.pop();
  }
  for (auto& q : parked_) {
    for (Message* m : q) delete m;
  }
}

std::uint32_t SimMachine::register_handler(Handler h) {
  if (running_) throw std::logic_error("register_handler after run()");
  handlers_.push_back(std::move(h));
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

void SimMachine::push_timer(int pe, int dst, std::uint64_t seq, double at) {
  auto* m = new Message();
  m->dst_pe = pe;  // the timer fires on the sending PE
  m->src_pe = pe;
  m->ft_peer = dst;
  m->ft_seq = seq;
  m->ft_flags = kFtTimer;
  heap_.push(Event{at, seq_++, m});
}

cx::wire::PeAggregator& SimMachine::agg(int pe) {
  auto& a = aggs_[static_cast<std::size_t>(pe)];
  if (!a) a = std::make_unique<cx::wire::PeAggregator>(agg_cfg_);
  return *a;
}

void SimMachine::push_agg_flush(int pe, int dst, std::uint64_t gen,
                                double at) {
  auto* m = new Message();
  m->dst_pe = pe;  // fires on the sending PE, like an ft timer
  m->src_pe = pe;
  m->ft_peer = dst;
  m->ft_seq = gen;
  m->wire_flags = kWireAggFlush;
  heap_.push(Event{at, seq_++, m});
}

void SimMachine::drain_agg(int pe) {
  auto& a = agg(pe);
  while (MessagePtr batch = a.next_ready()) send(std::move(batch));
}

void SimMachine::send(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send: bad destination PE");
  }
  const int src = current_pe_;
  msg->src_pe = src;
  if (agg_on_ && src >= 0) {
    auto& a = agg(src);
    if (cx::wire::agg_eligible(*msg, a.config())) {
      // Absorbed: the logical MsgSend happens now at a fraction of the
      // per-message cost; the batch pays the full hand-off once.
      auto& clk = clock_[static_cast<std::size_t>(src)];
      clk += net_->agg_overhead();
      CX_TRACE_EVENT(src, clk, cx::trace::EventKind::MsgSend,
                     static_cast<std::uint64_t>(dst), msg->wire_size());
      const bool arm = a.absorb(std::move(msg));
      if (arm) {
        push_agg_flush(src, dst, a.generation(dst),
                       clk + a.config().flush_delay_s);
      }
      drain_agg(src);
      return;
    }
    // Bypassing message (protocol, oversized, local, ...) headed to a
    // destination with an open batch: seal the batch first so it stays
    // ahead on the in-order channel.
    if ((msg->wire_flags & kWireAggBatch) == 0 && dst != src &&
        msg->local == nullptr && a.dst_pending(dst)) {
      a.flush_dst(dst, cx::wire::AggFlush::Ordering);
      drain_agg(src);
    }
  }
  double arrival = 0.0;
  if (src >= 0) {
    // Sender-side software overhead is CPU time on the sending PE.
    clock_[static_cast<std::size_t>(src)] += net_->cpu_overhead();
    arrival = clock_[static_cast<std::size_t>(src)] +
              net_->delay(src, dst, msg->wire_size());
    if ((msg->wire_flags & kWireAggBatch) == 0) {
      CX_TRACE_EVENT(src, clock_[static_cast<std::size_t>(src)],
                     cx::trace::EventKind::MsgSend,
                     static_cast<std::uint64_t>(dst), msg->wire_size());
    }
    if (dst != src && msg->local == nullptr) {
      cx::trace::detail::wire().transport_msgs.fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  if (ft_enabled_ && src >= 0 && dst != src && !msg->local) {
    const double send_time = clock_[static_cast<std::size_t>(src)];
    if (ft_.reliable && msg->ft_flags == 0) {
      const std::uint64_t seq =
          senders_[static_cast<std::size_t>(src)].allocate(dst);
      msg->ft_seq = seq;
      msg->ft_flags = kFtReliable;
      cx::ft::PendingSend p;
      p.handler = msg->handler;
      p.dst_pe = dst;
      p.data = msg->data;
      p.size_override = msg->size_override;
      p.seq = seq;
      p.wire_flags = msg->wire_flags;  // a resent batch is still a batch
      p.deadline = send_time + inj_->retry_timeout(0);
      const double deadline = p.deadline;
      senders_[static_cast<std::size_t>(src)].pending.emplace(
          std::make_pair(dst, seq), std::move(p));
      push_timer(src, dst, seq, deadline);
    }
    if (ft_.injecting()) {
      const auto d = inj_->on_wire();
      if (d.drop) {
        CX_TRACE_EVENT(src, send_time, cx::trace::EventKind::FtDrop,
                       kDropInjected, msg->ft_seq);
        return;  // lost on the wire; the pending copy recovers it
      }
      arrival += d.extra_delay;
      if (d.dup) {
        heap_.push(Event{arrival, seq_++, new Message(*msg)});
      }
    }
  }
  if (fifo_) {
    auto& last = last_arrival_[{src, dst}];
    arrival = std::max(arrival, last);
    last = arrival;
  }
  heap_.push(Event{arrival, seq_++, msg.release()});
}

void SimMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send_after: bad destination PE");
  }
  const int src = current_pe_;
  msg->src_pe = src;
  const double base = src >= 0 ? clock_[static_cast<std::size_t>(src)] : 0.0;
  // A timer delivery, not a network message: no overhead, no cost model,
  // no fault injection.
  heap_.push(Event{base + delay_s, seq_++, msg.release()});
}

double SimMachine::now() const {
  if (current_pe_ < 0) return 0.0;
  return clock_[static_cast<std::size_t>(current_pe_)];
}

void SimMachine::charge(double seconds) {
  if (current_pe_ >= 0) {
    clock_[static_cast<std::size_t>(current_pe_)] += seconds;
  }
}

void SimMachine::fail_pe(int pe, cx::ft::FailureKind kind, double time) {
  const auto i = static_cast<std::size_t>(pe);
  if (failure_notified_[i]) return;
  failure_notified_[i] = 1;
  CX_TRACE_EVENT(pe, time, cx::trace::EventKind::FtFailure,
                 static_cast<std::uint64_t>(pe),
                 static_cast<std::uint64_t>(kind));
  if (failure_listener_) {
    failure_listener_(cx::ft::PeFailure{pe, kind, time});
  }
}

void SimMachine::check_scripted(double time) {
  while (next_script_ < script_.size() && time >= script_[next_script_].at) {
    const cx::ft::ScriptedFault& f = script_[next_script_++];
    const auto i = static_cast<std::size_t>(f.pe);
    if (crashed_[i] != 0 || hung_[i] != 0) continue;  // already down
    any_failed_ = true;
    // The PE died/froze: its unacked sends die with it (a hung
    // scheduler fires no retransmit timers either).
    senders_[i].pending.clear();
    if (f.kind == cx::ft::FailureKind::Crashed) {
      crashed_[i] = 1;
      fail_pe(f.pe, cx::ft::FailureKind::Crashed, f.at);
    } else {
      hung_[i] = 1;
      // No notification: a hang is only *detected* — by peers'
      // retransmits giving up or the heartbeat detector.
    }
  }
}

void SimMachine::inject_kill(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  any_failed_ = true;
  const auto i = static_cast<std::size_t>(pe);
  if (crashed_[i]) return;
  crashed_[i] = 1;
  senders_[i].pending.clear();
  fail_pe(pe, cx::ft::FailureKind::Crashed,
          current_pe_ >= 0 ? clock_[static_cast<std::size_t>(current_pe_)]
                           : 0.0);
}

void SimMachine::inject_hang(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  if (crashed_[i] != 0 || hung_[i] != 0) return;
  any_failed_ = true;
  hung_[i] = 1;
  senders_[i].pending.clear();
  // Silent by design: peers must discover the hang themselves.
}

void SimMachine::declare_failed(int pe, cx::ft::FailureKind kind) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  any_failed_ = true;
  if (kind == cx::ft::FailureKind::Crashed) {
    crashed_[i] = 1;
  } else if (hung_[i] == 0) {
    unreachable_[i] = 1;
  }
  senders_[i].pending.clear();
  // Every peer stops (re)sending to the declared-dead PE immediately.
  for (auto& sw : senders_) sw.abandon(pe);
  fail_pe(pe, kind,
          current_pe_ >= 0 ? clock_[static_cast<std::size_t>(current_pe_)]
                           : 0.0);
}

void SimMachine::revive_pe(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  crashed_[i] = 0;
  hung_[i] = 0;
  unreachable_[i] = 0;
  failure_notified_[i] = 0;
  for (Message* m : parked_[i]) delete m;
  parked_[i].clear();
  // Peers stop retrying the old traffic: the restore path rebuilds
  // application state, so pre-failure messages must not resurface.
  for (auto& sw : senders_) sw.abandon(pe);
  // Discard half-open batches from before the failure for the same
  // reason (the aggregator recreates lazily on the next send).
  if (agg_on_) aggs_[i].reset();
}

bool SimMachine::pe_failed(int pe) const noexcept {
  if (pe < 0 || pe >= num_pes_) return false;
  const auto i = static_cast<std::size_t>(pe);
  return crashed_[i] != 0 || hung_[i] != 0 || unreachable_[i] != 0;
}

void SimMachine::handle_timer(int pe, const Message& msg, double time) {
  const auto i = static_cast<std::size_t>(pe);
  if (crashed_[i] != 0 || hung_[i] != 0) return;  // dead PEs fire nothing
  const int dst = msg.ft_peer;
  auto it = senders_[i].pending.find({dst, msg.ft_seq});
  if (it == senders_[i].pending.end()) return;  // already acked: stale timer
  auto& clk = clock_[i];
  if (time > clk) clk = time;
  current_pe_ = pe;
  cx::ft::PendingSend& p = it->second;
  if (p.attempts >= ft_.retry.max_attempts) {
    // Give up: declare the destination unreachable and stop all traffic
    // to it, surfacing a typed failure instead of retrying forever.
    senders_[i].abandon(dst);
    if (dst >= 0 && dst < num_pes_) {
      unreachable_[static_cast<std::size_t>(dst)] = 1;
      fail_pe(dst, cx::ft::FailureKind::Unreachable, clk);
    }
    return;
  }
  p.attempts++;
  CX_TRACE_EVENT(pe, clk, cx::trace::EventKind::FtRetransmit,
                 static_cast<std::uint64_t>(dst),
                 static_cast<std::uint64_t>(p.attempts));
  auto copy = cx::wire::clone_payload(p.handler, p.dst_pe, p.data);
  copy->size_override = p.size_override;
  copy->ft_seq = p.seq;
  copy->ft_flags = kFtReliable | kFtRetransmit;
  copy->wire_flags = p.wire_flags;
  p.deadline = clk + inj_->retry_timeout(p.attempts);
  push_timer(pe, dst, p.seq, p.deadline);
  send(std::move(copy));
}

void SimMachine::run() {
  running_ = true;
  stop_ = false;
  while (!stop_ && !heap_.empty()) {
    Event ev = heap_.top();
    heap_.pop();
    MessagePtr msg(ev.msg);
    const int pe = msg->dst_pe;
    if (ft_enabled_ || any_failed_) {
      if (next_script_ < script_.size()) check_scripted(ev.time);
      if (msg->ft_flags & kFtTimer) {
        handle_timer(pe, *msg, ev.time);
        continue;
      }
      const auto i = static_cast<std::size_t>(pe);
      if (crashed_[i] != 0) {
        CX_TRACE_EVENT(pe, ev.time, cx::trace::EventKind::FtDrop,
                       kDropDeadDst, msg->ft_seq);
        continue;
      }
      if (hung_[i] != 0) {
        parked_[i].push_back(msg.release());
        continue;
      }
    }
    auto& clk = clock_[static_cast<std::size_t>(pe)];
    if (ev.time > clk) {
      // The PE's virtual clock jumps forward to the arrival: that gap is
      // scheduler idle time in the simulated timeline.
      CX_TRACE_EVENT(pe, ev.time, cx::trace::EventKind::Idle,
                     static_cast<std::uint64_t>((ev.time - clk) * 1e9), 0);
      clk = ev.time;
    }
    if (agg_on_ && (msg->wire_flags & kWireAggFlush) != 0) {
      // Deterministic idle-equivalent flush on the sending PE. No
      // cpu_overhead charge: the sealed batch pays it in send().
      current_pe_ = pe;
      cxu::set_log_pe(pe);
      agg(pe).flush_timer(msg->ft_peer, msg->ft_seq);
      drain_agg(pe);
      ++events_processed_;
      continue;
    }
    clk += net_->cpu_overhead();  // receiver-side software overhead
    current_pe_ = pe;
    cxu::set_log_pe(pe);
    if (ft_enabled_ && msg->ft_flags != 0) {
      if (msg->ft_flags & kFtAck) {
        senders_[static_cast<std::size_t>(pe)].acked(msg->src_pe,
                                                     msg->ft_seq);
        ++events_processed_;
        continue;
      }
      if (msg->ft_flags & kFtReliable) {
        // Always ack — even duplicates, since the original ack may have
        // been lost on the wire.
        auto ack = std::make_unique<Message>();
        ack->dst_pe = msg->src_pe;
        ack->ft_seq = msg->ft_seq;
        ack->ft_peer = pe;
        ack->ft_flags = kFtAck;
        CX_TRACE_EVENT(pe, clk, cx::trace::EventKind::FtAck,
                       static_cast<std::uint64_t>(msg->src_pe), msg->ft_seq);
        send(std::move(ack));
        if (!receivers_[static_cast<std::size_t>(pe)].first_delivery(
                msg->src_pe, msg->ft_seq)) {
          CX_TRACE_EVENT(pe, clk, cx::trace::EventKind::FtDrop,
                         kDropDuplicate, msg->ft_seq);
          continue;
        }
      }
    }
    if (agg_on_ && (msg->wire_flags & kWireAggBatch) != 0) {
      // Unpack the batch into the normal delivery path, in append order.
      const auto src64 = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(msg->src_pe));
      const bool ok = cx::wire::for_each_agg_record(
          msg->data,
          [&](std::uint32_t h, const std::byte* p, std::uint32_t len) {
            clk += net_->agg_overhead();
            if (h >= handlers_.size()) {
              CX_LOG_ERROR("dropping batched message with unknown handler ",
                           h);
              return;
            }
            auto sub = std::make_unique<Message>();
            sub->handler = h;
            sub->src_pe = msg->src_pe;
            sub->dst_pe = pe;
            sub->data.assign(p, len);
            CX_TRACE_EVENT(pe, clk, cx::trace::EventKind::MsgRecv, src64,
                           len);
            handlers_[h](std::move(sub));
          });
      if (!ok) CX_LOG_ERROR("dropping malformed aggregation batch");
      ++events_processed_;
      continue;
    }
    const std::uint32_t h = msg->handler;
    if (h >= handlers_.size()) {
      CX_LOG_ERROR("dropping message with unknown handler ", h);
      continue;
    }
    CX_TRACE_EVENT(pe, clk, cx::trace::EventKind::MsgRecv,
                   static_cast<std::uint32_t>(msg->src_pe),
                   msg->wire_size());
    handlers_[h](std::move(msg));
    ++events_processed_;
  }
  current_pe_ = -1;
  cxu::set_log_pe(-1);
  running_ = false;
}

double SimMachine::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

}  // namespace cxm
