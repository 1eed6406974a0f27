#include "machine/socket_machine.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/wireup.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "wire/envelope.hpp"

namespace cxm {

namespace {
thread_local int t_current_pe = -1;

// FtDrop trace reasons (slot a) — shared vocabulary with SimMachine's
// trace stream.
constexpr std::uint64_t kDropInjected = 0;
constexpr std::uint64_t kDropDuplicate = 1;
constexpr std::uint64_t kDropDeadDst = 2;

constexpr std::size_t kReadChunk = 64 * 1024;
/// How long the comm thread keeps flushing after the PE loops exit —
/// long enough for the Stop broadcast and tail acks to reach peers.
constexpr double kDrainGrace = 3.0;

/// The global PE count of a valid geometry; throws before any per-PE
/// state is sized from a bad one (e.g. a threaded run with num_pes < 1).
int checked_num_pes(const SocketParams& g) {
  if (g.nranks < 1 || g.ppn < 1 || g.rank < 0 || g.rank >= g.nranks) {
    throw std::invalid_argument(
        "bad PE geometry: need num_pes (ppn) >= 1 and 0 <= rank < nranks, "
        "got rank " + std::to_string(g.rank) + " of " +
        std::to_string(g.nranks) + ", ppn " + std::to_string(g.ppn));
  }
  return g.nranks * g.ppn;
}
}  // namespace

SocketMachine::SocketMachine(const MachineConfig& cfg)
    : rank_(cfg.socket.rank),
      nranks_(cfg.socket.nranks),
      ppn_(cfg.socket.ppn),
      num_pes_(checked_num_pes(cfg.socket)),
      pe_base_(cfg.socket.rank * cfg.socket.ppn),
      ft_(cfg.faults),
      crashed_(static_cast<std::size_t>(num_pes_)),
      unreachable_(static_cast<std::size_t>(num_pes_)),
      hung_(static_cast<std::size_t>(num_pes_)),
      failure_notified_(static_cast<std::size_t>(num_pes_), 0),
      peers_(static_cast<std::size_t>(nranks_)) {
  mailboxes_.reserve(static_cast<std::size_t>(ppn_));
  for (int i = 0; i < ppn_; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  agg_on_ = cx::wire::agg_enabled();
  if (agg_on_) {
    agg_cfg_ = cx::wire::agg_config();
    aggs_.resize(static_cast<std::size_t>(ppn_));
  }
  ft_enabled_ = ft_.enabled();
  if (ft_enabled_) {
    inj_ = std::make_unique<cx::ft::FaultInjector>(ft_);
    ft_pes_.reserve(static_cast<std::size_t>(ppn_));
    for (int i = 0; i < ppn_; ++i) {
      ft_pes_.push_back(std::make_unique<FtPeState>());
    }
  }

  // A plain threaded run: every PE is local and nobody to wire up with.
  if (nranks_ == 1 && cfg.socket.root_port == 0) return;

  // ---- wireup: rendezvous with the root, then the rank mesh -------------
  cxnet::Handshake hs;
  hs.rank = static_cast<std::uint32_t>(rank_);
  hs.nranks = static_cast<std::uint32_t>(nranks_);
  hs.ppn = static_cast<std::uint32_t>(ppn_);
  cxnet::Fd listener = cxnet::tcp_listen(0);
  const std::vector<cxnet::Endpoint> table =
      cxnet::client_rendezvous(cfg.socket.root_host, cfg.socket.root_port, hs,
                               cxnet::local_port(listener.get()));
  // Single-rank job (cxrun -np 1): checking in with the root gives it its
  // rendezvous accounting (and handshake validation); no rank bridge.
  if (nranks_ == 1) return;
  std::vector<cxnet::Fd> fds = cxnet::mesh_wireup(hs, listener.get(), table);
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    cxnet::set_nonblocking(fds[static_cast<std::size_t>(r)].get());
    peers_[static_cast<std::size_t>(r)].fd =
        std::move(fds[static_cast<std::size_t>(r)]);
  }

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error("SocketMachine: pipe() failed");
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  cxnet::set_nonblocking(wake_r_);
  cxnet::set_nonblocking(wake_w_);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("SocketMachine: epoll_create1 failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_r_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_r_, &ev);
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    ev.events = EPOLLIN;
    ev.data.fd = peers_[static_cast<std::size_t>(r)].fd.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ev.data.fd, &ev);
  }
}

SocketMachine::~SocketMachine() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

std::uint32_t SocketMachine::register_handler(Handler h) {
  if (running_) throw std::logic_error("register_handler after run()");
  handlers_.push_back(std::move(h));
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

int SocketMachine::current_pe() const noexcept { return t_current_pe; }

double SocketMachine::now() const { return cxu::wall_time() - epoch_; }

void SocketMachine::compute(double seconds) {
  const double end = cxu::wall_time() + seconds;
  while (cxu::wall_time() < end) {
    // busy spin: models synthetic compute load on a real core
  }
}

void SocketMachine::charge(double) {
  // Real work already consumed real time; nothing to do.
}

void SocketMachine::enqueue(int dst, MessagePtr msg) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.push_back(std::move(msg));
  }
  mb.cv.notify_one();
}

void SocketMachine::enqueue_delayed(int dst, MessagePtr msg, double deadline) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.delayed.emplace(deadline, std::move(msg));
  }
  mb.cv.notify_one();  // the PE re-bounds its wait by the new deadline
}

cx::wire::PeAggregator& SocketMachine::agg(int pe) {
  auto& a = aggs_[lidx(pe)];
  if (!a) a = std::make_unique<cx::wire::PeAggregator>(agg_cfg_);
  return *a;
}

bool SocketMachine::agg_pending(int pe) const noexcept {
  const auto& a = aggs_[lidx(pe)];
  return a != nullptr && a->has_pending();
}

void SocketMachine::drain_agg(int pe) {
  auto& a = agg(pe);
  while (MessagePtr batch = a.next_ready()) send(std::move(batch));
}

void SocketMachine::deliver(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (is_local(dst)) {
    enqueue(dst, std::move(msg));
    return;
  }
  ship(pe_to_rank(dst), cxnet::encode_frame(*msg));
}

void SocketMachine::send(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send: bad destination PE");
  }
  const int src = t_current_pe;
  msg->src_pe = src;
  if (msg->local != nullptr && !is_local(dst)) {
    // The runtime's location layer only takes the by-reference path for
    // same-process destinations; reaching here is a routing bug.
    throw std::logic_error(
        "send: local-payload message addressed to a remote PE");
  }
  if (agg_on_ && src >= 0) {
    auto& a = agg(src);
    if (cx::wire::agg_eligible(*msg, a.config())) {
      CX_TRACE_EVENT(src, now(), cx::trace::EventKind::MsgSend,
                     static_cast<std::uint64_t>(dst), msg->wire_size());
      // No flush timers here: pe_loop's idle hook seals open batches
      // before the scheduler ever sleeps, so the arm flag is unused.
      (void)a.absorb(std::move(msg));
      drain_agg(src);
      return;
    }
    // Bypassing message headed to a destination with an open batch:
    // seal the batch first so it stays ahead in the mailbox.
    if ((msg->wire_flags & kWireAggBatch) == 0 && dst != src &&
        msg->local == nullptr && a.dst_pending(dst)) {
      a.flush_dst(dst, cx::wire::AggFlush::Ordering);
      drain_agg(src);
    }
  }
  if ((msg->wire_flags & kWireAggBatch) == 0) {
    CX_TRACE_EVENT(src, now(), cx::trace::EventKind::MsgSend,
                   static_cast<std::uint64_t>(dst), msg->wire_size());
  }
  if (src >= 0 && dst != src && msg->local == nullptr) {
    cx::trace::detail::g_wire.transport_msgs.fetch_add(
        1, std::memory_order_relaxed);
  }
  if (ft_enabled_ && src >= 0 && dst != src && !msg->local) {
    FtPeState& me = *ft_pes_[lidx(src)];
    if (ft_.reliable && msg->ft_flags == 0) {
      const std::uint64_t seq = me.sw.allocate(dst);
      msg->ft_seq = seq;
      msg->ft_flags = kFtReliable;
      cx::ft::PendingSend p;
      p.handler = msg->handler;
      p.dst_pe = dst;
      p.data = msg->data;
      p.size_override = msg->size_override;
      p.seq = seq;
      p.wire_flags = msg->wire_flags;  // a resent batch is still a batch
      {
        std::lock_guard<std::mutex> lk(inj_mutex_);
        p.deadline = now() + inj_->retry_timeout(0);
      }
      const double deadline = p.deadline;
      me.sw.pending.emplace(std::make_pair(dst, seq), std::move(p));
      me.sw.arm(dst, seq, deadline);
    }
    if (ft_.injecting()) {
      cx::ft::FaultInjector::Decision d;
      {
        std::lock_guard<std::mutex> lk(inj_mutex_);
        d = inj_->on_wire();
      }
      if (d.drop) {
        CX_TRACE_EVENT(src, now(), cx::trace::EventKind::FtDrop,
                       kDropInjected, msg->ft_seq);
        return;  // lost on the wire; the pending copy recovers it
      }
      if (d.dup) deliver(std::make_unique<Message>(*msg));
      if (d.extra_delay > 0.0 && is_local(dst)) {
        // Remote destinations skip injected latency (see header note).
        enqueue_delayed(dst, std::move(msg), now() + d.extra_delay);
        return;
      }
    }
  }
  deliver(std::move(msg));
}

void SocketMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send_after: bad destination PE");
  }
  if (!is_local(dst)) {
    // Every runtime timer (future deadlines, heartbeat ticks, pool
    // beats) is self-directed; a remote timer has no owner clock.
    throw std::logic_error("send_after: destination PE is remote");
  }
  msg->src_pe = t_current_pe;
  // A timer delivery, not a network message: no trace, no injection.
  enqueue_delayed(dst, std::move(msg), now() + delay_s);
}

// ---------------------------------------------------------------------------
// Failure control. State changes initiated locally broadcast a control
// frame so every rank's view converges (a no-op in a one-rank job);
// frames received from peers apply locally without rebroadcast.

void SocketMachine::rouse(int pe) {
  if (!is_local(pe)) return;
  Mailbox& mb = *mailboxes_[lidx(pe)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
  }
  mb.cv.notify_all();
}

void SocketMachine::notify_failure_once(int pe, cx::ft::FailureKind kind) {
  {
    std::lock_guard<std::mutex> lk(failure_mutex_);
    if (failure_notified_[static_cast<std::size_t>(pe)]) return;
    failure_notified_[static_cast<std::size_t>(pe)] = 1;
  }
  const double t = now();
  CX_TRACE_EVENT(t_current_pe, t, cx::trace::EventKind::FtFailure,
                 static_cast<std::uint64_t>(pe),
                 static_cast<std::uint64_t>(kind));
  if (failure_listener_) {
    failure_listener_(cx::ft::PeFailure{pe, kind, t});
  }
}

void SocketMachine::apply_kill(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  if (crashed_[static_cast<std::size_t>(pe)].exchange(
          true, std::memory_order_relaxed)) {
    return;
  }
  any_failed_.store(true, std::memory_order_release);
  rouse(pe);  // so it starts discarding its backlog promptly
  notify_failure_once(pe, cx::ft::FailureKind::Crashed);
}

void SocketMachine::apply_hang(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  if (hung_[i].exchange(true, std::memory_order_relaxed)) return;
  any_failed_.store(true, std::memory_order_release);
  rouse(pe);  // so it parks promptly
  // Silent by design: peers must discover the hang themselves
  // (retransmit give-up or heartbeats).
}

void SocketMachine::apply_revive(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  if (is_local(pe)) {
    // Discard everything the PE accumulated while down (a hung PE's
    // mailbox kept filling): restore rebuilds application state, so
    // pre-failure messages must not resurface in the revived PE.
    Mailbox& mb = *mailboxes_[lidx(pe)];
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.clear();
    mb.delayed.clear();
    crashed_[i].store(false, std::memory_order_relaxed);
    unreachable_[i].store(false, std::memory_order_relaxed);
    hung_[i].store(false, std::memory_order_relaxed);
    mb.cv.notify_all();
  } else {
    crashed_[i].store(false, std::memory_order_relaxed);
    unreachable_[i].store(false, std::memory_order_relaxed);
    hung_[i].store(false, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lk(failure_mutex_);
  failure_notified_[i] = 0;
}

void SocketMachine::inject_kill(int pe) {
  broadcast_control(cxnet::ControlOp::Kill, pe);
  apply_kill(pe);
}

void SocketMachine::inject_hang(int pe) {
  broadcast_control(cxnet::ControlOp::Hang, pe);
  apply_hang(pe);
}

void SocketMachine::revive_pe(int pe) {
  broadcast_control(cxnet::ControlOp::Revive, pe);
  apply_revive(pe);
}

void SocketMachine::declare_failed(int pe, cx::ft::FailureKind kind) {
  // Declared on external evidence (heartbeat silence): every rank's
  // liveness layer reaches its own verdict, so no broadcast — the
  // runtime's ft_notice round spreads the news at the protocol layer.
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  any_failed_.store(true, std::memory_order_release);
  if (kind == cx::ft::FailureKind::Crashed) {
    crashed_[i].store(true, std::memory_order_relaxed);
  } else if (!hung_[i].load(std::memory_order_relaxed)) {
    // Declared dead on external evidence (heartbeat silence) without a
    // local hang flag: mark unreachable so all traffic to it stops.
    unreachable_[i].store(true, std::memory_order_relaxed);
  }
  rouse(pe);
  notify_failure_once(pe, kind);
}

bool SocketMachine::pe_failed(int pe) const noexcept {
  if (pe < 0 || pe >= num_pes_) return false;
  const auto i = static_cast<std::size_t>(pe);
  return crashed_[i].load(std::memory_order_relaxed) ||
         unreachable_[i].load(std::memory_order_relaxed) ||
         hung_[i].load(std::memory_order_relaxed);
}

void SocketMachine::stop() { request_stop(true); }

void SocketMachine::request_stop(bool broadcast) {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (broadcast) broadcast_control(cxnet::ControlOp::Stop, -1);
  for (auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lock(mb->mutex);
    mb->cv.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Comm thread (multi-rank jobs only): one epoll loop over the peer
// sockets + the wake pipe.

void SocketMachine::ship(int rank, std::vector<std::byte> frame) {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    if (p.down || !p.fd.valid()) return;  // dead rank: drop, ft recovers
    p.outq.push_back(std::move(frame));
  }
  wake_comm();
}

void SocketMachine::wake_comm() {
  const char b = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_w_, &b, 1);
  // EAGAIN means the pipe already holds a wake byte — good enough.
}

void SocketMachine::broadcast_control(cxnet::ControlOp op, int pe) {
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    ship(r, cxnet::encode_control(op, pe, t_current_pe));
  }
}

bool SocketMachine::all_out_drained() {
  std::lock_guard<std::mutex> lock(out_mutex_);
  for (const Peer& p : peers_) {
    if (!p.down && !p.outq.empty()) return false;
  }
  return true;
}

bool SocketMachine::flush_peer(int rank) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  if (!p.fd.valid()) return true;
  for (;;) {
    std::vector<std::byte>* front = nullptr;
    {
      std::lock_guard<std::mutex> lock(out_mutex_);
      if (p.down) return true;
      if (p.outq.empty()) break;
      front = &p.outq.front();
    }
    // Only the comm thread pops, so `front` stays valid unlocked.
    const std::size_t left = front->size() - p.out_off;
    const ssize_t w = ::send(p.fd.get(), front->data() + p.out_off, left,
                             MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!p.want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = p.fd.get();
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd.get(), &ev);
          p.want_write = true;
        }
        return true;
      }
      peer_down(rank, std::string("send failed: ") + std::strerror(errno));
      return false;
    }
    p.out_off += static_cast<std::size_t>(w);
    if (p.out_off == front->size()) {
      p.out_off = 0;
      std::lock_guard<std::mutex> lock(out_mutex_);
      p.outq.pop_front();
    }
  }
  if (p.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = p.fd.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd.get(), &ev);
    p.want_write = false;
  }
  return true;
}

void SocketMachine::handle_frame(int rank, const cxnet::Frame& f) {
  if (f.kind == cxnet::FrameKind::Control) {
    switch (static_cast<cxnet::ControlOp>(f.handler)) {
      case cxnet::ControlOp::Stop:
        request_stop(false);
        return;
      case cxnet::ControlOp::Kill:
        apply_kill(f.dst_pe);
        return;
      case cxnet::ControlOp::Hang:
        apply_hang(f.dst_pe);
        return;
      case cxnet::ControlOp::Revive:
        apply_revive(f.dst_pe);
        return;
    }
    CX_LOG_ERROR("rank ", rank, " sent unknown control opcode ", f.handler);
    return;
  }
  if (!is_local(f.dst_pe)) {
    CX_LOG_ERROR("rank ", rank, " misrouted a frame for PE ", f.dst_pe);
    return;
  }
  enqueue(f.dst_pe, cxnet::frame_to_message(f));
}

void SocketMachine::peer_down(int rank, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    if (p.down) return;
    p.down = true;
    p.outq.clear();
  }
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  if (p.fd.valid()) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd.get(), nullptr);
    p.fd.reset();
  }
  if (stop_.load(std::memory_order_acquire)) return;  // orderly shutdown
  CX_LOG_WARN("connection to rank ", rank, " lost (", why,
              "): declaring its PEs failed");
  // The whole process is gone: every PE it hosted crashed at once. This
  // feeds the same pipeline as heartbeat declaration, so the runtime's
  // recovery machinery runs unchanged.
  for (int pe = rank * ppn_; pe < (rank + 1) * ppn_; ++pe) {
    if (crashed_[static_cast<std::size_t>(pe)].exchange(
            true, std::memory_order_relaxed)) {
      continue;
    }
    any_failed_.store(true, std::memory_order_release);
    notify_failure_once(pe, cx::ft::FailureKind::Crashed);
  }
}

void SocketMachine::comm_loop() {
  cxu::set_log_pe(-1);
  double drain_deadline = -1.0;
  epoll_event events[64];
  std::byte buf[kReadChunk];
  for (;;) {
    // Push pending output first: PE threads only queue + wake.
    for (int r = 0; r < nranks_; ++r) {
      if (r != rank_) (void)flush_peer(r);
    }
    if (comm_stop_.load(std::memory_order_acquire)) {
      if (drain_deadline < 0.0) drain_deadline = now() + kDrainGrace;
      if (all_out_drained() || now() > drain_deadline) break;
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64,
                               comm_stop_.load(std::memory_order_acquire)
                                   ? 20
                                   : 200);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_r_) {
        char drain[256];
        while (::read(wake_r_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      int rank = -1;
      for (int r = 0; r < nranks_; ++r) {
        if (r != rank_ && peers_[static_cast<std::size_t>(r)].fd.valid() &&
            peers_[static_cast<std::size_t>(r)].fd.get() == fd) {
          rank = r;
          break;
        }
      }
      if (rank < 0) continue;  // raced with peer_down
      Peer& p = peers_[static_cast<std::size_t>(rank)];
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        peer_down(rank, "socket error/hangup");
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!flush_peer(rank)) continue;
      }
      if ((events[i].events & EPOLLIN) == 0) continue;
      bool dead = false;
      for (;;) {
        const ssize_t r = ::recv(p.fd.get(), buf, sizeof(buf), 0);
        if (r > 0) {
          p.reader.feed(buf, static_cast<std::size_t>(r));
          cxnet::Frame f;
          for (;;) {
            const auto st = p.reader.next(f);
            if (st == cxnet::FrameReader::Status::Frame) {
              handle_frame(rank, f);
              continue;
            }
            if (st == cxnet::FrameReader::Status::Error) {
              peer_down(rank, "protocol violation: " + p.reader.error());
              dead = true;
            }
            break;
          }
          if (dead) break;
          if (r < static_cast<ssize_t>(sizeof(buf))) break;
          continue;
        }
        if (r == 0) {
          peer_down(rank, "connection closed by peer");
          dead = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        peer_down(rank, std::string("recv failed: ") + std::strerror(errno));
        dead = true;
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler loops: one per local PE. Failure flags are indexed by global
// PE; the remote path is handled by send()/deliver().

void SocketMachine::retransmit_due(int pe, FtPeState& me) {
  // Heap-driven: pop due deadlines off the sender's min-heap instead of
  // scanning every pending send. Stale heap entries (acked, abandoned,
  // or superseded by a later retransmit) are pruned lazily.
  const double tnow = now();
  for (;;) {
    me.sw.prune_due();
    if (me.sw.due.empty()) return;
    const cx::ft::SenderWindow::DueEntry e = me.sw.due.top();
    const auto di = static_cast<std::size_t>(e.dst);
    if (crashed_[di].load(std::memory_order_relaxed) ||
        unreachable_[di].load(std::memory_order_relaxed)) {
      // Known-dead peer: retrying only generates noise.
      me.sw.due.pop();
      me.sw.abandon(e.dst);
      continue;
    }
    if (e.deadline > tnow) return;  // nothing (valid) due yet
    me.sw.due.pop();
    auto it = me.sw.pending.find({e.dst, e.seq});
    if (it == me.sw.pending.end()) continue;  // raced away; harmless
    cx::ft::PendingSend& p = it->second;
    if (p.attempts >= ft_.retry.max_attempts) {
      unreachable_[di].store(true, std::memory_order_relaxed);
      any_failed_.store(true, std::memory_order_release);
      me.sw.abandon(e.dst);
      notify_failure_once(e.dst, cx::ft::FailureKind::Unreachable);
      continue;
    }
    p.attempts++;
    CX_TRACE_EVENT(pe, tnow, cx::trace::EventKind::FtRetransmit,
                   static_cast<std::uint64_t>(e.dst),
                   static_cast<std::uint64_t>(p.attempts));
    {
      std::lock_guard<std::mutex> lk(inj_mutex_);
      p.deadline = tnow + inj_->retry_timeout(p.attempts);
    }
    me.sw.arm(e.dst, e.seq, p.deadline);
    auto copy = cx::wire::clone_payload(p.handler, p.dst_pe, p.data);
    copy->size_override = p.size_override;
    copy->ft_seq = p.seq;
    copy->ft_flags = kFtReliable | kFtRetransmit;
    copy->wire_flags = p.wire_flags;
    send(std::move(copy));  // flags are set: no re-enrollment in send()
  }
}

void SocketMachine::run() {
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  comm_stop_.store(false, std::memory_order_relaxed);
  epoch_ = cxu::wall_time();
  if (nranks_ > 1) comm_thread_ = std::thread([this] { comm_loop(); });
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ppn_));
  for (int i = 0; i < ppn_; ++i) {
    const int pe = pe_base_ + i;
    threads.emplace_back([this, pe] { pe_loop(pe); });
  }
  for (auto& t : threads) t.join();
  if (comm_thread_.joinable()) {
    comm_stop_.store(true, std::memory_order_release);
    wake_comm();
    comm_thread_.join();
  }
  running_ = false;
}

void SocketMachine::pe_loop(int pe) {
  t_current_pe = pe;
  cxu::set_log_pe(pe);
  Mailbox& mb = *mailboxes_[lidx(pe)];
  FtPeState* me = ft_enabled_ ? ft_pes_[lidx(pe)].get() : nullptr;
  constexpr double kNever = cx::ft::SenderWindow::kNever;
  while (true) {
    MessagePtr msg;
    bool stopping = false;
    bool flush_idle = false;
    double idle_s = -1.0;
    {
      std::unique_lock<std::mutex> lock(mb.mutex);
      for (;;) {
        if (any_failed_.load(std::memory_order_relaxed) &&
            hung_[static_cast<std::size_t>(pe)].load(
                std::memory_order_relaxed)) {
          // A hung PE parks: it drains nothing, acks nothing, fires no
          // retransmits — total silence until revive_pe() or stop().
          // Its unacked sends and open batches die with it (own-thread
          // state, so only the owner may clear them).
          if (me && !me->sw.pending.empty()) {
            me->sw.pending.clear();
            while (!me->sw.due.empty()) me->sw.due.pop();
          }
          if (agg_on_ && aggs_[lidx(pe)]) {
            aggs_[lidx(pe)].reset();
          }
          if (stop_.load(std::memory_order_acquire)) {
            stopping = true;
            break;
          }
          mb.cv.wait(lock);
          continue;
        }
        const double tnow = now();
        // Promote deferred deliveries that have come due.
        while (!mb.delayed.empty() && mb.delayed.begin()->first <= tnow) {
          mb.queue.push_back(std::move(mb.delayed.begin()->second));
          mb.delayed.erase(mb.delayed.begin());
        }
        if (!mb.queue.empty()) break;
        if (stop_.load(std::memory_order_acquire)) {
          stopping = true;
          break;
        }
        if (agg_on_ && agg_pending(pe)) {
          // Idle hook: out of work with open batches — seal and send
          // them (outside the mailbox lock) before going to sleep.
          flush_idle = true;
          break;
        }
        // The scheduler is about to sleep: bound the wait by the next
        // deferred delivery and (with ft on) the next retransmit
        // deadline of our own unacked sends.
        double dl = mb.delayed.empty() ? kNever : mb.delayed.begin()->first;
        if (me) dl = std::min(dl, me->sw.next_deadline());
        if (dl <= tnow) break;  // a retransmit is due; handle below
        const double t0 = cxu::wall_time();
        if (dl >= kNever) {
          mb.cv.wait(lock);
        } else {
          mb.cv.wait_for(lock, std::chrono::duration<double>(dl - tnow));
        }
        const double waited = cxu::wall_time() - t0;
        idle_s = (idle_s < 0.0 ? 0.0 : idle_s) + waited;
      }
      if (!mb.queue.empty()) {
        msg = std::move(mb.queue.front());
        mb.queue.pop_front();
      }
    }
    if (idle_s >= 0.0) {
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::Idle,
                     static_cast<std::uint64_t>(idle_s * 1e9), 0);
    }
    if (me && !me->sw.pending.empty()) retransmit_due(pe, *me);
    if (!msg) {
      if (stopping) break;
      if (flush_idle) {
        if (any_failed_.load(std::memory_order_relaxed) &&
            crashed_[static_cast<std::size_t>(pe)].load(
                std::memory_order_relaxed)) {
          // A crashed PE's unsent batches die with it (like its
          // mailbox backlog) — drop them instead of spinning.
          aggs_[lidx(pe)].reset();
        } else {
          agg(pe).flush_all(cx::wire::AggFlush::Idle);
          drain_agg(pe);
        }
      }
      continue;  // woke only to flush batches / service retransmits
    }
    if (any_failed_.load(std::memory_order_relaxed) &&
        crashed_[static_cast<std::size_t>(pe)].load(
            std::memory_order_relaxed)) {
      // A crashed PE drains its mailbox but processes — and acks —
      // nothing, so peers see it as dead.
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop, kDropDeadDst,
                     msg->ft_seq);
      continue;
    }
    if (me && msg->ft_flags != 0) {
      if (msg->ft_flags & kFtAck) {
        me->sw.acked(msg->src_pe, msg->ft_seq);
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
        CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtAck,
                       static_cast<std::uint64_t>(msg->src_pe), msg->ft_seq);
        send(std::move(ack));
        if (!me->rw.first_delivery(msg->src_pe, msg->ft_seq)) {
          CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop,
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
            CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::MsgRecv, src64,
                           len);
            handlers_[h](std::move(sub));
          });
      if (!ok) CX_LOG_ERROR("dropping malformed aggregation batch");
      if (stop_.load(std::memory_order_acquire)) break;
      continue;
    }
    const std::uint32_t h = msg->handler;
    if (h >= handlers_.size()) {
      CX_LOG_ERROR("dropping message with unknown handler ", h);
      continue;
    }
    CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::MsgRecv,
                   static_cast<std::uint32_t>(msg->src_pe),
                   msg->wire_size());
    handlers_[h](std::move(msg));
    if (stop_.load(std::memory_order_acquire)) {
      // Finish promptly on stop; remaining queued messages are dropped by
      // design (mirrors charm.exit() semantics).
      break;
    }
  }
  t_current_pe = -1;
  cxu::set_log_pe(-1);
}

}  // namespace cxm
