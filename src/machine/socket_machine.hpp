#pragma once
// SocketMachine — the PE-thread machine: one OS thread per local PE,
// per-PE MPSC mailbox, wall clock, plus an optional TCP rank bridge.
//
// A job is `nranks` OS processes (ranks), each hosting `ppn` PEs (global
// PE p lives on rank p/ppn). A plain threaded run is the one-rank case
// {rank 0, nranks 1, ppn = num_pes}: every PE is local, and the machine
// creates no comm thread, wake pipe or epoll fd — just the PE threads.
//
// With nranks > 1 (launched by cxrun), one comm thread per rank runs an
// epoll loop over one connection per peer rank. Within a rank, PEs talk
// through the mailboxes — including the by-reference `local` payload
// fast path, which never crosses a socket. Cross-rank messages are the
// cx::wire envelope verbatim behind a u32 length prefix (src/net/
// frame.hpp); connections open with a version/endianness/ABI handshake
// so a mismatched peer is rejected with a clear error instead of
// silently corrupting native-endian payloads.
//
// Fault tolerance (cx::ft): with MachineConfig::faults enabled, cross-PE
// sends pass through a seeded injector (drop/duplicate/delay) and the
// seq+ack reliable-delivery protocol. Sender-side windows and receiver
// dedup state are owned by each PE's thread (sends run on the sender's
// thread; acks are routed back to the sender's mailbox), so the protocol
// needs no extra locks — only the shared injector takes a mutex, and
// only when injection is configured. Retransmit deadlines and delayed
// deliveries are honored by bounding the mailbox cv wait. Scripted
// crash/hang at a virtual time is a SimMachine feature; here PEs die via
// Machine::inject_kill (a crashed PE keeps draining its mailbox but
// discards — and never acks — everything). The ft header rides in the
// frame, and a broken or EOF'd connection marks every PE of that rank
// crashed and feeds the same failure-listener pipeline heartbeat
// detection uses — so a kill -9'd worker process is detected and
// declared without new protocol. An injected extra delay is only
// honored for rank-local destinations (TCP supplies real latency, and
// delaying inside the comm thread would stall unrelated traffic).
//
// Hand-offs: a PE that runs out of work polls its mailbox for a short
// window before it parks on the condition variable (only when the host
// has a core for every PE thread), and a sending thread writes a small
// frame straight to the peer socket when nothing is queued for that
// peer. Both spare a sleeping thread's wake-up per message; see
// DESIGN.md §14 for the rules and the FIFO argument.
//
// Wireup: the launcher (cxrun, or a test harness) listens as the
// rendezvous root; every rank connects, sends its handshake + data
// port, and receives the rank->endpoint table, then the ranks build a
// full mesh (connect to lower ranks, accept from higher ones).

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "ft/fault.hpp"
#include "ft/reliable.hpp"
#include "machine/machine.hpp"
#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "wire/agg.hpp"

namespace cxm {

class SocketMachine final : public Machine {
 public:
  explicit SocketMachine(const MachineConfig& cfg);
  ~SocketMachine() override;

  std::uint32_t register_handler(Handler h) override;
  [[nodiscard]] int num_pes() const noexcept override { return num_pes_; }
  [[nodiscard]] int current_pe() const noexcept override;
  void send(MessagePtr msg) override;
  [[nodiscard]] double now() const override;
  void compute(double seconds) override;
  void charge(double seconds) override;
  void run() override;
  void stop() override;
  [[nodiscard]] bool is_simulated() const noexcept override { return false; }

  [[nodiscard]] int my_rank() const noexcept override { return rank_; }
  [[nodiscard]] int num_ranks() const noexcept override { return nranks_; }
  [[nodiscard]] int pe_to_rank(int pe) const noexcept override {
    return pe / ppn_;
  }

  void send_after(MessagePtr msg, double delay_s) override;
  void inject_kill(int pe) override;
  void inject_hang(int pe) override;
  void declare_failed(int pe, cx::ft::FailureKind kind) override;
  void revive_pe(int pe) override;
  [[nodiscard]] bool pe_failed(int pe) const noexcept override;

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<MessagePtr> queue;
    /// Deferred deliveries (send_after, injected delays), keyed by the
    /// absolute machine-time deadline; promoted into `queue` when due.
    std::multimap<double, MessagePtr> delayed;
    /// Bumped under `mutex` by every post (queue or delayed), so an idle
    /// owner can poll for work without taking the lock (pe_loop).
    std::atomic<std::uint64_t> posts{0};
  };

  /// Per-local-PE ft protocol state, touched only by the owning thread.
  struct FtPeState {
    cx::ft::SenderWindow sw;
    cx::ft::ReceiverWindow rw;
  };

  /// One peer rank's connection. `outq`/`down` are guarded by
  /// `out_mutex` (producers are the sending threads, consumer is the
  /// comm thread), and so is every write to the socket while `outq` is
  /// empty (ship's inline path). `out_off` is set by an inline partial
  /// write under the lock and otherwise advanced by the comm thread,
  /// which alone writes while `outq` is non-empty. The rest is
  /// comm-thread-only.
  struct Peer {
    std::mutex out_mutex;
    cxnet::Fd fd;
    cxnet::FrameReader reader;
    std::deque<std::vector<std::byte>> outq;
    std::size_t out_off = 0;   ///< bytes of outq.front() already written
    bool want_write = false;   ///< EPOLLOUT currently armed
    bool down = false;
  };

  [[nodiscard]] bool is_local(int pe) const noexcept {
    return pe >= pe_base_ && pe < pe_base_ + ppn_;
  }
  [[nodiscard]] std::size_t lidx(int pe) const noexcept {
    return static_cast<std::size_t>(pe - pe_base_);
  }

  void pe_loop(int pe);
  /// Spin (pause, with the odd yield) until `mb` sees a post past
  /// `seen`, machine time reaches `until`, or stop/failure is flagged.
  /// Returns true if a post was seen. Called without the mailbox lock.
  bool poll_mailbox(const Mailbox& mb, std::uint64_t seen, double until);
  void enqueue(int dst, MessagePtr msg);
  void enqueue_delayed(int dst, MessagePtr msg, double deadline);
  void deliver(MessagePtr msg);
  void retransmit_due(int pe, FtPeState& me);
  void notify_failure_once(int pe, cx::ft::FailureKind kind);
  void request_stop(bool broadcast);
  void apply_kill(int pe);
  void apply_hang(int pe);
  void apply_revive(int pe);
  /// Wake local PE `pe` so it re-reads its failure flags promptly.
  void rouse(int pe);

  // ---- comm thread (nranks > 1 only) -------------------------------------
  void comm_loop();
  void ship(int rank, std::vector<std::byte> frame);
  void wake_comm();
  void broadcast_control(cxnet::ControlOp op, int pe);
  /// Write as much of `p`'s outq as the socket accepts; arms/disarms
  /// EPOLLOUT. Comm thread only. Returns false if the peer broke.
  bool flush_peer(int rank);
  void handle_frame(int rank, const cxnet::Frame& f);
  void peer_down(int rank, const std::string& why);
  [[nodiscard]] bool all_out_drained();

  // ---- sender-side aggregation (--wire-agg), local PEs only --------------
  // Each PE's aggregator is touched only by its own scheduler thread
  // (sends run on the sender's thread), so no locks are needed. The idle
  // hook lives in pe_loop: a PE never sleeps on its mailbox while it
  // still holds open batches.
  [[nodiscard]] cx::wire::PeAggregator& agg(int pe);
  [[nodiscard]] bool agg_pending(int pe) const noexcept;
  void drain_agg(int pe);

  int rank_;
  int nranks_;
  int ppn_;
  int num_pes_;   ///< global PE count = nranks * ppn
  int pe_base_;   ///< first global PE hosted here = rank * ppn

  std::vector<Handler> handlers_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  ///< local PEs (ppn)
  bool agg_on_ = false;  ///< sampled from cx::wire::agg_enabled() at ctor
  cx::wire::AggConfig agg_cfg_;
  std::vector<std::unique_ptr<cx::wire::PeAggregator>> aggs_;  ///< local
  std::atomic<bool> stop_{false};
  bool running_ = false;
  double epoch_ = 0.0;

  cx::ft::FaultConfig ft_;
  bool ft_enabled_ = false;
  std::unique_ptr<cx::ft::FaultInjector> inj_;
  std::mutex inj_mutex_;  ///< injector draws come from many PE threads
  std::vector<std::unique_ptr<FtPeState>> ft_pes_;  ///< local PEs
  // Liveness flags cover every GLOBAL PE: remote failures must stop
  // local traffic (retransmit abandon) exactly like local ones. They are
  // always allocated: inject_kill() must work even without any --ft-*
  // config (e.g. pool tests kill a worker directly).
  std::atomic<bool> any_failed_{false};
  std::vector<std::atomic<bool>> crashed_;
  std::vector<std::atomic<bool>> unreachable_;
  /// A hung PE parks: unlike a crashed PE it does not even drain its
  /// mailbox, so peers see total silence (no acks, no heartbeats).
  std::vector<std::atomic<bool>> hung_;
  std::mutex failure_mutex_;
  std::vector<std::uint8_t> failure_notified_;  ///< guarded by failure_mutex_

  /// An out-of-work PE polls its mailbox before parking only when every
  /// PE thread on this host can have a core: nranks * ppn (cxrun forks
  /// every rank here) <= the CPUs this process may run on. Comm threads
  /// are not counted: they sleep in epoll between frames (DESIGN §14
  /// has the measurement behind both choices). Fixed at construction.
  bool poll_idle_ = false;

  std::vector<Peer> peers_;  ///< indexed by rank; self entry unused
  int epoll_fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;  ///< self-pipe to rouse the comm thread
  std::thread comm_thread_;
  std::atomic<bool> comm_stop_{false};
};

}  // namespace cxm
