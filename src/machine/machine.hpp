#pragma once
// Machine — the execution substrate under the runtime.
//
// A Machine owns a set of PEs (processing elements), a handler table, and
// the transport between PEs. Two implementations exist:
//
//   * SocketMachine (Backend::Threaded) — the PE-thread machine: one
//     std::thread per PE, per-PE mailboxes, real wall clock. Used by
//     tests, examples and host-scale benchmarks. A plain run is one OS
//     process hosting every PE; launched by `cxrun` (the CXRUN_*
//     environment is set), the same machine becomes one rank of an
//     N-process job, with a nonblocking-TCP/epoll comm thread bridging
//     ranks via length-prefixed cx::wire envelopes (src/net/).
//
//   * SimMachine (Backend::Sim) — a deterministic discrete-event
//     simulator: virtual PEs, per-PE virtual clocks and a NetworkModel.
//     Entry methods execute real code; time is charged via
//     compute()/charge-scopes and the network model. This is the
//     BigSim-style backend used to regenerate the paper's
//     supercomputer-scale figures (1k-65k PEs) on a workstation.
//
// The runtime registers handlers once (before run()) and then communicates
// exclusively through send(). All handler execution happens on the
// destination PE's context.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ft/fault.hpp"
#include "machine/message.hpp"
#include "machine/network.hpp"

namespace cxm {

using Handler = std::function<void(MessagePtr)>;

enum class Backend { Threaded, Sim };

/// PE-thread machine geometry, filled by make_machine(): one rank of
/// num_pes PEs for a plain threaded run, or the CXRUN_* environment
/// under `cxrun`, whose launcher runs the root rendezvous the ranks
/// wire up through.
struct SocketParams {
  int rank = 0;
  int nranks = 1;
  int ppn = 1;  ///< worker PEs per rank; global PE count = nranks * ppn
  std::string root_host = "127.0.0.1";
  std::uint16_t root_port = 0;
};

struct MachineConfig {
  int num_pes = 4;
  Backend backend = Backend::Threaded;
  /// Rank geometry, derived by make_machine() (caller values are
  /// overwritten). Under cxrun the global PE count is nranks * ppn
  /// (num_pes above is ignored — the launcher owns the job shape).
  SocketParams socket{};
  /// Simulated network (ignored by the threaded backend):
  std::string network = "simple";  ///< "simple" | "torus" | "dragonfly"
  NetworkParams net{};
  std::uint64_t seed = 1;  ///< tie-break seed (reserved; DES is FIFO-stable)
  /// Fault-tolerance knobs (cx::ft). Defaults are all-off: both
  /// backends keep the exact pre-ft fast path when faults.enabled()
  /// is false.
  cx::ft::FaultConfig faults{};
};

class Machine {
 public:
  virtual ~Machine() = default;

  /// Register a handler; returns its id. Only valid before run().
  virtual std::uint32_t register_handler(Handler h) = 0;

  /// Number of PEs.
  [[nodiscard]] virtual int num_pes() const noexcept = 0;

  /// PE id of the calling context; -1 if not on a PE (e.g. driver thread).
  [[nodiscard]] virtual int current_pe() const noexcept = 0;

  /// Enqueue a message for delivery to msg->dst_pe. Callable from any PE
  /// context, and from outside run() to seed initial work.
  virtual void send(MessagePtr msg) = 0;

  /// Current time (seconds) on the calling PE: wall time for the threaded
  /// backend, virtual time for the simulator.
  [[nodiscard]] virtual double now() const = 0;

  /// Charge `seconds` of compute to the calling PE: the simulator advances
  /// its virtual clock; the threaded backend spins for that long (used for
  /// synthetic load injection, e.g. the paper's imbalance factors).
  virtual void compute(double seconds) = 0;

  /// Advance the calling PE's clock without consuming host CPU. In the
  /// threaded backend this is a no-op (real work already took real time);
  /// in the simulator it is how measured kernel times are charged.
  virtual void charge(double seconds) = 0;

  /// Run the scheduler loop on all PEs; blocks until stop() is called (or,
  /// for the simulator, until the event queue drains).
  virtual void run() = 0;

  /// Request termination of all PE loops. Callable from handler context.
  virtual void stop() = 0;

  /// True when the machine uses virtual time (SimMachine).
  [[nodiscard]] virtual bool is_simulated() const noexcept = 0;

  // ---- multi-process locality --------------------------------------------
  // Single-process runs host every PE in rank 0 of 1.

  /// This process's rank in the job.
  [[nodiscard]] virtual int my_rank() const noexcept { return 0; }

  /// Number of OS processes in the job.
  [[nodiscard]] virtual int num_ranks() const noexcept { return 1; }

  /// The rank hosting `pe` (block distribution: pe / ppn).
  [[nodiscard]] virtual int pe_to_rank(int /*pe*/) const noexcept {
    return 0;
  }

  /// Whether `pe`'s scheduler thread runs in this process. The runtime
  /// gates per-PE seeding (the Start envelope, heartbeat timers) on
  /// this so each rank only drives its own PEs.
  [[nodiscard]] bool hosts_pe(int pe) const noexcept {
    return pe_to_rank(pe) == my_rank();
  }

  // ---- fault tolerance (cx::ft) -----------------------------------------

  /// Deliver `msg` to msg->dst_pe after `delay_s` seconds of the calling
  /// PE's clock, without charging network cost. Used for runtime timers
  /// (future timeouts); delivery goes through the normal handler table.
  virtual void send_after(MessagePtr msg, double delay_s) = 0;

  /// Mark `pe` crashed: it stops processing (and acking) everything from
  /// now on. Notifies the failure listener. Callable from handler context.
  virtual void inject_kill(int pe) = 0;

  /// Make `pe` stop draining its mailbox without any notification — the
  /// test/chaos hook for silent failures. Peers only learn of it via
  /// retransmit give-up or the heartbeat detector (declare_failed).
  virtual void inject_hang(int pe) = 0;

  /// Mark `pe` failed as `kind` based on external evidence (the
  /// liveness layer's accrual detector crossing its threshold). Traffic
  /// to the PE stops and the failure listener fires once, exactly as if
  /// the machine had detected the failure itself.
  virtual void declare_failed(int pe, cx::ft::FailureKind kind) = 0;

  /// Undo inject_kill / a scripted crash or hang, as part of restart.
  /// Messages the PE accumulated while down are discarded.
  virtual void revive_pe(int pe) = 0;

  /// True when `pe` is currently marked crashed, hung, or unreachable.
  [[nodiscard]] virtual bool pe_failed(int pe) const noexcept = 0;

  using FailureListener = std::function<void(const cx::ft::PeFailure&)>;

  /// Install the callback invoked (from machine context — scheduler
  /// thread on Sim, a PE thread on Threaded) when a PE failure is
  /// detected: scripted crash, inject_kill, or retransmit give-up.
  /// At most one notification fires per failed PE.
  void set_failure_listener(FailureListener cb) {
    failure_listener_ = std::move(cb);
  }

 protected:
  FailureListener failure_listener_;
};

/// Create a machine from a config. A Threaded request runs num_pes PE
/// threads in this process (rank 0 of 1; throws std::invalid_argument
/// when num_pes < 1). When the CXRUN_* environment is set (the process
/// was launched by cxrun) it joins the multi-process job instead, with
/// the launcher's geometry; throws if that environment is malformed.
/// Sim runs are never upgraded.
std::unique_ptr<Machine> make_machine(const MachineConfig& cfg);

/// The rank cxrun assigned this process, or 0 when not under cxrun.
/// Usable before any Machine exists — examples gate their result
/// printing on it.
int launched_rank();

}  // namespace cxm
