#pragma once
// cx::trace — runtime-wide event tracing and metrics (Projections-lite).
//
// Every runtime layer records typed events into a per-PE lock-free ring
// buffer: message sends/receives with byte counts, entry-method begin/end
// with chare identity, scheduler idle spans, reduction contribute/deliver,
// when-buffer depth, migration, LB strategy decisions, fiber
// suspend/resume, dynamic-dispatch and pool job lifecycle. Each PE writes
// only its own ring (single producer, no synchronization beyond a release
// store), so recording is wait-free; counters aggregate into per-PE and
// global summaries (messages, bytes, idle %, entry-method time
// histograms).
//
// Timestamps come from the machine backend that records them: wall clock
// on the PE-thread machine (SocketMachine, threaded or under cxrun),
// virtual clock on SimMachine — so DES figure runs are traceable with the
// same pipeline.
//
// Usage (benches/examples):
//
//   cxu::Options opt(argc, argv);
//   cx::trace::configure_from_options(opt);   // --trace, --trace-out=...
//   ... run the program ...
//   cx::trace::report_if_enabled();           // JSON timeline + summary
//
// The disabled path costs one relaxed atomic load + branch per hook; the
// hooks compile out entirely with -DCHARMX_TRACE_DISABLED.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cxu {
class Options;
}

namespace cx::trace {

// Payload meaning per kind (a, b are generic 64-bit slots):
//   MsgSend       a = dst PE            b = bytes on the wire
//   MsgRecv       a = src PE (0xffffffff = external/bootstrap)
//                                       b = bytes on the wire
//   Idle          a = span nanoseconds  b = 0        (time = span end)
//   EntryBegin    a = collection id     b = entry-point id
//   EntryEnd      a = entry-point id    b = span nanoseconds
//   WhenBuffer    a = collection id     b = buffer depth after enqueue
//   RedContribute a = collection id     b = reduction number
//   RedDeliver    a = collection id     b = reduction number
//   MigrateOut    a = collection id     b = destination PE
//   MigrateIn     a = collection id     b = 0
//   LbDecision    a = migrations       b = load records considered
//   FiberSuspend  a = 0                 b = 0
//   FiberResume   a = 0                 b = 0
//   DynDispatch   a = method-name hash  b = 0
//   PoolJobQueued a = job id            b = free procs at enqueue
//   PoolJobStart  a = job id            b = procs granted
//   PoolJobDone   a = job id            b = tasks completed
//   FtDrop        a = reason (0=injected, 1=duplicate suppressed,
//                             2=dst crashed/hung, 3=stale timer)
//                                       b = ft sequence number
//   FtAck         a = acked PE          b = ft sequence number
//   FtRetransmit  a = dst PE            b = attempt number
//   FtFailure     a = failed PE         b = FailureKind
//   FtCheckpoint  a = epoch             b = blob bytes on this PE
//   FtRestore     a = epoch             b = blob bytes on this PE
//   FtResubmit    a = failed PE         b = tasks resubmitted
//   FtDetect      a = suspected PE      b = silence nanoseconds
//                                           (heartbeat detection latency)
//   FtNotice      a = failed PE         b = recovery round
//   FtRecover     a = recovery round    b = MTTR nanoseconds
//                                           (failure detection -> restored)

// One row per event kind, in enum order. X(Kind, json_name, counter): each
// event bumps Counters::counter by one. N(Kind, json_name): the kind counts
// nothing (EntryEnd counts the entry, FtRecover the recovery round).
#define CX_TRACE_KINDS(X, N)                                                  \
  X(MsgSend, msg_send, msgs_sent)                                             \
  X(MsgRecv, msg_recv, msgs_recv)                                             \
  X(Idle, idle, idle_spans)                                                   \
  N(EntryBegin, entry_begin)                                                  \
  X(EntryEnd, entry_end, entries)                                             \
  X(WhenBuffer, when_buffer, when_buffered)                                   \
  X(RedContribute, red_contribute, reductions_contributed)                    \
  X(RedDeliver, red_deliver, reductions_delivered)                            \
  X(MigrateOut, migrate_out, migrations_out)                                  \
  X(MigrateIn, migrate_in, migrations_in)                                     \
  X(LbDecision, lb_decision, lb_decisions)                                    \
  X(FiberSuspend, fiber_suspend, fiber_suspends)                              \
  X(FiberResume, fiber_resume, fiber_resumes)                                 \
  X(DynDispatch, dyn_dispatch, dyn_dispatches)                                \
  X(PoolJobQueued, pool_job_queued, pool_jobs_queued)                         \
  X(PoolJobStart, pool_job_start, pool_jobs_started)                          \
  X(PoolJobDone, pool_job_done, pool_jobs_done)                               \
  X(FtDrop, ft_drop, ft_drops)                                                \
  X(FtAck, ft_ack, ft_acks)                                                   \
  X(FtRetransmit, ft_retransmit, ft_retransmits)                              \
  X(FtFailure, ft_failure, ft_failures)                                       \
  X(FtCheckpoint, ft_checkpoint, ft_checkpoints)                              \
  X(FtRestore, ft_restore, ft_restores)                                       \
  X(FtResubmit, ft_resubmit, ft_resubmits)                                    \
  X(FtDetect, ft_detect, ft_detections) /* heartbeat-detector declarations */ \
  N(FtNotice, ft_notice) /* informational; rounds are counted at FtRecover */ \
  X(FtRecover, ft_recover, ft_recoveries) /* completed auto-recovery rounds */

// Row macros for the tables: CX_TRACE_NONE drops a row; the others declare
// an enumerator, a Counters count, or a stat family's plain/atomic field.
#define CX_TRACE_NONE(...)
#define CX_TRACE_ENUMERATOR(Kind, ...) Kind,
#define CX_TRACE_COUNT_FIELD(Kind, name, counter) std::uint64_t counter = 0;
#define CX_TRACE_U64_FIELD(name, fold) std::uint64_t name = 0;
#define CX_TRACE_ATOMIC_FIELD(name, fold) std::atomic<std::uint64_t> name{0};

enum class EventKind : std::uint8_t {
  CX_TRACE_KINDS(CX_TRACE_ENUMERATOR, CX_TRACE_ENUMERATOR)
};

/// Stable snake_case name used in the JSON timeline.
const char* kind_name(EventKind k) noexcept;

struct Event {
  double time = 0.0;  ///< backend clock: wall (threaded) or virtual (sim)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  EventKind kind = EventKind::MsgSend;
};

/// Number of log2 buckets in the entry-method time histogram. Bucket i
/// holds entries with duration in [2^i, 2^(i+1)) microseconds; bucket 0
/// also holds sub-microsecond entries.
inline constexpr int kHistBuckets = 20;

struct Counters {
  CX_TRACE_KINDS(CX_TRACE_COUNT_FIELD, CX_TRACE_NONE)
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  double entry_time = 0.0;           ///< seconds inside entry methods
  double idle_time = 0.0;            ///< seconds the scheduler sat idle
  double ft_detect_latency_s = 0.0;  ///< summed silence at detection
  double ft_mttr_s = 0.0;            ///< summed MTTR across rounds
  std::uint64_t dropped_events = 0;  ///< ring overwrites (oldest lost)
  std::uint64_t entry_hist[kHistBuckets] = {0};

  void merge(const Counters& o);
};

// ---- always-on stat families ----------------------------------------------
//
// Each family below is one field list of X(name, fold) rows, where fold
// says how the per-thread values of a field combine in a snapshot: `sum`
// for counts, `max` for high-water marks. The list generates the public
// snapshot struct's fields and the detail::*Atomics struct the hook
// sites bump (relaxed fetch_add on a named member); trace.cpp turns it
// into the row table behind the snapshot function, zeroing in
// reset_stats() and the family's JSON object. Derived rates stay
// hand-written methods of the snapshot struct.
//
// The hooks run on every message from every PE thread, so the counters
// are sharded: each thread bumps its own cache-line-aligned StatShard
// (detail::wire(), when(), pool(), section() below), and no two threads
// write one line. A snapshot folds every shard, including those of
// threads that have exited: a snapshot taken after a Runtime's PE
// threads are joined sees all of their work.

// ---- cx::wire allocation counters ---------------------------------------
//
// The wire layer (single-pass envelopes, pooled buffers) reports its
// allocation behaviour here so benches can compute allocs-per-send,
// bytes-per-send and pool hit rate. Unlike events, these are always on
// (plain relaxed atomic adds — cheap next to the heap traffic they
// count) so --wire-pool A/B runs work without --trace.

#define CX_TRACE_WIRE_FIELDS(X)                                               \
  X(envelopes, sum)       /* messages built by the wire builder */            \
  X(bytes_packed, sum)    /* header+body bytes packed */                      \
  X(sbo_payloads, sum)    /* envelopes that fit inline (no heap) */           \
  X(buf_allocs, sum)      /* payload blocks taken from the system */          \
  X(buf_hits, sum)        /* payload blocks served from the pool */           \
  X(buf_recycled, sum)    /* payload blocks returned to the pool */           \
  X(msg_allocs, sum)      /* Message objects from the system */               \
  X(msg_hits, sum)        /* Message objects from the pool */                 \
  X(msg_recycled, sum)    /* Message objects returned to the pool */          \
  X(env_allocs, sum)      /* LocalEnvelopes from the system */                \
  X(env_hits, sum)        /* LocalEnvelopes from the pool */                  \
  /* Sender-side aggregation (--wire-agg). transport_msgs counts physical     \
     cross-PE wire envelopes (batches count once); agg_msgs counts            \
     application messages that travelled inside a batch. The flush_*          \
     counters break sealed batches down by trigger. */                        \
  X(transport_msgs, sum)  /* physical cross-PE envelopes */                   \
  X(agg_batches, sum)     /* batches sealed */                                \
  X(agg_msgs, sum)        /* app messages absorbed into batches */            \
  X(agg_flush_bytes, sum) /* seals: byte threshold */                         \
  X(agg_flush_count, sum) /* seals: message-count threshold */                \
  X(agg_flush_idle, sum)  /* seals: idle scheduler / DES timer */             \
  X(agg_flush_order, sum) /* seals: ordering (bypass/class switch) */

struct WireStats {
  CX_TRACE_WIRE_FIELDS(CX_TRACE_U64_FIELD)

  /// Mean messages per sealed batch (0 when no batches were sealed).
  [[nodiscard]] double msgs_per_batch() const noexcept {
    return agg_batches > 0 ? static_cast<double>(agg_msgs) /
                                 static_cast<double>(agg_batches)
                           : 0.0;
  }

  /// Pool hit rate over every allocation the wire layer served.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total =
        buf_allocs + buf_hits + msg_allocs + msg_hits + env_allocs + env_hits;
    const std::uint64_t hits = buf_hits + msg_hits + env_hits;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

namespace detail {
struct WireAtomics { CX_TRACE_WIRE_FIELDS(CX_TRACE_ATOMIC_FIELD) };
}  // namespace detail

/// Snapshot of the wire counters since begin_run()/reset_stats().
[[nodiscard]] WireStats wire_stats() noexcept;

// ---- when/wait condition-engine counters ---------------------------------
//
// The condition-aware delivery engine (core/when.hpp, delivery.cpp)
// reports its work here: predicate evaluations, buffered deliveries,
// releases, and how many re-tests dependency tracking skipped. Always on
// (relaxed atomic adds, batched per retest pass) so bench/micro_when A/B
// runs work without --trace.

#define CX_TRACE_WHEN_FIELDS(X)                                               \
  X(tests, sum)      /* when-predicate evaluations */                         \
  X(hits, sum)       /* buffered messages released (re-test hit) */           \
  X(buffered, sum)   /* deliveries that were buffered */                      \
  X(skipped, sum)    /* re-tests avoided by dependency tracking */            \
  X(high_water, max) /* max buffered messages on one chare */

struct WhenEngineStats {
  CX_TRACE_WHEN_FIELDS(CX_TRACE_U64_FIELD)

  /// Re-tests avoided as a fraction of all re-test opportunities.
  [[nodiscard]] double skip_rate() const noexcept {
    const std::uint64_t total = tests + skipped;
    return total > 0
               ? static_cast<double>(skipped) / static_cast<double>(total)
               : 0.0;
  }
};

namespace detail {
struct WhenAtomics { CX_TRACE_WHEN_FIELDS(CX_TRACE_ATOMIC_FIELD) };

/// Relaxed CAS-max for the high-water fields: raise `slot` to `v` unless
/// it already holds more.
inline void raise_max(std::atomic<std::uint64_t>& slot,
                      std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Snapshot of the when-engine counters since begin_run()/reset_stats().
[[nodiscard]] WhenEngineStats when_stats() noexcept;

// ---- task-pool engine counters -------------------------------------------
//
// The chunked/stealing pool (src/pool/) reports its scheduling work
// here: grants and their sizes, steal traffic, result batches, beats,
// and the per-task latency histogram benches read p99 from. Always on
// (relaxed atomic adds) so bench/micro_pool A/B runs work without
// --trace.

/// Log2-nanosecond buckets for the pool task-latency histogram. Bucket
/// i holds tasks with execution time in [2^i, 2^(i+1)) ns.
inline constexpr int kPoolLatBuckets = 48;

#define CX_TRACE_POOL_FIELDS(X)                                               \
  X(grants, sum)           /* chunk grants sent by the master */              \
  X(granted_tasks, sum)    /* tasks covered by those grants */                \
  X(max_chunk, max)        /* largest single grant */                         \
  X(steal_attempts, sum)   /* steal requests sent by workers */               \
  X(steal_hits, sum)       /* steals that returned work */                    \
  X(stolen_tasks, sum)     /* tasks moved worker-to-worker */                 \
  X(result_batches, sum)   /* batched result messages */                      \
  X(tasks_done, sum)       /* task executions (incl. reruns) */               \
  X(beats, sum)            /* decoupled heartbeat messages */                 \
  X(reassigns, sum)        /* steal reassignments at the master */            \
  X(inflight_clamps, sum)  /* grants clamped by --pool-max-inflight */        \
  X(queue_high_water, max) /* max jobs waiting for processors */              \
  X(task_ns_sum, sum)      /* summed task execution nanoseconds */

struct PoolStats {
  CX_TRACE_POOL_FIELDS(CX_TRACE_U64_FIELD)
  std::uint64_t lat_hist[kPoolLatBuckets] = {0};

  /// Mean tasks per grant (0 when no grants went out).
  [[nodiscard]] double mean_chunk() const noexcept {
    return grants > 0 ? static_cast<double>(granted_tasks) /
                            static_cast<double>(grants)
                      : 0.0;
  }

  /// Fraction of steal attempts that returned work.
  [[nodiscard]] double steal_hit_rate() const noexcept {
    return steal_attempts > 0 ? static_cast<double>(steal_hits) /
                                    static_cast<double>(steal_attempts)
                              : 0.0;
  }

  /// Mean task execution seconds (0 when no tasks ran).
  [[nodiscard]] double mean_task_s() const noexcept {
    return tasks_done > 0 ? static_cast<double>(task_ns_sum) * 1e-9 /
                                static_cast<double>(tasks_done)
                          : 0.0;
  }

  /// p99 task execution seconds, read off the log2 histogram (upper
  /// bucket edge — a conservative estimate).
  [[nodiscard]] double p99_task_s() const noexcept;
};

namespace detail {
struct PoolAtomics {
  CX_TRACE_POOL_FIELDS(CX_TRACE_ATOMIC_FIELD)
  std::atomic<std::uint64_t> lat_hist[kPoolLatBuckets] = {};

  void note_task(std::uint64_t ns) noexcept;
};
}  // namespace detail

/// Snapshot of the pool counters since begin_run()/reset_stats().
[[nodiscard]] PoolStats pool_stats() noexcept;

/// One completed pool job, recorded by the master at job completion.
/// Times come from the backend clock (virtual on the simulator).
struct PoolJobRecord {
  std::uint64_t job_id = 0;
  std::int64_t priority = 0;
  std::uint64_t tasks = 0;
  double submit_t = 0.0;  ///< map_async reached the master
  double start_t = 0.0;   ///< first processors granted
  double done_t = 0.0;    ///< future resolved
  bool failed = false;

  /// Job throughput over its running span (tasks per second).
  [[nodiscard]] double tasks_per_s() const noexcept {
    const double span = done_t - start_t;
    return span > 0 ? static_cast<double>(tasks) / span : 0.0;
  }
};

/// Append one job record (called by the pool master; mutex-guarded).
void pool_job_note(const PoolJobRecord& rec);

/// Job records accumulated since begin_run()/reset_stats().
[[nodiscard]] std::vector<PoolJobRecord> pool_job_records();

// ---- chare-array section counters ----------------------------------------
//
// The section layer (core/sections.cpp) reports its work here: sections
// built, spanning-tree repairs after migration, multicasts and the
// envelopes they cost vs what a naive whole-collection broadcast would
// have cost, and section-reduction traffic. Always on (relaxed atomic
// adds) so bench/micro_section A/B runs work without --trace.

#define CX_TRACE_SECTION_FIELDS(X)                                            \
  X(sections_built, sum)  /* section_create calls */                          \
  X(tree_repairs, sum)    /* delivery splits rebuilt post-migration */        \
  X(mcasts, sum)          /* multicasts initiated */                          \
  X(mcast_envelopes, sum) /* envelopes sent by section multicast */           \
  /* Envelopes a naive broadcast+filter would have needed minus what the      \
     section tree used, accumulated at the tree root per multicast. */        \
  X(envelopes_saved, sum)                                                     \
  X(contributions, sum)   /* section contribute calls */                      \
  X(red_fragments, sum)   /* combined fragments sent up tree edges */         \
  X(reductions_done, sum) /* section reductions delivered at root */

struct SectionStats { CX_TRACE_SECTION_FIELDS(CX_TRACE_U64_FIELD) };

namespace detail {
struct SectionAtomics { CX_TRACE_SECTION_FIELDS(CX_TRACE_ATOMIC_FIELD) };
}  // namespace detail

/// Snapshot of the section counters since begin_run()/reset_stats().
[[nodiscard]] SectionStats section_stats() noexcept;

// ---- PE-thread machine hand-off counters -----------------------------------
//
// SocketMachine (threaded and cxrun runs) reports which hand-off path
// its messages took: how an out-of-work PE waited (a bounded poll of its
// mailbox, then a park on the condition variable), and whether a frame
// to a peer rank went straight onto the socket from the sending thread
// or through the comm thread's queue. Always on (relaxed adds on the
// calling thread's shard), so a run shows its path without --trace.

#define CX_TRACE_MACHINE_FIELDS(X)                                            \
  X(idle_polls, sum)    /* mailbox polls begun by an out-of-work PE */        \
  X(poll_hits, sum)     /* polls that saw a post before the window closed */  \
  X(parks, sum)         /* condition-variable waits by an out-of-work PE */   \
  X(frames_inline, sum) /* frames written whole by the sending thread */      \
  X(frames_queued, sum) /* frames (or their tails) left to the comm thread */

struct MachineStats { CX_TRACE_MACHINE_FIELDS(CX_TRACE_U64_FIELD) };

namespace detail {
struct MachineAtomics { CX_TRACE_MACHINE_FIELDS(CX_TRACE_ATOMIC_FIELD) };
}  // namespace detail

/// Snapshot of the machine counters since begin_run()/reset_stats().
[[nodiscard]] MachineStats machine_stats() noexcept;

namespace detail {

/// One thread's share of every always-on stat family. Aligned so that
/// shards of different threads never share a cache line.
struct alignas(64) StatShard {
  WireAtomics wire;
  WhenAtomics when;
  PoolAtomics pool;
  SectionAtomics section;
  MachineAtomics machine;
};

/// The calling thread's shard; null until the thread's first bump.
inline thread_local StatShard* t_shard = nullptr;

/// Slow path of shard(): hand the calling thread a shard, reusing one
/// whose thread has exited (its counts stay in it), else a new one.
StatShard& acquire_shard() noexcept;

inline StatShard& shard() noexcept {
  StatShard* s = t_shard;
  return s != nullptr ? *s : acquire_shard();
}

// The hook sites' handles: the calling thread's part of each family.
inline WireAtomics& wire() noexcept { return shard().wire; }
inline WhenAtomics& when() noexcept { return shard().when; }
inline PoolAtomics& pool() noexcept { return shard().pool; }
inline SectionAtomics& section() noexcept { return shard().section; }
inline MachineAtomics& machine() noexcept { return shard().machine; }

}  // namespace detail

/// Zero every stat family in every shard, and the pool job records
/// (begin_run does too).
void reset_stats() noexcept;

struct Config {
  bool enabled = false;
  std::string out_path = "trace.json";
  /// Ring capacity in events per PE (at least 1); the oldest events are
  /// overwritten (and counted as dropped) once a PE exceeds it.
  std::size_t buffer_events = 1u << 16;
  bool print_summary = true;
};

/// Install a configuration. Takes effect for the next Runtime (rings are
/// allocated in begin_run).
void configure(Config cfg);

/// Read --trace, --trace-out=<path>, --trace-buffer=<events> and install.
/// Throws std::invalid_argument for a --trace-buffer below 1.
void configure_from_options(const cxu::Options& opt);

[[nodiscard]] const Config& config() noexcept;

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// True when tracing is on — the one-branch fast check every hook makes.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Called by the Runtime when a machine is brought up: sizes one ring per
/// PE and resets counters. A fresh Runtime replaces the previous run's
/// trace data.
void begin_run(int num_pes, bool simulated);

/// Record one event on `pe` at backend time `t`. No-op (after the enabled
/// check the macros already make) for pe < 0 — bootstrap sends from the
/// driver thread have no PE context. Also bumps the kind's counters.
void record(int pe, double t, EventKind kind, std::uint64_t a = 0,
            std::uint64_t b = 0);

// ---- inspection (call after Machine::run returns; not thread-safe) ------

/// Events retained for `pe`, oldest first (chronological per PE).
[[nodiscard]] std::vector<Event> events(int pe);
[[nodiscard]] std::uint64_t total_events();
[[nodiscard]] int traced_pes() noexcept;
[[nodiscard]] bool traced_run_was_simulated() noexcept;
[[nodiscard]] Counters counters(int pe);
[[nodiscard]] Counters aggregate();

/// Per-PE summary (messages, bytes, entry/idle seconds, idle %) plus a
/// totals row and the global entry-method time histogram.
[[nodiscard]] std::string summary_table();

/// JSON timeline: {version, simulated, num_pes, events:[...],
/// counters:{per_pe:[...], total:{...}}}. Events carry
/// {t, pe, kind, a, b} and are sorted by (t, pe).
void write_json(std::ostream& os);
/// Returns false (and logs) if the file cannot be opened.
bool write_json(const std::string& path);

/// If enabled: write the timeline to config().out_path and print the
/// summary table to stdout. The trace covers the most recent Runtime.
void report_if_enabled();

/// Drop all trace data and restore the default (disabled) configuration.
void reset();

}  // namespace cx::trace

// Hook macros — compiled out with -DCHARMX_TRACE_DISABLED; otherwise the
// disabled-at-runtime cost is one branch.
#ifndef CHARMX_TRACE_DISABLED
#define CX_TRACE_EVENT(pe, t, kind, a, b)                                     \
  do {                                                         \
    if (::cx::trace::enabled()) {                              \
      ::cx::trace::record((pe), (t), (kind), (a), (b));                       \
    }                                                          \
  } while (0)
#else
#define CX_TRACE_EVENT(pe, t, kind, a, b)                                     \
  do {                                    \
  } while (0)
#endif
