#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/log.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace cx::trace {

namespace detail {
std::atomic<bool> g_enabled{false};

void PoolAtomics::note_task(std::uint64_t ns) noexcept {
  tasks_done.fetch_add(1, std::memory_order_relaxed);
  task_ns_sum.fetch_add(ns, std::memory_order_relaxed);
  int b = 0;
  while ((1ull << (b + 1)) <= ns && b < kPoolLatBuckets - 1) ++b;
  lat_hist[b].fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

namespace {
struct PoolJobs {
  std::mutex mu;
  std::vector<PoolJobRecord> records;
};
PoolJobs& pool_jobs() {
  static PoolJobs j;
  return j;
}

// ---- stat shards ---------------------------------------------------------

/// Every shard ever handed out (never freed: a snapshot sums the counts
/// of exited threads too), and those whose thread has exited, for reuse.
struct ShardList {
  std::mutex mu;
  std::vector<detail::StatShard*> all;
  std::vector<detail::StatShard*> idle;
};

ShardList& shard_list() {
  // Leaked on purpose: threads keep bumping during static destruction.
  static ShardList* list = new ShardList;
  return *list;
}

/// Gives the thread's shard back for reuse when the thread exits. The
/// thread keeps its t_shard pointer, so a bump from a later thread-exit
/// destructor still lands in a shard (atomically, if it is reused).
struct ShardLease {
  ShardLease() = default;
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;
  bool held = false;
  ~ShardLease() {
    if (!held) return;
    auto& l = shard_list();
    std::lock_guard<std::mutex> lock(l.mu);
    l.idle.push_back(detail::t_shard);
  }
};
thread_local ShardLease t_lease;

/// Calls f(shard) for every shard, under the list lock.
template <class F>
void for_each_shard(F f) {
  auto& l = shard_list();
  std::lock_guard<std::mutex> lock(l.mu);
  for (detail::StatShard* sh : l.all) f(*sh);
}

// ---- stat family tables --------------------------------------------------

enum class Fold { sum, max };

/// One field of a stat family: its JSON name, where it sits in the
/// snapshot and in a shard, and how shards combine.
template <class Stats, class Atomics>
struct StatRow {
  const char* name;
  std::uint64_t Stats::*stat;
  std::atomic<std::uint64_t> Atomics::*live;
  Fold fold;
};

/// Family<Stats>: the family's place in a shard and its row table,
/// generated from the field list.
template <class Stats>
struct Family;

#define CX_TRACE_ROW(name, fold) \
  {#name, &Stats::name, &Atomics::name, Fold::fold},
#define CX_TRACE_FAMILY(StatsT, AtomicsT, member, FIELDS)       \
  template <>                                                   \
  struct Family<StatsT> {                                       \
    using Stats = StatsT;                                       \
    using Atomics = detail::AtomicsT;                           \
    static constexpr Atomics detail::StatShard::*shard =        \
        &detail::StatShard::member;                             \
    static constexpr StatRow<Stats, Atomics> rows[] = {         \
        FIELDS(CX_TRACE_ROW)};                                  \
  };
CX_TRACE_FAMILY(WireStats, WireAtomics, wire, CX_TRACE_WIRE_FIELDS)
CX_TRACE_FAMILY(WhenEngineStats, WhenAtomics, when, CX_TRACE_WHEN_FIELDS)
CX_TRACE_FAMILY(PoolStats, PoolAtomics, pool, CX_TRACE_POOL_FIELDS)
CX_TRACE_FAMILY(SectionStats, SectionAtomics, section,
                CX_TRACE_SECTION_FIELDS)
CX_TRACE_FAMILY(MachineStats, MachineAtomics, machine,
                CX_TRACE_MACHINE_FIELDS)
#undef CX_TRACE_FAMILY
#undef CX_TRACE_ROW

/// Fold one shard's part of a family into a snapshot.
template <class Stats>
void fold_shard(Stats& s, const detail::StatShard& sh) {
  using F = Family<Stats>;
  const auto& live = sh.*F::shard;
  for (const auto& r : F::rows) {
    const std::uint64_t v = (live.*r.live).load(std::memory_order_relaxed);
    std::uint64_t& acc = s.*r.stat;
    acc = r.fold == Fold::max ? std::max(acc, v) : acc + v;
  }
}

template <class Stats>
Stats snapshot() {
  Stats s;
  for_each_shard([&](const detail::StatShard& sh) { fold_shard(s, sh); });
  return s;
}

template <class Stats>
void zero(detail::StatShard& sh) {
  using F = Family<Stats>;
  auto& live = sh.*F::shard;
  for (const auto& r : F::rows) {
    (live.*r.live).store(0, std::memory_order_relaxed);
  }
}

/// Writes `,"key":{"field":value,...` for a family; the caller appends
/// the derived rates and closes the object.
template <class Stats>
void json_family(std::ostream& os, const char* key, const Stats& s) {
  os << ",\"" << key << "\":{";
  const char* sep = "";
  for (const auto& r : Family<Stats>::rows) {
    os << sep << '"' << r.name << "\":" << s.*r.stat;
    sep = ",";
  }
}

/// One PE's trace state. The owning PE thread is the only writer; the
/// ring index is published with a release store so post-run readers see
/// completed slots. Cache-line aligned so neighbouring PEs don't share.
struct alignas(64) PeTrace {
  std::vector<Event> ring;
  std::atomic<std::uint64_t> head{0};  ///< monotonically increasing
  Counters counters;
  // Full-run event span, independent of ring overwrites (the retained
  // window alone would understate the span once events drop).
  double t_first = 0.0;
  double t_last = 0.0;
};

struct State {
  Config cfg;
  std::vector<std::unique_ptr<PeTrace>> pes;
  bool simulated = false;
  std::mutex mutex;  ///< guards configure/begin_run, not the hot path
};

State& state() {
  static State s;
  return s;
}

int hist_bucket(double seconds) {
  const double us = seconds * 1e6;
  if (us < 2.0) return 0;
  const int b = static_cast<int>(std::log2(us));
  return std::min(b, kHistBuckets - 1);
}

void bump_counters(Counters& c, EventKind kind, std::uint64_t a,
                   std::uint64_t b) {
  switch (kind) {
#define CX_TRACE_BUMP(Kind, json_name, counter) \
  case EventKind::Kind: c.counter++; break;
#define CX_TRACE_NO_BUMP(Kind, json_name) \
  case EventKind::Kind: break;
    CX_TRACE_KINDS(CX_TRACE_BUMP, CX_TRACE_NO_BUMP)
#undef CX_TRACE_BUMP
#undef CX_TRACE_NO_BUMP
  }
  // The accumulators beyond the per-kind count.
  switch (kind) {
    case EventKind::MsgSend:
      c.bytes_sent += b;
      break;
    case EventKind::MsgRecv:
      c.bytes_recv += b;
      break;
    case EventKind::Idle:
      c.idle_time += static_cast<double>(a) * 1e-9;
      break;
    case EventKind::EntryEnd: {
      const double dur = static_cast<double>(b) * 1e-9;
      c.entry_time += dur;
      c.entry_hist[hist_bucket(dur)]++;
      break;
    }
    case EventKind::FtDetect:
      c.ft_detect_latency_s += static_cast<double>(b) * 1e-9;
      break;
    case EventKind::FtRecover:
      c.ft_mttr_s += static_cast<double>(b) * 1e-9;
      break;
    default:
      break;
  }
}

void json_counters(std::ostream& os, const Counters& c) {
  os << '{';
#define CX_TRACE_JSON_COUNT(Kind, json_name, counter) \
  os << "\"" #counter "\":" << c.counter << ',';
  CX_TRACE_KINDS(CX_TRACE_JSON_COUNT, CX_TRACE_NONE)
#undef CX_TRACE_JSON_COUNT
  os << "\"bytes_sent\":" << c.bytes_sent << ",\"bytes_recv\":" << c.bytes_recv
     << ",\"entry_time\":" << c.entry_time << ",\"idle_time\":" << c.idle_time
     << ",\"ft_detect_latency_s\":" << c.ft_detect_latency_s
     << ",\"ft_mttr_s\":" << c.ft_mttr_s
     << ",\"dropped_events\":" << c.dropped_events << ",\"entry_hist_us\":[";
  for (int i = 0; i < kHistBuckets; ++i) {
    if (i > 0) os << ',';
    os << c.entry_hist[i];
  }
  os << "]}";
}

std::string human_bytes(std::uint64_t b) {
  std::ostringstream os;
  if (b >= (1u << 20)) {
    os << cxu::Table::num(static_cast<double>(b) / (1u << 20), 1) << " MiB";
  } else if (b >= (1u << 10)) {
    os << cxu::Table::num(static_cast<double>(b) / (1u << 10), 1) << " KiB";
  } else {
    os << b << " B";
  }
  return os.str();
}

}  // namespace

double PoolStats::p99_task_s() const noexcept {
  if (tasks_done == 0) return 0.0;
  const std::uint64_t target =
      tasks_done - tasks_done / 100;  // ceil-ish 99th percentile rank
  std::uint64_t seen = 0;
  for (int i = 0; i < kPoolLatBuckets; ++i) {
    seen += lat_hist[i];
    if (seen >= target) {
      return static_cast<double>(1ull << (i + 1)) * 1e-9;
    }
  }
  return static_cast<double>(1ull << kPoolLatBuckets) * 1e-9;
}

void pool_job_note(const PoolJobRecord& rec) {
  auto& j = pool_jobs();
  std::lock_guard<std::mutex> lock(j.mu);
  j.records.push_back(rec);
}

std::vector<PoolJobRecord> pool_job_records() {
  auto& j = pool_jobs();
  std::lock_guard<std::mutex> lock(j.mu);
  return j.records;
}

namespace detail {

StatShard& acquire_shard() noexcept {
  auto& l = shard_list();
  StatShard* s = nullptr;
  {
    std::lock_guard<std::mutex> lock(l.mu);
    if (!l.idle.empty()) {
      s = l.idle.back();
      l.idle.pop_back();
    } else {
      s = new StatShard;
      l.all.push_back(s);
    }
  }
  t_shard = s;
  t_lease.held = true;
  return *s;
}

}  // namespace detail

WireStats wire_stats() noexcept { return snapshot<WireStats>(); }

WhenEngineStats when_stats() noexcept { return snapshot<WhenEngineStats>(); }

PoolStats pool_stats() noexcept {
  PoolStats s;
  for_each_shard([&](const detail::StatShard& sh) {
    fold_shard(s, sh);
    for (int i = 0; i < kPoolLatBuckets; ++i) {
      s.lat_hist[i] += sh.pool.lat_hist[i].load(std::memory_order_relaxed);
    }
  });
  return s;
}

SectionStats section_stats() noexcept { return snapshot<SectionStats>(); }

MachineStats machine_stats() noexcept { return snapshot<MachineStats>(); }

void reset_stats() noexcept {
  for_each_shard([](detail::StatShard& sh) {
    zero<WireStats>(sh);
    zero<WhenEngineStats>(sh);
    zero<PoolStats>(sh);
    zero<SectionStats>(sh);
    zero<MachineStats>(sh);
    for (auto& bucket : sh.pool.lat_hist) {
      bucket.store(0, std::memory_order_relaxed);
    }
  });
  auto& j = pool_jobs();
  std::lock_guard<std::mutex> lock(j.mu);
  j.records.clear();
}

void Counters::merge(const Counters& o) {
#define CX_TRACE_MERGE(Kind, json_name, counter) counter += o.counter;
  CX_TRACE_KINDS(CX_TRACE_MERGE, CX_TRACE_NONE)
#undef CX_TRACE_MERGE
  bytes_sent += o.bytes_sent;
  bytes_recv += o.bytes_recv;
  entry_time += o.entry_time;
  idle_time += o.idle_time;
  ft_detect_latency_s += o.ft_detect_latency_s;
  ft_mttr_s += o.ft_mttr_s;
  dropped_events += o.dropped_events;
  for (int i = 0; i < kHistBuckets; ++i) entry_hist[i] += o.entry_hist[i];
}

const char* kind_name(EventKind k) noexcept {
  switch (k) {
#define CX_TRACE_NAME(Kind, json_name, ...) \
  case EventKind::Kind:                     \
    return #json_name;
    CX_TRACE_KINDS(CX_TRACE_NAME, CX_TRACE_NAME)
#undef CX_TRACE_NAME
  }
  return "unknown";
}

void configure(Config cfg) {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.cfg = std::move(cfg);
  if (s.cfg.buffer_events == 0) s.cfg.buffer_events = 1;
  detail::g_enabled.store(s.cfg.enabled, std::memory_order_relaxed);
}

void configure_from_options(const cxu::Options& opt) {
  Config cfg;
  cfg.enabled = opt.get_bool("trace", false);
  cfg.out_path = opt.get_string("trace-out", "trace.json");
  const std::int64_t buffer = opt.get_int("trace-buffer", 1 << 16);
  if (buffer < 1) {
    throw std::invalid_argument(
        "--trace-buffer: expected a ring size of at least 1 event, got '" +
        opt.get_string("trace-buffer", "") + "'");
  }
  cfg.buffer_events = static_cast<std::size_t>(buffer);
  configure(std::move(cfg));
}

const Config& config() noexcept { return state().cfg; }

void begin_run(int num_pes, bool simulated) {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.pes.clear();
  s.simulated = simulated;
  reset_stats();
  if (!s.cfg.enabled) return;
  // Rings are allocated eagerly, so clamp the per-PE capacity to keep the
  // total bounded when a simulated run uses thousands of virtual PEs
  // (oldest events are overwritten and counted as dropped).
  constexpr std::uint64_t kMaxTotalEvents = 1ull << 22;  // ~128 MiB
  // Compared by division: per_pe * num_pes can wrap 64 bits.
  const std::uint64_t fair =
      kMaxTotalEvents / static_cast<std::uint64_t>(std::max(num_pes, 1));
  std::size_t per_pe = s.cfg.buffer_events;
  if (per_pe > fair) {
    per_pe = std::max<std::size_t>(64, static_cast<std::size_t>(fair));
    CX_LOG_WARN("trace: clamping ring to ", per_pe, " events/PE for ",
                num_pes, " PEs (requested ", s.cfg.buffer_events, ")");
  }
  s.pes.reserve(static_cast<std::size_t>(num_pes));
  for (int i = 0; i < num_pes; ++i) {
    auto pt = std::make_unique<PeTrace>();
    pt->ring.resize(per_pe);
    s.pes.push_back(std::move(pt));
  }
}

void record(int pe, double t, EventKind kind, std::uint64_t a,
            std::uint64_t b) {
  auto& s = state();
  if (pe < 0 || static_cast<std::size_t>(pe) >= s.pes.size()) return;
  PeTrace& pt = *s.pes[static_cast<std::size_t>(pe)];
  const std::uint64_t h = pt.head.load(std::memory_order_relaxed);
  const std::size_t cap = pt.ring.size();
  Event& slot = pt.ring[static_cast<std::size_t>(h % cap)];
  slot.time = t;
  slot.a = a;
  slot.b = b;
  slot.kind = kind;
  if (h >= cap) pt.counters.dropped_events++;
  if (h == 0) pt.t_first = t;
  pt.t_last = t;
  bump_counters(pt.counters, kind, a, b);
  pt.head.store(h + 1, std::memory_order_release);
}

std::vector<Event> events(int pe) {
  auto& s = state();
  std::vector<Event> out;
  if (pe < 0 || static_cast<std::size_t>(pe) >= s.pes.size()) return out;
  const PeTrace& pt = *s.pes[static_cast<std::size_t>(pe)];
  const std::uint64_t h = pt.head.load(std::memory_order_acquire);
  const std::uint64_t cap = pt.ring.size();
  const std::uint64_t n = std::min(h, cap);
  out.reserve(static_cast<std::size_t>(n));
  // Oldest retained slot first.
  for (std::uint64_t i = h - n; i < h; ++i) {
    out.push_back(pt.ring[static_cast<std::size_t>(i % cap)]);
  }
  return out;
}

std::uint64_t total_events() {
  auto& s = state();
  std::uint64_t n = 0;
  for (const auto& pt : s.pes) {
    n += pt->head.load(std::memory_order_acquire);
  }
  return n;
}

int traced_pes() noexcept { return static_cast<int>(state().pes.size()); }

bool traced_run_was_simulated() noexcept { return state().simulated; }

Counters counters(int pe) {
  auto& s = state();
  if (pe < 0 || static_cast<std::size_t>(pe) >= s.pes.size()) return {};
  return s.pes[static_cast<std::size_t>(pe)]->counters;
}

Counters aggregate() {
  Counters total;
  for (int pe = 0; pe < traced_pes(); ++pe) total.merge(counters(pe));
  return total;
}

std::string summary_table() {
  const int P = traced_pes();
  // Per-PE wall span (first to last event) for the idle percentage.
  std::ostringstream os;
  os << "cx::trace summary — " << (traced_run_was_simulated()
                                       ? "virtual (simulated) time"
                                       : "wall time")
     << ", " << P << " PE(s), " << total_events() << " events\n\n";
  cxu::Table table({"pe", "msgs sent", "bytes sent", "msgs recv", "entries",
                    "entry s", "idle s", "idle %", "dropped"});
  auto row = [&](const std::string& label, const Counters& c, double span) {
    const double idle_pct = span > 0 ? 100.0 * c.idle_time / span : 0.0;
    table.add_row({label, std::to_string(c.msgs_sent),
                   human_bytes(c.bytes_sent), std::to_string(c.msgs_recv),
                   std::to_string(c.entries), cxu::Table::num(c.entry_time, 4),
                   cxu::Table::num(c.idle_time, 4),
                   cxu::Table::num(idle_pct, 1),
                   std::to_string(c.dropped_events)});
  };
  double total_span = 0.0;
  for (int pe = 0; pe < P; ++pe) {
    const PeTrace& pt = *state().pes[static_cast<std::size_t>(pe)];
    const double span =
        pt.head.load(std::memory_order_acquire) > 0 ? pt.t_last - pt.t_first
                                                    : 0.0;
    total_span = std::max(total_span, span);
    row(std::to_string(pe), counters(pe), span);
  }
  row("total", aggregate(), total_span * P);
  os << table.to_string();
  // Entry-method time histogram (log2 microsecond buckets).
  const Counters total = aggregate();
  if (total.entries > 0) {
    os << "\nentry-method time histogram (us, log2 buckets):\n";
    for (int i = 0; i < kHistBuckets; ++i) {
      if (total.entry_hist[i] == 0) continue;
      const double lo = i == 0 ? 0.0 : std::pow(2.0, i);
      const double hi = std::pow(2.0, i + 1);
      os << "  [" << cxu::Table::num(lo, 0) << ", " << cxu::Table::num(hi, 0)
         << ")  " << total.entry_hist[i] << "\n";
    }
  }
  const WhenEngineStats ws = when_stats();
  if (ws.tests + ws.buffered > 0) {
    os << "\ncx::when: " << ws.tests << " condition tests, " << ws.buffered
       << " buffered, " << ws.hits << " released, " << ws.skipped
       << " re-tests skipped ("
       << cxu::Table::num(100.0 * ws.skip_rate(), 1)
       << "%), high water " << ws.high_water << " pending\n";
  }
  const WireStats w = wire_stats();
  if (w.envelopes > 0) {
    os << "\ncx::wire: " << w.envelopes << " envelopes, "
       << human_bytes(w.bytes_packed) << " packed ("
       << cxu::Table::num(static_cast<double>(w.bytes_packed) /
                              static_cast<double>(w.envelopes),
                          1)
       << " B/send), " << w.sbo_payloads << " inline (SBO), "
       << w.buf_allocs + w.msg_allocs + w.env_allocs << " heap allocs, "
       << cxu::Table::num(100.0 * w.hit_rate(), 1) << "% pool hit rate\n";
  }
  if (w.agg_batches > 0) {
    os << "cx::wire agg: " << w.agg_msgs << " msgs in " << w.agg_batches
       << " batches (" << cxu::Table::num(w.msgs_per_batch(), 1)
       << " msgs/batch), " << w.transport_msgs
       << " transport msgs, flushes: " << w.agg_flush_bytes << " bytes / "
       << w.agg_flush_count << " count / " << w.agg_flush_idle << " idle / "
       << w.agg_flush_order << " ordering\n";
  }
  const MachineStats ms = machine_stats();
  if (ms.idle_polls + ms.parks + ms.frames_inline + ms.frames_queued > 0) {
    os << "\ncx::machine: " << ms.idle_polls << " idle polls ("
       << ms.poll_hits << " found work), " << ms.parks << " parks, "
       << ms.frames_inline << " frames written inline, "
       << ms.frames_queued << " queued for the comm thread\n";
  }
  const SectionStats ss = section_stats();
  if (ss.sections_built + ss.mcasts + ss.contributions > 0) {
    os << "\ncx::sections: " << ss.sections_built << " built, " << ss.mcasts
       << " multicasts (" << ss.mcast_envelopes << " envelopes, "
       << ss.envelopes_saved << " saved vs broadcast), " << ss.contributions
       << " contributions in " << ss.reductions_done << " reductions ("
       << ss.red_fragments << " fragments), " << ss.tree_repairs
       << " tree repairs\n";
  }
  const PoolStats ps = pool_stats();
  if (ps.tasks_done + ps.grants > 0) {
    os << "\ncx::pool: " << ps.tasks_done << " tasks in " << ps.grants
       << " grants (" << cxu::Table::num(ps.mean_chunk(), 1)
       << " tasks/grant, max " << ps.max_chunk << "), " << ps.steal_hits
       << "/" << ps.steal_attempts << " steals hit ("
       << cxu::Table::num(100.0 * ps.steal_hit_rate(), 1) << "%, "
       << ps.stolen_tasks << " tasks moved), " << ps.result_batches
       << " result batches, " << ps.beats << " beats, "
       << ps.inflight_clamps << " inflight clamps, queue high water "
       << ps.queue_high_water << ", task mean "
       << cxu::Table::num(ps.mean_task_s() * 1e6, 2) << " us / p99 "
       << cxu::Table::num(ps.p99_task_s() * 1e6, 2) << " us\n";
    for (const PoolJobRecord& r : pool_job_records()) {
      os << "  job " << r.job_id << " (prio " << r.priority << "): "
         << r.tasks << " tasks in "
         << cxu::Table::num(r.done_t - r.start_t, 6) << " s ("
         << cxu::Table::num(r.tasks_per_s(), 0) << " tasks/s)"
         << (r.failed ? " FAILED" : "") << "\n";
    }
  }
  return os.str();
}

void write_json(std::ostream& os) {
  const int P = traced_pes();
  // Round-trip precision: the default 6 significant digits collapse
  // distinct sub-microsecond timestamps (and every double past 1 s).
  const auto saved_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  struct Tagged {
    Event ev;
    int pe;
  };
  std::vector<Tagged> all;
  all.reserve(static_cast<std::size_t>(total_events()));
  for (int pe = 0; pe < P; ++pe) {
    for (const Event& ev : events(pe)) all.push_back({ev, pe});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& x, const Tagged& y) {
                     if (x.ev.time != y.ev.time) return x.ev.time < y.ev.time;
                     return x.pe < y.pe;
                   });
  os << "{\"version\":1,\"simulated\":"
     << (traced_run_was_simulated() ? "true" : "false")
     << ",\"num_pes\":" << P << ",\"events\":[";
  bool first = true;
  for (const Tagged& t : all) {
    if (!first) os << ',';
    first = false;
    // Kind names come from identifiers in CX_TRACE_KINDS: no escaping.
    os << "{\"t\":" << t.ev.time << ",\"pe\":" << t.pe << ",\"kind\":\""
       << kind_name(t.ev.kind) << "\",\"a\":" << t.ev.a << ",\"b\":" << t.ev.b
       << '}';
  }
  os << "],\"counters\":{\"per_pe\":[";
  for (int pe = 0; pe < P; ++pe) {
    if (pe > 0) os << ',';
    json_counters(os, counters(pe));
  }
  os << "],\"total\":";
  json_counters(os, aggregate());
  os << '}';
  const WhenEngineStats ws = when_stats();
  json_family(os, "when", ws);
  os << ",\"skip_rate\":" << ws.skip_rate() << '}';
  const WireStats w = wire_stats();
  json_family(os, "wire", w);
  os << ",\"pool_hit_rate\":" << w.hit_rate() << '}';
  json_family(os, "sections", section_stats());
  os << '}';
  json_family(os, "machine", machine_stats());
  os << '}';
  const PoolStats pool = pool_stats();
  json_family(os, "pool", pool);
  os << ",\"mean_chunk\":" << pool.mean_chunk()
     << ",\"steal_hit_rate\":" << pool.steal_hit_rate()
     << ",\"mean_task_s\":" << pool.mean_task_s()
     << ",\"p99_task_s\":" << pool.p99_task_s() << ",\"jobs\":[";
  bool jfirst = true;
  for (const PoolJobRecord& r : pool_job_records()) {
    if (!jfirst) os << ',';
    jfirst = false;
    os << "{\"job_id\":" << r.job_id << ",\"priority\":" << r.priority
       << ",\"tasks\":" << r.tasks << ",\"submit_t\":" << r.submit_t
       << ",\"start_t\":" << r.start_t << ",\"done_t\":" << r.done_t
       << ",\"tasks_per_s\":" << r.tasks_per_s()
       << ",\"failed\":" << (r.failed ? "true" : "false") << '}';
  }
  os << "]}}\n";
  os.precision(saved_precision);
}

bool write_json(const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    CX_LOG_ERROR("trace: cannot open '", path, "' for writing");
    return false;
  }
  write_json(f);
  return true;
}

void report_if_enabled() {
  if (!enabled()) return;
  const auto& cfg = config();
  if (write_json(cfg.out_path)) {
    std::printf("trace: wrote %llu events to %s\n",
                static_cast<unsigned long long>(total_events()),
                cfg.out_path.c_str());
  }
  if (cfg.print_summary) {
    std::fputs(summary_table().c_str(), stdout);
  }
}

void reset() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.pes.clear();
  s.cfg = Config{};
  s.simulated = false;
  reset_stats();
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

}  // namespace cx::trace
