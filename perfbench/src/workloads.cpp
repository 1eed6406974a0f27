// The four workloads. Each one runs episodes on fresh runtimes: an
// episode's bring-up is one set-up sample, and its steps are the timed
// samples. Traced invocations first measure a stretch untraced (the
// reference for trace.overhead_frac), then one traced stretch with
// cx::trace on and spans recorded, whose counters become the per-step
// layer budget, then the layer calibrations.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/leanmd/leanmd_cpy.hpp"
#include "apps/leanmd/leanmd_cx.hpp"
#include "apps/stencil/stencil_cx.hpp"
#include "bench.hpp"
#include "core/charm.hpp"
#include "pool/pool.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kPes = 4;
/// Seconds a single future may take before the sample counts as a
/// timeout (and the run stops measuring).
constexpr double kSampleTimeout = 5.0;

/// Share of a traced invocation's budget spent on the untraced reference
/// and on the traced stretch; calibrations take the rest.
constexpr double kUntracedShare = 0.3;
constexpr double kTracedShare = 0.3;

/// Runtimes per untraced invocation of stencil-fine and pool-map: set-up
/// only bring-ups, then measuring episodes that split the budget. run.py
/// reports each figure as the median over the episodes of several
/// invocations, so one slow episode or process cannot move it. Both
/// counts are fixed, so the number of thread sets an invocation creates
/// does not depend on speed.
constexpr int kSetupOnly = 1;
constexpr int kEpisodes = 2;

void enable_cx_trace(bool on) {
  if (!on) {
    cx::trace::reset();
    return;
  }
  cx::trace::Config c;
  c.enabled = true;
  c.print_summary = false;
  cx::trace::configure(c);
}

/// Record the counters of the runtime that just finished (cx::trace
/// aggregate, always-on wire/when/pool stats) as ctr.* values.
void record_counters(Report& r, double steps, double wall_s, int pes) {
  const cx::trace::Counters c = cx::trace::aggregate();
  const cx::trace::WireStats w = cx::trace::wire_stats();
  const cx::trace::WhenEngineStats h = cx::trace::when_stats();
  const cx::trace::PoolStats p = cx::trace::pool_stats();
  auto& v = r.values;
  v["ctr.steps"] = steps;
  v["ctr.wall_s"] = wall_s;
  v["ctr.pes"] = pes;
  v["ctr.msgs_sent"] = static_cast<double>(c.msgs_sent);
  v["ctr.entries"] = static_cast<double>(c.entries);
  v["ctr.entry_s"] = c.entry_time;
  v["ctr.idle_s"] = c.idle_time;
  v["ctr.fiber_suspends"] = static_cast<double>(c.fiber_suspends);
  v["ctr.dyn_dispatches"] = static_cast<double>(c.dyn_dispatches);
  v["ctr.envelopes"] = static_cast<double>(w.envelopes);
  v["ctr.bytes_packed"] = static_cast<double>(w.bytes_packed);
  v["ctr.transport_msgs"] = static_cast<double>(w.transport_msgs);
  v["ctr.pool_hit_rate"] = w.hit_rate();
  v["ctr.when_tests"] = static_cast<double>(h.tests);
  v["ctr.when_buffered"] = static_cast<double>(h.buffered);
  v["ctr.when_skip_rate"] = h.skip_rate();
  v["ctr.grants"] = static_cast<double>(p.grants);
  v["ctr.mean_chunk"] = p.mean_chunk();
  v["ctr.steal_hit_rate"] = p.steal_hit_rate();
  v["ctr.result_batches"] = static_cast<double>(p.result_batches);
  v["ctr.tasks_done"] = static_cast<double>(p.tasks_done);
  v["ctr.task_s"] = static_cast<double>(p.task_ns_sum) * 1e-9;
  v["ctr.task_p99_s"] = p.p99_task_s();
}

/// Fold a traced stretch into the invocation's report: its counters, its
/// samples (as traced_ms) and its checks.
void merge_traced(Report& r, const Report& traced) {
  for (const auto& [k, v] : traced.values) r.values[k] = v;
  r.series["traced_ms"] = traced.samples_ms;
  r.attempted += traced.attempted;
  r.failed += traced.failed;
}

/// Set-up of one episode, split the way the per-layer metrics report it.
struct SetupTimes {
  double runtime_s = 0.0;     ///< Runtime constructor to entry start
  double collection_s = 0.0;  ///< collection / pool creation to ready
};

void note_setup(Report& r, const SetupTimes& s) {
  r.setup_s.push_back(s.runtime_s + s.collection_s);
  r.series["setup.runtime_s"].push_back(s.runtime_s);
  r.series["setup.collection_s"].push_back(s.collection_s);
}

// ===========================================================================
// stencil-fine: typed stencil3d, 4 PEs, 4x4x4 blocks of 8^3 cells.

constexpr int kPhaseIters = 4;  ///< iterations per sample
/// Iteration cap of one episode. The field decays by about 0.4 % per
/// iteration; the cap keeps it far from subnormal values, whose slow
/// arithmetic would make a faster runtime pay in its kernel.
constexpr int kMaxEpisodeIters = 40000;

stencil::Params stencil_params() {
  stencil::Params p;
  p.geo = stencil::Geometry{4, 4, 4, 8, 8, 8};
  p.iterations = kMaxEpisodeIters;
  return p;
}

/// One stencil episode: bring-up, then phases for `measure_s` seconds
/// (none when it is 0). Returns false when a phase timed out.
bool stencil_episode(const stencil::Params& p, double measure_s, Report& r,
                     std::uint64_t& group, bool counters) {
  Spans& sp = spans();
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = kPes;
  SetupTimes st;
  int iters = 0;
  double checksum = 0.0;
  bool timed_out = false;
  const std::uint64_t setup_group = group++;
  const double t0 = wall_time();
  std::optional<Spans::Scope> setup_span(std::in_place, sp, "setup",
                                         setup_group);
  std::optional<Spans::Scope> rt_span(std::in_place, sp, "setup.runtime",
                                      setup_group);
  cx::Runtime rt(cfg);
  rt.run([&] {
    const double t1 = wall_time();
    rt_span.reset();
    std::optional<Spans::Scope> coll_span(std::in_place, sp,
                                          "setup.collection", setup_group);
    auto arr = cx::create_array<stencil::CxBlock>(
        {p.geo.bx, p.geo.by, p.geo.bz}, p);
    auto barrier = cx::make_future<double>();
    arr.broadcast<&stencil::CxBlock::start_until>(cx::cb(barrier), 0);
    (void)barrier.get();
    st.runtime_s = t1 - t0;
    st.collection_s = wall_time() - t1;
    coll_span.reset();
    setup_span.reset();
    const double deadline = wall_time() + measure_s;
    while (wall_time() < deadline && iters < kMaxEpisodeIters) {
      const std::uint64_t g = group++;
      Spans::Scope s(sp, "sample", g);
      const double a = wall_time();
      auto f = cx::make_future<double>();
      {
        Spans::Scope b(sp, "core.broadcast", g);
        arr.broadcast<&stencil::CxBlock::start_until>(cx::cb(f),
                                                      iters + kPhaseIters);
      }
      std::optional<double> sum;
      {
        Spans::Scope w(sp, "core.future_get", g);
        sum = f.get_for(kSampleTimeout);
      }
      ++r.attempted;
      if (!sum) {
        timed_out = true;
        break;
      }
      const double dt = wall_time() - a;
      r.samples_ms.push_back(dt * 1e3 / kPhaseIters);
      r.item_seconds += dt;
      iters += kPhaseIters;
      checksum = *sum;
    }
    cx::exit();
  });
  const double t_end = wall_time();
  note_setup(r, st);
  if (counters) {
    record_counters(r, iters, t_end - t0, kPes);
    r.values["ctr.app_msgs"] = static_cast<double>(rt.messages_sent());
  }
  if (timed_out) {
    ++r.failed;
    return false;
  }
  if (iters == 0) return true;
  r.items += static_cast<double>(iters) *
             static_cast<double>(p.geo.num_blocks() * p.geo.cells_per_block());
  // Oracle: the episode's final checksum against the serial reference;
  // a mismatch fails every sample of the episode.
  const double ref = stencil::serial_checksum(p.geo, iters);
  if (!(std::abs(checksum - ref) <= 1e-9 * std::abs(ref))) {
    r.failed += static_cast<std::uint64_t>(iters / kPhaseIters);
  }
  return true;
}

// ===========================================================================
// pingpong-socket: a driver on PE 0 and an echo chare on PE 1, one PE per
// rank under cxrun -np 2.

constexpr std::size_t kPingBytes = 64;
constexpr std::size_t kStreamBytes = 1u << 20;
constexpr int kBurst = 32;          ///< 1 MiB payloads per stream sample
constexpr int kPayloadVariants = 16;

std::uint64_t word_sum(const std::vector<std::uint8_t>& v) {
  std::uint64_t s = 0;
  std::size_t i = 0;
  for (; i + 8 <= v.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, v.data() + i, 8);
    s += w;
  }
  for (; i < v.size(); ++i) s += v[i];
  return s;
}

std::vector<std::uint8_t> seeded_bytes(cxu::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(v.data() + i, &w, std::min<std::size_t>(8, n - i));
  }
  return v;
}

struct Echo : cx::Chare {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint8_t> ping(std::vector<std::uint8_t> p) { return p; }
  void sink(std::vector<std::uint8_t> p) {
    ++count;
    sum += word_sum(p);
  }
  std::vector<std::uint64_t> take() {
    std::vector<std::uint64_t> out{count, sum};
    count = sum = 0;
    return out;
  }
};

// ===========================================================================
// leanmd-cpy: LeanMD on the dynamic model layer, 4x4x4 cells x 32 atoms.

/// MD steps per episode: atoms migrate after step 5, so an episode holds
/// one migration (LeanMD ends an episode before migrating on its last
/// step).
constexpr int kMdSteps = 6;

leanmd::PhysParams leanmd_params(int steps) {
  leanmd::PhysParams p;
  p.cx = p.cy = p.cz = 4;
  p.ppc = 32;
  p.steps = steps;
  p.migrate_every = 5;
  return p;
}

/// Atom pairs the force kernels visit per step at the initial occupancy:
/// one self compute per cell plus 13 neighbour computes per cell.
double leanmd_pairs_per_step(const leanmd::PhysParams& p) {
  const double n = p.ppc;
  return static_cast<double>(p.num_cells()) * (n * (n - 1) / 2 + 13 * n * n);
}

cxm::MachineConfig threaded_machine() {
  cxm::MachineConfig m;
  m.num_pes = kPes;
  return m;
}

/// One run_cpy episode as a sample; checks it against the run_cx energy.
leanmd::Result leanmd_episode(const leanmd::PhysParams& p, double ke_ref,
                              Report& r, std::uint64_t& group) {
  Spans::Scope s(spans(), "sample", group);
  leanmd::Result res;
  const double t0 = wall_time();
  {
    Spans::Scope c(spans(), "apps.run_cpy", group);
    res = leanmd::run_cpy(p, threaded_machine());
  }
  const double call_s = wall_time() - t0;
  ++group;
  ++r.attempted;
  r.setup_s.push_back(call_s - res.elapsed);
  r.samples_ms.push_back(res.time_per_step * 1e3);
  r.item_seconds += res.elapsed;
  r.items += static_cast<double>(res.atoms) * p.steps;
  const std::int64_t atoms = static_cast<std::int64_t>(p.num_cells()) * p.ppc;
  if (res.atoms != atoms ||
      !(std::abs(res.kinetic_energy - ke_ref) <= 1e-6 * std::abs(ke_ref))) {
    ++r.failed;
  }
  return res;
}

// ===========================================================================
// pool-map: one Pool::map job of 2000 seeded tasks on 3 workers.

constexpr int kPoolTasks = 2000;
constexpr int kPoolProcs = 3;
constexpr int kLightRounds = 16;   ///< mixing rounds of a light task
constexpr int kHeavyRounds = 512;  ///< mixing rounds of a heavy task

/// The task function: a value-dependent mix whose cost is set by the
/// value (1 in 8 values are heavy), so the seed fixes values and costs.
std::int64_t pool_task(std::int64_t x) {
  const int rounds = (x & 7) == 0 ? kHeavyRounds : kLightRounds;
  auto h = static_cast<std::uint64_t>(x);
  for (int i = 0; i < rounds; ++i) {
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return static_cast<std::int64_t>(h >> 1);
}

void register_pool_task() {
  static const bool once = [] {
    cxpool::register_function("perfbench.task", [](const cpy::Value& x) {
      return cpy::Value(pool_task(x.as_int()));
    });
    return true;
  }();
  (void)once;
}

/// One pool episode: fresh runtime and pool, then jobs for `measure_s`
/// seconds (none when it is 0). Returns false when a job timed out.
bool pool_episode(const cpy::List& tasks,
                  const std::vector<std::int64_t>& expect, double measure_s,
                  Report& r, std::uint64_t& group, bool counters) {
  Spans& sp = spans();
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = kPes;
  SetupTimes st;
  int jobs = 0;
  bool timed_out = false;
  const std::uint64_t setup_group = group++;
  const double t0 = wall_time();
  std::optional<Spans::Scope> setup_span(std::in_place, sp, "setup",
                                         setup_group);
  std::optional<Spans::Scope> rt_span(std::in_place, sp, "setup.runtime",
                                      setup_group);
  cx::Runtime rt(cfg);
  rt.run([&] {
    const double t1 = wall_time();
    rt_span.reset();
    std::optional<cxpool::Pool> pool;
    {
      Spans::Scope cs(sp, "setup.collection", setup_group);
      pool.emplace();
      // Ready once every worker has answered a task.
      cpy::List warm;
      for (int i = 0; i < kPoolProcs; ++i) warm.emplace_back(i);
      (void)pool->map("perfbench.task", kPoolProcs, warm);
    }
    st.runtime_s = t1 - t0;
    st.collection_s = wall_time() - t1;
    setup_span.reset();
    const double deadline = wall_time() + measure_s;
    for (; wall_time() < deadline; ++jobs) {
      const std::uint64_t g = group++;
      Spans::Scope s(sp, "sample", g);
      const double a = wall_time();
      std::optional<cpy::Value> out;
      {
        Spans::Scope m(sp, "pool.map", g);
        out = pool->map_async("perfbench.task", kPoolProcs, tasks)
                  .get_for(kSampleTimeout);
      }
      const double dt = wall_time() - a;
      ++r.attempted;
      if (!out) {
        timed_out = true;
        break;
      }
      r.samples_ms.push_back(dt * 1e3);
      r.item_seconds += dt;
      r.items += kPoolTasks;
      // Oracle: every result equals the task function evaluated here.
      bool ok = !cxpool::is_error(*out) && out->length() == expect.size();
      if (ok) {
        const cpy::List& got = out->as_list();
        for (std::size_t i = 0; i < expect.size() && ok; ++i) {
          ok = got[i].as_int() == expect[i];
        }
      }
      if (!ok) ++r.failed;
    }
    cx::exit();
  });
  const double t_end = wall_time();
  note_setup(r, st);
  if (counters) {
    record_counters(r, jobs, t_end - t0, kPes);
    r.values["ctr.app_msgs"] = static_cast<double>(rt.messages_sent());
  }
  if (timed_out) ++r.failed;
  return !timed_out;
}

/// The schedule shared by stencil-fine and pool-map: set-up-only
/// bring-ups and measuring episodes, then (traced) one traced episode.
/// `episode(measure_s, report, counters)` returns false on a timeout.
template <typename Episode>
void run_episodes(const Args& a, Report& r, Episode&& episode) {
  const double plain_s = a.trace ? a.seconds * kUntracedShare : a.seconds;
  bool ok = true;
  for (int i = 0; ok && !a.trace && i < kSetupOnly; ++i) {
    ok = episode(0.0, r, false);
  }
  for (int i = 0; ok && i < kEpisodes; ++i) {
    ok = episode(plain_s / kEpisodes, r, false);
    // Where each episode ends in the running totals.
    r.series["episode.samples"].push_back(
        static_cast<double>(r.samples_ms.size()));
    r.series["episode.items"].push_back(r.items);
    r.series["episode.item_s"].push_back(r.item_seconds);
  }
  if (ok && a.trace) {
    Report traced;
    enable_cx_trace(true);
    spans().enable(true);
    (void)episode(a.seconds * kTracedShare, traced, true);
    spans().enable(false);
    enable_cx_trace(false);
    merge_traced(r, traced);
  }
}

}  // namespace

std::vector<double> runtime_pingpong_us(int round_trips) {
  constexpr int kWarmup = 200;
  std::vector<double> rtt;
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 2;
  cx::Runtime rt(cfg);
  rt.run([&] {
    const std::vector<std::uint8_t> payload(kPingBytes, 0x2c);
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < kWarmup + round_trips; ++i) {
      const double t = wall_time();
      if (echo.call<&Echo::ping>(payload).get() != payload) {
        throw std::runtime_error("perfbench: echo payload corrupted");
      }
      if (i >= kWarmup) rtt.push_back((wall_time() - t) * 1e6);
    }
    cx::exit();
  });
  return rtt;
}

// ---------------------------------------------------------------------------

Report run_stencil(const Args& a) {
  Report r;
  const stencil::Params p = stencil_params();
  std::uint64_t group = 1;
  run_episodes(a, r, [&](double measure_s, Report& out, bool counters) {
    return stencil_episode(p, measure_s, out, group, counters);
  });
  if (a.trace) {
    r.values["cells_per_step"] =
        static_cast<double>(p.geo.num_blocks() * p.geo.cells_per_block());
    calibrate_layers(a.mode, r);
  }
  r.values["peak_rss_mb"] = peak_rss_mb();
  return r;
}

Report run_pingpong(const Args& a) {
  const double t_main = epoch_time();
  Report r;
  Spans& sp = spans();
  sp.enable(a.trace);
  enable_cx_trace(a.trace);
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 2;  // under cxrun the launcher sets the job shape
  std::uint64_t group = 1;
  std::optional<Spans::Scope> setup_span(std::in_place, sp, "setup", 0);
  std::optional<Spans::Scope> rt_span(std::in_place, sp, "setup.runtime", 0);
  const double t_ctor = epoch_time();
  cx::Runtime rt(cfg);
  const double t_wired = epoch_time();
  int rtts = 0;
  double rtt_phase_s = 0.0;
  rt.run([&] {
    const double t1 = epoch_time();
    rt_span.reset();
    const std::vector<std::uint8_t> hello(kPingBytes, 0x2c);
    cx::ElementProxy<Echo> echo;
    {
      Spans::Scope cs(sp, "setup.collection", 0);
      echo = cx::create_chare<Echo>(cx::num_pes() - 1);
      (void)echo.call<&Echo::ping>(hello).get();
    }
    const double t_ready = epoch_time();
    setup_span.reset();
    r.setup_s.push_back(t_ready - t_main);
    r.series["setup.wireup_s"].push_back(t_wired - t_ctor);
    r.series["setup.runtime_s"].push_back(t1 - t_wired);
    r.series["setup.collection_s"].push_back(t_ready - t1);

    // Seeded payloads, made by the driver rank once the job is up so the
    // ranks reach wireup together.
    cxu::Rng rng(a.seed);
    std::vector<std::vector<std::uint8_t>> pings, streams;
    std::vector<std::uint64_t> stream_sums;
    for (int i = 0; i < kPayloadVariants; ++i) {
      pings.push_back(seeded_bytes(rng, kPingBytes));
      if (a.trace) continue;
      streams.push_back(seeded_bytes(rng, kStreamBytes));
      stream_sums.push_back(word_sum(streams.back()));
    }

    // Round trips: 64 B payloads echoed back; each must come back intact.
    const double rtt_budget = a.trace ? a.seconds : a.seconds * 0.5;
    const double start = wall_time();
    while (wall_time() < start + rtt_budget) {
      const auto& payload = pings[static_cast<std::size_t>(rtts) %
                                  pings.size()];
      Spans::Scope s(sp, "sample", group);
      const double t = wall_time();
      std::optional<std::vector<std::uint8_t>> back;
      {
        Spans::Scope c(sp, "core.call_get", group);
        back = echo.call<&Echo::ping>(payload).get_for(kSampleTimeout);
      }
      const double dt = wall_time() - t;
      ++group;
      ++rtts;
      ++r.attempted;
      if (!back) {
        ++r.failed;
        break;
      }
      r.samples_ms.push_back(dt * 1e3);
      if (*back != payload) ++r.failed;
    }
    rtt_phase_s = wall_time() - start;

    // Stream: bursts of 1 MiB payloads one way, closed by a count call.
    // The first burst warms the connection and is checked, not timed.
    if (!a.trace) {
      const double stream_end = start + a.seconds;
      for (int burst = 0; burst == 0 || wall_time() < stream_end; ++burst) {
        std::uint64_t want = 0;
        const double t = wall_time();
        for (int j = 0; j < kBurst; ++j) {
          const std::size_t k =
              static_cast<std::size_t>(burst * kBurst + j) % streams.size();
          echo.send<&Echo::sink>(streams[k]);
          want += stream_sums[k];
        }
        const auto got = echo.call<&Echo::take>().get_for(kSampleTimeout);
        const double dt = wall_time() - t;
        ++r.attempted;
        if (!got || (*got)[0] != kBurst || (*got)[1] != want) {
          ++r.failed;
          if (!got) break;
          continue;
        }
        if (burst > 0) {
          r.series["stream_mb_s"].push_back(kBurst * (kStreamBytes / 1e6) /
                                            dt);
          r.items += kBurst * (kStreamBytes / 1e6);
          r.item_seconds += dt;
        }
      }
    }
    cx::exit();
  });
  if (a.trace) {
    record_counters(r, rtts, rtt_phase_s, 1);  // this rank's PE only
    r.values["ctr.app_msgs"] = static_cast<double>(rt.messages_sent());
    spans().enable(false);
    enable_cx_trace(false);
  }
  r.values["peak_rss_mb"] = peak_rss_mb();
  return r;
}

Report run_leanmd(const Args& a) {
  Report r;
  const leanmd::PhysParams p = leanmd_params(kMdSteps);
  const leanmd::Result cx_ref = leanmd::run_cx(p, threaded_machine());
  // run_cpy builds its runtime internally: time bare bring-ups to split
  // its set-up into runtime and collection parts.
  for (int i = 0; i < 5; ++i) {
    cx::Runtime rt(cx::RuntimeConfig{threaded_machine(), "greedy", 1});
    const double t0 = wall_time();
    rt.run([&] {
      r.series["setup.runtime_s"].push_back(wall_time() - t0);
      cx::exit();
    });
  }
  std::uint64_t group = 1;
  const double start = wall_time();
  const double plain_s = a.trace ? a.seconds * kUntracedShare : a.seconds;
  do {
    leanmd_episode(p, cx_ref.kinetic_energy, r, group);
  } while (wall_time() < start + plain_s);
  if (a.trace) {
    // Per-step counters: an episode of 2S steps minus one of S steps
    // cancels the set-up traffic (array creation, compute insertion).
    enable_cx_trace(true);
    spans().enable(true);
    Report traced;
    const leanmd::PhysParams p2 = leanmd_params(2 * kMdSteps);
    const leanmd::Result r2ref = leanmd::run_cx(p2, threaded_machine());
    const double traced_end = wall_time() + a.seconds * kTracedShare;
    Report one, two;
    do {
      const leanmd::Result s1 =
          leanmd_episode(p, cx_ref.kinetic_energy, traced, group);
      record_counters(one, 0, 0, kPes);
      const leanmd::Result s2 =
          leanmd_episode(p2, r2ref.kinetic_energy, traced, group);
      record_counters(two, 0, 0, kPes);
      for (const auto& [k, v] : two.values) r.values[k] += v - one.values[k];
      r.values["ctr.steps"] += kMdSteps;
      r.values["ctr.wall_s"] += s2.elapsed - s1.elapsed;
    } while (wall_time() < traced_end);
    // Rates and ratios do not subtract: take the long episode's own.
    for (const char* k : {"ctr.pool_hit_rate", "ctr.when_skip_rate",
                          "ctr.mean_chunk", "ctr.steal_hit_rate",
                          "ctr.task_p99_s"}) {
      r.values[k] = two.values[k];
    }
    r.values["ctr.pes"] = kPes;
    spans().enable(false);
    enable_cx_trace(false);
    r.series["traced_ms"] = traced.samples_ms;
    r.attempted += traced.attempted;
    r.failed += traced.failed;
    r.values["pairs_per_step"] = leanmd_pairs_per_step(p);
    calibrate_layers(a.mode, r);
  }
  r.values["peak_rss_mb"] = peak_rss_mb();
  return r;
}

Report run_pool(const Args& a) {
  Report r;
  register_pool_task();
  cxu::Rng rng(a.seed);
  cpy::List tasks;
  std::vector<std::int64_t> expect;
  for (int i = 0; i < kPoolTasks; ++i) {
    const auto x = static_cast<std::int64_t>(rng.next() >> 2);
    tasks.emplace_back(x);
    expect.push_back(pool_task(x));
  }
  std::uint64_t group = 1;
  run_episodes(a, r, [&](double measure_s, Report& out, bool counters) {
    return pool_episode(tasks, expect, measure_s, out, group, counters);
  });
  if (a.trace) {
    r.values["workers"] = kPoolProcs;
    calibrate_layers(a.mode, r);
  }
  r.values["peak_rss_mb"] = peak_rss_mb();
  return r;
}

}  // namespace perfbench
