// cx::ft tier: seeded fault injection replays deterministically, the
// seq+ack protocol delivers exactly-once under drop/dup/delay, the
// no-fault configuration sends zero protocol traffic (the fast path the
// messaging benchmarks depend on), failures surface as typed events,
// fault scripts parse strictly, and Future::get_for bounds a wait on both
// backends.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ft/ft.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"
#include "util/options.hpp"

namespace {

using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

// ---------------------------------------------------------------------------
// Workload: a ring of array elements, each firing `rounds` tokens at its
// successor. Cross-PE traffic in both directions around the PE set, with
// a final sum reduction — enough wire activity for injected faults to
// bite, and a checkable invariant (exactly-once delivery => exact sum).

struct RingCell : cx::Chare {
  int got = 0;
  int want = 0;
  cx::Future<int> done;

  void start(int rounds, int n, cx::Future<int> target) {
    want = rounds;
    done = target;
    auto arr = cx::collection_of<RingCell>(*this);
    const int next = (this_index()[0] + 1) % n;
    for (int r = 0; r < rounds; ++r) arr[{next}].send<&RingCell::token>(r);
    if (got >= want) finish();  // successor's tokens may have all landed
  }
  void token(int) {
    ++got;
    if (want > 0 && got == want) finish();
  }
  void finish() { contribute(got, cx::reducer::sum<int>(), cx::cb(done)); }
};

struct Counter : cx::Chare {
  int hits = 0;
  void hit() { ++hits; }
  int get() { return hits; }
};

struct FutureFiller : cx::Chare {
  void fill(cx::Future<int> f, int v) { f.send(v); }
};

struct TraceRun {
  int sum = 0;
  std::vector<cx::trace::Event> events;  // all PEs, concatenated in PE order
  cx::trace::Counters total;
};

/// Run the ring workload with tracing on; harvest the event timeline and
/// aggregate counters, then put the trace subsystem back to its default.
TraceRun traced_ring_run(const cx::RuntimeConfig& cfg, int cells,
                         int rounds) {
  cx::trace::reset();
  cx::trace::Config tc;
  tc.enabled = true;
  tc.print_summary = false;
  cx::trace::configure(tc);
  TraceRun out;
  run_program(cfg, [&] {
    auto arr = cx::create_array<RingCell>({cells});
    auto f = cx::make_future<int>();
    arr.broadcast<&RingCell::start>(rounds, cells, f);
    out.sum = f.get();
    cx::exit();
  });
  for (int pe = 0; pe < cfg.machine.num_pes; ++pe) {
    for (const auto& e : cx::trace::events(pe)) out.events.push_back(e);
  }
  out.total = cx::trace::aggregate();
  cx::trace::reset();
  return out;
}

bool same_timeline(const std::vector<cx::trace::Event>& a,
                   const std::vector<cx::trace::Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].kind != b[i].kind ||
        a[i].a != b[i].a || a[i].b != b[i].b) {
      return false;
    }
  }
  return true;
}

cx::RuntimeConfig faulty_sim_cfg(std::uint64_t seed) {
  cx::RuntimeConfig cfg = sim_cfg(4);
  cfg.machine.faults.seed = seed;
  cfg.machine.faults.drop = 0.05;
  cfg.machine.faults.dup = 0.05;
  cfg.machine.faults.delay = 0.2;
  cfg.machine.faults.delay_s = 2.0e-4;
  cfg.machine.faults.reliable = true;
  cfg.machine.faults.retry.base_s = 1.0e-3;
  return cfg;
}

constexpr int kCells = 8;
constexpr int kRounds = 20;
constexpr int kSum = kCells * kRounds;

// ---------------------------------------------------------------------------

TEST(FtDeterminism, SameSeedReplaysIdenticalTimeline) {
  const TraceRun a = traced_ring_run(faulty_sim_cfg(7), kCells, kRounds);
  const TraceRun b = traced_ring_run(faulty_sim_cfg(7), kCells, kRounds);

  // The protocol masked every injected fault (exactly-once delivery).
  EXPECT_EQ(a.sum, kSum);
  EXPECT_EQ(b.sum, kSum);

  // The faults actually bit: drops happened and were repaired.
  EXPECT_GT(a.total.ft_drops, 0u);
  EXPECT_GT(a.total.ft_retransmits, 0u);
  EXPECT_GT(a.total.ft_acks, 0u);
  EXPECT_EQ(a.total.ft_failures, 0u);

  // One seeded stream drives every decision: the whole event timeline —
  // virtual timestamps included — replays exactly.
  EXPECT_TRUE(same_timeline(a.events, b.events));
  EXPECT_EQ(a.total.ft_drops, b.total.ft_drops);
  EXPECT_EQ(a.total.ft_retransmits, b.total.ft_retransmits);
}

TEST(FtDeterminism, DifferentSeedGivesDifferentFaultScript) {
  const TraceRun a = traced_ring_run(faulty_sim_cfg(7), kCells, kRounds);
  const TraceRun b = traced_ring_run(faulty_sim_cfg(1234), kCells, kRounds);
  EXPECT_EQ(a.sum, kSum);
  EXPECT_EQ(b.sum, kSum);
  EXPECT_FALSE(same_timeline(a.events, b.events));
}

// ---------------------------------------------------------------------------

TEST(FtFastPath, DefaultConfigSendsZeroProtocolTraffic) {
  for (const auto& cfg : {threaded_cfg(4), sim_cfg(4)}) {
    const TraceRun r = traced_ring_run(cfg, kCells, kRounds);
    EXPECT_EQ(r.sum, kSum);
    EXPECT_EQ(r.total.ft_acks, 0u);
    EXPECT_EQ(r.total.ft_drops, 0u);
    EXPECT_EQ(r.total.ft_retransmits, 0u);
    EXPECT_EQ(r.total.ft_failures, 0u);
  }
}

TEST(FtFastPath, ReliableModeAcksCrossPeMessages) {
  cx::RuntimeConfig cfg = sim_cfg(4);
  cfg.machine.faults.reliable = true;  // protocol on, no injection
  const TraceRun r = traced_ring_run(cfg, kCells, kRounds);
  EXPECT_EQ(r.sum, kSum);
  EXPECT_GT(r.total.ft_acks, 0u);
  EXPECT_EQ(r.total.ft_drops, 0u);
  EXPECT_EQ(r.total.ft_failures, 0u);
}

// ---------------------------------------------------------------------------

TEST(FtFailure, ScriptedCrashSurfacesTypedFailure) {
  cx::RuntimeConfig cfg = sim_cfg(4);
  // PE 3 crashes at 1e-4 virtual seconds.
  cfg.machine.faults.script = {{3, 1.0e-4, cx::ft::FailureKind::Crashed}};
  run_program(cfg, [&] {
    std::vector<cx::ft::PeFailure> seen;
    cx::ft::on_failure(
        [&](const cx::ft::PeFailure& f) { seen.push_back(f); });
    // Traffic between PEs 0 and 1 advances the virtual clock past the
    // scripted crash of (idle) PE 3; nothing the program needs dies.
    auto c = cx::create_chare<Counter>(1);
    int pings = 0;
    while (cx::ft::failed_pes().empty() && pings < 20000) {
      c.send<&Counter::hit>();
      (void)c.call<&Counter::get>().get();
      ++pings;
    }
    ASSERT_EQ(cx::ft::failed_pes(), std::vector<int>{3});
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].pe, 3);
    EXPECT_EQ(seen[0].kind, cx::ft::FailureKind::Crashed);
    EXPECT_GE(seen[0].time, cfg.machine.faults.script[0].at);
    cx::exit();
  });
}

TEST(FtFailure, HungPeExhaustsRetriesAndIsReportedUnreachable) {
  cx::RuntimeConfig cfg = sim_cfg(2);
  // PE 1 stops draining almost at once.
  cfg.machine.faults.script = {{1, 1.0e-6, cx::ft::FailureKind::Hung}};
  cfg.machine.faults.reliable = true;
  cfg.machine.faults.retry.base_s = 1.0e-4;
  cfg.machine.faults.retry.max_attempts = 2;
  run_program(cfg, [&] {
    std::vector<cx::ft::PeFailure> seen;
    cx::ft::on_failure(
        [&](const cx::ft::PeFailure& f) { seen.push_back(f); });
    auto c = cx::create_chare<Counter>(1);  // lands in the hung mailbox
    c.send<&Counter::hit>();
    auto idle = cx::make_future<int>();
    int spins = 0;
    while (cx::ft::failed_pes().empty() && spins < 1000) {
      (void)idle.get_for(1.0e-3);  // advance virtual time; never resolves
      ++spins;
    }
    ASSERT_EQ(cx::ft::failed_pes(), std::vector<int>{1});
    ASSERT_GE(seen.size(), 1u);
    EXPECT_EQ(seen[0].pe, 1);
    EXPECT_EQ(seen[0].kind, cx::ft::FailureKind::Unreachable);
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Fault scripts: strict parsing, range checks, and the retired one-shot
// flags failing loudly instead of running fault-free.

TEST(FtScript, ParsesEventsInOrder) {
  const auto s = cx::ft::parse_fault_script("crash:2@5e-5,hang:1@0.25");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].pe, 2);
  EXPECT_DOUBLE_EQ(s[0].at, 5e-5);
  EXPECT_EQ(s[0].kind, cx::ft::FailureKind::Crashed);
  EXPECT_EQ(s[1].pe, 1);
  EXPECT_DOUBLE_EQ(s[1].at, 0.25);
  EXPECT_EQ(s[1].kind, cx::ft::FailureKind::Hung);
}

TEST(FtScript, RejectsMalformedEvents) {
  for (const char* bad : {"crash:2x@5e-5", "crash:2@5e-5junk", "crash:-3@1e-5",
                          "hang:1@-1", "crash:1@nan", "crash:1@inf",
                          "crash:@1e-5", "crash:1@", "boom:1@1e-5"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)cx::ft::parse_fault_script(bad), std::invalid_argument);
  }
}

TEST(FtScript, SimRejectsOutOfRangePe) {
  for (const int pe : {4, -1}) {
    SCOPED_TRACE(pe);
    cxm::MachineConfig m;
    m.num_pes = 4;
    m.backend = cxm::Backend::Sim;
    m.faults.script = {{1, 1e-5, cx::ft::FailureKind::Crashed},
                       {pe, 2e-5, cx::ft::FailureKind::Crashed}};
    EXPECT_THROW((void)cxm::make_machine(m), std::invalid_argument);
  }
}

TEST(FtScript, RetiredOneShotFlagsThrow) {
  for (const char* flag : {"--ft-crash-pe", "--ft-crash-at", "--ft-hang-pe",
                           "--ft-hang-at"}) {
    SCOPED_TRACE(flag);
    char prog[] = "prog";
    std::string f = flag;
    char val[] = "2";
    char* argv[] = {prog, f.data(), val};
    const cxu::Options opt(3, argv);
    try {
      (void)cx::ft::fault_config_from_options(opt);
      ADD_FAILURE() << "retired flag accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--ft-script"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------

TEST(FtGetFor, TimesOutWithoutValueThenStillUsable) {
  for (const auto& cfg : {threaded_cfg(2), sim_cfg(2)}) {
    run_program(cfg, [] {
      auto f = cx::make_future<int>();
      EXPECT_EQ(f.get_for(0.02), std::nullopt);  // nobody will send
      auto filler = cx::create_chare<FutureFiller>(1);
      filler.send<&FutureFiller::fill>(f, 42);
      EXPECT_EQ(f.get(), 42);  // the timed-out future is still live

      // Polling loop: the idiom recovery drivers use.
      auto g = cx::make_future<int>();
      filler.send<&FutureFiller::fill>(g, 7);
      std::optional<int> got;
      while (!(got = g.get_for(0.05))) {
      }
      EXPECT_EQ(*got, 7);
      cx::exit();
    });
  }
}

TEST(FtGetFor, ReadyValueReturnsImmediately) {
  run_program(threaded_cfg(1), [] {
    auto f = cx::make_future<int>();
    f.send(9);
    EXPECT_EQ(f.get_for(10.0), std::optional<int>(9));
    cx::exit();
  });
}

}  // namespace
