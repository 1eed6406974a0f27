// cx::wire aggregation (--wire-agg): toggle parsing, batch wire format
// round-trips, the one-open-batch ordering rule, per sender->destination
// FIFO across flush boundaries on both backends, byte-identical
// application results with aggregation off vs on, exactly-once delivery
// under seeded faults (protocol traffic is exempt, batches enroll as
// units), and deterministic DES timer flushes.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "core/charm.hpp"
#include "trace/trace.hpp"
#include "wire/agg.hpp"
#include "wire/pool.hpp"

namespace {

using namespace cx::wire;

/// Restore the process-global aggregation switches after each test (the
/// whole suite shares one binary).
struct AggGuard {
  bool enabled = agg_enabled();
  AggConfig cfg = agg_config();
  ~AggGuard() {
    set_agg_enabled(enabled);
    set_agg_config(cfg);
  }
};

cxm::MessagePtr make_msg(std::uint32_t handler, int dst, std::size_t bytes,
                         std::byte fill) {
  auto m = std::make_unique<cxm::Message>();
  m->handler = handler;
  m->src_pe = 0;
  m->dst_pe = dst;
  std::vector<std::byte> payload(bytes, fill);
  m->data.assign(payload.data(), payload.size());
  return m;
}

// ---------------------------------------------------------------------------
// parse_toggle — the CHARMX_WIRE_POOL bug this PR fixes: any value
// starting with 'o' other than "on" used to parse as off, and the
// documented "false" did not.

TEST(ParseToggle, OnlyExplicitOffValuesDisable) {
  EXPECT_FALSE(parse_toggle("0", true));
  EXPECT_FALSE(parse_toggle("off", true));
  EXPECT_FALSE(parse_toggle("OFF", true));
  EXPECT_FALSE(parse_toggle("false", true));
  EXPECT_FALSE(parse_toggle("False", true));
  EXPECT_TRUE(parse_toggle("on", false));
  EXPECT_TRUE(parse_toggle("1", false));
  EXPECT_TRUE(parse_toggle("true", false));
  // Regression: these begin with 'o' / 'f' but are not "off"/"false".
  EXPECT_TRUE(parse_toggle("owl", false));
  EXPECT_TRUE(parse_toggle("offbeat", false));
  EXPECT_TRUE(parse_toggle("fast", false));
}

TEST(ParseToggle, UnsetUsesDefault) {
  EXPECT_TRUE(parse_toggle(nullptr, true));
  EXPECT_FALSE(parse_toggle(nullptr, false));
}

// ---------------------------------------------------------------------------
// Batch format round-trip through PeAggregator.

TEST(AggBatch, RoundTripPreservesOrderAndContents) {
  AggConfig cfg;
  cfg.flush_count = 4;
  PeAggregator a(cfg);
  constexpr int kMsgs = 6;
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(a.dst_pending(1) == (i % 4 != 0));
    (void)a.absorb(make_msg(100u + static_cast<std::uint32_t>(i), /*dst=*/1,
                            /*bytes=*/static_cast<std::size_t>(i + 1),
                            std::byte{static_cast<unsigned char>(i)}));
  }
  a.flush_all(AggFlush::Idle);  // seal the 2-message remainder
  EXPECT_FALSE(a.has_pending());

  int next = 0;
  for (cxm::MessagePtr batch = a.next_ready(); batch != nullptr;
       batch = a.next_ready()) {
    EXPECT_EQ(batch->dst_pe, 1);
    EXPECT_EQ(batch->wire_flags, cxm::kWireAggBatch);
    const bool ok = for_each_agg_record(
        batch->data,
        [&](std::uint32_t handler, const std::byte* p, std::uint32_t len) {
          EXPECT_EQ(handler, 100u + static_cast<std::uint32_t>(next));
          ASSERT_EQ(len, static_cast<std::uint32_t>(next + 1));
          for (std::uint32_t j = 0; j < len; ++j) {
            EXPECT_EQ(p[j], std::byte{static_cast<unsigned char>(next)});
          }
          ++next;
        });
    EXPECT_TRUE(ok);
  }
  EXPECT_EQ(next, kMsgs);  // every message, in send order, exactly once
}

TEST(AggBatch, MalformedPayloadsAreRejected) {
  AggConfig cfg;
  PeAggregator a(cfg);
  (void)a.absorb(make_msg(7, 1, 16, std::byte{0xab}));
  a.flush_all(AggFlush::Idle);
  cxm::MessagePtr batch = a.next_ready();
  ASSERT_NE(batch, nullptr);

  auto count_records = [](const Buffer& b) {
    int n = 0;
    const bool ok =
        for_each_agg_record(b, [&](std::uint32_t, const std::byte*,
                                   std::uint32_t) { ++n; });
    return ok ? n : -1;
  };
  EXPECT_EQ(count_records(batch->data), 1);

  Buffer truncated;
  truncated.assign(batch->data.data(), batch->data.size() - 1);
  EXPECT_EQ(count_records(truncated), -1);

  Buffer short_header;
  short_header.assign(batch->data.data(), 2);
  EXPECT_EQ(count_records(short_header), -1);

  // Count claims more records than the payload holds.
  Buffer lying;
  lying.assign(batch->data.data(), batch->data.size());
  const std::uint32_t big = 9;
  std::memcpy(lying.data(), &big, sizeof(big));
  EXPECT_EQ(count_records(lying), -1);
}

TEST(AggBatch, ClassSwitchSealsOldBatchFirst) {
  AggConfig cfg;
  PeAggregator a(cfg);
  (void)a.absorb(make_msg(1, 5, 100, std::byte{1}));   // class 0 (<=128)
  (void)a.absorb(make_msg(2, 5, 300, std::byte{2}));   // class 1 -> seal
  ASSERT_TRUE(a.dst_pending(5));                       // class-1 batch open
  a.flush_all(AggFlush::Idle);

  std::vector<std::uint32_t> handlers;
  for (cxm::MessagePtr b = a.next_ready(); b != nullptr; b = a.next_ready()) {
    (void)for_each_agg_record(
        b->data, [&](std::uint32_t h, const std::byte*, std::uint32_t) {
          handlers.push_back(h);
        });
  }
  // The class-0 batch was sealed by the switch, so it drains first.
  ASSERT_EQ(handlers.size(), 2u);
  EXPECT_EQ(handlers[0], 1u);
  EXPECT_EQ(handlers[1], 2u);
}

TEST(AggBatch, StaleTimerGenerationsAreNoOps) {
  AggConfig cfg;
  PeAggregator a(cfg);
  (void)a.absorb(make_msg(1, 3, 8, std::byte{1}));
  const std::uint64_t gen = a.generation(3);
  a.flush_timer(3, gen + 1);  // wrong stamp: nothing happens
  EXPECT_TRUE(a.dst_pending(3));
  a.flush_timer(3, gen);
  EXPECT_FALSE(a.dst_pending(3));
  a.flush_timer(3, gen);  // batch already sealed: no-op again
  EXPECT_NE(a.next_ready(), nullptr);
  EXPECT_EQ(a.next_ready(), nullptr);
}

// ---------------------------------------------------------------------------
// Full-runtime workload: a ring of group chares, each streaming `msgs`
// sequenced messages to its successor PE. In strict mode the reduced
// value folds sequence numbers order-sensitively, so ANY reordering of a
// sender's stream changes the result; in lax mode (for fault injection,
// where delayed singles may legally pass earlier ones) the fold is
// commutative and checks exactly-once delivery instead.

struct SeqRing : cx::Chare {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t sum = 0;
  int next_seq = 0;
  bool in_order = true;
  int received = 0;
  int expect = -1;  ///< -1 until start() arrives (ring sends can race it)
  bool strict_ = true;
  cx::Future<double> done;

  void ready(cx::Future<void> f) { contribute(cx::cb(f)); }

  void start(cx::CollectionProxy<SeqRing> ring, int msgs, int strict,
             cx::Future<double> f) {
    done = f;
    strict_ = strict != 0;
    expect = msgs;
    const int next = (cx::my_pe() + 1) % cx::num_pes();
    for (int i = 0; i < msgs; ++i) {
      ring[next].send<&SeqRing::recv>(i, i * 3 + 1);
    }
    maybe_finish();
  }

  void recv(int seq, int val) {
    in_order = in_order && seq == next_seq;
    ++next_seq;
    hash = hash * 1099511628211ull +
           (static_cast<std::uint64_t>(seq) * 31u +
            static_cast<std::uint64_t>(val));
    sum += static_cast<std::uint64_t>(seq) + static_cast<std::uint64_t>(val);
    ++received;
    maybe_finish();
  }

  void maybe_finish() {
    if (expect < 0 || received != expect) return;
    double v;
    if (strict_) {
      v = in_order ? static_cast<double>(hash & 0xffffffull) : -1.0e15;
    } else {
      v = static_cast<double>(sum);
    }
    contribute(v, cx::reducer::sum<double>(), cx::cb(done));
  }
};

struct RingRun {
  double value = 0.0;
  double makespan = 0.0;
  cx::trace::WireStats wire;
};

RingRun run_ring(cx::RuntimeConfig cfg, bool agg_on, int msgs,
                 bool strict = true) {
  AggGuard guard;
  set_agg_enabled(agg_on);
  cx::trace::reset_stats();
  RingRun out;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto ring = cx::create_group<SeqRing>();
    // Barrier: every member exists before the streams start, so the
    // ordered window never crosses creation-in-flight buffering.
    auto up = cx::make_future<void>();
    ring.broadcast<&SeqRing::ready>(up);
    up.get();
    auto f = cx::make_future<double>();
    ring.broadcast<&SeqRing::start>(ring, msgs, strict ? 1 : 0, f);
    out.value = f.get();
    cx::exit();
  });
  out.makespan = rt.sim_makespan();
  out.wire = cx::trace::wire_stats();
  return out;
}

cx::RuntimeConfig sim_cfg(int pes) {
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = pes;
  cfg.machine.backend = cxm::Backend::Sim;
  return cfg;
}

cx::RuntimeConfig threaded_cfg(int pes) {
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = pes;
  cfg.machine.backend = cxm::Backend::Threaded;
  return cfg;
}

// Streams long enough to seal batches by count (64) and bytes, plus a
// remainder only the idle/timer path can flush.
constexpr int kMsgs = 300;

TEST(AggRuntime, SimFifoAcrossFlushBoundaries) {
  const RingRun r = run_ring(sim_cfg(4), /*agg_on=*/true, kMsgs);
  EXPECT_GE(r.value, 0.0) << "a PE saw its stream out of order";
  EXPECT_GT(r.wire.agg_batches, 0u);
  EXPECT_GT(r.wire.agg_msgs, 0u);
}

TEST(AggRuntime, ThreadedFifoAcrossFlushBoundaries) {
  const RingRun r = run_ring(threaded_cfg(4), /*agg_on=*/true, kMsgs);
  EXPECT_GE(r.value, 0.0) << "a PE saw its stream out of order";
  EXPECT_GT(r.wire.agg_batches, 0u);
}

TEST(AggRuntime, SimResultByteIdenticalOffVsOn) {
  const RingRun off = run_ring(sim_cfg(4), false, kMsgs);
  const RingRun on = run_ring(sim_cfg(4), true, kMsgs);
  EXPECT_GE(off.value, 0.0);
  EXPECT_EQ(off.value, on.value);
  EXPECT_EQ(off.wire.agg_batches, 0u);
  // Aggregation moved real traffic off the per-envelope path...
  EXPECT_LT(on.wire.transport_msgs, off.wire.transport_msgs / 4);
  // ...and made virtual time better, not worse.
  EXPECT_LT(on.makespan, off.makespan);
}

TEST(AggRuntime, ThreadedResultByteIdenticalOffVsOn) {
  const RingRun off = run_ring(threaded_cfg(4), false, kMsgs);
  const RingRun on = run_ring(threaded_cfg(4), true, kMsgs);
  EXPECT_GE(off.value, 0.0);
  EXPECT_EQ(off.value, on.value);
  EXPECT_LT(on.wire.transport_msgs, off.wire.transport_msgs / 4);
}

// Seeded drop/dup/delay with the reliable protocol on: protocol traffic
// (seq/ack/retransmits) is exempt from aggregation, batches enroll as
// single units, and every application message still arrives exactly
// once. Delayed singles may legally pass earlier messages (pre-existing
// ft semantics), so the invariant is the commutative exactly-once sum.
TEST(AggRuntime, FtInjectionStillDeliversExactlyOnce) {
  auto cfg = sim_cfg(4);
  cfg.machine.faults.seed = 42;
  cfg.machine.faults.drop = 0.05;
  cfg.machine.faults.dup = 0.05;
  cfg.machine.faults.delay = 0.1;
  cfg.machine.faults.delay_s = 2.0e-4;
  cfg.machine.faults.reliable = true;
  cfg.machine.faults.retry.base_s = 1.0e-3;

  // Per PE: sum_i (i + 3i+1) over kMsgs messages; 4 PEs.
  const std::uint64_t per_pe =
      static_cast<std::uint64_t>(kMsgs) * (2ull * (kMsgs - 1)) + kMsgs;
  const double want = 4.0 * static_cast<double>(per_pe);

  const RingRun r = run_ring(cfg, /*agg_on=*/true, kMsgs, /*strict=*/false);
  EXPECT_EQ(r.value, want);
  EXPECT_GT(r.wire.agg_batches, 0u);
}

// Short streams never hit the count/bytes thresholds: only the DES
// flush timer can seal them, and two identical runs must replay the
// exact same virtual timeline.
TEST(AggRuntime, SimIdleFlushIsDeterministic) {
  const RingRun a = run_ring(sim_cfg(4), true, /*msgs=*/10);
  const RingRun b = run_ring(sim_cfg(4), true, /*msgs=*/10);
  EXPECT_GE(a.value, 0.0);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_GT(a.wire.agg_flush_idle, 0u);
  EXPECT_EQ(a.wire.agg_flush_idle, b.wire.agg_flush_idle);
  EXPECT_EQ(a.wire.agg_batches, b.wire.agg_batches);
}

}  // namespace
