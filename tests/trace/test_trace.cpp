// cx::trace — events recorded in order, counters matching a known
// message pattern, and a disabled mode that records nothing.

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/charm.hpp"
#include "model/cpy.hpp"
#include "test_helpers.hpp"
#include "util/options.hpp"

namespace {

using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;
namespace trace = cx::trace;

struct Echo : cx::Chare {
  int count = 0;
  void hit(int delta) { count += delta; }
  int get() { return count; }
};

/// Enable tracing for the duration of one test.
struct TraceOn {
  explicit TraceOn(std::size_t buffer = 1u << 14) {
    trace::Config cfg;
    cfg.enabled = true;
    cfg.buffer_events = buffer;
    trace::configure(cfg);
  }
  ~TraceOn() { trace::reset(); }
};

TEST(Trace, DisabledModeRecordsNothing) {
  trace::reset();
  ASSERT_FALSE(trace::enabled());
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 10; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 10) {
    }
    cx::exit();
  });
  EXPECT_EQ(trace::total_events(), 0u);
  EXPECT_EQ(trace::traced_pes(), 0);
  const trace::Counters total = trace::aggregate();
  EXPECT_EQ(total.msgs_sent, 0u);
  EXPECT_EQ(total.entries, 0u);
}

TEST(Trace, CountsKnownMessagePattern) {
  TraceOn on;
  constexpr int kMessages = 50;
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    (void)echo.call<&Echo::get>().get();  // ensure created
    for (int i = 0; i < kMessages; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < kMessages) {
    }
    cx::exit();
  });
  ASSERT_EQ(trace::traced_pes(), 2);
  const trace::Counters total = trace::aggregate();
  // The kMessages cross-PE hits plus runtime control traffic.
  EXPECT_GE(total.msgs_sent, static_cast<std::uint64_t>(kMessages));
  EXPECT_GE(total.msgs_recv, static_cast<std::uint64_t>(kMessages));
  // Each hit plus each get executes an entry method.
  EXPECT_GE(total.entries, static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(total.entry_time, 0.0);
  // All hit/get deliveries land on PE 1 where the chare lives.
  EXPECT_GE(trace::counters(1).entries,
            static_cast<std::uint64_t>(kMessages));
  std::uint64_t hist_total = 0;
  for (int i = 0; i < trace::kHistBuckets; ++i) {
    hist_total += total.entry_hist[i];
  }
  EXPECT_EQ(hist_total, total.entries);
}

TEST(Trace, EventsAreChronologicalPerPe) {
  TraceOn on;
  run_program(sim_cfg(4), [] {
    auto echo = cx::create_chare<Echo>(2);
    for (int i = 0; i < 30; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 30) {
    }
    cx::exit();
  });
  ASSERT_EQ(trace::traced_pes(), 4);
  EXPECT_TRUE(trace::traced_run_was_simulated());
  std::uint64_t seen = 0;
  for (int pe = 0; pe < 4; ++pe) {
    const auto evs = trace::events(pe);
    seen += evs.size();
    for (std::size_t i = 1; i < evs.size(); ++i) {
      EXPECT_LE(evs[i - 1].time, evs[i].time)
          << "pe " << pe << " event " << i;
    }
  }
  EXPECT_GT(seen, 0u);
}

TEST(Trace, SimSendsMatchReceives) {
  // The simulator drains its event queue completely, so every recorded
  // send must be matched by exactly one receive, byte for byte.
  TraceOn on;
  run_program(sim_cfg(3), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 20; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 20) {
    }
    cx::exit();
  });
  const trace::Counters total = trace::aggregate();
  // Bootstrap messages enter from outside any PE (not recorded as sends),
  // so receives can exceed sends by those externals but never trail them.
  EXPECT_GE(total.msgs_recv, total.msgs_sent);
  EXPECT_LE(total.msgs_recv - total.msgs_sent, 2u);
  EXPECT_GE(total.bytes_recv, total.bytes_sent);
}

TEST(Trace, RecordsMessageEntryAndIdleEvents) {
  TraceOn on;
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 5; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 5) {
    }
    cx::exit();
  });
  bool saw_send = false, saw_recv = false, saw_entry = false;
  for (int pe = 0; pe < trace::traced_pes(); ++pe) {
    for (const auto& ev : trace::events(pe)) {
      saw_send |= ev.kind == trace::EventKind::MsgSend;
      saw_recv |= ev.kind == trace::EventKind::MsgRecv;
      saw_entry |= ev.kind == trace::EventKind::EntryBegin;
    }
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_entry);
  // The main thread blocks on futures while PE threads idle-wait, so
  // idle spans must show up on the threaded backend.
  EXPECT_GT(trace::aggregate().idle_spans, 0u);
}

TEST(Trace, MsgSendPayloadsCarryBytes) {
  TraceOn on;
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 1) {
    }
    cx::exit();
  });
  std::uint64_t send_bytes = 0;
  for (int pe = 0; pe < trace::traced_pes(); ++pe) {
    for (const auto& ev : trace::events(pe)) {
      if (ev.kind == trace::EventKind::MsgSend) send_bytes += ev.b;
    }
  }
  EXPECT_EQ(send_bytes, trace::aggregate().bytes_sent);
  EXPECT_GT(send_bytes, 0u);
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  TraceOn on(/*buffer=*/8);
  run_program(sim_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 100; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 100) {
    }
    cx::exit();
  });
  const auto evs = trace::events(1);
  EXPECT_LE(evs.size(), 8u);
  EXPECT_GT(trace::counters(1).dropped_events, 0u);
  // Retained events are still chronological (the newest window).
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_LE(evs[i - 1].time, evs[i].time);
  }
}

TEST(Trace, JsonTimelineIsWellFormed) {
  TraceOn on;
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 3; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 3) {
    }
    cx::exit();
  });
  std::ostringstream os;
  trace::write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"simulated\":false"), std::string::npos);
  EXPECT_NE(json.find("\"num_pes\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"msg_send\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"entry_begin\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity check.
  long braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_str = !in_str;
    if (in_str) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // And the summary table renders.
  const std::string summary = trace::summary_table();
  EXPECT_NE(summary.find("msgs sent"), std::string::npos);
}

TEST(Trace, DynamicDispatchAndPoolEventsAreRecorded) {
  static const bool registered = [] {
    cpy::DClass cls("tr.Echo");
    cls.def("__init__", {}, [](cpy::DChare& self, cpy::Args&) {
      self["n"] = cpy::Value(0);
      return cpy::Value::none();
    });
    cls.def("bump", {}, [](cpy::DChare& self, cpy::Args&) {
      self["n"] = cpy::Value(self["n"].as_int() + 1);
      return cpy::Value::none();
    });
    cls.def("get", {}, [](cpy::DChare& self, cpy::Args&) {
      return self["n"];
    });
    return true;
  }();
  (void)registered;
  TraceOn on;
  run_program(threaded_cfg(2), [] {
    auto dyn = cpy::create_chare("tr.Echo", 1);
    for (int i = 0; i < 4; ++i) dyn.send("bump", {});
    while (dyn.call("get").get().as_int() < 4) {
    }
    cx::exit();
  });
  EXPECT_GE(trace::aggregate().dyn_dispatches, 4u);
}

/// Top-level keys of the JSON object that follows `"name":` in `json`
/// (nested objects and arrays are skipped; values here are never strings).
std::set<std::string> object_keys(const std::string& json,
                                  const std::string& name) {
  std::set<std::string> keys;
  std::size_t i = json.find("\"" + name + "\":{");
  if (i == std::string::npos) return keys;
  i += name.size() + 4;
  for (int depth = 0; i < json.size() && depth >= 0; ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (c == '"' && depth == 0) {
      const std::size_t end = json.find('"', i + 1);
      keys.insert(json.substr(i + 1, end - i - 1));
      i = end;
    }
  }
  return keys;
}

TEST(Trace, JsonCarriesEveryCounter) {
  TraceOn on;
  trace::begin_run(1, false);
  std::ostringstream os;
  trace::write_json(os);
  const std::string json = os.str();
  const std::set<std::string> total = {
      "msgs_sent", "bytes_sent", "msgs_recv", "bytes_recv", "entries",
      "entry_time", "idle_time", "idle_spans", "when_buffered",
      "reductions_contributed", "reductions_delivered", "migrations_out",
      "migrations_in", "lb_decisions", "fiber_suspends", "fiber_resumes",
      "dyn_dispatches", "pool_jobs_queued", "pool_jobs_started",
      "pool_jobs_done", "ft_drops", "ft_acks", "ft_retransmits",
      "ft_failures", "ft_checkpoints", "ft_restores", "ft_resubmits",
      "ft_detections", "ft_detect_latency_s", "ft_recoveries", "ft_mttr_s",
      "dropped_events", "entry_hist_us"};
  const std::set<std::string> when = {"tests",    "hits",      "buffered",
                                      "skipped",  "skip_rate", "high_water"};
  const std::set<std::string> wire = {
      "envelopes", "bytes_packed", "sbo_payloads", "buf_allocs", "buf_hits",
      "buf_recycled", "msg_allocs", "msg_hits", "msg_recycled", "env_allocs",
      "env_hits", "pool_hit_rate", "transport_msgs", "agg_batches",
      "agg_msgs", "agg_flush_bytes", "agg_flush_count", "agg_flush_idle",
      "agg_flush_order"};
  const std::set<std::string> sections = {
      "sections_built", "tree_repairs",  "mcasts",        "mcast_envelopes",
      "envelopes_saved", "contributions", "red_fragments", "reductions_done"};
  const std::set<std::string> pool = {
      "grants", "granted_tasks", "mean_chunk", "max_chunk", "steal_attempts",
      "steal_hits", "steal_hit_rate", "stolen_tasks", "result_batches",
      "tasks_done", "beats", "reassigns", "inflight_clamps",
      "queue_high_water", "mean_task_s", "p99_task_s", "jobs"};
  const std::set<std::string> machine = {"idle_polls", "poll_hits", "parks",
                                         "frames_inline", "frames_queued"};
  EXPECT_EQ(object_keys(json, "total"), total);
  EXPECT_EQ(object_keys(json, "when"), when);
  EXPECT_EQ(object_keys(json, "wire"), wire);
  EXPECT_EQ(object_keys(json, "sections"), sections);
  std::set<std::string> pool_keys = object_keys(json, "pool");
  pool_keys.erase("task_ns_sum");  // the one key allowed beyond the schema
  EXPECT_EQ(pool_keys, pool);
  EXPECT_EQ(object_keys(json, "machine"), machine);
  // The machine object sits between sections and pool.
  const std::size_t at_sections = json.find("\"sections\":{");
  const std::size_t at_machine = json.find("\"machine\":{");
  const std::size_t at_pool = json.find("\"pool\":{");
  ASSERT_NE(at_machine, std::string::npos);
  EXPECT_LT(at_sections, at_machine);
  EXPECT_LT(at_machine, at_pool);
  // Every kind has its own name in the timeline.
  std::set<std::string> names;
  const int last = static_cast<int>(trace::EventKind::FtRecover);
  for (int k = 0; k <= last; ++k) {
    const std::string n = trace::kind_name(static_cast<trace::EventKind>(k));
    EXPECT_NE(n, "unknown") << "kind " << k;
    names.insert(n);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(last + 1));
}

TEST(Trace, JsonTimestampsRoundTrip) {
  TraceOn on;
  trace::begin_run(1, false);
  trace::record(0, 12.345678901234, trace::EventKind::MsgSend, 1, 2);
  std::ostringstream os;
  trace::write_json(os);
  const std::string json = os.str();
  const std::size_t at = json.find("\"t\":");
  ASSERT_NE(at, std::string::npos);
  const double t = std::stod(json.substr(at + 4));
  EXPECT_EQ(t, trace::events(0)[0].time);
}

TEST(Trace, TraceBufferBelowOneIsRejected) {
  for (const char* value : {"-5", "0"}) {
    SCOPED_TRACE(value);
    char prog[] = "prog";
    char flag[] = "--trace-buffer";
    std::string v = value;
    char* argv[] = {prog, flag, v.data()};
    const cxu::Options opt(3, argv);
    try {
      trace::configure_from_options(opt);
      ADD_FAILURE() << "--trace-buffer " << value << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--trace-buffer"),
                std::string::npos)
          << e.what();
    }
  }
  trace::reset();
}

TEST(Trace, HugeBufferClampsInsteadOfOverflowing) {
  // 2^62 events/PE times 4 PEs wraps a 64-bit product to 0; the clamp
  // must still apply (the ring is capped, not sized to 2^62).
  TraceOn on(std::size_t{1} << 62);
  ASSERT_NO_THROW(trace::begin_run(4, false));
  trace::record(3, 1.0, trace::EventKind::Idle, 5, 0);
  ASSERT_EQ(trace::events(3).size(), 1u);
  EXPECT_EQ(trace::counters(3).idle_spans, 1u);
}

TEST(Trace, StatsSumAcrossThreads) {
  // Each thread bumps its own counter shard; a snapshot must fold every
  // shard, including those of threads that have exited, summing counts
  // and taking the max of high-water marks.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kBumps = 10000;
  namespace d = trace::detail;
  auto run_threads = [&](std::uint64_t max_base) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, max_base] {
        for (std::uint64_t i = 0; i < kBumps; ++i) {
          d::wire().envelopes.fetch_add(1, std::memory_order_relaxed);
          d::when().tests.fetch_add(2, std::memory_order_relaxed);
          d::section().mcasts.fetch_add(1, std::memory_order_relaxed);
          d::pool().note_task(1);
        }
        const auto v = max_base + static_cast<std::uint64_t>(t);
        d::raise_max(d::when().high_water, v);
        d::raise_max(d::pool().max_chunk, 2 * v);
        d::raise_max(d::pool().queue_high_water, v + 1);
      });
    }
    for (auto& th : threads) th.join();
  };
  for (const std::uint64_t max_base : {100u, 7u}) {
    // The second round reuses the shards the first round's threads left.
    trace::reset_stats();
    run_threads(max_base);
    const std::uint64_t total = kThreads * kBumps;
    const std::uint64_t top = max_base + kThreads - 1;
    EXPECT_EQ(trace::wire_stats().envelopes, total);
    EXPECT_EQ(trace::when_stats().tests, 2 * total);
    EXPECT_EQ(trace::when_stats().high_water, top);
    EXPECT_EQ(trace::section_stats().mcasts, total);
    const trace::PoolStats p = trace::pool_stats();
    EXPECT_EQ(p.tasks_done, total);
    EXPECT_EQ(p.task_ns_sum, total);
    EXPECT_EQ(p.lat_hist[0], total);
    EXPECT_EQ(p.max_chunk, 2 * top);
    EXPECT_EQ(p.queue_high_water, top + 1);
  }
  // This thread's own bumps count too, and reset_stats() zeroes every
  // shard, live or left behind.
  d::wire().envelopes.fetch_add(5, std::memory_order_relaxed);
  EXPECT_EQ(trace::wire_stats().envelopes, kThreads * kBumps + 5);
  trace::reset_stats();
  EXPECT_EQ(trace::wire_stats().envelopes, 0u);
  EXPECT_EQ(trace::when_stats().tests, 0u);
  EXPECT_EQ(trace::when_stats().high_water, 0u);
  EXPECT_EQ(trace::section_stats().mcasts, 0u);
  EXPECT_EQ(trace::pool_stats().tasks_done, 0u);
  EXPECT_EQ(trace::pool_stats().lat_hist[0], 0u);
  EXPECT_EQ(trace::pool_stats().max_chunk, 0u);
}

}  // namespace
