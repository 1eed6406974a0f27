// Core runtime: chare creation, remote invocation, futures, broadcasts.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "test_helpers.hpp"

namespace {

using namespace cx;
using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

// ---------------------------------------------------------------------------

struct Echo : Chare {
  int add(int a, int b) { return a + b; }
  std::string shout(std::string s) { return s + "!"; }
  void fire_and_forget(int) {}
};

TEST(RuntimeBasic, SingletonCallReturnsValueViaFuture) {
  run_program(threaded_cfg(4), [] {
    auto echo = create_chare<Echo>(-1);
    auto f = echo.call<&Echo::add>(2, 3);
    EXPECT_EQ(f.get(), 5);
    auto g = echo.call<&Echo::shout>(std::string("hey"));
    EXPECT_EQ(g.get(), "hey!");
    cx::exit();
  });
}

TEST(RuntimeBasic, SingletonOnSpecificPe) {
  run_program(threaded_cfg(3), [] {
    for (int pe = 0; pe < 3; ++pe) {
      auto echo = create_chare<Echo>(pe);
      EXPECT_EQ(echo.call<&Echo::add>(pe, 10).get(), pe + 10);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------

struct PeReporter : Chare {
  int my_pe_now() { return cx::my_pe(); }
  Index my_index() { return this_index(); }
};

TEST(RuntimeBasic, GroupHasOneMemberPerPe) {
  run_program(threaded_cfg(4), [] {
    auto grp = create_group<PeReporter>();
    for (int pe = 0; pe < cx::num_pes(); ++pe) {
      EXPECT_EQ(grp[pe].call<&PeReporter::my_pe_now>().get(), pe);
      const Index idx = grp[pe].call<&PeReporter::my_index>().get();
      EXPECT_EQ(idx[0], pe);
    }
    cx::exit();
  });
}

TEST(RuntimeBasic, Array2DIndexing) {
  run_program(threaded_cfg(4), [] {
    auto arr = create_array<PeReporter>({3, 3});
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        const Index idx =
            arr[{i, j}].call<&PeReporter::my_index>().get();
        EXPECT_EQ(idx.ndims(), 2);
        EXPECT_EQ(idx[0], i);
        EXPECT_EQ(idx[1], j);
      }
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------

struct CtorChare : Chare {
  int base;
  std::string tag;
  Index ctor_index;
  CtorChare() : base(0) {}
  CtorChare(int b, std::string t)
      : base(b), tag(std::move(t)), ctor_index(this_index()) {}
  int probe(int x) { return base + x; }
  std::string get_tag() { return tag; }
  Index index_seen_in_ctor() { return ctor_index; }
};

TEST(RuntimeBasic, ConstructorArgumentsReachEveryElement) {
  run_program(threaded_cfg(4), [] {
    auto arr = create_array<CtorChare>({5}, 100, std::string("blue"));
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(arr[i].call<&CtorChare::probe>(i).get(), 100 + i);
      EXPECT_EQ(arr[i].call<&CtorChare::get_tag>().get(), "blue");
    }
    cx::exit();
  });
}

TEST(RuntimeBasic, ThisIndexAvailableInConstructor) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array<CtorChare>({4}, 1, std::string("x"));
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(arr[i].call<&CtorChare::index_seen_in_ctor>().get()[0], i);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// The paper's same-process by-reference optimization (§II-D): arguments to
// a same-PE chare are passed by reference (zero copy, no serialization).

struct BufferSink : Chare {
  const double* seen_data = nullptr;
  void take(std::vector<double> v) { seen_data = v.data(); }
  std::uintptr_t seen() { return reinterpret_cast<std::uintptr_t>(seen_data); }
};

TEST(RuntimeBasic, SamePeSendPassesArgumentsByReference) {
  run_program(threaded_cfg(1), [] {
    auto sink = create_chare<BufferSink>(0);
    // Ensure creation completed before probing the fast path.
    (void)sink.call<&BufferSink::seen>().get();
    std::vector<double> payload(1024, 1.5);
    const auto original = reinterpret_cast<std::uintptr_t>(payload.data());
    sink.send<&BufferSink::take>(std::move(payload));
    EXPECT_EQ(sink.call<&BufferSink::seen>().get(), original);
    cx::exit();
  });
}

TEST(RuntimeBasic, CrossPeSendSerializes) {
  run_program(threaded_cfg(2), [] {
    auto sink = create_chare<BufferSink>(1);  // remote from PE 0
    (void)sink.call<&BufferSink::seen>().get();
    std::vector<double> payload(1024, 2.5);
    const auto original = reinterpret_cast<std::uintptr_t>(payload.data());
    sink.send<&BufferSink::take>(payload);
    const auto seen = sink.call<&BufferSink::seen>().get();
    EXPECT_NE(seen, 0u);
    EXPECT_NE(seen, original);
    cx::exit();
  });
}

// ---------------------------------------------------------------------------

struct Pinger : Chare {
  int pongs = 0;
  void pong() { ++pongs; }
  int count() { return pongs; }
};

struct Ponger : Chare {
  void ping(ElementProxy<Pinger> back) { back.send<&Pinger::pong>(); }
};

TEST(RuntimeBasic, ProxiesArePassableAsArguments) {
  run_program(threaded_cfg(2), [] {
    auto pinger = create_chare<Pinger>(0);
    auto ponger = create_chare<Ponger>(1);
    for (int i = 0; i < 5; ++i) ponger.send<&Ponger::ping>(pinger);
    // Poll until all pongs arrive (delivery is asynchronous).
    while (pinger.call<&Pinger::count>().get() < 5) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------

struct BumpChare : Chare {
  int hits = 0;
  void bump() { ++hits; }
  int get_hits() { return hits; }
};

TEST(RuntimeBasic, BroadcastReachesEveryElement) {
  run_program(threaded_cfg(4), [] {
    auto arr = create_array<BumpChare>({10});
    auto done = arr.broadcast_done<&BumpChare::bump>();
    done.get();
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(arr[i].call<&BumpChare::get_hits>().get(), 1);
    }
    cx::exit();
  });
}

TEST(RuntimeBasic, BroadcastDoneWaitsForAllElements) {
  run_program(threaded_cfg(3), [] {
    auto grp = create_group<BumpChare>();
    grp.broadcast_done<&BumpChare::bump>().get();
    grp.broadcast_done<&BumpChare::bump>().get();
    for (int pe = 0; pe < cx::num_pes(); ++pe) {
      EXPECT_EQ(grp[pe].call<&BumpChare::get_hits>().get(), 2);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------

struct FutureFiller : Chare {
  void fill(Future<int> f, int v) { f.send(v); }
};

TEST(RuntimeBasic, ExplicitFuturesCanBeSentToChares) {
  run_program(threaded_cfg(2), [] {
    auto filler = create_chare<FutureFiller>(1);
    auto f1 = make_future<int>();
    auto f2 = make_future<int>();
    filler.send<&FutureFiller::fill>(f1, 42);
    filler.send<&FutureFiller::fill>(f2, 7);
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), 7);
    cx::exit();
  });
}

TEST(RuntimeBasic, FutureReadyIsNonBlocking) {
  run_program(threaded_cfg(1), [] {
    auto f = make_future<int>();
    EXPECT_FALSE(f.ready());
    f.send(9);
    // send on creator PE fulfills directly.
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.get(), 9);
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Same programs on the simulated backend.

TEST(RuntimeBasicSim, CallAndBroadcastOnSimBackend) {
  run_program(sim_cfg(8), [] {
    auto arr = create_array<BumpChare>({16});
    arr.broadcast_done<&BumpChare::bump>().get();
    int total = 0;
    for (int i = 0; i < 16; ++i) {
      total += arr[i].call<&BumpChare::get_hits>().get();
    }
    EXPECT_EQ(total, 16);
    cx::exit();
  });
}

TEST(RuntimeBasicSim, VirtualTimeAdvances) {
  cx::RuntimeConfig cfg = sim_cfg(2);
  cx::Runtime rt(cfg);
  rt.run([] {
    cx::compute(0.25);
    cx::exit();
  });
  EXPECT_GE(rt.sim_makespan(), 0.25);
}

TEST(RuntimeBasic, MessagesSentCounterGrows) {
  cx::RuntimeConfig cfg = threaded_cfg(2);
  cx::Runtime rt(cfg);
  rt.run([] {
    auto echo = create_chare<Echo>(1);
    for (int i = 0; i < 10; ++i) echo.send<&Echo::fire_and_forget>(i);
    (void)echo.call<&Echo::add>(1, 1).get();
    cx::exit();
  });
  EXPECT_GT(rt.messages_sent(), 10u);
}

// ---------------------------------------------------------------------------

/// Arguments for an entry-method id no chare has: an empty tuple.
detail::ArgsCarrier no_args() {
  detail::ArgsCarrier a;
  a.tuple = std::make_shared<std::tuple<>>();
  a.pup = +[](void*, pup::Er&) {};
  return a;
}

TEST(RuntimeBasic, UnknownEntryIdInMessageIsDropped) {
  // An entry-method id read off a message indexes the registry; an id
  // nothing registered must drop that message (logged), not the process.
  run_program(threaded_cfg(2), [] {
    constexpr EpId kBogus = 0xFFFFFF00u;
    auto echo = create_chare<Echo>(1);  // remote, so the send is packed
    detail::proxy_send(echo.collection(), echo.index(), kBogus, no_args(),
                       {});
    EXPECT_EQ(echo.call<&Echo::add>(2, 3).get(), 5);
    auto arr = create_array<BumpChare>({4});
    detail::proxy_broadcast(arr.id(), kBogus, no_args(), {});
    arr.broadcast_done<&BumpChare::bump>().get();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(arr[i].call<&BumpChare::get_hits>().get(), 1);
    }
    cx::exit();
  });
}

struct Contributor : Chare {
  void add(CombineId combiner, Future<int> f) {
    contribute(this_index()[0] + 1, combiner, cb(f));
  }
  void sect_add(SectionProxy<Contributor> s, CombineId combiner,
                Future<int> f) {
    contribute(s, this_index()[0] + 1, combiner, cb(f));
  }
};

TEST(RuntimeBasic, UnknownCombinerIdInContributionIsDropped) {
  // A combiner id read off a contribution message indexes the combiner
  // registry; an id nothing registered must drop that contribution
  // (logged) before it touches reduction state, not end the PE thread.
  // Each element's second contribution is a new reduction, which must
  // still complete.
  run_program(threaded_cfg(2), [] {
    constexpr CombineId kBogus = 0xFFFFFF00u;
    auto arr = create_array<Contributor>({4});
    auto lost = make_future<int>();
    arr.broadcast_done<&Contributor::add>(kBogus, lost).get();
    auto sum = make_future<int>();
    arr.broadcast<&Contributor::add>(reducer::sum<int>(), sum);
    EXPECT_EQ(sum.get(), 1 + 2 + 3 + 4);

    auto s = arr.section({0, 1, 3});
    auto slost = make_future<int>();
    s.broadcast_done<&Contributor::sect_add>(s, kBogus, slost).get();
    auto ssum = make_future<int>();
    s.broadcast<&Contributor::sect_add>(s, reducer::sum<int>(), ssum);
    EXPECT_EQ(ssum.get(), 1 + 2 + 4);
    cx::exit();
  });
}

}  // namespace
