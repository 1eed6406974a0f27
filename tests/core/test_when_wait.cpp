// `when` delivery predicates (paper §II-E) and threaded wait() (§II-H2).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "test_helpers.hpp"

namespace {

using namespace cx;
using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

// ---------------------------------------------------------------------------
// DirtyClock: a write marked through a cached tick slot must leave the
// clock exactly as marking the key does, for every later query.

TEST(DirtyClock, MarkingASlotMatchesMarkByKey) {
  const AttrKey x = attr_key("x"), y = attr_key("y"), z = attr_key("z");
  WhenDeps on_x, on_y, on_z;
  on_x.known = on_y.known = on_z.known = true;
  on_x.add(x);
  on_y.add(y);
  on_z.add(z);

  DirtyClock by_key, by_slot;
  std::uint64_t* sx = by_slot.slot_for(x);  // created unmarked
  std::uint64_t* sy = by_slot.slot_for(y);
  EXPECT_EQ(by_slot.now(), 0u);
  EXPECT_EQ(by_slot.slot_for(x), sx);  // one slot per key
  const AttrKey writes[] = {x, y, x, x, y};
  for (const AttrKey k : writes) {
    by_key.mark(k);
    by_slot.mark_slot(k == x ? sx : sy);
    EXPECT_EQ(by_slot.now(), by_key.now());
    EXPECT_EQ(*by_slot.slot_for(k), *by_key.slot_for(k));
  }
  for (std::uint64_t since = 0; since <= by_key.now(); ++since) {
    for (const WhenDeps* d : {&on_x, &on_y, &on_z}) {
      EXPECT_EQ(by_slot.any_since(*d, since), by_key.any_since(*d, since))
          << "since " << since;
    }
  }
  EXPECT_TRUE(by_slot.any_since(on_x, 3));   // x last marked at 4
  EXPECT_FALSE(by_slot.any_since(on_y, 5));  // y last marked at 5
  EXPECT_FALSE(by_slot.any_since(on_z, 0));  // never marked
}

// ---------------------------------------------------------------------------
// A chare that only accepts messages matching its current iteration: the
// paper's canonical use case for @when('self.iter == iter').

struct IterChare : Chare {
  int iter = 0;
  std::vector<int> accepted;

  void recv(int msg_iter, int payload) {
    accepted.push_back(payload);
    // Each iteration expects exactly one message, then advances.
    (void)msg_iter;
    ++iter;
  }
  std::vector<int> log() { return accepted; }
};

struct WhenRegistrar {
  WhenRegistrar() {
    set_when<&IterChare::recv>(
        [](IterChare& self, const int& msg_iter, const int&) {
          return self.iter == msg_iter;
        });
  }
};
const WhenRegistrar when_registrar;

TEST(When, OutOfOrderMessagesAreBufferedAndDeliveredInOrder) {
  run_program(threaded_cfg(2), [] {
    auto c = create_chare<IterChare>(1);
    // Send iterations reversed: 4, 3, 2, 1, 0. Payload = 10*iter.
    for (int it = 4; it >= 0; --it) {
      c.send<&IterChare::recv>(it, it * 10);
    }
    // All must be delivered in iteration order 0..4.
    std::vector<int> log;
    while ((log = c.call<&IterChare::log>().get()).size() < 5) {
    }
    EXPECT_EQ(log, (std::vector<int>{0, 10, 20, 30, 40}));
    cx::exit();
  });
}

TEST(When, ConditionOnArgumentCombination) {
  struct SumGate : Chare {
    int x = 7;
    int hits = 0;
    void fire(int a, int b) {
      (void)a;
      (void)b;
      ++hits;
    }
    int get_hits() { return hits; }
    void set_x(int v) { x = v; }
  };
  static const bool reg = [] {
    set_when<&SumGate::fire>([](SumGate& self, const int& a, const int& b) {
      return a + b == self.x;  // paper: @when('x + z == self.x')
    });
    return true;
  }();
  (void)reg;
  run_program(threaded_cfg(1), [] {
    auto g = create_chare<SumGate>(0);
    g.send<&SumGate::fire>(3, 4);  // 3+4 == 7: delivered
    g.send<&SumGate::fire>(1, 1);  // buffered until x becomes 2
    while (g.call<&SumGate::get_hits>().get() < 1) {
    }
    EXPECT_EQ(g.call<&SumGate::get_hits>().get(), 1);
    g.send<&SumGate::set_x>(2);  // state change re-triggers evaluation
    while (g.call<&SumGate::get_hits>().get() < 2) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// FIFO among simultaneously-eligible messages: when the gate opens, the
// buffered messages must drain in arrival order even though they target
// two different entry methods in two different buckets. The declared
// dependency set (set_when_deps) puts both on the engine's fast path.

struct FifoGate : Chare {
  bool open = false;
  std::vector<int> log_;

  void a(int tag) { log_.push_back(tag); }
  void b(int tag) { log_.push_back(tag); }
  void open_gate() {
    open = true;
    mark_when_dirty(attr_key("open"));
  }
  std::vector<int> log() { return log_; }
};

struct FifoGateRegistrar {
  FifoGateRegistrar() {
    set_when<&FifoGate::a>([](FifoGate& s, const int&) { return s.open; });
    set_when<&FifoGate::b>([](FifoGate& s, const int&) { return s.open; });
    set_when_deps<&FifoGate::a>({"open"});
    set_when_deps<&FifoGate::b>({"open"});
  }
};
const FifoGateRegistrar fifo_gate_registrar;

TEST(When, SimultaneouslyEligibleMessagesDrainInArrivalOrder) {
  run_program(threaded_cfg(1), [] {
    auto g = create_chare<FifoGate>(0);
    // Interleave the two entry methods while the gate is closed; the tag
    // records the arrival order across both buckets.
    for (int i = 0; i < 8; ++i) {
      if (i % 2 == 0) {
        g.send<&FifoGate::a>(i);
      } else {
        g.send<&FifoGate::b>(i);
      }
    }
    // Round-trip: everything above is buffered before the gate opens.
    EXPECT_TRUE(g.call<&FifoGate::log>().get().empty());
    g.send<&FifoGate::open_gate>();
    std::vector<int> log;
    while ((log = g.call<&FifoGate::log>().get()).size() < 8) {
    }
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Migration while messages are when-buffered: the buffer is re-routed to
// the new PE with reply futures and broadcast-completion credits intact.

struct GateMover : Chare {
  GateMover() = default;  // migration path
  bool open = false;
  int fired = 0;

  void pup(pup::Er& p) override {
    p | open;
    p | fired;
  }
  int gated(int x) {
    ++fired;
    return x * 2;
  }
  void open_gate() {
    open = true;
    mark_when_dirty(attr_key("open"));
  }
  void go_to(int pe) { migrate(pe); }
  int where() { return my_pe(); }
  int count() { return fired; }
};

struct GateMoverRegistrar {
  GateMoverRegistrar() {
    set_when<&GateMover::gated>(
        [](GateMover& s, const int&) { return s.open; });
    set_when_deps<&GateMover::gated>({"open"});
  }
};
const GateMoverRegistrar gate_mover_registrar;

TEST(When, MigrationReroutesBufferedMessagePreservingReplyFuture) {
  run_program(threaded_cfg(2), [] {
    auto g = create_chare<GateMover>(0);
    auto reply = g.call<&GateMover::gated>(21);  // buffered: gate closed
    EXPECT_EQ(g.call<&GateMover::count>().get(), 0);
    g.send<&GateMover::go_to>(1);
    while (g.call<&GateMover::where>().get() != 1) {
    }
    // Still buffered after landing on the new PE.
    EXPECT_EQ(g.call<&GateMover::count>().get(), 0);
    g.send<&GateMover::open_gate>();
    EXPECT_EQ(reply.get(), 42);  // reply future survived the move
    cx::exit();
  });
}

TEST(When, MigrationPreservesBroadcastDoneCredits) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array<GateMover>({4});
    // Every element buffers the broadcast (all gates closed), so the
    // completion future holds one credit per element.
    auto done = arr.broadcast_done<&GateMover::gated>(1);
    EXPECT_EQ(arr[0].call<&GateMover::count>().get(), 0);
    arr[0].send<&GateMover::go_to>(1);
    while (arr[0].call<&GateMover::where>().get() != 1) {
    }
    for (int i = 0; i < 4; ++i) arr[i].send<&GateMover::open_gate>();
    done.get();  // completes only if the migrated element's credit survived
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(arr[i].call<&GateMover::count>().get(), 1);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Regression: a when condition reading an attribute that a *different*
// entry method mutates must still fire (the dirty filter may only skip
// re-tests whose dependencies did not change).

struct SumGateLike : Chare {
  bool ready = false;
  int fired = 0;

  void fire() { ++fired; }
  void make_ready() {
    ready = true;
    mark_when_dirty(attr_key("ready"));
  }
  int hits() { return fired; }
};

struct SumGateLikeRegistrar {
  SumGateLikeRegistrar() {
    set_when<&SumGateLike::fire>([](SumGateLike& s) { return s.ready; });
    set_when_deps<&SumGateLike::fire>({"ready"});
  }
};
const SumGateLikeRegistrar sum_gate_like_registrar;

TEST(When, ConditionSeesAttributeMutatedByOtherEntryMethod) {
  run_program(threaded_cfg(1), [] {
    auto g = create_chare<SumGateLike>(0);
    g.send<&SumGateLike::fire>();  // buffered until ready
    EXPECT_EQ(g.call<&SumGateLike::hits>().get(), 0);
    g.send<&SumGateLike::make_ready>();
    while (g.call<&SumGateLike::hits>().get() < 1) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// wait(): the stencil-style "wait for all neighbor data" pattern.

struct Waiter : Chare {
  int msg_count = 0;
  int rounds_done = 0;

  void work(int neighbors, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      wait([this, neighbors] { return msg_count >= neighbors; });
      msg_count -= neighbors;
      ++rounds_done;
    }
  }
  void feed() { ++msg_count; }
  int done() { return rounds_done; }
};

struct WaiterRegistrar {
  WaiterRegistrar() { set_threaded<&Waiter::work>(); }
};
const WaiterRegistrar waiter_registrar;

TEST(Wait, SuspendsUntilConditionHolds) {
  run_program(threaded_cfg(2), [] {
    auto w = create_chare<Waiter>(1);
    w.send<&Waiter::work>(3, 2);  // 2 rounds of 3 messages each
    EXPECT_EQ(w.call<&Waiter::done>().get(), 0);
    for (int i = 0; i < 3; ++i) w.send<&Waiter::feed>();
    while (w.call<&Waiter::done>().get() < 1) {
    }
    for (int i = 0; i < 3; ++i) w.send<&Waiter::feed>();
    while (w.call<&Waiter::done>().get() < 2) {
    }
    cx::exit();
  });
}

TEST(Wait, ImmediatelyTrueConditionDoesNotSuspend) {
  run_program(threaded_cfg(1), [] {
    auto w = create_chare<Waiter>(0);
    // 0 neighbors: condition true at once, both rounds complete inline.
    w.send<&Waiter::work>(0, 2);
    while (w.call<&Waiter::done>().get() < 2) {
    }
    cx::exit();
  });
}

TEST(Wait, WorksOnSimBackend) {
  run_program(sim_cfg(2), [] {
    auto w = create_chare<Waiter>(1);
    w.send<&Waiter::work>(2, 1);
    w.send<&Waiter::feed>();
    w.send<&Waiter::feed>();
    while (w.call<&Waiter::done>().get() < 1) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Threaded entry methods: a chare blocking on a future does not block its
// PE (the paper's overlap claim in direct-style code).

struct Blocker : Chare {
  int ping_count = 0;
  int observed_pings_at_wake = -1;

  void block_then_observe(Future<int> wake) {
    const int v = wake.get();  // suspends this fiber only
    (void)v;
    observed_pings_at_wake = ping_count;
  }
  void ping() { ++ping_count; }
  int observed() { return observed_pings_at_wake; }
};

struct BlockerRegistrar {
  BlockerRegistrar() { set_threaded<&Blocker::block_then_observe>(); }
};
const BlockerRegistrar blocker_registrar;

TEST(Threaded, BlockedEntryMethodDoesNotBlockThePe) {
  run_program(threaded_cfg(1), [] {
    // Everything on PE 0: while block_then_observe is suspended, pings
    // must still be delivered on the same PE.
    auto b = create_chare<Blocker>(0);
    auto wake = make_future<int>();
    b.send<&Blocker::block_then_observe>(wake);
    for (int i = 0; i < 5; ++i) b.send<&Blocker::ping>();
    while (b.call<&Blocker::observed>().get() < 0) {
      if (b.call<&Blocker::observed>().get() == -1) {
        // Wake it only after some pings had a chance to land.
        wake.send(1);
      }
    }
    EXPECT_GE(b.call<&Blocker::observed>().get(), 1);
    cx::exit();
  });
}

}  // namespace
