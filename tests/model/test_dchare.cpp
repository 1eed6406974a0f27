// End-to-end tests of the dynamic model layer: the paper's programming
// model (method-by-name invocation, when-strings, wait-strings, dynamic
// reductions, automatic migration of the attribute dict).

#include <gtest/gtest.h>

#include <string>

#include "model/cpy.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cpy;
using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

// ---------------------------------------------------------------------------
// The paper's §II-B hello program, rendered in the model layer.

struct HelloClass {
  HelloClass() {
    DClass cls("MyChare");
    cls.def("SayHi", {"msg"}, [](DChare& self, Args& a) {
      self["last_msg"] = a[0];
      return Value::none();
    });
    cls.def("GetLast", {}, [](DChare& self, Args&) {
      return self.has_attr("last_msg") ? self["last_msg"] : Value::none();
    });
  }
};
const HelloClass hello_class;

TEST(DChare, PaperHelloWorld) {
  run_program(threaded_cfg(2), [] {
    auto proxy = create_chare("MyChare", -1);
    proxy.send("SayHi", {Value("Hello")});
    while (!proxy.call("GetLast").get().truthy()) {
    }
    EXPECT_EQ(proxy.call("GetLast").get().as_str(), "Hello");
    cx::exit();
  });
}

TEST(DChare, UnknownClassThrowsOnCreate) {
  run_program(threaded_cfg(1), [] {
    EXPECT_THROW((void)create_chare("NoSuchClass", 0), std::runtime_error);
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Constructor args via __init__, thisIndex attribute.

struct CounterClass {
  CounterClass() {
    DClass cls("Counter");
    cls.def("__init__", {"start"}, [](DChare& self, Args& a) {
      self["count"] = a.empty() ? Value(0) : a[0];
      return Value::none();
    });
    cls.def("inc", {"by"}, [](DChare& self, Args& a) {
      self["count"] = self["count"].as_int() + a[0].as_int();
      return Value::none();
    });
    cls.def("get", {}, [](DChare& self, Args&) { return self["count"]; });
    cls.def("my_index", {}, [](DChare& self, Args&) {
      return self["thisIndex"];
    });
    cls.def("add_count", {"target"}, [](DChare& self, Args&) {
      return Value::none();  // redefined below in reduction tests
    });
  }
};
const CounterClass counter_class;

TEST(DChare, InitAndAttributeState) {
  run_program(threaded_cfg(2), [] {
    auto c = create_chare("Counter", 1, {Value(100)});
    c.send("inc", {Value(5)});
    c.send("inc", {Value(7)});
    while (c.call("get").get().as_int() < 112) {
    }
    EXPECT_EQ(c.call("get").get().as_int(), 112);
    cx::exit();
  });
}

TEST(DChare, ThisIndexExposedAsAttribute) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Counter", {4}, {Value(0)});
    for (int i = 0; i < 4; ++i) {
      const Value idx = arr[i].call("my_index").get();
      EXPECT_EQ(idx.kind(), Kind::Tuple);
      EXPECT_EQ(idx.item(Value(0)).as_int(), i);
    }
    cx::exit();
  });
}

TEST(DChare, GroupBroadcastByName) {
  run_program(threaded_cfg(3), [] {
    auto grp = create_group("Counter", {Value(0)});
    grp.broadcast_done("inc", {Value(2)}).get();
    for (int pe = 0; pe < cx::num_pes(); ++pe) {
      EXPECT_EQ(grp[pe].call("get").get().as_int(), 2);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// when-strings: the paper's iteration matching, written as in the paper.

struct StreamClass {
  StreamClass() {
    DClass cls("Stream");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["iter"] = Value(0);
      self["log"] = Value::list({});
      return Value::none();
    });
    cls.def("recv", {"iter", "data"}, [](DChare& self, Args& a) {
      self["log"].as_list().push_back(a[1]);
      self["iter"] = self["iter"].as_int() + 1;
      return Value::none();
    });
    cls.when("recv", "self.iter == iter");
    cls.def("get_log", {}, [](DChare& self, Args&) { return self["log"]; });
  }
};
const StreamClass stream_class;

TEST(DChare, WhenStringBuffersOutOfOrderMessages) {
  run_program(threaded_cfg(2), [] {
    auto s = create_chare("Stream", 1);
    for (int it = 4; it >= 0; --it) {
      s.send("recv", {Value(it), Value(it * 100)});
    }
    Value log;
    while ((log = s.call("get_log").get()).length() < 5) {
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(log.item(Value(i)).as_int(), i * 100);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Regression for the condition engine: a when condition reading an
// attribute that a *different* entry method writes must fire when that
// method runs (the dirty filter tracks every self[...] write).

struct LatchClass {
  LatchClass() {
    DClass cls("Latch");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["ready"] = Value(0);
      self["fired"] = Value(0);
      return Value::none();
    });
    cls.def("fire", {}, [](DChare& self, Args&) {
      self["fired"] = self["fired"].as_int() + 1;
      return Value::none();
    });
    cls.when("fire", "self.ready == 1");
    cls.def("arm", {}, [](DChare& self, Args&) {
      self["ready"] = Value(1);
      return Value::none();
    });
    cls.def("fired", {}, [](DChare& self, Args&) { return self["fired"]; });
  }
};
const LatchClass latch_class;

TEST(DChare, WhenFiresAfterOtherMethodMutatesItsDependency) {
  run_program(threaded_cfg(1), [] {
    auto l = create_chare("Latch", 0);
    l.send("fire", {});
    EXPECT_EQ(l.call("fired").get().as_int(), 0);  // buffered
    l.send("arm", {});
    while (l.call("fired").get().as_int() < 1) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Chained comparisons in when-strings: the paper's windowed-stream shape
// `@when('self.lo <= seq < self.hi')`, previously mis-parsed as
// `(self.lo <= seq) < self.hi`.

struct WindowClass {
  WindowClass() {
    DClass cls("Window");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["lo"] = Value(0);
      self["hi"] = Value(0);
      self["log"] = Value::list({});
      return Value::none();
    });
    cls.def("recv", {"seq"}, [](DChare& self, Args& a) {
      self["log"].as_list().push_back(a[0]);
      return Value::none();
    });
    cls.when("recv", "self.lo <= seq < self.hi");
    cls.def("open", {"lo", "hi"}, [](DChare& self, Args& a) {
      self["lo"] = a[0];
      self["hi"] = a[1];
      return Value::none();
    });
    cls.def("get_log", {}, [](DChare& self, Args&) { return self["log"]; });
    cls.def_threaded("await_window", {}, [](DChare& self, Args&) {
      self.wait_until("0 < self.lo <= self.hi");
      self["woke"] = Value(1);
      return Value::none();
    });
    cls.def("woke", {}, [](DChare& self, Args&) {
      return self.has_attr("woke") ? self["woke"] : Value(0);
    });
  }
};
const WindowClass window_class;

TEST(DChare, ChainedComparisonWhenStringGatesByWindow) {
  run_program(threaded_cfg(1), [] {
    auto w = create_chare("Window", 0);
    for (int s = 0; s < 6; ++s) w.send("recv", {Value(s)});
    // Window [0, 0): everything buffered.
    EXPECT_EQ(w.call("get_log").get().length(), 0u);
    w.send("open", {Value(2), Value(5)});  // admits 2, 3, 4 only
    Value log;
    while ((log = w.call("get_log").get()).length() < 3) {
    }
    EXPECT_EQ(log.length(), 3u);
    for (int i = 0; i < 3; ++i) {
      const std::int64_t seq = log.item(Value(i)).as_int();
      EXPECT_GE(seq, 2);
      EXPECT_LT(seq, 5);
    }
    cx::exit();
  });
}

TEST(DChare, ChainedComparisonWaitString) {
  run_program(threaded_cfg(2), [] {
    auto w = create_chare("Window", 1);
    w.send("await_window", {});
    EXPECT_EQ(w.call("woke").get().as_int(), 0);  // 0 < 0 fails: suspended
    w.send("open", {Value(3), Value(7)});         // 0 < 3 <= 7 holds
    while (w.call("woke").get().as_int() < 1) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Threaded methods + wait-strings: the paper's §II-H2 pattern.

struct IterWorkerClass {
  IterWorkerClass() {
    DClass cls("IterWorker");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["msg_count"] = Value(0);
      self["rounds"] = Value(0);
      return Value::none();
    });
    cls.def_threaded("work", {"neighbors", "iterations"},
                     [](DChare& self, Args& a) {
                       const std::int64_t nb = a[0].as_int();
                       const std::int64_t iters = a[1].as_int();
                       for (std::int64_t r = 0; r < iters; ++r) {
                         self.wait_until("self.msg_count >= " +
                                         std::to_string(nb));
                         self["msg_count"] =
                             Value(self["msg_count"].as_int() - nb);
                         self["rounds"] = self["rounds"].as_int() + 1;
                       }
                       return Value::none();
                     });
    cls.def("recvData", {"data"}, [](DChare& self, Args&) {
      self["msg_count"] = self["msg_count"].as_int() + 1;
      return Value::none();
    });
    cls.def("rounds", {}, [](DChare& self, Args&) {
      return self["rounds"];
    });
  }
};
const IterWorkerClass iter_worker_class;

TEST(DChare, WaitStringSuspendsThreadedMethod) {
  run_program(threaded_cfg(2), [] {
    auto w = create_chare("IterWorker", 1);
    w.send("work", {Value(3), Value(2)});
    EXPECT_EQ(w.call("rounds").get().as_int(), 0);
    for (int i = 0; i < 6; ++i) w.send("recvData", {Value(i)});
    while (w.call("rounds").get().as_int() < 2) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Dynamic reductions (paper §II-F). Reduction targets are not Values, so
// the tests publish the target through a file-level slot the class
// methods read (one in-flight target per test).

DTarget g_test_target;

struct SummerClassReal {
  SummerClassReal() {
    DClass cls("Summer2");
    cls.def("go", {}, [](DChare& self, Args&) {
      const std::int64_t my = self["thisIndex"].item(Value(0)).as_int();
      self.contribute_value(Value(my), "sum", g_test_target);
      return Value::none();
    });
    cls.def("go_max", {}, [](DChare& self, Args&) {
      const std::int64_t my = self["thisIndex"].item(Value(0)).as_int();
      self.contribute_value(Value(my), "max", g_test_target);
      return Value::none();
    });
    cls.def("go_gather", {}, [](DChare& self, Args&) {
      const Value my = self["thisIndex"];
      self.contribute_value(
          Value::list({Value::tuple(
              {my, Value(my.item(Value(0)).as_int() * 10)})}),
          "gather", g_test_target);
      return Value::none();
    });
    cls.def("go_barrier", {}, [](DChare& self, Args&) {
      self.barrier(g_test_target);
      return Value::none();
    });
    cls.def("receive", {"result"}, [](DChare& self, Args& a) {
      self["received"] = a[0];
      return Value::none();
    });
    cls.def("received", {}, [](DChare& self, Args&) {
      return self.has_attr("received") ? self["received"] : Value::none();
    });
  }
};
const SummerClassReal summer_class;

TEST(DChareReduction, SumToFuture) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {6});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go");
    EXPECT_EQ(f.get().as_int(), 15);  // 0+..+5
    cx::exit();
  });
}

TEST(DChareReduction, MaxToFuture) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {5});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go_max");
    EXPECT_EQ(f.get().as_int(), 4);
    cx::exit();
  });
}

TEST(DChareReduction, GatherSortsByIndex) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {4});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go_gather");
    const Value items = f.get();
    ASSERT_EQ(items.length(), 4u);
    for (int i = 0; i < 4; ++i) {
      const Value pair = items.item(Value(i));
      EXPECT_EQ(pair.item(Value(0)).item(Value(0)).as_int(), i);
      EXPECT_EQ(pair.item(Value(1)).as_int(), i * 10);
    }
    cx::exit();
  });
}

TEST(DChareReduction, BarrierIsNone) {
  run_program(threaded_cfg(3), [] {
    auto grp = create_group("Summer2");
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    grp.broadcast("go_barrier");
    EXPECT_TRUE(f.get().is_none());  // paper: broadcast future value None
    cx::exit();
  });
}

TEST(DChareReduction, ResultToEntryMethodOfElement) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {4});
    g_test_target = arr[0].target("receive");
    arr.broadcast("go");
    while (arr[0].call("received").get().is_none()) {
    }
    EXPECT_EQ(arr[0].call("received").get().as_int(), 6);  // 0+1+2+3
    cx::exit();
  });
}

TEST(DChareReduction, ResultBroadcastToAllElements) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {4});
    g_test_target = arr.target("receive");
    arr.broadcast("go");
    for (int i = 0; i < 4; ++i) {
      while (arr[i].call("received").get().is_none()) {
      }
      EXPECT_EQ(arr[i].call("received").get().as_int(), 6);
    }
    cx::exit();
  });
}

TEST(DChareReduction, CustomDynReducer) {
  add_dyn_reducer("strmax", [](Value& a, const Value& b) {
    if (b.as_str() > a.as_str()) a = b;
  });
  DClass cls("Shouter");
  cls.def("go", {}, [](DChare& self, Args&) {
    const std::int64_t my = self["thisIndex"].item(Value(0)).as_int();
    self.contribute_value(Value("w" + std::to_string(my)), "strmax",
                          g_test_target);
    return Value::none();
  });
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Shouter", {3});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go");
    EXPECT_EQ(f.get().as_str(), "w2");
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Migration: attribute dict moves automatically (no pup code).

struct NomadClass {
  NomadClass() {
    DClass cls("Nomad");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["history"] = Value::list({});
      return Value::none();
    });
    cls.def("go_to", {"pe"}, [](DChare& self, Args& a) {
      self["history"].as_list().push_back(
          Value(static_cast<std::int64_t>(cx::my_pe())));
      self.migrate_to(static_cast<int>(a[0].as_int()));
      return Value::none();
    });
    cls.def("where", {}, [](DChare&, Args&) {
      return Value(static_cast<std::int64_t>(cx::my_pe()));
    });
    cls.def("history", {}, [](DChare& self, Args&) {
      return self["history"];
    });
  }
};
const NomadClass nomad_class;

TEST(DChare, MigrationCarriesAttributeDictAutomatically) {
  run_program(threaded_cfg(3), [] {
    auto n = create_chare("Nomad", 0);
    n.send("go_to", {Value(2)});
    while (n.call("where").get().as_int() != 2) {
    }
    n.send("go_to", {Value(1)});
    while (n.call("where").get().as_int() != 1) {
    }
    const Value hist = n.call("history").get();
    ASSERT_EQ(hist.length(), 2u);
    EXPECT_EQ(hist.item(Value(0)).as_int(), 0);
    EXPECT_EQ(hist.item(Value(1)).as_int(), 2);
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Attribute slots: an instance resolves each name once, then reads and
// marks through its slot table. The tests below cover a table far past
// any small fixed size, conditions reading attributes that have no slot
// yet (they arrived by migration), and a corrupt migrated state.

std::string wide_name(std::int64_t i) { return "a" + std::to_string(i); }
constexpr std::int64_t kWide = 80;

struct WideClass {
  WideClass() {
    DClass cls("Wide");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      for (std::int64_t i = 0; i < kWide; ++i) self[wide_name(i)] = Value(i);
      self["gated"] = Value(0);
      return Value::none();
    });
    cls.def("sum", {}, [](DChare& self, Args&) {
      std::int64_t total = 0;
      for (std::int64_t i = 0; i < kWide; ++i) {
        total += self[wide_name(i)].as_int();
      }
      return Value(total);
    });
    cls.def("bump", {"i"}, [](DChare& self, Args& a) {
      Value& v = self[wide_name(a[0].as_int())];
      v = v.as_int() + 1000;
      return Value::none();
    });
    cls.def("gate", {}, [](DChare& self, Args&) {
      self["gated"] = Value(1);
      return Value::none();
    });
    cls.when("gate", "self.a70 > 1000");
    cls.def("gated", {}, [](DChare& self, Args&) { return self["gated"]; });
    cls.def("go_to", {"pe"}, [](DChare& self, Args& a) {
      self.migrate_to(static_cast<int>(a[0].as_int()));
      return Value::none();
    });
    cls.def("where", {}, [](DChare&, Args&) {
      return Value(static_cast<std::int64_t>(cx::my_pe()));
    });
  }
};
const WideClass wide_class;

TEST(DChareSlots, MoreThanSixtyFourAttributes) {
  run_program(threaded_cfg(2), [] {
    constexpr std::int64_t kSum = kWide * (kWide - 1) / 2;
    auto w = create_chare("Wide", 0);
    w.send("gate", {});  // a70 == 70: buffered
    EXPECT_EQ(w.call("sum").get().as_int(), kSum);
    EXPECT_EQ(w.call("gated").get().as_int(), 0);
    w.send("bump", {Value(3)});  // not a dependency of gate
    EXPECT_EQ(w.call("gated").get().as_int(), 0);
    w.send("bump", {Value(70)});
    while (w.call("gated").get().as_int() != 1) {
    }
    EXPECT_EQ(w.call("sum").get().as_int(), kSum + 2000);
    // The table is rebuilt from the migrated dict on the new PE.
    w.send("go_to", {Value(1)});
    while (w.call("where").get().as_int() != 1) {
    }
    EXPECT_EQ(w.call("sum").get().as_int(), kSum + 2000);
    w.send("bump", {Value(79)});
    EXPECT_EQ(w.call("sum").get().as_int(), kSum + 3000);
    cx::exit();
  });
}

struct ArrivalClass {
  ArrivalClass() {
    DClass cls("Arrival");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["open_below"] = Value(3);
      self["log"] = Value::list({});
      return Value::none();
    });
    cls.def("recv", {"k"}, [](DChare& self, Args& a) {
      self["log"].as_list().push_back(a[0]);
      return Value::none();
    });
    cls.when("recv", "k < self.open_below");
    cls.def("reopen", {"below"}, [](DChare& self, Args& a) {
      self["open_below"] = a[0];
      return Value::none();
    });
    cls.def("log", {}, [](DChare& self, Args&) { return self["log"]; });
    cls.def("go_to", {"pe"}, [](DChare& self, Args& a) {
      self.migrate_to(static_cast<int>(a[0].as_int()));
      return Value::none();
    });
    cls.def("where", {}, [](DChare&, Args&) {
      return Value(static_cast<std::int64_t>(cx::my_pe()));
    });
  }
};
const ArrivalClass arrival_class;

TEST(DChareSlots, WhenReadsAttributeThatArrivedByMigration) {
  run_program(threaded_cfg(2), [] {
    auto c = create_chare("Arrival", 0);
    c.send("go_to", {Value(1)});
    while (c.call("where").get().as_int() != 1) {
    }
    // On PE 1 nothing has touched open_below yet: the conditions read it
    // from the migrated dict, not from a slot.
    c.send("recv", {Value(5)});  // 5 < 3 fails: buffered
    c.send("recv", {Value(1)});  // 1 < 3 holds
    Value log;
    while ((log = c.call("log").get()).length() < 1) {
    }
    EXPECT_EQ(log.length(), 1u);
    EXPECT_EQ(log.item(Value(0)).as_int(), 1);
    // The first write binds a slot and marks it: the buffered message
    // must be re-tested and now pass.
    c.send("reopen", {Value(10)});
    while ((log = c.call("log").get()).length() < 2) {
    }
    EXPECT_EQ(log.item(Value(1)).as_int(), 5);
    cx::exit();
  });
}

TEST(DChareSlots, CorruptMigratedStateThrowsTypedErrorAtUnpack) {
  std::string cls = "Arrival";
  Value not_a_dict = Value::list({Value(1)});
  const auto bad = pup::pack_args(cls, not_a_dict);
  DChare bad_chare;
  pup::Unpacker ub(bad.data(), bad.size());
  EXPECT_THROW(bad_chare.pup(ub), CorruptStateError);
  EXPECT_EQ(bad_chare.attrs().kind(), Kind::Dict);  // left usable

  Value dict = Value::dict({{"open_below", Value(3)}});
  const auto good = pup::pack_args(cls, dict);
  DChare good_chare;
  pup::Unpacker ug(good.data(), good.size());
  good_chare.pup(ug);
  EXPECT_EQ(good_chare["open_below"].as_int(), 3);
}

// Classes and methods defined while the runtime runs: the lock-free class
// lookups must still find what a thread did not see earlier.
TEST(DChareSlots, ClassAndMethodDefinedAfterStartAreFoundBySend) {
  run_program(threaded_cfg(2), [] {
    EXPECT_FALSE(class_exists("LateClass"));  // a miss is not remembered
    DClass late("LateClass");
    late.def("set", {"v"}, [](DChare& self, Args& a) {
      self["v"] = a[0];
      return Value::none();
    });
    late.def("get", {}, [](DChare& self, Args&) {
      return self.has_attr("v") ? self["v"] : Value(0);
    });
    EXPECT_TRUE(class_exists("LateClass"));
    auto c = create_chare("LateClass", 1);
    c.send("set", {Value(4)});
    while (c.call("get").get().as_int() != 4) {
    }
    // A threaded method added after the class was found and used: send
    // must route it to the threaded entry, or wait_until would throw.
    late.def_threaded("await_big", {}, [](DChare& self, Args&) {
      self.wait_until("self.v > 10");
      self["woke"] = Value(1);
      return Value::none();
    });
    late.def("woke", {}, [](DChare& self, Args&) {
      return self.has_attr("woke") ? self["woke"] : Value(0);
    });
    c.send("await_big", {});
    EXPECT_EQ(c.call("woke").get().as_int(), 0);
    c.send("set", {Value(11)});
    while (c.call("woke").get().as_int() != 1) {
    }
    cx::exit();
  });
}

TEST(DChare, SimBackendEndToEnd) {
  run_program(sim_cfg(8), [] {
    auto arr = create_array("Summer2", {16});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go");
    EXPECT_EQ(f.get().as_int(), 120);
    cx::exit();
  });
}

}  // namespace
