// Layer calibrations for the traced run. Each one times a public call of
// one layer on the workload's own payload sizes, several repetitions, and
// records one per-unit cost per repetition as a cal.* series (run.py
// reports the median). Every repetition is a span named after the layer.

#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "apps/leanmd/leanmd_cpy.hpp"
#include "apps/leanmd/leanmd_cx.hpp"
#include "apps/stencil/stencil_common.hpp"
#include "bench.hpp"
#include "core/charm.hpp"
#include "machine/machine.hpp"
#include "model/cpy.hpp"
#include "net/frame.hpp"
#include "pup/pup.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 7;

/// Time `body` (which performs `units` units of work) kReps times and
/// record seconds-per-unit x `scale` into series `name`.
template <typename F>
void time_reps(Report& r, const char* span, const char* name, double units,
               double scale, F&& body) {
  for (int i = 0; i < kReps; ++i) {
    Spans::Scope s(spans(), span, 0);
    const double t = wall_time();
    body();
    r.series[name].push_back((wall_time() - t) / units * scale);
  }
}

template <typename T>
void pup_round_trips(Report& r, T payload, int n) {
  const double kb = static_cast<double>(pup::to_bytes(payload).size()) / 1024;
  time_reps(r, "pup.round_trip", "cal.pup_ns_per_kb", n * kb, 1e9, [&] {
    for (int i = 0; i < n; ++i) {
      payload = pup::from_bytes<T>(pup::to_bytes(payload));
    }
  });
}

struct Sink : cx::Chare {
  std::int64_t count = 0;
  void hit(std::int64_t a, double) { count += a; }
  std::int64_t get() { return count; }
};

void register_dynamic_sink() {
  static const bool once = [] {
    cpy::DClass cls("perfbench.Sink");
    cls.def("__init__", {}, [](cpy::DChare& self, cpy::Args&) {
      self["count"] = cpy::Value(0);
      return cpy::Value::none();
    });
    cls.def("hit", {"a", "b"}, [](cpy::DChare& self, cpy::Args& a) {
      self["count"] = cpy::Value(self["count"].as_int() + a[0].as_int());
      return cpy::Value::none();
    });
    cls.def("get", {}, [](cpy::DChare& self, cpy::Args&) {
      return self["count"];
    });
    return true;
  }();
  (void)once;
}

/// Per-message cost (µs) of same-PE sends, typed and dynamic, on one
/// two-PE runtime: the model layer's dispatch overhead is the difference.
void dispatch_costs(Report& r) {
  register_dynamic_sink();
  constexpr int kMsgs = 20000;
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 2;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto typed = cx::create_chare<Sink>(0);
    auto dyn = cpy::create_chare("perfbench.Sink", 0);
    (void)typed.call<&Sink::get>().get();
    (void)dyn.call("get").get();
    time_reps(r, "core.send", "cal.dispatch_typed_us", kMsgs, 1e6, [&] {
      for (int i = 0; i < kMsgs; ++i) typed.send<&Sink::hit>(1, 0.5);
      (void)typed.call<&Sink::get>().get();
    });
    time_reps(r, "model.send", "cal.dispatch_dyn_us", kMsgs, 1e6, [&] {
      for (int i = 0; i < kMsgs; ++i) {
        dyn.send("hit", {cpy::Value(1), cpy::Value(0.5)});
      }
      (void)dyn.call("get").get();
    });
    cx::exit();
  });
}

void frame_costs(Report& r) {
  auto make = [](std::size_t n) {
    cxm::Message m;
    m.handler = 3;
    m.src_pe = 0;
    m.dst_pe = 1;
    m.data = std::vector<std::byte>(n, std::byte{0x5a});
    return m;
  };
  const cxm::Message small = make(64);
  const cxm::Message big = make(1u << 20);
  const double mb = (1u << 20) / 1e6;
  cxnet::FrameReader reader;
  auto decode = [&reader](const std::vector<std::byte>& bytes) {
    reader.feed(bytes.data(), bytes.size());
    cxnet::Frame f;
    if (reader.next(f) != cxnet::FrameReader::Status::Frame) {
      throw std::runtime_error("perfbench: frame did not decode");
    }
    return cxnet::frame_to_message(f);
  };
  constexpr int kSmall = 20000;
  time_reps(r, "net.frame", "cal.frame_64b_ns", kSmall, 1e9, [&] {
    for (int i = 0; i < kSmall; ++i) (void)decode(cxnet::encode_frame(small));
  });
  constexpr int kBig = 20;
  std::vector<std::vector<std::byte>> frames(kBig);
  time_reps(r, "net.encode", "cal.encode_us_per_mb", kBig * mb, 1e6, [&] {
    for (auto& f : frames) f = cxnet::encode_frame(big);
  });
  time_reps(r, "net.decode", "cal.decode_us_per_mb", kBig * mb, 1e6, [&] {
    for (const auto& f : frames) (void)decode(f);
  });
}

void model_costs(Report& r) {
  // The condition strings LeanMD's dynamic classes guard delivery with.
  const std::vector<std::string> conds = {
      "self.step == step and not self.migrating",
      "self.step == step and self.migrating", "self.step == step"};
  const cpy::Value self = cpy::Value::dict(
      {{"step", cpy::Value(7)}, {"migrating", cpy::Value(false)}});
  const std::vector<std::string> params = {"step", "forces"};
  const cpy::Args args = {cpy::Value(7), cpy::Value::zeros(96)};
  const cpy::EvalCtx ctx{&self, &params, &args, nullptr};
  constexpr int kEvals = 30000;
  int hits = 0;
  time_reps(r, "model.expr", "cal.expr_eval_ns", kEvals, 1e9, [&] {
    for (int i = 0; i < kEvals; ++i) {
      hits += cpy::Expr::compile_cached(conds[i % conds.size()]).test(ctx);
    }
  });
  if (hits == 0) throw std::runtime_error("perfbench: conditions never held");

  // Value array pack: one cell's positions (32 atoms x 3 doubles).
  cpy::Value arr = cpy::Value::array(std::vector<double>(96, 1.25));
  constexpr int kPacks = 20000;
  const double kb = static_cast<double>(pup::to_bytes(arr).size()) / 1024;
  time_reps(r, "model.value_pack", "cal.value_pack_ns_per_kb", kPacks * kb,
            1e9, [&] {
              for (int i = 0; i < kPacks; ++i) {
                arr = pup::from_bytes<cpy::Value>(pup::to_bytes(arr));
              }
            });
}

void kernel_costs(Report& r) {
  // stencil: one 8^3 block, the stencil-fine block size.
  const stencil::Geometry g{1, 1, 1, 8, 8, 8};
  std::vector<double> init;
  stencil::kern::init_field(g, 0, 0, 0, init);
  std::vector<double> cur = init, next(init.size(), 0.0);
  constexpr int kSweeps = 2000;
  time_reps(r, "apps.stencil", "cal.stencil_ns_per_cell",
            kSweeps * static_cast<double>(g.cells_per_block()), 1e9, [&] {
              for (int i = 0; i < kSweeps; ++i) {
                // Restart from the initial field before the values decay
                // far enough to reach subnormal (slow) arithmetic.
                if (i % 100 == 0) cur = init;
                stencil::kern::compute(8, 8, 8, cur, next);
                cur.swap(next);
              }
            });
  // LeanMD: two neighbouring 32-atom cells, the leanmd-cpy cell size.
  leanmd::PhysParams p;
  p.cx = p.cy = p.cz = 4;
  p.ppc = 32;
  const leanmd::Atoms a = leanmd::init_cell(p, 0, 0, 0);
  const leanmd::Atoms b = leanmd::init_cell(p, 1, 0, 0);
  const double shift[3] = {0.0, 0.0, 0.0};
  std::vector<double> fa, fb;
  constexpr int kPairs = 400;
  double energy = 0.0;
  time_reps(r, "apps.lj", "cal.lj_ns_per_pair",
            kPairs * static_cast<double>(a.count() * b.count()), 1e9, [&] {
              for (int i = 0; i < kPairs; ++i) {
                energy += leanmd::lj_pair_forces(p, a.pos, b.pos, shift, fa,
                                                 fb);
              }
            });
  r.values["cal.lj_energy"] = energy;
}

/// The paper's CharmPy-vs-Charm++ gap: paired run_cpy / run_cx episodes
/// of the leanmd-cpy configuration.
void leanmd_pairs(Report& r) {
  leanmd::PhysParams p;
  p.cx = p.cy = p.cz = 4;
  p.ppc = 32;
  p.steps = 6;
  cxm::MachineConfig m;
  m.num_pes = 4;
  for (int i = 0; i < 3; ++i) {
    Spans::Scope s(spans(), "model.leanmd_pair", 0);
    r.series["cal.leanmd_cpy_ms"].push_back(
        leanmd::run_cpy(p, m).time_per_step * 1e3);
    r.series["cal.leanmd_cx_ms"].push_back(
        leanmd::run_cx(p, m).time_per_step * 1e3);
  }
}

}  // namespace

std::vector<double> machine_pingpong_us(int round_trips) {
  constexpr int kWarmup = 200;
  cxm::MachineConfig cfg;
  cfg.num_pes = 2;  // under cxrun the launcher sets the job shape
  std::unique_ptr<cxm::Machine> m = cxm::make_machine(cfg);
  cxm::Machine* mp = m.get();
  std::vector<double> rtt;
  rtt.reserve(static_cast<std::size_t>(round_trips));
  int left = round_trips + kWarmup;
  double sent_at = 0.0;
  std::uint32_t h_ping = 0, h_pong = 0;
  auto bounce = [mp, &sent_at](cxm::MessagePtr msg, int dst,
                               std::uint32_t h) {
    if (dst == 1) sent_at = mp->now();
    msg->src_pe = msg->dst_pe;
    msg->dst_pe = dst;
    msg->handler = h;
    mp->send(std::move(msg));
  };
  const std::uint32_t h_start = m->register_handler(
      [&](cxm::MessagePtr msg) { bounce(std::move(msg), 1, h_ping); });
  h_ping = m->register_handler(
      [&](cxm::MessagePtr msg) { bounce(std::move(msg), 0, h_pong); });
  h_pong = m->register_handler([&](cxm::MessagePtr msg) {
    const double us = (mp->now() - sent_at) * 1e6;
    if (left-- <= round_trips) rtt.push_back(us);
    if (left == 0) {
      mp->stop();
      return;
    }
    bounce(std::move(msg), 1, h_ping);
  });
  if (m->hosts_pe(0)) {
    auto msg = std::make_unique<cxm::Message>();
    msg->handler = h_start;
    msg->dst_pe = 0;
    msg->data = std::vector<std::byte>(64, std::byte{0x2c});
    m->send(std::move(msg));
  }
  m->run();
  return rtt;
}

void calibrate_layers(const std::string& workload, Report& r) {
  Spans& sp = spans();
  sp.enable(true);
  if (workload != "pingpong-socket") {
    {
      Spans::Scope s(sp, "machine.pingpong", 0);
      r.series["cal.machine_rtt_us"] = machine_pingpong_us(5000);
    }
    Spans::Scope s(sp, "core.pingpong", 0);
    r.series["cal.runtime_rtt_us"] = runtime_pingpong_us(5000);
  }
  dispatch_costs(r);
  frame_costs(r);
  model_costs(r);
  kernel_costs(r);
  leanmd_pairs(r);
  // pup round trips of the workload's own message payloads.
  if (workload == "stencil-fine") {
    pup_round_trips(r, std::make_tuple(1, 2, std::vector<double>(64, 0.5)),
                    20000);
  } else if (workload == "pingpong-socket") {
    pup_round_trips(r, std::vector<std::uint8_t>(1u << 20, 7), 50);
  } else if (workload == "leanmd-cpy") {
    pup_round_trips(r, std::make_tuple(1, 0, std::vector<double>(96, 0.5)),
                    20000);
  } else {
    pup_round_trips(r, std::vector<std::int64_t>(512, 3), 20000);
  }
  sp.enable(false);
}

}  // namespace perfbench
