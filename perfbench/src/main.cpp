// perfbench_driver — measures one workload or one layer calibration and
// prints its raw samples as one JSON object on stdout (root rank only).
//
//   perfbench_driver <mode> [--seed N] [--seconds S] [--trace 0|1]
//                           [--spans PATH] [--for WORKLOAD]
//
// Modes: stencil-fine, leanmd-cpy, pool-map (threaded, in-process),
// pingpong-socket (run it under `cxrun -np 2`), calib-machine (a raw
// cxm::Machine ping-pong; socket backend under cxrun), calib-layers (the
// runtime-free layer calibrations for the workload named by --for).
// run.py drives these and computes the reported metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "machine/machine.hpp"

namespace {

perfbench::Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  perfbench::Args a;
  a.mode = argv[1];
  a.workload = a.mode;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("no value for " + k);
    const std::string v = argv[++i];
    if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v) != 0;
    } else if (k == "--spans") {
      a.spans_out = v;
    } else if (k == "--for") {
      a.workload = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

perfbench::Report run(const perfbench::Args& a) {
  const std::string& mode = a.mode;
  if (mode == "stencil-fine") return perfbench::run_stencil(a);
  if (mode == "pingpong-socket") return perfbench::run_pingpong(a);
  if (mode == "leanmd-cpy") return perfbench::run_leanmd(a);
  if (mode == "pool-map") return perfbench::run_pool(a);
  perfbench::Report r;
  if (mode == "calib-machine") {
    perfbench::spans().enable(true);
    perfbench::Spans::Scope s(perfbench::spans(), "machine.pingpong", 0);
    r.series["cal.machine_rtt_us"] = perfbench::machine_pingpong_us(10000);
    return r;
  }
  if (mode == "calib-layers") {
    perfbench::calibrate_layers(a.workload, r);
    return r;
  }
  throw std::invalid_argument("unknown mode " + mode);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = parse(argc, argv);
    const perfbench::Report r = run(a);
    const int rank = cxm::launched_rank();
    if (rank != 0) {
      // Other ranks of a traced socket job leave their counters beside
      // the root's spans; run.py adds them to the root's.
      if (!a.spans_out.empty()) {
        const std::string path =
            a.spans_out + ".rank" + std::to_string(rank) + ".json";
        if (std::FILE* f = std::fopen(path.c_str(), "w")) {
          std::fprintf(f, "%s\n", r.to_json().c_str());
          std::fclose(f);
        }
      }
      return 0;
    }
    if (!a.spans_out.empty() &&
        !perfbench::spans().write(a.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.spans_out.c_str());
      return 1;
    }
    std::printf("%s\n", r.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
