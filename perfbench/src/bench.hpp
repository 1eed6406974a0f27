#pragma once
// Shared pieces of the perfbench driver: the per-run report, benchmark
// spans, and small helpers. The driver measures one workload (or one
// layer calibration) and prints a single JSON object on stdout; run.py
// turns the raw samples into the reported metrics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace perfbench {

using cxu::wall_time;

/// Command line of one driver invocation.
struct Args {
  std::string mode;        ///< workload name or calibration name
  std::string workload;    ///< the workload a calibration mode is for
  std::uint64_t seed = 1;  ///< input seed (pool tasks, ping-pong payloads)
  double seconds = 1.0;    ///< measuring budget of this invocation
  bool trace = false;      ///< traced run: spans, cx::trace, calibrations
  std::string spans_out;   ///< where the span records go (traced runs)
};

/// Wall-clock seconds since the Unix epoch: comparable across the
/// processes of one socket job.
double epoch_time() noexcept;

/// Peak resident set size of this process, in MB.
double peak_rss_mb() noexcept;

/// Benchmark spans (name, start, end, parent), recorded from the
/// benchmark's own code around setup, each sample, and each layer call.
/// Spans of one sample share a group id. Records stay in memory and are
/// written by write() at exit. A disabled recorder records nothing, so
/// untraced runs pay one branch per span.
class Spans {
 public:
  /// Closes its span on destruction; nests under the span open at
  /// construction time.
  class Scope {
   public:
    Scope(Spans& s, const char* name, std::uint64_t group);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  void enable(bool on) noexcept { on_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return on_; }

  /// Write all records as JSON to `path`; false if it cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    int parent;
    std::uint64_t group;
    double t0;
    double t1;
  };
  bool on_ = false;
  int open_ = -1;
  std::vector<Rec> recs_;
};

/// The process-wide span recorder.
Spans& spans();

/// Result of one driver invocation, serialised by to_json().
struct Report {
  std::vector<double> samples_ms;  ///< one wall time per sample (per step)
  std::vector<double> setup_s;     ///< one entry per set-up performed
  std::uint64_t attempted = 0;     ///< samples attempted
  std::uint64_t failed = 0;        ///< failed output checks + timeouts
  double items = 0.0;              ///< work items completed while measured
  double item_seconds = 0.0;       ///< measured seconds those items took
  std::map<std::string, double> values;  ///< named scalars (layers, parts)
  std::map<std::string, std::vector<double>> series;  ///< named samples

  [[nodiscard]] std::string to_json() const;
};

// ---- entry points (workloads.cpp / calib.cpp) ----------------------------

Report run_stencil(const Args& a);
Report run_pingpong(const Args& a);
Report run_leanmd(const Args& a);
Report run_pool(const Args& a);

/// Layer calibrations for `workload`, recorded as cal.* series of
/// per-unit costs (one entry per repetition).
void calibrate_layers(const std::string& workload, Report& r);

/// Typed runtime round trips, call().get() of a 64 B payload from PE 0 to
/// an echo chare on the last PE; microseconds per round trip.
std::vector<double> runtime_pingpong_us(int round_trips);

/// Raw cxm::Machine two-PE handler ping-pong on whatever backend
/// make_machine picks (threaded, or socket under cxrun). Returns the
/// round-trip samples in microseconds; empty on the non-root rank.
std::vector<double> machine_pingpong_us(int round_trips);

}  // namespace perfbench
