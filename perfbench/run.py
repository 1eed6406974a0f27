#!/usr/bin/env python3
"""Wall-clock benchmark of the CharmX runtime: one workload per call.

    python3 perfbench/run.py --workload stencil-fine --seed 1 --seconds 10 \
        --trace 0

Builds perfbench_driver (and cxrun) from the repository's sources on first
use, runs the workload for --seconds, checks its outputs, and prints a
human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics from a separate traced run plus
layer calibrations. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
DRIVER = BUILD / "perfbench_driver"
CXRUN = BUILD / "cxrun"

WORKLOADS = ("stencil-fine", "pingpong-socket", "leanmd-cpy", "pool-map")

# Wall-clock budget of one call after the build; a hung driver is killed
# so the call still ends (with an error) within it.
CALL_BUDGET_S = 170
DEADLINE = float("inf")

# Driver processes per call of the in-process workloads. Figures vary
# from process to process of the same code (placement, memory layout), so
# each call measures several and reports medians across them.
PROCESSES = 4

# Launches of the socket job per run: the reported figure is the median
# over launches, so one launch that lands on an unusual thread placement
# cannot move it.
PINGPONG_LAUNCHES = 8

# Metrics of the JSON line with --trace 0. step_ms_p90 and the
# throughputs are printed but not reported: on a shared 4-vCPU host
# they follow the host's scheduling and memory-bandwidth noise (run-to-run
# spreads up to 1.1 and 0.39 on pool-map), beyond any usable bound.
END_TO_END = (
    ("step_ms_p50", "ms"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("machine.rtt_us_p50", "us"),
    ("machine.idle_frac", "frac"),
    ("machine.busy_ms_per_step", "ms"),
    ("net.frame_ns_64b", "ns"),
    ("net.encode_us_per_mb", "us/MB"),
    ("net.decode_us_per_mb", "us/MB"),
    ("pup.pack_ns_per_kb", "ns/KB"),
    ("wire.envelopes_per_step", "count"),
    ("wire.bytes_per_step", "B"),
    ("wire.transport_msgs_per_step", "count"),
    ("wire.pool_hit_rate", "frac"),
    ("core.rtt_overhead_us", "us"),
    ("core.msgs_per_step", "count"),
    ("core.entries_per_step", "count"),
    ("core.when_tests_per_step", "count"),
    ("core.when_buffered_frac", "frac"),
    ("core.when_skip_rate", "frac"),
    ("model.dispatch_overhead_us", "us"),
    ("model.dispatches_per_step", "count"),
    ("model.expr_eval_ns", "ns"),
    ("model.value_pack_ns_per_kb", "ns/KB"),
    ("model.overhead_frac", "frac"),
    ("apps.stencil_ns_per_cell", "ns"),
    ("apps.lj_ns_per_pair", "ns"),
    ("apps.kernel_share", "frac"),
    ("pool.mean_chunk", "count"),
    ("pool.grants_per_job", "count"),
    ("pool.steal_hit_rate", "frac"),
    ("pool.result_batches_per_job", "count"),
    ("pool.task_us_p99", "us"),
    ("fiber.suspends_per_step", "count"),
    ("setup.runtime_s", "s"),
    ("setup.collection_s", "s"),
    ("setup.wireup_s", "s"),
    ("trace.overhead_frac", "frac"),
)

# What one "step" and one throughput item are on each workload.
STEP_OF = {
    "stencil-fine": ("iteration", "cell updates"),
    "pingpong-socket": ("64 B round trip", "MB streamed"),
    "leanmd-cpy": ("MD step", "atom steps"),
    "pool-map": ("map job", "tasks"),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_cmd(argv, timeout, log_path=None):
    """Run argv in its own process group; kill the whole group if it
    outlives `timeout`. Returns stdout; raises BenchError on failure."""
    sink = open(log_path, "w") if log_path else None
    try:
        proc = subprocess.Popen(
            [str(a) for a in argv], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=sink if sink else None, start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out after {timeout:.0f} s: {argv[0]}")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    finally:
        if sink:
            sink.close()
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(argv[0])).name} exited with "
                         f"{proc.returncode}")
    return out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            run_cmd(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], 300,
                    BUILD / "configure.log")
        run_cmd(["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "perfbench_driver", "cxrun"], 840,
                BUILD / "build.log")
    except BenchError as e:
        raise BenchError(f"build failed ({e}); see {BUILD}/*.log")


def driver(mode, args, seconds, trace=False, spans=None, cxrun=False,
           extra=()):
    argv = [DRIVER, mode, "--seed", args.seed, "--seconds", f"{seconds:.3f}",
            "--trace", int(trace)]
    if spans:
        argv += ["--spans", spans]
    argv += list(extra)
    if cxrun:
        argv = [CXRUN, "-np", 2] + argv
    left = DEADLINE - time.monotonic()
    if left < 5:
        raise BenchError(f"{mode}: no time left in the {CALL_BUDGET_S} s "
                         "budget of one call")
    out = run_cmd(argv, timeout=min(max(30.0, 4 * seconds + 20), left))
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError(f"{mode}: driver printed no result")
    return json.loads(lines[-1])


def med(values):
    return statistics.median(values)


def spans_file(args, tag):
    return OUT / f"spans-{args.workload}-{args.seed}-{tag}.json"


# ---------------------------------------------------------------------------
# Runs


class Run:
    """Raw results of one benchmark call, accumulated over driver calls."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = {}
        self.span_files = []

    def count(self, d):
        self.attempted += d["attempted"]
        self.failed += d["failed"]
        return d


def step_metrics(samples):
    return {
        "step_ms_p50": stats.percentile(samples, 50),
        "step_ms_p90": stats.percentile(samples, 90),
    }


def episodes(d):
    """Split a driver result into its measuring episodes: a list of
    (samples, items, item seconds), empty when it has no episodes."""
    ends = d["series"].get("episode.samples", [])
    items = d["series"].get("episode.items", [])
    secs = d["series"].get("episode.item_s", [])
    out, a, i0, t0 = [], 0, 0.0, 0.0
    for e, i, t in zip(ends, items, secs):
        out.append((d["samples_ms"][a:int(e)], i - i0, t - t0))
        a, i0, t0 = int(e), i, t
    return out


def end_to_end(args, run):
    w = args.workload
    if w == "pingpong-socket":
        launches = [run.count(driver(w, args, args.seconds / PINGPONG_LAUNCHES,
                                     cxrun=True))
                    for _ in range(PINGPONG_LAUNCHES)]
        per = [step_metrics(d["samples_ms"]) for d in launches]
        m = {k: med([p[k] for p in per]) for k in per[0]}
        m["throughput_per_s"] = med([x for d in launches
                                     for x in d["series"]["stream_mb_s"]])
        m["setup_s"] = med([d["setup_s"][0] for d in launches])
        run.notes["peak_rss_mb"] = med([d["values"]["peak_rss_mb"]
                                        for d in launches])
        run.notes["setup_s_per_launch"] = [round(d["setup_s"][0], 5)
                                           for d in launches]
        n = [len(d["samples_ms"]) for d in launches]
        run.notes["samples"] = f"{sum(n)} round trips over {len(n)} launches"
        run.notes["tail_supported"] = all(
            stats.tail_supported(d["samples_ms"], 90) for d in launches)
        run.notes["step_ms_p90"] = m["step_ms_p90"]
        run.notes["rtt_us_p50"] = m["step_ms_p50"] * 1e3
        run.notes["rtt_us_p90"] = m["step_ms_p90"] * 1e3
        run.notes["bandwidth_mb_s"] = m["throughput_per_s"]
        run.notes["rtt_us_p50_per_launch"] = [
            round(p["step_ms_p50"] * 1e3, 2) for p in per]
        return m
    ds = [run.count(driver(w, args, args.seconds / PROCESSES))
          for _ in range(PROCESSES)]
    s = [x for d in ds for x in d["samples_ms"]]
    eps = [e for d in ds for e in episodes(d)]
    if eps:  # median over episodes of each episode's own figures
        per = [step_metrics(e_s) for e_s, _, _ in eps]
        m = {k: med([p[k] for p in per]) for k in per[0]}
        m["throughput_per_s"] = med([i / t for _, i, t in eps])
        run.notes["tail_supported"] = all(
            stats.tail_supported(e_s, 90) for e_s, _, _ in eps)
        run.notes["step_ms_p50_per_episode"] = [
            round(p["step_ms_p50"], 5) for p in per]
    else:  # leanmd-cpy: one sample per episode, pooled over processes
        m = step_metrics(s)
        m["throughput_per_s"] = (sum(d["items"] for d in ds) /
                                 sum(d["item_seconds"] for d in ds))
        run.notes["tail_supported"] = stats.tail_supported(s, 90)
    run.notes["step_ms_p90"] = m["step_ms_p90"]
    setups = [x for d in ds for x in d["setup_s"]]
    m["setup_s"] = med(setups)
    run.notes["peak_rss_mb"] = med([d["values"]["peak_rss_mb"] for d in ds])
    run.notes["samples"] = (f"{len(s)} samples from {len(ds)} processes, "
                            f"{len(setups)} set-ups")
    run.notes[{"stencil-fine": "cell_updates_per_s",
               "leanmd-cpy": "atom_steps_per_s",
               "pool-map": "tasks_per_s"}[w]] = m["throughput_per_s"]
    return m


# Counters that are ratios or per-job figures, not sums over ranks.
RATE_COUNTERS = ("ctr.steps", "ctr.wall_s", "ctr.pool_hit_rate",
                 "ctr.when_skip_rate", "ctr.mean_chunk",
                 "ctr.steal_hit_rate", "ctr.task_p99_s")


def add_rank_counters(d, path):
    """Add another rank's counters (written beside the spans) to the
    root's, so a socket job's per-step figures cover both ranks."""
    other = json.loads(path.read_text())["values"]
    for k, val in other.items():
        if k.startswith("ctr.") and k not in RATE_COUNTERS:
            d["values"][k] = d["values"].get(k, 0.0) + val


def layer_metrics(args, run):
    w = args.workload
    if w == "pingpong-socket":
        # RTTs differ from launch to launch, so the runtime and raw
        # machine references are medians over 3 launches each.
        share = args.seconds / 6
        refs = [run.count(driver(w, args, share, cxrun=True))
                for _ in range(3)]
        sp = spans_file(args, "traced")
        d = run.count(driver(w, args, share * 1.5, trace=True, spans=sp,
                             cxrun=True))
        add_rank_counters(d, Path(f"{sp}.rank1.json"))
        d["samples_ms"], d["series"]["traced_ms"] = (
            [x for r in refs for x in r["samples_ms"]], d["samples_ms"])
        for k in ("setup.runtime_s", "setup.collection_s", "setup.wireup_s"):
            d["series"][k] = [r["series"][k][0] for r in refs]
        mach = spans_file(args, "machine")
        machines = [driver("calib-machine", args, share, spans=mach,
                           cxrun=True) for _ in range(3)]
        cal_l = spans_file(args, "layers")
        lay = driver("calib-layers", args, share, trace=True, spans=cal_l,
                     extra=["--for", w])
        d["series"].update(lay["series"])
        d["series"]["cal.machine_rtt_us"] = [
            med(m["series"]["cal.machine_rtt_us"]) for m in machines]
        d["values"].update({k: v for k, v in lay["values"].items()
                            if k.startswith("cal.")})
        run.span_files += [sp, mach, cal_l]
        ref_rtt_us = med([stats.percentile(r["samples_ms"], 50)
                          for r in refs]) * 1e3
    else:
        sp = spans_file(args, "traced")
        d = run.count(driver(w, args, args.seconds, trace=True, spans=sp))
        run.span_files.append(sp)
        ref_rtt_us = med(d["series"]["cal.runtime_rtt_us"])

    v, s = d["values"], d["series"]
    steps = v["ctr.steps"]
    per = lambda k: v[k] / steps  # noqa: E731
    cal = lambda k: med(s[k])  # noqa: E731
    untraced_p50 = stats.percentile(d["samples_ms"], 50)
    traced_p50 = stats.percentile(s["traced_ms"], 50)
    machine_rtt = cal("cal.machine_rtt_us")

    if w == "stencil-fine":
        kernel_s = v["cells_per_step"] * cal("cal.stencil_ns_per_cell") * 1e-9
        kernel_share = kernel_s / (untraced_p50 * 1e-3 * v["ctr.pes"])
    elif w == "leanmd-cpy":
        kernel_s = v["pairs_per_step"] * cal("cal.lj_ns_per_pair") * 1e-9
        kernel_share = kernel_s / (untraced_p50 * 1e-3 * v["ctr.pes"])
    elif w == "pool-map":
        kernel_share = per("ctr.task_s") / (untraced_p50 * 1e-3 *
                                            v["workers"])
    else:
        kernel_share = 0.0
    cpy, cxx = cal("cal.leanmd_cpy_ms"), cal("cal.leanmd_cx_ms")
    m = {
        "machine.rtt_us_p50": machine_rtt,
        "machine.idle_frac": v["ctr.idle_s"] / (v["ctr.pes"] *
                                                v["ctr.wall_s"]),
        "machine.busy_ms_per_step": per("ctr.entry_s") * 1e3,
        "net.frame_ns_64b": cal("cal.frame_64b_ns"),
        "net.encode_us_per_mb": cal("cal.encode_us_per_mb"),
        "net.decode_us_per_mb": cal("cal.decode_us_per_mb"),
        "pup.pack_ns_per_kb": cal("cal.pup_ns_per_kb"),
        "wire.envelopes_per_step": per("ctr.envelopes"),
        "wire.bytes_per_step": per("ctr.bytes_packed"),
        "wire.transport_msgs_per_step": per("ctr.transport_msgs"),
        "wire.pool_hit_rate": v["ctr.pool_hit_rate"],
        "core.rtt_overhead_us": ref_rtt_us - machine_rtt,
        "core.msgs_per_step": per("ctr.msgs_sent"),
        "core.entries_per_step": per("ctr.entries"),
        "core.when_tests_per_step": per("ctr.when_tests"),
        "core.when_buffered_frac": (v["ctr.when_buffered"] /
                                    v["ctr.entries"]
                                    if v["ctr.entries"] else 0.0),
        "core.when_skip_rate": v["ctr.when_skip_rate"],
        "model.dispatch_overhead_us": (cal("cal.dispatch_dyn_us") -
                                       cal("cal.dispatch_typed_us")),
        "model.dispatches_per_step": per("ctr.dyn_dispatches"),
        "model.expr_eval_ns": cal("cal.expr_eval_ns"),
        "model.value_pack_ns_per_kb": cal("cal.value_pack_ns_per_kb"),
        "model.overhead_frac": (cpy - cxx) / cpy,
        "apps.stencil_ns_per_cell": cal("cal.stencil_ns_per_cell"),
        "apps.lj_ns_per_pair": cal("cal.lj_ns_per_pair"),
        "apps.kernel_share": kernel_share,
        "pool.mean_chunk": v["ctr.mean_chunk"],
        "pool.grants_per_job": per("ctr.grants"),
        "pool.steal_hit_rate": v["ctr.steal_hit_rate"],
        "pool.result_batches_per_job": per("ctr.result_batches"),
        "pool.task_us_p99": v["ctr.task_p99_s"] * 1e6,
        "fiber.suspends_per_step": per("ctr.fiber_suspends"),
        "setup.runtime_s": med(s["setup.runtime_s"]),
        "setup.wireup_s": med(s.get("setup.wireup_s", [0.0])),
        "trace.overhead_frac": (traced_p50 - untraced_p50) / untraced_p50,
    }
    if "setup.collection_s" in s:
        m["setup.collection_s"] = med(s["setup.collection_s"])
    else:  # leanmd: run_cpy's set-up minus a bare runtime bring-up
        m["setup.collection_s"] = med(d["setup_s"]) - m["setup.runtime_s"]
    run.notes["app_msgs_per_step"] = v.get("ctr.app_msgs", 0.0) / steps
    run.notes["steps_traced"] = steps
    run.notes["budget"] = layer_budget(w, m, v, s, untraced_p50)
    return m


def layer_budget(w, m, v, s, step_ms):
    """Per-step CPU budget by layer: count per step x calibrated unit
    cost, against the PE-time one (untraced) step takes. What the rows
    do not cover is waiting, scheduling and unattributed work."""
    typed_us = med(s["cal.dispatch_typed_us"])
    rows = []
    if w == "stencil-fine":
        rows.append(("apps kernel", v["cells_per_step"], "cells",
                     m["apps.stencil_ns_per_cell"] * 1e-3))
    elif w == "leanmd-cpy":
        rows.append(("apps kernel", v["pairs_per_step"], "pairs",
                     m["apps.lj_ns_per_pair"] * 1e-3))
    elif w == "pool-map":
        tasks = max(v["ctr.tasks_done"], 1.0)
        rows.append(("apps tasks", tasks / v["ctr.steps"], "tasks",
                     v["ctr.task_s"] / tasks * 1e6))
    rows.append(("core messages", m["core.msgs_per_step"], "msgs", typed_us))
    rows.append(("model dispatch", m["model.dispatches_per_step"],
                 "dispatches", m["model.dispatch_overhead_us"]))
    if m["model.dispatches_per_step"] > 0:
        rows.append(("model when", m["core.when_tests_per_step"], "tests",
                     m["model.expr_eval_ns"] * 1e-3))
    rows.append(("pup pack", m["wire.bytes_per_step"] / 1024, "KB",
                 m["pup.pack_ns_per_kb"] * 1e-3))
    if w == "pingpong-socket":
        rows.append(("net frames", 2.0, "frames",
                     m["net.frame_ns_64b"] * 1e-3))
    pe_us = step_ms * 1e3 * v["ctr.pes"]
    rows = [(name, n, unit, us, n * us, n * us / pe_us)
            for name, n, unit, us in rows]
    rest = pe_us - sum(r[4] for r in rows)
    rows.append(("wait+other", 1.0, "step", rest, rest, rest / pe_us))
    return rows


# ---------------------------------------------------------------------------
# Output


def print_report(args, run, metrics, units):
    w = args.workload
    step, item = STEP_OF[w]
    print(f"perfbench {w}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  (step = {step}; throughput item = {item})")
    for name, unit in units:
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':32s} {rate:14.6g} frac "
          f"({run.failed} failed of {run.attempted} attempted)")
    for k, val in run.notes.items():
        if k == "budget":
            continue
        print(f"  {k:32s} {val}")
    if "budget" in run.notes:
        print("  per-step CPU budget (count x calibrated unit cost, "
              "share of PE-time per step):")
        print(f"    {'layer':16s} {'count/step':>12s} {'unit us':>9s} "
              f"{'est us':>10s} {'PE share':>9s}")
        for name, n, unit, us, tot, share in run.notes["budget"]:
            print(f"    {name:16s} {n:12.5g} {us:9.4g} {tot:10.5g} "
                  f"{share:9.3%}  ({unit})")
    spans = []
    for f in run.span_files:
        try:
            spans.append(json.loads(Path(f).read_text())["spans"])
        except (OSError, ValueError, KeyError):
            pass
    if spans:
        by = {}
        for one in spans:
            for name, (n, t) in stats.self_time_by_name(one).items():
                c, tt = by.get(name, (0, 0.0))
                by[name] = (c + n, tt + t)
        print("  span self time (traced run):")
        for name, (n, t) in sorted(by.items(), key=lambda x: -x[1][1]):
            print(f"    {name:24s} {n:8d} spans {t * 1e3:12.3f} ms self "
                  f"{t / n * 1e6:12.3f} us/span")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        t0 = time.monotonic()
        build()
        log(f"perfbench: build ready in {time.monotonic() - t0:.1f} s")
        global DEADLINE
        DEADLINE = time.monotonic() + CALL_BUDGET_S
        run = Run()
        if args.trace:
            metrics, units = layer_metrics(args, run), PER_LAYER
        else:
            metrics, units = end_to_end(args, run), END_TO_END
    except (BenchError, KeyError, ValueError, OSError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    print_report(args, run, metrics, units)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
