#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, end to end or
traced layer by layer.

    python3 perfbench/run.py --workload paper-rows --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it runs one untimed warm-up pass, then repeats identical
passes over the workload's requests while the next one should end within
half a pass of ``--seconds``, and reports the end-to-end metrics.  Each
pass is cut into chunks (a batch row, or a run of service requests), and a
fixed calibration loop runs before each chunk and after the last (see
``calibration.py``).  ``ref_wall_s`` is the time of one pass at the loop's
reference speed: per chunk, the median over passes of its time scaled by
the loops around it, summed over the chunks.  ``setup_s`` is the median of
several fresh-process set-ups, each scaled by the loops run before and
after it.  The raw times (``wall_s``: each request's best time over the
passes, summed; ``setup_wall_s``; the ``req_ms.*`` percentiles) are
printed and recorded beside them, unbound: on a shared host they swing
with its speed.

With ``--trace 1`` it alternates an untraced and a traced pass and reports
the per-layer metrics of the traced ones.  Every result is checked (see
``checks.py``); the last line of standard output is one JSON object, and
the exit code is non-zero when any output fails its check.  Each
invocation also appends a record to ``--out`` (by default
``perfbench/out/results.jsonl``; see ``compare.py``) and, when traced,
writes the last traced pass's spans beside it as
``spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibration

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("paper-rows", "sampled-grcs", "service-mix")
SETUP_REPEATS = 5

#: End-to-end metrics and their units, in report order.
END_TO_END = (("ref_wall_s", "s"), ("setup_s", "s"),
              ("peak_nodes", "count"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one set-up (for the tests)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR,
                                                      "results.jsonl"),
                        help="result file to append this run's record to")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-expected", action="store_true",
                        help="store the default seed's result digests")
    return parser.parse_args(argv)


def child_setup_seconds(args):
    """Set-up time of a fresh process (imports included): ``(at the
    reference speed, raw)``."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    reply = json.loads(done.stdout.strip().splitlines()[-1])
    return reply["setup_s"], reply["setup_wall_s"]


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def more_time(measuring: float, done: int, args) -> bool:
    """Start another pass while it should end within half a pass of
    ``--seconds`` (a traced run counts an untraced and a traced pass as
    one step)."""
    elapsed = time.perf_counter() - measuring
    steps = done // 2 if args.trace else done
    return elapsed + elapsed / steps / 2 < args.seconds


def percentile_ms(values, q: int) -> float:
    if len(values) < 2:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100,
                               method="inclusive")[q - 1] * 1e3


def reference_seconds(passes, chunk: int) -> float:
    """One pass's time at the reference speed: per chunk, the median over
    ``passes`` of the chunk's time scaled by the mean of the calibration
    loops run just before and just after it, summed over the chunks."""
    per_chunk = []
    for one in passes:
        times = [sum(one.latencies_s[start:start + chunk])
                 for start in range(0, len(one.latencies_s), chunk)]
        loops = one.calibration_s
        per_chunk.append([
            calibration.at_reference_speed(t, (before + after) / 2)
            for t, before, after in zip(times, loops, loops[1:])])
    return sum(statistics.median(scaled) for scaled in zip(*per_chunk))


def median_metrics(samples):
    return {name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    loop_before = calibration.calibration_seconds()
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    ledger = registry = None
    if args.trace:
        import layers
        import spans

        ledger, registry = layers.ManagerLedger(), spans.Patcher()
        ledger.register(registry)
    workload = workloads.open_workload(args.workload, args.seed, args.quick)
    setup_wall_s = time.perf_counter() - started
    setup_s = calibration.at_reference_speed(
        setup_wall_s, (loop_before + calibration.calibration_seconds()) / 2)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "setup_wall_s": setup_wall_s}))
            return 0
        os.makedirs(out_dir, exist_ok=True)
        setups = [(setup_s, setup_wall_s)]
        if not (args.trace or args.quick):
            setups += [child_setup_seconds(args)
                       for _ in range(SETUP_REPEATS - 1)]

        def one_pass():
            workload.begin_pass()
            result = workload.run_pass(calibrate=not args.trace)
            workload.end_pass()
            return result

        warm_up = [] if args.trace or args.quick else [one_pass()]
        passes, traced = [], []
        measuring = time.perf_counter()
        while not passes or more_time(measuring, len(passes), args):
            passes.append(one_pass())
            if args.trace:
                result, metrics, span_list = layers.traced_pass(
                    workload, ledger, passes[-1].wall_s)
                passes.append(result)
                traced.append(metrics)
                with open(os.path.join(
                        out_dir, f"spans-{args.workload}-seed{args.seed}"
                                 ".json"), "w") as handle:
                    json.dump(span_list, handle)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        import checks

        expected = None
        if args.seed == workloads.DEFAULT_SEED and not args.quick:
            if args.record_expected:
                checks.record_expected(args.workload, [
                    checks.result_digest(run)
                    for run in (warm_up + passes)[0].results])
            expected = checks.load_expected(args.workload)
        failed = checks.count_failures(warm_up + passes,
                                       workload.reference_circuits(), expected)
    finally:
        workload.close()
        if registry is not None:
            registry.restore()

    attempted = sum(len(one.results) for one in warm_up + passes)
    info = {}
    if args.trace:
        units = dict(layers.LAYER_METRICS)
        values = median_metrics(traced)
    else:
        best = [min(latencies)
                for latencies in zip(*(one.latencies_s for one in passes))]
        units = dict(END_TO_END)
        values = {
            "ref_wall_s": reference_seconds(passes, workload.chunk),
            "setup_s": statistics.median(scaled for scaled, _ in setups),
            "peak_nodes": sum(run.peak_memory_nodes
                              for run in passes[0].results),
            "peak_rss_mb": peak_rss_mb,
        }
        # Printed and recorded beside them, but not bound: raw times swing
        # with the host's speed, and on the batch workloads a percentile
        # over a handful of rows is one row's time.
        info = {"wall_s": {"value": sum(best), "unit": "s"},
                "setup_wall_s": {"value": statistics.median(
                    raw for _, raw in setups), "unit": "s"},
                "req_ms.p50": {"value": statistics.median(best) * 1e3,
                               "unit": "ms"},
                "req_ms.p99": {"value": percentile_ms(best, 99),
                               "unit": "ms"}}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in list(metrics.items()) + list(info.items()):
        print(f"{args.workload:>13}  {name:<32} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:>13}  {'failed_frac':<32} "
          f"{failed / attempted:>16.6g} ratio  "
          f"({failed} of {attempted}, {len(passes)} passes)")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "passes": len(passes),
        "pass_walls": [one.wall_s for one in passes],
        "pass_calibration_s": [statistics.median(one.calibration_s)
                               for one in passes if one.calibration_s],
        "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "time": time.time(), "attempted": attempted, "failed": failed,
        "metrics": metrics, "info": info,
    }
    with open(args.out, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
