#!/usr/bin/env python
"""Gate CI on benchmark regressions against a committed baseline.

Compares a ``pytest-benchmark`` JSON report (``--benchmark-json``) with
``benchmarks/baseline.json`` and exits non-zero when any tracked metric
regresses:

* **timing** — a benchmark's best (min) time may not exceed the
  baseline's by more than ``--threshold`` (default 1.25, i.e. >25 %
  slowdown fails).  For the multi-round micro benchmarks min measures the
  memoised hot path; for the single-shot macro benchmarks (Table III
  sweeps) min *is* the full cache-cold execution, so the end-to-end cold
  path is gated there.  The micro benchmarks' algorithmic cold path is
  pinned exactly by the deterministic counters below instead of a timing
  (max-round timings proved too jittery to gate: one stray GC pause in
  a microsecond-scale round exceeds any reasonable band);
* **calibration** — a self-contained synthetic workload (dict/int churn
  shaped like BDD node operations, deliberately *not* using the code
  under test so a substrate regression cannot rescale its own gate) is
  timed in short samples right before and right after every benchmark,
  inside the benchmark session (``benchmarks/conftest.py`` stores them as
  ``calibration_s``).  Each benchmark's baseline is rescaled by the ratio
  of the fastest of its own run samples to the fastest of its own
  baseline samples — a best case against a best case, like the min
  timing it scales — so a host whose speed swings between benchmarks
  does not rescale one benchmark by another's conditions.
  Only when the baseline or the run lacks samples for a benchmark does the
  older single loop, timed once at check time against the baseline's
  ``_meta.calibration_seconds``, scale it instead;
* **determinism** — integer ``extra_info`` metrics (node counts, cache
  miss counts, unique-table probes) must match the baseline exactly; the
  benchmarks are fixed-seed and these counters only accrue on first-time
  subproblems, so they are independent of how many timing rounds ran and
  any drift means the substrate's semantics or memoisation changed.

``*hit_rate`` extras are informational only: the cumulative rate depends on
pytest-benchmark's machine-speed-adaptive round count, so gating it would
be nondeterministic across runners.

Refresh the baseline intentionally with the same smoke set CI runs::

    python -m pytest benchmarks/bench_bdd_substrate.py \
        benchmarks/bench_table3_random.py --benchmark-only \
        --benchmark-json=bench-run.json -q
    python scripts/check_bench_regression.py --run bench-run.json --update

and commit the regenerated ``benchmarks/baseline.json`` together with the
change that legitimately moved the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"

#: Loop length of one per-benchmark sample (a few ms), and samples taken on
#: each side of a benchmark: many short samples catch the host's fast
#: moments, as the benchmark's min over many rounds does.
SAMPLE_STEPS = 3_000
SAMPLES_PER_SIDE = 8


def calibration_seconds(repeats: int = 3, steps: int = 120_000) -> float:
    """Best-of-N timing of a fixed, self-contained synthetic workload.

    The loop mirrors what BDD node operations stress — dict probes and
    inserts keyed by packed integers, tuple interning, list appends — but
    deliberately uses none of the repository's code: a regression in the
    code under test must not be able to rescale its own gate.
    """

    def once() -> float:
        rng = random.Random(2021)
        table = {}
        unique = {}
        store = []
        start = time.perf_counter()
        for step in range(steps):
            a = rng.randrange(1 << 20)
            b = rng.randrange(1 << 20)
            key = (a << 30) | b
            node = table.get(key)
            if node is None:
                ukey = (step & 1023, a, b)
                node = unique.get(ukey)
                if node is None:
                    node = len(store)
                    store.append(key)
                    unique[ukey] = node
                table[key] = node
        return time.perf_counter() - start

    return min(once() for _ in range(repeats))


def sample_calibration() -> List[float]:
    """Calibration samples for one side of a benchmark
    (``benchmarks/conftest.py`` takes them before and after each one)."""
    return [calibration_seconds(1, SAMPLE_STEPS) for _ in range(SAMPLES_PER_SIDE)]


def load_run(path: Path) -> Dict[str, Dict]:
    """Parse a pytest-benchmark JSON report into name -> metrics; the
    ``calibration_s`` samples move out of the extras into their own key."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    entries: Dict[str, Dict] = {}
    for bench in report.get("benchmarks", []):
        extra = dict(bench.get("extra_info", {}))
        entry = {"min_seconds": bench["stats"]["min"], "extra": extra}
        samples = extra.pop("calibration_s", None)
        if samples:
            entry["calibration_s"] = samples
        entries[bench["name"]] = entry
    return entries


def build_baseline(run: Dict[str, Dict]) -> Dict:
    return {
        "_meta": {
            "description": "Smoke-benchmark baseline for scripts/check_bench_regression.py",
            "calibration_seconds": calibration_seconds(),
        },
        "benchmarks": run,
    }


def check_time_scale(base_cal, notes: List[str]) -> float:
    """Machine scale from the check-time loop against the baseline's
    ``_meta.calibration_seconds`` (1.0 when the baseline has none)."""
    if not base_cal:
        return 1.0
    local_cal = calibration_seconds()
    scale = local_cal / base_cal
    notes.append(f"calibration (check-time fallback): baseline "
                 f"{base_cal * 1e3:.4g} ms, here {local_cal * 1e3:.4g} ms "
                 f"-> machine scale {scale:.2f}x")
    return scale


def check(run: Dict[str, Dict], baseline: Dict,
          threshold: float) -> Tuple[List[str], List[str], List[Dict]]:
    """Returns (failures, notes, rows) — rows feed the markdown summary."""
    failures: List[str] = []
    notes: List[str] = []
    rows: List[Dict] = []
    base_cal = baseline.get("_meta", {}).get("calibration_seconds")
    fallback_scale = None  # the check-time loop's scale, timed at most once
    own_scales: List[float] = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name, base_entry in sorted(base_benchmarks.items()):
        entry = run.get(name)
        if entry is None:
            failures.append(f"{name}: benchmark missing from the run report")
            rows.append({"name": name, "baseline_seconds": base_entry["min_seconds"],
                         "run_seconds": None, "status": "missing"})
            continue
        run_samples = entry.get("calibration_s")
        base_samples = base_entry.get("calibration_s")
        if run_samples and base_samples:
            scale = min(run_samples) / min(base_samples)
            own_scales.append(scale)
        else:
            if fallback_scale is None:
                fallback_scale = check_time_scale(base_cal, notes)
            scale = fallback_scale
        allowed = base_entry["min_seconds"] * scale * threshold
        actual = entry["min_seconds"]
        status = "ok"
        if actual > allowed:
            status = "REGRESSION"
            failures.append(
                f"{name}: min time {actual * 1e3:.4g} ms exceeds allowed "
                f"{allowed * 1e3:.4g} ms (baseline {base_entry['min_seconds'] * 1e3:.4g} ms "
                f"x scale {scale:.2f} x threshold {threshold:.2f})")
        else:
            notes.append(f"{name}: min time {actual * 1e3:.4g} ms "
                         f"(allowed {allowed * 1e3:.4g} ms) ok")
        base_extra = base_entry.get("extra", {})
        extra = entry.get("extra", {})
        for key, base_value in sorted(base_extra.items()):
            if key.endswith("hit_rate"):
                continue  # informational: depends on the adaptive round count
            value = extra.get(key)
            if value is None:
                failures.append(f"{name}: extra metric {key!r} missing from the run")
                status = f"{status} + metric missing" if status != "ok" else "metric missing"
                continue
            if isinstance(base_value, int) and not isinstance(base_value, bool):
                if value != base_value:
                    failures.append(
                        f"{name}: deterministic metric {key} changed "
                        f"{base_value} -> {value} (fixed-seed benchmarks must not drift; "
                        f"re-baseline if the change is intentional)")
                    if "metric drift" not in status:
                        status = (f"{status} + metric drift" if status != "ok"
                                  else "metric drift")
        rows.append({"name": name, "baseline_seconds": base_entry["min_seconds"],
                     "run_seconds": actual, "scale": scale, "status": status,
                     "extra": extra, "baseline_extra": base_extra})
    if own_scales:
        notes.insert(0, f"calibration: {len(own_scales)} benchmark(s) scaled by "
                        f"their own samples, machine scale {min(own_scales):.2f}x"
                        f"-{max(own_scales):.2f}x")
    for name in sorted(set(run) - set(base_benchmarks)):
        # Run-only benchmarks are *new*, not failures: a freshly added
        # family shows up here on the PR that introduces it, before its
        # baseline entry lands via --update.  The summary labels it "new"
        # so reviewers see an ungated benchmark at a glance.
        notes.append(f"{name}: new benchmark, not yet in the baseline "
                     f"(record it with --update)")
        rows.append({"name": name, "baseline_seconds": None,
                     "run_seconds": run[name]["min_seconds"], "status": "new",
                     "extra": run[name].get("extra", {}), "baseline_extra": {}})
    return failures, notes, rows


def node_count_summary(extra: Dict) -> str:
    """Compact node-count cell for the markdown delta table.

    Node counts are the paper's own cost metric, so the job summary shows
    them next to the timings: a ``nodes_before``/``nodes_after`` pair (the
    reordering benchmarks) renders as ``before→after``, otherwise the
    ``*nodes*`` extras are listed by name.
    """
    counts = {key: value for key, value in extra.items()
              if "nodes" in key and isinstance(value, (int, float))
              and not isinstance(value, bool)}
    if not counts:
        return "—"
    before = next((counts[key] for key in counts if key.endswith("nodes_before")), None)
    after = next((counts[key] for key in counts if key.endswith("nodes_after")), None)
    if before is not None and after is not None:
        return f"{int(before)}→{int(after)}"
    return ", ".join(f"{key}={int(value)}"
                     for key, value in sorted(counts.items())[:2])


def write_markdown_summary(rows: List[Dict], notes: List[str],
                           destination: Path) -> None:
    """Append a before/after delta table (GitHub-flavoured markdown) to
    ``destination`` — pointed at ``$GITHUB_STEP_SUMMARY`` by CI so every run
    shows its deltas against the committed baseline in the job summary."""
    lines = ["", "## Benchmark delta vs committed baseline", ""]
    for note in notes:
        if note.startswith("calibration"):
            lines.append(f"_{note}_")
            lines.append("")
    lines.append("| benchmark | baseline (ms) | this run (ms) | delta "
                 "| nodes | status |")
    lines.append("|---|---:|---:|---:|---:|---|")
    for row in rows:
        base = row.get("baseline_seconds")
        actual = row.get("run_seconds")
        base_text = f"{base * 1e3:.4g}" if base is not None else "—"
        actual_text = f"{actual * 1e3:.4g}" if actual is not None else "—"
        if base and actual:
            delta = (actual / (base * row.get("scale", 1.0)) - 1.0) * 100.0
            delta_text = f"{delta:+.1f}%"
        else:
            delta_text = "—"
        nodes_text = node_count_summary(row.get("extra")
                                        or row.get("baseline_extra") or {})
        lines.append(f"| `{row['name']}` | {base_text} | {actual_text} "
                     f"| {delta_text} | {nodes_text} | {row['status']} |")
    lines.append("")
    with open(destination, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", required=True, type=Path,
                        help="pytest-benchmark JSON report of the smoke run")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help=f"baseline JSON (default: {DEFAULT_BASELINE})")
    parser.add_argument("--threshold", type=float,
                        default=float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "1.25")),
                        help="allowed slowdown factor (default 1.25 = +25%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run instead of checking")
    parser.add_argument("--markdown-summary", type=Path, default=None,
                        help="append a before/after delta table (markdown) to this "
                             "file; CI points it at $GITHUB_STEP_SUMMARY")
    args = parser.parse_args(argv)

    try:
        run = load_run(args.run)
    except FileNotFoundError:
        print(f"error: run report {args.run} not found (pass pytest-benchmark's "
              f"--benchmark-json output)", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: run report {args.run} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not run:
        print("error: the run report contains no benchmarks", file=sys.stderr)
        return 2

    if args.update:
        baseline = build_baseline(run)
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline rewritten: {args.baseline} ({len(run)} benchmarks)")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found (create it with --update)",
              file=sys.stderr)
        return 2
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    failures, notes, rows = check(run, baseline, args.threshold)
    for note in notes:
        print(f"  {note}")
    if args.markdown_summary is not None:
        write_markdown_summary(rows, notes, args.markdown_summary)
        print(f"markdown delta table appended to {args.markdown_summary}")
    if failures:
        print(f"\nBENCHMARK REGRESSION: {len(failures)} tracked metric(s) failed",
              file=sys.stderr)
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    print(f"\nbenchmark regression gate passed ({len(baseline.get('benchmarks', {}))} "
          f"tracked benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
