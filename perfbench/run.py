#!/usr/bin/env python3
"""The torvdw benchmark: one closed-loop client over one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli,series,oracle} --seed N \\
        --seconds S --trace {0,1}

Set-up first times fresh interpreters importing the workload's modules
(``setup_s``).  One untimed warm-up task follows.  The timed loop then runs,
with tracing off, the number of whole blocks of tasks that took S seconds
when the benchmark was written, and every task's output is checked.  With
``--trace 1`` a second loop of half as many blocks runs with spans around
every layer, and the output reports the
per-layer metrics instead of the end-to-end ones; spans are written to
.bench_build/perfbench/.  Human-readable lines come first; the last line
is the JSON result.  The exit code is 0 whenever the run completes, even
with failed tasks (``correct`` is then false).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness

harness.pin_threads()

import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "task_s.p50": "s", "task_s.tail": "s", "tasks_per_s": "1/s",
    "failed_frac": "1", "peak_rss_mb": "MB", "series_rel_err": "1",
    "oracle_rel_err": "1",
}


def _bench_spec():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    harness.require_source()
    spec = _bench_spec()
    wl = workloads.WORKLOADS[args.workload]()
    traced = bool(args.trace)

    setup_s, import_layer = harness.measure_setup(wl.modules, control=traced)
    warm = harness.warm_up(wl, args.seed)
    n_blocks = harness.block_count(wl, args.seconds)
    outcomes, peak_self = harness.run_loop(wl, wl.blocks(args.seed), n_blocks)
    all_outcomes = warm + outcomes

    if traced:
        rec = tracing.Recorder()
        if wl.in_process:
            rec.install()
        else:
            wl.traced = True
        t_outcomes, _ = harness.run_loop(wl, wl.blocks(args.seed, stream=1),
                                         harness.block_count(wl, args.seconds / 2),
                                         recorder=rec)
        rec.uninstall()
        if not wl.in_process:
            rec.status = wl.merge_spans(rec, t_outcomes)
        all_outcomes += t_outcomes

    # Everything below is off the clock.
    peak = peak_self if wl.in_process else max(
        (o.result or {}).get("rss_mb", 0.0) for o in outcomes)
    if not wl.in_process:
        harness.check_all(wl, all_outcomes)
    series_err, series_raw, series_problems = workloads.series_rel_err()
    oracle_err, oracle_vh, oracle_mixed, oracle_problems = workloads.oracle_rel_err()
    lat = harness.latency_metrics(outcomes)
    os.makedirs(harness.WORK, exist_ok=True)
    with open(os.path.join(harness.WORK, f"latency-{args.workload}-{args.seed}.json"),
              "w") as fh:
        json.dump([o.seconds for o in outcomes], fh)
    failed = sum(1 for o in all_outcomes if o.failed)
    e2e = {
        "setup_s": setup_s,
        "task_s.p50": lat["task_s.p50"],
        "task_s.tail": lat["task_s.tail"],
        "tasks_per_s": lat["tasks_per_s"],
        "failed_frac": harness.failed_frac(outcomes),
        "peak_rss_mb": peak,
        "series_rel_err": series_err,
        "oracle_rel_err": oracle_err,
    }

    record = harness.run_record(args.workload, args.seed, args.seconds, args.trace)
    print("# run " + json.dumps(record, sort_keys=True))
    for name, value in e2e.items():
        note = ""
        if name == "task_s.tail":
            note = f"  (p{lat['tail_percentile']:.1f} of {lat['samples']} samples)"
        elif name == "failed_frac":
            note = f"  ({sum(o.failed for o in outcomes)} of {len(outcomes)} attempted)"
        elif name == "series_rel_err":
            note = f"  (raw {series_raw:.3e}, floor {workloads.SERIES_FLOOR:g})"
        elif name == "oracle_rel_err":
            note = f"  (V_H {oracle_vh:.3e}, mixed derivative {oracle_mixed:.3e})"
        print(f"{name:<16} {value:.6g} {E2E_UNITS[name]}{note}")
    if args.workload == "oracle":
        vh, mixed = zip(*(wl.errors(o.prep, o.result) for o in outcomes if o.result))
        print(f"# seeded tasks: worst V_H error {max(vh):.3e}, "
              f"worst mixed derivative error {max(mixed):.3e}")
    problems = [p for o in all_outcomes for p in o.problems]
    for p in (problems + series_problems + oracle_problems)[:20]:
        print(f"# problem: {p}")

    if traced:
        n_tasks = len(t_outcomes)
        layer = tracing.layer_metrics(rec.spans, n_tasks, rec.status)
        layer.update(import_layer)
        layer["cli.output_bytes"] = (
            sum(wl.output_bytes(o.result) for o in t_outcomes if o.result) / n_tasks
            if not wl.in_process else 0.0)
        t_lat = harness.latency_metrics(t_outcomes)
        layer["trace.overhead_frac"] = 1.0 - t_lat["tasks_per_s"] / lat["tasks_per_s"]
        os.makedirs(harness.WORK, exist_ok=True)
        trace_path = os.path.join(harness.WORK, f"trace-{args.workload}-{args.seed}.jsonl")
        rec.dump(trace_path)
        missing = sorted(n for n, st in rec.status.items() if st == "missing")
        print(f"# spans: {len(rec.spans)} written to {os.path.relpath(trace_path, harness.ROOT)}"
              f"; missing: {', '.join(missing) or 'none'}")
        wanted = spec["per_layer"]
        for m in wanted:
            v = layer.get(m["name"])
            shown = "missing" if v is None else f"{v:.6g}"
            print(f"{m['name']:<32} {shown} {m['unit']}")
        metrics = {m["name"]: {"value": layer.get(m["name"]), "unit": m["unit"]}
                   for m in wanted}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {
        "correct": failed == 0 and not series_problems and not oracle_problems,
        "attempted": len(all_outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
