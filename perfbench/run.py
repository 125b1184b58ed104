"""Run one workload of the repository benchmark and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch|live|query --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the workload end to end through the default CLI
paths and prints the end-to-end metrics; ``--trace 1`` runs the traced
per-layer ledger instead and prints the per-layer metrics.  Either way
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (host fingerprint, input
digest, generator lateness, stage names, engine class) is also written
under ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import pbcore
import pbsys
import pbwork

BENCHMARK = pbsys.ROOT / "BENCHMARK.json"


def declared(trace: bool):
    """Metric names and units the result must carry, from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pbwork.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        pbsys.check_checkout()
        units = declared(bool(args.trace))
    except (pbsys.BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rundir = pbsys.WORK / "run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    started = time.time()
    try:
        with pbsys.Children(rundir) as children:
            inputs = pbsys.campaign(children)
            ref = pbsys.reference(inputs)
            ctx = pbwork.Context(
                workload=args.workload, seed=args.seed, seconds=args.seconds, rundir=rundir,
                children=children, inputs=inputs, ref=ref,
            )
            if args.trace:
                import pbledger

                outcome = pbledger.run_ledger(ctx)
            else:
                outcome = pbwork.WORKLOADS[args.workload](ctx)
            engine = pbsys.engine_class()
    except pbsys.BenchError as exc:
        print(f"perfbench: {exc} (logs kept in {rundir})", file=sys.stderr)
        return 1

    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "host": pbcore.host_fingerprint(),
        "inputs": {k: v for k, v in inputs.items() if k != "path"},
        "engine_class": engine,
        "valid": outcome.valid,
        "lateness_ms": outcome.lateness,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "info": outcome.info,
    }
    results = pbsys.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-t{args.trace}-s{args.seed}-{int(started * 1e3)}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str))
    shutil.rmtree(rundir, ignore_errors=True)

    host = record["host"]
    print(f"workload {args.workload} (trace {args.trace}), seed {args.seed}, "
          f"{args.seconds:g} s")
    print(f"host: {host['nproc']} x {host['cpu_model']}, Python {host['python']}, "
          f"NumPy {host['numpy']}, orjson {host['orjson']}, scipy {host['scipy']}")
    print(f"inputs: {' '.join(inputs['generator'])} -> {inputs['traceroutes']} "
          f"traceroutes, sha256 {inputs['digest'][:16]}")
    print(f"default engine class: {engine}")
    for line in outcome.lines:
        print(line)
    for kind, summary in outcome.lateness.items():
        print(pbcore.describe(f"generator lateness {kind}", "ms", summary))
    if not outcome.valid:
        print(f"run INVALID: generator lateness over its bound "
              f"(p50 {pbwork.LATENESS_P50_MS} ms, max {pbwork.LATENESS_MAX_MS} ms)")
    ratio = outcome.failed / outcome.attempted
    print(f"failed_ratio: {ratio:.6g} ({outcome.failed} of {outcome.attempted})")
    for metric, unit in units.items():
        print(f"{metric}: {outcome.metrics[metric]!r} {unit}")
    for metric in sorted(set(outcome.metrics) - set(units)):
        print(f"{metric}: {outcome.metrics[metric]!r} (recorded, not gated)")
    print(f"record: {results / name}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m: {"value": outcome.metrics[m], "unit": u} for m, u in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
