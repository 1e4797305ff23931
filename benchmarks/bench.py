"""telecert benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of the workload (see workloads.py) until S seconds have
gone, checks every output against closed forms, and prints one JSON object as
the last line of stdout: `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 one untraced
pass is followed by traced passes and the metrics are per layer. A readable
breakdown per operation goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer, combine, metric_names, metric_unit
from workloads import ROOT, SRC, WORKLOADS, Context, Pass, op_medians, pass_wall_s

SETUP_PROBES = 9
# Address-space cap for this process and its children: an allocation the
# machine cannot hold fails at once instead of paging the shared host.
ADDRESS_SPACE_LIMIT = 6 * 2**30


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import telecert, generate the inputs and report the import time")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_telecert():
    """Import telecert from this checkout's src/, and nowhere else."""
    if not (SRC / "telecert" / "__init__.py").is_file():
        sys.exit(f"bench: telecert sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import telecert.cli
    if SRC not in Path(telecert.__file__).resolve().parents:
        sys.exit(f"bench: imported telecert from {telecert.__file__}, not from {SRC}")
    return telecert


def setup_only(args) -> None:
    start = perf_counter()
    import_telecert()
    import_s = perf_counter() - start
    workloads.make_inputs(args.workload, args.seed)
    print(json.dumps({"import_s": import_s}))


def measure_setup(args) -> tuple[float, float]:
    """Median wall time of a fresh interpreter doing the set-up, and its import time."""
    walls, imports = [], []
    cmd = [sys.executable, __file__, "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=workloads.CHILD_TIMEOUT_S)
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up failed: {proc.stderr.strip()}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def run_passes(workload, inputs, ctx: Context, seconds: float, tracer=None) -> list[Pass]:
    """Whole passes until `seconds` have gone; traced passes keep their layer metrics."""
    out = []
    start = perf_counter()
    while not out or perf_counter() - start < seconds:
        res = Pass()
        if tracer is not None:
            tracer.reset()
        workload.run_pass(inputs, ctx, res)
        if tracer is not None:
            res.layers = [tracer.metrics()]
        out.append(res)
    return out


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024   # Linux reports KiB


def report_detail(name: str, passes: list[Pass]) -> None:
    """Per-operation medians and the workload's own rates, on stderr."""
    medians = op_medians(passes)
    detail = {"workload": name, "passes": len(passes), "op_median_s": medians,
              "rates": WORKLOADS[name].rates(medians)}
    print(json.dumps(detail, indent=1), file=sys.stderr)
    for note in sorted({n for res in passes for n in res.notes}):
        print(f"bench: {note}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))

    import_telecert()
    setup_s, import_s = measure_setup(args)
    workload = WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed)
    ctx = Context()

    if args.trace:
        # half the time untraced, half traced: the difference is the overhead
        untraced = run_passes(workload, inputs, ctx, args.seconds / 2)
        ctx.traced = True
        tracer = None if workload.in_children else Tracer()
        if tracer is not None:
            tracer.install()
        try:
            traced = run_passes(workload, inputs, ctx, args.seconds / 2, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes = untraced + traced
        layers = [combine(res.layers) for res in traced]
        values = {}
        for metric in metric_names():
            series = [lay[metric] for lay in layers]
            if metric.endswith("_s"):
                values[metric] = statistics.median(series)
            else:
                if len(set(series)) != 1:
                    print(f"bench: {metric} differs between traced passes: {series}",
                          file=sys.stderr)
                values[metric] = series[0]
        values["cli.import_s"] = import_s
        values["trace.overhead_s"] = pass_wall_s(traced) - pass_wall_s(untraced)
        metrics = {m: {"value": v, "unit": metric_unit(m)} for m, v in values.items()}
    else:
        passes = run_passes(workload, inputs, ctx, args.seconds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": pass_wall_s(passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(workload), "unit": "MB"},
        }

    report_detail(args.workload, passes)
    errors = [e for res in passes for e in res.errors]
    for error in errors[:20]:
        print(f"bench: WRONG {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(res.attempted for res in passes),
        "failed": sum(res.failed for res in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
