"""Workload inputs, operations and closed-form output checks.

Every workload is a fixed list of operations called a pass. The benchmark runs
whole passes, so `attempted` and `failed` grow together and the share of
failed operations is the same in every run, whatever the seed or run length.
Inputs come from the benchmark's seed; telecert only ever sees the generated
angles and seeds. Every expected value below is derived here from the closed
forms of the telecert paper, never copied from the program's output:

    honest protocol          f_th = 1
    every cheat, m >= 2      f_th(theta) = 1/2 - sin^2(theta)/4
    theta average (cheats)   mean of 1/2 - sin^2(theta)/4 over [0, pi) = 3/8
    Bloch sphere (PB, PAB)   B delivers |a>, so a branch scores (1 +- cos theta)/2;
                             sphere means: plain 1/2, squared 1/3, postselected 2/3
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))   # what `nproc` prints
PROTOCOLS = ("p0", "pa1", "pa2", "pb", "pab")

EXACT_TOL = 1e-12       # honest fidelity and probability sums
CURVE_TOL = 1e-10       # cheat curve at m >= 2
AVERAGE_TOL = 1e-9      # quadrature averages and computed thresholds
STDERR_BAND = 4         # sampled estimates: within 4 standard errors
# A branch too rare to be drawn leaves no trace in a sample's variance, and the
# 4-standard-error check would then fail on a correct program. Sampled runs
# therefore take theta from the middle of [0, pi): every announcement bit then
# has probability at least sin^2(pi/8) = 0.146.
SAMPLED_THETA = (math.pi / 4, 3 * math.pi / 4)

# --- closed forms ------------------------------------------------------------

MEAN_SIN2 = 0.5                         # (1/pi) * integral_0^pi sin^2
CHEAT_AVERAGE = 0.5 - MEAN_SIN2 / 4     # 3/8
# Sphere means over u = cos(theta) uniform on [-1, 1] of (1 + u)/2 and its square.
BLOCH_PLAIN = 0.5
BLOCH_SQUARED = (1 + 1 / 3) / 4
BLOCH_POSTSELECTED = BLOCH_SQUARED / BLOCH_PLAIN   # 2/3
# Probability of one announcement (a, b) branch: four equal branches for PB,
# two for PAB.
BLOCH_BRANCH_P = {"pb": 0.25, "pab": 0.5}


def expected_f_th(protocol: str, theta: float) -> float:
    """Threshold fidelity of the GHZ family at m >= 2."""
    return 1.0 if protocol == "p0" else 0.5 - math.sin(theta) ** 2 / 4


def expected_thresholds(m: int, family: str) -> dict[tuple[str, str, str], float]:
    """Every (model, criterion, source) row of threshold_table with its value."""
    cheat_max = expected_f_th("pa1", 0.0)   # the computed sweep grid includes theta = 0
    rows = {}
    for source in ("tabulated", "computed"):
        rows[("honest", "pointwise", source)] = 1.0
        for model in ("cheating_a", "cheating_b", "cheating_ab"):
            rows[(model, "pointwise", source)] = cheat_max
            if family == "ghz":
                rows[(model, "theta_average", source)] = CHEAT_AVERAGE
            if family == "bloch" and m == 1 and model != "cheating_a":
                rows[(model, "bloch_postselected", source)] = BLOCH_POSTSELECTED
    if family == "ghz":
        # The tabulated B-cheat average is half the enumerated optimum (the
        # curve 1/4 - sin^2/8); the computed source conserves probability.
        rows[("cheating_b", "theta_average", "tabulated")] = CHEAT_AVERAGE / 2
    return rows


def ghz_target(m: int, theta: float):
    """cos(theta/2)|0..0> + sin(theta/2)|1..1>, built without telecert."""
    import numpy as np
    psi = np.zeros(2**m, dtype=complex)
    psi[0], psi[-1] = math.cos(theta / 2), math.sin(theta / 2)
    return psi


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if isinstance(got, (int, float)) and abs(got - want) <= tol:
        return []
    return [f"{name}: got {got!r}, want {want!r} within {tol:g}"]


def _within_stderr(name: str, got: float, stderr: float, want: float) -> list[str]:
    return _close(name, got, want, max(STDERR_BAND * stderr, CURVE_TOL))


def _bits(report) -> tuple:
    """Every float of a Monte Carlo report, as exact hex strings."""
    floats = [report.f_th, report.stderr]
    for bf in report.per_branch:
        floats += [bf.probability, bf.fidelity]
    return tuple(float(x).hex() for x in floats)


# --- pass bookkeeping ----------------------------------------------------------

@dataclass
class Pass:
    """One pass: per-operation wall times, counts and check failures."""

    attempted: int = 0
    failed: int = 0
    times: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)   # per-layer metrics when traced

    def op(self, name: str, fn, check):
        """Time fn(); a raised exception counts the operation as failed.

        check(result) returns problems with the output. For an operation
        expected to fail it returns None when the result is still a failure,
        which counts it as failed rather than wrong.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - any failure of an operation is counted
            self.times.setdefault(name, []).append(perf_counter() - start)
            self.failed += 1
            self.notes.append(f"{name}: {type(exc).__name__}: {exc}"[:300])
            return None
        self.times.setdefault(name, []).append(perf_counter() - start)
        problems = check(result)
        if problems is None:
            self.failed += 1
            self.notes.append(f"{name}: failed as expected")
        else:
            self.errors.extend(f"{name}: {p}" for p in problems)
        return result


def op_medians(passes: list[Pass]) -> dict[str, float]:
    """Each operation's median time over the passes."""
    times: dict[str, list[float]] = {}
    for res in passes:
        for op, ts in res.times.items():
            times.setdefault(op, []).append(math.fsum(ts))
    return {op: statistics.median(ts) for op, ts in times.items()}


def pass_wall_s(passes: list[Pass]) -> float:
    """One pass as the sum of per-operation medians: a slow moment on a shared
    host then inflates one operation of one pass, not the whole pass."""
    return math.fsum(op_medians(passes).values())


class Context:
    """Run state shared by the passes of one run."""

    def __init__(self):
        self.traced = False
        self.first_results: dict[str, tuple] = {}


# --- exact_large_m -----------------------------------------------------------

def exact_inputs(rnd: random.Random) -> dict:
    return {"points": [(p, m, rnd.uniform(0.0, math.pi)) for m in (8, 10) for p in PROTOCOLS]}


def exact_pass(inputs: dict, ctx: Context, res: Pass) -> None:
    from telecert import InputFamily, ProtocolId, ProtocolParams, exact_report

    for protocol, m, theta in inputs["points"]:
        params = ProtocolParams(m=m, family=InputFamily.GHZ, theta=theta)

        def check(report, protocol=protocol, theta=theta):
            want = expected_f_th(protocol, theta)
            tol = EXACT_TOL if protocol == "p0" else CURVE_TOL
            total = math.fsum(bf.probability for bf in report.per_branch)
            return (_close("f_th", report.f_th, want, tol)
                    + _close("sum of branch probabilities", total, 1.0, CURVE_TOL))

        res.op(f"exact {protocol} m={m}",
               lambda protocol=protocol, params=params: exact_report(ProtocolId(protocol), params),
               check)


# --- quadrature_small_m ------------------------------------------------------

SWEEP_POINTS = 16
TRAJECTORIES = 200


def quadrature_inputs(rnd: random.Random) -> dict:
    return {
        "sweep": sorted(rnd.uniform(0.0, math.pi) for _ in range(SWEEP_POINTS)),
        "trajectories": [(p, rnd.uniform(*SAMPLED_THETA), rnd.randrange(2**32)) for p in PROTOCOLS],
    }


def quadrature_pass(inputs: dict, ctx: Context, res: Pass) -> None:
    import numpy as np
    from telecert import (InputFamily, ProtocolId, ProtocolParams, RngStream, bloch_average,
                          run_sampled, theta_average, theta_sweep, threshold_table)
    from telecert import certify

    # A warm computed-threshold cache would turn threshold_table into a dict lookup.
    certify._computed_threshold.cache_clear()

    for p in PROTOCOLS:
        want = 1.0 if p == "p0" else CHEAT_AVERAGE
        res.op(f"theta_average {p}", lambda p=p: theta_average(ProtocolId(p), 2, "gauss:64"),
               lambda v, want=want: _close("theta average", v, want, AVERAGE_TOL))

    for p in PROTOCOLS:
        def check_sweep(rows, p=p):
            out = []
            for theta, f in rows:
                out += _close(f"f_th({theta:.6f})", f, expected_f_th(p, theta), CURVE_TOL)
            return out if len(rows) == SWEEP_POINTS else out + [f"{len(rows)} sweep points"]

        res.op(f"theta_sweep {p}", lambda p=p: theta_sweep(ProtocolId(p), 2, inputs["sweep"]),
               check_sweep)

    for p in ("pb", "pab"):
        def check_bloch(report, p=p):
            out = _close("postselected", report.postselected, BLOCH_POSTSELECTED, AVERAGE_TOL)
            branch_p = BLOCH_BRANCH_P[p]
            for aa in report.per_announcement:
                out += _close(f"a={aa.a} branch probability", aa.branch_probability,
                              branch_p, AVERAGE_TOL)
                out += _close(f"a={aa.a} plain", aa.plain_average, BLOCH_PLAIN, AVERAGE_TOL)
                out += _close(f"a={aa.a} squared", aa.squared_average, BLOCH_SQUARED, AVERAGE_TOL)
                table = branch_p * (BLOCH_SQUARED if aa.a == 0 else BLOCH_POSTSELECTED)
                out += _close(f"a={aa.a} table value", aa.table_value, table, AVERAGE_TOL)
            return out

        res.op(f"bloch_average {p}", lambda p=p: bloch_average(ProtocolId(p), postselect=1),
               check_bloch)

    for m, family in ((2, "ghz"), (1, "bloch")):
        res.op(f"threshold_table m={m} {family}",
               lambda m=m, family=family: threshold_table(m, InputFamily(family)),
               lambda rows, m=m, family=family: check_threshold_rows(rows, m, family))

    for p, theta, seed in inputs["trajectories"]:
        params = ProtocolParams(m=2, family=InputFamily.GHZ, theta=theta)

        def sample(p=p, params=params, seed=seed):
            rng = RngStream(seed)
            return [run_sampled(ProtocolId(p), params, rng) for _ in range(TRAJECTORIES)]

        def check_traj(runs, p=p, theta=theta):
            psi = ghz_target(2, theta)
            fids = np.array([np.vdot(psi, rho.matrix @ psi).real for _, rho in runs])
            stderr = float(fids.std(ddof=1)) / math.sqrt(len(fids))
            return _within_stderr("mean trajectory fidelity", float(fids.mean()), stderr,
                                  expected_f_th(p, theta))

        res.op(f"run_sampled {p}", sample, check_traj)


def check_threshold_rows(rows, m: int, family: str) -> list[str]:
    want = expected_thresholds(m, family)
    got = {(r["model"], r["criterion"], r["source"]): r["threshold"] for r in rows}
    out = [f"rows {sorted(set(got) ^ set(want))} missing or unexpected"] if set(got) != set(want) else []
    for key in sorted(set(got) & set(want)):
        out += _close("/".join(key), got[key], want[key], AVERAGE_TOL)
    return out


# --- monte_carlo_shots -------------------------------------------------------

SHOTS = 4_000_000


def monte_carlo_inputs(rnd: random.Random) -> dict:
    return {"runs": [(p, rnd.uniform(*SAMPLED_THETA), rnd.randrange(2**32)) for p in PROTOCOLS]}


def monte_carlo_pass(inputs: dict, ctx: Context, res: Pass) -> None:
    from telecert import InputFamily, ProtocolId, ProtocolParams, monte_carlo_threshold

    for p, theta, seed in inputs["runs"]:
        params = ProtocolParams(m=2, family=InputFamily.GHZ, theta=theta)
        for threads in (1, NPROC):
            key = f"monte_carlo {p} threads={threads}"

            def check(report, key=key, p=p, theta=theta):
                out = _within_stderr("estimate", report.f_th, report.stderr, expected_f_th(p, theta))
                # same seed: bitwise equal across thread counts and across passes
                first = ctx.first_results.setdefault(p, _bits(report))
                if _bits(report) != first:
                    out.append("differs bitwise from the first call with this seed")
                return out

            res.op(key, lambda p=p, params=params, seed=seed, threads=threads:
                   monte_carlo_threshold(ProtocolId(p), params, SHOTS, seed, threads=threads),
                   check)


# --- cli_readme --------------------------------------------------------------

def cli_inputs(rnd: random.Random) -> dict:
    """The README's commands with seeded angles and seed, --threads capped at nproc."""
    def angle(low=0.0, high=math.pi):
        return f"{rnd.uniform(low, high):.12f}"

    mc_threads = str(min(4, NPROC))
    commands = [
        ("run p0 exact", ["run", "--protocol", "p0", "--m", "1", "--family", "bloch",
                          "--theta", angle(), "--phi", angle(), "--mode", "exact"]),
        ("run pa2 exact", ["run", "--protocol", "pa2", "--m", "2", "--family", "ghz",
                           "--theta", angle(), "--mode", "exact"]),
        ("run pb monte_carlo", ["run", "--protocol", "pb", "--m", "2", "--family", "ghz",
                                "--theta", angle(*SAMPLED_THETA), "--mode", "monte_carlo",
                                "--shots", "100000", "--seed", str(rnd.randrange(2**31)),
                                "--threads", mc_threads]),
        ("sweep pa1", ["sweep", "--protocol", "pa1", "--m", "2", "--points", "21",
                       "--format", "csv"]),
        ("average pab", ["average", "--protocol", "pab", "--m", "2", "--quadrature", "gauss:64"]),
        ("certify observed", ["certify", "--model", "cheating_a", "--m", "1",
                              "--observed", "0.55"]),
        ("certify self", ["certify", "--model", "cheating_b", "--criterion", "theta_average",
                          "--family", "ghz", "--m", "2", "--self"]),
        ("enumerate pb", ["enumerate", "--protocol", "pb", "--m", "1", "--family", "bloch",
                          "--theta", angle()]),
        ("thresholds ghz m=2", ["thresholds", "--m", "2", "--family", "ghz"]),
        ("thresholds bloch m=1", ["thresholds", "--m", "1", "--family", "bloch"]),
        # m + 2 = 22 is inside the advertised 24-qubit cap, but the dense GHZ
        # gate asks numpy for 16 TiB: the one operation that fails today.
        ("run p0 m=20", ["run", "--protocol", "p0", "--m", "20", "--family", "ghz",
                         "--theta", angle(), "--mode", "exact"]),
    ]
    return {"commands": commands}


EXPECTED_FAILURE = "run p0 m=20"


def check_cli(name: str, argv: list[str], code: int, out: str, err: str):
    """Problems with one command's output; None when it failed."""
    if name == EXPECTED_FAILURE:
        # Mended when it prints f_th = 1 or exits 3 with a one-line reason.
        if code == 3 and len(err.strip().splitlines()) == 1 and err.startswith("capacity error"):
            return []
        if code != 0:
            return None
    elif code != 0:
        return None
    args = dict(zip(argv[1::2], argv[2::2]))
    try:
        if "--format" in args:
            payload = list(csv.DictReader(io.StringIO(out)))
        else:
            payload = json.loads(out)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    cmd = argv[0]
    theta = float(args.get("--theta", 0.0))
    protocol = args.get("--protocol")
    problems: list[str] = []
    if cmd == "run" and args["--mode"] == "exact":
        tol = EXACT_TOL if protocol == "p0" else CURVE_TOL
        problems += _close("f_th", payload["f_th"], expected_f_th(protocol, theta), tol)
        total = math.fsum(b["probability"] for b in payload["per_branch"])
        problems += _close("sum of branch probabilities", total, 1.0, CURVE_TOL)
    elif cmd == "run":
        problems += _within_stderr("estimate", payload["f_th"], payload["stderr"],
                                   expected_f_th(protocol, theta))
        if payload["seed"] != int(args["--seed"]) or payload["shots"] != int(args["--shots"]):
            problems.append("seed or shots not recorded")
    elif cmd == "sweep":
        for row in payload:
            t = float(row["theta"])
            problems += _close(f"f_th({t:.6f})", float(row["f_th"]), expected_f_th(protocol, t),
                               CURVE_TOL)
        if len(payload) != int(args["--points"]):
            problems.append(f"{len(payload)} sweep rows")
    elif cmd == "average":
        problems += _close("theta average", payload["theta_average"], CHEAT_AVERAGE, AVERAGE_TOL)
    elif cmd == "certify" and "--self" in argv:
        problems += _close("observed", payload["observed"], CHEAT_AVERAGE, AVERAGE_TOL)
        problems += _close("threshold", payload["threshold"], CHEAT_AVERAGE, AVERAGE_TOL)
        if payload["verdict"] != "deny":
            problems.append(f"self-evaluation verdict {payload['verdict']!r}, want 'deny'")
    elif cmd == "certify":
        problems += _close("threshold", payload["threshold"], expected_f_th("pa1", 0.0), EXACT_TOL)
        if payload["verdict"] != "issue":
            problems.append(f"verdict {payload['verdict']!r} for 0.55 > 1/2, want 'issue'")
    elif cmd == "enumerate":
        total = math.fsum(b["probability"] for b in payload["branches"])
        problems += _close("sum of branch probabilities", total, 1.0, EXACT_TOL)
        for b in payload["branches"]:
            if b["probability"] > 0:
                problems += _close("output trace", b["output_trace"], 1.0, EXACT_TOL)
    elif cmd == "thresholds":
        problems += check_threshold_rows(payload["thresholds"], int(args["--m"]), args["--family"])
    return problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


CLI_ENTRY = "import sys; from telecert.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60


def cli_pass(inputs: dict, ctx: Context, res: Pass) -> None:
    """Each command in a fresh interpreter, the way the console script runs it.

    Traced passes run the same argv through traced_cli.py, which calls
    telecert.cli.main in-process under the tracer and reports its spans.
    """
    env = child_env()
    for name, argv in inputs["commands"]:
        if ctx.traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]

        def call(cmd=cmd):
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            if not ctx.traced:
                return proc.returncode, proc.stdout, proc.stderr
            child = json.loads(proc.stdout.splitlines()[-1])
            res.layers.append(child["layers"])
            return child["code"], child["stdout"], child["stderr"]

        res.op(name, call, lambda r, name=name, argv=argv: check_cli(name, argv, *r))


# --- registry ----------------------------------------------------------------

def _total(times: dict[str, float], *prefixes: str) -> float:
    return math.fsum(t for name, t in times.items() if name.startswith(prefixes))


def exact_rates(times: dict[str, float]) -> dict[str, float]:
    return {"exact_points_per_s": len(times) / _total(times, "exact")}


def quadrature_rates(times: dict[str, float]) -> dict[str, float]:
    points = len(PROTOCOLS) * (64 + SWEEP_POINTS) + 2 * 64 * 8
    return {
        "exact_points_per_s": points / _total(times, "theta_average", "theta_sweep", "bloch_average"),
        "trajectories_per_s": len(PROTOCOLS) * TRAJECTORIES / _total(times, "run_sampled"),
    }


def monte_carlo_rates(times: dict[str, float]) -> dict[str, float]:
    shots = len(PROTOCOLS) * SHOTS
    serial = math.fsum(t for name, t in times.items() if name.endswith(" threads=1"))
    threaded = math.fsum(t for name, t in times.items() if name.endswith(f" threads={NPROC}"))
    return {"shots_per_s": shots / serial, "shots_per_s_threaded": shots / threaded}


def cli_rates(times: dict[str, float]) -> dict[str, float]:
    readme = sorted(t for name, t in times.items() if name != EXPECTED_FAILURE)
    return {"cli_command_s": statistics.median(readme)}


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    run_pass: object
    rates: object               # median time per operation -> the workload's own rates
    in_children: bool = False   # telecert runs in child interpreters, traced there


WORKLOADS = {
    "exact_large_m": Workload(exact_inputs, exact_pass, exact_rates),
    "quadrature_small_m": Workload(quadrature_inputs, quadrature_pass, quadrature_rates),
    "monte_carlo_shots": Workload(monte_carlo_inputs, monte_carlo_pass, monte_carlo_rates),
    "cli_readme": Workload(cli_inputs, cli_pass, cli_rates, in_children=True),
}


def make_inputs(workload: str, seed: int) -> dict:
    return WORKLOADS[workload].make_inputs(random.Random(f"{workload}:{seed}"))
