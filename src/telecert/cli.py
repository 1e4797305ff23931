"""Command-line front end.

Subcommands: run, sweep, average, certify, enumerate, thresholds. Angles are
radians. A config file (--config, KEY=VALUE lines, same keys as the long
flags) is parsed as those flags placed before the command line's own, so
flags win and a bad key or value exits 2 as the flag would; TELECERT_SEED
gives run --mode monte_carlo a seed neither gives, and nothing else reads
it. Each cmd_* returns its payload dict, and main prints it through _emit,
the one stdout writer: canonical JSON, an indented table, or CSV of the rows
the payload holds (run, sweep, enumerate, thresholds; average and certify
hold none and exit 2 under --format csv).
Output is deterministic for a fixed (config, seed): no timestamps, canonical
JSON key order, full-precision floats.

Exit codes: 0 success, 2 configuration error, 3 memory exhausted. m is a
label, not a register size: every command accepts any m >= 1.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .certify import (Adversary, Criterion, ThresholdSource, decide, select_threshold,
                      threshold_table)
from .fidelity import exact_report, monte_carlo_threshold, theta_average, theta_sweep
from .protocols import InputFamily, ProtocolId, ProtocolParams, run_exact

SEED_ENV = "TELECERT_SEED"

F_TH_DEFINITION = "sum over announcements of probability-weighted target overlap"

# A token that starts a negative float, -1e-3 and -inf included, is a value, not an
# option: argparse's own matcher takes only the likes of -5 and -.5 on some versions.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _config_tokens(path: str) -> list[str]:
    """A config file's KEY=VALUE lines as --key=value flags; self=true is --self."""
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip().lower().replace("_", "-"), value.strip()
            if key == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot name another, "
                                 f"got config={value}")
            if key == "self" and value.lower() in ("0", "false", "no"):
                continue  # --self takes no value; any other one is refused as --self=value
            truthy = key == "self" and value.lower() in ("1", "true", "yes")
            tokens.append("--self" if truthy else f"--{key}={value}")
    return tokens


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with the --config file's flags placed right after the subcommand."""
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", nargs="?")  # a missing value is the full parse's error
    path = config.parse_known_args(argv)[0].config
    if path:
        # argv[0] is the subcommand: no top-level option takes a value
        argv = argv[:1] + _config_tokens(path) + argv[1:]
    return parser.parse_args(argv)


def _params_from(args) -> ProtocolParams:
    return ProtocolParams(m=args.m, family=InputFamily.parse(args.family),
                          theta=args.theta, phi=args.phi)


def _emit(payload: dict, fmt: str) -> None:
    """The one stdout writer; CSV is the payload's list of rows, headed by the first row's keys."""
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif fmt == "table":
        _emit_table(payload)
    else:
        rows = next((v for v in payload.values() if isinstance(v, list)), None)
        if not rows:
            raise ValueError("csv format is not available for this command")
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _emit_table(payload, indent: str = "") -> None:
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                sys.stdout.write(f"{indent}{key}:\n")
                _emit_table(value, indent + "  ")
            else:
                sys.stdout.write(f"{indent}{key} = {value!r}\n")
    elif isinstance(payload, list):
        for item in payload:
            _emit_table(item, indent + "  ")
            sys.stdout.write(f"{indent}--\n")
    else:
        sys.stdout.write(f"{indent}{payload!r}\n")


def cmd_run(args) -> dict:
    params = _params_from(args)
    protocol = ProtocolId.parse(args.protocol)
    if args.mode == "exact":
        report = exact_report(protocol, params)
    else:
        seed, raw = args.seed, os.environ.get(SEED_ENV)
        if seed is None and raw:  # read only here, the one command that uses a seed
            try:
                seed = int(raw)
            except ValueError:
                raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
        if seed is None:
            raise ValueError("monte_carlo mode requires a seed (flag, config, or env)")
        report = monte_carlo_threshold(protocol, params, args.shots, seed,
                                       threads=args.threads)
    payload = {
        "protocol": report.protocol.value,
        "m": report.params.m,
        "family": report.params.family.value,
        "theta": report.params.theta,
        "phi": report.params.phi,
        "mode": report.mode,
        "f_th": report.f_th,
        "f_th_definition": F_TH_DEFINITION,
        "per_branch": [{"a": bf.announcement.a, "b": bf.announcement.b,
                        "probability": bf.probability, "fidelity": bf.fidelity}
                       for bf in report.per_branch],
    }
    if report.mode == "monte_carlo":
        payload.update(shots=report.shots, stderr=report.stderr, seed=report.seed)
    return payload


def cmd_sweep(args) -> dict:
    protocol = ProtocolId.parse(args.protocol)
    for theta in (args.theta_start, args.theta_stop):  # before linspace, which warns on inf
        ProtocolParams(m=args.m, family=InputFamily.GHZ, theta=theta)
    if not np.isfinite(args.theta_stop - args.theta_start):  # linspace would warn, then give nan
        raise ValueError(f"the sweep from theta {args.theta_start} to {args.theta_stop} "
                         "spans more than the largest float")
    if args.points < 1:
        raise ValueError(f"points must be >= 1, got {args.points}")
    grid = np.linspace(args.theta_start, args.theta_stop, args.points)
    return {
        "protocol": protocol.value,
        "m": args.m,
        "family": "ghz",
        "f_th_definition": F_TH_DEFINITION,
        "points": [{"theta": t, "f_th": f} for t, f in theta_sweep(protocol, args.m, grid)],
    }


def cmd_average(args) -> dict:
    protocol = ProtocolId.parse(args.protocol)
    value = theta_average(protocol, args.m, args.quadrature)
    return {
        "protocol": protocol.value,
        "m": args.m,
        "family": "ghz",
        "criterion": "theta_average",
        "quadrature": args.quadrature,
        "theta_average": value,
        "definition": "average of f_th(theta) for theta uniform on [0, pi)",
    }


def cmd_certify(args) -> dict:
    adversary = Adversary.parse(args.model)
    criterion = Criterion.parse(args.criterion)
    family = InputFamily.parse(args.family)
    if args.self_evaluate:
        # Self-evaluation feeds the adversary's own computed optimum back in,
        # always against the computed threshold: the cheater cannot strictly
        # exceed their own optimum, so the verdict is deny.
        if args.observed is not None:
            raise ValueError("--self observes the model's own optimum; drop --observed")
        if args.threshold_source == "tabulated":
            raise ValueError("--self compares against the computed threshold; "
                             "drop --threshold-source tabulated")
        source = ThresholdSource.COMPUTED
        observed, _ = select_threshold(adversary, criterion, args.m, source)
    else:
        if args.observed is None:
            raise ValueError("provide --observed or --self")
        observed = args.observed
        source = ThresholdSource(args.threshold_source or "tabulated")
    decision = decide(observed, adversary, m=args.m, family=family, criterion=criterion,
                      source=source)
    return {
        "model": adversary.value,
        "certificate": decision.certificate,
        "criterion": decision.criterion,
        "observed": decision.observed,
        "threshold": decision.threshold,
        "threshold_source": source.value,
        "comparison": decision.comparison,
        "verdict": decision.verdict,
        "provenance": decision.provenance,
        "self_evaluation": bool(args.self_evaluate),
    }


def cmd_enumerate(args) -> dict:
    params = _params_from(args)
    protocol = ProtocolId.parse(args.protocol)
    rows = [{"a": br.announcement.a, "b": br.announcement.b, "probability": br.probability,
             "output_trace": None if br.logical is None else br.logical.trace,
             "subnormalized_trace": br.probability}
            for br in run_exact(protocol, params)]
    return {
        "protocol": protocol.value,
        "m": params.m,
        "family": params.family.value,
        "theta": params.theta,
        "phi": params.phi,
        "branches": rows,
    }


def cmd_thresholds(args) -> dict:
    rows = threshold_table(args.m, InputFamily.parse(args.family))
    return {"m": args.m, "family": args.family, "thresholds": rows}


def _add_common(sub, protocol=True, angles=True):
    sub._negative_number_matcher = _NEGATIVE_NUMBER  # argparse's private hook; see above
    sub.add_argument("--config", help="config file with KEY=VALUE lines (flags override)")
    sub.add_argument("--format", default="json", choices=["json", "csv", "table"])
    sub.add_argument("--m", type=int, default=1, help="teleported-share register size")
    if protocol:
        sub.add_argument("--protocol", default="p0", help="p0 | pa1 | pa2 | pb | pab")
    if angles:
        sub.add_argument("--family", default="bloch", help="trivial | ghz | bloch")
        sub.add_argument("--theta", type=float, default=0.0, help="polar angle, radians")
        sub.add_argument("--phi", type=float, default=0.0, help="azimuthal angle, radians")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="telecert",
                                     description="Adversarial teleportation simulator and certifier")
    parser.add_argument("--version", action="version", version=f"telecert {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one protocol and report f_th")
    _add_common(p_run)
    p_run.add_argument("--mode", default="exact", choices=["exact", "monte_carlo"])
    p_run.add_argument("--shots", type=int, default=100000)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=1,
                       help="Monte Carlo workers, at most one per chunk and per CPU; "
                            "results do not depend on it")
    p_run.set_defaults(func=cmd_run)

    p_sweep = subs.add_parser("sweep", help="exact f_th over a theta grid (ghz family)")
    _add_common(p_sweep, angles=False)
    p_sweep.add_argument("--theta-start", type=float, default=0.0)
    p_sweep.add_argument("--theta-stop", type=float, default=3.141592653589793)
    p_sweep.add_argument("--points", type=int, default=21)
    p_sweep.set_defaults(func=cmd_sweep)

    p_avg = subs.add_parser("average", help="theta-averaged f_th (ghz family)")
    _add_common(p_avg, angles=False)
    p_avg.add_argument("--quadrature", default="exact",
                       help="exact (the default) or gauss:<n>")
    p_avg.set_defaults(func=cmd_average)

    p_cert = subs.add_parser("certify", help="issue or deny a certificate")
    _add_common(p_cert, protocol=False, angles=False)
    p_cert.add_argument("--family", default="bloch", help="trivial | ghz | bloch")
    p_cert.add_argument("--model", required=True,
                        help="honest | cheating_a | cheating_b | cheating_ab")
    p_cert.add_argument("--criterion", default="pointwise",
                        help="pointwise | theta_average | bloch_postselected")
    p_cert.add_argument("--observed", type=float, default=None)
    p_cert.add_argument("--threshold-source", choices=["tabulated", "computed"])
    p_cert.add_argument("--self", dest="self_evaluate", action="store_true",
                        help="evaluate the model's own protocol optimum")
    p_cert.set_defaults(func=cmd_certify)

    p_enum = subs.add_parser("enumerate", help="dump the exact branch set")
    _add_common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_thr = subs.add_parser("thresholds", help="dump the certification threshold table")
    _add_common(p_thr, protocol=False, angles=False)
    p_thr.add_argument("--family", default="bloch", help="trivial | ghz | bloch")
    p_thr.set_defaults(func=cmd_thresholds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(parser, argv)
        _emit(args.func(args), args.format)
        return 0
    except MemoryError as exc:
        print(f"capacity error: {str(exc) or 'memory exhausted'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
