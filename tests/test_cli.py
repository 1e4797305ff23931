import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import telecert
from telecert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_exact_honest(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "p0", "--m", "1",
                           "--family", "bloch", "--theta", "1.0", "--phi", "0.3",
                           "--mode", "exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["f_th"] == pytest.approx(1.0, abs=1e-12)
    assert payload["f_th_definition"]
    assert len(payload["per_branch"]) == 4


def test_run_exact_pa2_ghz(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "pa2", "--m", "2",
                           "--family", "ghz", "--theta", "1.5707963", "--mode", "exact")
    assert code == 0
    assert json.loads(out)["f_th"] == pytest.approx(0.25, abs=1e-7)


def test_run_monte_carlo_records_seed(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "pa2", "--m", "1",
                           "--family", "bloch", "--theta", "0.9",
                           "--mode", "monte_carlo", "--shots", "20000", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7 and payload["shots"] == 20000
    assert abs(payload["f_th"] - 0.5) <= 4 * payload["stderr"] + 1e-12


def test_sweep_pa1_csv_endpoints(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--protocol", "pa1", "--m", "2",
                           "--points", "9", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    f = [float(r["f_th"]) for r in rows]
    assert f[0] == pytest.approx(0.5, abs=1e-12)
    assert f[4] == pytest.approx(0.25, abs=1e-12)
    assert f[-1] == pytest.approx(0.5, abs=1e-12)
    thetas = [float(r["theta"]) for r in rows]
    assert thetas == sorted(thetas)


def test_sweep_p0_constant(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--protocol", "p0", "--m", "2", "--points", "5")
    points = json.loads(out)["points"]
    assert all(abs(p["f_th"] - 1.0) < 1e-12 for p in points)


def test_average_command(capsys):
    code, out, _ = run_cli(capsys, "average", "--protocol", "pab", "--m", "2",
                           "--quadrature", "gauss:64")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_average"] == pytest.approx(3 / 8, abs=1e-9)
    assert payload["criterion"] == "theta_average"
    # the default is the closed form, with no nodes
    code, out, _ = run_cli(capsys, "average", "--protocol", "pa1", "--m", "2")
    payload = json.loads(out)
    assert (code, payload["quadrature"], payload["theta_average"]) == (0, "exact", 0.375)


def test_certify_observed(capsys):
    code, out, _ = run_cli(capsys, "certify", "--model", "cheating_a", "--m", "1",
                           "--observed", "0.55")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "issue" and payload["certificate"] == 3
    assert payload["provenance"]

    code, out, _ = run_cli(capsys, "certify", "--model", "cheating_ab",
                           "--criterion", "theta_average", "--family", "ghz",
                           "--m", "2", "--observed", "0.375")
    assert json.loads(out)["verdict"] == "deny"


def test_certify_reports_its_issue_rule(capsys):
    # issued only above threshold + 1e-12: pb's computed threshold is 1/2,
    # and the observation 1/2 is denied
    for observed, verdict in (("0.5", "deny"), ("0.500000001", "issue")):
        code, out, _ = run_cli(capsys, "certify", "--model", "cheating_b", "--m", "2",
                               "--family", "ghz", "--threshold-source", "computed",
                               "--observed", observed)
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == verdict
        assert payload["comparison"] == "greater-than-threshold-plus-1e-12"
        assert payload["threshold"] == 0.5


@pytest.mark.parametrize("model,criterion,family,m", [
    ("cheating_a", "pointwise", "ghz", 2),
    ("cheating_a", "theta_average", "ghz", 2),
    ("cheating_b", "pointwise", "ghz", 2),
    ("cheating_b", "theta_average", "ghz", 2),
    ("cheating_b", "bloch_postselected", "bloch", 1),
    ("cheating_ab", "theta_average", "ghz", 2),
])
def test_certify_self_always_denies_cheats(capsys, model, criterion, family, m):
    code, out, _ = run_cli(capsys, "certify", "--model", model, "--criterion", criterion,
                           "--family", family, "--m", str(m), "--self")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "deny"
    assert payload["self_evaluation"] is True
    assert payload["threshold_source"] == "computed"


# The (model, criterion) pairs with no threshold under either source.
UNDEFINED_PAIRS = [
    ("honest", "theta_average", "ghz", "2"),
    ("honest", "bloch_postselected", "bloch", "1"),
    ("cheating_a", "bloch_postselected", "bloch", "1"),
]


@pytest.mark.parametrize("model,criterion,family,m", UNDEFINED_PAIRS)
def test_certify_refuses_undefined_pairs_under_both_sources(capsys, model, criterion, family, m):
    want = f"error: criterion {criterion} is not defined for {model}\n"
    argv = ("certify", "--model", model, "--criterion", criterion, "--family", family, "--m", m)
    for source in ("tabulated", "computed"):
        code, out, err = run_cli(capsys, *argv, "--observed", "0.99", "--threshold-source", source)
        assert (code, out, err) == (2, "", want)
    code, out, err = run_cli(capsys, *argv, "--self")
    assert (code, out, err) == (2, "", want)
    # the pair is checked before the family
    other = "bloch" if family == "ghz" else "ghz"
    code, out, err = run_cli(capsys, "certify", "--model", model, "--criterion", criterion,
                             "--family", other, "--m", "1", "--observed", "0.99")
    assert (code, out, err) == (2, "", want)
    code, out, _ = run_cli(capsys, "thresholds", "--m", m, "--family", family)
    assert code == 0
    assert (model, criterion) not in {(r["model"], r["criterion"])
                                      for r in json.loads(out)["thresholds"]}


def test_certify_refuses_a_criterion_off_its_family(capsys):
    for criterion, family, m, want in (
            ("theta_average", "bloch", "1",
             "error: theta_average criterion applies to the ghz family\n"),
            ("bloch_postselected", "ghz", "2",
             "error: bloch_postselected criterion applies to the bloch family (m=1)\n")):
        for source in ("tabulated", "computed"):
            code, out, err = run_cli(capsys, "certify", "--model", "cheating_b", "--criterion",
                                     criterion, "--family", family, "--m", m, "--observed", "0.9",
                                     "--threshold-source", source)
            assert (code, out, err) == (2, "", want)


def test_enumerate_branches(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--protocol", "pb", "--m", "1",
                           "--family", "bloch", "--theta", "0.8")
    rows = json.loads(out)["branches"]
    assert len(rows) == 4
    assert all(r["subnormalized_trace"] == pytest.approx(0.25, abs=1e-12) for r in rows)


def test_thresholds_table(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--m", "2", "--family", "ghz")
    rows = json.loads(out)["thresholds"]
    tab = {(r["model"], r["criterion"]): r["threshold"]
           for r in rows if r["source"] == "tabulated"}
    assert tab[("cheating_b", "theta_average")] == pytest.approx(3 / 16)
    assert all(r["provenance"] for r in rows)


def test_byte_identical_output_and_json_roundtrip(capsys):
    argv = ["run", "--protocol", "pb", "--m", "2", "--family", "ghz",
            "--theta", "0.7", "--mode", "monte_carlo", "--shots", "5000",
            "--seed", "21"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *argv, "--threads", "4")
    assert out3 == out1  # thread count does not change the bytes
    payload = json.loads(out1)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out1


# Captured from an earlier build: a fixed seed must keep printing these bytes.
# The probabilities (the tally) date from that build; the fidelities, and the
# f_th built from them, are read off the compiled branch maps.
PINNED_MONTE_CARLO_STDOUT = """\
{
  "f_th": 0.3480916020872137,
  "f_th_definition": "sum over announcements of probability-weighted target overlap",
  "family": "ghz",
  "m": 2,
  "mode": "monte_carlo",
  "per_branch": [
    {
      "a": 0,
      "b": 0,
      "fidelity": 0.6574047222986963,
      "probability": 0.24755
    },
    {
      "a": 0,
      "b": 1,
      "fidelity": 0.6574047222986963,
      "probability": 0.25485
    },
    {
      "a": 1,
      "b": 0,
      "fidelity": 0.035794754028031894,
      "probability": 0.2502
    },
    {
      "a": 1,
      "b": 1,
      "fidelity": 0.035794754028031894,
      "probability": 0.2474
    }
  ],
  "phi": 0.0,
  "protocol": "pb",
  "seed": 7,
  "shots": 20000,
  "stderr": 0.0021977527456760004,
  "theta": 0.9
}
"""


def test_monte_carlo_stdout_pinned(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "pb", "--m", "2", "--family", "ghz",
                           "--theta", "0.9", "--mode", "monte_carlo", "--shots", "20000",
                           "--seed", "7")
    assert code == 0
    assert out == PINNED_MONTE_CARLO_STDOUT


def test_csv_roundtrip_idempotent(capsys):
    argv = ["sweep", "--protocol", "pab", "--m", "2", "--points", "7", "--format", "csv"]
    _, out, _ = run_cli(capsys, *argv)
    rows = list(csv.DictReader(io.StringIO(out)))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["theta", "f_th"], lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({"theta": repr(float(r["theta"])), "f_th": repr(float(r["f_th"]))})
    assert buf.getvalue() == out


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol=pa2\nm=2\nfamily=ghz\ntheta=1.5707963267948966\n"
                   "# comment line\nmode=exact\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["f_th"] == pytest.approx(0.25, abs=1e-12)
    # explicit flag wins over the file
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--theta", "0.0")
    assert json.loads(out)["f_th"] == pytest.approx(0.5, abs=1e-12)


def test_config_entries_parse_as_flags(tmp_path, capsys):
    # a config entry is the flag it names: choices, types and unknown names
    # exit 2 as on the command line
    run = ("run", "--protocol", "p0", "--m", "1")
    certify = ("certify", "--model", "cheating_a", "--m", "1", "--observed", "0.6")
    for argv, text in ((run, "mode=exaxt\nseed=3\nshots=1000\n"), (run, "thetta=1.0\n"),
                       (run, "m=two\n"), (certify, "self=ture\n")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    # an explicit flag wins over the file, abbreviated or not, before or after --config
    cfg = tmp_path / "certify.cfg"
    cfg.write_text("observed=0.3\n")
    for argv in (("--obs", "0.9", "--config", str(cfg)), ("--config", str(cfg), "--observed", "0.9")):
        code, out, _ = run_cli(capsys, "certify", "--model", "cheating_a", "--m", "1", *argv)
        assert code == 0 and json.loads(out)["verdict"] == "issue"
    # required flags and --self may come from the file
    cfg.write_text("model=cheating_b\ncriterion=theta_average\nfamily=ghz\nm=2\nself=yes\n")
    code, out, _ = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 0 and json.loads(out)["self_evaluation"] is True
    cfg.write_text("self=no\n")
    code, out, _ = run_cli(capsys, *certify, "--config", str(cfg))
    assert code == 0 and json.loads(out)["self_evaluation"] is False


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("TELECERT_SEED", "33")
    code, out, _ = run_cli(capsys, "run", "--protocol", "pa1", "--m", "1",
                           "--family", "bloch", "--theta", "1.1",
                           "--mode", "monte_carlo", "--shots", "1000")
    assert code == 0
    assert json.loads(out)["seed"] == 33


def test_seed_flag_wins_over_a_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("TELECERT_SEED", "abc")
    code, out, err = run_cli(capsys, "run", "--protocol", "pa1", "--m", "1",
                             "--mode", "monte_carlo", "--shots", "1000", "--seed", "5")
    assert (code, err, json.loads(out)["seed"]) == (0, "", 5)


def test_import_computes_nothing():
    # Work moved into import would be paid by every command, however small.
    code = ("import telecert.cli\n"
            "from telecert import certify, fidelity, protocols\n"
            "print([f.cache_info().currsize for f in (fidelity._gauss_legendre, "
            "fidelity._half_circle_moments, fidelity._icosahedron, "
            "protocols._branch_maps, protocols._trajectory_table, "
            "certify._computed_threshold)])")
    env = dict(os.environ, PYTHONPATH=str(Path(telecert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0, 0, 0, 0, 0]\n", "")


def test_import_leaves_the_thread_pool_out():
    # only Monte Carlo runs a pool; it imports concurrent.futures when called
    code = "import sys, telecert.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(telecert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "run", "--protocol", "p9")
    assert code == 2 and "unknown protocol" in err
    # m is a label, not a register size: no m >= 1 is refused
    for m in ("20", "23", "30"):
        code, out, err = run_cli(capsys, "run", "--protocol", "p0", "--m", m, "--family", "ghz")
        assert (code, err) == (0, "") and json.loads(out)["f_th"] == pytest.approx(1.0, abs=1e-12)
    code, _, err = run_cli(capsys, "run", "--protocol", "p0", "--mode", "monte_carlo")
    assert code == 2 and "seed" in err
    code, _, err = run_cli(capsys, "certify", "--model", "cheating_a")
    assert code == 2  # neither --observed nor --self
    code, _, err = run_cli(capsys, "average", "--protocol", "pa1", "--m", "2",
                           "--quadrature", "gauss:1")
    assert code == 2
    code, _, err = run_cli(capsys, "run", "--theta", "nan")
    assert code == 2 and err == "error: theta must be finite, got nan\n"
    code, _, err = run_cli(capsys, "run", "--phi", "inf")
    assert code == 2 and err == "error: phi must be finite, got inf\n"
    # sweep bounds are checked before the grid is built: no linspace warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (("--theta-stop", "inf"), ("--theta-start", "nan")):
            code, out, err = run_cli(capsys, "sweep", *argv)
            assert code == 2 and out == "" and err.count("\n") == 1
            assert "theta must be finite" in err
    # m is checked before the point count
    code, _, err = run_cli(capsys, "sweep", "--m", "0", "--points", "0")
    assert code == 2 and err == "error: m must be >= 1\n"
    # averages and computed thresholds read compiled maps, not per-point
    # ProtocolParams; they must still refuse the m those would refuse
    for argv in (("average", "--m", "0"), ("thresholds", "--m", "0", "--family", "ghz")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err == "error: m must be >= 1\n"
    for argv in (("average", "--m", "23"), ("thresholds", "--m", "23", "--family", "ghz"),
                 ("certify", "--model", "cheating_a", "--criterion", "pointwise",
                  "--family", "ghz", "--m", "23", "--self"),
                 ("certify", "--model", "cheating_a", "--family", "ghz", "--m", "30",
                  "--observed", "0.6")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and json.loads(out)
    # certify and thresholds refuse the (m, family) pairs run refuses, with its messages
    for argv, want in (
            (("certify", "--model", "cheating_a", "--m", "0", "--observed", "0.6"),
             (2, "error: m must be >= 1\n")),
            (("certify", "--model", "cheating_a", "--m", "-3", "--observed", "0.6"),
             (2, "error: m must be >= 1\n")),
            (("certify", "--model", "cheating_a", "--m", "30", "--observed", "0.6"),
             (2, "error: bloch family requires m = 1\n")),
            (("certify", "--model", "cheating_b", "--criterion", "bloch_postselected",
              "--family", "bloch", "--m", "2", "--observed", "0.7"),
             (2, "error: bloch family requires m = 1\n")),
            (("thresholds", "--m", "2", "--family", "bloch"),
             (2, "error: bloch family requires m = 1\n"))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == want and out == ""
        code, _, err = run_cli(capsys, "run", "--m", argv[argv.index("--m") + 1],
                               "--family", "bloch")
        assert (code, err) == want


def _run_capped(*argv):
    """The CLI in a child that caps its own address space at 512 MiB once telecert is imported."""
    code = ("import resource, sys; "
            "from telecert.cli import main; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)); "
            "sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(telecert.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    # A sweep holds its theta grid: 1e8 points ask np.linspace for 763 MiB,
    # which the 512 MiB address cap refuses with a MemoryError.
    ("sweep", "--protocol", "pa1", "--m", "2", "--points", "100000000"),
    # leggauss's 1e8-node rule raises a MemoryError with no message
    ("average", "--quadrature", "gauss:100000000"),
], ids=["sweep", "gauss"])
def test_memory_exhaustion_exits_3(argv):
    proc = _run_capped(*argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert re.fullmatch(r"capacity error: \S.*\n", proc.stderr)


def test_monte_carlo_shot_count_has_memory_bound():
    # Monte Carlo draws in fixed-size chunks inside the workers: 1e8 shots
    # (a 1.49 GiB Philox block if held whole) run under the 512 MiB cap.
    proc = _run_capped("run", "--protocol", "pb", "--m", "2", "--family", "ghz",
                       "--theta", "0.7", "--mode", "monte_carlo", "--shots", "100000000",
                       "--seed", "1", "--threads", "2")
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["shots"] == 100_000_000
    assert abs(payload["f_th"] - (0.5 - math.sin(0.7) ** 2 / 4)) <= 4 * payload["stderr"]


@pytest.mark.parametrize("m", [10, 22])
def test_pa2_runs_without_register_density(m):
    # A run holds C's ancillas as one logical qubit, so its register is four
    # qubits at any m; a density of the whole register (256 MiB at m = 10) or
    # a dense output at m = 22 (256 TiB) would not fit the 512 MiB cap.
    proc = _run_capped("run", "--protocol", "pa2", "--m", str(m), "--family", "ghz",
                       "--theta", "1.0")
    assert proc.returncode == 0 and proc.stderr == ""
    f_th = json.loads(proc.stdout)["f_th"]
    assert f_th == pytest.approx(0.5 - math.sin(1.0) ** 2 / 4, abs=1e-12)


def test_sweep_at_m22_runs_capped():
    # a sweep reads the compiled maps: no 2^22-amplitude target per point
    proc = _run_capped("sweep", "--protocol", "pa1", "--m", "22", "--points", "10000")
    assert proc.returncode == 0 and proc.stderr == ""
    points = json.loads(proc.stdout)["points"]
    assert len(points) == 10000
    assert all(abs(p["f_th"] - (0.5 - math.sin(p["theta"]) ** 2 / 4)) <= 1e-12 for p in points)


def _readme_commands():
    """Each telecert command in README's "Command line" block, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("telecert ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[:3]))
def test_readme_command_runs(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if "csv" in argv:
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(None not in r.values() for r in rows)
    else:
        json.loads(out)


@pytest.mark.parametrize("argv", [a for a in _readme_commands() if a[a.index("--m") + 1] == "2"],
                         ids=lambda argv: " ".join(argv[:3]))
def test_readme_command_at_any_m(capsys, argv):
    # every value at m >= 2 is the m = 2 value; only the m field and the
    # m=<m> of provenance strings change, and nothing is allocated per qubit
    i = argv.index("--m") + 1
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    for m in ("23", "1000000"):
        proc = _run_capped(*argv[:i], m, *argv[i + 1:])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == re.sub(r'("m": |m=)2\b', rf"\g<1>{m}", want)


def test_seed_environment_is_read_only_where_a_seed_is_used(capsys, monkeypatch):
    monkeypatch.setenv("TELECERT_SEED", "abc")
    for argv in (("sweep", "--points", "2"), ("run", "--mode", "exact")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and json.loads(out)


def _without_format(argv):
    i = argv.index("--format") if "--format" in argv else len(argv)
    return [*argv[:i], *argv[i + 2:]]


@pytest.mark.parametrize("argv", [a for a in _readme_commands()
                                  if a[0] in ("run", "sweep", "enumerate", "thresholds")],
                         ids=lambda argv: " ".join(argv[:3]))
def test_csv_rows_are_the_json_rows(capsys, argv):
    argv = _without_format(argv)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    [rows] = [v for v in json.loads(out).values() if isinstance(v, list)]
    want = [{k: str(v) for k, v in row.items()} for row in rows]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == want


@pytest.mark.parametrize("argv", [a for a in _readme_commands() if a[0] in ("average", "certify")],
                         ids=lambda argv: " ".join(argv[:3]))
def test_csv_refused_where_the_payload_holds_no_rows(capsys, argv):
    code, out, err = run_cli(capsys, *_without_format(argv), "--format", "csv")
    assert (code, out, err) == (2, "", "error: csv format is not available for this command\n")


# Captured from an earlier build: --format table must keep printing these bytes.
PINNED_RUN_TABLE = """\
protocol = 'p0'
m = 1
family = 'bloch'
theta = 1.0
phi = 0.3
mode = 'exact'
f_th = 0.9999999999999996
f_th_definition = 'sum over announcements of probability-weighted target overlap'
per_branch:
    a = 0
    b = 0
    probability = 0.2499999999999999
    fidelity = 1.0
  --
    a = 0
    b = 1
    probability = 0.2499999999999999
    fidelity = 1.0
  --
    a = 1
    b = 0
    probability = 0.2499999999999999
    fidelity = 1.0
  --
    a = 1
    b = 1
    probability = 0.2499999999999999
    fidelity = 1.0
  --
"""

PINNED_THRESHOLDS_TABLE = """\
m = 1
family = 'bloch'
thresholds:
    model = 'honest'
    certificate = 1
    criterion = 'pointwise'
    source = 'tabulated'
    threshold = 1.0
    provenance = 'honest-protocol bound: exact teleportation has fidelity 1'
  --
    model = 'honest'
    certificate = 1
    criterion = 'pointwise'
    source = 'computed'
    threshold = 1.0
    provenance = 'computed: honest protocol fidelity (constant 1)'
  --
    model = 'cheating_a'
    certificate = 3
    criterion = 'pointwise'
    source = 'tabulated'
    threshold = 0.5
    provenance = 'A-cheat optimum 1/2 (isolated qubit; equals the theta=0 maximum of the curve 1/2 - sin^2(theta)/4)'
  --
    model = 'cheating_a'
    certificate = 3
    criterion = 'pointwise'
    source = 'computed'
    threshold = 0.5000000000000001
    provenance = 'computed: max over theta of enumerated f_th(pa1/pa2), m=1'
  --
    model = 'cheating_b'
    certificate = 4
    criterion = 'pointwise'
    source = 'tabulated'
    threshold = 0.5
    provenance = 'B-cheat bound 1/2 (value of the trivial/isolated case)'
  --
    model = 'cheating_b'
    certificate = 4
    criterion = 'pointwise'
    source = 'computed'
    threshold = 0.5000000000000001
    provenance = 'computed: max over theta of enumerated f_th(pb), m=1'
  --
    model = 'cheating_b'
    certificate = 4
    criterion = 'bloch_postselected'
    source = 'tabulated'
    threshold = 0.6666666666666666
    provenance = 'postselected Bloch-sphere average 2/3 (outcome a=1 retained)'
  --
    model = 'cheating_b'
    certificate = 4
    criterion = 'bloch_postselected'
    source = 'computed'
    threshold = 0.6666666666666666
    provenance = 'computed: postselected Bloch-sphere average of pb (m=1)'
  --
    model = 'cheating_ab'
    certificate = 5
    criterion = 'pointwise'
    source = 'tabulated'
    threshold = 0.5
    provenance = 'AB-cheat optimum 1/2 (isolated qubit and theta=0 maximum)'
  --
    model = 'cheating_ab'
    certificate = 5
    criterion = 'pointwise'
    source = 'computed'
    threshold = 0.5000000000000001
    provenance = 'computed: max over theta of enumerated f_th(pab), m=1'
  --
    model = 'cheating_ab'
    certificate = 5
    criterion = 'bloch_postselected'
    source = 'tabulated'
    threshold = 0.6666666666666666
    provenance = 'postselected Bloch-sphere average 2/3 (outcome a=1 retained)'
  --
    model = 'cheating_ab'
    certificate = 5
    criterion = 'bloch_postselected'
    source = 'computed'
    threshold = 0.6666666666666666
    provenance = 'computed: postselected Bloch-sphere average of pab (m=1)'
  --
"""


@pytest.mark.parametrize("argv,want", [
    (("run", "--protocol", "p0", "--m", "1", "--family", "bloch", "--theta", "1.0",
      "--phi", "0.3", "--mode", "exact"), PINNED_RUN_TABLE),
    (("thresholds", "--m", "1", "--family", "bloch"), PINNED_THRESHOLDS_TABLE),
], ids=["run", "thresholds"])
def test_table_stdout_pinned(capsys, argv, want):
    assert run_cli(capsys, *argv, "--format", "table") == (0, want, "")


@pytest.mark.parametrize("argv,env,config,want", [
    (("run", "--mode", "monte_carlo", "--seed", "-1"), None, None,
     "error: seed must be >= 0, got -1\n"),
    (("run", "--mode", "monte_carlo"), "-1", None, "error: seed must be >= 0, got -1\n"),
    (("run", "--mode", "monte_carlo"), "abc", None,
     "error: TELECERT_SEED must be an integer, got 'abc'\n"),
    (("run", "--mode", "monte_carlo"), "1.5", None,
     "error: TELECERT_SEED must be an integer, got '1.5'\n"),
    (("run", "--mode", "monte_carlo"), None, "seed=-1\n", "error: seed must be >= 0, got -1\n"),
    (("average", "--quadrature", "gauss:abc"), None, None,
     "error: quadrature resolution must be an integer, got 'gauss:abc'; "
     "expected gauss:<n>\n"),
    (("average", "--quadrature", "gauss:1.5"), None, None,
     "error: quadrature resolution must be an integer, got 'gauss:1.5'; "
     "expected gauss:<n>\n"),
    (("average", "--quadrature", "gauss:"), None, None,
     "error: quadrature resolution must be an integer, got 'gauss:'; "
     "expected gauss:<n>\n"),
    (("average", "--quadrature", "simpson:10"), None, None,
     "error: unknown quadrature kind 'simpson'; expected exact or gauss:<n>\n"),
    (("average", "--quadrature", "exact:64"), None, None,
     "error: exact quadrature takes no resolution, got 'exact:64'\n"),
    (("average", "--quadrature", f"gauss:{sys.maxsize + 1}"), None, None,
     f"error: quadrature resolution {sys.maxsize + 1} > {sys.maxsize}, "
     "the largest array length\n"),
    (("average", "--quadrature", f"grid:{sys.maxsize}"), None, None,
     "error: unknown quadrature kind 'grid'; expected exact or gauss:<n>\n"),
    (("sweep", "--points", "-3"), None, None, "error: points must be >= 1, got -3\n"),
    (("sweep", "--points", "0"), None, None, "error: points must be >= 1, got 0\n"),
    (("sweep", "--points", "0", "--format", "csv"), None, None,
     "error: points must be >= 1, got 0\n"),
], ids=["seed-flag", "seed-env", "seed-env-abc", "seed-env-1.5", "seed-config", "gauss-abc",
        "gauss-1.5", "gauss-empty", "kind-unknown", "exact-resolution", "gauss-huge",
        "grid-huge", "points-negative",
        "points-zero", "points-zero-csv"])
def test_bad_values_exit_2_naming_the_input(tmp_path, capsys, monkeypatch, argv, env, config,
                                            want):
    if env is None:
        monkeypatch.delenv("TELECERT_SEED", raising=False)
    else:
        monkeypatch.setenv("TELECERT_SEED", env)
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = (*argv, "--config", str(cfg))
    assert run_cli(capsys, *argv) == (2, "", want)


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent/file.cfg")
    assert code == 2
