import os
import subprocess
import sys
from pathlib import Path

import pytest

import telecert

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

# Each demo's stdout. Demo 01 opens with a numpy array, whose spacing is
# numpy's to choose; that line is pinned by its values (DEMO_01_AMPLITUDES)
# and the rest by its bytes.
DEMO_01_AMPLITUDES = [0.809017 + 0j, 0.212989 + 0.547839j]
PINNED_STDOUT = {
    "01_honest_teleportation.py": """\

Enumerating the four announcement branches of the honest run:
  (a, b) = (0, 0)  probability = 0.2500  delivered state equals target: True
  (a, b) = (0, 1)  probability = 0.2500  delivered state equals target: True
  (a, b) = (1, 0)  probability = 0.2500  delivered state equals target: True
  (a, b) = (1, 1)  probability = 0.2500  delivered state equals target: True

threshold fidelity f_th = 1.000000000000  (exactly 1: perfect teleportation)
entangled-share case (m = 2): f_th = 1.000000000000
all four branch outputs identical: True
""",
    "02_cheating_fidelity_curves.py": """\
f_th(theta) at m = 2 (GHZ family)
theta         pa1     pa2      pb     pab
 0.000    0.5000  0.5000  0.5000  0.5000
 0.628    0.4136  0.4136  0.4136  0.4136
 1.257    0.2739  0.2739  0.2739  0.2739
 1.885    0.2739  0.2739  0.2739  0.2739
 2.513    0.4136  0.4136  0.4136  0.4136
 3.142    0.5000  0.5000  0.5000  0.5000

wrote cheating_curves.csv

theta-averaged threshold fidelities (exact):
   pa1: 0.375000000000
   pa2: 0.375000000000
    pb: 0.375000000000
   pab: 0.375000000000
  (the B-cheat average equals the A-cheat 3/8 under exact enumeration; the historical table lists 3/16 for it, see the threshold table demo)

Monte Carlo spot check at theta = pi/2, 100000 shots, seed 42:
   pa1: 0.250000 +/- 0.000000  (exact 0.25)
   pa2: 0.250000 +/- 0.000000  (exact 0.25)
    pb: 0.250000 +/- 0.000000  (exact 0.25)
   pab: 0.250000 +/- 0.000000  (exact 0.25)
""",
    "03_certification.py": """\
Threshold table, m = 2, GHZ family:
  cert 1  honest       pointwise      tabulated threshold = 1.000000
        honest-protocol bound: exact teleportation has fidelity 1
  cert 1  honest       pointwise      computed  threshold = 1.000000
        computed: honest protocol fidelity (constant 1)
  cert 3  cheating_a   pointwise      tabulated threshold = 0.500000
        A-cheat optimum 1/2 (isolated qubit; equals the theta=0 maximum of the curve 1/2 - sin^2(theta)/4)
  cert 3  cheating_a   pointwise      computed  threshold = 0.500000
        computed: max over theta of enumerated f_th(pa1/pa2), m=2
  cert 3  cheating_a   theta_average  tabulated threshold = 0.375000
        uniform-theta average 3/8 of the A-cheat curve 1/2 - sin^2(theta)/4
  cert 3  cheating_a   theta_average  computed  threshold = 0.375000
        computed: uniform-theta average of enumerated f_th(pa1/pa2), m=2
  cert 4  cheating_b   pointwise      tabulated threshold = 0.500000
        B-cheat bound 1/2 (value of the trivial/isolated case)
  cert 4  cheating_b   pointwise      computed  threshold = 0.500000
        computed: max over theta of enumerated f_th(pb), m=2
  cert 4  cheating_b   theta_average  tabulated threshold = 0.187500
        tabulated B-cheat average 3/16, from the curve 1/4 - sin^2(theta)/8; exact enumeration gives 3/8, see the computed source
  cert 4  cheating_b   theta_average  computed  threshold = 0.375000
        computed: uniform-theta average of enumerated f_th(pb), m=2
  cert 5  cheating_ab  pointwise      tabulated threshold = 0.500000
        AB-cheat optimum 1/2 (isolated qubit and theta=0 maximum)
  cert 5  cheating_ab  pointwise      computed  threshold = 0.500000
        computed: max over theta of enumerated f_th(pab), m=2
  cert 5  cheating_ab  theta_average  tabulated threshold = 0.375000
        uniform-theta average 3/8 of the AB-cheat curve 1/2 - sin^2(theta)/4
  cert 5  cheating_ab  theta_average  computed  threshold = 0.375000
        computed: uniform-theta average of enumerated f_th(pab), m=2

Sample decisions (pointwise criterion, m = 1):
  observed 0.55 under cheating_a   -> issue (threshold 0.5000, certificate 3)
  observed 0.50 under cheating_a   -> deny (threshold 0.5000, certificate 3)
  observed 0.95 under cheating_ab  -> issue (threshold 0.5000, certificate 5)

Postselected Bloch-sphere benchmark (B-cheat, m = 1):
  postselected average = 0.666666667 (the classical 2/3 benchmark)
  observed 0.70 against it -> issue

Self-certification is self-defeating (computed thresholds):
  cheating_a   own average 0.375000 -> deny
  cheating_b   own average 0.375000 -> deny
  cheating_ab  own average 0.375000 -> deny
""",
}


def _amplitudes(line):
    """The complex values of demo 01's 'target amplitudes: [...]' line."""
    prefix = "target amplitudes: ["
    assert line.startswith(prefix) and line.endswith("]"), line
    return [complex(x) for x in line[len(prefix):-1].split()]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a temporary cwd: demos may write files (02 writes cheating_curves.csv)
    env = dict(os.environ, PYTHONPATH=str(Path(telecert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    stdout = proc.stdout
    if demo.name == "01_honest_teleportation.py":
        first, _, stdout = stdout.partition("\n")
        assert _amplitudes(first) == DEMO_01_AMPLITUDES
    assert stdout == PINNED_STDOUT[demo.name]
