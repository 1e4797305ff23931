"""Fidelity curves of the four cheating strategies over the GHZ input family.

Sweeps f_th(theta) at m = 2 for the two A-cheats (one or both of A's qubits
trashed and replaced by coin flips), the B-cheat (B discards his entangled
share and sends |a> instead), and the joint AB-cheat. Writes the sweep to
cheating_curves.csv for external plotting and prints the theta-averaged
values a certifier would quote.

All four strategies top out at 1/2 (teleporting a known basis state is
classically easy) and bottom out at 1/4 at the balanced superposition: the
enumerated curves all equal 1/2 - sin^2(theta)/4. Monte Carlo estimates with
a fixed seed reproduce the exact values within error bars.
"""
import csv

import numpy as np

from telecert import (
    InputFamily,
    ProtocolId,
    ProtocolParams,
    monte_carlo_threshold,
    theta_average,
    theta_sweep,
)

CHEATS = [ProtocolId.PA1, ProtocolId.PA2, ProtocolId.PB, ProtocolId.PAB]
M = 2
grid = np.linspace(0, np.pi, 21)

curves = {p: dict(theta_sweep(p, M, grid)) for p in CHEATS}

print(f"f_th(theta) at m = {M} (GHZ family)")
header = "theta    " + "".join(f"{p.value:>8}" for p in CHEATS)
print(header)
for theta in grid[::4]:
    row = f"{theta:6.3f}  " + "".join(f"{curves[p][theta]:8.4f}" for p in CHEATS)
    print(row)

with open("cheating_curves.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["theta"] + [p.value for p in CHEATS])
    for theta in grid:
        writer.writerow([repr(float(theta))] + [repr(curves[p][theta]) for p in CHEATS])
print("\nwrote cheating_curves.csv")

print("\ntheta-averaged threshold fidelities (exact):")
for p in CHEATS:
    print(f"  {p.value:>4}: {theta_average(p, M):.12f}")
print("  (the B-cheat average equals the A-cheat 3/8 under exact enumeration;"
      " the historical table lists 3/16 for it, see the threshold table demo)")

print("\nMonte Carlo spot check at theta = pi/2, 100000 shots, seed 42:")
for p in CHEATS:
    params = ProtocolParams(m=M, family=InputFamily.GHZ, theta=np.pi / 2)
    rep = monte_carlo_threshold(p, params, shots=100_000, seed=42)
    print(f"  {p.value:>4}: {rep.f_th:.6f} +/- {rep.stderr:.6f}  (exact 0.25)")
