"""Walkthrough: the honest teleportation protocol delivers the target exactly.

The certifier C prepares a state, hands one share to the sender A, and the
entanglement supplier D gives A and B one half each of an entangled pair.
A performs the Bell rotation on her two qubits, measures them, and announces
the two bits; B applies the matching Pauli correction. Whatever the two
announced bits are, the state B hands back to C equals the target.
"""
import numpy as np

from telecert import (
    InputFamily,
    ProtocolId,
    ProtocolParams,
    build_target,
    exact_report,
    run_exact,
    to_density,
)

# A single qubit on the Bloch sphere, theta = 2pi/5, phi = 1.2
params = ProtocolParams(m=1, family=InputFamily.BLOCH, theta=2 * np.pi / 5, phi=1.2)
target = build_target(params)
print("target amplitudes:", np.round(target.amplitudes, 6))

print("\nEnumerating the four announcement branches of the honest run:")
for branch in run_exact(ProtocolId.P0, params):
    ann = branch.announcement
    same = np.allclose(branch.logical.matrix, to_density(target).matrix, atol=1e-12)
    print(f"  (a, b) = ({ann.a}, {ann.b})  probability = {branch.probability:.4f}"
          f"  delivered state equals target: {same}")

report = exact_report(ProtocolId.P0, params)
print(f"\nthreshold fidelity f_th = {report.f_th:.12f}  (exactly 1: perfect teleportation)")

# The same holds when the teleported share is entangled with ancillas C keeps:
# a two-qubit register rotated toward a GHZ-type state.
params = ProtocolParams(m=2, family=InputFamily.GHZ, theta=np.pi / 3)
report = exact_report(ProtocolId.P0, params)
print(f"entangled-share case (m = 2): f_th = {report.f_th:.12f}")

# Each branch output lives on C's ancilla plus the delivered qubit, and every
# announcement leads to the same state: the announcement carries no
# information about the target.
outputs = [b.logical.matrix for b in run_exact(ProtocolId.P0, params)]
print("all four branch outputs identical:",
      all(np.allclose(outputs[0], o, atol=1e-12) for o in outputs[1:]))
