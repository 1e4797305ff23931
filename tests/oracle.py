"""Independent brute-force oracle used to cross-check the library.

Everything here is deliberately built with different machinery from the
package: operators are lifted to the full register with explicit basis-index
loops, qubits are never deleted mid-run (projective measurements keep the
register size and the dead qubits are traced out only at the very end), B's
trash-and-regenerate is a Kraus reset channel applied BEFORE A acts (the
opposite interleaving from the library, which proves the two commute), and
the partial trace is an explicit double loop over kept/discarded labels.
"""
from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT4 = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]], dtype=complex)
BELL_ROT = np.kron(H2, I2) @ CNOT4  # the gadget inverse


def bit_of(index: int, qubit: int, n: int) -> int:
    return (index >> (n - 1 - qubit)) & 1


def lift(u: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    """u on the target qubits, identity elsewhere, via explicit index loops."""
    k = len(targets)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        tcol = 0
        for j, q in enumerate(targets):
            tcol |= bit_of(col, q, n) << (k - 1 - j)
        for trow in range(2**k):
            amp = u[trow, tcol]
            if amp == 0:
                continue
            row = col
            for j, q in enumerate(targets):
                want = (trow >> (k - 1 - j)) & 1
                if bit_of(row, q, n) != want:
                    row ^= 1 << (n - 1 - q)
            full[row, col] += amp
    return full


def kron_at(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    mats = [I2] * n
    mats[qubit] = op
    full = mats[0]
    for m in mats[1:]:
        full = np.kron(full, m)
    return full


def projector(qubit: int, value: int, n: int) -> np.ndarray:
    p = np.zeros((2, 2), dtype=complex)
    p[value, value] = 1.0
    return kron_at(p, qubit, n)


def reset_to_zero(rho: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Trash-and-regenerate as the Kraus channel rho -> sum |0><v| rho |v><0|."""
    out = np.zeros_like(rho)
    for v in (0, 1):
        k = np.zeros((2, 2), dtype=complex)
        k[0, v] = 1.0
        kf = kron_at(k, qubit, n)
        out += kf @ rho @ kf.conj().T
    return out


def ptrace_keep(rho: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Partial trace keeping the listed qubits (their relative order)."""
    k = len(keep)
    gone = [q for q in range(n) if q not in keep]
    out = np.zeros((2**k, 2**k), dtype=complex)
    for i in range(2**k):
        for j in range(2**k):
            for d in range(2 ** len(gone)):
                row = col = 0
                for pos, q in enumerate(keep):
                    row |= bit_of(i, pos, k) << (n - 1 - q)
                    col |= bit_of(j, pos, k) << (n - 1 - q)
                for pos, q in enumerate(gone):
                    bit = bit_of(d, pos, len(gone)) << (n - 1 - q)
                    row |= bit
                    col |= bit
                out[i, j] += rho[row, col]
    return out


def target_vector(m: int, family: str, theta: float, phi: float) -> np.ndarray:
    v = np.zeros(2**m, dtype=complex)
    if family == "trivial":
        v[0] = 1.0
    elif family == "ghz":
        v[0] = np.cos(theta / 2)
        v[-1] = np.sin(theta / 2)
    elif family == "bloch":
        assert m == 1
        v[0] = np.cos(theta / 2)
        v[1] = np.exp(1j * phi) * np.sin(theta / 2)
    else:
        raise ValueError(family)
    return v


def initial_density(m: int, family: str, theta: float, phi: float) -> np.ndarray:
    ebit = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    psi = np.kron(target_vector(m, family, theta, phi), ebit)
    return np.outer(psi, psi.conj())


def branches(protocol: str, m: int, family: str, theta: float = 0.0,
             phi: float = 0.0) -> dict[tuple[int, int | None], np.ndarray]:
    """Sub-normalized branch operators over (ancillas, B's slot), by announcement."""
    n = m + 2
    a_qubit, a_ebit, b_qubit = m - 1, m, m + 1
    keep = list(range(m - 1)) + [b_qubit]
    rho = initial_density(m, family, theta, phi)

    def corrected(r, z_pow, x_pow):
        if x_pow:
            xf = kron_at(X2, b_qubit, n)
            r = xf @ r @ xf.conj().T
        if z_pow:
            zf = kron_at(Z2, b_qubit, n)
            r = zf @ r @ zf.conj().T
        return r

    out: dict[tuple[int, int | None], np.ndarray] = {}
    if protocol == "p0":
        g = lift(BELL_ROT, [a_qubit, a_ebit], n)
        rho = g @ rho @ g.conj().T
        for a in (0, 1):
            for b in (0, 1):
                proj = projector(a_qubit, a, n) @ projector(a_ebit, b, n)
                r = corrected(proj @ rho @ proj, z_pow=a, x_pow=b)
                out[(a, b)] = ptrace_keep(r, keep, n)
    elif protocol == "pa1":
        for a in (0, 1):
            proj = projector(a_qubit, a, n)
            r = proj @ rho @ proj
            for b in (0, 1):
                out[(a, b)] = ptrace_keep(0.5 * corrected(r, z_pow=a, x_pow=b), keep, n)
    elif protocol == "pa2":
        for a in (0, 1):
            for b in (0, 1):
                out[(a, b)] = ptrace_keep(0.25 * corrected(rho, z_pow=a, x_pow=b), keep, n)
    elif protocol == "pb":
        rho = reset_to_zero(rho, b_qubit, n)  # B cheats before A even starts
        g = lift(BELL_ROT, [a_qubit, a_ebit], n)
        rho = g @ rho @ g.conj().T
        for a in (0, 1):
            for b in (0, 1):
                proj = projector(a_qubit, a, n) @ projector(a_ebit, b, n)
                r = corrected(proj @ rho @ proj, z_pow=0, x_pow=a)
                out[(a, b)] = ptrace_keep(r, keep, n)
    elif protocol == "pab":
        rho = reset_to_zero(rho, b_qubit, n)
        g = lift(BELL_ROT, [a_qubit, a_ebit], n)
        rho = g @ rho @ g.conj().T
        for a in (0, 1):
            proj = projector(a_qubit, a, n)
            r = corrected(proj @ rho @ proj, z_pow=0, x_pow=a)
            out[(a, None)] = ptrace_keep(r, keep, n)
    else:
        raise ValueError(protocol)
    return out


def threshold(protocol: str, m: int, family: str, theta: float = 0.0,
              phi: float = 0.0) -> float:
    """f_th as the plain sum of target overlaps of sub-normalized branches."""
    t = target_vector(m, family, theta, phi)
    return float(sum((t.conj() @ mat @ t).real for mat in branches(
        protocol, m, family, theta, phi).values()))


def sample_branch(kinds, probs, row) -> int:
    """Branch index of one row of draws, walking the announced bits in order.

    probs[i] is the probability of the branch whose bits, first bit highest,
    spell i. A measured bit is 1 when its draw is at least P(0 | prefix), and
    a prefix of probability zero has P(0 | prefix) = 1/2; a coin is 1 when its
    draw is below 1/2. Plain Python, one row at a time.
    """
    n = len(kinds)

    def mass(prefix: int, length: int) -> float:
        return sum(float(probs[i]) for i in range(2**n) if i >> (n - length) == prefix)

    prefix = 0
    for j, (kind, u) in enumerate(zip(kinds, row)):
        if kind == "coin":
            bit = 1 if u < 0.5 else 0
        else:
            total = 1.0 if j == 0 else mass(prefix, j)
            cond0 = mass(2 * prefix, j + 1) / total if total > 0 else 0.5
            bit = 1 if u >= cond0 else 0
        prefix = 2 * prefix + bit
    return prefix
