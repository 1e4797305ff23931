import numpy as np
import pytest

from telecert.channels import (
    RngStream,
    measure_branches,
    regenerate_zero,
    trash,
)
from telecert.statevec import DensityOperator, PureState, basis_state, partial_trace, to_density

SQ2 = np.sqrt(2)
PLUS = PureState(1, np.array([1, 1]) / SQ2)
EBIT = PureState(2, np.array([1, 0, 0, 1]) / SQ2)


def test_rng_reproducible_and_counted():
    a, b = RngStream(1234), RngStream(1234)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    assert a.draws == 5
    assert RngStream(1234).uniform() != RngStream(1235).uniform()


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_rng_skip_matches_block_rows(bits):
    # Philox is counter-based: a stream skipped past k draws (k % 4 == 0)
    # continues exactly where the monolithic block's row k / bits begins
    block = RngStream(77).uniform_block((40, bits))
    for k in (0, 4, 12, 36):
        rng = RngStream(77)
        rng.skip(k * bits)
        rows = rng.uniform_block((40 - k, bits))
        assert np.array_equal(rows, block[k:])
        assert rng.draws == rows.size  # skipped draws are not drawn


@pytest.mark.parametrize("seed", [0, 77, 2**40 + 3])
def test_uniform_block_words_are_generator_random(seed):
    # the block holds Philox's raw words w, and u = (w >> 11) * 2^-53 is
    # bitwise the float Generator.random makes of the same word, whole or
    # after a skip; both read the same counter
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(161)
    raw = np.random.Philox(np.random.SeedSequence(seed)).random_raw(160).reshape(40, 4)
    rng = RngStream(seed)
    block = rng.uniform_block((40, 4))
    assert block.dtype == np.uint64 and np.array_equal(block, raw)
    assert np.array_equal((block >> np.uint64(11)) * 2.0**-53, want[:160].reshape(40, 4))
    assert rng.draws == 160
    assert rng.uniform() == want[160]
    for k in (4, 12, 36):
        rng = RngStream(seed)
        rng.skip(k)
        rows = rng.uniform_block((40 - k // 4, 4))
        assert np.array_equal((rows >> np.uint64(11)) * 2.0**-53, want[k:160].reshape(-1, 4))
        assert rng.draws == rows.size


def test_rng_skip_validation():
    for k in (1, 2, 3, 6, -4):
        with pytest.raises(ValueError, match="multiple of 4"):
            RngStream(0).skip(k)
    rng = RngStream(0)
    rng.uniform()
    with pytest.raises(ValueError, match="fresh stream"):
        rng.skip(4)
    rng = RngStream(0)
    rng.uniform_block((4, 2))
    with pytest.raises(ValueError, match="fresh stream"):
        rng.skip(8)


def test_measure_branches_plus():
    out = measure_branches(PLUS, 0)
    assert [o.bit for o in out] == [0, 1]
    assert out[0].probability == pytest.approx(0.5, abs=1e-12)
    assert out[1].probability == pytest.approx(0.5, abs=1e-12)
    assert out[0].probability + out[1].probability == pytest.approx(1.0, abs=1e-12)
    assert out[0].post_state.num_qubits == 0  # destructive: register shrinks


def test_measure_branches_dead_branch_flagged():
    out = measure_branches(basis_state(1, 1), 0)
    assert out[0].probability == 0.0 and out[0].post_state is None
    assert out[1].probability == 1.0


def test_measure_branch_probability_amplitude_oracle():
    theta = np.pi / 3
    state = PureState(2, np.array([np.cos(theta / 2), 0, 0, np.sin(theta / 2)]))
    out = measure_branches(state, 0)
    # independent amplitude-summing oracle
    p0 = sum(abs(a) ** 2 for i, a in enumerate(state.amplitudes) if not i >> 1)
    assert out[0].probability == pytest.approx(p0, abs=1e-12)
    assert p0 == pytest.approx(0.75, abs=1e-12)


def test_trash_examples():
    np.testing.assert_allclose(trash(EBIT, 0).matrix, np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(trash(EBIT, 1).matrix, np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(trash(basis_state(2, 0b01), 1).matrix, [[1, 0], [0, 0]], atol=1e-15)


def test_trash_preserves_trace_and_accepts_density():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = PureState(3, v / np.linalg.norm(v))
    rho = to_density(state)
    assert abs(trash(rho, 1).trace - rho.trace) < 1e-12
    assert abs(trash(state, 2).trace - 1.0) < 1e-12


def test_measure_then_discard_equals_trash():
    # the operational distinction: averaging the measurement branches
    # (probability-weighted) reproduces the record-free partial trace exactly
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(3, v / np.linalg.norm(v))
        for q in range(3):
            averaged = np.zeros((4, 4), dtype=complex)
            for out in measure_branches(state, q):
                if out.post_state is not None:
                    averaged += out.probability * to_density(out.post_state).matrix
            np.testing.assert_allclose(averaged, trash(state, q).matrix, atol=1e-12)


def test_regenerate_zero():
    empty = partial_trace(to_density(basis_state(1, 1)), {0})
    np.testing.assert_allclose(regenerate_zero(empty, 0).matrix, [[1, 0], [0, 0]], atol=1e-15)
    # the B-cheat pipeline: trash B's ebit share, then put |0> in his slot
    left = trash(EBIT, 1)
    got = regenerate_zero(left, 1)
    np.testing.assert_allclose(got.matrix, np.kron(np.eye(2) / 2, [[1, 0], [0, 0]]), atol=1e-15)
    # inserting at the front instead
    got_front = regenerate_zero(left, 0)
    np.testing.assert_allclose(got_front.matrix, np.kron([[1, 0], [0, 0]], np.eye(2) / 2),
                               atol=1e-15)


def test_regenerate_zero_validation():
    rho = DensityOperator(1, np.eye(2) / 2)
    with pytest.raises(ValueError):
        regenerate_zero(rho, 5)
