"""Matrix-layer tests: superoperators, Choi states, purity figures."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frameport.qmat import DensityMatrix, InvariantViolation
from qmat_reference import checked_channel, choi, conjugation_superoperator, \
    linear_map_purity, map_purity, mix, von_neumann_entropy

RNG = np.random.default_rng(42)


def random_unitary(rng=RNG, d: int = 2) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvariantViolation):
        DensityMatrix(np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(InvariantViolation, match="non-finite"):
        DensityMatrix(np.full((2, 2), bad))
    mat = np.diag([1.0, 0.0]).astype(np.complex128)
    mat[1, 1] = bad
    with pytest.raises(InvariantViolation, match="non-finite"):
        DensityMatrix(mat)


def test_conjugation_superoperator_action():
    u = random_unitary()
    s = conjugation_superoperator(u)
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    assert np.allclose(s.apply(rho), u @ rho @ u.conj().T, atol=1e-12)


def test_identity_channel_choi_is_maximally_entangled():
    s = checked_channel(np.eye(4))
    c = choi(s)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(c.rho.mat, np.outer(phi, phi.conj()), atol=1e-12)


def test_unitary_conjugation_choi_is_pure():
    s = conjugation_superoperator(random_unitary())
    ev = choi(s).eigenvalues()
    assert np.max(ev) == pytest.approx(1.0, abs=1e-10)
    assert map_purity(s) == pytest.approx(1.0, abs=1e-10)
    assert linear_map_purity(s) == pytest.approx(1.0, abs=1e-10)


def test_completely_depolarizing_purity():
    # T(rho) = I/2: superop maps everything onto the identity component.
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = mat[0, 3] = mat[3, 0] = mat[3, 3] = 0.5
    s = checked_channel(mat)
    assert map_purity(s) == pytest.approx(0.0, abs=1e-12)
    assert linear_map_purity(s) == pytest.approx(0.25, abs=1e-12)


def test_dephasing_choi_spectrum_and_purity():
    # Off-diagonal shrink by f: Choi eigenvalues (1 + f)/2, (1 - f)/2.
    f = 0.5
    mat = np.diag([1.0, f, f, 1.0]).astype(np.complex128)
    s = checked_channel(mat)
    ev = sorted(choi(s).eigenvalues(), reverse=True)
    assert ev[0] == pytest.approx((1 + f) / 2, abs=1e-12)
    assert ev[1] == pytest.approx((1 - f) / 2, abs=1e-12)
    expected = 1 - (-(0.75 * np.log(0.75) + 0.25 * np.log(0.25))) / np.log(4)
    assert map_purity(s) == pytest.approx(expected, abs=1e-12)
    assert linear_map_purity(s) == pytest.approx(0.625, abs=1e-12)


def test_mix_of_pauli_conjugations_is_depolarizing():
    paulis = [np.eye(2),
              np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    parts = [(0.25, conjugation_superoperator(p))
             for p in paulis]
    s = mix(parts)
    rho = np.array([[0.9, 0.2], [0.2, 0.1]], dtype=np.complex128)
    assert np.allclose(s.apply(rho), np.eye(2) / 2, atol=1e-12)


def test_von_neumann_entropy_limits():
    assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0, 0, 0.0]))) \
        == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(DensityMatrix(np.eye(4) / 4)) \
        == pytest.approx(np.log(4), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_unitary_mixture_invariants(seed):
    """Any mixture of unitary conjugations is a channel: TP, CP, Choi PSD
    with unit trace, purities in [0, 1]."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    w = rng.random(k)
    w /= w.sum()
    parts = [(float(wi),
              conjugation_superoperator(random_unitary(rng)))
             for wi in w]
    s = mix(parts)
    c = choi(s)
    ev = c.eigenvalues()
    assert np.all(ev >= -1e-9)
    assert np.sum(ev) == pytest.approx(1.0, abs=1e-9)
    assert -1e-12 <= map_purity(s) <= 1 + 1e-12
    assert -1e-12 <= linear_map_purity(s) <= 1 + 1e-12
