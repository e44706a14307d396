"""Unitary error basis tests: orthonormality, families, equivariance."""
from __future__ import annotations

import numpy as np
import pytest

from frameport import cli, groups
from frameport.qmat import UnitaryMatrix
from frameport.ueb import (
    NotEquivariantError, UnitaryErrorBasis, check_ueb, equivariance_analysis,
    general_qubit_ueb, pauli_ueb, tetrahedral_ueb, z4_family_ueb,
)

RNG = np.random.default_rng(3)


def random_unitary(rng=RNG) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_pauli_ueb_orthonormal():
    ok, dev = check_ueb(pauli_ueb().mats, tol=1e-12)
    assert ok and dev < 1e-12


def test_tetrahedral_ueb_orthonormal():
    ok, dev = check_ueb(tetrahedral_ueb().mats, tol=1e-12)
    assert ok and dev < 1e-12


def test_check_ueb_rejects_non_basis():
    mats = np.stack([np.eye(2)] * 4)
    ok, dev = check_ueb(mats)
    assert not ok and dev > 0.5


def test_ueb_constructor_validates():
    with pytest.raises(ValueError):
        UnitaryErrorBasis(np.stack([np.eye(2)] * 4))


def test_z4_family_recovers_pauli_at_reference_point():
    fam = z4_family_ueb(np.pi, 0.0)
    pauli = pauli_ueb()
    for i in range(4):
        overlap = abs(np.trace(pauli.mats[i].conj().T @ fam.mats[i])) / 2
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_z4_family_is_ueb_generically():
    ok, dev = check_ueb(z4_family_ueb(0.7, 1.9).mats, tol=1e-9)
    assert ok, dev


def test_general_qubit_ueb_from_random_pair():
    u, v = UnitaryMatrix(random_unitary()), UnitaryMatrix(random_unitary())
    ok, dev = check_ueb(general_qubit_ueb(u, v).mats, tol=1e-9)
    assert ok, dev


# ---------------------------------------------------------------------------
# Equivariance
# ---------------------------------------------------------------------------

def _eq(basis, sub_name):
    return equivariance_analysis(basis, groups.subgroup_by_name(sub_name))


def _u1_physical(q):
    """The polarisation matrices diag(1, exp(-2i theta)) of circle
    quaternions q = u1_quat(theta) up to sign, built from their angles."""
    theta = np.arctan2(-q[..., 3], q[..., 0])
    mat = np.zeros(theta.shape + (2, 2), dtype=np.complex128)
    mat[..., 0, 0] = 1.0
    mat[..., 1, 1] = np.exp(-2j * theta)
    return mat


def test_pauli_z4_orbits_and_swap():
    eq = _eq(pauli_ueb(), "z4")
    assert eq.orbits == ((0,), (1, 2), (3,))
    # The quarter-turn swaps X and Y (up to phase).
    quarter = groups.u1_quat(np.pi / 4)
    h = next(h for h in range(4)
             if abs(eq.subgroup.payloads[h] @ quarter) > 1 - 1e-9)
    assert eq.sigma[1, h] == 2 and eq.sigma[2, h] == 1


def test_pauli_z8_physical_matches_reduced_orbits():
    eq = _eq(pauli_ueb(), "z8")
    assert eq.orbits == ((0,), (1, 2), (3,))
    assert len(eq.stabilizers[1]) * 2 == eq.subgroup.order


def test_pauli_boct_orbits_and_stabilizer():
    eq = _eq(pauli_ueb(), "boct")
    assert eq.orbits == ((0,), (1, 2, 3))
    assert len(eq.stabilizers[1]) == 16
    assert len(eq.stabilizers[0]) == 48


def test_tetrahedral_btet_single_orbit():
    eq = _eq(tetrahedral_ueb(), "btet")
    assert eq.orbits == ((0, 1, 2, 3),)
    assert len(eq.stabilizers[0]) == 6


@pytest.mark.parametrize("basis,sub,rep", [
    (pauli_ueb(), "z4", _u1_physical(groups.z4_reduced().payloads)),
    (pauli_ueb(), "z8", _u1_physical(groups.z8_physical().payloads)),
    (pauli_ueb(), "boct", groups.su2_matrix(
        groups.binary_octahedral().payloads)),
    (tetrahedral_ueb(), "btet", groups.su2_matrix(
        groups.binary_tetrahedral().payloads)),
])
def test_equivariance_reconstruction(basis, sub, rep):
    """rho(h)+ U_i rho(h) = alpha[i, h] U_sigma[i, h] within 1e-9, with rep
    the matrices rho(h) of the physical representation (on the circle,
    diag(1, exp(-2i theta)): the phase dropped by su2_matrix cancels)."""
    eq = _eq(basis, sub)
    for h in range(eq.subgroup.order):
        r = rep[h]
        for i in range(basis.size):
            lhs = r.conj().T @ basis.mats[i] @ r
            rhs = eq.alpha[i, h] * basis.mats[eq.sigma[i, h]]
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_sigma_is_a_right_action():
    eq = _eq(pauli_ueb(), "boct")
    sub = eq.subgroup
    rng = np.random.default_rng(0)
    for _ in range(50):
        h1, h2 = rng.integers(0, sub.order, size=2)
        prod = sub.table[h1, h2]
        for i in range(4):
            assert eq.sigma[i, prod] == eq.sigma[eq.sigma[i, h1], h2]


def test_alpha_has_unit_modulus():
    eq = _eq(tetrahedral_ueb(), "btet")
    assert np.allclose(np.abs(eq.alpha), 1.0, atol=1e-9)


def test_coset_reps_carry_base_to_index():
    eq = _eq(pauli_ueb(), "boct")
    for i in (1, 2, 3):
        assert eq.sigma[1, eq.coset_reps[i]] == i


def test_sigma_inv_inverts_the_action():
    eq = _eq(pauli_ueb(), "boct")
    for h in range(eq.subgroup.order):
        for i in range(4):
            assert eq.sigma[eq.sigma_inv(h, i), h] == i


def _equivariance_reference(basis, sub):
    """One element h at a time: (sigma, alpha, orbits, stabilizers,
    coset_reps), raising at the first failing (h, i) in h-major order."""
    n, d = basis.size, basis.dim
    sigma = np.empty((n, sub.order), dtype=np.int64)
    alpha = np.empty((n, sub.order), dtype=np.complex128)
    for h in range(sub.order):
        r = groups.su2_matrix(sub.payloads[h])
        conj = np.einsum("ab,nbc,cd->nad", r.conj().T, basis.mats, r)
        overlaps = np.einsum("iab,jab->ij", conj, basis.mats.conj()) / d
        for i in range(n):
            j = int(np.argmax(np.abs(overlaps[i])))
            if abs(abs(overlaps[i, j]) - 1.0) > 1e-9:
                raise NotEquivariantError(i, h, abs(overlaps[i, j]))
            sigma[i, h], alpha[i, h] = j, overlaps[i, j]
    orbits = []
    for i in range(n):
        if not any(i in orbit for orbit in orbits):
            orbits.append(tuple(sorted(set(sigma[i].tolist()))))
    stabilizers = {o[0]: tuple(h for h in range(sub.order)
                               if sigma[o[0], h] == o[0]) for o in orbits}
    coset_reps = {i: next(h for h in range(sub.order) if sigma[o[0], h] == i)
                  for o in orbits for i in o}
    return sigma, alpha, tuple(orbits), stabilizers, coset_reps


@pytest.mark.parametrize("ueb_name,sub_name", cli._EQ_PAIRS)
def test_equivariance_analysis_matches_per_element_reference(ueb_name,
                                                             sub_name):
    basis, sub = cli._UEBS[ueb_name](), groups.subgroup_by_name(sub_name)
    eq = equivariance_analysis(basis, sub)
    sigma, alpha, orbits, stabilizers, coset_reps = \
        _equivariance_reference(basis, sub)
    assert np.array_equal(eq.sigma, sigma)
    assert np.max(np.abs(eq.alpha - alpha)) <= 1e-15
    assert eq.orbits == orbits
    assert eq.stabilizers == stabilizers
    assert eq.coset_reps == coset_reps


def test_equivariance_failure_names_the_first_element():
    basis, sub = tetrahedral_ueb(), groups.binary_octahedral()
    with pytest.raises(NotEquivariantError) as want:
        _equivariance_reference(basis, sub)
    with pytest.raises(NotEquivariantError) as got:
        equivariance_analysis(basis, sub)
    assert (got.value.i, got.value.h) == (want.value.i, want.value.h)
    assert got.value.best_overlap == pytest.approx(want.value.best_overlap,
                                                   abs=1e-14)


def test_random_ueb_not_boct_equivariant():
    u, v = UnitaryMatrix(random_unitary()), UnitaryMatrix(random_unitary())
    with pytest.raises(NotEquivariantError):
        equivariance_analysis(general_qubit_ueb(u, v),
                              groups.binary_octahedral())
