"""Unitary error basis tests: orthonormality, families, equivariance."""
from __future__ import annotations

import numpy as np
import pytest

from frameport import cli, groups
from frameport.groups import su2_matrix
from frameport.ueb import (
    NotEquivariantError, UnitaryErrorBasis, check_ueb, equivariance_analysis,
    general_qubit_ueb, pauli_ueb, tetrahedral_ueb, z4_family_ueb,
)
from qmat_reference import PAULI_MATRICES, TETRAHEDRAL_MATRICES, \
    phase_deviation

RNG = np.random.default_rng(3)


def test_pauli_ueb_orthonormal():
    ok, dev = check_ueb(pauli_ueb().quats, tol=1e-12)
    assert ok and dev < 1e-12


def test_tetrahedral_ueb_orthonormal():
    ok, dev = check_ueb(tetrahedral_ueb().quats, tol=1e-12)
    assert ok and dev < 1e-12


def test_pauli_ueb_is_exactly_the_unit_quaternions():
    assert np.array_equal(pauli_ueb().quats, np.eye(4))


def test_tetrahedral_ueb_is_the_vertex_rotations():
    # The 120-degree rotation about vertex v is (cos 60, sin 60 v).
    want = np.concatenate([np.full((4, 1), 0.5),
                           np.sqrt(0.75) * groups.TET_VERTICES], axis=1)
    assert np.max(np.abs(tetrahedral_ueb().quats - want)) <= 3e-16


@pytest.mark.parametrize("ctor,mats", [(pauli_ueb, PAULI_MATRICES),
                                       (tetrahedral_ueb, TETRAHEDRAL_MATRICES)])
def test_ueb_quaternions_are_the_reference_matrices(ctor, mats):
    assert phase_deviation(su2_matrix(ctor().quats), mats) <= 1e-15


def test_check_ueb_rejects_non_basis():
    ok, dev = check_ueb(np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))
    assert not ok and dev > 0.5


@pytest.mark.parametrize("quats", [np.eye(4)[:3], np.eye(5)[:, :4],
                                   np.eye(4)[:, :3], np.empty((0, 4)),
                                   np.ones(4)])
def test_check_ueb_requires_four_quaternions(quats):
    # Returns (False, inf) without raising, whatever the shape.
    assert check_ueb(quats) == (False, np.inf)
    with pytest.raises(ValueError):
        UnitaryErrorBasis(quats)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_ueb_rejects_non_finite_entries(bad):
    quats = np.eye(4)
    quats[2, 1] = bad
    assert check_ueb(quats) == (False, np.inf)
    assert check_ueb(np.full((4, 4), bad), tol=np.inf) == (False, np.inf)


def test_ueb_constructor_validates():
    with pytest.raises(ValueError):
        UnitaryErrorBasis(np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))


def test_z4_family_recovers_pauli_at_reference_point():
    fam = z4_family_ueb(np.pi, 0.0)
    pauli = pauli_ueb()
    for i in range(4):
        overlap = abs(pauli.quats[i] @ fam.quats[i])
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_z4_family_is_ueb_generically():
    ok, dev = check_ueb(z4_family_ueb(0.7, 1.9).quats, tol=1e-9)
    assert ok, dev


def _rz(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


@pytest.mark.parametrize("theta,phi", [(np.pi, 0.0), (0.7, 1.9), (-2.3, 0.4)])
def test_z4_family_matches_its_matrix_form(theta, phi):
    """{Rz(theta - pi), Rz(phi) X Rz(phi)+, Rz(phi) Y Rz(phi)+, Rz(theta)}
    up to phases."""
    _, x, y, _ = PAULI_MATRICES
    rp = _rz(phi)
    mats = np.stack([_rz(theta - np.pi), rp @ x @ rp.conj().T,
                     rp @ y @ rp.conj().T, _rz(theta)])
    fam = z4_family_ueb(theta, phi)
    assert phase_deviation(su2_matrix(fam.quats), mats) <= 1e-15


def test_general_qubit_ueb_from_random_pair():
    u, v = groups.sample_su2(RNG, 2)
    basis = general_qubit_ueb(u, v)
    ok, dev = check_ueb(basis.quats, tol=1e-9)
    assert ok, dev
    # {U X_k V} for the Pauli matrices X_k, up to phases.
    mats = su2_matrix(u) @ PAULI_MATRICES @ su2_matrix(v)
    assert phase_deviation(su2_matrix(basis.quats), mats) <= 1e-15


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
    """rho(h)+ U_i rho(h) = alpha[i, h] U_sigma[i, h] within 1e-9, with
    U_i = su2_matrix(u_i) and rep the matrices rho(h) of the physical
    representation (on the circle, diag(1, exp(-2i theta)): the phase dropped
    by su2_matrix cancels)."""
    eq = _eq(basis, sub)
    mats = su2_matrix(basis.quats)
    for h in range(eq.subgroup.order):
        r = rep[h]
        for i in range(basis.size):
            lhs = r.conj().T @ mats[i] @ r
            rhs = eq.alpha[i, h] * mats[eq.sigma[i, h]]
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
    for basis, sub in ((tetrahedral_ueb(), "btet"), (pauli_ueb(), "boct")):
        alpha = _eq(basis, sub).alpha
        assert alpha.dtype == np.float64
        assert np.array_equal(np.abs(alpha), np.ones_like(alpha))


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
    """One element h at a time on the matrices U_i = su2_matrix(u_i):
    (sigma, alpha, orbits, stabilizers, coset_reps), with alpha the sign of
    the overlap (1/2) Tr(U_j+ U(h)+ U_i U(h)), raising at the first failing
    (h, i) in h-major order."""
    n, mats = basis.size, su2_matrix(basis.quats)
    sigma = np.empty((n, sub.order), dtype=np.int64)
    alpha = np.empty((n, sub.order))
    for h in range(sub.order):
        r = groups.su2_matrix(sub.payloads[h])
        conj = np.einsum("ab,nbc,cd->nad", r.conj().T, mats, r)
        overlaps = np.einsum("iab,jab->ij", conj, mats.conj()) / 2
        for i in range(n):
            j = int(np.argmax(np.abs(overlaps[i])))
            if abs(abs(overlaps[i, j]) - 1.0) > 1e-9:
                raise NotEquivariantError(i, h, abs(overlaps[i, j]))
            sigma[i, h], alpha[i, h] = j, np.sign(overlaps[i, j].real)
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
    u, v = groups.sample_su2(RNG, 2)
    with pytest.raises(NotEquivariantError):
        equivariance_analysis(general_qubit_ueb(u, v),
                              groups.binary_octahedral())
