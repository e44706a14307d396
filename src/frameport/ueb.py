"""Unitary error bases and their equivariance analysis.

A UEB is a set of d^2 unitaries orthonormal under the normalized
Hilbert-Schmidt inner product (1/d) Tr(U_i+ U_j).  A finite subgroup H of the
frame group acts on an equivariant UEB by conjugation:
U(h)+ U_i U(h) = alpha(i, h) U_{sigma(i, h)}, with U(h) = su2_matrix(h) (the
frame representation up to a phase that cancels), where sigma is a right
action on the index set.  Matching of unitaries is global-phase-insensitive
throughout (|normalized trace overlap| = 1).
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .groups import FiniteSubgroup, PAULI_X, PAULI_Y, PAULI_Z, su2_matrix, \
    unitary_quat
from .qmat import UnitaryMatrix

__all__ = [
    "UnitaryErrorBasis",
    "EquivarianceData",
    "NotEquivariantError",
    "pauli_ueb",
    "tetrahedral_ueb",
    "z4_family_ueb",
    "general_qubit_ueb",
    "check_ueb",
    "equivariance_analysis",
]


class UnitaryErrorBasis:
    """d^2 ordered unitaries, orthonormal under (1/d) Tr(U_i+ U_j)."""

    def __init__(self, mats):
        self.mats = mats = np.asarray(mats, dtype=np.complex128)  # (d^2, d, d)
        ok, dev = check_ueb(mats, tol=1e-9)
        if not ok:
            raise ValueError(f"not a unitary error basis (max deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    @property
    def size(self) -> int:
        return self.mats.shape[0]

    @cached_property
    def quats(self) -> np.ndarray:
        """(d^2, 4) quaternions of the qubit elements, up to phase."""
        return unitary_quat(self.mats)


class NotEquivariantError(ValueError):
    """Conjugation by some U(h) left the basis (up to phase)."""

    def __init__(self, i: int, h: int, best_overlap: float):
        self.i, self.h, self.best_overlap = i, h, best_overlap
        super().__init__(
            f"conjugating U_{i} by element {h} gives best overlap "
            f"{best_overlap:.6f} with the basis")


class EquivarianceData(NamedTuple):
    """Index action of a finite subgroup on an equivariant UEB.

    sigma[i, h] = j and alpha[i, h] the phase with
    U(h)+ U_i U(h) = alpha U_j.  Orbits partition the index set; each
    orbit's stabilizer L fixes the base element (lowest index in the orbit)
    and coset_reps[i] is the lowest-index H-element carrying base -> i.
    """

    basis: UnitaryErrorBasis
    subgroup: FiniteSubgroup
    sigma: np.ndarray           # (d^2, |H|) int
    alpha: np.ndarray           # (d^2, |H|) complex, unit modulus
    orbits: tuple[tuple[int, ...], ...]
    stabilizers: dict[int, tuple[int, ...]]   # orbit base -> H indices
    coset_reps: dict[int, int]                # UEB index -> H index

    def orbit_of(self, i: int) -> tuple[int, ...]:
        for orb in self.orbits:
            if i in orb:
                return orb
        raise KeyError(i)

    def sigma_inv(self, h, i: int):
        """j with sigma(j, h) = i, i.e. sigma(i, h^{-1}); vectorized over h."""
        return self.sigma[i, self.subgroup.inverse[h]]


def pauli_ueb() -> UnitaryErrorBasis:
    """{I, X, Y, Z} in that order."""
    return UnitaryErrorBasis(np.stack([np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]))


def tetrahedral_ueb() -> UnitaryErrorBasis:
    """The tetrahedral qubit UEB (equivariant for the binary tetrahedral
    group)."""
    e2, e4, e5 = (np.exp(1j * k * np.pi / 3) for k in (2, 4, 5))
    s = np.sqrt(2.0)
    v0 = np.diag([1.0, e2])
    v1 = np.array([[1, s * e4], [s * e4, e5]]) / np.sqrt(3)
    v2 = np.array([[1, s * e2], [s, e5]]) / np.sqrt(3)
    v3 = np.array([[1, s], [s * e2, e5]]) / np.sqrt(3)
    return UnitaryErrorBasis(np.stack([v0, v1, v2, v3]))


def _rz(angle: float) -> np.ndarray:
    return np.diag([np.exp(-1j * angle / 2), np.exp(1j * angle / 2)])


def z4_family_ueb(theta: float, phi: float) -> UnitaryErrorBasis:
    """Two-parameter family of Z4-equivariant qubit UEBs; (pi, 0) recovers the
    Pauli UEB up to per-element phases."""
    rp = _rz(phi)
    return UnitaryErrorBasis(np.stack([
        _rz(theta - np.pi),
        rp @ PAULI_X @ rp.conj().T,
        rp @ PAULI_Y @ rp.conj().T,
        _rz(theta),
    ]))


def general_qubit_ueb(U: UnitaryMatrix, V: UnitaryMatrix) -> UnitaryErrorBasis:
    """{U X_i V} for the Pauli basis X_i; any unitary pair gives a UEB."""
    paulis = pauli_ueb().mats
    return UnitaryErrorBasis(np.einsum("ab,nbc,cd->nad", U.mat, paulis, V.mat))


def check_ueb(mats, tol: float = 1e-9) -> tuple[bool, float]:
    """Verify unitarity and Hilbert-Schmidt orthonormality.

    Returns (ok, max deviation); does not raise on failure.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    n, d, _ = mats.shape
    dev = 0.0
    for m in mats:
        dev = max(dev, float(np.max(np.abs(m.conj().T @ m - np.eye(d)))))
    gram = np.einsum("mab,nab->mn", mats.conj(), mats) / d
    dev = max(dev, float(np.max(np.abs(gram - np.eye(n)))))
    return dev <= tol, dev


def equivariance_analysis(basis: UnitaryErrorBasis, sub: FiniteSubgroup
                          ) -> EquivarianceData:
    """Extract the index action sigma, phases alpha, orbits, stabilizers,
    and coset representatives of H acting on the UEB by conjugation."""
    d = basis.dim
    mats = basis.mats
    r = su2_matrix(sub.payloads)
    conj = np.einsum("hba,nbc,hcd->hnad", r.conj(), mats, r)
    # overlaps[h, i, j] = (1/d) Tr(U_j+ U(h)+ U_i U(h))
    overlaps = np.einsum("hiab,jab->hij", conj, mats.conj()) / d
    mags = np.abs(overlaps)
    js = np.argmax(mags, axis=2)
    best = np.take_along_axis(mags, js[..., None], axis=2)[..., 0]
    bad = np.abs(best - 1.0) > 1e-9
    if bad.any():
        # The first failure in h-major order.
        h, i = np.argwhere(bad)[0]
        raise NotEquivariantError(int(i), int(h), float(best[h, i]))
    sigma = np.ascontiguousarray(js.T)
    alpha = np.ascontiguousarray(
        np.take_along_axis(overlaps, js[..., None], axis=2)[..., 0].T)
    orbits = tuple(sorted({tuple(sorted(set(row.tolist()))) for row in sigma}))
    stabilizers = {o[0]: tuple(np.flatnonzero(sigma[o[0]] == o[0]).tolist())
                   for o in orbits}
    coset_reps = {i: int(np.argmax(sigma[o[0]] == i))
                  for o in orbits for i in o}
    return EquivarianceData(basis, sub, sigma, alpha, orbits,
                            stabilizers, coset_reps)
