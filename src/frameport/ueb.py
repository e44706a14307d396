"""Unitary error bases and their equivariance analysis.

A qubit UEB is four unitaries orthonormal under the normalized
Hilbert-Schmidt inner product (1/2) Tr(U_i+ U_j).  Every qubit unitary is a
phase times U(q) for a unit quaternion q (groups module docstring), and
(1/2) Tr(U(a)+ U(b)) = a . b, so a UEB is held as the (4, 4) array of its
unit quaternions, orthonormal rows, with the phases dropped.  A finite
subgroup H of the frame group acts on an equivariant UEB by conjugation:
h-bar u_i h = alpha(i, h) u_{sigma(i, h)} with alpha = +-1, where sigma is a
right action on the index set.  Matching of unitaries is phase-insensitive
throughout (|overlap| = 1).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .groups import TET_VERTICES, FiniteSubgroup, axis_angle_quat, \
    quat_conj, quat_mul

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
    """Four ordered qubit unitaries, held as orthonormal unit quaternions."""

    def __init__(self, quats):
        self.quats = quats = np.array(quats, dtype=np.float64)   # (4, 4)
        ok, dev = check_ueb(quats, tol=1e-9)
        if not ok:
            raise ValueError(f"not a unitary error basis (max deviation {dev:.3e})")

    @property
    def size(self) -> int:
        return self.quats.shape[0]


class NotEquivariantError(ValueError):
    """Conjugation by some h left the basis (up to sign)."""

    def __init__(self, i: int, h: int, best_overlap: float):
        self.i, self.h, self.best_overlap = i, h, best_overlap
        super().__init__(
            f"conjugating U_{i} by element {h} gives best overlap "
            f"{best_overlap:.6f} with the basis")


class EquivarianceData(NamedTuple):
    """Index action of a finite subgroup on an equivariant UEB.

    sigma[i, h] = j and alpha[i, h] the sign with h-bar u_i h = alpha u_j.
    Orbits partition the index set; each orbit's stabilizer L fixes the base
    element (lowest index in the orbit) and coset_reps[i] is the lowest-index
    H-element carrying base -> i.
    """

    basis: UnitaryErrorBasis
    subgroup: FiniteSubgroup
    sigma: np.ndarray           # (4, |H|) int
    alpha: np.ndarray           # (4, |H|) float, +-1
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
    """{I, X, Y, Z} in that order: U(e_k) = -i sigma_k."""
    return UnitaryErrorBasis(np.eye(4))


def tetrahedral_ueb() -> UnitaryErrorBasis:
    """The tetrahedral qubit UEB (equivariant for the binary tetrahedral
    group): the 120-degree rotations about the reference tetrahedron's
    vertices."""
    return UnitaryErrorBasis([axis_angle_quat(v, 2 * np.pi / 3)
                              for v in TET_VERTICES])


def z4_family_ueb(theta: float, phi: float) -> UnitaryErrorBasis:
    """Two-parameter family of Z4-equivariant qubit UEBs: z-rotations by
    theta - pi and theta, and X and Y turned by phi about z.  (pi, 0) gives
    the Pauli UEB to rounding."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    cp, sp = np.cos(phi), np.sin(phi)
    return UnitaryErrorBasis([[s, 0, 0, -c], [0, cp, sp, 0],
                              [0, -sp, cp, 0], [c, 0, 0, s]])


def general_qubit_ueb(u, v) -> UnitaryErrorBasis:
    """{u e_k v} for the Pauli quaternions e_k; any unit quaternions u, v
    give a UEB."""
    return UnitaryErrorBasis(quat_mul(quat_mul(u, np.eye(4)), v))


def check_ueb(quats, tol: float = 1e-9) -> tuple[bool, float]:
    """Verify that quats is four finite unit quaternions, orthonormal: the
    Gram matrix quats quats^T is the identity within tol.

    Returns (ok, max deviation), with deviation inf for a wrong shape or a
    non-finite entry; does not raise on failure.
    """
    quats = np.asarray(quats, dtype=np.float64)
    if quats.shape != (4, 4) or not np.isfinite(quats).all():
        return False, float("inf")
    dev = float(np.max(np.abs(quats @ quats.T - np.eye(4))))
    return dev <= tol, dev


def equivariance_analysis(basis: UnitaryErrorBasis, sub: FiniteSubgroup
                          ) -> EquivarianceData:
    """Extract the index action sigma, signs alpha, orbits, stabilizers,
    and coset representatives of H acting on the UEB by conjugation."""
    u, g = basis.quats, sub.payloads[:, None]
    # overlaps[h, i, j] = (h-bar u_i h) . u_j
    overlaps = quat_mul(quat_mul(quat_conj(g), u), g) @ u.T
    js = np.argmax(np.abs(overlaps), axis=2)
    picked = np.take_along_axis(overlaps, js[..., None], axis=2)[..., 0]
    best = np.abs(picked)
    bad = np.abs(best - 1.0) > 1e-9
    if bad.any():
        # The first failure in h-major order.
        h, i = np.argwhere(bad)[0]
        raise NotEquivariantError(int(i), int(h), float(best[h, i]))
    sigma = np.ascontiguousarray(js.T)
    alpha = np.ascontiguousarray(np.sign(picked).T)
    orbits = tuple(sorted({tuple(sorted(set(row.tolist()))) for row in sigma}))
    stabilizers = {o[0]: tuple(np.flatnonzero(sigma[o[0]] == o[0]).tolist())
                   for o in orbits}
    coset_reps = {i: int(np.argmax(sigma[o[0]] == i))
                  for o in orbits for i in o}
    return EquivarianceData(basis, sub, sigma, alpha, orbits,
                            stabilizers, coset_reps)
