"""Dense complex matrix core: unitaries, density matrices, superoperators,
Choi states, entropy and purity metrics.

Conventions
-----------
Vectorization is column-stacking: vec(sigma) = sigma.flatten(order='F'), so
the superoperator of conjugation by M is kron(conj(M), M).  The reshuffle
between a superoperator and its Choi state is pinned by the golden identity
"identity channel -> maximally entangled Choi state" (see tests).

Entropies are in nats; map purity uses the ln(d^2) normalization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "InvariantViolation",
    "UnitaryMatrix",
    "DensityMatrix",
    "Superoperator",
    "ChoiState",
    "mix",
    "choi",
    "clamped_eigenvalues",
    "spectrum_purities",
    "map_purity",
]

_ATOL_UNITARY = 1e-12
_ATOL_HERM = 1e-12
_EIG_FLOOR = 1e-14
_NEG_EIG_TOL = 1e-9


class InvariantViolation(ValueError):
    """Raised when a matrix fails the algebraic invariant of its role."""


def _as_complex(entries) -> np.ndarray:
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvariantViolation(f"expected a square matrix, got shape {mat.shape}")
    return mat


@dataclass(frozen=True)
class UnitaryMatrix:
    """A d x d unitary, validated to U+ U = I within 1e-12."""

    mat: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.mat)
        object.__setattr__(self, "mat", mat)
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(self.dim)))
        if dev > _ATOL_UNITARY:
            raise InvariantViolation(f"matrix is not unitary (max deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (eigenvalues >= -1e-9) matrix."""

    mat: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.mat)
        object.__setattr__(self, "mat", mat)
        if np.max(np.abs(mat - mat.conj().T)) > _ATOL_HERM:
            raise InvariantViolation("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-12 or abs(np.trace(mat).imag) > 1e-12:
            raise InvariantViolation(f"trace is {np.trace(mat)}, expected 1")
        lo = float(np.min(np.linalg.eigvalsh(mat)))
        if lo < -_NEG_EIG_TOL:
            raise InvariantViolation(f"negative eigenvalue {lo:.3e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Clamped spectrum, ascending."""
        return clamped_eigenvalues(self.mat)

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


@dataclass(frozen=True)
class Superoperator:
    """A linear map on d x d matrices, stored as a d^2 x d^2 matrix acting on
    column-vectorized inputs."""

    mat: np.ndarray
    tp: bool = field(default=False)
    cp: bool = field(default=False)

    def __post_init__(self):
        mat = _as_complex(self.mat)
        object.__setattr__(self, "mat", mat)
        d = self.dim
        if d * d != mat.shape[0]:
            raise InvariantViolation(f"size {mat.shape[0]} is not a perfect square")
        if self.tp and self._tp_deviation() > 1e-9:
            raise InvariantViolation(
                f"flagged TP but deviates by {self._tp_deviation():.3e}")
        if self.cp:
            lo = float(np.min(np.linalg.eigvalsh(self._choi_mat())))
            if lo < -_NEG_EIG_TOL:
                raise InvariantViolation(f"flagged CP but Choi eigenvalue {lo:.3e}")

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.mat.shape[0])))

    def apply(self, sigma: np.ndarray) -> np.ndarray:
        d = self.dim
        vec = np.asarray(sigma, dtype=np.complex128).flatten(order="F")
        return (self.mat @ vec).reshape(d, d, order="F")

    def _choi_mat(self) -> np.ndarray:
        # C[(i,k),(j,l)] = (1/d) S[(l,k),(j,i)] in column-stacking convention.
        d = self.dim
        s4 = self.mat.reshape(d, d, d, d)
        return s4.transpose(3, 1, 2, 0).reshape(d * d, d * d) / d

    def _tp_deviation(self) -> float:
        d = self.dim
        c4 = self._choi_mat().reshape(d, d, d, d)
        # Partial trace over the output (second) factor.
        reduced = np.einsum("ikjk->ij", c4)
        return float(np.max(np.abs(reduced - np.eye(d) / d)))


@dataclass(frozen=True)
class ChoiState:
    """Choi-Jamiolkowski state of a channel: a d^2-dimensional density matrix
    with purity in [1/d^2, 1]."""

    rho: DensityMatrix

    def __post_init__(self):
        d2 = self.rho.dim
        p = self.rho.purity()
        if not (1.0 / d2 - 1e-9 <= p <= 1.0 + 1e-9):
            raise InvariantViolation(f"Choi purity {p} outside [1/d^2, 1]")


def mix(channels: Sequence[tuple[float, Superoperator]]) -> Superoperator:
    """Convex combination of superoperators; weights must sum to 1."""
    if not channels:
        raise InvariantViolation("empty channel list")
    total = sum(w for w, _ in channels)
    if abs(total - 1.0) > 1e-12:
        raise InvariantViolation(f"weights sum to {total}, expected 1")
    mat = sum(w * s.mat for w, s in channels)
    return Superoperator(mat,
                         tp=all(s.tp for _, s in channels),
                         cp=all(s.cp for _, s in channels))


def choi(S: Superoperator) -> ChoiState:
    """Choi state rho_T = (1/d) sum_ij |i><j| (x) T(|i><j|).

    MC-estimated superoperators are only approximately Hermitian and PSD, so
    small deviations are symmetrized away before validation.
    """
    c = S._choi_mat()
    c = 0.5 * (c + c.conj().T)
    c = c / np.trace(c).real
    return ChoiState(DensityMatrix(c))


def _entropy(vals: np.ndarray) -> np.ndarray:
    """-sum lambda ln lambda over the last axis in nats, with 0 ln 0 := 0."""
    return -np.sum(vals * np.log(np.where(vals > 0, vals, 1.0)), axis=-1)


def clamped_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending spectra of Hermitian matrices (..., n, n), with eigenvalues
    below 1e-14 read as 0."""
    vals = np.linalg.eigvalsh(mats)
    return np.where(vals < _EIG_FLOOR, 0.0, vals)


def spectrum_purities(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized purity 1 - S/ln(n) and linear purity sum lambda^2 of
    unit-trace clamped spectra (..., n), such as Choi spectra (n = d^2)."""
    return (1.0 - _entropy(vals) / np.log(vals.shape[-1]),
            np.sum(vals * vals, axis=-1))


def map_purity(S: Superoperator) -> float:
    """Normalized Choi purity 1 - S(rho_T)/ln(d^2)."""
    return float(spectrum_purities(choi(S).rho.eigenvalues())[0])
