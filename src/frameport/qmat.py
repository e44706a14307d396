"""Dense complex matrix core: validated unitaries and density matrices, the
superoperator a channel is output as, and the purities of a Choi spectrum.

Conventions
-----------
Vectorization is column-stacking: vec(sigma) = sigma.flatten(order='F'), so
the superoperator of conjugation by M is kron(conj(M), M).  Channels are
held as quaternion moments (channel.ChannelEstimate), whose eigenvalues are
their Choi spectra; the dense Choi state of a superoperator is built only by
the tests' reference maps.

Entropies are in nats; map purity uses the ln(d^2) normalization.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "InvariantViolation",
    "UnitaryMatrix",
    "DensityMatrix",
    "Superoperator",
    "clamped_eigenvalues",
    "spectrum_purities",
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


class UnitaryMatrix:
    """A d x d unitary, validated to U+ U = I within 1e-12."""

    def __init__(self, mat):
        self.mat = mat = _as_complex(mat)
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(self.dim)))
        if dev > _ATOL_UNITARY:
            raise InvariantViolation(f"matrix is not unitary (max deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class DensityMatrix:
    """Hermitian, unit-trace, PSD (eigenvalues >= -1e-9) matrix."""

    def __init__(self, mat):
        self.mat = mat = _as_complex(mat)
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


class Superoperator:
    """A linear map on d x d matrices, stored as a d^2 x d^2 matrix acting on
    column-vectorized inputs."""

    def __init__(self, mat):
        self.mat = mat = _as_complex(mat)
        d = self.dim
        if d * d != mat.shape[0]:
            raise InvariantViolation(f"size {mat.shape[0]} is not a perfect square")

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.mat.shape[0])))

    def apply(self, sigma: np.ndarray) -> np.ndarray:
        d = self.dim
        vec = np.asarray(sigma, dtype=np.complex128).flatten(order="F")
        return (self.mat @ vec).reshape(d, d, order="F")


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

