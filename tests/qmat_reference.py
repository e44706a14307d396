"""Reference maps that only the tests use: the component formula of the
quaternion product, the conjugation superoperator of a unitary, the von
Neumann entropy and the linear Choi purity of a dense superoperator."""
from __future__ import annotations

import numpy as np

from frameport.qmat import DensityMatrix, Superoperator, UnitaryMatrix, \
    _entropy, choi, spectrum_purities


def component_quat_mul(a, b) -> np.ndarray:
    """Hamilton product of quaternions (..., 4), one component at a time."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def component_quat_conj(q) -> np.ndarray:
    """Quaternion conjugate (w, -x, -y, -z)."""
    return np.asarray(q, dtype=np.float64) * np.array([1.0, -1.0, -1.0, -1.0])


def conjugation_superoperator(U: UnitaryMatrix) -> Superoperator:
    """Superoperator of sigma -> U sigma U+."""
    m = U.mat
    return Superoperator(np.kron(m.conj(), m), tp=True, cp=True)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda ln lambda in nats, with 0 ln 0 := 0."""
    return float(_entropy(rho.eigenvalues()))


def linear_map_purity(S: Superoperator) -> float:
    """Linear Choi purity Tr(rho_T^2)."""
    return float(spectrum_purities(choi(S).rho.eigenvalues())[1])
