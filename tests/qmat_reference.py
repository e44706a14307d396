"""Reference maps that only the tests use: the component formula of the
quaternion product, the conjugation superoperator of a unitary, the von
Neumann entropy and the linear Choi purity of a dense superoperator, raw
Haar draws of a stream, the distance-based nearest-element search, and
equal-measure bins of a reading space."""
from __future__ import annotations

import numpy as np

from frameport.encoding import ReadingSpace
from frameport.groups import FiniteSubgroup, HaarStream, haar_batch
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


def haar_payloads(stream: HaarStream, n: int) -> np.ndarray:
    """Raw i.i.d. Haar payload array of the stream's group and counter."""
    return haar_batch(stream.group, stream.generator(), n)


def nearest_indices(payloads: np.ndarray, sub: FiniteSubgroup,
                    sign_insensitive: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-element search under the invariant metric.

    Returns (indices, tie counts beyond the winner).  Ties (within 1e-9 of
    the winning distance) are broken by lowest element index.
    """
    dots = np.asarray(payloads) @ sub.payloads.T
    if sign_insensitive or sub.ambient == "so3":
        dots = np.abs(dots)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * dots, 0.0))
    best = np.min(dist, axis=-1)
    near = dist <= best[..., None] + 1e-9
    idx = np.argmax(near, axis=-1)
    ties = np.sum(near, axis=-1) - 1
    return idx, ties


def uniform_bins(space: ReadingSpace, x: np.ndarray, n_bins: int = 64
                 ) -> np.ndarray:
    """Assign readings of a space to one of n_bins equal-measure bins (for
    uniformity tests)."""
    x = np.asarray(x)
    if space.group == "u1":
        # Equal arcs of the axis angle t of u1_quat(t), mod pi.
        t = np.arctan2(-x[..., 3], x[..., 0]) % np.pi
        return np.minimum((t / np.pi * n_bins).astype(int), n_bins - 1)
    if space.kind == "rod-axis":
        side = int(round(np.sqrt(n_bins)))
        # Fold to the upper hemisphere; equal-area bands in |z| times
        # azimuthal sectors.
        v = np.where(x[:, 2:3] < 0, -x, x)
        band = np.minimum((v[:, 2] * side).astype(int), side - 1)
        az = (np.arctan2(v[:, 1], v[:, 0]) % (2 * np.pi)) / (2 * np.pi)
        sector = np.minimum((az * side).astype(int), side - 1)
        return band * side + sector
    raise ValueError(f"no binning rule for {space.kind!r}")
