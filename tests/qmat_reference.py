"""Reference maps that only the tests use: the component formula of the
quaternion product, the np.cross form of a rotation, the dense Choi layer
(the Choi state of a superoperator, its TP/CP validation, mixtures and map
purities), the conjugation superoperator of a unitary, the von Neumann
entropy, the linear purity of a channel estimate with its bootstrap error,
raw Haar draws and substreams of a stream, the distance-based
nearest-element search, the perfect-scheme realignment of a correction, the
one-shot and the single-reading decode, uniform readings of a scheme and
equal-measure bins of them, the per-triple and 4x4-matrix forms of the two
optimize objectives, and Nelder-Mead on numpy arrays."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from frameport.channel import ChannelEstimate
from frameport.encoding import EncodingScheme, decode_batch
from frameport.groups import FiniteSubgroup, HaarStream, binary_tetrahedral, \
    canonical_sign, first_lifts, haar_batch, quat_conj, quat_mul, quat_rotate
from frameport.qmat import DensityMatrix, InvariantViolation, Superoperator, \
    UnitaryMatrix, _entropy, clamped_eigenvalues, spectrum_purities


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


def cross_quat_rotate(q, v) -> np.ndarray:
    """Rotation of vector(s) v (..., 3) by quaternion(s) q (..., 4), in the
    Rodrigues form v + 2 w (u x v) + 2 u x (u x v) with np.cross."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w, u = q[..., :1], q[..., 1:]
    cross = np.cross(u, v)
    return v + 2.0 * w * cross + 2.0 * np.cross(u, cross)


def choi_matrix(S: Superoperator) -> np.ndarray:
    """Choi matrix C[(i,k),(j,l)] = (1/d) S[(l,k),(j,i)] in the
    column-stacking convention."""
    d = S.dim
    s4 = S.mat.reshape(d, d, d, d)
    return s4.transpose(3, 1, 2, 0).reshape(d * d, d * d) / d


def tp_deviation(S: Superoperator) -> float:
    """Largest deviation of the Choi matrix's partial trace over the output
    factor from I/d."""
    d = S.dim
    c4 = choi_matrix(S).reshape(d, d, d, d)
    return float(np.max(np.abs(np.einsum("ikjk->ij", c4) - np.eye(d) / d)))


def checked_channel(mat) -> Superoperator:
    """A superoperator validated as trace preserving (within 1e-9) and
    completely positive (Choi eigenvalues >= -1e-9)."""
    s = Superoperator(mat)
    if tp_deviation(s) > 1e-9:
        raise InvariantViolation(f"not TP: deviates by {tp_deviation(s):.3e}")
    lo = float(np.min(np.linalg.eigvalsh(choi_matrix(s))))
    if lo < -1e-9:
        raise InvariantViolation(f"not CP: Choi eigenvalue {lo:.3e}")
    return s


@dataclass(frozen=True)
class ChoiState:
    """Choi-Jamiolkowski state of a channel: a d^2-dimensional density matrix
    with purity in [1/d^2, 1]."""

    rho: DensityMatrix

    def __post_init__(self):
        p = float(np.trace(self.rho.mat @ self.rho.mat).real)
        if not (1.0 / self.rho.dim - 1e-9 <= p <= 1.0 + 1e-9):
            raise InvariantViolation(f"Choi purity {p} outside [1/d^2, 1]")

    def eigenvalues(self) -> np.ndarray:
        """Clamped spectrum, ascending."""
        return clamped_eigenvalues(self.rho.mat)


def choi(S: Superoperator) -> ChoiState:
    """Choi state rho_T = (1/d) sum_ij |i><j| (x) T(|i><j|).

    MC-estimated superoperators are only approximately Hermitian and PSD, so
    small deviations are symmetrized away before validation.
    """
    c = choi_matrix(S)
    c = 0.5 * (c + c.conj().T)
    c = c / np.trace(c).real
    return ChoiState(DensityMatrix(c))


def mix(channels: Sequence[tuple[float, Superoperator]]) -> Superoperator:
    """Convex combination of channels, validated as a channel; weights must
    sum to 1."""
    if not channels:
        raise InvariantViolation("empty channel list")
    total = sum(w for w, _ in channels)
    if abs(total - 1.0) > 1e-12:
        raise InvariantViolation(f"weights sum to {total}, expected 1")
    return checked_channel(sum(w * s.mat for w, s in channels))


def map_purity(S: Superoperator) -> float:
    """Normalized Choi purity 1 - S(rho_T)/ln(d^2)."""
    return float(spectrum_purities(choi(S).eigenvalues())[0])


def conjugation_superoperator(U: UnitaryMatrix) -> Superoperator:
    """Superoperator of sigma -> U sigma U+."""
    m = U.mat
    return checked_channel(np.kron(m.conj(), m))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda ln lambda in nats, with 0 ln 0 := 0."""
    return float(_entropy(clamped_eigenvalues(rho.mat)))


def linear_map_purity(S: Superoperator) -> float:
    """Linear Choi purity Tr(rho_T^2)."""
    return float(spectrum_purities(choi(S).eigenvalues())[1])


def linear_purity_with_error(est: ChannelEstimate) -> tuple[float, float]:
    """Linear Choi purity of an estimate and the standard deviation of its
    bootstrap replicates (0 for an exact estimate)."""
    value = float(spectrum_purities(est.choi_spectrum())[1])
    if est.replicates is None:
        return value, 0.0
    reps = spectrum_purities(clamped_eigenvalues(est.replicates))[1]
    return value, float(np.std(reps, ddof=1))


def haar_payloads(stream: HaarStream, n: int) -> np.ndarray:
    """Raw i.i.d. Haar payload array of the stream's group and counter."""
    return haar_batch(stream.group, stream.generator(), n)


def child_stream(stream: HaarStream, i: int) -> HaarStream:
    """The i-th substream of the stream's seed, at counter
    (counter << 16) + i + 1."""
    return replace(stream, counter=(stream.counter << 16) + i + 1)


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


def one_shot_decode(scheme: EncodingScheme, x) -> np.ndarray:
    """Labels of a matched scheme's readings x (..., 4), all scored at
    once: lifted[argmax |x . h|] over the first lift h of each kernel pair,
    with the lifted labels of the orbit base's coset decomposition."""
    sub = scheme.subgroup
    lifts = first_lifts(sub.payloads)
    lifted = scheme.eq.sigma[min(scheme.indices)][lifts]
    h_t = np.ascontiguousarray(sub.payloads[lifts].T)
    return lifted[np.argmax(np.abs(np.asarray(x) @ h_t), axis=-1)]


def realigned_correction(scheme: EncodingScheme, u_j: np.ndarray,
                         y: np.ndarray, j: int) -> np.ndarray:
    """Bob's correction ghat U_j ghat^{-1} on a perfect scheme, in his frame,
    with the alignment ghat = y^{-1} xhat_j he reconstructs from received
    readings y (n, 4): the element carrying the first point xhat_j of X_j
    onto y."""
    ghat = quat_mul(quat_conj(y), scheme.points[j][0])
    return quat_mul(quat_mul(ghat, u_j), quat_conj(ghat))


def decode(scheme: EncodingScheme, x) -> int:
    """Index of the decoding subset containing the single reading x."""
    return int(decode_batch(scheme, np.asarray([x]))[0])


def is_rod(scheme: EncodingScheme) -> bool:
    """Whether the scheme reads rod axes rather than frame labels."""
    return scheme.act_fn is quat_rotate


def uniform_readings(scheme: EncodingScheme, rng, n: int) -> np.ndarray:
    """n uniform readings of a scheme: unit axes for the rod scheme, and
    canonical-signed Haar labels of its frame group otherwise."""
    if is_rod(scheme):
        vec = rng.normal(size=(n, 3))
        x, y, z = vec.T
        return vec / np.sqrt(x * x + y * y + z * z)[:, None]
    return canonical_sign(haar_batch(scheme.subgroup.ambient, rng, n))


def uniform_bins(scheme: EncodingScheme, x: np.ndarray, n_bins: int = 64
                 ) -> np.ndarray:
    """Assign readings of a scheme to one of n_bins equal-measure bins (for
    uniformity tests)."""
    x = np.asarray(x)
    if scheme.subgroup.ambient == "u1":
        # Equal arcs of the axis angle t of u1_quat(t), mod pi.
        t = np.arctan2(-x[..., 3], x[..., 0]) % np.pi
        return np.minimum((t / np.pi * n_bins).astype(int), n_bins - 1)
    if is_rod(scheme):
        side = int(round(np.sqrt(n_bins)))
        # Fold to the upper hemisphere; equal-area bands in |z| times
        # azimuthal sectors.
        v = np.where(x[:, 2:3] < 0, -x, x)
        band = np.minimum((v[:, 2] * side).astype(int), side - 1)
        az = (np.arctan2(v[:, 1], v[:, 0]) % (2 * np.pi)) / (2 * np.pi)
        sector = np.minimum((az * side).astype(int), side - 1)
        return band * side + sector
    raise ValueError("no binning rule for SU(2) frame labels")


def unit_vector(psi: float, phi: float) -> np.ndarray:
    return np.array([np.sin(psi) * np.cos(phi),
                     np.sin(psi) * np.sin(phi),
                     np.cos(psi)])


def rotation_quat(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion (4,) of the SU(2) lift exp(-i angle/2 axis.sigma)."""
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def u1_matrix_purity(angles) -> float:
    """The circle-group conventional purity ||M||_F^2 from the 4x4 second
    moment M = (3/8) e_0 e_0^T + (3/8) L D L^T + (1/8) (0 (+) (x x^T + D))
    of `optimize.u1_conventional_purity`, built as a matrix."""
    psi_x, psi_y, phi_x, phi_y = angles
    x = unit_vector(psi_x, phi_x)
    d = unit_vector(psi_y, phi_y) ** 2
    x1, x2, x3 = x
    lmap = np.array([x, [0.0, x3, -x2], [-x3, 0.0, x1], [x2, -x1, 0.0]])
    m = 0.375 * (lmap * d) @ lmap.T
    m[0, 0] += 0.375
    m[1:, 1:] += 0.125 * (np.outer(x, x) + np.diag(d))
    return float(np.sum(m * m))


def su2_triple_purity(angles) -> float:
    """The rotation-group conventional purity of one angle triple
    (psi, phi, omega): ||M||_F^2 for the mean M over the 24 elements of BTet,
    a spherical 5-design, of the second moments of A_i(Y) = X_i Y X_i U Y+."""
    psi, phi, omega = angles
    u = rotation_quat(unit_vector(psi, phi), omega)
    paulis = np.eye(4)[:, None, :]

    def second_moment(y):
        a = quat_mul(quat_mul(quat_mul(paulis, y), quat_conj(paulis)),
                     quat_mul(u, quat_conj(y)))         # (4, n, 4)
        return np.einsum("iyk,iyl->ykl", a, a) / 4

    m = np.mean(second_moment(binary_tetrahedral().payloads), axis=0)
    return float(np.sum(m * m))


def array_nelder_mead(objective, x0, step=0.25, max_iter=10 ** 4,
                      diameter_tol=1e-6, spread_tol=1e-10):
    """`optimize.nelder_mead` with the simplex held in numpy arrays: the
    same moves, coefficients (1, 2, 0.5, 0.5), stopping rules and stable
    ordering.  Returns (x, value, iterations, evaluations, capped)."""
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.size
    vertices = np.tile(x0, (n + 1, 1))
    vertices[np.arange(n) + 1, np.arange(n)] += step
    values = np.array([objective(v) for v in vertices])
    iterations, evaluations, capped = 0, n + 1, True
    for _ in range(max_iter):
        idx = np.argsort(-values, kind="stable")
        vertices, values = vertices[idx], values[idx]
        diameter = np.max(np.linalg.norm(vertices - vertices[0], axis=1))
        if diameter < diameter_tol or values[0] - values[-1] < spread_tol:
            capped = False
            break
        iterations += 1
        centroid = vertices[:-1].mean(axis=0)
        worst = vertices[-1]
        reflected = centroid + (centroid - worst)
        f_r = objective(reflected)
        evaluations += 1
        if values[-2] < f_r <= values[0]:
            vertices[-1], values[-1] = reflected, f_r
            continue
        if f_r > values[0]:
            expanded = centroid + 2.0 * (reflected - centroid)
            f_e = objective(expanded)
            evaluations += 1
            if f_e > f_r:
                vertices[-1], values[-1] = expanded, f_e
            else:
                vertices[-1], values[-1] = reflected, f_r
            continue
        contracted = centroid + 0.5 * (worst - centroid)
        f_c = objective(contracted)
        evaluations += 1
        if f_c > values[-1]:
            vertices[-1], values[-1] = contracted, f_c
            continue
        vertices[1:] = vertices[0] + 0.5 * (vertices[1:] - vertices[0])
        values[1:] = [objective(v) for v in vertices[1:]]
        evaluations += n
    idx = np.argsort(-values, kind="stable")
    return (vertices[idx[0]], float(values[idx[0]]), iterations, evaluations,
            capped)
