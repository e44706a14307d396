"""Reference maps that only the tests use: the complex matrices of the
built-in UEBs and their phase-insensitive comparison, the signs of the
index action of an equivariant UEB, the component formula of the quaternion
product, the np.cross form of a rotation, the dense Choi layer on
superoperators held as (d^2, d^2) complex arrays on column-stacked inputs
(their action on a state, the Choi state, its TP/CP validation, mixtures and
map purities), the conjugation superoperator of a unitary, the von Neumann
entropy, the linear purity of a channel estimate with its bootstrap error,
the conventional channel of one result or of all, the map purity of one
estimate and the mean-result purity of several, raw Haar draws and
substreams of a stream, the distance-based nearest-element search, the
perfect-scheme realignment of a correction, the dense teleportation through
a resource (measurement basis, Born probabilities, pre-correction unitary),
the one-shot and the single-reading decode, uniform readings of a scheme and
equal-measure bins of them, the per-triple and 4x4-matrix forms of the two
optimize objectives, and the Haar fourth-moment tensor of the rotation-group
objective."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from frameport.channel import ChannelEstimate, DensityMatrix, \
    InvariantViolation, _entropy, clamped_eigenvalues, fourth_moment_map, \
    mix_estimates, purity_figures, result_estimates, spectrum_purities
from frameport.encoding import EncodingScheme, conventional_scheme, \
    decode_batch
from frameport.groups import FiniteSubgroup, HaarStream, binary_tetrahedral, \
    canonical_sign, first_lifts, haar_batch, haar_fourth_moment, quat_conj, \
    quat_mul, quat_rotate, su2_matrix
from frameport.ueb import EquivarianceData, UnitaryErrorBasis


def _tetrahedral_matrices() -> np.ndarray:
    e2, e4, e5 = (np.exp(1j * k * np.pi / 3) for k in (2, 4, 5))
    s = np.sqrt(2.0)
    return np.stack([
        np.diag([1.0, e2]),
        np.array([[1, s * e4], [s * e4, e5]]) / np.sqrt(3),
        np.array([[1, s * e2], [s, e5]]) / np.sqrt(3),
        np.array([[1, s], [s * e2, e5]]) / np.sqrt(3),
    ])


# The complex 2x2 matrices of the two built-in UEBs, in basis order:
# {I, X, Y, Z}, and the tetrahedral UEB in its published matrix form.
PAULI_MATRICES = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                           [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
TETRAHEDRAL_MATRICES = _tetrahedral_matrices()


def phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of |a - c b| over the stacks of 2x2 unitaries a, b
    (..., 2, 2), with c = (1/2) Tr(b+ a), the global phase per matrix."""
    c = np.einsum("...ab,...ab->...", b.conj(), a) / 2
    return float(np.max(np.abs(a - c[..., None, None] * b)))


def equivariance_signs(eq: EquivarianceData) -> np.ndarray:
    """alpha (4, |H|) with h-bar u_i h = alpha[i, h] u_sigma(i, h): the sign
    of the overlap (h-bar u_i h) . u_sigma(i, h) of the quaternions."""
    u, h = eq.basis.quats, eq.subgroup.payloads[:, None]
    conj = quat_mul(quat_mul(quat_conj(h), u), h)       # (|H|, 4, 4)
    return np.sign(np.sum(conj * u[eq.sigma.T], axis=-1)).T


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


def _dim(S: np.ndarray) -> int:
    """d of a (d^2, d^2) superoperator."""
    return int(round(np.sqrt(len(S))))


def apply_superop(S: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """S applied to a d x d matrix: S vec(sigma), reshaped column-first."""
    d = _dim(S)
    vec = np.asarray(sigma, dtype=np.complex128).flatten(order="F")
    return (S @ vec).reshape(d, d, order="F")


def choi_matrix(S: np.ndarray) -> np.ndarray:
    """Choi matrix C[(i,k),(j,l)] = (1/d) S[(l,k),(j,i)] in the
    column-stacking convention."""
    d = _dim(S)
    s4 = np.asarray(S).reshape(d, d, d, d)
    return s4.transpose(3, 1, 2, 0).reshape(d * d, d * d) / d


def tp_deviation(S: np.ndarray) -> float:
    """Largest deviation of the Choi matrix's partial trace over the output
    factor from I/d."""
    d = _dim(S)
    c4 = choi_matrix(S).reshape(d, d, d, d)
    return float(np.max(np.abs(np.einsum("ikjk->ij", c4) - np.eye(d) / d)))


def checked_channel(mat) -> np.ndarray:
    """A (d^2, d^2) complex superoperator validated as trace preserving
    (within 1e-9) and completely positive (Choi eigenvalues >= -1e-9)."""
    s = np.asarray(mat, dtype=np.complex128)
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
        if not (1.0 / len(self.rho.mat) - 1e-9 <= p <= 1.0 + 1e-9):
            raise InvariantViolation(f"Choi purity {p} outside [1/d^2, 1]")

    def eigenvalues(self) -> np.ndarray:
        """Clamped spectrum, ascending."""
        return clamped_eigenvalues(self.rho.mat)


def choi(S: np.ndarray) -> ChoiState:
    """Choi state rho_T = (1/d) sum_ij |i><j| (x) T(|i><j|).

    MC-estimated superoperators are only approximately Hermitian and PSD, so
    small deviations are symmetrized away before validation.
    """
    c = choi_matrix(S)
    c = 0.5 * (c + c.conj().T)
    c = c / np.trace(c).real
    return ChoiState(DensityMatrix(c))


def mix(channels: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    """Convex combination of channels, validated as a channel; weights must
    sum to 1."""
    if not channels:
        raise InvariantViolation("empty channel list")
    total = sum(w for w, _ in channels)
    if abs(total - 1.0) > 1e-12:
        raise InvariantViolation(f"weights sum to {total}, expected 1")
    return checked_channel(sum(w * s for w, s in channels))


def map_purity(S: np.ndarray) -> float:
    """Normalized Choi purity 1 - S(rho_T)/ln(d^2)."""
    return float(spectrum_purities(choi(S).eigenvalues())[0])


def conjugation_superoperator(m: np.ndarray) -> np.ndarray:
    """The superoperator of sigma -> M sigma M+ for a unitary M, validated
    as a channel."""
    m = np.asarray(m, dtype=np.complex128)
    return checked_channel(np.kron(m.conj(), m))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda ln lambda in nats, with 0 ln 0 := 0."""
    return float(_entropy(clamped_eigenvalues(rho.mat)))


def linear_map_purity(S: np.ndarray) -> float:
    """Linear Choi purity Tr(rho_T^2)."""
    return float(spectrum_purities(choi(S).eigenvalues())[1])


def linear_purity_with_error(est: ChannelEstimate) -> tuple[float, float]:
    """Linear Choi purity of an estimate and the standard deviation of its
    bootstrap replicates (0 for an exact estimate)."""
    value = float(spectrum_purities(clamped_eigenvalues(est.moment))[1])
    if est.replicates is None:
        return value, 0.0
    reps = spectrum_purities(clamped_eigenvalues(est.replicates))[1]
    return value, float(np.std(reps, ddof=1))


def conventional_estimate(basis: UnitaryErrorBasis, group: str, result,
                          method: str = "quadrature", samples: int = 10 ** 6,
                          seed: int = 0) -> ChannelEstimate:
    """The conventional channel of one result, or for "averaged" the equal
    mix over all results, as the CLI builds it from result_estimates."""
    ests = list(result_estimates(
        conventional_scheme(basis, group),
        range(basis.size) if result == "averaged" else [result], method,
        samples, seed).values())
    return mix_estimates(ests) if result == "averaged" else ests[0]


def purity_with_error(est: ChannelEstimate) -> tuple[float, float]:
    """Map purity of one estimate and its bootstrap standard error, from
    purity_figures."""
    _, purity, error, _ = purity_figures([est])
    return float(purity[0]), float(error[0])


def mean_result(ests: dict[int, ChannelEstimate]) -> tuple[float, float]:
    """The CLI's mean-result figure of per-result estimates: the mean of
    their map purities and the mean of their errors."""
    _, purity, errors, _ = purity_figures(list(ests.values()))
    return float(np.mean(purity)), float(np.mean(errors))


def haar_payloads(group: str, stream: HaarStream, n: int) -> np.ndarray:
    """Raw i.i.d. Haar payload array of a group at the stream's counter."""
    return haar_batch(group, stream.generator(), n)


def child_stream(stream: HaarStream, i: int) -> HaarStream:
    """The i-th substream of the stream's seed, at counter
    (counter << 16) + i + 1."""
    return stream._replace(counter=(stream.counter << 16) + i + 1)


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


def measurement_basis(basis: UnitaryErrorBasis, x: np.ndarray
                      ) -> np.ndarray:
    """Columns |phi_k> = (1/sqrt 2) sum_i |i> (U_k X)^T |i> of Alice's
    measurement with the UEB basis, U_k = su2_matrix(basis.quats[k]), and
    the resource (1 (x) X)|Phi+>."""
    return np.stack([(u @ x).reshape(4) / np.sqrt(2)
                     for u in su2_matrix(basis.quats)], axis=1)


def born_probabilities(basis: UnitaryErrorBasis, x: np.ndarray,
                       sigma: np.ndarray) -> np.ndarray:
    """Probabilities of Alice's results on sigma (x) eta, with the resource
    state eta = (1/sqrt 2) sum_k |k> X|k>, from the dense joint state:
    the trace of <phi_k| on its first two factors."""
    eta = x.T.reshape(4) / np.sqrt(2)
    joint = np.kron(sigma, np.outer(eta, eta.conj())).reshape(4, 2, 4, 2)
    meas = measurement_basis(basis, x)
    return np.array([np.einsum("a,abcb,c->", phi.conj(), joint, phi).real
                     for phi in meas.T])


def premeasurement_unitary(basis: UnitaryErrorBasis, x: np.ndarray, k: int
                           ) -> np.ndarray:
    """The unitary M_k = X (U_k X)+ with Bob's state M_k sigma M_k+ after
    result k, before his correction."""
    return x @ (su2_matrix(basis.quats[k]) @ x).conj().T


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


def su2_objective_tensor() -> np.ndarray:
    """K (4, 4, 4, 4) with the second moment M(u)_jk = sum_cd u_c u_d
    K[c, j, d, k] of the quaternions of A_i(Y) = X_i Y X_i U Y+ over Haar Y
    and uniform i, for the quaternion u of U: the independent check of
    `optimize.su2_conventional_purity`'s diagonal M.  With X_i the
    quaternion e_i (a Pauli matrix up to phase), that quaternion is
    sum y_a y_b u_c (e_i e_a e_i-bar)(e_c e_b-bar): a quadratic form in y
    with one column per (c, j), averaged by the Haar fourth moment."""
    e = np.eye(4)
    left = quat_mul(quat_mul(e[:, None], e), quat_conj(e)[:, None])  # (i, a)
    right = quat_mul(e, quat_conj(e)[:, None])                       # (b, c)
    form = quat_mul(left[:, :, None, None], right)
    k = fourth_moment_map(form.reshape(4, 4, 4, 16), haar_fourth_moment("su2"))
    return k.mean(axis=0).reshape(4, 4, 4, 4)
