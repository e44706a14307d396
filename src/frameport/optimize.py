"""Derivative-free search for high-purity unitary error bases.

The conventional-scheme channel is a random unitary channel whose linear map
purity is (1/d^2) E |Tr(W+ W')|^2 over independent pairs from the unitary
ensemble.  For qubits the choice of UEB reduces to a handful of angle
parameters; a Nelder-Mead simplex (circle group) or a seeded random scan
(rotation group) over those parameters confirms that the Pauli basis is not
outperformed.

Conventions:
  - All optimizers MAXIMIZE their objective.
  - Objectives are exact.  Circle: the purity is ||M||_F^2 for a 4x4 second
    moment M built through an isometry L (L^T L = I), which reduces it to a
    scalar polynomial in the squared axis components, evaluated on Python
    floats.  Rotation: M(u) = K(u, u) for the quaternion u of the basis
    rotation, with the 4x4x4x4 tensor K built once per process from the Haar
    fourth moment of SU(2) (channel.fourth_moment_map).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import fourth_moment_map
from .groups import haar_fourth_moment, quat_conj, quat_mul

__all__ = [
    "SimplexState",
    "NelderMeadResult",
    "nelder_mead",
    "OptimizationRow",
    "OptimizationReport",
    "u1_conventional_purity",
    "su2_conventional_purity",
    "optimize_conventional_ueb",
]

# Standard Nelder-Mead coefficients: reflection, expansion, contraction,
# shrink.
_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5


@dataclass
class SimplexState:
    """Final simplex of a Nelder-Mead run, best vertex first.

    Vertices are parameter vectors (radians); values their objective values;
    iterations and evaluations count the whole run.
    """

    vertices: np.ndarray        # (n + 1, n)
    values: np.ndarray          # (n + 1,)
    iterations: int = 0
    evaluations: int = 0

    def __post_init__(self):
        if self.vertices.shape[0] != self.vertices.shape[1] + 1:
            raise ValueError("simplex needs dimension + 1 vertices")


@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    value: float
    trace: SimplexState
    capped: bool = False


def nelder_mead(objective: Callable[[np.ndarray], float],
                x0: Sequence[float],
                step: float = 0.25,
                max_iter: int = 10 ** 4,
                diameter_tol: float = 1e-6,
                spread_tol: float = 1e-10) -> NelderMeadResult:
    """Maximize `objective` from the initial point `x0`.

    Standard reflect/expand/contract/shrink moves with coefficients
    (1, 2, 0.5, 0.5).  Stops when the simplex diameter falls below
    `diameter_tol`, the value spread below `spread_tol`, or after `max_iter`
    iterations (the result is then flagged `capped`).  The simplex is kept
    as Python floats, since numpy costs more per call than a move on a few
    vertices; the objective receives each vertex as a float64 array.
    """
    x0 = np.asarray(x0, dtype=np.float64).tolist()
    n = len(x0)
    vertices = [list(x0) for _ in range(n + 1)]
    for k in range(n):
        vertices[k + 1][k] += step

    def f(v):
        return float(objective(np.array(v)))

    values = [f(v) for v in vertices]
    iterations, evaluations = 0, n + 1

    def order():
        # Descending by value, stable: index 0 is the best vertex.
        idx = sorted(range(n + 1), key=lambda i: -values[i])
        return [vertices[i] for i in idx], [values[i] for i in idx]

    capped = True
    for _ in range(max_iter):
        vertices, values = order()
        best = vertices[0]
        diameter = max(math.dist(v, best) for v in vertices)
        if diameter < diameter_tol or values[0] - values[-1] < spread_tol:
            capped = False
            break
        iterations += 1
        centroid = [sum(col) / n for col in zip(*vertices[:-1])]
        worst = vertices[-1]
        f_best, f_second, f_worst = values[0], values[-2], values[-1]

        reflected = [c + _ALPHA * (c - w) for c, w in zip(centroid, worst)]
        f_r = f(reflected)
        evaluations += 1
        if f_second < f_r <= f_best:
            vertices[-1], values[-1] = reflected, f_r
            continue
        if f_r > f_best:
            expanded = [c + _GAMMA * (r - c)
                        for c, r in zip(centroid, reflected)]
            f_e = f(expanded)
            evaluations += 1
            if f_e > f_r:
                vertices[-1], values[-1] = expanded, f_e
            else:
                vertices[-1], values[-1] = reflected, f_r
            continue
        contracted = [c + _RHO * (w - c) for c, w in zip(centroid, worst)]
        f_c = f(contracted)
        evaluations += 1
        if f_c > f_worst:
            vertices[-1], values[-1] = contracted, f_c
            continue
        # Shrink toward the best vertex.
        vertices[1:] = [[b + _SIGMA * (v - b) for b, v in zip(best, vertex)]
                        for vertex in vertices[1:]]
        values[1:] = [f(v) for v in vertices[1:]]
        evaluations += n

    vertices, values = order()
    state = SimplexState(np.array(vertices), np.array(values), iterations,
                         evaluations)
    return NelderMeadResult(state.vertices[0].copy(), values[0], state,
                            capped)


# ---------------------------------------------------------------------------
# Circle-group conventional objective
# ---------------------------------------------------------------------------

def u1_conventional_purity(angles: Sequence[float]) -> float:
    """Closed-form linear map purity of the circle-group conventional channel
    for the UEB determined by unit vectors x(psi_x, phi_x), y(psi_y, phi_y).

    The channel unitaries are W_i(t) = R_x(t) R_{y_i}(-t), with t uniform on
    the circle and y_i the pi-rotation of y about axis i (y_0 = y).  The
    purity is the pair average of (1/4) |Tr(W+ W')|^2, which is ||M||_F^2
    for the second moment M = E[w w^T] of their quaternions w.  With
    c = cos(t/2), s = sin(t/2) and the 4x3 map L y = (x.y, -x cross y),

        w_i(t) = c^2 e_0 + s^2 L y_i + c s (0, x - y_i).

    On the circle E[c^4] = E[s^4] = 3/8, E[c^2 s^2] = 1/8 and odd moments
    vanish; sum_i y_i = 0 and (1/4) sum_i y_i y_i^T = D = diag(d), d = y*y.
    So

        M = (3/8) e_0 e_0^T + (3/8) L D L^T + (1/8) (0 (+) (x x^T + D)).

    L is an isometry (L^T L = x x^T + [x]_x^T [x]_x = I), its first row is
    x^T, and its last three rows -[x]_x annihilate x.  Expanding the
    Frobenius norm term by term then leaves

        ||M||_F^2 = (10 + 10 s + 20 q + 12 c) / 64,
        s = sum_k d_k^2,  q = sum_k x_k^2 d_k,
        c = x_3^2 d_1 d_2 + x_1^2 d_2 d_3 + x_2^2 d_1 d_3,

    exactly, which gives 0.625 at the Pauli point (x = y = e_z).
    """
    psi_x, psi_y, phi_x, phi_y = angles
    # x1, x2, x3 are the squared components of x; d1, d2, d3 those of y.
    sx, sy = math.sin(psi_x), math.sin(psi_y)
    x1 = (sx * math.cos(phi_x)) ** 2
    x2 = (sx * math.sin(phi_x)) ** 2
    x3 = math.cos(psi_x) ** 2
    d1 = (sy * math.cos(phi_y)) ** 2
    d2 = (sy * math.sin(phi_y)) ** 2
    d3 = math.cos(psi_y) ** 2
    s = d1 * d1 + d2 * d2 + d3 * d3
    q = x1 * d1 + x2 * d2 + x3 * d3
    c = x3 * d1 * d2 + x1 * d2 * d3 + x2 * d1 * d3
    return (10 + 10 * s + 20 * q + 12 * c) / 64


# ---------------------------------------------------------------------------
# Rotation-group conventional objective
# ---------------------------------------------------------------------------

@functools.cache
def _su2_objective_tensor() -> np.ndarray:
    """K (4, 4, 4, 4) with the second moment M(u)_jk = sum_cd u_c u_d
    K[c, j, d, k] of the quaternions of A_i(Y) = X_i Y X_i U Y+ over Haar Y
    and uniform i, for the quaternion u of U.  With X_i the quaternion e_i
    (a Pauli matrix up to phase), that quaternion is
    sum y_a y_b u_c (e_i e_a e_i-bar)(e_c e_b-bar): a quadratic form in y
    with one column per (c, j)."""
    e = np.eye(4)
    left = quat_mul(quat_mul(e[:, None], e), quat_conj(e)[:, None])  # (i, a)
    right = quat_mul(e, quat_conj(e)[:, None])                       # (b, c)
    form = quat_mul(left[:, :, None, None], right)
    k = fourth_moment_map(form.reshape(4, 4, 4, 16), haar_fourth_moment("su2"))
    return k.mean(axis=0).reshape(4, 4, 4, 4)


def su2_conventional_purity(angles) -> np.ndarray:
    """Linear map purities (...) of the rotation-group conventional channel
    for the UEBs {U-tilde X_i} of angle triples (..., 3) = (psi, phi, omega),
    U-tilde = R_n(omega) = exp(-i omega/2 n.sigma) about the axis
    n = (sin psi cos phi, sin psi sin phi, cos psi).

    The ensemble members are A_i(Y) = X_i Y X_i U Y+ over Haar Y and uniform
    i; the purity is (1/4) E |Tr(A_i(Y1)+ A_j(Y2))|^2 = ||M||_F^2 for the
    second moment M of the quaternions of A.  M is quartic in the
    quaternion of Y, so the Haar fourth moment gives it exactly, as one
    fixed tensor K contracted twice with the quaternion of U-tilde.
    """
    psi, phi, omega = np.moveaxis(np.asarray(angles, dtype=np.float64), -1, 0)
    c, s = np.cos(omega / 2), np.sin(omega / 2)
    u = np.stack([c, s * (np.sin(psi) * np.cos(phi)),
                  s * (np.sin(psi) * np.sin(phi)), s * np.cos(psi)], axis=-1)
    m = np.einsum("...c,cjdk,...d->...jk", u, _su2_objective_tensor(), u)
    return np.sum(m * m, axis=(-2, -1))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizationRow:
    label: str
    params: tuple[float, ...]
    linear_purity: float
    stderr: float


@dataclass(frozen=True)
class OptimizationReport:
    group: str
    rows: tuple[OptimizationRow, ...]     # sorted by purity, descending
    baseline: OptimizationRow             # the Pauli point

    @property
    def best(self) -> OptimizationRow:
        return self.rows[0]

    def pauli_is_optimal(self, slack: float = 0.0, sigmas: float = 0.0
                         ) -> bool:
        """True if no row beats the Pauli baseline by more than `slack` plus
        `sigmas` combined standard errors."""
        b = self.baseline
        for row in self.rows:
            margin = slack + sigmas * np.hypot(row.stderr, b.stderr)
            if row.linear_purity > b.linear_purity + margin:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "baseline": vars(self.baseline) | {"params":
                                               list(self.baseline.params)},
            "rows": [vars(r) | {"params": list(r.params)}
                     for r in self.rows],
        }


_U1_BOX = np.array([np.pi, np.pi, 2 * np.pi, 2 * np.pi])


def optimize_conventional_ueb(group: str, seed: int = 0, restarts: int = 8,
                              scan: int = 100) -> OptimizationReport:
    """Search the conventional-scheme UEB parameter space for linear map
    purity beating the Pauli basis.

    Circle group: Nelder-Mead over the four angles with `restarts` seeded
    random starts.  Rotation group: evaluate `scan` seeded random angle
    triples plus the Pauli point.  Both objectives are exact (stderr 0).
    """
    rng = np.random.default_rng(seed)
    if group == "u1":
        baseline = OptimizationRow("pauli", (0.0, 0.0, 0.0, 0.0),
                                   u1_conventional_purity((0, 0, 0, 0)), 0.0)
        starts = [rng.random(4) * _U1_BOX for _ in range(restarts)]
        rows = []
        for k, x0 in enumerate(starts):
            res = nelder_mead(u1_conventional_purity, x0)
            rows.append(OptimizationRow(f"restart-{k}", tuple(res.x),
                                        res.value, 0.0))
    elif group == "su2":
        triples = rng.random((scan, 3)) * np.array([np.pi, 2 * np.pi,
                                                    2 * np.pi])
        pauli, *purities = su2_conventional_purity(
            np.vstack([np.zeros(3), triples])).tolist()
        baseline = OptimizationRow("pauli", (0.0, 0.0, 0.0), pauli, 0.0)
        rows = [OptimizationRow(f"triple-{k}", tuple(x), p, 0.0)
                for k, (x, p) in enumerate(zip(triples, purities))]
    else:
        raise ValueError(f"unknown group {group!r}")

    rows = sorted(rows + [baseline],
                  key=lambda r: -r.linear_purity)
    return OptimizationReport(group, tuple(rows), baseline)
