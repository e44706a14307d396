"""Derivative-free search for high-purity unitary error bases.

The conventional-scheme channel is a random unitary channel whose linear map
purity is (1/d^2) E |Tr(W+ W')|^2 over independent pairs from the unitary
ensemble.  For qubits the choice of UEB reduces to a handful of angle
parameters; a Nelder-Mead simplex (circle group) or a seeded random scan
(rotation group) over those parameters confirms that the Pauli basis is not
outperformed.

Conventions:
  - All optimizers MAXIMIZE their objective.
  - Objectives are exact: a closed form (circle), a quadrature (rotation).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import quadrature_average, quat_conj, quat_mul

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
    """Current simplex of a Nelder-Mead run.

    Vertices are parameter vectors (radians); values their objective values.
    The best value is non-decreasing across iterations.
    """

    vertices: np.ndarray        # (n + 1, n)
    values: np.ndarray          # (n + 1,)
    iterations: int = 0
    evaluations: int = 0

    def __post_init__(self):
        if self.vertices.shape[0] != self.vertices.shape[1] + 1:
            raise ValueError("simplex needs dimension + 1 vertices")

    @property
    def diameter(self) -> float:
        best = self.vertices[np.argmax(self.values)]
        return float(np.max(np.linalg.norm(self.vertices - best, axis=1)))

    @property
    def spread(self) -> float:
        return float(np.max(self.values) - np.min(self.values))

    def order(self) -> None:
        # Descending by value: index 0 is the best vertex (maximization).
        idx = np.argsort(-self.values, kind="stable")
        self.vertices = self.vertices[idx]
        self.values = self.values[idx]


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
    iterations (the result is then flagged `capped`).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.size
    vertices = np.tile(x0, (n + 1, 1))
    for k in range(n):
        vertices[k + 1, k] += step
    values = np.array([objective(v) for v in vertices])
    state = SimplexState(vertices, values, evaluations=n + 1)

    capped = True
    for _ in range(max_iter):
        state.order()
        if state.diameter < diameter_tol or state.spread < spread_tol:
            capped = False
            break
        state.iterations += 1
        centroid = state.vertices[:-1].mean(axis=0)
        worst = state.vertices[-1]
        f_best, f_second, f_worst = (state.values[0], state.values[-2],
                                     state.values[-1])

        reflected = centroid + _ALPHA * (centroid - worst)
        f_r = objective(reflected)
        state.evaluations += 1
        if f_second < f_r <= f_best:
            state.vertices[-1], state.values[-1] = reflected, f_r
            continue
        if f_r > f_best:
            expanded = centroid + _GAMMA * (reflected - centroid)
            f_e = objective(expanded)
            state.evaluations += 1
            if f_e > f_r:
                state.vertices[-1], state.values[-1] = expanded, f_e
            else:
                state.vertices[-1], state.values[-1] = reflected, f_r
            continue
        contracted = centroid + _RHO * (worst - centroid)
        f_c = objective(contracted)
        state.evaluations += 1
        if f_c > f_worst:
            state.vertices[-1], state.values[-1] = contracted, f_c
            continue
        # Shrink toward the best vertex.
        state.vertices[1:] = (state.vertices[0]
                              + _SIGMA * (state.vertices[1:]
                                          - state.vertices[0]))
        state.values[1:] = [objective(v) for v in state.vertices[1:]]
        state.evaluations += n

    state.order()
    return NelderMeadResult(state.vertices[0].copy(),
                            float(state.values[0]), state, capped)


# ---------------------------------------------------------------------------
# Circle-group conventional objective
# ---------------------------------------------------------------------------

def _unit_vector(psi: float, phi: float) -> np.ndarray:
    return np.array([np.sin(psi) * np.cos(phi),
                     np.sin(psi) * np.sin(phi),
                     np.cos(psi)])


def _rotation_quats(axis: np.ndarray, angles) -> np.ndarray:
    """Unit quaternions (n, 4) of the SU(2) lifts exp(-i angle/2 axis.sigma)
    of the Bloch rotations, for a batch of angles."""
    half = np.atleast_1d(np.asarray(angles, dtype=np.float64)) / 2.0
    return np.concatenate([np.cos(half)[:, None],
                           np.sin(half)[:, None] * axis], axis=1)


def _pair_purity(m: np.ndarray) -> float:
    """(1/4) E |Tr(A+ A')|^2 over independent A, A' from an SU(2) ensemble
    whose quaternions have second moment m = E[a a^T].  For unit quaternions
    (1/4) |Tr(A+ A')|^2 = (a.a')^2, so the pair average is ||m||_F^2."""
    return float(np.sum(m * m))


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
    vanish; sum_i y_i = 0 and (1/4) sum_i y_i y_i^T = D = diag(y^2).  So

        M = (3/8) e_0 e_0^T + (3/8) L D L^T + (1/8) (0 (+) (x x^T + D)),

    exactly, which gives 0.625 at the Pauli point.
    """
    psi_x, psi_y, phi_x, phi_y = angles
    x = _unit_vector(psi_x, phi_x)
    d = _unit_vector(psi_y, phi_y) ** 2
    x1, x2, x3 = x
    lmap = np.array([x, [0.0, x3, -x2], [-x3, 0.0, x1], [x2, -x1, 0.0]])
    m = 0.375 * (lmap * d) @ lmap.T
    m[0, 0] += 0.375
    m[1:, 1:] += 0.125 * (np.outer(x, x) + np.diag(d))
    return _pair_purity(m)


# ---------------------------------------------------------------------------
# Rotation-group conventional objective
# ---------------------------------------------------------------------------

def su2_conventional_purity(angles: Sequence[float]) -> tuple[float, float]:
    """Linear map purity (with its standard error, 0) of the rotation-group
    conventional channel for the UEB {U-tilde X_i} with
    U-tilde = R_axis(psi, phi)(omega), angles = (psi, phi, omega).

    The ensemble members are A_i(Y) = X_i Y X_i U Y+ over Haar Y and uniform
    i; the purity is (1/4) E |Tr(A_i(Y1)+ A_j(Y2))|^2.  The second moment
    of the quaternions of A is quartic in the quaternion of Y, so the SU(2)
    quadrature rule gives it exactly.
    """
    psi, phi, omega = angles
    u = _rotation_quats(_unit_vector(psi, phi), omega)[0]
    paulis = np.eye(4)[:, None, :]                      # X_i up to phase

    def second_moment(y):
        a = quat_mul(quat_mul(quat_mul(paulis, y), quat_conj(paulis)),
                     quat_mul(u, quat_conj(y)))         # (4, n, 4)
        return np.einsum("iyk,iyl->ykl", a, a) / 4

    return _pair_purity(quadrature_average(second_moment, "su2")), 0.0


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


def optimize_conventional_ueb(group: str, samples: int = 2 * 10 ** 5,
                              seed: int = 0, restarts: int = 8,
                              scan: int = 100,
                              threads: int = 1) -> OptimizationReport:
    """Search the conventional-scheme UEB parameter space for linear map
    purity beating the Pauli basis.

    Circle group: Nelder-Mead over the four angles with `restarts` seeded
    random starts.  Rotation group: evaluate `scan` seeded random angle
    triples plus the Pauli point.  Both objectives are exact (stderr 0).
    `samples` and `threads` are accepted and unused.
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
        baseline = OptimizationRow("pauli", (0.0, 0.0, 0.0),
                                   *su2_conventional_purity((0, 0, 0)))
        triples = rng.random((scan, 3)) * np.array([np.pi, 2 * np.pi,
                                                    2 * np.pi])
        rows = [OptimizationRow(f"triple-{k}", tuple(x),
                                *su2_conventional_purity(x))
                for k, x in enumerate(triples)]
    else:
        raise ValueError(f"unknown group {group!r}")

    rows = sorted(rows + [baseline],
                  key=lambda r: -r.linear_purity)
    return OptimizationReport(group, tuple(rows), baseline)
