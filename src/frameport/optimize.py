"""Exact extremes of the conventional-scheme purity over qubit unitary error
bases.

The conventional-scheme channel is a random unitary channel whose linear map
purity is ||M||_F^2 for the 4x4 second moment M of the quaternions of its
unitary ensemble.  For qubits the choice of UEB reduces to a handful of
angles, and each objective below is a closed form in them whose extremes
have a short proof (in the docstrings): U(1) 5/8 and 9/32, SU(2) 1/3 and
1/4.  The maximum is the Pauli basis up to relabelling, so no qubit UEB
beats it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "OptimizationRow",
    "u1_conventional_purity",
    "su2_conventional_purity",
    "optimize_conventional_ueb",
]


# ---------------------------------------------------------------------------
# Circle-group conventional objective
# ---------------------------------------------------------------------------

def _axis(psi, phi) -> np.ndarray:
    """Unit vectors (..., 3) of polar angle psi and azimuth phi."""
    return np.stack([np.sin(psi) * np.cos(phi), np.sin(psi) * np.sin(phi),
                     np.cos(psi)], axis=-1)


def u1_conventional_purity(angles) -> np.ndarray:
    """Linear map purities (...) of the circle-group conventional channel for
    the UEBs of angle quadruples (..., 4) = (psi_x, psi_y, phi_x, phi_y),
    which fix unit vectors x(psi_x, phi_x) and y(psi_y, phi_y).

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

    exactly.  For fixed d this is linear in the squared components x_k^2,
    which lie on the simplex, so its extremes over x lie at the vertices
    x = e_k.  There, with t = d_k and a, b the other two components of d
    (a + b = 1 - t), s = t^2 + (1 - t)^2 - 2ab and

        10 s + 20 q + 12 c = 10 t^2 + 10 (1 - t)^2 + 20 t - 8 ab.

    Maximum: ab >= 0 bounds this by 20 t^2 + 10 <= 30, with equality only at
    t = 1, i.e. x = d = e_k, the Pauli basis up to relabelling: 5/8.
    Minimum: ab <= (1 - t)^2 / 4 bounds it below by 18 t^2 + 4 t + 8 >= 8,
    with equality at t = 0 and a = b = 1/2, e.g. x = e_z and
    y = (1, 1, 0)/sqrt(2), the angles (0, pi/2, 0, pi/4): 9/32.
    """
    psi_x, psi_y, phi_x, phi_y = np.moveaxis(
        np.asarray(angles, dtype=np.float64), -1, 0)
    x = _axis(psi_x, phi_x) ** 2
    d = _axis(psi_y, phi_y) ** 2
    s = np.sum(d * d, axis=-1)
    q = np.sum(x * d, axis=-1)
    c = np.sum(x * np.roll(d, -1, axis=-1) * np.roll(d, -2, axis=-1),
               axis=-1)
    return (10 + 10 * s + 20 * q + 12 * c) / 64


# ---------------------------------------------------------------------------
# Rotation-group conventional objective
# ---------------------------------------------------------------------------

def su2_conventional_purity(angles) -> np.ndarray:
    """Linear map purities (...) of the rotation-group conventional channel
    for the UEBs {U-tilde X_i} of angle triples (..., 3) = (psi, phi, omega),
    U-tilde = R_n(omega) = exp(-i omega/2 n.sigma) about the axis
    n = (sin psi cos phi, sin psi sin phi, cos psi).

    The ensemble members are A_i(Y) = X_i (Y V_i Y+) over Haar Y and uniform
    i, with V_i = X_i U-tilde, and the purity is ||M||_F^2 for the second
    moment M of their quaternions.  Let u be the quaternion of U-tilde.  The
    quaternion v of V_i = X_i U-tilde has |v_0| = |u_i|.  Conjugating by a
    Haar element is a twirl: it keeps the rotation angle, so v_0, and makes
    the axis uniform on the sphere.  So the second moment of Y V_i Y+ is
    D_i = diag(c^2, s^2/3, s^2/3, s^2/3) with c^2 = u_i^2 and
    s^2 = 1 - u_i^2.  Left multiplication by X_i is an orthogonal map L_i
    with L_i e_0 = e_i, so

        M = (1/4) sum_i L_i D_i L_i^T
          = (1/4) sum_i [(s_i^2/3) I + (c_i^2 - s_i^2/3) e_i e_i^T]
          = diag((1 + 2 u_a^2) / 6),

    using sum_i u_i^2 = 1.  The purity is the sum of squares of that
    diagonal, 2/9 + (sum_a u_a^4)/9.  Since sum_a u_a^2 = 1, sum_a u_a^4
    lies in [1/4, 1].  Maximum 1/3: u on a coordinate axis, the Pauli basis
    up to relabelling.  Minimum 1/4: |u_a| = 1/2 for every a, e.g.
    u = (1/2, 1/2, 1/2, 1/2), the angles (arccos(1/sqrt 3), pi/4, 2 pi/3).
    """
    psi, phi, omega = np.moveaxis(np.asarray(angles, dtype=np.float64), -1, 0)
    u = np.concatenate([np.cos(omega / 2)[..., None],
                        np.sin(omega / 2)[..., None] * _axis(psi, phi)],
                       axis=-1)
    m = (1 + 2 * u * u) / 6            # the diagonal of M
    return np.sum(m * m, axis=-1)


# ---------------------------------------------------------------------------
# Extremes
# ---------------------------------------------------------------------------

class OptimizationRow(NamedTuple):
    label: str
    params: tuple[float, ...]
    linear_purity: float
    stderr: float = 0.0         # the objectives are exact


# The proved maximiser (the Pauli basis) and a minimiser of each objective.
_EXTREMES = {
    "u1": (u1_conventional_purity, (0.0, 0.0, 0.0, 0.0),
           (0.0, math.pi / 2, 0.0, math.pi / 4)),
    "su2": (su2_conventional_purity, (0.0, 0.0, 0.0),
            (math.acos(1 / math.sqrt(3)), math.pi / 4, 2 * math.pi / 3)),
}


def optimize_conventional_ueb(group: str) -> tuple[OptimizationRow, ...]:
    """The exact maximum (`pauli`) and minimum (`minimum`) of the
    conventional-scheme linear map purity over the group's UEB parameters,
    in that order, each evaluated by the objective at its proved
    extremiser."""
    if group not in _EXTREMES:
        raise ValueError(f"unknown group {group!r}")
    objective, *points = _EXTREMES[group]
    return tuple(OptimizationRow(label, x, float(objective(x)))
                 for label, x in zip(("pauli", "minimum"), points))
