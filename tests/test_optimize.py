"""Optimizer tests: Nelder-Mead behaviour and the conventional-scheme
purity objectives."""
from __future__ import annotations

import numpy as np
import pytest

from frameport import optimize as opt
from frameport.groups import sample_su2, su2_matrix
from frameport.ueb import pauli_ueb
from frameport import channel as ch
from qmat_reference import array_nelder_mead, linear_map_purity, \
    rotation_quat, su2_triple_purity, u1_matrix_purity, unit_vector


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

def test_nelder_mead_finds_quadratic_maximum():
    res = opt.nelder_mead(lambda x: -np.sum((x - [1.0, -2.0]) ** 2),
                          [0.0, 0.0])
    assert not res.capped
    assert np.allclose(res.x, [1.0, -2.0], atol=1e-4)
    assert res.value == pytest.approx(0.0, abs=1e-8)


def test_nelder_mead_rosenbrock_like_bowl():
    def f(x):
        return -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
    res = opt.nelder_mead(f, [-1.0, 1.0], max_iter=5 * 10 ** 4)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_nelder_mead_iteration_cap_flag():
    res = opt.nelder_mead(lambda x: -np.sum(x ** 2), [5.0, 5.0], max_iter=3)
    assert res.capped


def test_nelder_mead_matches_array_reference():
    # Same moves on Python floats as on arrays: identical trajectories.
    rng = np.random.default_rng(0)
    box = np.array([np.pi, np.pi, 2 * np.pi, 2 * np.pi])
    cases = [(u1_matrix_purity, x0) for x0 in rng.random((8, 4)) * box]
    cases += [(lambda x: -np.sum(x ** 2), [5.0, 5.0]),
              (lambda x: float(np.cos(x[0]) + np.sin(2 * x[1])), [0.3, 0.4])]
    for objective, x0 in cases:
        res = opt.nelder_mead(objective, x0)
        x, value, iterations, evaluations, capped = array_nelder_mead(
            objective, x0)
        assert np.array_equal(res.x, x) and res.value == value
        assert (res.trace.iterations, res.trace.evaluations, res.capped) == \
            (iterations, evaluations, capped)


def test_nelder_mead_never_below_start():
    def f(x):
        return float(np.cos(x[0]) + np.sin(2 * x[1]))
    x0 = [0.3, 0.4]
    res = opt.nelder_mead(f, x0)
    assert res.value >= f(np.asarray(x0)) - 1e-12


# ---------------------------------------------------------------------------
# Circle-group objective
# ---------------------------------------------------------------------------

def test_u1_objective_at_pauli_point():
    # Must equal the linear map purity of the averaged conventional channel.
    val = opt.u1_conventional_purity((0.0, 0.0, 0.0, 0.0))
    est = ch.conventional_channel(pauli_ueb(), "u1", "averaged", "quadrature")
    assert val == pytest.approx(linear_map_purity(est.superop), abs=1e-9)
    assert val == pytest.approx(0.625, abs=1e-12)


def _u1_pair_purity_reference(angles, grid=64):
    """(1/4) |Tr(W+ W')|^2 averaged over all pairs of the 2x2 matrices
    W_i(t) = R_x(t) X_i R_y(-t) X_i+ on a uniform grid of t (exact for these
    trigonometric polynomials), with R_n(t) = exp(-i t/2 n.sigma)."""
    psi_x, psi_y, phi_x, phi_y = angles
    paulis = su2_matrix(np.eye(4))              # I, -i X, -i Y, -i Z
    ts = np.arange(grid) * (2 * np.pi / grid)

    def rotations(n, t):
        n_sigma = np.einsum("k,kab->ab", n, 1j * paulis[1:])
        return (np.cos(t / 2)[:, None, None] * np.eye(2)
                - 1j * np.sin(t / 2)[:, None, None] * n_sigma)

    rx = rotations(unit_vector(psi_x, phi_x), ts)
    ry = rotations(unit_vector(psi_y, phi_y), -ts)
    w = np.concatenate([rx @ p @ ry @ p.conj().T for p in paulis])
    overlaps = np.einsum("mab,nab->mn", w.conj(), w)
    return float(np.mean(np.abs(overlaps) ** 2) / 4)


def test_u1_objective_closed_form_matches_matrix_reference():
    rng = np.random.default_rng(8)
    box = np.array([np.pi, np.pi, 2 * np.pi, 2 * np.pi])
    for angles in [np.zeros(4)] + [rng.random(4) * box for _ in range(24)]:
        assert opt.u1_conventional_purity(angles) == pytest.approx(
            _u1_pair_purity_reference(angles), abs=1e-13)


def test_u1_scalar_form_matches_matrix_form():
    # The isometry L reduces ||M||_F^2 to (10 + 10 s + 20 q + 12 c) / 64;
    # only the rounding of the two evaluations differs.
    rng = np.random.default_rng(15)
    box = np.array([np.pi, np.pi, 2 * np.pi, 2 * np.pi])
    for angles in rng.random((1000, 4)) * box:
        assert abs(opt.u1_conventional_purity(angles)
                   - u1_matrix_purity(angles)) <= 1e-15


def test_nelder_mead_reaches_pauli_value_from_offset_start():
    res = opt.nelder_mead(opt.u1_conventional_purity, [0.3, 0.3, 0.3, 0.3])
    assert res.value <= 0.625 + 1e-9
    assert res.value == pytest.approx(0.625, abs=1e-4)


# ---------------------------------------------------------------------------
# Rotation-group objective
# ---------------------------------------------------------------------------

def test_su2_objective_at_pauli_point():
    # The result-averaged Pauli channel has Choi spectrum (1/2, 1/6, 1/6, 1/6).
    val = opt.su2_conventional_purity((0.0, 0.0, 0.0))
    assert val == pytest.approx(1 / 3, abs=1e-14)
    # The objective is exact, so every report row has zero standard error.
    report = opt.optimize_conventional_ueb("su2", scan=5)
    assert all(r.stderr == 0.0 for r in report.rows)


def test_su2_objective_is_seed_deterministic():
    a = opt.su2_conventional_purity((0.5, 1.0, 2.0))
    b = opt.su2_conventional_purity((0.5, 1.0, 2.0))
    assert a == b


def test_su2_objective_matches_monte_carlo():
    # Reference: (1/4) |Tr(A+ A')|^2 over independent Haar pairs, with
    # A = X_i Y X_i U Y+ built from matrices.
    angles = (0.5, 1.0, 2.0)
    psi, phi, omega = angles
    u = su2_matrix(rotation_quat(unit_vector(psi, phi), omega))
    rng = np.random.default_rng(4)
    n = 10 ** 5
    ys = su2_matrix(sample_su2(rng, 2 * n))
    xs = su2_matrix(np.eye(4))[rng.integers(0, 4, size=2 * n)]
    a = xs @ ys @ xs @ u @ ys.conj().transpose(0, 2, 1)
    stats = np.abs(np.einsum("nij,nij->n", a[:n].conj(), a[n:])) ** 2 / 4
    err = stats.std(ddof=1) / np.sqrt(n)
    val = opt.su2_conventional_purity(angles)
    assert val == pytest.approx(stats.mean(), abs=4 * err)


def test_su2_batch_matches_per_triple_reference():
    # One quadrature call over the seed-0 scan and the Pauli point gives
    # what a call per triple gives, up to rounding.
    report = opt.optimize_conventional_ueb("su2", seed=0)
    assert len(report.rows) == 101
    for row in report.rows:
        assert abs(row.linear_purity - su2_triple_purity(row.params)) <= 1e-15
    triples = np.array([row.params for row in report.rows])
    batch = opt.su2_conventional_purity(triples.reshape(1, 101, 3))
    assert batch.shape == (1, 101)
    assert np.max(np.abs(batch[0] - [r.linear_purity for r in report.rows])
                  ) <= 1e-15


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_u1_report_pauli_is_optimal():
    report = opt.optimize_conventional_ueb("u1", restarts=2, seed=1)
    assert report.baseline.linear_purity == pytest.approx(0.625, abs=1e-12)
    assert report.best.linear_purity <= 0.625 + 1e-6
    assert report.pauli_is_optimal(slack=1e-4)
    js = report.to_json()
    assert js["group"] == "u1" and len(js["rows"]) == 3


def test_su2_report_structure():
    report = opt.optimize_conventional_ueb("su2", seed=2, scan=5)
    assert len(report.rows) == 6
    purities = [r.linear_purity for r in report.rows]
    assert purities == sorted(purities, reverse=True)
    assert report.pauli_is_optimal(sigmas=4.0)


def test_unknown_group_raises():
    with pytest.raises(ValueError):
        opt.optimize_conventional_ueb("e8")
