"""Tests of the conventional-scheme purity objectives and their exact
extremes."""
from __future__ import annotations

import json

import numpy as np
import pytest

from frameport import cli
from frameport import optimize as opt
from frameport.groups import sample_su2, su2_matrix
from frameport.ueb import pauli_ueb
from qmat_reference import conventional_estimate, linear_map_purity, \
    rotation_quat, su2_objective_tensor, su2_triple_purity, \
    u1_matrix_purity, unit_vector


# ---------------------------------------------------------------------------
# Circle-group objective
# ---------------------------------------------------------------------------

def test_u1_objective_at_pauli_point():
    # Must equal the linear map purity of the averaged conventional channel.
    val = opt.u1_conventional_purity((0.0, 0.0, 0.0, 0.0))
    est = conventional_estimate(pauli_ueb(), "u1", "averaged")
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
    # only the rounding of the two evaluations differs.  One call takes a
    # (..., 4) batch.
    rng = np.random.default_rng(15)
    box = np.array([np.pi, np.pi, 2 * np.pi, 2 * np.pi])
    angles = rng.random((10, 100, 4)) * box
    batch = opt.u1_conventional_purity(angles)
    assert batch.shape == (10, 100)
    for a, value in zip(angles.reshape(-1, 4), batch.ravel()):
        assert abs(value - u1_matrix_purity(a)) <= 1e-15


def test_u1_relabelled_maximisers_reach_five_eighths():
    # x = d = e_k for each axis k, the Pauli basis up to relabelling; the
    # angles are (psi_x, psi_y, phi_x, phi_y).
    half = np.pi / 2
    for psi, phi in ((half, 0.0), (half, half), (0.0, 0.0)):
        value = opt.u1_conventional_purity((psi, psi, phi, phi))
        assert abs(value - 5 / 8) <= 1e-15


# ---------------------------------------------------------------------------
# Rotation-group objective
# ---------------------------------------------------------------------------

def test_su2_objective_at_pauli_point():
    # The result-averaged Pauli channel has Choi spectrum (1/2, 1/6, 1/6, 1/6).
    val = opt.su2_conventional_purity((0.0, 0.0, 0.0))
    assert val == pytest.approx(1 / 3, abs=1e-14)
    # u = e_k by a half turn about axis k: Pauli up to relabelling.
    half = np.pi / 2
    for psi, phi in ((half, 0.0), (half, half), (0.0, 0.0)):
        value = opt.su2_conventional_purity((psi, phi, np.pi))
        assert abs(value - 1 / 3) <= 1e-15
    # The objective is exact, so every row has zero standard error.
    assert all(r.stderr == 0.0 for r in opt.optimize_conventional_ueb("su2"))


def test_su2_objective_is_seed_deterministic():
    a = opt.su2_conventional_purity((0.5, 1.0, 2.0))
    b = opt.su2_conventional_purity((0.5, 1.0, 2.0))
    assert a == b


def test_su2_formula_matches_objective_tensor():
    # The twirl gives M = diag((1 + 2 u_a^2) / 6); the Haar fourth-moment
    # tensor contracted twice with u gives the whole of M independently.
    rng = np.random.default_rng(16)
    triples = rng.random((10 ** 4, 3)) * [np.pi, 2 * np.pi, 2 * np.pi]
    psi, phi, omega = triples.T
    u = np.column_stack([np.cos(omega / 2),
                         np.sin(omega / 2)[:, None] * unit_vector(psi, phi).T])
    m = np.einsum("nc,cjdk,nd->njk", u, su2_objective_tensor(), u)
    diag = np.einsum("njj->nj", m)
    assert np.max(np.abs(m - diag[:, :, None] * np.eye(4))) <= 1e-15
    assert np.max(np.abs(diag - (1 + 2 * u * u) / 6)) <= 1e-15
    assert np.max(np.abs(opt.su2_conventional_purity(triples)
                         - np.sum(m * m, axis=(1, 2)))) <= 1e-15


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
    # Both exact rows against the BTet 5-design average, and one call over
    # a (1, 2, 3) batch of their triples against the rows.
    rows = opt.optimize_conventional_ueb("su2")
    for row in rows:
        assert abs(row.linear_purity - su2_triple_purity(row.params)) <= 1e-13
    triples = np.array([row.params for row in rows])
    batch = opt.su2_conventional_purity(triples.reshape(1, 2, 3))
    assert batch.shape == (1, 2)
    assert np.max(np.abs(batch[0] - [r.linear_purity for r in rows])
                  ) <= 1e-15


# ---------------------------------------------------------------------------
# Rows and the optimize payload
# ---------------------------------------------------------------------------

def _optimize_payload(tmp_path, group: str) -> dict:
    out = tmp_path / f"{group}.json"
    assert cli.main(["optimize", "--group", group, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_u1_report_pauli_is_optimal(tmp_path):
    rows = opt.optimize_conventional_ueb("u1")
    assert [r.label for r in rows] == ["pauli", "minimum"]
    assert max(rows, key=lambda r: r.linear_purity) is rows[0]
    for row, value in zip(rows, (5 / 8, 9 / 32)):
        assert abs(row.linear_purity - value) <= 1e-15
        assert abs(row.linear_purity
                   - _u1_pair_purity_reference(row.params)) <= 1e-13
    payload = _optimize_payload(tmp_path, "u1")
    pauli = rows[0]._asdict() | {"params": list(rows[0].params)}
    assert list(payload)[1:] == ["group", "baseline", "rows", "best",
                                 "pauli_is_optimal", "seconds"]
    assert payload["group"] == "u1" and len(payload["rows"]) == 2
    assert payload["baseline"] == payload["rows"][0] == pauli
    assert payload["best"] == {"label": "pauli", "params": pauli["params"],
                               "linear_purity": 5 / 8}
    assert payload["pauli_is_optimal"] is True


def test_su2_report_structure(tmp_path):
    rows = opt.optimize_conventional_ueb("su2")
    assert [r.label for r in rows] == ["pauli", "minimum"]
    purities = [r.linear_purity for r in rows]
    assert purities == sorted(purities, reverse=True)
    payload = _optimize_payload(tmp_path, "su2")
    assert [r["linear_purity"] for r in payload["rows"]] == purities
    assert payload["best"]["label"] == "pauli"
    assert payload["pauli_is_optimal"] is True


def test_unknown_group_raises():
    with pytest.raises(ValueError):
        opt.optimize_conventional_ueb("e8")
