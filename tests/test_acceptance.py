"""End-to-end acceptance suite.

Each test prints a single `ACCEPTANCE <n>: PASS` or `ACCEPTANCE <n>: FAIL`
line and then asserts.  Tolerances follow the package's validation targets;
sample budgets are the production ones, so this module is slower than the
unit suites.
"""
from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest
from scipy import stats

from frameport import channel as ch
from frameport import cli
from frameport import encoding as enc
from frameport import groups
from frameport import optimize as opt
from frameport import ueb as ueb_mod
from frameport.channel import DensityMatrix
from frameport.groups import HaarStream
from frameport.ueb import equivariance_analysis, pauli_ueb, tetrahedral_ueb
from qmat_reference import child_stream, conventional_estimate, \
    equivariance_signs, haar_payloads, map_purity, mean_result, \
    purity_with_error, uniform_bins

FULL = 10 ** 6


def report(n: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def u1_bundle():
    basis = pauli_ueb()
    eq = equivariance_analysis(basis, groups.z8_physical())
    return basis, eq


def su2_bundle():
    basis = pauli_ueb()
    eq = equivariance_analysis(basis, groups.binary_octahedral())
    return basis, eq


def btet_bundle():
    basis = tetrahedral_ueb()
    eq = equivariance_analysis(basis, groups.binary_tetrahedral())
    return basis, eq


def averaged_channel(scheme, method, **kwargs):
    """The equal mix of a scheme's channels over all of its results."""
    return ch.mix_estimates(list(ch.result_estimates(
        scheme, scheme.subgroup.ambient, range(scheme.eq.basis.size), method,
        **kwargs).values()))


# ---------------------------------------------------------------------------
# 1. Structural suite
# ---------------------------------------------------------------------------

def test_acceptance_1_structural():
    t0 = time.perf_counter()
    ok = True
    for name in ("z4", "z8", "tet", "btet", "boct"):
        try:
            groups.subgroup_by_name(name).check_axioms()
        except Exception:
            ok = False
    for basis in (pauli_ueb(), tetrahedral_ueb()):
        passed, dev = ueb_mod.check_ueb(basis.quats, tol=1e-12)
        ok = ok and passed
    pairs = [(pauli_ueb(), "z4"), (pauli_ueb(), "z8"),
             (pauli_ueb(), "boct"), (tetrahedral_ueb(), "btet")]
    for basis, sub_name in pairs:
        eq = equivariance_analysis(basis, groups.subgroup_by_name(sub_name))
        mats = groups.su2_matrix(basis.quats)
        alpha = equivariance_signs(eq)
        # Exhaustive table check: the conjugation identity for every (h, i).
        for h in range(eq.subgroup.order):
            r = groups.su2_matrix(eq.subgroup.payloads[h])
            for i in range(basis.size):
                lhs = r.conj().T @ mats[i] @ r
                rhs = alpha[i, h] * mats[eq.sigma[i, h]]
                ok = ok and np.max(np.abs(lhs - rhs)) < 1e-9
    seconds = time.perf_counter() - t0
    ok = ok and seconds < 10
    report(1, ok, f"{seconds:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. Perfect schemes give the identity channel
# ---------------------------------------------------------------------------

def test_acceptance_2_perfect_schemes():
    _, eq = u1_bundle()
    scheme = enc.perfect_matched_scheme(eq, 1)
    est = ch.result_estimates(scheme, "u1", [1], "quadrature")[1]
    ok = np.max(np.abs(est.superop - np.eye(4))) < 1e-9

    _, eq2 = btet_bundle()
    scheme2 = enc.perfect_matched_scheme(eq2, 0)
    est2 = ch.result_estimates(scheme2, "su2", [1], "mc",
                               samples=FULL)[1]
    tol = 3 * np.maximum(est2.stderr, 1e-7)
    ok = ok and bool(np.all(np.abs(est2.superop - np.eye(4)) <= tol))
    report(2, ok)
    assert ok


# ---------------------------------------------------------------------------
# 3. Circle-group conventional channel
# ---------------------------------------------------------------------------

def test_acceptance_3_u1_conventional():
    basis, _ = u1_bundle()
    est = conventional_estimate(basis, "u1", "averaged")
    expected = np.diag([1.0, 0.5, 0.5, 1.0]).astype(np.complex128)
    purity = map_purity(est.superop)
    ok = (np.max(np.abs(est.superop - expected)) < 1e-9
          and abs(purity - 0.594) < 0.005)
    report(3, ok, f"purity {purity:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 4. Circle-group tight channel, quadrature vs Monte Carlo
# ---------------------------------------------------------------------------

def test_acceptance_4_u1_tight():
    _, eq = u1_bundle()
    scheme = enc.tight_matched_scheme(eq, 1)
    exact = averaged_channel(scheme, "quadrature")
    target = 2 / np.pi ** 2 + 0.5
    ok = abs(exact.superop[1, 1].real - target) < 1e-6
    mc = averaged_channel(scheme, "mc", samples=FULL)
    tol = 3 * np.maximum(mc.stderr, 1e-4)
    ok = ok and bool(np.all(np.abs(mc.superop - exact.superop)
                            <= tol))
    purity = map_purity(exact.superop)
    # The Choi-derived map purity of the averaged tight channel is 0.697.
    # The published companion figure of 0.65 does not match any purity
    # functional of this channel that we could identify; the discrepancy and
    # the candidates we checked are recorded in DECISIONS.md.
    report(4, ok, f"choi purity {purity:.4f} (published companion: 0.65)")
    assert ok


# ---------------------------------------------------------------------------
# 5. Rotation-group conventional channel
# ---------------------------------------------------------------------------

def test_acceptance_5_su2_conventional():
    basis, _ = su2_bundle()
    est = conventional_estimate(basis, "su2", 1, "mc", samples=FULL)
    ev = sorted(ch.purity_figures([est])[0][0], reverse=True)
    ok = bool(np.all(np.abs(np.array(ev) - [1 / 3, 1 / 3, 1 / 3, 0])
                     <= 0.01))
    purity, _ = purity_with_error(est)
    ok = ok and abs(purity - 0.2075) < 0.01
    avg = conventional_estimate(basis, "su2", "averaged", "mc",
                                samples=FULL)
    avg_purity, _ = purity_with_error(avg)
    report(5, ok, f"per-result purity {purity:.4f}, "
                  f"result-averaged purity {avg_purity:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 6. Rotation-group tight channels
# ---------------------------------------------------------------------------

def _tight_mean_result(scheme_name: str) -> tuple[float, float]:
    _, eq = su2_bundle()
    if scheme_name == "rod":
        scheme = enc.rod_scheme()
    else:
        scheme = enc.tight_matched_scheme(eq, 1)
    ests = ch.result_estimates(scheme, "su2", range(4), "mc",
                               samples=FULL)
    return mean_result(ests)


def test_acceptance_6_rod_tight():
    purity, err = _tight_mean_result("rod")
    ok = abs(purity - 0.44) <= 0.05
    report(6, ok, f"rod mean-result purity {purity:.4f} +- {err:.4f}")
    assert ok


def test_acceptance_6_matched_tight():
    purity, err = _tight_mean_result("matched")
    ok = abs(purity - 0.32) <= 0.04
    report(6, ok, f"matched mean-result purity {purity:.4f} +- {err:.4f}")
    assert ok, (
        f"matched-scheme mean-result purity is {purity:.4f} +- {err:.4f}, "
        "outside the target band 0.32 +- 0.04. The value is stable under "
        "independent re-derivations, alternative region choices, and "
        "stabilizer shifts of the sampled misalignments, and the rod scheme "
        "(same integrand, different regions) lands at 0.452 as well; we "
        "could not find any consistent definition that yields 0.32. "
        "Full analysis: DECISIONS.md, 'Matched tight purity' entry.")


# ---------------------------------------------------------------------------
# 7. Simulator cross-validation
# ---------------------------------------------------------------------------

def test_acceptance_7_simulator_cross_validation():
    shots = 10 ** 5
    sigma = DensityMatrix(np.eye(2, dtype=np.complex128) / 2)
    configs = []

    _, eq = u1_bundle()
    u1_scheme = enc.tight_matched_scheme(eq, 1)
    exact = averaged_channel(u1_scheme, "quadrature")
    configs.append(("u1-tight", u1_scheme, "u1", exact.superop))

    rod = enc.rod_scheme()
    rod_est = averaged_channel(rod, "mc", samples=FULL)
    configs.append(("su2-rod-tight", rod, "su2", rod_est.superop))

    _, eq3 = btet_bundle()
    perfect = enc.perfect_matched_scheme(eq3, 0)
    configs.append(("su2-btet-perfect", perfect, "su2", np.eye(4)))

    ok = True
    for k, (name, scheme_k, group, target) in enumerate(configs):
        _, transcript = ch.single_shot_simulate(
            scheme_k, sigma, HaarStream(group, 100 + k), shots=shots)
        got = transcript["mean_superop"]
        # Entries are shot-averages of products of unit-modulus terms, so
        # each standard error is at most 1/sqrt(shots).
        tol = 3.0 / np.sqrt(shots) + 1e-6
        ok = ok and bool(np.all(np.abs(got - target) <= tol))
    report(7, ok)
    assert ok


# ---------------------------------------------------------------------------
# 8. Transmission uniformity
# ---------------------------------------------------------------------------

def test_acceptance_8_transmission_uniformity():
    n, bins = 64000, 64
    ok = True
    pvals = []

    _, eq = u1_bundle()
    scheme = enc.tight_matched_scheme(eq, 1)
    rod = enc.rod_scheme()
    for group, sch, seed in (("u1", scheme, 31), ("su2", rod, 32)):
        stream = HaarStream(group, seed)
        g = haar_payloads(stream, n)
        rng = child_stream(stream, 1).generator()
        idx = np.asarray(sch.indices)[rng.integers(0, len(sch.indices),
                                                   size=n)]
        x = np.concatenate([
            sch.sample_fn(i, child_stream(stream, 2 + j).generator(), int(m))
            for j, (i, m) in enumerate(zip(*np.unique(idx,
                                                      return_counts=True)))])
        g = g[:len(x)]
        sent = np.stack([sch.act_fn(gi, xi) for gi, xi in zip(g, x)]) \
            if group == "su2" else sch.act_fn(g, x)
        labels = uniform_bins(sch, np.asarray(sent), bins)
        counts = np.bincount(labels, minlength=bins)
        p = stats.chisquare(counts).pvalue
        pvals.append(p)
        ok = ok and p > 0.001
    report(8, ok, "p-values " + ", ".join(f"{p:.3f}" for p in pvals))
    assert ok


# ---------------------------------------------------------------------------
# 9. Basis optimality
# ---------------------------------------------------------------------------

def test_acceptance_9_optimization(tmp_path):
    # Both objectives are exact with proved extremes: the best row is the
    # Pauli row, the optimize payload says so, and 10^5 seeded random points
    # of each parameter space lie between the reported maximum and minimum.
    rng = np.random.default_rng(9)
    ok, details = True, []
    for group, objective, box, (top, bottom) in (
            ("u1", opt.u1_conventional_purity,
             [np.pi, np.pi, 2 * np.pi, 2 * np.pi], (5 / 8, 9 / 32)),
            ("su2", opt.su2_conventional_purity,
             [np.pi, 2 * np.pi, 2 * np.pi], (1 / 3, 1 / 4))):
        rows = opt.optimize_conventional_ueb(group)
        best = max(rows, key=lambda row: row.linear_purity)
        low = min(row.linear_purity for row in rows)
        out = tmp_path / f"{group}.json"
        assert cli.main(["optimize", "--group", group, "--out", str(out)]) \
            == 0
        payload = json.loads(out.read_text())
        values = objective(rng.random((10 ** 5, len(box))) * np.array(box))
        ok = (ok and best is rows[0] and best.label == "pauli"
              and abs(best.linear_purity - top) <= 1e-15
              and abs(low - bottom) <= 1e-15
              and payload["best"]["label"] == "pauli"
              and payload["baseline"]["linear_purity"] == best.linear_purity
              and payload["pauli_is_optimal"] is True
              and values.min() >= low - 1e-15
              and values.max() <= best.linear_purity + 1e-15)
        details.append(f"{group} {low:.6f}..{best.linear_purity:.6f}, "
                       f"sampled {values.min():.6f}..{values.max():.6f}")
    report(9, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

def strip_timing(text: str) -> str:
    return re.sub(r'"seconds": [0-9.e+-]+', '"seconds": 0', text)


def test_acceptance_10_determinism(tmp_path):
    # Wall-clock timings are the only permitted difference between repeated
    # runs; everything numerical must be bit-exact.
    pairs = [
        ["channel", "--scheme", "su2-rod-tight", "--result", "1",
         "--method", "mc", "--samples", "100000", "--seed", "3"],
        ["simulate", "--scheme", "u1-tight", "--shots", "2000",
         "--seed", "3"],
        ["optimize", "--group", "u1", "--seed", "3"],
    ]
    ok = True
    for k, args in enumerate(pairs):
        a, b = tmp_path / f"a{k}.json", tmp_path / f"b{k}.json"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        ok = ok and (strip_timing(a.read_text()) == strip_timing(b.read_text()))
    report(10, ok)
    assert ok
