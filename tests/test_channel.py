"""Channel-assembly tests: conventional, tight, perfect; the single-shot
simulator; the quaternion moment accumulator."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from frameport import channel as ch
from frameport import encoding as enc
from frameport import groups
from frameport.groups import HaarStream, su2_matrix
from frameport.qmat import DensityMatrix, Superoperator, UnitaryMatrix, \
    clamped_eigenvalues, spectrum_purities
from frameport.ueb import equivariance_analysis, general_qubit_ueb, \
    pauli_ueb, tetrahedral_ueb
from qmat_reference import choi, choi_matrix, haar_payloads, \
    linear_map_purity, linear_purity_with_error, map_purity, \
    realigned_correction

SAMPLES = 2 * 10 ** 5     # unit-test budget; acceptance uses 1e6


def u1_bundle():
    basis = pauli_ueb()
    spec = ch.u1_teleportation_spec(basis)
    eq = equivariance_analysis(basis, groups.z8_physical())
    return spec, eq


def su2_bundle(basis=None):
    basis = basis or pauli_ueb()
    spec = ch.su2_teleportation_spec(basis)
    eq = equivariance_analysis(basis, groups.binary_octahedral())
    return spec, eq


# ---------------------------------------------------------------------------
# Protocol specification
# ---------------------------------------------------------------------------

def test_measurement_basis_is_orthonormal():
    for spec, _ in (u1_bundle(), su2_bundle()):
        basis = spec.measurement_basis()
        gram = basis.conj().T @ basis
        assert np.allclose(gram, np.eye(4), atol=1e-12)


def _resource_invariance(spec, stream, n=32):
    """Max deviation of (g (x) g) eta from eta up to phase, over samples."""
    eta = spec.resource_state()
    worst = 0.0
    for g in haar_payloads(stream, n):
        r = su2_matrix(g)
        vec = np.kron(r, r) @ eta
        overlap = np.vdot(eta, vec)
        worst = max(worst, float(np.linalg.norm(vec - overlap * eta)))
    return worst


def test_su2_resource_is_invariant():
    spec, _ = su2_bundle()
    dev = _resource_invariance(spec, HaarStream("su2", 0))
    assert dev < 1e-9


def test_premeasurement_unitary_is_unitary():
    spec, _ = su2_bundle()
    for x in range(4):
        m = spec.premeasurement_unitary(x)
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# Conventional channel
# ---------------------------------------------------------------------------

def test_u1_conventional_averaged_is_half_dephasing():
    spec, _ = u1_bundle()
    est = ch.conventional_channel(spec, "u1", "averaged", "quadrature")
    expected = np.diag([1.0, 0.5, 0.5, 1.0]).astype(np.complex128)
    assert np.max(np.abs(est.superop.mat - expected)) < 1e-14
    assert map_purity(est.superop) == pytest.approx(0.5943609377704335,
                                                    abs=1e-9)


def test_u1_conventional_quadrature_matches_fine_grid():
    # Reference: the mean of kron(conj W, W), W = rho+ U_i rho U_i+ with
    # rho = diag(1, exp(-2i t)), over 101 equally spaced angles, exact for
    # trigonometric polynomials in t of degree <= 100.
    t = np.arange(101) * 2 * np.pi / 101
    rho = np.zeros((len(t), 2, 2), dtype=np.complex128)
    rho[:, 0, 0], rho[:, 1, 1] = 1.0, np.exp(-2j * t)
    u, v = (UnitaryMatrix(groups.su2_matrix(q))
            for q in groups.sample_su2(np.random.default_rng(9), 2))
    for basis in (pauli_ueb(), general_qubit_ueb(u, v)):
        spec = ch.u1_teleportation_spec(basis)
        for i, m in enumerate(basis.mats):
            w = np.einsum("nba,bc,ncd,ed->nae", rho.conj(), m, rho, m.conj())
            ref = np.einsum("nab,ncd->acbd", w.conj(), w).reshape(4, 4)
            est = ch.conventional_channel(spec, "u1", i, "quadrature")
            assert np.max(np.abs(est.superop.mat - ref / len(t))) <= 1e-15


def test_su2_conventional_result0_is_identity():
    spec, _ = su2_bundle()
    est = ch.conventional_channel(spec, "su2", 0, "mc", samples=10 ** 4)
    assert np.max(np.abs(est.superop.mat - np.eye(4))) < 1e-9


def test_su2_conventional_result1_spectrum():
    spec, _ = su2_bundle()
    est = ch.conventional_channel(spec, "su2", 1, "mc", samples=SAMPLES)
    ev = sorted(est.choi_spectrum(), reverse=True)
    assert np.allclose(ev, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=0.02)
    p, err = est.map_purity_with_error()
    assert p == pytest.approx(1 - np.log(3) / np.log(4), abs=0.01)


def test_conventional_mc_agrees_with_quadrature():
    # Every result of both groups: the circle rule and the 24-point SU(2)
    # design against MC, within 3 sigma per entry.
    for group, (spec, _) in (("u1", u1_bundle()), ("su2", su2_bundle())):
        for i in range(4):
            exact = ch.conventional_channel(spec, group, i, "quadrature")
            mc = ch.conventional_channel(spec, group, i, "mc",
                                         samples=SAMPLES)
            tol = 3 * np.maximum(mc.stderr, 1e-4)
            assert np.all(np.abs(mc.superop.mat - exact.superop.mat) <= tol)


def test_averaged_conventional_mc_is_the_mix_of_its_results():
    # Result i draws from the seed's own stream at counter i << 48, so the
    # averaged estimate at a seed is the mix of that seed's result
    # estimates, and no result shares its draws with a neighbouring seed.
    spec, _ = su2_bundle()
    averaged = ch.conventional_channel(spec, "su2", "averaged", "mc",
                                       20000, 6)
    mixed = ch.mix_estimates([ch.conventional_channel(spec, "su2", i, "mc",
                                                      20000, 6)
                              for i in range(4)])
    assert np.array_equal(averaged.moment, mixed.moment)
    assert np.array_equal(averaged.replicates, mixed.replicates)
    neighbour = ch.conventional_channel(spec, "su2", 2, "mc", 20000, 7)
    assert not any(np.array_equal(neighbour.moment, ch.conventional_channel(
        spec, "su2", i, "mc", 20000, 6).moment) for i in range(4))


# ---------------------------------------------------------------------------
# Tight channel
# ---------------------------------------------------------------------------

def u1_tight_scheme(eq):
    return enc.tight_matched_scheme(eq, 1)


def averaged_channel(spec, scheme, method, *args):
    """The equal mix of a scheme's channels over all of its results."""
    return ch.mix_estimates(list(ch.result_estimates(
        spec, scheme, range(spec.basis.size), method, *args).values()))


def test_u1_tight_quadrature_off_diagonal():
    spec, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)
    est = averaged_channel(spec, scheme, "quadrature")
    target = 2 / np.pi ** 2 + 0.5
    assert est.superop.mat[1, 1].real == pytest.approx(target, abs=1e-12)
    assert est.superop.mat[2, 2].real == pytest.approx(target, abs=1e-12)
    assert est.pre_norm_deviation <= 1e-12


def test_u1_tight_arc_moment_matches_dense_grid():
    # The closed-form fourth moment of g = y-bar x over x, y uniform on the
    # arcs of E_b, against a 20-node Gauss-Legendre grid on each arc (exact
    # for the degree-4 trigonometric integrand) and the mean over all pairs.
    _, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)
    sub = scheme.subgroup
    readings = sub.payloads[groups.first_lifts(sub.payloads)]
    centers = readings[enc.decode_batch(scheme, readings) == 1]
    assert len(readings) == 4 and len(centers) == 2
    h = np.pi / 8
    nodes, weights = leggauss(20)
    x = groups.quat_mul(centers[:, None], groups.u1_quat(h * nodes))
    x, p = x.reshape(-1, 4), np.tile(weights, 2) / 4
    g = groups.quat_mul(groups.quat_conj(x)[:, None], x).reshape(-1, 4)
    ref = np.einsum("n,na,nb,nc,nd->abcd", np.outer(p, p).ravel(), g, g, g, g)
    t4 = groups.arc_pair_fourth_moment(centers, h)
    assert np.max(np.abs(t4 - ref)) <= 1e-15


def test_u1_tight_mc_agrees_with_quadrature():
    spec, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)
    exact = ch.result_estimates(spec, scheme, [1], "quadrature")[1]
    mc = ch.result_estimates(spec, scheme, [1], "mc", samples=SAMPLES)[1]
    tol = 3 * np.maximum(mc.stderr, 2e-3)
    assert np.all(np.abs(mc.superop.mat - exact.superop.mat) <= tol)


def test_tight_singleton_orbit_is_identity(monkeypatch):
    spec, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)

    def no_base_integral(*args):
        raise AssertionError("singleton result computed the base integral")

    monkeypatch.setattr(ch, "_tight_base_channel", no_base_integral)
    for i in (0, 3):
        for method in ("quadrature", "mc"):
            est = ch.result_estimates(spec, scheme, [i], method)[i]
            assert est.method == "quadrature"
            assert np.max(np.abs(est.superop.mat - np.eye(4))) < 1e-14


def test_su2_tight_orbit_channels_share_spectrum():
    spec, eq = su2_bundle()
    scheme = enc.tight_matched_scheme(eq, 1)
    ests = ch.result_estimates(spec, scheme, range(4), "mc",
                               samples=SAMPLES)
    spectra = [sorted(ests[i].choi_spectrum()) for i in (1, 2, 3)]
    assert np.allclose(spectra[0], spectra[1], atol=1e-9)
    assert np.allclose(spectra[0], spectra[2], atol=1e-9)
    # The singleton-orbit result is the exact conventional integral.
    assert ests[0].method == "quadrature"
    assert np.max(np.abs(ests[0].superop.mat - np.eye(4))) < 1e-14


def test_mean_result_purity_of_some_results():
    # Any subset of results, keyed by result rather than by position.
    spec, eq = u1_bundle()
    ests = ch.result_estimates(spec, u1_tight_scheme(eq), [1, 3],
                               "quadrature")
    mean, err = ch.mean_result_purity(ests)
    assert mean == pytest.approx((ests[1].map_purity() + 1.0) / 2,
                                 abs=1e-12)
    assert err == 0.0


def test_su2_tight_invariant_under_left_stabilizer_shift(monkeypatch):
    """The base integrand is invariant under g -> h g for h stabilizing the
    base element, so shifting the sampled misalignments leaves the channel
    unchanged up to Monte Carlo error."""
    spec, eq = su2_bundle()
    scheme = enc.tight_matched_scheme(eq, 1)
    h = eq.subgroup.payloads[eq.stabilizers[1][3]]
    plain = ch.result_estimates(spec, scheme, [1], "mc",
                                samples=SAMPLES, seed=0)[1]
    # Pre-compose every Haar draw with h.  The readings' sampler draws
    # through haar_batch too, which leaves them uniform.
    haar_batch = groups.haar_batch
    monkeypatch.setattr(groups, "haar_batch", lambda *a: groups.quat_mul(
        h, haar_batch(*a)))
    shifted = ch.result_estimates(spec, scheme, [1], "mc",
                                  samples=SAMPLES, seed=1)[1]
    p1, e1 = plain.map_purity_with_error()
    p2, e2 = shifted.map_purity_with_error()
    assert abs(p1 - p2) < 4 * np.hypot(e1, e2) + 5e-3


def test_rod_and_matched_tight_purities_agree():
    """The two rotation-group tight schemes yield nearly identical per-result
    channels (the regions differ, but the stabilizer-averaged overlap weight
    does not)."""
    spec, eq = su2_bundle()
    matched = enc.tight_matched_scheme(eq, 1)
    rod = enc.rod_scheme()
    pm, em = ch.result_estimates(spec, matched, [1], "mc",
                                 samples=SAMPLES)[1].map_purity_with_error()
    pr, er = ch.result_estimates(spec, rod, [1], "mc",
                                 samples=SAMPLES)[1].map_purity_with_error()
    assert pm == pytest.approx(0.268, abs=0.01)
    assert pr == pytest.approx(0.270, abs=0.01)


# ---------------------------------------------------------------------------
# Perfect channel
# ---------------------------------------------------------------------------

def test_u1_perfect_is_identity():
    spec, eq = u1_bundle()
    scheme = enc.perfect_matched_scheme(eq, 1)
    est = ch.result_estimates(spec, scheme, [1], "quadrature")[1]
    assert np.max(np.abs(est.superop.mat - np.eye(4))) < 1e-9


def test_btet_perfect_mc_is_identity():
    basis = tetrahedral_ueb()
    spec = ch.su2_teleportation_spec(basis)
    eq = equivariance_analysis(basis, groups.binary_tetrahedral())
    scheme = enc.perfect_matched_scheme(eq, 0)
    est = ch.result_estimates(spec, scheme, [1], "mc",
                              samples=SAMPLES)[1]
    tol = 3 * np.maximum(est.stderr, 1e-6)
    assert np.all(np.abs(est.superop.mat - np.eye(4)) <= tol)


def test_spec_ueb_must_be_the_scheme_basis():
    # A scheme's orbit and coset conjugations hold only for the UEB it was
    # built on; with another basis the channel is meaningless (tetrahedral
    # spec on rod tight: map purity 0.0085; Pauli spec on BTet perfect:
    # 0.054).
    tetrahedral = ch.su2_teleportation_spec(tetrahedral_ueb())
    pauli = ch.su2_teleportation_spec(pauli_ueb())
    rod = enc.rod_scheme()
    btet = enc.perfect_matched_scheme(
        equivariance_analysis(tetrahedral_ueb(), groups.binary_tetrahedral()),
        0)
    with pytest.raises(ValueError, match="UEB"):
        averaged_channel(tetrahedral, rod, "mc", 20000, 0)
    with pytest.raises(ValueError, match="UEB"):
        ch.result_estimates(tetrahedral, rod, [0], "mc", 20000, 0)
    with pytest.raises(ValueError, match="UEB"):
        ch.result_estimates(tetrahedral, rod, range(4), "mc", 20000, 0)
    for method in ("mc", "quadrature"):
        with pytest.raises(ValueError, match="UEB"):
            ch.result_estimates(pauli, btet, [1], method, 20000, 0)
    # The simulator used to give input fidelity 0.55 here.
    with pytest.raises(ValueError, match="UEB"):
        ch.single_shot_simulate(pauli, btet, DensityMatrix(np.diag([1, 0])),
                                HaarStream("su2", 3), 100)
    # Separate instances of the scheme's own basis are accepted.
    est = ch.result_estimates(tetrahedral, btet, [1], "quadrature")[1]
    assert np.max(np.abs(est.superop.mat - np.eye(4))) < 1e-12


def test_perfect_singleton_result_gets_conventional_integral():
    # Z4 on the circle fixes every Pauli label, so the perfect scheme's
    # orbit of 1 is a singleton and result 2 sends its label speakably: it
    # gets the conventional integral (map purity 0.5) by either method,
    # not the identity.
    basis = pauli_ueb()
    spec = ch.u1_teleportation_spec(basis)
    z4 = groups._build_subgroup("z4p", "u1",
                                groups.u1_quat(np.arange(4) * np.pi / 2))
    eq = equivariance_analysis(basis, z4)
    assert eq.orbits == ((0,), (1,), (2,), (3,))
    scheme = enc.perfect_matched_scheme(eq, 1)
    exact = ch.conventional_channel(spec, "u1", 2, "quadrature")
    assert exact.map_purity() == pytest.approx(0.5, abs=1e-12)
    for method in ("quadrature", "mc"):
        est = ch.result_estimates(spec, scheme, [2], method, 20000, 0)[2]
        assert est.method == "quadrature"
        assert np.array_equal(est.moment, exact.moment)


def test_unknown_method_is_rejected():
    spec, eq = u1_bundle()
    tight = u1_tight_scheme(eq)
    perfect = enc.perfect_matched_scheme(eq, 1)
    # Orbit results of both kinds, and the singleton result 0 alone.
    for scheme, results in ((tight, [1]), (tight, [0]), (perfect, [1]),
                            (perfect, [0])):
        with pytest.raises(ValueError, match="unknown method"):
            ch.result_estimates(spec, scheme, results, "bogus", 20000, 0)


def test_simulator_stream_must_be_the_scheme_group():
    # Drawing SU(2) misalignments for the U(1) tight scheme used to run
    # silently (input fidelity 0.666 at 20,000 shots, against 1.0).
    spec, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)
    sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(np.complex128))
    with pytest.raises(ValueError, match="frame group"):
        ch.single_shot_simulate(spec, scheme, sigma, HaarStream("su2", 0),
                                100)


def test_rod_point_encoding_is_perfectly_correctable():
    """A single encoding point per index pins down the frame up to the
    rotations about that axis, which commute with the Pauli element of the
    index, so the perfect-reconstruction channel is the identity for every
    result."""
    spec, eq = su2_bundle()
    t = np.random.default_rng(8).random(64) * 2 * np.pi
    for i in (1, 2, 3):
        # The stabilizer of axis i acts trivially: each net quaternion of
        # rho(s)+ U_i rho(s) U_i+ is +-1.
        s = np.zeros((len(t), 4))
        s[:, 0], s[:, i] = np.cos(t), np.sin(t)
        w = ch._channel_quats(s, ch._conjugation_map(spec.basis.quats[i]))
        assert np.max(np.abs(np.abs(w[:, 0]) - 1.0)) < 1e-12
    rod = enc.rod_scheme()
    points = {i: np.eye(3)[i - 1][None] for i in (1, 2, 3)}
    scheme = enc.EncodingScheme(rod.eq, (1, 2, 3), "perfect", rod.act_fn,
                                rod.decode_fn,
                                lambda i, rng, n: np.tile(points[i][0], (n, 1)),
                                points=points)
    for i in (1, 2, 3):
        est = ch.result_estimates(spec, scheme, [i], "quadrature")[i]
        assert np.max(np.abs(est.superop.mat - np.eye(4))) < 1e-9


def test_finite_group_check_passes_for_u1():
    spec, eq = u1_bundle()
    _, (ok, info) = enc.check_scheme(u1_tight_scheme(eq), HaarStream("u1", 0))
    assert ok, info


# ---------------------------------------------------------------------------
# Quaternion moment accumulator
# ---------------------------------------------------------------------------

def _direct_block_sums(spec, r, result, accept):
    """Reference: per-block sums of kron(conj W, W) for the 2x2 unitaries
    W = rho(g)+ U_i rho(g) U_i+ of the frame matrices r = rho(g), bucketed by
    sample index."""
    u = spec.basis.mats[result]
    w = np.einsum("nba,bc,ncd,ed->nae", r.conj(), u, r, u.conj())
    kron = np.einsum("nab,ncd->nacbd", w.conj(), w).reshape(-1, 4, 4)
    n = len(r)
    buckets = (np.arange(n) * ch._N_BLOCKS // n)[accept]
    sums = np.zeros((ch._N_BLOCKS, 4, 4), dtype=np.complex128)
    np.add.at(sums, buckets, kron[accept])
    return sums, np.bincount(buckets, minlength=ch._N_BLOCKS)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("case", ["su2-pauli", "su2-tetrahedral", "u1"])
def test_moment_accumulator_matches_direct_superop_sums(monkeypatch, case,
                                                         masked):
    # 3001 samples split unevenly into the 64 blocks, and a small batch size
    # so that blocks straddle batch boundaries.
    monkeypatch.setattr(ch, "_BATCH", 1000)
    samples = 3001
    rng = np.random.default_rng(17)
    if case == "u1":
        spec = ch.u1_teleportation_spec(pauli_ueb())
        theta = rng.random(samples) * 2 * np.pi
        payloads = groups.u1_quat(theta)
        # The physical matrices diag(1, exp(-2i theta)), phase included.
        r = np.zeros((samples, 2, 2), dtype=np.complex128)
        r[:, 0, 0], r[:, 1, 1] = 1.0, np.exp(-2j * theta)
    else:
        basis = tetrahedral_ueb() if case == "su2-tetrahedral" else pauli_ueb()
        spec = ch.su2_teleportation_spec(basis)
        payloads = groups.sample_su2(rng, samples)
        r = groups.su2_matrix(payloads)
    accept = rng.random(samples) < 0.4 if masked else \
        np.ones(samples, dtype=bool)

    for result in range(4):
        pos = [0]
        conj_by_u = ch._conjugation_map(spec.basis.quats[result])

        def sample_fn(_, m):
            lo, pos[0] = pos[0], pos[0] + m
            keep = accept[lo:lo + m]
            quats = ch._channel_quats(payloads[lo:lo + m][keep], conj_by_u)
            return quats, keep if masked else None

        moments, accepted = ch._mc_accumulate(sample_fn, samples,
                                              HaarStream("u1", 0))
        ref_sums, ref_norms = _direct_block_sums(spec, r, result, accept)
        assert accepted == accept.sum()
        traces = np.trace(moments, axis1=1, axis2=2)
        assert np.max(np.abs(traces - ref_norms)) <= 1e-12
        assert np.max(np.abs(ch._moment_superop(moments) - ref_sums)) <= 1e-12


def _moment_estimate(case):
    if case == "perfect-identity":
        spec, eq = u1_bundle()
        scheme = enc.perfect_matched_scheme(eq, 1)
        return ch.result_estimates(spec, scheme, [1], "quadrature")[1]
    if case == "u1-tight-quadrature":
        spec, eq = u1_bundle()
        return ch.result_estimates(spec, u1_tight_scheme(eq), [1],
                                   "quadrature")[1]
    spec, eq = su2_bundle()
    if case == "conventional-mc":
        return ch.conventional_channel(spec, "su2", 1, "mc", samples=1 << 14)
    scheme = enc.tight_matched_scheme(eq, 1)
    # Result 1 is the base channel; result 2 its orbit conjugate.
    result = {"tight-base-mc": 1, "tight-orbit-mc": 2}[case]
    return ch.result_estimates(spec, scheme, [result], "mc",
                               samples=1 << 14)[result]


@pytest.mark.parametrize("case", ["conventional-mc", "tight-base-mc",
                                  "tight-orbit-mc", "u1-tight-quadrature",
                                  "perfect-identity"])
def test_moment_estimator_matches_superoperator_reference(case):
    # The Choi spectrum, purities and bootstrap errors computed from the
    # 4x4 moments equal those of the superoperators they stand for.
    est = _moment_estimate(case)
    sup = est.superop
    p, p_err = est.map_purity_with_error()
    lin, lin_err = linear_purity_with_error(est)
    assert est.map_purity() == p and est.linear_purity() == lin
    assert abs(p - map_purity(sup)) <= 1e-14
    assert abs(lin - linear_map_purity(sup)) <= 1e-14
    assert np.max(np.abs(est.choi_spectrum()
                         - choi(sup).eigenvalues())) <= 1e-14
    # Orbit conjugation Q M Q^T is T -> [R] o T o [R+] on superoperators.
    r = groups.axis_angle_quat([1.0, 2.0, 2.0], 0.7)
    k = np.kron(groups.su2_matrix(r).conj(), groups.su2_matrix(r))
    moved = est.transformed(r)
    assert np.max(np.abs(moved.superop.mat
                         - k @ sup.mat @ k.conj().T)) <= 1e-14
    if est.replicates is None:
        assert p_err == lin_err == 0.0
        return
    rep_sups = [Superoperator(ch._moment_superop(m)) for m in est.replicates]
    ref_p = np.array([map_purity(s) for s in rep_sups])
    ref_lin = np.array([linear_map_purity(s) for s in rep_sups])
    got_p, got_lin = spectrum_purities(clamped_eigenvalues(est.replicates))
    assert np.max(np.abs(got_p - ref_p)) <= 1e-14
    assert np.max(np.abs(got_lin - ref_lin)) <= 1e-14
    assert abs(p_err - np.std(ref_p, ddof=1)) <= 1e-14
    assert abs(lin_err - np.std(ref_lin, ddof=1)) <= 1e-14
    moved_reps = [k @ s.mat @ k.conj().T for s in rep_sups]
    assert np.max(np.abs(moved.stderr
                         - np.std(moved_reps, axis=0, ddof=1))) <= 1e-14


def test_bootstrap_error_bars_are_calibrated():
    """Over 40 held-out seeds at 2^14 samples, the MC purity lies within 2
    sigma of the exact quadrature value about 95% of the time: the counts
    must not fall in the binomial(40, 0.95) lower tail below p = 0.01."""
    seeds = range(1000, 1040)
    samples = 1 << 14
    spec, _ = su2_bundle()
    u1_spec, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)
    exact = {
        "su2-result-1": ch.conventional_channel(
            spec, "su2", 1, "quadrature").map_purity_with_error()[0],
        "su2-averaged": ch.conventional_channel(
            spec, "su2", "averaged", "quadrature").map_purity_with_error()[0],
        "u1-tight-mean": ch.mean_result_purity(ch.result_estimates(
            u1_spec, scheme, range(4), "quadrature"))[0],
    }
    inside = dict.fromkeys(exact, 0)
    for seed in seeds:
        got = {
            "su2-result-1": ch.conventional_channel(
                spec, "su2", 1, "mc", samples, seed).map_purity_with_error(),
            "su2-averaged": ch.conventional_channel(
                spec, "su2", "averaged", "mc", samples,
                seed).map_purity_with_error(),
            "u1-tight-mean": ch.mean_result_purity(ch.result_estimates(
                u1_spec, scheme, range(4), "mc", samples, seed)),
        }
        for key, (value, err) in got.items():
            inside[key] += abs(value - exact[key]) <= 2 * err
    n = len(seeds)
    for key, count in inside.items():
        tail = sum(math.comb(n, k) * 0.95 ** k * 0.05 ** (n - k)
                   for k in range(count + 1))
        assert tail >= 0.01, (key, count, tail)


def test_tight_error_bars_are_calibrated():
    """The same binomial test for the result-1 map purity of the SU(2)
    tight schemes, against exact values computed independently of this
    code: the fourth-moment contraction of the identity cell's moments for
    the matched scheme, the 48-node pair rule for the rod."""
    seeds = range(2000, 2040)
    samples = 1 << 14
    spec, eq = su2_bundle()
    exact = {"matched": (enc.tight_matched_scheme(eq, 1), 0.267531849),
             "rod": (enc.rod_scheme(), 0.26985667430)}
    for key, (scheme, want) in exact.items():
        inside = 0
        for seed in seeds:
            value, err = ch.result_estimates(
                spec, scheme, [1], "mc", samples,
                seed)[1].map_purity_with_error()
            inside += abs(value - want) <= 2 * err
        n = len(seeds)
        tail = sum(math.comb(n, k) * 0.95 ** k * 0.05 ** (n - k)
                   for k in range(inside + 1))
        assert tail >= 0.01, (key, inside, tail)


# ---------------------------------------------------------------------------
# Single-shot simulator
# ---------------------------------------------------------------------------

def test_single_shot_conventional_matches_channel():
    spec, _ = u1_bundle()
    sigma = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]],
                                   dtype=np.complex128))
    out, transcript = ch.single_shot_simulate(
        spec, None, sigma, HaarStream("u1", 21), shots=120000)
    exact = ch.conventional_channel(spec, "u1", "averaged", "quadrature")
    expected = exact.superop.apply(sigma.mat)
    assert np.max(np.abs(out.mat - expected)) < 5e-3
    assert np.allclose(transcript["probs"], 0.25, atol=1e-9)


def test_single_shot_perfect_reconstructs_exactly():
    basis = tetrahedral_ueb()
    spec = ch.su2_teleportation_spec(basis)
    eq = equivariance_analysis(basis, groups.binary_tetrahedral())
    scheme = enc.perfect_matched_scheme(eq, 0)
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    out, _ = ch.single_shot_simulate(spec, scheme, sigma,
                                     HaarStream("su2", 22), shots=500)
    assert np.max(np.abs(out.mat - sigma.mat)) < 1e-9


def test_single_shot_u1_perfect_restores_mixed_input():
    # Results 1 and 2 are reconstructed from their readings; results 0 and
    # 3 lie outside the orbit and are corrected unaligned, which is exact as
    # I and Z commute with every U(1) misalignment.
    spec, eq = u1_bundle()
    scheme = enc.perfect_matched_scheme(eq, 1)
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    out, transcript = ch.single_shot_simulate(spec, scheme, sigma,
                                              HaarStream("u1", 23), shots=500)
    assert set(transcript["result"].tolist()) == {0, 1, 2, 3}
    assert np.max(np.abs(out.mat - sigma.mat)) <= 1e-12


def test_born_draw_is_generator_choice():
    spec, _ = su2_bundle()
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    _, transcript = ch.single_shot_simulate(spec, None, sigma,
                                            HaarStream("su2", 26), 10)
    for p in (transcript["probs"], np.array([0.1, 0.45, 0.05, 0.4]),
              np.array([0.5, 0.0, 0.2, 0.3])):
        a, b = HaarStream("su2", 27).generator(), \
            HaarStream("su2", 27).generator()
        for m in (1, 1000, ch._BATCH):
            got = ch._born_draw(a, p, m)
            want = b.choice(len(p), size=m, p=p)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # Both consumed the same variates.
        assert a.random() == b.random()


@pytest.mark.parametrize("case", ["u1", "btet"])
def test_correction_table_is_the_realigned_correction(case):
    if case == "u1":
        spec, eq = u1_bundle()
        scheme = enc.perfect_matched_scheme(eq, 1)
    else:
        spec = ch.su2_teleportation_spec(tetrahedral_ueb())
        scheme = enc.perfect_matched_scheme(equivariance_analysis(
            spec.basis, groups.binary_tetrahedral()), 0)
    table = ch._correction_table(spec, scheme)
    rng = np.random.default_rng(28)
    n = 4000
    idx = rng.choice(scheme.indices, size=n)
    y = scheme.act_fn(groups.haar_batch(scheme.subgroup.ambient, rng, n),
                      scheme.sample_fn(idx, rng, n))
    # Every orbit label, not only the one each reading decodes to.
    for j in scheme.indices:
        got = groups.quat_mul(groups.quat_mul(groups.quat_conj(y), table[j]),
                              y)
        want = realigned_correction(scheme, spec.basis.quats[j], y, j)
        dev = np.minimum(np.abs(got - want).max(axis=1),
                         np.abs(got + want).max(axis=1))
        assert dev.max() <= 1e-15, (j, dev.max())
    off = [j for j in range(spec.basis.size) if j not in scheme.indices]
    assert np.array_equal(table[off], spec.basis.quats[off])


def test_simulator_reads_orbit_shots_in_shot_order():
    # Each block draws the readings of its orbit shots with one sampler
    # call, in shot order; a result outside the orbit decodes to itself.
    spec, eq = su2_bundle()
    scheme = enc.tight_matched_scheme(eq, 1)
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    stream = HaarStream("su2", 29)
    shots = ch._BATCH + 100
    _, t = ch.single_shot_simulate(spec, scheme, sigma, stream, shots)
    rng = stream.advance(1 << 40).generator()
    for block in (slice(0, ch._BATCH), slice(ch._BATCH, shots)):
        x, g, decoded = t["result"][block], t["g"][block], t["decoded"][block]
        orbit = np.isin(x, scheme.indices)
        y = scheme.act_fn(g[orbit], scheme.sample_fn(x[orbit], rng,
                                                     orbit.sum()))
        assert np.array_equal(decoded[orbit], enc.decode_batch(scheme, y))
        assert np.array_equal(decoded[~orbit], x[~orbit])
    assert 0 < np.sum(t["decoded"] != t["result"])


def _superop_from_transcript(spec, transcript):
    """Mean of kron(conj V, V) over all the shots of a transcript at once,
    with V = rho(g)+ U_j rho(g) M_x for each shot's misalignment g, result x
    and decoded index j (the correction of a scheme that does not
    reconstruct the frame), composed as quaternions."""
    g = transcript["g"]
    pre = groups.unitary_quat(np.stack([spec.premeasurement_unitary(x)
                                        for x in range(spec.basis.size)]))
    corr = groups.quat_mul(groups.quat_mul(
        groups.quat_conj(g), spec.basis.quats[transcript["decoded"]]), g)
    v = su2_matrix(groups.quat_mul(corr, pre[transcript["result"]]))
    # Shots on the last, contiguous axis: numpy then sums them pairwise.
    terms = np.einsum("nab,ncd->nacbd", v.conj(), v).reshape(len(v), 16)
    return np.ascontiguousarray(terms.T).sum(axis=1).reshape(4, 4) / len(v)


@pytest.mark.parametrize("case", ["u1-conventional", "u1-tight"])
def test_blocked_simulator_loses_and_repeats_no_shot(case):
    # Two full blocks and a ragged one.
    shots = 2 * ch._BATCH + 17
    spec, eq = u1_bundle()
    scheme = None if case == "u1-conventional" else \
        enc.tight_matched_scheme(eq, 1)
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))

    def run():
        return ch.single_shot_simulate(spec, scheme, sigma,
                                       HaarStream("u1", 24), shots)

    out, transcript = run()
    assert transcript["g"].shape == (shots, 4)
    assert transcript["result"].shape == transcript["decoded"].shape \
        == (shots,)
    assert np.bincount(transcript["result"], minlength=4).sum() == shots
    # Every shot has its own misalignment: no block was drawn twice.
    assert len(np.unique(transcript["g"], axis=0)) == shots
    if scheme is not None:
        assert np.any(transcript["decoded"] != transcript["result"])
    dev = np.max(np.abs(transcript["mean_superop"].mat
                        - _superop_from_transcript(spec, transcript)))
    assert dev <= 1e-15
    out2, transcript2 = run()
    assert np.array_equal(out.mat, out2.mat)
    for key in ("g", "result", "decoded"):
        assert np.array_equal(transcript[key], transcript2[key])
    assert np.array_equal(transcript["mean_superop"].mat,
                          transcript2["mean_superop"].mat)


def _traced_peak(fn):
    """The peak bytes that numpy and Python allocate while fn runs, and
    fn's result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["conventional", "matched-tight",
                                  "rod-tight"])
def test_mc_memory_does_not_grow_with_samples(case):
    spec, eq = su2_bundle()
    if case == "conventional":
        def run(n):
            ch.conventional_channel(spec, "su2", 1, "mc", n, 3)
    else:
        scheme = enc.rod_scheme() if case == "rod-tight" else \
            enc.tight_matched_scheme(eq, 1)

        def run(n):
            ch.result_estimates(spec, scheme, range(4), "mc", n, 3)
    run(1 << 13)                    # builds what the process caches
    small, _ = _traced_peak(lambda: run(1 << 15))
    large, _ = _traced_peak(lambda: run(1 << 18))
    assert large < 4 << 20, large
    assert abs(large - small) <= 0.1 * small, (small, large)


def test_simulator_memory_is_the_transcript_plus_a_block():
    basis = tetrahedral_ueb()
    spec = ch.su2_teleportation_spec(basis)
    eq = equivariance_analysis(basis, groups.binary_tetrahedral())
    scheme = enc.perfect_matched_scheme(eq, 0)
    sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(np.complex128))
    ch.single_shot_simulate(spec, scheme, sigma, HaarStream("su2", 25), 100)
    peak, (_, t) = _traced_peak(lambda: ch.single_shot_simulate(
        spec, scheme, sigma, HaarStream("su2", 25), 1 << 18))
    transcript = t["g"].nbytes + t["result"].nbytes + t["decoded"].nbytes
    assert peak < transcript + (4 << 20), (peak, transcript)


def test_mc_channel_estimates_are_seed_deterministic():
    spec, _ = su2_bundle()
    a = ch.conventional_channel(spec, "su2", 1, "mc", samples=2 * 10 ** 4,
                                seed=5)
    b = ch.conventional_channel(spec, "su2", 1, "mc", samples=2 * 10 ** 4,
                                seed=5)
    assert np.array_equal(a.superop.mat, b.superop.mat)
    assert np.array_equal(a.replicates, b.replicates)


def test_estimate_invariants():
    spec, _ = su2_bundle()
    est = ch.conventional_channel(spec, "su2", 1, "mc", samples=2 * 10 ** 4)
    mat = choi_matrix(est.superop)
    assert np.trace(mat).real == pytest.approx(1.0, abs=1e-9)
    assert np.min(np.linalg.eigvalsh(mat)) > -1e-6
