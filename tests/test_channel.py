"""Channel-assembly tests: conventional, tight, perfect; the single-shot
simulator; the quaternion moment accumulator."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from frameport import channel as ch
from frameport import cli
from frameport import encoding as enc
from frameport import groups
from frameport.groups import HaarStream, su2_matrix
from frameport.channel import DensityMatrix, clamped_eigenvalues, \
    spectrum_purities
from frameport.ueb import equivariance_analysis, general_qubit_ueb, \
    pauli_ueb, tetrahedral_ueb
from qmat_reference import PAULI_MATRICES, apply_superop, \
    born_probabilities, choi, choi_matrix, conventional_estimate, \
    linear_map_purity, linear_purity_with_error, map_purity, mean_result, \
    measurement_basis, premeasurement_unitary, purity_with_error, \
    realigned_correction

SAMPLES = 2 * 10 ** 5     # unit-test budget; acceptance uses 1e6


def u1_bundle():
    basis = pauli_ueb()
    eq = equivariance_analysis(basis, groups.z8_physical())
    return basis, eq


def su2_bundle(basis=None):
    basis = basis or pauli_ueb()
    eq = equivariance_analysis(basis, groups.binary_octahedral())
    return basis, eq


# ---------------------------------------------------------------------------
# Teleportation through a resource
# ---------------------------------------------------------------------------

def test_resource_cancels_from_every_result():
    # The dense protocol with the resource (1 (x) X)|Phi+>, for X = I and
    # the singlet's X = -iY: every result has probability 1/4 whatever sigma,
    # and Bob's pre-correction unitary X (U_x X)+ is U_x+ up to phase.  The
    # simulator and every channel assume both.
    rng = np.random.default_rng(30)
    for x in (np.eye(2), -1j * PAULI_MATRICES[2]):
        for basis in (pauli_ueb(), tetrahedral_ueb()):
            meas = measurement_basis(basis, x)
            assert np.max(np.abs(meas.conj().T @ meas - np.eye(4))) <= 1e-15
            for _ in range(8):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                sigma = a @ a.conj().T / np.trace(a @ a.conj().T)
                p = born_probabilities(basis, x, sigma)
                assert np.max(np.abs(p - 0.25)) <= 1e-15, p
            for k, u in enumerate(su2_matrix(basis.quats)):
                m = premeasurement_unitary(basis, x, k)
                phase = np.trace(u @ m) / 2
                assert abs(abs(phase) - 1.0) <= 1e-15
                assert np.max(np.abs(m - phase * u.conj().T)) <= 1e-15


# ---------------------------------------------------------------------------
# Conventional channel
# ---------------------------------------------------------------------------

def test_u1_conventional_averaged_is_half_dephasing():
    basis, _ = u1_bundle()
    est = conventional_estimate(basis, "u1", "averaged")
    expected = np.diag([1.0, 0.5, 0.5, 1.0]).astype(np.complex128)
    assert np.max(np.abs(est.superop - expected)) < 1e-14
    assert map_purity(est.superop) == pytest.approx(0.5943609377704335,
                                                    abs=1e-9)


def test_u1_conventional_quadrature_matches_fine_grid():
    # Reference: the mean of kron(conj W, W), W = rho+ U_i rho U_i+ with
    # rho = diag(1, exp(-2i t)), over 101 equally spaced angles, exact for
    # trigonometric polynomials in t of degree <= 100.
    t = np.arange(101) * 2 * np.pi / 101
    rho = np.zeros((len(t), 2, 2), dtype=np.complex128)
    rho[:, 0, 0], rho[:, 1, 1] = 1.0, np.exp(-2j * t)
    u, v = groups.sample_su2(np.random.default_rng(9), 2)
    for basis in (pauli_ueb(), general_qubit_ueb(u, v)):
        for i, m in enumerate(su2_matrix(basis.quats)):
            w = np.einsum("nba,bc,ncd,ed->nae", rho.conj(), m, rho, m.conj())
            ref = np.einsum("nab,ncd->acbd", w.conj(), w).reshape(4, 4)
            est = conventional_estimate(basis, "u1", i)
            assert np.max(np.abs(est.superop - ref / len(t))) <= 1e-15


def test_su2_conventional_result0_is_identity():
    basis, _ = su2_bundle()
    est = conventional_estimate(basis, "su2", 0, "mc", samples=10 ** 4)
    assert np.max(np.abs(est.superop - np.eye(4))) < 1e-9


def test_su2_conventional_result1_spectrum():
    basis, _ = su2_bundle()
    est = conventional_estimate(basis, "su2", 1, "mc", samples=SAMPLES)
    spectra, purity, _, _ = ch.purity_figures([est])
    ev = sorted(spectra[0], reverse=True)
    assert np.allclose(ev, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=0.02)
    assert purity[0] == pytest.approx(1 - np.log(3) / np.log(4), abs=0.01)


def test_conventional_mc_agrees_with_quadrature():
    # Every result of both groups: the circle rule and the 24-point SU(2)
    # design against MC, within 3 sigma per entry.
    for group, (basis, _) in (("u1", u1_bundle()), ("su2", su2_bundle())):
        for i in range(4):
            exact = conventional_estimate(basis, group, i)
            mc = conventional_estimate(basis, group, i, "mc",
                                       samples=SAMPLES)
            tol = 3 * np.maximum(mc.stderr, 1e-4)
            assert np.all(np.abs(mc.superop - exact.superop) <= tol)


def test_averaged_conventional_mc_is_the_mix_of_its_results():
    # Result i draws from the seed's own stream at counter i << 48, so the
    # averaged estimate the CLI computes at a seed is the mix of that seed's
    # one-result estimates, and no result shares its draws with a
    # neighbouring seed.
    basis, _ = su2_bundle()
    averaged, = cli._channel_estimates(cli.builtin_scheme("su2-conventional"),
                                       "averaged", "mc", 20000, 6)
    conventional = enc.conventional_scheme(basis, "su2")
    single = [ch.result_estimates(conventional, [i], "mc", 20000, 6)[i]
              for i in range(4)]
    mixed = ch.mix_estimates(single)
    assert np.array_equal(averaged.moment, mixed.moment)
    assert np.array_equal(averaged.replicates, mixed.replicates)
    neighbour = ch.result_estimates(conventional, [2], "mc", 20000, 7)[2]
    assert not any(np.array_equal(neighbour.moment, est.moment)
                   for est in single)


# ---------------------------------------------------------------------------
# Tight channel
# ---------------------------------------------------------------------------

def u1_tight_scheme(eq):
    return enc.tight_matched_scheme(eq, 1)


def averaged_channel(scheme, method, *args):
    """The equal mix of a scheme's channels over all of its results."""
    return ch.mix_estimates(list(ch.result_estimates(
        scheme, range(scheme.basis.size), method, *args).values()))


def test_u1_tight_quadrature_off_diagonal():
    _, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)
    est = averaged_channel(scheme, "quadrature")
    target = 2 / np.pi ** 2 + 0.5
    assert est.superop[1, 1].real == pytest.approx(target, abs=1e-12)
    assert est.superop[2, 2].real == pytest.approx(target, abs=1e-12)
    assert est.pre_norm_deviation <= 1e-12


def test_u1_tight_arc_moment_matches_dense_grid():
    # The pair contraction of the scheme's region moment, the fourth moment
    # of g = y-bar x over x, y uniform on the arcs of E_b, against a 20-node
    # Gauss-Legendre grid on each arc (exact for the degree-4 trigonometric
    # integrand) and the mean over all pairs.
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
    t4 = groups.pair_fourth_moment(scheme.moment_fn())
    assert np.max(np.abs(t4 - ref)) <= 1e-15


def test_u1_tight_mc_agrees_with_quadrature():
    _, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)
    exact = ch.result_estimates(scheme, [1], "quadrature")[1]
    mc = ch.result_estimates(scheme, [1], "mc", samples=SAMPLES)[1]
    tol = 3 * np.maximum(mc.stderr, 2e-3)
    assert np.all(np.abs(mc.superop - exact.superop) <= tol)


def su2_tight_schemes():
    _, eq = su2_bundle()
    return {"matched": enc.tight_matched_scheme(eq, 1),
            "rod": enc.rod_scheme()}


def test_su2_tight_quadrature_values():
    # The exact channels, as contracted from each region's moment: base
    # (result 1) purity and mean-result purity, which is (1 + 3 p_base)/4
    # since result 0 gives the identity.  DECISIONS.md compares them with
    # the published figures.
    want = {"matched": (0.267531849036, 0.450648886777),
            "rod": (0.269856674296, 0.4523925057222)}
    for key, scheme in su2_tight_schemes().items():
        ests = ch.result_estimates(scheme, range(4), "quadrature")
        base, mean = want[key]
        assert ests[1].method == "quadrature" and ests[1].samples == 0
        assert abs(purity_with_error(ests[1])[0] - base) <= 1e-12
        assert abs(mean_result(ests)[0] - mean) <= 1e-12
        assert ests[1].pre_norm_deviation <= 1e-13


def test_su2_tight_mc_agrees_with_exact():
    # On held-out seeds the MC mean-result purity lies within 3 sigma of
    # the exact value.
    for key, scheme in su2_tight_schemes().items():
        exact, _ = mean_result(ch.result_estimates(
            scheme, range(4), "quadrature"))
        for seed in (9001, 9002):
            value, err = mean_result(ch.result_estimates(
                scheme, range(4), "mc", SAMPLES, seed))
            assert abs(value - exact) <= 3 * err, (key, seed, value, err)


def test_tight_singleton_orbit_is_identity(monkeypatch):
    _, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)

    def no_base_integral(*args):
        raise AssertionError("singleton result computed the base integral")

    monkeypatch.setattr(ch, "_tight_base_channel", no_base_integral)
    conventional = ch.result_estimates(
        enc.conventional_scheme(scheme.basis, "u1"), [0, 3], "quadrature")
    for i in (0, 3):
        for method in ("quadrature", "mc"):
            est = ch.result_estimates(scheme, [i], method)[i]
            assert est.method == "quadrature"
            assert np.max(np.abs(est.superop - np.eye(4))) < 1e-14
            # The exact conventional integral, by the same stacked call.
            assert np.array_equal(est.moment, conventional[i].moment)


def test_su2_tight_orbit_channels_share_spectrum():
    _, eq = su2_bundle()
    scheme = enc.tight_matched_scheme(eq, 1)
    ests = ch.result_estimates(scheme, range(4), "mc", samples=SAMPLES)
    spectra = [sorted(s) for s in ch.purity_figures(
        [ests[i] for i in (1, 2, 3)])[0]]
    assert np.allclose(spectra[0], spectra[1], atol=1e-9)
    assert np.allclose(spectra[0], spectra[2], atol=1e-9)
    # The singleton-orbit result is the exact conventional integral.
    assert ests[0].method == "quadrature"
    assert np.max(np.abs(ests[0].superop - np.eye(4))) < 1e-14


def test_mean_result_purity_of_some_results():
    # Any subset of results, keyed by result rather than by position.
    _, eq = u1_bundle()
    ests = ch.result_estimates(u1_tight_scheme(eq), [1, 3], "quadrature")
    assert list(ests) == [1, 3]
    _, purity, errors, _ = ch.purity_figures(list(ests.values()))
    assert np.mean(purity) == pytest.approx((purity[0] + 1.0) / 2,
                                            abs=1e-12)
    assert purity[0] == purity_with_error(ests[1])[0]
    assert np.mean(errors) == 0.0


def test_su2_tight_invariant_under_left_stabilizer_shift(monkeypatch):
    """The base integrand is invariant under g -> h g for h stabilizing the
    base element, so shifting the sampled misalignments leaves the channel
    unchanged up to Monte Carlo error."""
    _, eq = su2_bundle()
    scheme = enc.tight_matched_scheme(eq, 1)
    h = eq.subgroup.payloads[eq.stabilizers[1][3]]
    plain = ch.result_estimates(scheme, [1], "mc", samples=SAMPLES,
                                seed=0)[1]
    # Pre-compose every Haar draw with h.  The readings' sampler draws
    # through haar_batch too, which leaves them uniform.
    haar_batch = groups.haar_batch
    monkeypatch.setattr(groups, "haar_batch", lambda *a: groups.quat_mul(
        h, haar_batch(*a)))
    shifted = ch.result_estimates(scheme, [1], "mc", samples=SAMPLES,
                                  seed=1)[1]
    p1, e1 = purity_with_error(plain)
    p2, e2 = purity_with_error(shifted)
    assert abs(p1 - p2) < 4 * np.hypot(e1, e2) + 5e-3


def test_rod_and_matched_tight_purities_agree():
    """The two rotation-group tight schemes yield nearly identical per-result
    channels (the regions differ, but the stabilizer-averaged overlap weight
    does not)."""
    _, eq = su2_bundle()
    matched = enc.tight_matched_scheme(eq, 1)
    rod = enc.rod_scheme()
    pm, em = purity_with_error(ch.result_estimates(
        matched, [1], "mc", samples=SAMPLES)[1])
    pr, er = purity_with_error(ch.result_estimates(
        rod, [1], "mc", samples=SAMPLES)[1])
    assert pm == pytest.approx(0.268, abs=0.01)
    assert pr == pytest.approx(0.270, abs=0.01)


# ---------------------------------------------------------------------------
# Perfect channel
# ---------------------------------------------------------------------------

def test_u1_perfect_is_identity():
    _, eq = u1_bundle()
    scheme = enc.perfect_matched_scheme(eq, 1)
    est = ch.result_estimates(scheme, [1], "quadrature")[1]
    assert np.max(np.abs(est.superop - np.eye(4))) < 1e-9


def test_btet_perfect_mc_is_identity():
    basis = tetrahedral_ueb()
    eq = equivariance_analysis(basis, groups.binary_tetrahedral())
    scheme = enc.perfect_matched_scheme(eq, 0)
    est = ch.result_estimates(scheme, [1], "mc", samples=SAMPLES)[1]
    tol = 3 * np.maximum(est.stderr, 1e-6)
    assert np.all(np.abs(est.superop - np.eye(4)) <= tol)


def test_perfect_singleton_result_gets_conventional_integral():
    # Z4 on the circle fixes every Pauli label, so the perfect scheme's
    # orbit of 1 is a singleton and result 2 sends its label speakably: it
    # gets the conventional integral (map purity 0.5) by either method,
    # not the identity.
    basis = pauli_ueb()
    z4 = groups._build_subgroup("z4p", "u1",
                                groups.u1_quat(np.arange(4) * np.pi / 2))
    eq = equivariance_analysis(basis, z4)
    assert eq.orbits == ((0,), (1,), (2,), (3,))
    scheme = enc.perfect_matched_scheme(eq, 1)
    exact = ch.result_estimates(enc.conventional_scheme(scheme.basis, "u1"),
                                [2], "quadrature")[2]
    assert purity_with_error(exact) == pytest.approx((0.5, 0.0), abs=1e-12)
    for method in ("quadrature", "mc"):
        est = ch.result_estimates(scheme, [2], method, 20000, 0)[2]
        assert est.method == "quadrature"
        assert np.array_equal(est.moment, exact.moment)


def test_unknown_method_is_rejected():
    _, eq = u1_bundle()
    tight = u1_tight_scheme(eq)
    perfect = enc.perfect_matched_scheme(eq, 1)
    conventional = enc.conventional_scheme(eq.basis, "u1")
    # Orbit results of both kinds, the singleton result 0 alone, and the
    # conventional scheme.
    for scheme, results in ((tight, [1]), (tight, [0]), (perfect, [1]),
                            (perfect, [0]), (conventional, [1])):
        with pytest.raises(ValueError, match="unknown method"):
            ch.result_estimates(scheme, results, "bogus", 20000, 0)


def test_rod_point_encoding_is_perfectly_correctable():
    """A single encoding point per index pins down the frame up to the
    rotations about that axis, which commute with the Pauli element of the
    index, so the perfect-reconstruction channel is the identity for every
    result."""
    basis, eq = su2_bundle()
    t = np.random.default_rng(8).random(64) * 2 * np.pi
    for i in (1, 2, 3):
        # The stabilizer of axis i acts trivially: each net quaternion of
        # rho(s)+ U_i rho(s) U_i+ is +-1.
        s = np.zeros((len(t), 4))
        s[:, 0], s[:, i] = np.cos(t), np.sin(t)
        w = ch._channel_quats(s, ch._conjugation_map(basis.quats[i]))
        assert np.max(np.abs(np.abs(w[:, 0]) - 1.0)) < 1e-12
    rod = enc.rod_scheme()
    points = {i: np.eye(3)[i - 1][None] for i in (1, 2, 3)}
    scheme = enc.EncodingScheme(rod.eq, (1, 2, 3), "perfect", rod.act_fn,
                                rod.decode_fn,
                                lambda i, rng, n: np.tile(points[i][0], (n, 1)),
                                points=points)
    for i in (1, 2, 3):
        est = ch.result_estimates(scheme, [i], "quadrature")[i]
        assert np.max(np.abs(est.superop - np.eye(4))) < 1e-9


def test_finite_group_check_passes_for_u1():
    _, eq = u1_bundle()
    _, (ok, info) = enc.check_scheme(u1_tight_scheme(eq))
    assert ok, info


# ---------------------------------------------------------------------------
# Batched results and purity figures
# ---------------------------------------------------------------------------

BATCH_SAMPLES = 4096


def _conjugate(est: ch.ChannelEstimate, r: np.ndarray) -> ch.ChannelEstimate:
    """An estimate pre/post-composed with conjugation by R = su2_matrix(r),
    T -> [R] o T o [R+], replicates included: C^T M C for the conjugation
    map C of r, one orbit conjugate as result_estimates forms them."""
    c = ch._conjugation_map(r)[None]
    reps = None if est.replicates is None else \
        ch._conjugated(c, est.replicates)[0]
    return est._replace(moment=ch._conjugated(c, est.moment)[0],
                        replicates=reps)


def _batched_and_reference(name: str, method: str
                           ) -> tuple[list[ch.ChannelEstimate],
                                      list[ch.ChannelEstimate]]:
    """The channels of a builtin scheme as the CLI's batched call gives
    them (the result-averaged channel, then, for an encoded scheme, each
    result's), and the same channels built from one-result calls, with a
    tight scheme's orbit results conjugated from its base one at a time."""
    scheme = cli.builtin_scheme(name)
    args = (method, BATCH_SAMPLES, 5)
    batched = cli._channel_estimates(scheme, "averaged", *args)
    base = min(scheme.indices, default=None)
    reference = []
    for i in range(scheme.basis.size):
        if scheme.kind == "tight" and i in scheme.indices and i != base:
            reference.append(_conjugate(ch.result_estimates(
                scheme, [base], *args)[base],
                scheme.subgroup.payloads[scheme.eq.coset_reps[i]]))
        else:
            reference.append(ch.result_estimates(scheme, [i], *args)[i])
    mixed = ch.mix_estimates(reference)
    return batched, [mixed, *reference] if scheme.indices else [mixed]


@pytest.mark.parametrize("method", ["quadrature", "mc"])
@pytest.mark.parametrize("name", list(cli._SCHEMES))
def test_batched_results_match_one_result_calls(name, method):
    batched, reference = _batched_and_reference(name, method)
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        assert np.max(np.abs(got.moment - want.moment)) <= 1e-15
        assert (got.samples, got.pre_norm_deviation) == \
            (want.samples, want.pre_norm_deviation)
        assert (got.replicates is None) == (want.replicates is None)
        if got.replicates is not None:
            assert np.max(np.abs(got.replicates - want.replicates)) <= 1e-15
    # The exact conventional moments of all results in one call are those
    # of one result at a time.
    basis, t4 = pauli_ueb(), groups.haar_fourth_moment("su2")
    stacked = ch._exact_moment(basis.quats, t4)
    for i in range(basis.size):
        one = ch._exact_moment(basis.quats[i:i + 1], t4)
        assert np.max(np.abs(stacked[i] - one[0])) <= 1e-15


@pytest.mark.parametrize("method", ["quadrature", "mc"])
@pytest.mark.parametrize("name", list(cli._SCHEMES))
def test_stacked_purity_figures_match_each_estimate(name, method):
    ests = _batched_and_reference(name, method)[0]
    spectra, purity, errors, linear = ch.purity_figures(ests)
    for k, est in enumerate(ests):
        # The same figures from this estimate alone.
        alone = ch.purity_figures([est])
        assert abs(purity[k] - alone[1][0]) <= 1e-15
        assert abs(errors[k] - alone[2][0]) <= 1e-15
        assert abs(linear[k] - alone[3][0]) <= 1e-15
        assert np.max(np.abs(spectra[k] - alone[0][0])) <= 1e-15
        assert abs(linear[k] - linear_purity_with_error(est)[0]) <= 1e-15
        # And from this estimate's arrays without purity_figures.
        own = np.linalg.eigvalsh(est.moment)
        own = np.where(own < 1e-14, 0.0, own)
        assert np.max(np.abs(spectra[k] - own)) <= 1e-15
        if est.replicates is None:
            assert errors[k] == 0.0
        else:
            reps = spectrum_purities(clamped_eigenvalues(est.replicates))[0]
            assert abs(errors[k] - np.std(reps, ddof=1)) <= 1e-15
    if len(ests) > 1:
        # The CLI's mean-result row is the mean of the per-result map
        # purities, with the mean of their errors, and the mean of the
        # per-result linear purities.
        figures, _ = cli._purity_rows(name, "averaged", ests[0].samples,
                                      (purity, errors, linear), 5, 0.0)
        assert figures[1][1:3] == mean_result(dict(enumerate(ests[1:])))
        assert figures[1][3] == pytest.approx(
            np.mean([linear_purity_with_error(e)[0] for e in ests[1:]]),
            abs=1e-15)


# ---------------------------------------------------------------------------
# Quaternion moment accumulator
# ---------------------------------------------------------------------------

def _direct_block_sums(basis, r, result, accept):
    """Reference: per-block sums of kron(conj W, W) for the 2x2 unitaries
    W = rho(g)+ U_i rho(g) U_i+ of the frame matrices r = rho(g), bucketed by
    sample index."""
    u = su2_matrix(basis.quats[result])
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
        basis = pauli_ueb()
        theta = rng.random(samples) * 2 * np.pi
        payloads = groups.u1_quat(theta)
        # The physical matrices diag(1, exp(-2i theta)), phase included.
        r = np.zeros((samples, 2, 2), dtype=np.complex128)
        r[:, 0, 0], r[:, 1, 1] = 1.0, np.exp(-2j * theta)
    else:
        basis = tetrahedral_ueb() if case == "su2-tetrahedral" else pauli_ueb()
        payloads = groups.sample_su2(rng, samples)
        r = groups.su2_matrix(payloads)
    accept = rng.random(samples) < 0.4 if masked else \
        np.ones(samples, dtype=bool)

    for result in range(4):
        pos = [0]
        conj_by_u = ch._conjugation_map(basis.quats[result])

        def sample_fn(_, m):
            lo, pos[0] = pos[0], pos[0] + m
            keep = accept[lo:lo + m]
            quats = ch._channel_quats(payloads[lo:lo + m][keep], conj_by_u)
            return quats, keep if masked else None

        moments, accepted = ch._mc_accumulate(sample_fn, samples,
                                              HaarStream("u1", 0))
        ref_sums, ref_norms = _direct_block_sums(basis, r, result, accept)
        assert accepted == accept.sum()
        traces = np.trace(moments, axis1=1, axis2=2)
        assert np.max(np.abs(traces - ref_norms)) <= 1e-12
        assert np.max(np.abs(ch._moment_superop(moments) - ref_sums)) <= 1e-12


def _moment_estimate(case):
    if case == "perfect-identity":
        _, eq = u1_bundle()
        scheme = enc.perfect_matched_scheme(eq, 1)
        return ch.result_estimates(scheme, [1], "quadrature")[1]
    if case == "u1-tight-quadrature":
        _, eq = u1_bundle()
        return ch.result_estimates(u1_tight_scheme(eq), [1], "quadrature")[1]
    basis, eq = su2_bundle()
    if case == "conventional-mc":
        return ch.result_estimates(enc.conventional_scheme(basis, "su2"), [1],
                                   "mc", samples=1 << 14)[1]
    scheme = enc.tight_matched_scheme(eq, 1)
    # Result 1 is the base channel; result 2 its orbit conjugate.
    result = {"tight-base-mc": 1, "tight-orbit-mc": 2}[case]
    return ch.result_estimates(scheme, [result], "mc",
                               samples=1 << 14)[result]


@pytest.mark.parametrize("case", ["conventional-mc", "tight-base-mc",
                                  "tight-orbit-mc", "u1-tight-quadrature",
                                  "perfect-identity"])
def test_moment_estimator_matches_superoperator_reference(case):
    # The Choi spectrum, purities and bootstrap errors computed from the
    # 4x4 moments equal those of the superoperators they stand for.
    est = _moment_estimate(case)
    sup = est.superop
    (spectrum,), (p,), (p_err,), (figure_lin,) = ch.purity_figures([est])
    lin, lin_err = linear_purity_with_error(est)
    assert figure_lin == lin
    assert abs(p - map_purity(sup)) <= 1e-14
    assert abs(lin - linear_map_purity(sup)) <= 1e-14
    assert np.max(np.abs(spectrum - choi(sup).eigenvalues())) <= 1e-14
    # Orbit conjugation Q M Q^T is T -> [R] o T o [R+] on superoperators.
    r = groups.axis_angle_quat([1.0, 2.0, 2.0], 0.7)
    k = np.kron(groups.su2_matrix(r).conj(), groups.su2_matrix(r))
    moved = _conjugate(est, r)
    assert np.max(np.abs(moved.superop
                         - k @ sup @ k.conj().T)) <= 1e-14
    if est.replicates is None:
        assert p_err == lin_err == 0.0
        return
    rep_sups = ch._moment_superop(est.replicates)
    ref_p = np.array([map_purity(s) for s in rep_sups])
    ref_lin = np.array([linear_map_purity(s) for s in rep_sups])
    got_p, got_lin = spectrum_purities(clamped_eigenvalues(est.replicates))
    assert np.max(np.abs(got_p - ref_p)) <= 1e-14
    assert np.max(np.abs(got_lin - ref_lin)) <= 1e-14
    assert abs(p_err - np.std(ref_p, ddof=1)) <= 1e-14
    assert abs(lin_err - np.std(ref_lin, ddof=1)) <= 1e-14
    moved_reps = k @ rep_sups @ k.conj().T
    assert np.max(np.abs(moved.stderr
                         - np.std(moved_reps, axis=0, ddof=1))) <= 1e-14


def test_bootstrap_error_bars_are_calibrated():
    """Over 40 held-out seeds at 2^14 samples, the MC purity lies within 2
    sigma of the exact quadrature value about 95% of the time: the counts
    must not fall in the binomial(40, 0.95) lower tail below p = 0.01."""
    seeds = range(1000, 1040)
    samples = 1 << 14
    basis, _ = su2_bundle()
    _, eq = u1_bundle()
    scheme = u1_tight_scheme(eq)
    exact = {
        "su2-result-1": purity_with_error(conventional_estimate(
            basis, "su2", 1))[0],
        "su2-averaged": purity_with_error(conventional_estimate(
            basis, "su2", "averaged"))[0],
        "u1-tight-mean": mean_result(ch.result_estimates(
            scheme, range(4), "quadrature"))[0],
    }
    inside = dict.fromkeys(exact, 0)
    for seed in seeds:
        got = {
            "su2-result-1": purity_with_error(conventional_estimate(
                basis, "su2", 1, "mc", samples, seed)),
            "su2-averaged": purity_with_error(conventional_estimate(
                basis, "su2", "averaged", "mc", samples, seed)),
            "u1-tight-mean": mean_result(ch.result_estimates(
                scheme, range(4), "mc", samples, seed)),
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
    tight schemes, against their exact quadrature values."""
    seeds = range(2000, 2040)
    samples = 1 << 14
    for key, scheme in su2_tight_schemes().items():
        want, _ = purity_with_error(ch.result_estimates(
            scheme, [1], "quadrature")[1])
        inside = 0
        for seed in seeds:
            value, err = purity_with_error(ch.result_estimates(
                scheme, [1], "mc", samples, seed)[1])
            inside += abs(value - want) <= 2 * err
        n = len(seeds)
        tail = sum(math.comb(n, k) * 0.95 ** k * 0.05 ** (n - k)
                   for k in range(inside + 1))
        assert tail >= 0.01, (key, inside, tail)


# ---------------------------------------------------------------------------
# Single-shot simulator
# ---------------------------------------------------------------------------

def test_single_shot_conventional_matches_channel():
    basis, _ = u1_bundle()
    sigma = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]],
                                   dtype=np.complex128))
    out, transcript = ch.single_shot_simulate(
        enc.conventional_scheme(basis, "u1"), sigma, 21, shots=120000)
    exact = conventional_estimate(basis, "u1", "averaged")
    expected = apply_superop(exact.superop, sigma.mat)
    assert np.max(np.abs(out.mat - expected)) < 5e-3


@pytest.mark.parametrize("shots", [0, -1])
def test_single_shot_needs_a_shot(shots):
    basis, _ = u1_bundle()
    sigma = DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="shots"):
        ch.single_shot_simulate(enc.conventional_scheme(basis, "u1"), sigma,
                                21, shots)


def test_single_shot_perfect_reconstructs_exactly():
    basis = tetrahedral_ueb()
    eq = equivariance_analysis(basis, groups.binary_tetrahedral())
    scheme = enc.perfect_matched_scheme(eq, 0)
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    out, _ = ch.single_shot_simulate(scheme, sigma, 22, shots=500)
    assert np.max(np.abs(out.mat - sigma.mat)) < 1e-9


def test_single_shot_u1_perfect_restores_mixed_input():
    # Results 1 and 2 are reconstructed from their readings; results 0 and
    # 3 lie outside the orbit and are corrected unaligned, which is exact as
    # I and Z commute with every U(1) misalignment.
    _, eq = u1_bundle()
    scheme = enc.perfect_matched_scheme(eq, 1)
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    out, transcript = ch.single_shot_simulate(scheme, sigma, 23, shots=500)
    assert set(transcript["result"].tolist()) == {0, 1, 2, 3}
    assert np.max(np.abs(out.mat - sigma.mat)) <= 1e-12


def test_born_draw_is_generator_choice():
    # Every result is equiprobable, and each block draws its results as
    # Generator.choice(4, p=[1/4] * 4) would, bit for bit and leaving the
    # generator in the same state: the block's misalignments, drawn next
    # from it, match too.
    basis, _ = su2_bundle()
    scheme = enc.conventional_scheme(basis, "su2")
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    for shots in (1, 7, 1001, ch._BATCH, ch._BATCH + 3):
        _, t = ch.single_shot_simulate(scheme, sigma, 27, shots)
        rng = HaarStream("su2", 27).generator()
        for start in range(0, shots, ch._BATCH):
            block = slice(start, min(start + ch._BATCH, shots))
            m = block.stop - start
            want = rng.choice(4, size=m, p=[0.25] * 4)
            got = t["result"][block]
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(t["g"][block],
                                  groups.haar_batch("su2", rng, m))


@pytest.mark.parametrize("case", ["u1", "btet"])
def test_correction_table_is_the_realigned_correction(case):
    if case == "u1":
        basis, eq = u1_bundle()
        scheme = enc.perfect_matched_scheme(eq, 1)
    else:
        basis = tetrahedral_ueb()
        scheme = enc.perfect_matched_scheme(equivariance_analysis(
            basis, groups.binary_tetrahedral()), 0)
    table = ch._correction_table(scheme)
    rng = np.random.default_rng(28)
    n = 4000
    idx = rng.choice(scheme.indices, size=n)
    y = scheme.act_fn(groups.haar_batch(scheme.group, rng, n),
                      scheme.sample_fn(idx, rng, n))
    # Every orbit label, not only the one each reading decodes to.
    for j in scheme.indices:
        got = groups.quat_mul(groups.quat_mul(groups.quat_conj(y), table[j]),
                              y)
        want = realigned_correction(scheme, basis.quats[j], y, j)
        dev = np.minimum(np.abs(got - want).max(axis=1),
                         np.abs(got + want).max(axis=1))
        assert dev.max() <= 1e-15, (j, dev.max())
    off = [j for j in range(basis.size) if j not in scheme.indices]
    assert np.array_equal(table[off], basis.quats[off])


def test_simulator_reads_orbit_shots_in_shot_order():
    # Each block draws the readings of its orbit shots with one sampler
    # call, in shot order; a result outside the orbit decodes to itself.
    _, eq = su2_bundle()
    scheme = enc.tight_matched_scheme(eq, 1)
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    shots = ch._BATCH + 100
    _, t = ch.single_shot_simulate(scheme, sigma, 29, shots)
    rng = HaarStream("su2", 29).advance(1 << 40).generator()
    for block in (slice(0, ch._BATCH), slice(ch._BATCH, shots)):
        x, g, decoded = t["result"][block], t["g"][block], t["decoded"][block]
        orbit = np.isin(x, scheme.indices)
        y = scheme.act_fn(g[orbit], scheme.sample_fn(x[orbit], rng,
                                                     orbit.sum()))
        assert np.array_equal(decoded[orbit], enc.decode_batch(scheme, y))
        assert np.array_equal(decoded[~orbit], x[~orbit])
    assert 0 < np.sum(t["decoded"] != t["result"])


def _superop_from_transcript(basis, transcript):
    """Mean of kron(conj V, V) over all the shots of a transcript at once,
    with V = rho(g)+ U_j rho(g) M_x for each shot's misalignment g, result x
    and decoded index j (the correction of a scheme that does not
    reconstruct the frame): rho(g)+ U_j rho(g) composed as quaternions,
    then times the dense pre-correction unitary M_x of the resource X = I."""
    g = transcript["g"]
    pre = np.stack([premeasurement_unitary(basis, np.eye(2), x)
                    for x in range(basis.size)])
    corr = groups.quat_mul(groups.quat_mul(
        groups.quat_conj(g), basis.quats[transcript["decoded"]]), g)
    v = su2_matrix(corr) @ pre[transcript["result"]]
    # Shots on the last, contiguous axis: numpy then sums them pairwise.
    terms = np.einsum("nab,ncd->nacbd", v.conj(), v).reshape(len(v), 16)
    return np.ascontiguousarray(terms.T).sum(axis=1).reshape(4, 4) / len(v)


@pytest.mark.parametrize("case", ["u1-conventional", "u1-tight"])
def test_blocked_simulator_loses_and_repeats_no_shot(case):
    # Two full blocks and a ragged one.
    shots = 2 * ch._BATCH + 17
    basis, eq = u1_bundle()
    scheme = enc.conventional_scheme(basis, "u1") \
        if case == "u1-conventional" else enc.tight_matched_scheme(eq, 1)
    sigma = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))

    def run():
        return ch.single_shot_simulate(scheme, sigma, 24, shots)

    out, transcript = run()
    assert transcript["g"].shape == (shots, 4)
    assert transcript["result"].shape == transcript["decoded"].shape \
        == (shots,)
    assert np.bincount(transcript["result"], minlength=4).sum() == shots
    # Every shot has its own misalignment: no block was drawn twice.
    assert len(np.unique(transcript["g"], axis=0)) == shots
    if scheme.indices:
        assert np.any(transcript["decoded"] != transcript["result"])
    dev = np.max(np.abs(transcript["mean_superop"]
                        - _superop_from_transcript(basis, transcript)))
    assert dev <= 1e-15
    out2, transcript2 = run()
    assert np.array_equal(out.mat, out2.mat)
    for key in ("g", "result", "decoded"):
        assert np.array_equal(transcript[key], transcript2[key])
    assert np.array_equal(transcript["mean_superop"],
                          transcript2["mean_superop"])


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
    basis, eq = su2_bundle()
    if case == "conventional":
        scheme = enc.conventional_scheme(basis, "su2")

        def run(n):
            ch.result_estimates(scheme, [1], "mc", n, 3)
    else:
        scheme = enc.rod_scheme() if case == "rod-tight" else \
            enc.tight_matched_scheme(eq, 1)

        def run(n):
            ch.result_estimates(scheme, range(4), "mc", n, 3)
    run(1 << 13)                    # builds what the process caches
    small, _ = _traced_peak(lambda: run(1 << 15))
    large, _ = _traced_peak(lambda: run(1 << 18))
    assert large < 4 << 20, large
    assert abs(large - small) <= 0.1 * small, (small, large)


def test_simulator_memory_is_the_transcript_plus_a_block():
    eq = equivariance_analysis(tetrahedral_ueb(), groups.binary_tetrahedral())
    scheme = enc.perfect_matched_scheme(eq, 0)
    sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(np.complex128))
    ch.single_shot_simulate(scheme, sigma, 25, 100)
    peak, (_, t) = _traced_peak(lambda: ch.single_shot_simulate(
        scheme, sigma, 25, 1 << 18))
    transcript = t["g"].nbytes + t["result"].nbytes + t["decoded"].nbytes
    assert peak < transcript + (4 << 20), (peak, transcript)


def test_mc_channel_estimates_are_seed_deterministic():
    basis, _ = su2_bundle()
    a = conventional_estimate(basis, "su2", 1, "mc", samples=2 * 10 ** 4,
                              seed=5)
    b = conventional_estimate(basis, "su2", 1, "mc", samples=2 * 10 ** 4,
                              seed=5)
    assert np.array_equal(a.superop, b.superop)
    assert np.array_equal(a.replicates, b.replicates)


def test_estimate_invariants():
    basis, _ = su2_bundle()
    est = conventional_estimate(basis, "su2", 1, "mc", samples=2 * 10 ** 4)
    mat = choi_matrix(est.superop)
    assert np.trace(mat).real == pytest.approx(1.0, abs=1e-9)
    assert np.min(np.linalg.eigvalsh(mat)) > -1e-6
