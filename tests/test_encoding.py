"""Encoding-layer tests: reading actions, matched schemes, rod scheme,
compatibility."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import stats

from frameport import cli
from frameport import encoding as enc
from frameport import groups
from frameport.groups import HaarStream, axis_angle_quat, canonical_sign, \
    quat_conj, quat_mul, quat_rotate, u1_quat
from frameport.ueb import equivariance_analysis, pauli_ueb, tetrahedral_ueb
from qmat_reference import decode, is_rod, nearest_indices, one_shot_decode, \
    uniform_bins, uniform_readings


def u1_equivariance():
    return equivariance_analysis(pauli_ueb(), groups.z8_physical())


def boct_equivariance():
    return equivariance_analysis(pauli_ueb(), groups.binary_octahedral())


def btet_equivariance():
    return equivariance_analysis(tetrahedral_ueb(),
                                 groups.binary_tetrahedral())


# ---------------------------------------------------------------------------
# Reading actions
# ---------------------------------------------------------------------------

def test_rod_axis_action_is_rotation():
    act = enc.rod_scheme().act_fn
    q = groups.axis_angle_quat([0, 0, 1], np.pi / 2)
    assert np.allclose(act(q, np.array([1.0, 0, 0])), [0, 1, 0], atol=1e-12)


@pytest.mark.parametrize("name", cli.ENCODED_SCHEMES)
def test_torsor_action_composition(name):
    # act(g2, act(g1, x)) == act(g2 g1, x): labels transform contravariantly
    # and axes covariantly, and both are actions of the frame group.
    scheme = cli.builtin_scheme(name).scheme
    act = scheme.act_fn
    rng = np.random.default_rng(0)
    x = uniform_readings(scheme, rng, 1)[0]
    g1, g2 = groups.haar_batch(scheme.subgroup.ambient, rng, 2)
    lhs = act(g2, act(g1, x))
    rhs = act(groups.quat_mul(g2, g1), x)
    assert min(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs + rhs)) < 1e-9


def test_circle_torsor_action():
    # The circle torsor acts as on SU(2): composition holds, x and -x are
    # one reading, and g = u1_quat(theta) moves the axis angle t of
    # u1_quat(t) to t - theta mod pi.
    act = enc.tight_matched_scheme(u1_equivariance(), 1).act_fn
    x, g1, g2 = u1_quat(np.random.default_rng(0).random(3) * 2 * np.pi)
    lhs = act(g2, act(g1, x))
    rhs = act(groups.quat_mul(g2, g1), x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.array_equal(act(g1, x), act(g1, -x))
    assert np.allclose(act(u1_quat(np.pi / 2), u1_quat(3.0)),
                       canonical_sign(u1_quat(3.0 - np.pi / 2)), atol=1e-12)
    assert np.allclose(act(u1_quat(np.pi), u1_quat(0.3)),
                       canonical_sign(u1_quat(0.3)), atol=1e-12)


def test_uniform_bins_cover_and_balance():
    rng = np.random.default_rng(1)
    for scheme in (enc.tight_matched_scheme(u1_equivariance(), 1),
                   enc.rod_scheme()):
        x = uniform_readings(scheme, rng, 64000)
        bins = uniform_bins(scheme, x, 64)
        counts = np.bincount(bins, minlength=64)
        assert len(counts) == 64
        assert counts.min() > 700 and counts.max() < 1300


# ---------------------------------------------------------------------------
# Circle matched scheme (figure-2 regions)
# ---------------------------------------------------------------------------

def test_u1_matched_scheme_spec_structure():
    # Both schemes are built on Z8 itself; the stabilizer holds the kernel
    # {0, pi} of the action on readings.
    eq = u1_equivariance()
    for ctor in (enc.tight_matched_scheme, enc.perfect_matched_scheme):
        scheme = ctor(eq, 1)
        sub = scheme.subgroup
        assert sub is groups.z8_physical()
        assert scheme.indices == (1, 2)
        assert len(eq.stabilizers[1]) == 4
        assert len(eq.stabilizers[1]) * len(scheme.indices) == sub.order
        _assert_elements_decode_to_coset_labels(scheme)
        # Label 1 on the even multiples of pi/4, label 2 on the odd ones.
        q = sub.payloads
        odd = np.rint(np.arctan2(-q[:, 3], q[:, 0]) / (np.pi / 4)) % 2
        assert scheme.decode_fn(q).tolist() == (1 + odd).astype(int).tolist()


def _assert_elements_decode_to_coset_labels(scheme):
    """Each element l c_i of H decodes to i, for l in the stabilizer L of
    the orbit base and c_i the coset representative of i."""
    eq, sub = scheme.eq, scheme.subgroup
    stabilizer = list(eq.stabilizers[min(scheme.indices)])
    for i in scheme.indices:
        coset = sub.table[stabilizer, eq.coset_reps[i]]
        assert np.all(scheme.decode_fn(sub.payloads[coset]) == i)


def test_u1_tight_scheme_decodes_known_angles():
    scheme = enc.tight_matched_scheme(u1_equivariance(), 1)
    # Regions are pi/4-wide arcs around {0, pi/4, pi/2, 3pi/4} with labels
    # 1, 2, 1, 2.
    assert decode(scheme, u1_quat(0.01)) == 1
    assert decode(scheme, u1_quat(np.pi / 4)) == 2
    assert decode(scheme, u1_quat(np.pi / 2 - 0.01)) == 1
    assert decode(scheme, u1_quat(3 * np.pi / 4 + 0.05)) == 2


def test_u1_region_measures():
    scheme = enc.tight_matched_scheme(u1_equivariance(), 1)
    rng = np.random.default_rng(2)
    labels = enc.decode_batch(scheme, u1_quat(rng.random(100000) * np.pi))
    frac = np.mean(labels == 1)
    assert frac == pytest.approx(0.5, abs=0.01)
    assert 1 / len(scheme.indices) == pytest.approx(0.5)


def test_u1_perfect_points():
    scheme = enc.perfect_matched_scheme(u1_equivariance(), 1)
    for i, angles in ((1, [0.0, np.pi / 2]), (2, [np.pi / 4, 3 * np.pi / 4])):
        dots = np.abs(scheme.points[i] @ u1_quat(angles).T)
        assert np.allclose(np.sort(dots.max(axis=0)), [1.0, 1.0], atol=1e-9)


def test_u1_perfect_points_are_exact_group_elements():
    scheme = enc.perfect_matched_scheme(u1_equivariance(), 1)
    # Each point is a canonical-signed Z8 element itself, within 1e-15 of
    # its closed form.
    z8 = canonical_sign(groups.z8_physical().payloads)
    for i, angles in ((1, [0.0, np.pi / 2]), (2, [np.pi / 4, 3 * np.pi / 4])):
        assert all(np.any(np.all(z8 == q, axis=1)) for q in scheme.points[i])
        exact = canonical_sign(u1_quat(angles))
        dev = np.abs(scheme.points[i][:, None] - exact[None]).max(axis=-1)
        assert np.max(dev.min(axis=1)) <= 1e-15


def test_sample_encoding_lands_in_region():
    scheme = enc.tight_matched_scheme(u1_equivariance(), 1)
    for i in (1, 2):
        x = scheme.sample_fn(i, HaarStream("u1", 9).generator(), 500)
        assert np.all(enc.decode_batch(scheme, x) == i)


@pytest.mark.parametrize("name", cli.ENCODED_SCHEMES)
def test_samplers_take_an_index_array(name):
    scheme = cli.builtin_scheme(name).scheme
    n = 3000
    for i in scheme.indices:
        # From equal generator states a constant array draws, bit for bit,
        # the readings of its scalar.
        x = scheme.sample_fn(i, np.random.default_rng(40 + i), n)
        same = scheme.sample_fn(np.full(n, i), np.random.default_rng(40 + i),
                                n)
        assert x.tobytes() == same.tobytes()
    idx = np.random.default_rng(41).choice(scheme.indices, size=n)
    x = scheme.sample_fn(idx, HaarStream(scheme.subgroup.ambient,
                                         42).generator(), n)
    if scheme.kind == "perfect":
        for i in scheme.indices:
            rows = x[idx == i]
            assert np.all(np.any(np.all(
                rows[:, None] == scheme.points[i][None], axis=-1), axis=1))
    else:
        assert np.array_equal(enc.decode_batch(scheme, x), idx)
    size = scheme.eq.basis.size
    for i in sorted(set(range(size + 1)) - set(scheme.indices)):
        # A sampler call off the orbit, for a scalar index or inside an
        # array, gives NaN rows or fails on a table's range: never a finite
        # reading.
        for bad in (i, np.append(idx[:4], i)):
            try:
                got = scheme.sample_fn(bad, np.random.default_rng(43),
                                       np.size(bad))
            except IndexError:
                continue
            assert np.all(np.isnan(got[np.asarray(bad) == i]))


# ---------------------------------------------------------------------------
# Rotation-group matched schemes
# ---------------------------------------------------------------------------

def test_boct_matched_scheme_spec_structure():
    eq = boct_equivariance()
    for ctor in (enc.tight_matched_scheme, enc.perfect_matched_scheme):
        scheme = ctor(eq, 1)
        sub = scheme.subgroup
        assert scheme.indices == (1, 2, 3)
        assert len(eq.stabilizers[1]) == 16
        assert len(eq.stabilizers[1]) * len(scheme.indices) == sub.order
        _assert_elements_decode_to_coset_labels(scheme)
        labels = scheme.decode_fn(sub.payloads)
        assert sorted(np.bincount(labels).tolist()) == [0, 16, 16, 16]


def test_boct_tight_region_measures():
    scheme = enc.tight_matched_scheme(boct_equivariance(), 1)
    rng = np.random.default_rng(3)
    x = uniform_readings(scheme, rng, 60000)
    labels = enc.decode_batch(scheme, x)
    for i in (1, 2, 3):
        assert np.mean(labels == i) == pytest.approx(1 / 3, abs=0.02)


def test_btet_perfect_points_structure():
    scheme = enc.perfect_matched_scheme(btet_equivariance(), 0)
    assert sorted(scheme.points) == [0, 1, 2, 3]
    all_points = np.concatenate([scheme.points[i] for i in range(4)])
    assert all(len(scheme.points[i]) == 3 for i in range(4))
    # 12 distinct rotations in total (the rotation group of the tetrahedron).
    dots = np.abs(all_points @ all_points.T)
    distinct = np.sum(dots > 1 - 1e-9, axis=1)
    assert np.all(distinct == 1)
    # The points are canonical-signed group elements themselves, in the
    # lexicographic order of their 12-decimal roundings.
    elements = canonical_sign(groups.binary_tetrahedral().payloads)
    assert np.max(np.abs(np.linalg.norm(all_points, axis=1) - 1.0)) <= 1e-15
    assert all(np.any(np.all(elements == q, axis=1)) for q in all_points)
    for pts in scheme.points.values():
        order = np.lexsort(np.round(pts.T, 12)[::-1])
        assert np.array_equal(order, np.arange(len(pts)))


def test_rod_scheme_decode_and_measure():
    scheme = enc.rod_scheme()
    assert decode(scheme, np.array([0.9, 0.1, 0.2])) == 1
    assert decode(scheme, np.array([0.1, -0.9, 0.2])) == 2
    assert decode(scheme, np.array([0.1, 0.2, 0.9])) == 3
    rng = np.random.default_rng(4)
    labels = enc.decode_batch(scheme, uniform_readings(scheme, rng, 60000))
    for i in (1, 2, 3):
        assert np.mean(labels == i) == pytest.approx(1 / 3, abs=0.02)


def test_rod_moment_is_the_axis_and_fibre_rule():
    # The lift {h : R(h) e_z in E_1} of the rod's base region by a rule
    # built here: the 6 cube axes, with mass c/2 on +-e_x and (1 - c)/4 on
    # each other one, c = E n_x^2 on E_1, each with 8 fibre points at
    # half-angles k pi/8 about e_z, twice BOct's 4 per axis up to sign.  It
    # integrates the quartic exactly, and c is recomputed here.
    nodes, weights = leggauss(40)
    # E_1 seen from the cube face x = 1: n = (1, u, v)/|(1, u, v)|, with
    # solid angle (1 + u^2 + v^2)^(-3/2) du dv.
    s = 1 + nodes[:, None] ** 2 + nodes ** 2
    w = np.outer(weights, weights)
    c = np.sum(w * s ** -2.5) / np.sum(w * s ** -1.5)
    assert c == pytest.approx(1 / 3 + 2 / (np.pi * np.sqrt(3)), abs=1e-14)
    axes = np.vstack([np.eye(3), -np.eye(3)])
    mass = np.where(np.abs(axes[:, 0]) == 1, c / 2, (1 - c) / 4)
    # A lift of each axis n: 1 for e_z, a half turn about e_x for -e_z, and
    # otherwise a quarter turn about e_z x n.
    lifts = np.array([[1.0, 0, 0, 0] if n[2] == 1 else [0.0, 1, 0, 0]
                      if n[2] == -1 else axis_angle_quat(
                          np.cross([0, 0, 1], n), np.pi / 2) for n in axes])
    psi = np.arange(8) * np.pi / 8
    fibre = np.stack([np.cos(psi), 0 * psi, 0 * psi, np.sin(psi)], axis=1)
    h = quat_mul(lifts[:, None], fibre).reshape(-1, 4)
    assert np.max(np.abs(quat_rotate(h, [0.0, 0, 1])
                         - np.repeat(axes, 8, axis=0))) <= 1e-15
    hb = quat_conj(h)
    ref = np.einsum("n,na,nb,nc,nd->abcd", np.repeat(mass / 8, 8),
                    hb, hb, hb, hb)
    assert np.max(np.abs(enc.rod_scheme().moment_fn() - ref)) <= 1e-15


# ---------------------------------------------------------------------------
# Decoder and direct samplers against the distance decode and rejection
# ---------------------------------------------------------------------------

MATCHED_SCHEMES = [
    lambda: enc.tight_matched_scheme(boct_equivariance(), 1),
    lambda: enc.perfect_matched_scheme(btet_equivariance(), 0),
    lambda: enc.tight_matched_scheme(u1_equivariance(), 1),
]


@pytest.mark.parametrize("make", MATCHED_SCHEMES)
def test_decoder_matches_nearest_element_search(make):
    scheme = make()
    sub = scheme.subgroup
    # The coset label of h: sigma(b, l c_i) = sigma(b, c_i) = i for the
    # orbit base b and l in its stabilizer.
    labels = scheme.eq.sigma[min(scheme.indices)]
    rng = np.random.default_rng(6)
    q = groups.haar_batch(sub.ambient, rng, 100_000)
    cases = [(x, groups.canonical_sign(x))
             for x in (q, -q, sub.payloads, -sub.payloads)]
    for x, ref in cases:
        idx, _ = nearest_indices(ref, sub, sign_insensitive=True)
        assert np.array_equal(scheme.decode_fn(x), labels[idx])
    assert np.array_equal(scheme.decode_fn(sub.payloads), labels)


@pytest.mark.parametrize("make", MATCHED_SCHEMES,
                         ids=["boct-tight", "btet-perfect", "z8-tight"])
def test_blocked_decode_matches_one_shot_decode(make):
    scheme = make()
    sub = scheme.subgroup
    block = enc._DECODE_BLOCK
    rng = np.random.default_rng(11)
    q = groups.haar_batch(sub.ambient, rng, 3 * block + 17)
    q[:sub.order] = sub.payloads      # exact cell centres among the rows
    for x in (q[:0], q[5], q[:block], q[:block + 1], q, -q):
        got = scheme.decode_fn(x)
        ref = one_shot_decode(scheme, x)
        assert np.shape(got) == np.shape(ref) == x.shape[:-1]
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)


def _lattice_readings(dim):
    """The nonzero readings of {-3, ..., 3}^dim / 4, which include exact
    ties between elements of different labels."""
    grid = np.array(list(itertools.product(range(-3, 4), repeat=dim))) / 4
    return grid[np.any(grid != 0, axis=1)]


@pytest.mark.parametrize("make", MATCHED_SCHEMES,
                         ids=["boct-tight", "btet-perfect", "z8-tight"])
def test_decode_ties_follow_the_lowest_index_rule(make):
    scheme = make()
    sub = scheme.subgroup
    x = _lattice_readings(4)
    lifts = groups.first_lifts(sub.payloads)
    labels = scheme.eq.sigma[min(scheme.indices)][lifts]
    scores = np.abs(x @ sub.payloads[lifts].T)
    tied = np.array([len(set(labels[row == row.max()])) > 1
                     for row in scores])
    assert np.count_nonzero(tied) >= 40
    assert np.array_equal(scheme.decode_fn(x), one_shot_decode(scheme, x))
    for reading in x[tied]:
        assert scheme.decode_fn(reading) == one_shot_decode(scheme, reading)


def test_rod_decode_ties_follow_the_lowest_index_rule():
    decode_fn = enc.rod_scheme().decode_fn
    x = np.concatenate([_lattice_readings(3), [[0.5, -0.5, 0.25],
                                               [0.25, -0.5, 0.5],
                                               [-0.5, 0.5, 0.5]]])
    got = decode_fn(x)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.argmax(np.abs(x), axis=-1) + 1)
    assert decode_fn(np.array([0.5, -0.5, 0.25])) == 1
    assert decode_fn(x.reshape(-1, 1, 3)).shape == (len(x), 1)


def rejection_sample(scheme, i, rng, n):
    """Reference sampler: uniform readings conditioned on decoding to i."""
    out, got = [], 0
    while got < n:
        cand = uniform_readings(scheme, rng, 4 * n)
        keep = cand[scheme.decode_fn(cand) == i]
        out.append(keep)
        got += len(keep)
    return np.concatenate(out)[:n]


def voronoi_cells(scheme, x):
    """Cell of each reading inside its region: the nearest subgroup rotation
    (matched schemes), or the sign of the dominant coordinate and which other
    coordinate is larger (rod scheme: four equal parts of a face pair)."""
    if is_rod(scheme):
        order = np.argsort(np.abs(x), axis=1)
        dominant = order[:, 2]
        sign = x[np.arange(len(x)), dominant] > 0
        return 2 * sign + (order[:, 1] > order[:, 0])
    sub = scheme.subgroup
    idx, _ = nearest_indices(x, sub, sign_insensitive=True)
    # +-h are one rotation: name each cell by its canonical lift.
    lifts = groups.canonical_sign(sub.payloads)
    return np.unique(np.round(lifts, 9), axis=0,
                     return_inverse=True)[1].ravel()[idx]


SAMPLER_CASES = [
    ("boct", lambda: enc.tight_matched_scheme(boct_equivariance(), 1), 8),
    ("u1", lambda: enc.tight_matched_scheme(u1_equivariance(), 1), 2),
    ("rod", enc.rod_scheme, 4),
]


@pytest.mark.parametrize("name,make,n_cells", SAMPLER_CASES,
                         ids=[c[0] for c in SAMPLER_CASES])
def test_direct_sampler_is_uniform_on_region(name, make, n_cells):
    scheme = make()
    n = 20_000
    for i in scheme.indices:
        x = scheme.sample_fn(i, np.random.default_rng(10 + i), n)
        assert np.all(scheme.decode_fn(x) == i)
        counts = np.unique(voronoi_cells(scheme, x), return_counts=True)[1]
        assert len(counts) == n_cells
        assert stats.chisquare(counts).pvalue > 1e-3
        ref = rejection_sample(scheme, i, np.random.default_rng(20 + i), n)
        for k in range(1 if x.ndim == 1 else x.shape[1]):
            a = x if x.ndim == 1 else x[:, k]
            b = ref if ref.ndim == 1 else ref[:, k]
            assert stats.ks_2samp(a, b).pvalue > 1e-3, (i, k)


# ---------------------------------------------------------------------------
# Compatibility
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maker", [
    lambda: (enc.tight_matched_scheme(u1_equivariance(), 1), "u1"),
    lambda: (enc.perfect_matched_scheme(u1_equivariance(), 1), "u1"),
    lambda: (enc.tight_matched_scheme(boct_equivariance(), 1), "su2"),
    lambda: (enc.rod_scheme(), "su2"),
    lambda: (enc.perfect_matched_scheme(btet_equivariance(), 0), "su2"),
])
def test_compatibility(maker):
    scheme, _ = maker()
    (ok, report), (finite_ok, finite_report) = enc.check_scheme(scheme)
    assert ok, report
    assert finite_ok, finite_report
    cases = {"cases": scheme.subgroup.order * len(scheme.indices)}
    assert report == finite_report == cases


@pytest.mark.parametrize("name", cli.ENCODED_SCHEMES)
def test_cell_centres_cover_the_orbit(name):
    # points[i] lists the centres of the cells of E_i, as many for every
    # orbit index, and each centre decodes to its own index.  A matched
    # tight scheme shares its centres with the perfect scheme on its data;
    # the rod's centre of E_a is the axis e_{a-1}.
    scheme = cli.builtin_scheme(name).scheme
    assert sorted(scheme.points) == sorted(scheme.indices)
    assert len({len(p) for p in scheme.points.values()}) == 1
    for i, centres in scheme.points.items():
        assert np.all(enc.decode_batch(scheme, centres) == i)
    if is_rod(scheme):
        assert all(np.array_equal(scheme.points[a], [np.eye(3)[a - 1]])
                   for a in scheme.indices)
    elif scheme.kind == "tight":
        perfect = enc.perfect_matched_scheme(scheme.eq, scheme.indices[0])
        assert all(np.array_equal(perfect.points[i], scheme.points[i])
                   for i in scheme.indices)


def _scrambled_scheme(good, where=lambda x, decoded: True):
    """good with its decoded indices cycled along its orbit where
    where(readings, decoded) holds (everywhere by default), on readings
    taken as rows."""
    cycle = np.arange(max(good.indices) + 1)
    cycle[list(good.indices)] = good.indices[1:] + good.indices[:1]

    def bad_decode(x):
        rows = x.reshape(-1, x.shape[-1])
        decoded = good.decode_fn(rows)
        return np.where(where(rows, decoded), cycle[decoded],
                        decoded).reshape(x.shape[:-1])

    return enc.EncodingScheme(good.eq, good.indices, good.kind, good.act_fn,
                              bad_decode, good.sample_fn, points=good.points)


def _scrambled_boct_scheme(where=lambda x, decoded: True):
    """The BOct tight matched scheme, scrambled by _scrambled_scheme."""
    eq = boct_equivariance()
    return _scrambled_scheme(enc.tight_matched_scheme(eq, 1), where), eq


def _assert_real_counterexample(bad, report):
    # The counterexample is a cell centre of E_i; its transported reading
    # decodes to `got`, and `expected` is sigma(i, h^-1).
    eq = bad.eq
    assert np.any(np.all(bad.points[report["i"]] == report["x"], axis=1))
    received = bad.act_fn(eq.subgroup.payloads[report["h"]],
                          np.asarray(report["x"]))
    assert decode(bad, received) == report["got"] != report["expected"]
    assert report["expected"] == eq.sigma_inv(report["h"], report["i"])


@pytest.mark.parametrize("name", cli.ENCODED_SCHEMES)
def test_scrambled_decoder_fails_both_checks(name):
    bad = _scrambled_scheme(cli.builtin_scheme(name).scheme)
    (ok, report), (finite_ok, finite_report) = enc.check_scheme(bad)
    assert not ok and not finite_ok
    _assert_real_counterexample(bad, report)
    assert 0 <= finite_report["h"] < bad.subgroup.order
    assert finite_report["i"] in bad.indices


def test_compatibility_detects_scrambled_decoder():
    # Decoders wrong on some readings only: those decoded to 3 with
    # x_1 > 0.5, or those at the first cell centre c of E_2.  Each report is
    # the first counterexample in the order of i, then h, then the centres
    # of E_i.
    c = enc.tight_matched_scheme(boct_equivariance(), 1).points[2][0]
    for where in (lambda x, d: (d == 3) & (x[:, 1] > 0.5),
                  lambda x, d: np.abs(x @ c) > 1 - 1e-9):
        bad, eq = _scrambled_boct_scheme(where)
        (ok, report), _ = enc.check_scheme(bad)
        assert not ok
        _assert_real_counterexample(bad, report)
        for i, h in itertools.product(bad.indices, range(eq.subgroup.order)):
            got = enc.decode_batch(bad, bad.act_fn(eq.subgroup.payloads[h],
                                                   bad.points[i]))
            wrong = np.flatnonzero(got != eq.sigma_inv(h, i))
            if wrong.size:
                break
        assert (report["i"], report["h"]) == (i, h)
        assert report["x"] == bad.points[i][wrong[0]].tolist()


def test_finite_group_check_detects_scrambled_decoder():
    bad, eq = _scrambled_boct_scheme()
    _, (ok, report) = enc.check_scheme(bad)
    assert not ok
    assert 0 <= report["h"] < eq.subgroup.order and report["i"] in bad.indices
    assert report["j"] in bad.indices and report["overlap"] < 1.0 - 1e-9
    # Cycling some readings of a case makes its decode ambiguous.
    bad, eq = _scrambled_boct_scheme(lambda x, d: x[:, 1] > 0.5)
    _, (ok, report) = enc.check_scheme(bad)
    assert not ok and report["reason"] == "ambiguous decode"
    assert 0 <= report["h"] < eq.subgroup.order and report["i"] in bad.indices
