"""Group-layer tests: quaternions, finite subgroups, Haar streams, fourth
moments, nearest-element search."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from frameport import groups
from frameport.groups import (
    HaarStream, axis_angle_quat, binary_octahedral, binary_tetrahedral,
    canonical_sign, quat_conj, quat_mul, quat_rotate,
    sample_su2, su2_matrix, subgroup_by_name, tetrahedral, u1_quat,
    z4_reduced, z8_physical,
)

from qmat_reference import child_stream, component_quat_conj, \
    component_quat_mul, cross_quat_rotate, haar_payloads, nearest_indices

RNG = np.random.default_rng(7)


def random_quat(rng=RNG, n=None):
    v = rng.normal(size=(4,) if n is None else (n, 4))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Quaternions and matrices
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_su2_matrix_is_a_homomorphism(seed):
    rng = np.random.default_rng(seed)
    a, b = random_quat(rng), random_quat(rng)
    assert np.allclose(su2_matrix(quat_mul(a, b)),
                       su2_matrix(a) @ su2_matrix(b), atol=1e-12)


def _product_cases(rng):
    """(a, b) pairs of every input layout quat_mul accepts."""
    a, b = rng.normal(size=(2, 257, 4)) * rng.uniform(0.1, 10, (2, 257, 1))
    wide = rng.normal(size=(257, 9))
    yield a, b                                         # contiguous (n, 4)
    yield wide[:, 1:5], wide[:, 5:9]                   # column slices
    yield rng.normal(size=(4, 257)).T, b[::-1]         # transposed, reversed
    yield a[3], b                                      # (4,) x (n, 4)
    yield a[:31, None], b[None, :17]                   # (n,1,4) x (1,m,4)
    yield a[0], b[0]                                   # (4,) x (4,)
    yield [1, 2, 3, 4], np.arange(8).reshape(2, 4)     # list, integers


def test_quat_mul_matches_component_formula():
    """The complex-pair product equals the component formula to a few ulp
    of |a||b|, in every input layout, and leaves its inputs untouched."""
    for a, b in _product_cases(np.random.default_rng(11)):
        before = [np.array(x, copy=True) for x in (a, b)]
        got = quat_mul(a, b)
        want = component_quat_mul(a, b)
        assert got.dtype == np.float64 and got.shape == want.shape
        scale = (np.linalg.norm(np.asarray(a, float), axis=-1)
                 * np.linalg.norm(np.asarray(b, float), axis=-1))
        assert np.all(np.abs(got - want) <= 1e-15 * scale[..., None])
        for x in (a, b):
            assert np.array_equal(component_quat_conj(x), quat_conj(x))
        for x, old in zip((a, b), before):
            assert np.array_equal(np.asarray(x), old)


def test_quat_mul_composes_su2_matrices_to_rounding():
    a, b = random_quat(n=1000), random_quat(n=1000)
    assert np.max(np.abs(su2_matrix(quat_mul(a, b))
                         - su2_matrix(a) @ su2_matrix(b))) < 1e-15


def test_quat_conj_is_inverse():
    q = random_quat()
    assert np.allclose(quat_mul(q, quat_conj(q)), [1, 0, 0, 0], atol=1e-12)


def test_quat_rotate_matches_matrix_conjugation():
    n = 50
    qs, vs = random_quat(n=n), RNG.normal(size=(n, 3))
    u = su2_matrix(qs)
    paulis = np.stack([np.array([[0, 1], [1, 0]]),
                       np.array([[0, -1j], [1j, 0]]),
                       np.array([[1, 0], [0, -1]])]).astype(np.complex128)
    m = np.einsum("ni,iab->nab", vs, paulis)
    rotated = quat_rotate(qs, vs)
    m2 = np.einsum("ni,iab->nab", rotated, paulis)
    assert np.allclose(u @ m @ np.swapaxes(u.conj(), 1, 2), m2, atol=1e-12)
    # Single, batched, broadcast and list inputs round exactly as the
    # np.cross form does.
    for q, v in [(qs[0], vs[0]), (qs, vs), (qs[0], vs), (qs, vs[0]),
                 (qs[:, None], vs[None, :5]),
                 (qs[0].tolist(), vs[:3].tolist()), ([1, 0, 0, 0], [1, 2, 3])]:
        got, ref = quat_rotate(q, v), cross_quat_rotate(q, v)
        assert got.shape == ref.shape and got.dtype == np.float64
        assert np.array_equal(got, ref)


def test_axis_angle_quat():
    q = axis_angle_quat([0, 0, 1], np.pi / 2)
    assert np.allclose(quat_rotate(q, [1, 0, 0]), [0, 1, 0], atol=1e-12)


def _canonical_sign_reference(q):
    out = np.zeros_like(q)
    for k, row in enumerate(q):
        lead = next((c for c in row if abs(c) > 1e-9), 0.0)
        if lead:
            out[k] = row * np.sign(lead)
    return out


def test_canonical_sign_fixes_antipodes():
    q = np.concatenate([random_quat(n=20), [
        [0.0, 0.0, -0.6, 0.8],          # zero leading components
        [1e-12, -0.6, 0.0, 0.8],        # a tiny leading component
        [-1e-10, 1e-12, 0.0, -1.0],
        [0.0, 0.0, 0.0, 0.0],           # all zero
        [1e-12, -1e-12, 0.0, 0.0],      # all tiny
    ]])
    assert np.allclose(canonical_sign(q), canonical_sign(-q))
    assert np.array_equal(canonical_sign(q), _canonical_sign_reference(q))
    assert np.array_equal(canonical_sign(q[3]), canonical_sign(q[3:4])[0])


def test_canonical_sign_is_vectorized_over_leading_axes():
    # A (2, 3, 4) stack, with rows whose w is 0 and all-zero rows, gives the
    # row-by-row result.
    q = np.random.default_rng(3).standard_normal((2, 3, 4))
    q[0, 1] = [0.0, 0.0, -0.6, 0.8]
    q[1, 0, 0] = 0.0
    q[1, 2] = 0.0
    rows = np.array([canonical_sign(row) for row in q.reshape(-1, 4)])
    assert np.array_equal(canonical_sign(q), rows.reshape(q.shape))
    assert np.array_equal(canonical_sign(q[1, 2]), np.zeros(4))


def test_u1_matrix_physical_rep():
    # The physical matrix is exp(-i theta) U(u1_quat(theta)).
    m = np.exp(-1j * np.pi / 3) * su2_matrix(u1_quat(np.pi / 3))
    assert np.allclose(m, np.diag([1.0, np.exp(-2j * np.pi / 3)]), atol=1e-12)


# ---------------------------------------------------------------------------
# Finite subgroups
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,order", [
    ("z4", 4), ("z8", 8), ("tet", 12), ("btet", 24), ("boct", 48)])
def test_subgroup_orders_and_axioms(name, order):
    sub = subgroup_by_name(name)
    assert sub.order == order
    sub.check_axioms()     # raises on failure
    # Every table entry names the product itself (up to sign on SO(3)).
    p = sub.payloads
    named = p[sub.table]
    prod = quat_mul(p[:, None], p[None, :])
    gap = np.abs(prod - named).max(axis=-1)
    if sub.ambient == "so3":
        gap = np.minimum(gap, np.abs(prod + named).max(axis=-1))
    assert gap.max() <= 1e-14
    assert np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0)) <= 1e-15


def test_boct_is_the_closed_form_group():
    # The 8 +-e_k, the 16 (+-1/2, +-1/2, +-1/2, +-1/2) and the 24
    # (+-1, +-1, 0, 0)/sqrt 2 permutations, in lexicographic order.
    exact = [s * e for e in np.eye(4) for s in (1.0, -1.0)]
    exact += [np.where(signs, -0.5, 0.5) for signs in np.ndindex(2, 2, 2, 2)]
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1.0, -1.0), repeat=2):
            v = np.zeros(4)
            v[i], v[j] = si / np.sqrt(2), sj / np.sqrt(2)
            exact.append(v)
    exact = np.array(exact)
    exact = exact[np.lexsort(exact.T[::-1])]
    assert len(exact) == 48
    assert np.max(np.abs(binary_octahedral().payloads - exact)) <= 1e-15


def test_build_subgroup_rejects_a_missing_element():
    with pytest.raises(ValueError, match="not in element list"):
        groups._build_subgroup("btet", "su2", binary_tetrahedral().payloads[1:])
    with pytest.raises(ValueError, match="not in element list"):
        groups._build_subgroup("z8", "u1", z8_physical().payloads[:-1])


def test_check_axioms_rejects_swapped_entries():
    # Two entries of one row, away from the identity and inverse entries,
    # so only associativity can catch the swap.
    sub = binary_tetrahedral()
    i = 0 if sub.identity else 1
    j, k = [h for h in range(sub.order)
            if sub.identity not in (h, sub.table[i, h])][:2]
    table = sub.table.copy()
    table[i, j], table[i, k] = table[i, k], table[i, j]
    with pytest.raises(ValueError, match="associativity fails at"):
        sub._replace(table=table).check_axioms()


def test_btet_preserves_tetrahedron():
    verts = groups.TET_VERTICES
    for q in binary_tetrahedral().payloads:
        rotated = quat_rotate(q, verts)
        for v in rotated:
            assert np.min(np.linalg.norm(verts - v, axis=1)) < 1e-9


def test_multiplication_table_closure_indices():
    sub = binary_octahedral()
    i, j = 5, 17
    k = sub.table[i, j]
    prod = quat_mul(sub.payloads[i], sub.payloads[j])
    assert min(np.linalg.norm(sub.payloads[k] - prod),
               np.linalg.norm(sub.payloads[k] + prod)) < 1e-9


# ---------------------------------------------------------------------------
# Haar sampling and quadrature
# ---------------------------------------------------------------------------

def test_haar_stream_is_deterministic():
    a = haar_payloads(HaarStream("su2", 3), 100)
    b = haar_payloads(HaarStream("su2", 3), 100)
    assert np.array_equal(a, b)


def test_haar_stream_advance_changes_draws():
    s = HaarStream("su2", 3)
    assert not np.array_equal(haar_payloads(s, 10), haar_payloads(s.advance(), 10))


def test_haar_stream_child_streams_differ():
    s = HaarStream("su2", 3)
    assert not np.array_equal(haar_payloads(child_stream(s, 0), 10),
                              haar_payloads(child_stream(s, 1), 10))
    # Each (seed, counter) pair keys its own stream.  The pair (0, 1) vs
    # (2^32, 0) tells a spawn-key key from an entropy-list key, under which
    # both pairs read as the words [0, 1].
    key_pairs = [((0, 1), (2 ** 32, 0)), ((3, 0), (3, 1 << 40)),
                 ((3, 0), (4, 0)), ((2 ** 64 - 2, 5), (2 ** 64 - 1, 5))]
    for a, b in key_pairs:
        assert np.array_equal(haar_payloads(HaarStream("su2", *a), 10),
                              haar_payloads(HaarStream("su2", *a), 10))
        assert not np.array_equal(haar_payloads(HaarStream("su2", *a), 10),
                                  haar_payloads(HaarStream("su2", *b), 10))


def test_sample_su2_moments():
    # Haar on SU(2): each quaternion component has mean 0, variance 1/4.
    q = sample_su2(np.random.default_rng(0), 200000)
    assert np.allclose(q.mean(axis=0), 0.0, atol=0.01)
    assert np.allclose((q ** 2).mean(axis=0), 0.25, atol=0.01)


def fourth_power_mean(q):
    """Mean of q (x) q (x) q (x) q over quaternions q (n, 4): the Gram
    matrix of the pair products q_a q_b."""
    pairs = (q[:, :, None] * q[:, None, :]).reshape(len(q), 16)
    return (pairs.T @ pairs).reshape(4, 4, 4, 4) / len(q)


HAAR_SOURCES = {
    "default_rng": np.random.default_rng,
    "stream": lambda seed: HaarStream("su2", seed).generator(),
}


def assert_fourth_moment_is(q, t4):
    """Every entry of the sample mean of q^(x4) lies within 5 standard
    errors of t4; an entry's variance is E[q_a^2 q_b^2 q_c^2 q_d^2] less
    its squared mean, and entries that vanish identically must be 0."""
    mean = fourth_power_mean(q)
    stderr = np.sqrt((fourth_power_mean(q * q) - mean ** 2) / len(q))
    assert np.all(np.abs(mean - t4) <= 5 * stderr), np.max(
        np.abs(mean - t4) / np.maximum(stderr, 1e-300))


@pytest.mark.parametrize("source", HAAR_SOURCES)
def test_sample_su2_fourth_moments_are_exact_haar(source):
    # Uniform on S^(d-1) with d = 4: E[q_i^4] = 3 / (d (d + 2)) = 1/8 for
    # every component.  The standard error of each mean is 3.1e-4.
    q = sample_su2(HAAR_SOURCES[source](1), 400000)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
    assert np.allclose((q ** 4).mean(axis=0), 1 / 8, atol=1.5e-3)
    assert_fourth_moment_is(q, groups.haar_fourth_moment("su2"))


@pytest.mark.parametrize("source", HAAR_SOURCES)
def test_haar_batch_u1_fourth_moments_are_exact_haar(source):
    q = groups.haar_batch("u1", HAAR_SOURCES[source](4), 400000)
    assert_fourth_moment_is(q, groups.haar_fourth_moment("u1"))


def test_sample_su2_trace_fourth_moment_is_catalan():
    # E |Tr U|^4 = C_2 = 2 over Haar SU(2); the standard error is 5e-3.
    q = sample_su2(np.random.default_rng(2), 400000)
    tr = np.trace(su2_matrix(q), axis1=-2, axis2=-1)
    assert (np.abs(tr) ** 4).mean() == pytest.approx(2.0, abs=0.025)


def test_su2_fourth_moment_is_the_btet_mean():
    # BTet is a spherical 5-design (Delsarte, Goethals & Seidel 1977), so
    # its element mean of q^(x4) is the Haar fourth moment.
    t4 = groups.haar_fourth_moment("su2")
    assert np.max(np.abs(t4 - fourth_power_mean(binary_tetrahedral().payloads))
                  ) <= 1e-15
    # E[q_0^4] = 3/24 and E[q_0^2 q_1^2] = 1/24 on S^3; |q| = 1.
    assert t4[0, 0, 0, 0] == 1 / 8 and t4[0, 0, 1, 1] == 1 / 24
    assert np.einsum("aabb->", t4) == pytest.approx(1.0, abs=1e-15)


def test_circle_fourth_moment_is_the_z8_mean():
    # Z8 integrates trigonometric polynomials of degree <= 7 in the angle of
    # u1_quat exactly, and q^(x4) has degree 4.
    t4 = groups.haar_fourth_moment("u1")
    assert np.max(np.abs(t4 - fourth_power_mean(z8_physical().payloads))
                  ) <= 1e-15
    with pytest.raises(ValueError):
        groups.haar_fourth_moment("so3")


def _rodrigues_cell_moments(n):
    """E x0^4, E x0^2 x1^2, E x1^4 and E x1^2 x2^2 on BOct's identity cell
    by n-point Gauss-Legendre rules nested in the Rodrigues coordinates
    r = (x1, x2, x3)/x0 of its positive octant {0 <= r_i <= t, sum r <= 1},
    t = sqrt 2 - 1, under the Haar density (1 + |r|^2)^-2.  Splitting at
    r1 = 1 - 2t and at r2 = 1 - t - r1 leaves three pieces, each with a
    smooth integrand."""
    t = np.sqrt(2.0) - 1
    nodes, weights = leggauss(n)

    def rule(lo, hi):
        lo, hi = np.broadcast_arrays(lo, hi)
        half = (hi - lo)[..., None] / 2
        return lo[..., None] + half * (nodes + 1), half * weights

    pieces = (  # r1 range, then r2's and r3's bounds
        (0, 1 - 2 * t, lambda r1: 0 * r1, lambda r1: t + 0 * r1,
         lambda r1, r2: t + 0 * r2),
        (1 - 2 * t, t, lambda r1: 0 * r1, lambda r1: 1 - t - r1,
         lambda r1, r2: t + 0 * r2),
        (1 - 2 * t, t, lambda r1: 1 - t - r1, lambda r1: t + 0 * r1,
         lambda r1, r2: 1 - r1 - r2))
    sums = np.zeros(5)
    for lo, hi, r2_lo, r2_hi, r3_hi in pieces:
        r1, w1 = rule(np.float64(lo), np.float64(hi))       # (n,)
        r2, w2 = rule(r2_lo(r1), r2_hi(r1))                 # (n, n)
        r3, w3 = rule(0 * r2, r3_hi(r1[:, None], r2))       # (n, n, n)
        r1, r2 = r1[:, None, None], r2[..., None]
        s = 1 + r1 ** 2 + r2 ** 2 + r3 ** 2
        w = w1[:, None, None] * w2[..., None] * w3 / s ** 2
        x0, x1, x2 = (1 / np.sqrt(s), r1 / np.sqrt(s), r2 / np.sqrt(s))
        sums += [np.sum(w * f) for f in (1, x0 ** 4, x0 ** 2 * x1 ** 2,
                                         x1 ** 4, x1 ** 2 * x2 ** 2)]
    return sums[1:] / sums[0]


def test_boct_cell_moments_by_nested_gauss_legendre():
    t4 = groups.cell_fourth_moment(binary_octahedral())
    filled = [t4[0, 0, 0, 0], t4[0, 0, 1, 1], t4[1, 1, 1, 1], t4[1, 1, 2, 2]]
    for n in (8, 12, 16):
        assert np.max(np.abs(_rodrigues_cell_moments(n) - filled)) <= 1e-13


def _transform(t4, c):
    """Fourth moment of x @ c for an x with fourth moment t4."""
    return np.einsum("abcd,ai,bj,ck,dl->ijkl", t4, c, c, c, c)


def test_boct_cell_fourth_moment_has_the_cell_symmetries():
    # Conjugation by an element h of BOct maps the identity's cell onto
    # itself (the metric is bi-invariant), and so does x -> x-bar.  Both
    # act by signed permutations, exact once the elements' rounding is
    # removed.
    sub = binary_octahedral()
    t4 = groups.cell_fourth_moment(sub)
    for h in sub.payloads:
        c = quat_mul(quat_mul(h, np.eye(4)), quat_conj(h))   # h e_i h-bar
        assert np.max(np.abs(c - np.round(c))) <= 1e-14
        assert np.array_equal(_transform(t4, np.round(c)), t4)
    assert np.array_equal(_transform(t4, np.diag([1.0, -1, -1, -1])), t4)
    assert np.einsum("aabb->", t4) == pytest.approx(1.0, abs=1e-13)


def test_circle_cell_fourth_moment_is_the_arc():
    # Z8's identity cell is the arc |t| <= pi/8 of u1_quat(t); a 20-node
    # Gauss-Legendre rule is exact for its degree-4 trigonometric moment.
    nodes, weights = leggauss(20)
    q = u1_quat(np.pi / 8 * nodes)
    ref = np.einsum("n,na,nb,nc,nd->abcd", weights / 2, q, q, q, q)
    t4 = groups.cell_fourth_moment(z8_physical())
    assert np.max(np.abs(t4 - ref)) <= 1e-15
    for sub in (binary_tetrahedral(), tetrahedral(), z4_reduced()):
        with pytest.raises(ValueError, match="no cell fourth moment"):
            groups.cell_fourth_moment(sub)


def test_translated_and_pair_moments_match_weighted_point_sets():
    # Point masses at p_i (weights v) translated by q_k (weights w) are the
    # points p_i q_k with weights v_i w_k; the pairs y-bar x of that set
    # carry the products of their weights.
    rng = np.random.default_rng(12)
    p, q = random_quat(rng, 3), random_quat(rng, 5)
    v, w = rng.random(3), rng.random(5)
    v, w = v / v.sum(), w / w.sum()
    point = groups.circle_fourth_moment(1.0, 1.0)        # mass at 1
    assert point[0, 0, 0, 0] == 1 and np.sum(np.abs(point)) == 1
    t4 = groups.translated_fourth_moment(
        groups.translated_fourth_moment(point, p, v), q, w)
    x = quat_mul(p[:, None], q[None]).reshape(-1, 4)
    xw = np.outer(v, w).ravel()
    assert np.max(np.abs(t4 - np.einsum("n,na,nb,nc,nd->abcd",
                                        xw, x, x, x, x))) <= 1e-15
    g = quat_mul(quat_conj(x)[:, None], x[None]).reshape(-1, 4)
    ref = np.einsum("n,na,nb,nc,nd->abcd", np.outer(xw, xw).ravel(),
                    g, g, g, g)
    assert np.max(np.abs(groups.pair_fourth_moment(t4) - ref)) <= 1e-15
    # y-bar x is Haar when x and y are.
    for group in ("u1", "su2"):
        haar = groups.haar_fourth_moment(group)
        assert np.max(np.abs(groups.pair_fourth_moment(haar) - haar)
                      ) <= 1e-15


# ---------------------------------------------------------------------------
# Nearest-element search
# ---------------------------------------------------------------------------

def test_nearest_indices_identity_cell():
    sub = binary_octahedral()
    idx, ties = nearest_indices(np.array([[1.0, 0, 0, 0]]), sub)
    assert np.allclose(sub.payloads[idx[0]], [1.0, 0, 0, 0], atol=1e-9)
    assert ties[0] == 0


def test_nearest_indices_tie_breaks_to_lowest_index():
    sub = z4_reduced()
    # Midpoint between elements 0 and 1 (as rotations) is equidistant.
    a, b = sub.payloads[:2]
    mid = (a + np.sign(a @ b) * b) / 2
    idx, _ = nearest_indices(np.array([mid]), sub)
    assert idx[0] == 0


def test_tetrahedral_is_boct_quotient_size():
    assert tetrahedral().order == binary_tetrahedral().order // 2
    assert z4_reduced().order == z8_physical().order // 2
