"""Reference-frame transformation groups.

Quaternion algebra, Haar sampling, finite subgroups with multiplication
tables, and the fourth moments T4 = E[q (x) q (x) q (x) q] that fix every
exact channel integral: Haar on SU(2) and on the circle, and for a tight
region weighted right translates of a cell moment (Delsarte, Goethals and
Seidel, Geom. Dedicata 6 (1977)) and the pair moment of y-bar x.

Conventions
-----------
Every group element is a unit quaternion q = (w, x, y, z): one payload type
for both frame groups.  It maps to the special unitary
U(q) = w I - i (x X + y Y + z Z), so the rotation by angle a about unit axis n
is (cos(a/2), sin(a/2) n).  Arrays of quaternions are float64 (..., 4); the
algebra works on their complex-pair view (..., 2) complex128, q = z1 + z2 j
with z1 = w + x i and z2 = y + z i, where a product is four complex
multiplies (Cayley-Dickson).  Products are exact to a few ulp of |a||b|, but
their rounding differs from that of the 16-term component formula.

Group tags: "u1" (the z-axis circle u1_quat(theta) inside SU(2)), "su2"
(unit quaternions), "so3" (quaternions up to sign, canonicalized so the
first nonzero component is positive), and the names of the finite subgroups
below.

The physical U(1) representation on the polarisation qubit is
rho(theta) = diag(1, exp(-2i theta)) = exp(-i theta) U(u1_quat(theta)) with
u1_quat(theta) = (cos theta, 0, 0, -sin theta).  The phase cancels in every
conjugation rho(g)+ M rho(g), the only use the package makes of rho, so the
matrix of any element is su2_matrix(q).  The kernel {0, pi} of the action
on polarisation axes is the sign pair +-1, as on SU(2).

Every qubit unitary is a phase times U(q) for a unit quaternion q, unique up
to sign.

Finite subgroups are built with array operations: the quaternion groups by
a layer-by-layer closure of their generators (each layer renormalised, so
BOct's elements are within 5e-16 of their exact values 0, +-1/2, +-1/sqrt 2,
+-1), and every multiplication table by matching all n^2 products at once.
Each table entry is within 1e-14 of the product it names.
"""
from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "FiniteSubgroup",
    "HaarStream",
    "quat_mul",
    "quat_conj",
    "quat_rotate",
    "axis_angle_quat",
    "su2_matrix",
    "u1_quat",
    "z4_reduced",
    "z8_physical",
    "binary_octahedral",
    "binary_tetrahedral",
    "tetrahedral",
    "haar_batch",
    "haar_fourth_moment",
    "circle_fourth_moment",
    "cell_fourth_moment",
    "translated_fourth_moment",
    "pair_fourth_moment",
]

# Vertices of the reference regular tetrahedron (v0 along z).
TET_VERTICES = np.array([
    [0.0, 0.0, 1.0],
    [np.sqrt(8.0) / 3.0, 0.0, -1.0 / 3.0],
    [-np.sqrt(2.0) / 3.0, np.sqrt(6.0) / 3.0, -1.0 / 3.0],
    [-np.sqrt(2.0) / 3.0, -np.sqrt(6.0) / 3.0, -1.0 / 3.0],
])


# ---------------------------------------------------------------------------
# Quaternion algebra (vectorized over leading axes)
# ---------------------------------------------------------------------------

def _pairs(q) -> np.ndarray:
    """Complex-pair view (..., 2) of quaternions (..., 4)."""
    return np.ascontiguousarray(q, dtype=np.float64).view(np.complex128)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions (..., 4), in the Cayley-Dickson form
    (a1 + a2 j)(b1 + b2 j) = (a1 b1 - a2 conj(b2)) + (a1 b2 + a2 conj(b1)) j
    on the complex pairs."""
    a, b = _pairs(a), _pairs(b)
    a1, a2, b1, b2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.complex128)
    o1, o2 = out[..., 0], out[..., 1]
    np.multiply(a1, b1, out=o1)
    o1 -= a2 * b2.conj()
    np.multiply(a1, b2, out=o2)
    o2 += a2 * b1.conj()
    return out.view(np.float64)


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Conjugate (conj(z1), -z2), the inverse of a unit quaternion."""
    z = _pairs(q)
    out = np.empty_like(z)
    np.conjugate(z[..., 0], out=out[..., 0])
    np.negative(z[..., 1], out=out[..., 1])
    return out.view(np.float64)


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cross product of 3-vectors (..., 3) written into out, one component
    at a time in the operation order of np.cross."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    tmp = np.empty(out.shape[:-1])
    for k, (p, q, r, s) in enumerate(((a1, b2, a2, b1), (a2, b0, a0, b2),
                                      (a0, b1, a1, b0))):
        np.multiply(p, q, out=out[..., k])
        np.multiply(r, s, out=tmp)
        out[..., k] -= tmp
    return out


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the rotation of quaternion(s) q (..., 4) to vector(s) v (..., 3)."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u = q[..., 1:]
    shape = np.broadcast_shapes(q.shape[:-1], v.shape[:-1]) + (3,)
    # Rodrigues form of conjugation by a unit quaternion,
    # v + 2 w (u x v) + 2 u x (u x v), summed in that order.
    cross = _cross(u, v, np.empty(shape))
    out = _cross(u, cross, np.empty(shape))
    out *= 2.0
    cross *= 2.0 * q[..., :1]
    cross += v
    out += cross
    return out


def axis_angle_quat(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def canonical_sign(q: np.ndarray) -> np.ndarray:
    """Flip quaternion signs so the first component larger than 1e-9 in
    absolute value is positive (antipodal representative for SO(3))."""
    q = np.asarray(q, dtype=np.float64)
    flat = q.reshape(-1, 4)
    w = flat[:, 0]
    first = np.sign(w)
    # Only rows whose w is not the leading component need the search; they
    # include finite-group payloads with w = 0.
    rest = np.flatnonzero(~(np.abs(w) > 1e-9))
    rows = flat[rest]
    lead = rows[np.arange(len(rows)), np.argmax(np.abs(rows) > 1e-9, axis=1)]
    # An all-zero row has no leading component; it maps to zero.
    first[rest] = np.where(np.abs(lead) > 1e-9, np.sign(lead), 0.0)
    out = flat * first[:, None]
    return out.reshape(q.shape)


def su2_matrix(q: np.ndarray) -> np.ndarray:
    """2x2 special unitary of quaternion(s) (..., 4) -> (..., 2, 2)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = np.moveaxis(q, -1, 0)
    mat = np.empty(q.shape[:-1] + (2, 2), dtype=np.complex128)
    mat[..., 0, 0] = w - 1j * z
    mat[..., 0, 1] = -y - 1j * x
    mat[..., 1, 0] = y - 1j * x
    mat[..., 1, 1] = w + 1j * z
    return mat


def u1_quat(theta) -> np.ndarray:
    """Quaternion(s) (..., 4) of the polarisation rotation(s) by theta: the
    z-axis circle, with diag(1, exp(-2i theta)) = exp(-i theta) U(q)."""
    theta = np.asarray(theta, dtype=np.float64)
    q = np.zeros(theta.shape + (4,))
    np.cos(theta, out=q[..., 0])
    np.negative(np.sin(theta, out=q[..., 3]), out=q[..., 3])
    return q


# ---------------------------------------------------------------------------
# Finite subgroups
# ---------------------------------------------------------------------------

class FiniteSubgroup(NamedTuple):
    """A finite subgroup of an ambient group, with exact index tables.

    Elements are ordered lexicographically by payload to make tie-breaking
    deterministic.
    """

    name: str
    ambient: str                    # group tag; on "so3" elements are up to sign
    payloads: np.ndarray            # (n, 4) unit quaternions
    table: np.ndarray               # (n, n) index multiplication table
    inverse: np.ndarray             # (n,) index inverse table
    identity: int

    @property
    def order(self) -> int:
        return len(self.payloads)

    def check_axioms(self) -> None:
        """Exact group-axiom checks on the index tables."""
        n = self.order
        t = self.table
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise ValueError("multiplication table is not closed")
        if not (np.all(t[self.identity] == np.arange(n))
                and np.all(t[:, self.identity] == np.arange(n))):
            raise ValueError("identity axiom fails")
        bad = t[np.arange(n), self.inverse] != self.identity
        if bad.any():
            raise ValueError(f"inverse axiom fails at {int(np.argmax(bad))}")
        # (i j) k = i (j k): t[t][i, j, k] = t[t[i, j], k] and
        # t[:, t][i, j, k] = t[i, t[j, k]].
        bad = np.any(t[t] != t[:, t], axis=(1, 2))
        if bad.any():
            raise ValueError(f"associativity fails at {int(np.argmax(bad))}")


def _match_indices(payloads: np.ndarray, items, ambient: str) -> np.ndarray:
    """Index of each quaternion item in the element list (up to sign on
    SO(3)), -1 where no element lies within 1e-9."""
    dots = np.reshape(items, (-1, 4)) @ payloads.T
    if ambient == "so3":
        dots = np.abs(dots)
    idx = np.argmax(dots, axis=1)
    found = dots[np.arange(len(idx)), idx] >= 1.0 - 1e-9
    return np.where(found, idx, -1)


def first_lifts(quats: np.ndarray) -> np.ndarray:
    """Mask of the first quaternion of each +-pair (or repeat) in a list:
    row k is kept when no earlier row has |dot| > 1 - 1e-9 with it."""
    near = np.abs(quats @ quats.T) > 1.0 - 1e-9
    return np.argmax(near, axis=1) == np.arange(len(quats))


def _build_subgroup(name: str, ambient: str, payloads) -> FiniteSubgroup:
    payloads = np.asarray(payloads, dtype=np.float64)
    order = np.lexsort(np.round(payloads.T, 12)[::-1])
    payloads = payloads[order]
    n = len(payloads)
    # All n^2 products at once; on SO(3) the |dot| match makes the sign of
    # a product irrelevant.
    products = quat_mul(payloads[:, None], payloads[None, :])
    unit = np.array([1.0, 0, 0, 0])
    table = _match_indices(payloads, products, ambient).reshape(n, n)
    if np.any(table < 0):
        i, j = np.argwhere(table < 0)[0]
        raise ValueError(f"{name}: product of {i},{j} not in element list")
    identity = int(_match_indices(payloads, unit, ambient)[0])
    inverse = np.argmax(table == identity, axis=1)
    sub = FiniteSubgroup(name, ambient, payloads, table, inverse, identity)
    sub.check_axioms()
    return sub


def _closure(generators: list[np.ndarray]) -> np.ndarray:
    """Close a set of unit quaternions under multiplication (sign-sensitive):
    each layer is the previous one times every generator, renormalised, less
    repeats; the closure is done when a layer adds nothing."""
    gens = np.asarray(generators, dtype=np.float64)
    elements = layer = np.array([[1.0, 0, 0, 0]])
    while True:
        cand = quat_mul(layer[:, None], gens[None, :]).reshape(-1, 4)
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cand = cand[~np.any(cand @ elements.T > 1.0 - 1e-9, axis=1)]
        if not len(cand):
            return elements
        near = cand @ cand.T > 1.0 - 1e-9
        layer = cand[np.argmax(near, axis=1) == np.arange(len(cand))]
        elements = np.concatenate([elements, layer])


@functools.cache
def z8_physical() -> FiniteSubgroup:
    return _build_subgroup("z8", "u1", u1_quat(np.arange(8) * np.pi / 4))


@functools.cache
def z4_reduced() -> FiniteSubgroup:
    """Z8 modulo the kernel +-1 of its action on polarisation axes."""
    quats = canonical_sign(z8_physical().payloads)
    unique = quats[first_lifts(quats)]
    assert len(unique) == 4
    return _build_subgroup("z4", "so3", unique)


@functools.cache
def binary_octahedral() -> FiniteSubgroup:
    gens = [axis_angle_quat([0, 0, 1], np.pi / 2),
            axis_angle_quat([1, 0, 0], np.pi / 2)]
    elements = _closure(gens)
    assert len(elements) == 48
    return _build_subgroup("boct", "su2", elements)


@functools.cache
def binary_tetrahedral() -> FiniteSubgroup:
    gens = [axis_angle_quat(TET_VERTICES[0], 2 * np.pi / 3),
            axis_angle_quat(TET_VERTICES[1], 2 * np.pi / 3)]
    elements = _closure(gens)
    assert len(elements) == 24
    return _build_subgroup("btet", "su2", elements)


@functools.cache
def tetrahedral() -> FiniteSubgroup:
    quats = canonical_sign(binary_tetrahedral().payloads)
    unique = quats[first_lifts(quats)]
    assert len(unique) == 12
    return _build_subgroup("tet", "so3", unique)


SUBGROUPS = {
    "z4": z4_reduced,
    "z8": z8_physical,
    "boct": binary_octahedral,
    "btet": binary_tetrahedral,
    "tet": tetrahedral,
}


def subgroup_by_name(name: str) -> FiniteSubgroup:
    try:
        return SUBGROUPS[name]()
    except KeyError:
        raise KeyError(f"unknown subgroup {name!r}; available: {sorted(SUBGROUPS)}")


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

class HaarStream(NamedTuple):
    """Counter-based random stream: identical (seed, counter) always yields
    identical draws.  advance(n) moves the counter n steps on.  The pair
    keys SFC64 by SeedSequence(seed, spawn_key=(counter,)), injective where
    an entropy list is not ([0, 1] and [2**32, 0] give one stream)."""

    seed: int
    counter: int = 0

    def generator(self) -> Generator:
        # numpy.random is imported on the first draw, so that a command
        # that draws nothing never loads it.
        from numpy.random import SFC64, Generator, SeedSequence
        return Generator(SFC64(SeedSequence(self.seed,
                                            spawn_key=(self.counter,))))

    def advance(self, n: int = 1) -> HaarStream:
        return self._replace(counter=self.counter + n)


def sample_su2(rng: Generator, n: int) -> np.ndarray:
    """n Haar-uniform unit quaternions: normalized standard-normal 4-vectors,
    which are exactly uniform on S^3 (Muller 1959; Marsaglia 1972)."""
    v = rng.standard_normal((n, 4))
    return v / np.sqrt(np.einsum("ni,ni->n", v, v))[:, None]


def haar_batch(group: str, rng: Generator, n: int) -> np.ndarray:
    """n i.i.d. Haar quaternions (n, 4) of a group drawn from rng."""
    if group == "u1":
        return u1_quat(rng.random(n) * 2 * np.pi)
    if group in ("su2", "so3"):
        q = sample_su2(rng, n)
        return canonical_sign(q) if group == "so3" else q
    raise ValueError(f"no Haar sampler for group {group!r}")


# ---------------------------------------------------------------------------
# Fourth moments
# ---------------------------------------------------------------------------

@functools.cache
def haar_fourth_moment(group: str) -> np.ndarray:
    """Fourth moment E[q (x) q (x) q (x) q] (4, 4, 4, 4) of Haar quaternions:
    the isotropic (d_ab d_cd + d_ac d_bd + d_ad d_bc)/24 on "su2", and
    circle_fourth_moment(0, 0) on "u1".  Computed once per group
    (read-only)."""
    if group == "u1":
        t4 = circle_fourth_moment(0.0, 0.0)
    elif group == "su2":
        d = np.eye(4)
        t4 = (np.einsum("ab,cd->abcd", d, d) + np.einsum("ac,bd->abcd", d, d)
              + np.einsum("ad,bc->abcd", d, d)) / 24
    else:
        raise ValueError(f"no Haar fourth moment for group {group!r}")
    t4.flags.writeable = False
    return t4


def circle_fourth_moment(c2: float, c4: float) -> np.ndarray:
    """Fourth moment (4, 4, 4, 4) of u1_quat(t) for an angle t distributed
    symmetrically about 0 with E cos 2t = c2 and E cos 4t = c4 (Haar at
    c2 = c4 = 0).  Its entries lie on the indices {0, 3} and depend on the
    number n of 3s: E cos^4 t = (3 + 4 c2 + c4)/8 at n = 0,
    E cos^2 t sin^2 t = (1 - c4)/8 at n = 2, E sin^4 t = (3 - 4 c2 + c4)/8
    at n = 4, and 0 at odd n."""
    by_count = np.array([3 + 4 * c2 + c4, 0, 1 - c4, 0, 3 - 4 * c2 + c4]) / 8
    t4 = np.zeros((4, 4, 4, 4))
    t4[np.ix_(*[[0, 3]] * 4)] = by_count[np.indices((2,) * 4).sum(axis=0)]
    return t4


# E x0^4, E x0^2 x1^2, E x1^4, E x1^2 x2^2 on BOct's identity cell, the
# truncated cube {|r_i| <= sqrt 2 - 1, |r|_1 <= 1} of r = (x1, x2, x3)/x0
# (Rodrigues; Frank, Metall. Trans. A 19 (1988)), density (1 + |r|^2)^-2.
_BOCT_CELL_MOMENTS = (0.7627764981003, 0.0361778412010, 0.00341080568075,
                      0.00165400627524)


def cell_fourth_moment(sub: FiniteSubgroup) -> np.ndarray:
    """Fourth moment of a uniform element of the identity's Voronoi cell in
    a finite subgroup: for a circle subgroup of order n the arc of
    half-width pi/n; for BOct the four _BOCT_CELL_MOMENTS, placed by the
    cell's signed-permutation symmetry (0 where an index count is odd)."""
    if sub.ambient == "u1":
        return circle_fourth_moment(np.sinc(2 / sub.order),
                                    np.sinc(4 / sub.order))
    if sub.name != "boct":
        raise ValueError(f"no cell fourth moment for subgroup {sub.name!r}")
    n = np.stack([np.sum(np.indices((4,) * 4) == k, axis=0) for k in range(4)])
    value = np.select([n[0] == 4, n[0] == 2, n.max(axis=0) == 4],
                      _BOCT_CELL_MOMENTS[:3], _BOCT_CELL_MOMENTS[3])
    return np.where(np.all(n % 2 == 0, axis=0), value, 0.0)


def translated_fourth_moment(t4: np.ndarray, q: np.ndarray, w: np.ndarray
                             ) -> np.ndarray:
    """Fourth moment of the mix, with weights w (n,), of the right translates
    x q_k of an x with fourth moment t4: sum_k w_k (R_k (x) R_k)^T T
    (R_k (x) R_k), T the (16, 16) view of t4, R_k the matrix of x -> x q_k."""
    r = quat_mul(np.eye(4), q[:, None])                  # row i: e_i q_k
    rr = np.einsum("nij,nkl->nikjl", r, r).reshape(-1, 16, 16)
    t = np.swapaxes(rr, 1, 2) @ t4.reshape(16, 16) @ rr
    return np.tensordot(w, t, axes=1).reshape((4,) * 4)


# Column (i, k, j, l) picks the entry (a, b) of g (x) g, g = y-bar x, that
# y_i y_k x_j x_l adds to, with sign: e_i-bar e_j is +-e_a for one a.
_PAIR = quat_mul(quat_conj(np.eye(4))[:, None], np.eye(4))      # [i, j, a]
_PAIR_SELECTION = np.einsum("ija,klb->abikjl", _PAIR, _PAIR).reshape(16, 256)


def pair_fourth_moment(t4: np.ndarray) -> np.ndarray:
    """Fourth moment of g = y-bar x for x, y independent with fourth moment
    t4: a signed selection of kron(T, T), T the (16, 16) view of t4."""
    t = t4.reshape(16, 16)
    return (_PAIR_SELECTION @ np.kron(t, t)
            @ _PAIR_SELECTION.T).reshape((4,) * 4)
