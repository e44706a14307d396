"""The scheme record: the conventional scheme, which sends no reading, and
encoding/decoding schemes with the action of the frame group on their
readings; the tight/perfect matched-scheme constructors; scheme checks.

Reading actions
---------------
Each encoded scheme carries act_fn(g, x), the action of frame quaternions g
on its readings x, vectorized over readings (and over g if its leading shape
matches x).  Its frame group is the ambient group of its subgroup.
- A matched scheme reads frame labels, canonical-signed unit quaternions.  A
  physical g sends the label f to f g^{-1} (a left action on labels, matching
  how two parties' frame labellings transform into each other); -1 acts
  trivially.  On the circle the labels are polarisation axes u1_quat(t) with
  t mod pi; on SU(2) they are rotations, all unit quaternions up to sign.
- The rod scheme reads orientation axes, unit vectors with antipodal
  identification.  SU(2) acts through its rotation (groups.quat_rotate);
  +-g act identically.

Every scheme carries the equivariance data that fixes it: a UEB, a finite
subgroup H of the frame group and an orbit of H on the UEB indices.  A
matched scheme is built from that data alone, on H itself (Z8 on the circle,
BOct or BTet on SU(2)); the rod scheme carries the Pauli x BOct data.  Its
regions R_h are the Voronoi cells of the elements h, the right translates of
the identity's cell, and E_i is the union of R_{l c_i} over the stabilizer L
of the orbit base.  The kernel +-1 of the action on readings lies in L and is
folded only where readings are compared or produced: the two elements of a
kernel pair give one reading, so the decoder scores, and the cell centres
list, only the first of each pair, and the element nearest to a reading x is
the one maximising |x . h|.  A tight sampler draws a uniform reading, decodes
it to its region E_j and carries E_j isometrically onto E_i: by the right
translation c_j^{-1} c_i on a matched scheme, by a coordinate swap on the rod.
Every sampler takes an orbit index i or an (n,) array of them, one per
reading, and draws the same variates either way: a table row or column is
picked per reading, so a constant array gives the readings of its scalar.
An index off the orbit gives NaN rows (or an IndexError past a table), never
a finite reading.

A matched decode scores the first lifts, grouped by label, with one matrix
product per row block and takes each label's maximum score.  A reading whose
top score is reached, up to rounding, by one label alone decodes to it.
Decoding is everywhere deterministic: the other readings, whose top scores
tie across labels, take the label of the lowest-index element with the top
score, and the rod decode gives ties to the lowest axis.  Such ties occur
only on cell boundaries, a set of measure zero.  A batch is decoded in row
blocks of _DECODE_BLOCK readings, each scored with the same per-row
arithmetic and tie-break, so the labels do not depend on the batch size.
"""
from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import groups
from .groups import FiniteSubgroup, canonical_sign, quat_conj, quat_mul, \
    quat_rotate
from .ueb import EquivarianceData, UnitaryErrorBasis, \
    equivariance_analysis, pauli_ueb

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "EncodingScheme",
    "conventional_scheme",
    "decode_batch",
    "tight_matched_scheme",
    "perfect_matched_scheme",
    "rod_scheme",
    "check_scheme",
]

# Rows scored at once by a nearest-element decode: a (24, 4096) float64
# score block is 768 KiB, which fits in L2.
_DECODE_BLOCK = 1 << 12


def _torsor_act(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The label action x -> x g^{-1} of the matched schemes."""
    return canonical_sign(quat_mul(x, quat_conj(g)))


class EncodingScheme:
    """A teleportation scheme: the UEB basis, the frame group of the
    misalignment, the kind ("conventional" | "tight" | "perfect": no
    reading sent, a region or a point) and the orbit indices of the results
    whose label is encoded.  The conventional scheme (conventional_scheme)
    has no orbit, eq, points or functions.  An encoded scheme takes its
    basis and frame group (its subgroup's ambient group) from eq.

    act_fn(g, x) moves readings x by frame quaternions g, broadcasting their
    leading axes; decode_fn maps readings (..., m) to UEB indices (...);
    sample_fn(i, rng, n) draws n uniform readings from E_i (region schemes)
    or X_i (perfect schemes), for an index i or an (n,) array of indices,
    one per reading.  points[i] holds the centres of the cells of E_i, as
    many for every i (on a perfect scheme, X_i itself).  Each region E_i of
    a tight scheme has measure 1/len(indices); moment_fn() is the fourth
    moment of the x whose pairs y-bar x pass its orbit base, and
    pair_moment that of the pairs themselves (channel).
    """

    def __init__(self, eq: EquivarianceData, indices: tuple[int, ...],
                 kind: str,
                 act_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 decode_fn: Callable[[np.ndarray], np.ndarray],
                 sample_fn: Callable[[int | np.ndarray, Generator, int],
                                     np.ndarray],
                 points: dict[int, np.ndarray],
                 moment_fn: Callable[[], np.ndarray] | None = None):
        self.basis = eq.basis
        self.group = eq.subgroup.ambient
        self.kind = kind                # "tight" | "perfect"
        self.indices = indices
        self.eq = eq
        self.act_fn = act_fn
        self.decode_fn = decode_fn
        self.sample_fn = sample_fn
        self.points = points
        self.moment_fn = moment_fn      # tight schemes

    @property
    def subgroup(self) -> FiniteSubgroup:
        return self.eq.subgroup

    @cached_property
    def pair_moment(self) -> np.ndarray:
        """Fourth moment of y-bar x for x, y independent with the fourth
        moment of moment_fn(), computed once per scheme (read-only)."""
        t4 = groups.pair_fourth_moment(self.moment_fn())
        t4.flags.writeable = False
        return t4


def conventional_scheme(basis: UnitaryErrorBasis, group: str
                        ) -> EncodingScheme:
    """The conventional scheme of basis on a frame group: no reading, so
    no equivariance data for the constructor to read."""
    scheme = object.__new__(EncodingScheme)
    vars(scheme).update(basis=basis, group=group, kind="conventional",
                        indices=(), eq=None, act_fn=None, decode_fn=None,
                        sample_fn=None, points={}, moment_fn=None)
    return scheme


def decode_batch(scheme: EncodingScheme, x: np.ndarray) -> np.ndarray:
    return scheme.decode_fn(np.asarray(x))


# ---------------------------------------------------------------------------
# Matched schemes (torsor regions from a fundamental domain)
# ---------------------------------------------------------------------------

def _matched_cosets(eq: EquivarianceData, orbit_base: int
                    ) -> tuple[tuple[int, ...], dict[int, np.ndarray],
                               np.ndarray]:
    """The orbit I_k containing orbit_base, the cell centres of each E_i
    (the canonical first lifts of its coset {l c_i : l in L}, sorted), and
    the UEB index of each H element's coset."""
    sub = eq.subgroup
    orbit = eq.orbit_of(orbit_base)
    stabilizer = list(eq.stabilizers[min(orbit)])
    if len(stabilizer) * len(orbit) != sub.order:
        raise ValueError("|L| * |I_k| != |H|")
    points: dict[int, np.ndarray] = {}
    labels = np.full(sub.order, -1, dtype=np.int64)
    for i in orbit:
        cell = sub.table[stabilizer, eq.coset_reps[i]]
        if np.any(labels[cell] != -1):
            raise ValueError("coset decomposition is not disjoint")
        labels[cell] = i
        payloads = sub.payloads[cell]
        q = canonical_sign(payloads[groups.first_lifts(payloads)])
        points[i] = q[np.lexsort(np.round(q.T, 12)[::-1])]
    if np.any(labels < 0):
        raise ValueError("cosets do not cover the subgroup")
    return orbit, points, labels


def _nearest_lookup(sub: FiniteSubgroup, labels: np.ndarray
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """Map readings to labels[k], k the index of the subgroup element
    nearest under the invariant metric (lowest index on ties)."""
    # The metric is bi-invariant and decreasing in |x.h|, and both elements
    # of a kernel pair give one reading, so only the first lift of each
    # reading is scored, with no sign convention on x.
    lifts = np.flatnonzero(groups.first_lifts(sub.payloads))
    lifted = labels[lifts]
    names, counts = np.unique(lifted, return_counts=True)
    # Each label's lifts, cycled up to m rows (a repeat leaves its maximum
    # unchanged), so that the label maxima are one reduction.
    m = counts.max()
    grouped = np.concatenate([np.resize(sub.payloads[lifts[lifted == name]],
                                        (m, 4)) for name in names])
    h_t = np.ascontiguousarray(sub.payloads[lifts].T)

    def lookup(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        flat = x.reshape(-1, x.shape[-1])
        out = np.empty(len(flat), lifted.dtype)
        scores = np.empty(len(grouped) * min(len(flat), _DECODE_BLOCK))
        # Scored in row blocks, so the (|lifts|, block) scores stay in cache
        # instead of a fresh (|lifts|, n) temporary per call.
        for start in range(0, len(flat), _DECODE_BLOCK):
            rows = flat[start:start + _DECODE_BLOCK]
            s = scores[:len(grouped) * len(rows)].reshape(len(grouped), -1)
            np.abs(np.matmul(grouped, rows.T, out=s), out=s)
            top = s.reshape(len(names), m, -1).max(axis=1)
            # A row with one label within rounding of its top score decodes
            # to that label; the others (ties) take the lowest-index argmax.
            near = top >= top.max(axis=0) * (1 - 1e-12)
            label = names @ near
            tie = np.flatnonzero(near.sum(axis=0) != 1)
            if tie.size:
                label[tie] = lifted[np.argmax(np.abs(rows[tie] @ h_t), axis=1)]
            out[start:start + len(rows)] = label
        return out.reshape(x.shape[:-1])[()]   # a scalar for one reading

    return lookup


def tight_matched_scheme(eq: EquivarianceData, orbit_base: int
                         ) -> EncodingScheme:
    """Tight matched scheme on the subgroup H of eq for the orbit of
    orbit_base: D_i = E_i = union of R_{l c_i} over l in L, each of measure
    1/|I_k|."""
    orbit, points, labels = _matched_cosets(eq, orbit_base)
    sub = eq.subgroup
    decode_fn = _nearest_lookup(sub, labels)
    # Row i * width + j is c_j^{-1} c_i for the coset representatives c,
    # NaN for an index i outside the orbit.
    width = max(orbit) + 1
    reps = np.array([eq.coset_reps.get(j, 0) for j in range(width)])
    shifts = sub.payloads[sub.table[sub.inverse[reps], reps[:, None]]]
    shifts[~np.isin(range(width), orbit)] = np.nan
    shifts = shifts.reshape(-1, 4)
    cells = sub.payloads[labels == min(orbit)]

    def moment_fn() -> np.ndarray:
        return groups.translated_fourth_moment(
            groups.cell_fourth_moment(sub), cells,
            np.full(len(cells), 1 / len(cells)))

    def sample_fn(i, rng: Generator, n: int) -> np.ndarray:
        # A uniform f is uniform on its region E_j, and right translation by
        # c_j^{-1} c_i carries each cell R_{l c_j} of E_j onto R_{l c_i}
        # (the metric is bi-invariant), so the result is uniform on E_i.
        f = groups.haar_batch(sub.ambient, rng, n)
        return canonical_sign(quat_mul(
            f, np.take(shifts, np.multiply(i, width) + decode_fn(f), axis=0)))

    return EncodingScheme(eq, orbit, "tight", _torsor_act, decode_fn,
                          sample_fn, points, moment_fn)


def perfect_matched_scheme(eq: EquivarianceData, orbit_base: int
                           ) -> EncodingScheme:
    """Perfect matched scheme on the subgroup H of eq for the orbit of
    orbit_base: E_i is the finite set X_i of the distinct readings of
    {l c_i}, the centres of the tight scheme's cells; decoding subsets are
    the same Voronoi regions as the tight scheme."""
    orbit, points, labels = _matched_cosets(eq, orbit_base)
    # Row i * size + k is point k of X_i (each has |L|/2), NaN off the orbit.
    size = len(points[orbit[0]])
    table = np.full((max(orbit) + 1, size, 4), np.nan)
    table[list(orbit)] = [points[i] for i in orbit]
    table = table.reshape(-1, 4)

    def sample_fn(i, rng: Generator, n: int) -> np.ndarray:
        return np.take(table, np.multiply(i, size)
                       + rng.integers(0, size, size=n), axis=0)

    return EncodingScheme(eq, orbit, "perfect", _torsor_act,
                          _nearest_lookup(eq.subgroup, labels), sample_fn,
                          points)


# ---------------------------------------------------------------------------
# Rod scheme
# ---------------------------------------------------------------------------

def rod_scheme() -> EncodingScheme:
    """Rod-orientation scheme: axes sorted by dominant |component|; the axis
    through the a-faces of the axis-aligned cube decodes to UEB index a, and
    the cell E_a has the centre e_{a-1}."""

    def decode_fn(x: np.ndarray) -> np.ndarray:
        # argmax |x_a| + 1 by column comparisons, lowest index on ties.
        a, b, c = np.moveaxis(np.abs(np.asarray(x)), -1, 0)
        b_wins = b >= c
        return np.where(a >= np.where(b_wins, b, c), 1, 3 - b_wins)[()]

    def sample_fn(i, rng: Generator, n: int) -> np.ndarray:
        # Swapping the dominant coordinate j of a uniform axis with
        # coordinate i-1 maps E_j isometrically onto E_i, so the result is
        # uniform on E_i.
        v = rng.normal(size=(n, 3))
        a, b, c = v.T
        v /= np.sqrt(a * a + b * b + c * c)[:, None]
        # An index off the orbit {1, 2, 3} has no column: its rows are NaN.
        off = np.less(i, 1) | np.greater(i, 3)
        rows = np.arange(-1, 3 * n - 1, 3)
        dominant = rows + decode_fn(v)                     # flat indices
        column = rows + np.where(off, 1, i)
        x = v.copy()
        flat, src = x.reshape(-1), v.reshape(-1)           # views
        flat[column] = src[dominant]
        flat[dominant] = src[column]
        x[off] = np.nan
        return x

    def moment_fn() -> np.ndarray:
        # h-bar for h in BOct, weighted by its axis R(h) e_z (see channel).
        h = groups.binary_octahedral().payloads
        c = 1 / 3 + 2 / (np.pi * np.sqrt(3))
        w = np.where(decode_fn(quat_rotate(h, [0.0, 0.0, 1.0])) == 1,
                     c / 16, (1 - c) / 32)
        return groups.translated_fourth_moment(
            groups.circle_fourth_moment(1.0, 1.0), quat_conj(h), w)

    eq = equivariance_analysis(pauli_ueb(), groups.binary_octahedral())
    centres = {a: np.eye(3)[a - 1:a] for a in (1, 2, 3)}
    return EncodingScheme(eq, eq.orbit_of(1), "tight", quat_rotate, decode_fn,
                          sample_fn, centres, moment_fn)


# ---------------------------------------------------------------------------
# Scheme checks
# ---------------------------------------------------------------------------

def check_scheme(scheme: EncodingScheme
                 ) -> tuple[tuple[bool, dict], tuple[bool, dict]]:
    """Exact checks of a scheme against its equivariance data: each cell
    centre x of E_i, for each orbit index i, moved by each element h of H
    and decoded in one call.  compatibility: decoding inverts the index
    action, decode(act(h, x)) = sigma(i, h^{-1}).  finite-subgroup: the
    protocol is exact for misalignments in H, i.e. each case (i, h) decodes
    to one index j with rho(h)+ U_j rho(h) proportional to U_i.  Returns
    the (ok, report) pair of each check; a failure reports its first
    counterexample, in the order of i, then h, then x.

    The centres decide every reading off the cell boundaries (measure
    zero): the decoder is the nearest-centre map and each h is an isometry
    permuting the cells (a right translation of labels, a signed
    permutation of rod axes), so decode(act(h, .)) is constant on a cell.
    """
    eq, sub = scheme.eq, scheme.subgroup
    x = np.stack([scheme.points[i] for i in scheme.indices])
    # got[k, h, p]: centre p of E_i, i = indices[k], moved by element h.
    got = decode_batch(scheme, scheme.act_fn(sub.payloads[:, None, None],
                                             x)).swapaxes(0, 1)
    expected = eq.sigma_inv(np.arange(sub.order)[:, None],
                            np.array(scheme.indices)[:, None, None])
    compatibility = finite = None
    bad = np.argwhere(got != expected)
    if len(bad):
        k, h, p = bad[0]
        compatibility = {"h": int(h), "i": int(scheme.indices[k]),
                         "x": x[k, p].tolist(),
                         "expected": int(expected[k, h, 0]),
                         "got": int(got[k, h, p])}
    for i, decoded in zip(scheme.indices, got):
        finite = finite or _finite_subgroup_failure(eq, i, decoded)
    cases = sub.order * len(scheme.indices)
    return ((compatibility is None, compatibility or {"cases": cases}),
            (finite is None, finite or {"cases": cases}))


def _finite_subgroup_failure(eq: EquivarianceData, i: int,
                             decoded: np.ndarray) -> dict | None:
    """The first case h whose decoded indices (one row of the (|H|, n)
    array per element of H) are ambiguous or give a composite correction
    not proportional to U_i, or None."""
    ambiguous = np.any(decoded != decoded[:, :1], axis=1)
    if np.any(ambiguous):
        return {"h": int(np.argmax(ambiguous)), "i": i,
                "reason": "ambiguous decode"}
    j = decoded[:, 0]
    h, u = eq.subgroup.payloads, eq.basis.quats
    # |(1/2) Tr(A+ B)| = |a . b| for the quaternions a, b of A and B.
    overlap = np.abs(quat_mul(quat_mul(quat_conj(h), u[j]), h) @ u[i])
    bad = np.abs(overlap - 1.0) > 1e-9
    if np.any(bad):
        k = int(np.argmax(bad))
        return {"h": k, "i": i, "j": int(j[k]), "overlap": float(overlap[k])}
    return None
