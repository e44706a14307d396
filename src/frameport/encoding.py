"""Reading spaces with group actions, encoding/decoding schemes, the
tight/perfect matched-scheme constructors, and the sampled scheme checks.

Reading space kinds
-------------------
- "frame-torsor": frame labels, canonical-signed unit quaternions.  A
  physical g sends the label f to f g^{-1} (a left action on labels, matching
  how two parties' frame labellings transform into each other); -1 acts
  trivially.  Two reading kinds share this action and differ only in their
  uniform measure:
  - over "u1": polarisation axes, the circle u1_quat(t) with t mod pi;
  - over "su2": rotations, all unit quaternions up to sign.
- "rod-axis": orientation axes, unit vectors with antipodal identification.
  SU(2) acts through its rotation; +-g act identically.

Every scheme carries the equivariance data that fixes it: a UEB, a finite
subgroup H of the frame group and an orbit of H on the UEB indices.  A
matched scheme is built from that data alone, on H itself (Z8 on the circle,
BOct or BTet on SU(2)); the rod scheme carries the Pauli x BOct data.  Its
regions R_h are the Voronoi cells of the elements h, the right translates of
the identity's cell, and E_i is the union of R_{l c_i} over the stabilizer L
of the orbit base.  The kernel +-1 of the action on readings lies in L and is
folded only where readings are compared or produced: the two elements of a
kernel pair give one reading, so the decoder scores, and the perfect points
list, only the first of each pair, and the element nearest to a reading x is
the one maximising |x . h|.

Decoding is everywhere deterministic: exactly equal scores go to the lowest
element index.  Such ties occur only on cell boundaries, a set of measure
zero.  A batch is decoded in row blocks of _DECODE_BLOCK readings, each
scored with the same per-row arithmetic and tie-break, so the labels do not
depend on the batch size.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator

from . import groups
from .groups import FiniteSubgroup, HaarStream, canonical_sign, quat_conj, \
    quat_mul, quat_rotate
from .ueb import EquivarianceData, equivariance_analysis, pauli_ueb

__all__ = [
    "ReadingSpace",
    "EncodingScheme",
    "rod_axis_space",
    "frame_torsor_space",
    "decode_batch",
    "sample_encoding",
    "tight_matched_scheme",
    "perfect_matched_scheme",
    "rod_scheme",
    "check_scheme",
]

# Rows scored at once by a nearest-element decode: a (4096, 24) float64
# score block is 768 KiB, which fits in L2.
_DECODE_BLOCK = 1 << 12


@dataclass(frozen=True)
class ReadingSpace:
    """A manifold of classical readings with a physical-group action and a
    normalized invariant measure."""

    kind: str
    group: str          # tag of the frame group whose quaternions act

    def act(self, g_payload, x: np.ndarray) -> np.ndarray:
        """Apply the action, vectorized over readings (and over g if its
        leading shape matches x)."""
        if self.kind == "rod-axis":
            return quat_rotate(np.asarray(g_payload), np.asarray(x))
        if self.kind == "frame-torsor":
            return canonical_sign(quat_mul(np.asarray(x),
                                           quat_conj(np.asarray(g_payload))))
        raise ValueError(f"unknown space kind {self.kind!r}")

    def sample(self, rng: Generator, n: int) -> np.ndarray:
        """n uniform readings."""
        if self.kind == "rod-axis":
            vec = rng.normal(size=(n, 3))
            return vec / np.linalg.norm(vec, axis=1, keepdims=True)
        return canonical_sign(groups.haar_batch(self.group, rng, n))


def rod_axis_space() -> ReadingSpace:
    return ReadingSpace("rod-axis", "su2")


def frame_torsor_space(group: str) -> ReadingSpace:
    """The label torsor of a frame group: "u1" (the circle), "su2" or
    "so3"."""
    if group not in ("u1", "su2", "so3"):
        raise ValueError(f"no frame torsor over {group!r}")
    return ReadingSpace("frame-torsor", group)


@dataclass(frozen=True)
class EncodingScheme:
    """Encoding/decoding rule over a reading space for one orbit of UEB
    indices under the subgroup of its equivariance data.

    decode_fn maps a batch of readings to UEB indices; sample_fn draws
    uniform readings from E_i (region schemes) or X_i (perfect schemes).
    Each region E_i of a tight scheme has measure 1/len(indices).
    """

    space: ReadingSpace
    eq: EquivarianceData
    indices: tuple[int, ...]
    kind: str                                   # "tight" | "perfect"
    decode_fn: Callable[[np.ndarray], np.ndarray]
    sample_fn: Callable[[int, Generator, int], np.ndarray]
    points: dict[int, np.ndarray] | None = None  # X_i for perfect schemes

    @property
    def subgroup(self) -> FiniteSubgroup:
        return self.eq.subgroup


def decode_batch(scheme: EncodingScheme, x: np.ndarray) -> np.ndarray:
    return scheme.decode_fn(np.asarray(x))


def sample_encoding(scheme: EncodingScheme, i: int, stream: HaarStream,
                    n: int = 1) -> np.ndarray:
    """n uniform readings from E_i (or X_i)."""
    if i not in scheme.indices:
        raise ValueError(f"index {i} not in orbit {scheme.indices}")
    return scheme.sample_fn(i, stream.generator(), n)


# ---------------------------------------------------------------------------
# Matched schemes (torsor regions from a fundamental domain)
# ---------------------------------------------------------------------------

def _matched_cosets(eq: EquivarianceData, orbit_base: int
                    ) -> tuple[tuple[int, ...], dict[int, np.ndarray],
                               np.ndarray]:
    """The orbit I_k containing orbit_base, the coset {l c_i : l in L} of
    each of its indices i (element indices of H, in the order of the
    stabilizer L), and the UEB index of each H element's coset."""
    sub = eq.subgroup
    orbit = eq.orbit_of(orbit_base)
    stabilizer = list(eq.stabilizers[min(orbit)])
    if len(stabilizer) * len(orbit) != sub.order:
        raise ValueError("|L| * |I_k| != |H|")
    cosets = {i: sub.table[stabilizer, eq.coset_reps[i]] for i in orbit}
    labels = np.full(sub.order, -1, dtype=np.int64)
    for i, cell in cosets.items():
        if np.any(labels[cell] != -1):
            raise ValueError("coset decomposition is not disjoint")
        labels[cell] = i
    if np.any(labels < 0):
        raise ValueError("cosets do not cover the subgroup")
    return orbit, cosets, labels


def _nearest_lookup(sub: FiniteSubgroup, values: np.ndarray
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """Map readings to values[k], k the index of the subgroup element
    nearest under the invariant metric (lowest index on ties)."""
    # The metric is bi-invariant and decreasing in |x.h|, and both elements
    # of a kernel pair give one reading, so only the first lift of each
    # reading is scored; argmax keeps the lowest-index tie-break with no
    # sign convention on x.
    lifts = groups.first_lifts(sub.payloads)
    h_t = np.ascontiguousarray(sub.payloads[lifts].T)
    lifted = values[lifts]

    def lookup(x: np.ndarray) -> np.ndarray:
        # Scored in row blocks, so the (block, |lifts|) scores stay in cache
        # instead of a fresh (n, |lifts|) temporary per call.
        x = np.asarray(x)
        flat = x.reshape(-1, x.shape[-1])
        out = np.empty(len(flat), lifted.dtype)
        scores = np.empty((min(len(flat), _DECODE_BLOCK), h_t.shape[1]))
        for start in range(0, len(flat), _DECODE_BLOCK):
            rows = flat[start:start + _DECODE_BLOCK]
            s = np.matmul(rows, h_t, out=scores[:len(rows)])
            np.abs(s, out=s)
            out[start:start + len(rows)] = lifted[np.argmax(s, axis=1)]
        return out.reshape(x.shape[:-1])[()]   # a scalar for one reading

    return lookup


def tight_matched_scheme(eq: EquivarianceData, orbit_base: int
                         ) -> EncodingScheme:
    """Tight matched scheme on the subgroup H of eq for the orbit of
    orbit_base: D_i = E_i = union of R_{l c_i} over l in L, each of measure
    1/|I_k|."""
    orbit, cosets, labels = _matched_cosets(eq, orbit_base)
    sub = eq.subgroup
    space = frame_torsor_space(sub.ambient)
    # Inverse of each reading's nearest element.
    nearest_inverse = _nearest_lookup(sub, sub.inverse)

    def sample_fn(i: int, rng: Generator, n: int) -> np.ndarray:
        # Direct sampling of the uniform measure on E_i.  For uniform f with
        # nearest element m, m^{-1} f is uniform on the identity's Voronoi
        # cell (the metric is bi-invariant), and (l c_i) m^{-1} f is uniform
        # on R_{l c_i}; with l uniform on L the cells of E_i are equally
        # likely.
        f = space.sample(rng, n)
        l = rng.integers(0, len(cosets[i]), size=n)
        h = np.take(sub.payloads, sub.table[cosets[i][l], nearest_inverse(f)],
                    axis=0)
        return canonical_sign(quat_mul(h, f))

    return EncodingScheme(space, eq, orbit, "tight",
                          _nearest_lookup(sub, labels), sample_fn)


def perfect_matched_scheme(eq: EquivarianceData, orbit_base: int
                           ) -> EncodingScheme:
    """Perfect matched scheme on the subgroup H of eq for the orbit of
    orbit_base: E_i is the finite set X_i of the distinct readings of
    {l c_i}; decoding subsets are the same Voronoi regions as the tight
    scheme."""
    orbit, cosets, labels = _matched_cosets(eq, orbit_base)
    sub = eq.subgroup
    points: dict[int, np.ndarray] = {}
    for i in orbit:
        payloads = sub.payloads[cosets[i]]
        q = canonical_sign(payloads[groups.first_lifts(payloads)])
        points[i] = q[np.lexsort(np.round(q.T, 12)[::-1])]

    def sample_fn(i: int, rng: Generator, n: int) -> np.ndarray:
        pts = points[i]
        return np.take(pts, rng.integers(0, len(pts), size=n), axis=0)

    return EncodingScheme(frame_torsor_space(sub.ambient), eq, orbit,
                          "perfect", _nearest_lookup(sub, labels), sample_fn,
                          points=points)


# ---------------------------------------------------------------------------
# Rod scheme
# ---------------------------------------------------------------------------

def rod_scheme() -> EncodingScheme:
    """Rod-orientation scheme: axes sorted by dominant |component|; the axis
    through the a-faces of the axis-aligned cube decodes to UEB index a."""
    space = rod_axis_space()

    def decode_fn(x: np.ndarray) -> np.ndarray:
        return np.argmax(np.abs(np.asarray(x)), axis=-1) + 1

    def sample_fn(i: int, rng: Generator, n: int) -> np.ndarray:
        # Swapping the dominant coordinate j of a uniform axis with
        # coordinate i-1 maps E_j isometrically onto E_i, so the result is
        # uniform on E_i.
        v = space.sample(rng, n)
        rows = np.arange(n)
        j = np.argmax(np.abs(v), axis=-1)
        x = v.copy()
        x[rows, i - 1] = v[rows, j]
        x[rows, j] = v[rows, i - 1]
        return x

    eq = equivariance_analysis(pauli_ueb(), groups.binary_octahedral())
    return EncodingScheme(space, eq, eq.orbit_of(1), "tight", decode_fn,
                          sample_fn)


# ---------------------------------------------------------------------------
# Scheme checks
# ---------------------------------------------------------------------------

def check_scheme(scheme: EncodingScheme, stream: HaarStream,
                 samples_per_case: int = 1000
                 ) -> tuple[tuple[bool, dict], tuple[bool, dict]]:
    """Sampled checks of a scheme against its equivariance data on one
    batch per orbit index i, drawn from stream.advance(k) for the k-th:
    samples_per_case readings x from E_i (or X_i) per element h of H,
    transported by h and decoded.  compatibility: decoding inverts the index
    action, decode(act(h, x)) = sigma(i, h^{-1}).  finite-subgroup: the
    protocol is exact for misalignments in H, i.e. each case decodes to one
    index j with rho(h)+ U_j rho(h) proportional to U_i.  Returns the
    (ok, report) pair of each check; a failure reports its first
    counterexample.
    """
    eq, sub = scheme.eq, scheme.subgroup
    hs = np.repeat(np.arange(sub.order), samples_per_case)
    compatibility = finite = None
    for pos, i in enumerate(scheme.indices):
        x = sample_encoding(scheme, i, stream.advance(pos), len(hs))
        got = decode_batch(scheme, scheme.space.act(
            np.take(sub.payloads, hs, axis=0), x))
        expected = eq.sigma_inv(hs, i)
        bad = got != expected
        if compatibility is None and np.any(bad):
            k = int(np.argmax(bad))
            compatibility = {"h": int(hs[k]), "i": i,
                             "x": np.asarray(x)[k].tolist(),
                             "expected": int(expected[k]), "got": int(got[k])}
        if finite is None:
            finite = _finite_subgroup_failure(
                eq, i, got.reshape(sub.order, samples_per_case))
    cases = sub.order * len(scheme.indices)
    return ((compatibility is None, compatibility
             or {"cases": cases, "samples_per_case": samples_per_case}),
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
