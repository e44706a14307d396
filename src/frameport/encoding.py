"""Reading spaces with group actions, encoding/decoding schemes, and the
tight/perfect matched-scheme constructors.

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

A matched scheme is built on its frame subgroup H itself (Z8 on the circle,
BOct or BTet on SU(2)).  The kernel +-1 of the action on readings is folded
only where readings are compared or produced: the two elements of a kernel
pair give one reading, so the decoder scores, and the perfect points list,
only the first of each pair, and the element nearest to a reading x is the
one maximising |x . h|.

Decoding is everywhere deterministic: exactly equal scores go to the lowest
element index.  Such ties occur only on cell boundaries, a set of measure
zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator

from . import groups
from .groups import FiniteSubgroup, HaarStream, canonical_sign, quat_conj, \
    quat_mul, quat_rotate
from .ueb import EquivarianceData

__all__ = [
    "ReadingSpace",
    "EncodingScheme",
    "MatchedSchemeSpec",
    "rod_axis_space",
    "frame_torsor_space",
    "decode",
    "decode_batch",
    "sample_encoding",
    "matched_scheme_spec",
    "tight_matched_scheme",
    "perfect_matched_scheme",
    "rod_scheme",
    "compatibility_check",
]


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

    def uniform_bins(self, x: np.ndarray, n_bins: int = 64) -> np.ndarray:
        """Assign readings to one of n_bins equal-measure bins (for
        uniformity tests)."""
        x = np.asarray(x)
        if self.group == "u1":
            # Equal arcs of the axis angle t of u1_quat(t), mod pi.
            t = np.arctan2(-x[..., 3], x[..., 0]) % np.pi
            return np.minimum((t / np.pi * n_bins).astype(int), n_bins - 1)
        if self.kind == "rod-axis":
            side = int(round(np.sqrt(n_bins)))
            # Fold to the upper hemisphere; equal-area bands in |z| times
            # azimuthal sectors.
            v = np.where(x[:, 2:3] < 0, -x, x)
            band = np.minimum((v[:, 2] * side).astype(int), side - 1)
            az = (np.arctan2(v[:, 1], v[:, 0]) % (2 * np.pi)) / (2 * np.pi)
            sector = np.minimum((az * side).astype(int), side - 1)
            return band * side + sector
        raise ValueError(f"no binning rule for {self.kind!r}")


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
    """Encoding/decoding rule over a reading space for one UEB index orbit.

    decode_fn maps a batch of readings to UEB indices; sample_fn draws
    uniform readings from E_i (region schemes) or X_i (perfect schemes).
    """

    space: ReadingSpace
    subgroup: FiniteSubgroup
    indices: tuple[int, ...]
    kind: str                                   # "tight" | "perfect"
    decode_fn: Callable[[np.ndarray], np.ndarray]
    sample_fn: Callable[[int, Generator, int], np.ndarray]
    points: dict[int, np.ndarray] | None = None  # X_i for perfect schemes
    region_measure: float | None = None          # mu(E_i) for tight schemes


def decode_batch(scheme: EncodingScheme, x: np.ndarray) -> np.ndarray:
    return scheme.decode_fn(np.asarray(x))


def decode(scheme: EncodingScheme, x) -> int:
    """Index of the decoding subset containing reading x."""
    return int(decode_batch(scheme, np.asarray([x]))[0])


def sample_encoding(scheme: EncodingScheme, i: int, stream: HaarStream,
                    n: int = 1) -> np.ndarray:
    """n uniform readings from E_i (or X_i)."""
    if i not in scheme.indices:
        raise ValueError(f"index {i} not in orbit {scheme.indices}")
    return scheme.sample_fn(i, stream.generator(), n)


# ---------------------------------------------------------------------------
# Matched schemes (torsor regions from a fundamental domain)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchedSchemeSpec:
    """Inputs of the matched-scheme construction: the finite frame subgroup
    H acting on itself, the orbit's stabilizer L, coset representatives
    c_i, and the coset label of each H element.

    The fundamental domain is the Voronoi cell of the identity; the regions
    R_h are its right translates (the Voronoi cells of the elements), so
    membership tests reduce to nearest-element search.  H contains the
    kernel of the action on readings, which lies in L, so both elements of
    a kernel pair carry the same label.
    """

    subgroup: FiniteSubgroup
    indices: tuple[int, ...]
    stabilizer: tuple[int, ...]
    coset_reps: dict[int, int]
    labels: np.ndarray          # (|H|,) UEB index of each H element's coset

    def __post_init__(self):
        if len(self.stabilizer) * len(self.indices) != self.subgroup.order:
            raise ValueError("|L| * |I_k| != |H|")

    def coset(self, i: int) -> np.ndarray:
        """Indices of the elements l c_i, in the order of L."""
        return self.subgroup.table[list(self.stabilizer), self.coset_reps[i]]


def matched_scheme_spec(eq: EquivarianceData, orbit_base: int) -> MatchedSchemeSpec:
    """Build the matched-scheme data for the orbit containing orbit_base,
    over the subgroup of the equivariance data."""
    sub = eq.subgroup
    orbit = eq.orbit_of(orbit_base)
    spec = MatchedSchemeSpec(sub, tuple(orbit), eq.stabilizers[min(orbit)],
                             {i: eq.coset_reps[i] for i in orbit},
                             np.full(sub.order, -1, dtype=np.int64))
    for i in orbit:
        cell = spec.coset(i)
        if np.any(spec.labels[cell] != -1):
            raise ValueError("coset decomposition is not disjoint")
        spec.labels[cell] = i
    if np.any(spec.labels < 0):
        raise ValueError("cosets do not cover the subgroup")
    return spec


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
    return lambda x: lifted[np.argmax(np.abs(x @ h_t), axis=-1)]


def tight_matched_scheme(spec: MatchedSchemeSpec) -> EncodingScheme:
    """Tight matched scheme: D_i = E_i = union of R_{l c_i} over l in L,
    each of measure 1/|I_k|."""
    sub = spec.subgroup
    space = frame_torsor_space(sub.ambient)
    # Inverse of each reading's nearest element.
    nearest_inverse = _nearest_lookup(sub, sub.inverse)
    cells = {i: spec.coset(i) for i in spec.indices}

    def sample_fn(i: int, rng: Generator, n: int) -> np.ndarray:
        # Direct sampling of the uniform measure on E_i.  For uniform f with
        # nearest element m, m^{-1} f is uniform on the identity's Voronoi
        # cell (the metric is bi-invariant), and (l c_i) m^{-1} f is uniform
        # on R_{l c_i}; with l uniform on L the cells of E_i are equally
        # likely.
        f = space.sample(rng, n)
        l = rng.integers(0, len(spec.stabilizer), size=n)
        h = sub.payloads[sub.table[cells[i][l], nearest_inverse(f)]]
        return canonical_sign(quat_mul(h, f))

    return EncodingScheme(space, sub, spec.indices, "tight",
                          _nearest_lookup(sub, spec.labels), sample_fn,
                          region_measure=1.0 / len(spec.indices))


def perfect_matched_scheme(spec: MatchedSchemeSpec) -> EncodingScheme:
    """Perfect matched scheme: E_i is the finite set X_i of the distinct
    readings of {l c_i}; decoding subsets are the same Voronoi regions as
    the tight scheme."""
    sub = spec.subgroup
    points: dict[int, np.ndarray] = {}
    for i in spec.indices:
        payloads = sub.payloads[spec.coset(i)]
        q = canonical_sign(payloads[groups.first_lifts(payloads)])
        points[i] = q[np.lexsort(np.round(q.T, 12)[::-1])]

    def sample_fn(i: int, rng: Generator, n: int) -> np.ndarray:
        pts = points[i]
        return pts[rng.integers(0, len(pts), size=n)]

    return EncodingScheme(frame_torsor_space(sub.ambient), sub,
                          spec.indices, "perfect",
                          _nearest_lookup(sub, spec.labels), sample_fn,
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

    sub = groups.binary_octahedral()
    return EncodingScheme(space, sub, (1, 2, 3), "tight",
                          decode_fn, sample_fn, region_measure=1.0 / 3.0)


# ---------------------------------------------------------------------------
# Compatibility
# ---------------------------------------------------------------------------

def compatibility_check(scheme: EncodingScheme, eq: EquivarianceData,
                        stream: HaarStream, samples_per_case: int = 1000
                        ) -> tuple[bool, dict]:
    """Sampled verification that decoding inverts the index action:
    decode(act(h, x)) = sigma(i, h^{-1}) for x drawn from E_i.

    All cases of the k-th index share one batch, drawn from stream.advance(k).
    Returns (ok, report); on failure the report carries a counterexample.
    """
    sub = eq.subgroup
    hs = np.repeat(np.arange(sub.order), samples_per_case)
    for pos, i in enumerate(scheme.indices):
        x = sample_encoding(scheme, i, stream.advance(pos), len(hs))
        expected = eq.sigma_inv(hs, i)
        got = decode_batch(scheme, scheme.space.act(sub.payloads[hs], x))
        bad = got != expected
        if np.any(bad):
            k = int(np.argmax(bad))
            return False, {"h": int(hs[k]), "i": i,
                           "x": np.asarray(x)[k].tolist(),
                           "expected": int(expected[k]), "got": int(got[k])}
    return True, {"cases": sub.order * len(scheme.indices),
                  "samples_per_case": samples_per_case}
