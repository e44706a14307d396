"""Assembly of the effective teleportation channels (conventional, tight,
perfect) by quadrature or seeded Monte Carlo, plus an end-to-end single-shot
protocol simulator for cross-validation.

Frame conventions
-----------------
The misalignment g, a unit quaternion on either frame group, relates the two
parties' frames: an operator with matrix M in Bob's frame has matrix
rho(g)+ M rho(g) in Alice's frame.  rho(g) is su2_matrix(g) up to a phase
that cancels here, so g enters every formula as a quaternion.  Input and
output states are both expressed in Alice's frame; the entangled resource is
shared in Alice's frame (for the SU(2) schemes it is the invariant singlet,
so the choice is immaterial up to phase).

With resource eta = (1/sqrt d) sum_k |k> X|k> and measurement basis
|phi_x> = (1/sqrt d) sum_i |i> (U_x X)^T |i>, result x leaves Bob's half in
M_x sigma M_x+ with the unitary M_x = X (U_x X)+, and every result is
equiprobable.  An aligned correction U_x then restores sigma exactly.

Per-result channels
-------------------
A tight or perfect scheme encodes only the results in the orbit of its
base index.  A result in a singleton orbit has its label sent speakably,
so it gets the exact conventional integral, by quadrature whatever the
method; an orbit result gets the scheme's own twirl (Bartlett, Rudolph and
Spekkens, Rev. Mod. Phys. 79 (2007)).  result_estimates applies this rule
for both kinds of scheme and both methods.

Accumulation
------------
Every qubit unitary is a phase times su2_matrix(w) for a unit quaternion w,
and its conjugation superoperator kron(conj U(w), U(w)) is quadratic in w.
Net protocol unitaries are therefore composed as quaternions, and a batch's
superoperator sum is one fixed linear map of its 4x4 second moment
sum_n w_n w_n^T.

The same moment is the channel's Choi state: (1 (x) U(w))|Phi+> has the
real coordinates w in the Bell basis |Phi+>, -i (1 (x) sigma_k)|Phi+>
(k = x, y, z), so the Choi state of E[U(w) . U(w)+] is M / tr M with
M = E[w w^T].  Conjugating the channel by U(r) maps M to Q M Q^T, with Q
the orthogonal matrix of w -> r w r-bar.  Every estimate therefore carries
its trace-1 moment and its bootstrap moments: spectra, purities, error
bars, mixtures and orbit conjugates are real 4x4 array operations, and the
superoperator is formed only for output.

Monte Carlo draws run in batches of _BATCH = 2^13 samples, each from its
own counter of the seed's HaarStream (conventional result i from i << 48
on), with bootstrap picks _BOOT_OFFSET counters past the first batch; the
simulator runs its shots in blocks of the same size, draws the readings of
each block's orbit shots, in shot order, in one batch from counter 1 << 40,
and corrects each shot by one conjugation z-bar W_j z by a per-label table.
An estimate is therefore bit-exact per seed for a fixed _BATCH.  A batch's
(n, 4) float64 temporaries are 256 KiB each, all of its live ones under
2 MiB for an MC channel (3 MiB for a simulated block), and the heap reuses
their pages from batch to batch.  At 2^17 samples they were 4 MiB each and
were mapped and page-faulted afresh on most batches, which cost more than
the arithmetic on them.  In a sweep of the benchmark, 2^12 was slower on the
MC and exact-path workloads alike (the fixed Python cost of a batch) and
2^15 faulted again on the exact paths; 2^14 was as fast as 2^13 there and
about 4% faster on MC channels, but doubles those working sets.

Exact integrals
---------------
w(g) is quadratic in g, so w w^T is quartic and every exact channel moment
is one fixed linear image of the fourth moment T4 = E[g (x) g (x) g (x) g]
of the misalignments the scheme lets through (fourth_moment_map): the Haar
T4 for a conventional channel, and for a tight base channel the T4 of
g = y-bar x with x and y independent and uniform on the encoding region E_b.
Those are the (g, x) pairs whose transported reading x g-bar = y stays in
E_b (the pair identity).  On the circle, E_b is a union of arcs, the left
translates h C_0 of the identity cell C_0 = {u1_quat(t) : |t| <= pi/(2m)} by
the m distinct readings of H labelled b, and the T4 of g is in closed form
(groups.arc_pair_fourth_moment).  The SU(2) tight channels are computed by
Monte Carlo.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np
from numpy.random import Generator

from . import encoding as enc
from . import groups
from .groups import HaarStream, quat_conj, quat_mul, su2_matrix, \
    unitary_quat
from .qmat import DensityMatrix, Superoperator, UnitaryMatrix, \
    clamped_eigenvalues, spectrum_purities
from .ueb import UnitaryErrorBasis

__all__ = [
    "TeleportationSpec",
    "ChannelEstimate",
    "u1_teleportation_spec",
    "su2_teleportation_spec",
    "conventional_channel",
    "result_estimates",
    "mean_result_purity",
    "mix_estimates",
    "single_shot_simulate",
    "fourth_moment_map",
]

_BATCH = 1 << 13
_N_BLOCKS = 64
_N_BOOT = 64
_BOOT_OFFSET = 1 << 44

# Row 4j + k is kron(conj M_j, M_k), column-stacked, with M_j the SU(2)
# matrix of the j-th unit quaternion; contracting a second moment with it
# gives the superoperator sum.
_BASIS = su2_matrix(np.eye(4))
_MOMENT_TO_SUPEROP = np.einsum("jab,kcd->jkacbd", _BASIS.conj(),
                               _BASIS).reshape(16, 16)


# ---------------------------------------------------------------------------
# Protocol specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TeleportationSpec:
    """UEB and entangled-resource choice."""

    basis: UnitaryErrorBasis
    resource: UnitaryMatrix          # the X of the resource (1 (x) X)|Phi+>

    def __post_init__(self):
        basis = self.measurement_basis()
        dev = np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[0])))
        if dev > 1e-12:
            raise ValueError(f"measurement basis not orthonormal ({dev:.3e})")

    @property
    def dim(self) -> int:
        return self.basis.dim

    def measurement_basis(self) -> np.ndarray:
        """Columns |phi_x> = (1/sqrt d) sum_i |i> (U_x X)^T |i>."""
        d = self.dim
        cols = [(self.basis.mats[x] @ self.resource.mat).reshape(d * d)
                / np.sqrt(d) for x in range(self.basis.size)]
        return np.stack(cols, axis=1)

    def resource_state(self) -> np.ndarray:
        d = self.dim
        return (self.resource.mat.T).reshape(d * d) / np.sqrt(d)

    def premeasurement_unitary(self, x: int) -> np.ndarray:
        """The unitary M_x with Bob's conditional state M_x sigma M_x+."""
        u = self.basis.mats[x]
        xm = self.resource.mat
        return xm @ (u @ xm).conj().T


def u1_teleportation_spec(basis: UnitaryErrorBasis) -> TeleportationSpec:
    return TeleportationSpec(basis, UnitaryMatrix(np.eye(2)))


def su2_teleportation_spec(basis: UnitaryErrorBasis) -> TeleportationSpec:
    # The singlet resource: X = -iY is the unique choice invariant under
    # g (x) g up to phase.
    singlet_x = UnitaryMatrix(-1j * groups.PAULI_Y)
    return TeleportationSpec(basis, singlet_x)


# ---------------------------------------------------------------------------
# Channel estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelEstimate:
    """A qubit channel held as the second moment M = E[w w^T] of its net
    unit quaternions (real, PSD, trace 1), with provenance: method, sample
    count, and bootstrap replicate moments for error bars."""

    moment: np.ndarray                # (4, 4)
    method: str                       # "quadrature" | "monte-carlo"
    samples: int
    seed: int | None
    pre_norm_deviation: float = 0.0
    replicates: np.ndarray | None = None   # (B, 4, 4) bootstrap moments

    @property
    def superop(self) -> Superoperator:
        return Superoperator(_moment_superop(self.moment))

    @property
    def stderr(self) -> np.ndarray | None:
        """(d^2, d^2) per-entry bootstrap standard error of superop."""
        if self.replicates is None:
            return None
        return np.std(_moment_superop(self.replicates), axis=0, ddof=1)

    def map_purity(self) -> float:
        return float(spectrum_purities(self.choi_spectrum())[0])

    def linear_purity(self) -> float:
        return float(spectrum_purities(self.choi_spectrum())[1])

    def map_purity_with_error(self) -> tuple[float, float]:
        value = self.map_purity()
        if self.replicates is None:
            return value, 0.0
        reps = spectrum_purities(clamped_eigenvalues(self.replicates))[0]
        return value, float(np.std(reps, ddof=1))

    def choi_spectrum(self) -> np.ndarray:
        return clamped_eigenvalues(self.moment)

    def transformed(self, r: np.ndarray) -> "ChannelEstimate":
        """Pre/post-compose with conjugation by R = su2_matrix(r):
        T -> [R] o T o [R+]."""
        c = _conjugation_map(r)
        reps = None if self.replicates is None else \
            c.T @ self.replicates @ c
        return replace(self, moment=c.T @ self.moment @ c, replicates=reps)


def _exact_estimate(moment: np.ndarray, pre_norm_deviation: float = 0.0
                    ) -> ChannelEstimate:
    return ChannelEstimate(moment, "quadrature", 0, None, pre_norm_deviation)


def mix_estimates(parts: list[ChannelEstimate]) -> ChannelEstimate:
    """Equal-weight mixture of channel estimates.

    Replicates are combined index by index, which is right for parts drawn
    from one sample stream (orbit-mates of one base channel) and for
    independent parts (the results of a conventional channel).
    """
    w = 1.0 / len(parts)
    reps = None
    if any(e.replicates is not None for e in parts):
        reps = sum(w * (e.moment if e.replicates is None else e.replicates)
                   for e in parts)
    method = "quadrature" if all(e.method == "quadrature" for e in parts) \
        else "monte-carlo"
    return ChannelEstimate(sum(w * e.moment for e in parts), method,
                           max(e.samples for e in parts),
                           next((e.seed for e in parts if e.seed is not None),
                                None),
                           max(e.pre_norm_deviation for e in parts), reps)


def _finish_mc(moments: np.ndarray, samples: int, stream: HaarStream,
               pre_norm_deviation: float) -> ChannelEstimate:
    """Normalize per-block moments to a trace-1 estimate with block-bootstrap
    replicates; a block's trace is its count of accepted draws."""
    total = moments.sum(axis=0)
    norm = np.trace(total)
    if norm <= 0:
        raise RuntimeError("no accepted Monte Carlo samples")
    rng = stream.advance(_BOOT_OFFSET).generator()
    n_blocks = moments.shape[0]
    picks = rng.integers(0, n_blocks, size=(_N_BOOT, n_blocks))
    reps = moments[picks].sum(axis=1)
    reps /= np.trace(reps, axis1=1, axis2=2)[:, None, None]
    return ChannelEstimate(total / norm, "monte-carlo", samples,
                           stream.seed, pre_norm_deviation, reps)


def _moment(w: np.ndarray) -> np.ndarray:
    """Second moment sum_n w_n w_n^T of a quaternion batch (n, 4)."""
    return w.T @ w


def _moment_superop(moments: np.ndarray) -> np.ndarray:
    """Map second moments (..., 4, 4) to the sums of the conjugation
    superoperators of the quaternions they were taken over."""
    flat = moments.reshape(moments.shape[:-2] + (16,))
    return (flat @ _MOMENT_TO_SUPEROP).reshape(moments.shape)


def _mc_accumulate(sample_fn: Callable[[Generator, int], tuple[np.ndarray, np.ndarray | None]],
                   samples: int, stream: HaarStream) -> tuple[np.ndarray, int]:
    """Accumulate the second moments of batch-sampled net quaternions into
    _N_BLOCKS block moments over contiguous ranges of the sample index, and
    count the accepted draws.  sample_fn returns (quaternions of the accepted
    draws (k, 4), accept mask over the m draws or None)."""
    moments = np.zeros((_N_BLOCKS, 4, 4))
    accepted = 0
    done = 0
    s = stream
    while done < samples:
        m = min(_BATCH, samples - done)
        rng = s.generator()
        s = s.advance()
        w, accept = sample_fn(rng, m)
        idx = np.arange(done, done + m)
        if accept is not None:
            idx = idx[accept]
        # Buckets ascend with the sample index, so each block is one slice.
        edges = np.searchsorted(idx * _N_BLOCKS // samples,
                                np.arange(_N_BLOCKS + 1))
        for b in np.flatnonzero(np.diff(edges)):
            moments[b] += _moment(w[edges[b]:edges[b + 1]])
        accepted += len(w)
        done += m
    return moments, accepted


def _conjugation_map(u: np.ndarray) -> np.ndarray:
    """The orthogonal C with w @ C = u w u-bar for quaternion rows w: row k
    of C is u e_k u-bar."""
    return quat_mul(quat_mul(u, np.eye(4)), quat_conj(u))


def _channel_quats(g: np.ndarray, conj_by_u: np.ndarray) -> np.ndarray:
    """Quaternions of W(g) = rho(g)+ U_i rho(g) U_i+ for a batch of group
    quaternions g (n, 4), given the conjugation map of U_i's quaternion."""
    return quat_mul(quat_conj(g), g @ conj_by_u)


def fourth_moment_map(form: np.ndarray, t4: np.ndarray) -> np.ndarray:
    """Second moments E[w w^T] (..., n, n) of the quadratic forms
    w_j = sum_ab g_a g_b form[..., a, b, j] (..., 4, 4, n) of a random
    quaternion g with fourth moment t4 = E[g (x) g (x) g (x) g] (4, 4, 4, 4):
    F^T T4 F with F the form as a 16 x n matrix."""
    f = form.reshape(form.shape[:-3] + (16, form.shape[-1]))
    return np.swapaxes(f, -1, -2) @ t4.reshape(16, 16) @ f


def _exact_moment(spec: TeleportationSpec, t4: np.ndarray, result: int
                  ) -> np.ndarray:
    """Moment of W(g) = rho(g)+ U_i rho(g) U_i+ over misalignments with fourth
    moment t4: its quaternion g-bar (g C) is the quadratic form whose row
    (a, b) is e_a-bar times row b of the conjugation map C."""
    form = quat_mul(quat_conj(np.eye(4))[:, None],
                    _conjugation_map(spec.basis.quats[result]))
    return fourth_moment_map(form, t4)


# ---------------------------------------------------------------------------
# Conventional channel
# ---------------------------------------------------------------------------

def conventional_channel(spec: TeleportationSpec, group: str,
                         result: int | str = "averaged",
                         method: str = "quadrature",
                         samples: int = 10 ** 6,
                         seed: int = 0) -> ChannelEstimate:
    """Misalignment-averaged channel of the conventional scheme:
    integral over g of [rho(g)+ U_i rho(g) U_i+], or the equal mix over i."""
    if result == "averaged":
        return mix_estimates([conventional_channel(spec, group, i, method,
                                                   samples, seed)
                              for i in range(spec.basis.size)])
    i = int(result)
    if method == "quadrature":
        return _exact_estimate(_exact_moment(
            spec, groups.haar_fourth_moment(group), i))
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    stream = HaarStream(group, seed).advance(i << 48)
    conj_by_u = _conjugation_map(spec.basis.quats[i])

    def sample_fn(rng, m):
        return _channel_quats(groups.haar_batch(group, rng, m),
                              conj_by_u), None

    moments, _ = _mc_accumulate(sample_fn, samples, stream)
    return _finish_mc(moments, samples, stream, 0.0)


# ---------------------------------------------------------------------------
# Encoded schemes
# ---------------------------------------------------------------------------

def _check_scheme_basis(spec: TeleportationSpec,
                        scheme: enc.EncodingScheme) -> None:
    """Raise unless the spec teleports with the UEB the scheme's
    equivariance data was computed for: its coset conjugations and orbit
    are meaningless for any other basis.  Matrices are compared within
    1e-12, since a spec and a scheme may hold separate copies of a basis."""
    mats, own = spec.basis.mats, scheme.eq.basis.mats
    if mats.shape != own.shape or np.max(np.abs(mats - own)) > 1e-12:
        raise ValueError("the spec's UEB is not the basis the scheme was "
                         "built on")


def result_estimates(spec: TeleportationSpec, scheme: enc.EncodingScheme,
                     results: Iterable[int], method: str = "mc",
                     samples: int = 10 ** 6, seed: int = 0
                     ) -> dict[int, ChannelEstimate]:
    """Channels of a tight or perfect scheme for the given results, over the
    Haar measure of its subgroup's ambient frame group, keyed in the order
    given; mix_estimates of all d^2 of them is the result-averaged channel.

    A result outside the scheme's orbit gets the exact conventional
    integral (Per-result channels, above).  A tight scheme's orbit results
    are conjugates of one base channel, computed only if one is asked for.
    A perfect scheme's orbit results each get the integral over the
    stabilizer of the encoded reading of [rho(s)+ U_i rho(s) U_i+]."""
    if method not in ("quadrature", "mc"):
        raise ValueError(f"unknown method {method!r}")
    _check_scheme_basis(spec, scheme)
    base = None
    out: dict[int, ChannelEstimate] = {}
    for i in results:
        if i not in scheme.indices:
            out[i] = conventional_channel(spec, scheme.subgroup.ambient, i,
                                          "quadrature")
        elif scheme.kind == "perfect":
            out[i] = _perfect_orbit_channel(spec, scheme, i, method, samples,
                                            seed)
        else:
            if base is None:
                base = _tight_base_channel(spec, scheme, method, samples,
                                           seed)
            # The base channel conjugated by i's coset representative.
            out[i] = base if i == min(scheme.indices) else base.transformed(
                scheme.subgroup.payloads[scheme.eq.coset_reps[i]])
    return out


def mean_result_purity(estimates: dict[int, ChannelEstimate]
                       ) -> tuple[float, float]:
    """Arithmetic mean of the per-result map purities with its standard
    error.  Orbit channels are conjugates sharing one sample set, so their
    purity errors add coherently."""
    purities, errors = zip(*(e.map_purity_with_error()
                             for e in estimates.values()))
    return float(np.mean(purities)), float(np.sum(errors) / len(errors))


def _tight_base_channel(spec: TeleportationSpec, scheme: enc.EncodingScheme,
                        method: str, samples: int, seed: int
                        ) -> ChannelEstimate:
    """The tight channel of the orbit base b,
    (|I_k| / mu(E_b)) integral of p(g) [rho(g)+ U_b rho(g) U_b+]; the orbit
    result i is its conjugate by the coset representative c_i of the
    scheme's equivariance data.  The overlap weight p(g) is realized (MC) by
    drawing g from Haar and x directly from E_b and rejecting only the
    (g, x) pairs whose transported reading leaves E_b, or (circle-group
    quadrature) by the pair identity on E_b."""
    b = min(scheme.indices)
    if method == "quadrature":
        if scheme.subgroup.ambient != "u1":
            raise ValueError("tight quadrature needs a circle-torsor scheme")
        # One arc per distinct reading of H: the Voronoi cells of a cyclic
        # group of m readings are arcs of half-width pi/(2m) about them.
        sub = scheme.subgroup
        readings = sub.payloads[groups.first_lifts(sub.payloads)]
        centers = readings[enc.decode_batch(scheme, readings) == b]
        moment = _exact_moment(spec, groups.arc_pair_fourth_moment(
            centers, np.pi / (2 * len(readings))), b)
        # The trace is E|g|^4 = 1; report how far the computed integral is
        # from it before rescaling.
        tr = np.trace(moment)
        return _exact_estimate(moment / tr, abs(tr - 1.0))
    group = scheme.subgroup.ambient
    stream = HaarStream(group, seed)
    conj_by_u = _conjugation_map(spec.basis.quats[b])

    def sample_fn(rng, m):
        payloads = groups.haar_batch(group, rng, m)
        x = scheme.sample_fn(b, rng, m)
        y = scheme.act_fn(payloads, x)
        accept = enc.decode_batch(scheme, y) == b
        return _channel_quats(np.compress(accept, payloads, axis=0),
                              conj_by_u), accept

    moments, accepted = _mc_accumulate(sample_fn, samples, stream)
    # The un-normalized theorem estimator has Choi trace |I_k| N_acc / N,
    # which should be 1; report its deviation before exact TP rescaling.
    dev = abs(len(scheme.indices) * accepted / samples - 1.0)
    return _finish_mc(moments, samples, stream, dev)


def _perfect_orbit_channel(spec: TeleportationSpec,
                           scheme: enc.EncodingScheme, result: int,
                           method: str, samples: int, seed: int
                           ) -> ChannelEstimate:
    """On a matched scheme (a free action) the stabilizer is trivial and
    the channel is the identity: quadrature returns it exactly, while MC
    simulates the reconstruction honestly (sample g and x, decode y = x g-bar
    to j, accumulate the correction z-bar W_j z with z = y g, times
    U_result-bar)."""
    if method == "quadrature":
        # The moment of the identity quaternion.
        return _exact_estimate(np.diag([1.0, 0.0, 0.0, 0.0]))
    group = scheme.subgroup.ambient
    stream = HaarStream(group, seed)
    table = _correction_table(spec, scheme)
    u_bar = quat_conj(spec.basis.quats[result])

    def sample_fn(rng, m):
        payloads = groups.haar_batch(group, rng, m)
        y = scheme.act_fn(payloads, scheme.sample_fn(result, rng, m))
        corr = _corrections(table, enc.decode_batch(scheme, y),
                            quat_mul(y, payloads))
        return quat_mul(corr, u_bar), None

    moments, _ = _mc_accumulate(sample_fn, samples, stream)
    return _finish_mc(moments, samples, stream, 0.0)


def _correction_table(spec: TeleportationSpec,
                      scheme: enc.EncodingScheme | None) -> np.ndarray:
    """Quaternions W_j (d^2, 4) by decoded label j of Alice's corrections
    C_A = z-bar W_j z.  Bob's U_j is g-bar U_j g in her frame: W_j = U_j,
    z = g.  On a perfect scheme's orbit he corrects with ghat U_j ghat-bar,
    realigned by ghat = y-bar xhat_j for the first point xhat_j of X_j and
    the reading y = x g-bar: W_j = xhat_j U_j xhat_j-bar and z = y g."""
    u = spec.basis.quats
    if scheme is None or scheme.kind != "perfect":
        return u
    orbit = list(scheme.indices)
    xhat = np.array([scheme.points[j][0] for j in orbit])
    w = u.copy()
    w[orbit] = quat_mul(quat_mul(xhat, u[orbit]), quat_conj(xhat))
    return w


def _corrections(table: np.ndarray, decoded: np.ndarray, z: np.ndarray
                 ) -> np.ndarray:
    """Alice's corrections z-bar W_j z for decoded labels j (n,) and
    conjugating quaternions z (n, 4), with W the _correction_table."""
    return quat_mul(quat_mul(quat_conj(z), np.take(table, decoded, axis=0)),
                    z)


def _born_draw(rng: Generator, p: np.ndarray, m: int) -> np.ndarray:
    """m inverse-CDF draws of results with probabilities p: the draw that
    Generator.choice(len(p), size=m, p=p) makes, without its checks of p."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(m), side="right")


# ---------------------------------------------------------------------------
# Single-shot simulator
# ---------------------------------------------------------------------------

def single_shot_simulate(spec: TeleportationSpec,
                         scheme: enc.EncodingScheme | None,
                         sigma: DensityMatrix, stream: HaarStream,
                         shots: int = 1) -> tuple[DensityMatrix, dict]:
    """End-to-end protocol simulation.

    Each shot samples a Haar misalignment on the stream's group (which must
    be the scheme's frame group), Alice's measurement result by Born
    probabilities, the transmitted reading, Bob's decode and correction,
    and returns the ensemble-mean output in Alice's frame together with a
    transcript.  Shots run in blocks of _BATCH: each block draws its results
    and misalignments from one results generator, and the readings of its
    orbit shots, in shot order, from one readings generator with one sample,
    act and decode call (a result outside the orbit is sent speakably).
    Alice's correction is one conjugation z-bar W_j z by the decoded label's
    row of _correction_table.  Each block writes its part of the transcript
    and adds the second moment of its net quaternions to the total.
    """
    if scheme is not None:
        _check_scheme_basis(spec, scheme)
        group = scheme.subgroup.ambient
        if stream.group != group:
            raise ValueError(f"stream group {stream.group!r} is not the "
                             f"scheme's frame group {group!r}")
    d = spec.dim
    n_res = spec.basis.size
    # Born probabilities of the measurement results.
    eta = spec.resource_state()
    joint = np.kron(sigma.mat, np.outer(eta, eta.conj()))
    meas = spec.measurement_basis()
    probs = np.array([
        np.trace(_project_first(joint, meas[:, x], d)).real
        for x in range(n_res)])
    probs = probs / probs.sum()
    pre = unitary_quat(np.stack([spec.premeasurement_unitary(x)
                                 for x in range(n_res)]))
    table = _correction_table(spec, scheme)
    in_orbit = np.isin(np.arange(n_res), () if scheme is None
                       else scheme.indices)

    rng_results = stream.generator()
    rng_read = stream.advance(1 << 40).generator()
    g = np.empty((shots, 4))
    results = np.empty(shots, dtype=np.int64)
    decoded = np.empty(shots, dtype=np.int64)
    moment = np.zeros((4, 4))
    for start in range(0, shots, _BATCH):
        block = slice(start, min(start + _BATCH, shots))
        m = block.stop - start
        res = results[block] = _born_draw(rng_results, probs, m)
        # z is a copy of the block's misalignments g, and y g on the orbit
        # of a perfect scheme.
        z = g[block] = groups.haar_batch(stream.group, rng_results, m)
        decoded[block] = res
        orbit = np.flatnonzero(in_orbit[res])
        if orbit.size:
            gs = np.take(z, orbit, axis=0)
            y = scheme.act_fn(gs, scheme.sample_fn(np.take(res, orbit),
                                                   rng_read, len(orbit)))
            decoded[block][orbit] = enc.decode_batch(scheme, y)
            if scheme.kind == "perfect":
                z[orbit] = quat_mul(y, gs)
        # Net shot unitaries V = C_A M_x.
        corr = _corrections(table, decoded[block], z)
        moment += _moment(quat_mul(corr, np.take(pre, res, axis=0)))

    mean_superop = Superoperator(_moment_superop(moment) / shots)
    out = mean_superop.apply(sigma.mat)
    out = 0.5 * (out + out.conj().T)
    out = out / np.trace(out).real
    transcript = {
        "seed": stream.seed,
        "g": g,
        "result": results,
        "decoded": decoded,
        "probs": probs,
        "mean_superop": mean_superop,
    }
    return DensityMatrix(out), transcript


def _project_first(joint: np.ndarray, phi: np.ndarray, d: int) -> np.ndarray:
    """<phi| acting on the first two tensor factors of a (d^2 * d) system."""
    j = joint.reshape(d * d, d, d * d, d)
    return np.einsum("a,abcd,c->bd", phi.conj(), j, phi)
