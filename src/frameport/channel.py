"""Assembly of the effective teleportation channels (conventional, tight,
perfect) by quadrature or seeded Monte Carlo, their purity figures, and an
end-to-end single-shot protocol simulator for cross-validation, which takes
and returns validated density matrices.

Frame conventions
-----------------
The misalignment g, a unit quaternion on either frame group, relates the two
parties' frames: an operator with matrix M in Bob's frame has matrix
rho(g)+ M rho(g) in Alice's frame.  rho(g) is su2_matrix(g) up to a phase
that cancels here, so g enters every formula as a quaternion.  Input and
output states are both expressed in Alice's frame, and the entangled
resource is shared in it, so the resource cancels from every output.

With resource eta = (1/sqrt d) sum_k |k> X|k> and measurement basis
|phi_x> = (1/sqrt d) sum_i |i> (U_x X)^T |i>, result x leaves Bob's half in
M_x sigma M_x+ with M_x = X (U_x X)+ = U_x+, whatever the unitary X, and
every result has probability 1/d^2 whatever sigma.  So a channel is fixed by
its UEB alone, or by its scheme, which carries the UEB it was built on; an
aligned correction U_x restores sigma exactly.

Per-result channels
-------------------
result_estimates computes the channels of chosen results for every
scheme.  A result of the conventional scheme gets the conventional integral
by the method asked for.  A tight or perfect scheme encodes only the
results in the orbit of its base index.  A result in a singleton orbit has
its label sent speakably, so it gets the exact conventional integral, by
quadrature whatever the method, in the same stacked call; an orbit result
gets the scheme's own twirl (Bartlett, Rudolph and Spekkens, Rev. Mod.
Phys. 79 (2007)).  A result-averaged channel is mix_estimates of all d^2
per-result channels, and every purity figure comes from purity_figures.

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
superoperator, a complex d^2 x d^2 array acting on column-stacked inputs
vec(sigma) = sigma.flatten(order='F'), is formed only for output (the
conjugation by U is kron(conj U, U)).  Entropies are in nats, and the map
purity is 1 - S/ln(d^2).  These operations are stacked over results: the
exact moments of several unitaries are one contraction, a tight scheme's
orbit results one conjugation C^T M C of its base moment and of its
replicates, and the purity figures of several estimates one eigenvalue
call over their moments and one over their replicates (purity_figures).

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
g = y-bar x for x and y independent with the fourth moment of the scheme's
moment_fn (groups.pair_fourth_moment).  On a matched scheme x and y are
uniform on E_b, as the pairs kept are those whose reading x g-bar = y stays
in E_b, and E_b's moment is the equal mix of its cells C_0 h, h labelled b.
On the rod x = h-bar, h uniform on the lift {h : R(h) e_z in E_b}.  Averaged
over the fibre of the axis R(h) e_z, the quartic in h depends on the axis
only through its second moments, and BOct's 8 lifts of an axis integrate
the fibre exactly, so the lift's moment is that of BOct's 48 elements with
c/16 on the 16 whose axis is +-e_b, (1 - c)/32 on the others, c = E n_b^2.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from . import encoding as enc
from . import groups
from .groups import HaarStream, quat_conj, quat_mul, su2_matrix
from .ueb import UnitaryErrorBasis

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "InvariantViolation",
    "DensityMatrix",
    "ChannelEstimate",
    "result_estimates",
    "purity_figures",
    "clamped_eigenvalues",
    "spectrum_purities",
    "mix_estimates",
    "single_shot_simulate",
    "fourth_moment_map",
]

_BATCH = 1 << 13
_N_BLOCKS = 64
_N_BOOT = 64
_BOOT_OFFSET = 1 << 44

# The unit quaternions e_k as rows, and their conjugates as a (4, 1, 4)
# column.
_UNITS = np.eye(4)
_UNITS_BAR = quat_conj(_UNITS)[:, None]
# Row 4j + k is kron(conj M_j, M_k), column-stacked, with M_j the SU(2)
# matrix of the j-th unit quaternion; contracting a second moment with it
# gives the superoperator sum.
_BASIS = su2_matrix(_UNITS)
_MOMENT_TO_SUPEROP = np.einsum("jab,kcd->jkacbd", _BASIS.conj(),
                               _BASIS).reshape(16, 16)


# ---------------------------------------------------------------------------
# Channel estimates
# ---------------------------------------------------------------------------

class ChannelEstimate(NamedTuple):
    """A qubit channel held as the second moment M = E[w w^T] of its net
    unit quaternions (real, PSD, trace 1), with provenance: sample count
    and, for a Monte Carlo estimate, bootstrap replicate moments for error
    bars."""

    moment: np.ndarray                # (4, 4)
    samples: int = 0
    pre_norm_deviation: float = 0.0
    replicates: np.ndarray | None = None   # (B, 4, 4) bootstrap moments

    @property
    def method(self) -> str:
        return "quadrature" if self.replicates is None else "monte-carlo"

    @property
    def superop(self) -> np.ndarray:
        """(d^2, d^2) complex superoperator, for output."""
        return _moment_superop(self.moment)

    @property
    def stderr(self) -> np.ndarray | None:
        """(d^2, d^2) per-entry bootstrap standard error of superop."""
        if self.replicates is None:
            return None
        return np.std(_moment_superop(self.replicates), axis=0, ddof=1)


def purity_figures(estimates: list[ChannelEstimate]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Choi spectra (k, 4), map purities (k,), their bootstrap standard
    errors (k,) (0 for an exact estimate) and linear purities (k,) of k
    estimates, from one eigenvalue call over their moments and one over
    all of their bootstrap replicates."""
    spectra = clamped_eigenvalues(np.stack([e.moment for e in estimates]))
    purity, linear = spectrum_purities(spectra)
    errors = np.zeros(len(estimates))
    sampled = [k for k, e in enumerate(estimates) if e.replicates is not None]
    if sampled:
        reps = np.stack([estimates[k].replicates for k in sampled])
        errors[sampled] = np.std(
            spectrum_purities(clamped_eigenvalues(reps))[0], axis=-1, ddof=1)
    return spectra, purity, errors, linear


def _entropy(vals: np.ndarray) -> np.ndarray:
    """-sum lambda ln lambda over the last axis in nats, with 0 ln 0 := 0."""
    return -np.sum(vals * np.log(np.where(vals > 0, vals, 1.0)), axis=-1)


def clamped_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending spectra of Hermitian matrices (..., n, n), with eigenvalues
    below 1e-14 read as 0."""
    vals = np.linalg.eigvalsh(mats)
    return np.where(vals < 1e-14, 0.0, vals)


def spectrum_purities(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized purity 1 - S/ln(n) and linear purity sum lambda^2 of
    unit-trace clamped spectra (..., n), such as Choi spectra (n = d^2)."""
    return (1.0 - _entropy(vals) / np.log(vals.shape[-1]),
            np.sum(vals * vals, axis=-1))


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
    return ChannelEstimate(sum(w * e.moment for e in parts),
                           max(e.samples for e in parts),
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
    return ChannelEstimate(total / norm, samples, pre_norm_deviation, reps)


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
    """The orthogonal maps C (..., 4, 4) with w @ C = u w u-bar for
    quaternion rows w, one per quaternion u (..., 4): row k of C is
    u e_k u-bar."""
    u = np.asarray(u)[..., None, :]
    return quat_mul(quat_mul(u, _UNITS), quat_conj(u))


def _conjugated(c: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """C^T M C (k, ..., 4, 4) for conjugation maps c (k, 4, 4) and moments
    (..., 4, 4): the moments of the channels conjugated by each map."""
    c = c.reshape(c.shape[:1] + (1,) * (moments.ndim - 2) + c.shape[1:])
    return np.swapaxes(c, -1, -2) @ moments @ c


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


def _exact_moment(u: np.ndarray, t4: np.ndarray) -> np.ndarray:
    """Moments (k, 4, 4) of W(g) = rho(g)+ U rho(g) U+ over misalignments
    with fourth moment t4, for the quaternions u (k, 4) of k unitaries U:
    the quaternion g-bar (g C) of W is the quadratic form whose row (a, b)
    is e_a-bar times row b of the conjugation map C of u."""
    form = quat_mul(_UNITS_BAR, _conjugation_map(u)[:, None])
    return fourth_moment_map(form, t4)


def _conventional_mc(basis: UnitaryErrorBasis, group: str, i: int,
                     samples: int, seed: int) -> ChannelEstimate:
    """The conventional channel of result i by MC, on its own counter range
    of the seed's stream."""
    stream = HaarStream(group, seed).advance(i << 48)
    conj_by_u = _conjugation_map(basis.quats[i])

    def sample_fn(rng, m):
        return _channel_quats(groups.haar_batch(group, rng, m),
                              conj_by_u), None

    moments, _ = _mc_accumulate(sample_fn, samples, stream)
    return _finish_mc(moments, samples, stream, 0.0)


# ---------------------------------------------------------------------------
# Per-result channels
# ---------------------------------------------------------------------------

def result_estimates(spec: UnitaryErrorBasis | enc.EncodingScheme,
                     group: str, results: Iterable[int], method: str,
                     samples: int = 10 ** 6,
                     seed: int = 0) -> dict[int, ChannelEstimate]:
    """Channels over the Haar measure of the frame group for the given
    results, keyed in the order given, of the conventional scheme with the
    UEB spec or of the encoded scheme spec with the UEB it was built on,
    whose frame group must be its subgroup's ambient group; mix_estimates
    of all d^2 of them is the result-averaged channel.

    A conventional result, and a result outside a scheme's orbit, gets the
    conventional integral, always exact for a scheme (Per-result channels,
    above).  A tight scheme's orbit results are conjugates of one base
    channel, computed only if one is asked for.  A perfect scheme's orbit
    results each get the integral over the stabilizer of the encoded
    reading of [rho(s)+ U_i rho(s) U_i+]."""
    if method not in ("quadrature", "mc"):
        raise ValueError(f"unknown method {method!r}")
    scheme = spec if isinstance(spec, enc.EncodingScheme) else None
    basis = spec if scheme is None else scheme.eq.basis
    if scheme is not None and group != scheme.subgroup.ambient:
        raise ValueError(f"group {group!r} is not the scheme's frame "
                         f"group {scheme.subgroup.ambient!r}")
    results = list(results)
    out: dict[int, ChannelEstimate] = {}
    orbit = [] if scheme is None else \
        [i for i in results if i in scheme.indices]
    off = [i for i in results if i not in orbit]
    if off and scheme is None and method == "mc":
        out.update((i, _conventional_mc(basis, group, i, samples, seed))
                   for i in off)
    elif off:
        moments = _exact_moment(basis.quats[off],
                                groups.haar_fourth_moment(group))
        out.update(zip(off, map(ChannelEstimate, moments)))
    if orbit and scheme.kind == "perfect":
        out.update((i, _perfect_orbit_channel(scheme, i, method, samples,
                                              seed)) for i in orbit)
    elif orbit:
        base = _tight_base_channel(scheme, method, samples, seed)
        out[min(scheme.indices)] = base
        # The base channel conjugated by each other result's coset
        # representative, with its replicates.
        moved = [i for i in orbit if i != min(scheme.indices)]
        if moved:
            c = _conjugation_map(scheme.subgroup.payloads[
                [scheme.eq.coset_reps[i] for i in moved]])
            moments = _conjugated(c, base.moment)
            reps = [None] * len(moved) if base.replicates is None else \
                _conjugated(c, base.replicates)
            out.update((i, base._replace(moment=m, replicates=r))
                       for i, m, r in zip(moved, moments, reps))
    return {i: out[i] for i in results}


def _tight_base_channel(scheme: enc.EncodingScheme, method: str,
                        samples: int, seed: int) -> ChannelEstimate:
    """The tight channel of the orbit base b,
    (|I_k| / mu(E_b)) integral of p(g) [rho(g)+ U_b rho(g) U_b+]; the orbit
    result i is its conjugate by the coset representative c_i of the
    scheme's equivariance data.  The overlap weight p(g) is realized (MC) by
    drawing g from Haar and x directly from E_b and rejecting only the
    (g, x) pairs whose transported reading leaves E_b, or (quadrature) by
    the pair identity, as the scheme's pair_moment."""
    b = min(scheme.indices)
    u = scheme.eq.basis.quats[b]
    if method == "quadrature":
        moment = _exact_moment(u[None], scheme.pair_moment)[0]
        # The trace is E|g|^4 = 1; report how far the computed integral is
        # from it before rescaling.
        tr = np.trace(moment)
        return ChannelEstimate(moment / tr,
                               pre_norm_deviation=abs(tr - 1.0))
    group = scheme.subgroup.ambient
    stream = HaarStream(group, seed)
    conj_by_u = _conjugation_map(u)

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


def _perfect_orbit_channel(scheme: enc.EncodingScheme, result: int,
                           method: str, samples: int, seed: int
                           ) -> ChannelEstimate:
    """On a matched scheme (a free action) the stabilizer is trivial and
    the channel is the identity: quadrature returns it exactly, while MC
    simulates the reconstruction honestly (sample g and x, decode y = x g-bar
    to j, accumulate the correction z-bar W_j z with z = y g, times
    U_result-bar)."""
    if method == "quadrature":
        # The moment of the identity quaternion.
        return ChannelEstimate(np.diag([1.0, 0.0, 0.0, 0.0]))
    group = scheme.subgroup.ambient
    stream = HaarStream(group, seed)
    table = _correction_table(scheme.eq.basis, scheme)
    u_bar = quat_conj(scheme.eq.basis.quats[result])

    def sample_fn(rng, m):
        payloads = groups.haar_batch(group, rng, m)
        y = scheme.act_fn(payloads, scheme.sample_fn(result, rng, m))
        corr = _corrections(table, enc.decode_batch(scheme, y),
                            quat_mul(y, payloads))
        return quat_mul(corr, u_bar), None

    moments, _ = _mc_accumulate(sample_fn, samples, stream)
    return _finish_mc(moments, samples, stream, 0.0)


def _correction_table(basis: UnitaryErrorBasis,
                      scheme: enc.EncodingScheme | None) -> np.ndarray:
    """Quaternions W_j (d^2, 4) by decoded label j of Alice's corrections
    C_A = z-bar W_j z.  Bob's U_j is g-bar U_j g in her frame: W_j = U_j,
    z = g.  On a perfect scheme's orbit he corrects with ghat U_j ghat-bar,
    realigned by ghat = y-bar xhat_j for the first point xhat_j of X_j and
    the reading y = x g-bar: W_j = xhat_j U_j xhat_j-bar and z = y g."""
    u = basis.quats
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


# ---------------------------------------------------------------------------
# Single-shot simulator
# ---------------------------------------------------------------------------

class InvariantViolation(ValueError):
    """Raised when a matrix is not a density matrix."""


class DensityMatrix:
    """Finite, Hermitian, unit-trace, PSD (eigenvalues >= -1e-9) matrix."""

    def __init__(self, mat):
        self.mat = mat = np.asarray(mat, dtype=np.complex128)
        if not np.isfinite(mat).all():
            raise InvariantViolation("density matrix has a non-finite entry")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise InvariantViolation("density matrix is not Hermitian")
        tr = np.trace(mat)
        if abs(tr.real - 1.0) > 1e-12 or abs(tr.imag) > 1e-12:
            raise InvariantViolation(f"trace is {tr}, expected 1")
        lo = float(np.min(np.linalg.eigvalsh(mat)))
        if lo < -1e-9:
            raise InvariantViolation(f"negative eigenvalue {lo:.3e}")


def single_shot_simulate(spec: UnitaryErrorBasis | enc.EncodingScheme,
                         sigma: DensityMatrix, stream: HaarStream,
                         shots: int = 1) -> tuple[DensityMatrix, dict]:
    """End-to-end protocol simulation of the conventional scheme with the
    UEB spec, or of the encoded scheme spec with the UEB it was built on.

    Each shot samples a Haar misalignment on the stream's group (which must
    be the scheme's frame group), Alice's measurement result uniformly (every
    result is equiprobable), the transmitted reading, Bob's decode and
    correction, and returns the ensemble-mean output in Alice's frame
    together with a transcript.  Shots run in blocks of _BATCH: each block
    draws its results and misalignments from one results generator, and the
    readings of its orbit shots, in shot order, from one readings generator
    with one sample, act and decode call (a result outside the orbit is sent
    speakably).  Alice's correction is one conjugation z-bar W_j z by the
    decoded label's row of _correction_table.  Each block writes its part of
    the transcript and adds the second moment of its net quaternions to the
    total.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    scheme = spec if isinstance(spec, enc.EncodingScheme) else None
    basis = spec if scheme is None else scheme.eq.basis
    if scheme is not None and stream.group != scheme.subgroup.ambient:
        raise ValueError(f"stream group {stream.group!r} is not the "
                         f"scheme's frame group {scheme.subgroup.ambient!r}")
    n_res = basis.size
    # Bob's state before correction is M_x sigma M_x+ with M_x = U_x+.
    pre = quat_conj(basis.quats)
    table = _correction_table(basis, scheme)
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
        # floor(d^2 u): for d^2 = 4 the scaling is exact, so this is the
        # inverse-CDF draw of Generator.choice(4, p=[1/4] * 4), bit for bit.
        res = results[block] = (rng_results.random(m) * n_res).astype(
            np.int64)
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
                # np.put copies whole 32-byte rows, unlike z[orbit] = ...
                np.put(z.view("V32")[:, 0], orbit,
                       quat_mul(y, gs).view("V32"))
        # Net shot unitaries V = C_A M_x.
        corr = _corrections(table, decoded[block], z)
        moment += _moment(quat_mul(corr, np.take(pre, res, axis=0)))

    mean_superop = _moment_superop(moment) / shots
    out = (mean_superop @ sigma.mat.flatten(order="F")).reshape(
        2, 2, order="F")
    out = 0.5 * (out + out.conj().T)
    out = out / np.trace(out).real
    transcript = {
        "g": g,
        "result": results,
        "decoded": decoded,
        "mean_superop": mean_superop,
    }
    return DensityMatrix(out), transcript
