"""The four benchmark workloads: their CLI operations and output checks.

Every operation is one `frameport` command line, run in-process through
`frameport.cli.main`.  Each workload puts one layer under load and leaves
another idle, so that an optimisation of a layer has a workload where it
should move the end-to-end time and one where the prediction is "no change":

- conventional-mc: Haar sampling, unitary composition, accumulation and
  bootstrap of the conventional SU(2) channel.  `encoding` does no work, so
  it is the no-change check for tight-path changes.
- tight-mc: the two SU(2) tight schemes, dominated by the rejection sampler
  and the Voronoi decode in `encoding` and `groups`.
- optimize-scan: the SU(2) basis scan, whose MC objective re-draws a frozen
  Haar set on every call; the only command that honours `--threads`.
  `encoding`, `channel` and `_kernels` do no work here.
- exact-paths: quadrature channels, the structural verification suite,
  perfect-scheme MC and simulation, and the U(1) Nelder-Mead search.  Same
  modules, but deterministic quadrature and many small-batch decodes, so a
  change that only pays off on 2^17 batches shows its per-call cost here.

Checks use references the acceptance suite encodes or closed forms derived
in the comments.  Every check returns a list of problems; an empty list is a
pass.  This module imports nothing from numpy so that importing it does not
disturb the set-up timing of a fresh worker process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# The MC sample count of the channel operations: half of the channel
# module's 2^17 batch, so a smaller batch shows in peak memory, while a run
# of tight-mc stays short enough to repeat many times in one process.
SAMPLES = 1 << 16
OPTIMIZE_SAMPLES = 10_000
SHOTS = 100_000
# Smallest sample count the CLI accepts.
MIN_SAMPLES = 1000

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    checks: tuple                 # each: payload -> list of problems
    standing: tuple = ()          # checks known to fail at this commit


@dataclass(frozen=True)
class Workload:
    name: str
    bundles: tuple                # scheme bundles built during set-up
    ops: tuple


# ---------------------------------------------------------------------------
# Payload helpers
# ---------------------------------------------------------------------------

def _superop(payload: dict) -> list:
    return [[complex(re, im) for re, im in row]
            for row in payload["superoperator"]]


def _max_dev(mat: list, ref: list) -> float:
    return max(abs(a - b) for row, rrow in zip(mat, ref)
               for a, b in zip(row, rrow))


def _diag(values) -> list:
    n = len(values)
    return [[complex(values[i]) if i == j else 0j for j in range(n)]
            for i in range(n)]


def _near(label: str, got: float, want: float, tol: float) -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{label} {got:.6g} outside {want:.6g} +- {tol:.3g}"]


def _below(label: str, got: float, ceiling: float) -> list:
    if got <= ceiling:
        return []
    return [f"{label} {got:.3g} above ceiling {ceiling:.3g}"]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def purity_band(key: str, want: float, tol: float) -> Check:
    return lambda p: _near(key, p[key], want, tol)


def stderr_ceiling(key: str, ceiling: float) -> Check:
    """Fails an MC estimate whose reported error grew, so that doing less
    work for a worse estimate is a failure rather than a speed-up.  Ceilings
    are about 1.5 times the largest error seen over seeds 0-9."""
    return lambda p: _below(key, p[key], ceiling)


def choi_spectrum(ref: tuple, tol: float) -> Check:
    def check(p):
        got = sorted(p["choi_spectrum"], reverse=True)
        if max(abs(a - b) for a, b in zip(got, ref)) <= tol:
            return []
        return [f"choi spectrum {[round(v, 4) for v in got]} not within "
                f"{tol} of {[round(v, 4) for v in ref]}"]
    return check


def superop_is(ref: list, tol: float) -> Check:
    def check(p):
        dev = _max_dev(_superop(p), ref)
        return [] if dev <= tol else [f"superoperator deviates by {dev:.3g}"]
    return check


def superop_entry(i: int, j: int, want: float, tol: float) -> Check:
    return lambda p: _near(f"superoperator[{i},{j}]", _superop(p)[i][j].real,
                           want, tol)


def perfect_identity(p: dict) -> list:
    # Acceptance 2 bounds each entry by 3 max(stderr, 1e-7); the CLI reports
    # only the purity error, which bounds the entry errors of a channel this
    # close to the identity.
    tol = 3 * max(p["map_purity_stderr"], 1e-7)
    return superop_is(_diag([1, 1, 1, 1]), tol)(p)


def flag(key: str) -> Check:
    return lambda p: [] if p[key] is True else [f"{key} is {p[key]!r}"]


def fidelity_one(p: dict) -> list:
    problems = _near("input_fidelity", p["input_fidelity"], 1.0, 1e-9)
    shots = sum(p["result_counts"].values())
    if shots != p["shots"]:
        problems.append(f"result counts sum to {shots}, not {p['shots']}")
    return problems


def optimize_stderr(ceiling: float) -> Check:
    return lambda p: _below("max row stderr",
                            max(r["stderr"] for r in p["rows"]), ceiling)


# Closed forms.  For result i != 0 the conventional SU(2) channel is
# E_n[(n.sigma) sigma_i rho sigma_i (n.sigma)] with n uniform on S^2, i.e. the
# Pauli channel (1/3)(rho + sigma_j rho sigma_j + sigma_k rho sigma_k): Choi
# spectrum (1/3, 1/3, 1/3, 0).  The result-averaged channel is then
# rho/2 + (1/6) sum_c sigma_c rho sigma_c: Choi spectrum (1/2, 1/6, 1/6, 1/6).
# map purity is 1 - S(Choi)/ln 4.
SU2_RESULT_SPECTRUM = (1 / 3, 1 / 3, 1 / 3, 0.0)
SU2_AVERAGED_SPECTRUM = (1 / 2, 1 / 6, 1 / 6, 1 / 6)


def _map_purity(spectrum) -> float:
    return 1 - -sum(v * math.log(v) for v in spectrum if v > 0) / math.log(4)


U1_TIGHT_ENTRY = 2 / math.pi ** 2 + 0.5


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def build(threads: int, seed: int, scale: int = 1) -> dict:
    """All workloads, with `--threads` and `--seed` fixed and sample counts
    divided by `scale` (the smoke check runs them at a tiny budget)."""
    samples = max(SAMPLES // scale, MIN_SAMPLES)
    opt_samples = max(OPTIMIZE_SAMPLES // scale, MIN_SAMPLES)
    shots = max(SHOTS // scale, MIN_SAMPLES)
    common = ("--seed", str(seed), "--threads", str(threads))
    mc = ("--samples", str(samples)) + common

    def ceiling(value):
        return value * math.sqrt(SAMPLES / samples)

    conventional = Workload("conventional-mc", ("su2-conventional",), (
        Op("channel su2-conventional averaged",
           ("channel", "--scheme", "su2-conventional") + mc,
           (choi_spectrum(SU2_AVERAGED_SPECTRUM, 0.01),
            purity_band("map_purity", _map_purity(SU2_AVERAGED_SPECTRUM),
                        0.01),
            stderr_ceiling("map_purity_stderr", ceiling(6e-4)))),
        Op("channel su2-conventional result 1",
           ("channel", "--scheme", "su2-conventional", "--result", "1") + mc,
           (choi_spectrum(SU2_RESULT_SPECTRUM, 0.01),
            purity_band("map_purity", 0.2075, 0.01),
            stderr_ceiling("map_purity_stderr", ceiling(3e-5)))),
    ))

    tight_errors = (stderr_ceiling("map_purity_stderr", ceiling(3e-3)),
                    stderr_ceiling("mean_result_purity_stderr", ceiling(1.5e-3)))
    tight_mc = Workload("tight-mc", ("su2-matched-tight", "su2-rod-tight"), (
        Op("channel su2-matched-tight averaged",
           ("channel", "--scheme", "su2-matched-tight") + mc,
           tight_errors,
           # Acceptance 6: the published band, which the code misses
           # (0.4505) until the matched-tight figure is settled.
           standing=(purity_band("mean_result_purity", 0.32, 0.04),)),
        Op("channel su2-rod-tight averaged",
           ("channel", "--scheme", "su2-rod-tight") + mc,
           tight_errors + (purity_band("mean_result_purity", 0.44, 0.05),)),
    ))

    optimize_scan = Workload("optimize-scan", (), (
        Op("optimize su2",
           ("optimize", "--group", "su2", "--samples", str(opt_samples))
           + common,
           (flag("pauli_is_optimal"),
            optimize_stderr(5e-3 * math.sqrt(OPTIMIZE_SAMPLES / opt_samples)))),
    ))

    exact_paths = Workload(
        "exact-paths",
        ("u1-conventional", "u1-tight", "u1-perfect", "su2-matched-tight",
         "su2-rod-tight", "su2-btet-perfect"), (
            Op("verify all", ("verify", "--all") + common,
               (flag("ok"),)),
            Op("channel u1-conventional",
               ("channel", "--scheme", "u1-conventional") + common,
               (superop_is(_diag([1, 0.5, 0.5, 1]), 1e-9),
                purity_band("map_purity", 0.594, 0.005))),
            Op("channel u1-tight",
               ("channel", "--scheme", "u1-tight") + common,
               (superop_entry(1, 1, U1_TIGHT_ENTRY, 1e-6),)),
            Op("channel su2-btet-perfect mc",
               ("channel", "--scheme", "su2-btet-perfect", "--method", "mc")
               + mc,
               (perfect_identity,
                stderr_ceiling("map_purity_stderr", 1e-6))),
            # The perfect scheme restores every basis state exactly; the
            # U(1) misalignments and corrections are diagonal phases times
            # Paulis, so a basis state keeps its population under u1-tight.
            Op("simulate su2-btet-perfect",
               ("simulate", "--scheme", "su2-btet-perfect", "--shots",
                str(shots)) + common,
               (fidelity_one,)),
            Op("simulate u1-tight",
               ("simulate", "--scheme", "u1-tight", "--shots", str(shots))
               + common,
               (fidelity_one,)),
            # Fixed seed: the Nelder-Mead restarts start from seeded points
            # and their length varies 1.6-fold between seeds, which would
            # swamp the run-to-run comparison.
            Op("optimize u1", ("optimize", "--group", "u1", "--seed", "0",
                               "--threads", str(threads)),
               (flag("pauli_is_optimal"),)),
        ))

    return {w.name: w for w in (conventional, tight_mc, optimize_scan,
                                exact_paths)}


def run_checks(checks: tuple, payload: dict) -> list:
    problems = []
    for check in checks:
        try:
            problems += check(payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
    return problems
