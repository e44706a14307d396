"""Command-line entry point.

Subcommands
-----------
- verify: structural suites (group axioms, UEB orthonormality, equivariance,
  scheme compatibility, finite-subgroup perfection), all exact.
- channel: compute one scheme's effective channel and purity figures,
  exactly by default, or by seeded Monte Carlo with --method mc.
- table1: the exact channel-purity table of the conventional and tight
  schemes, as channel --method quadrature prints it.
- simulate: end-to-end single-shot protocol runs.
- optimize: the exact extremes of the conventional purity over UEBs.

All outputs are stamped with a build id, the number of random samples the
command drew, and the seed of their stream (null where none was drawn), and
are bit-reproducible given the same configuration and seed (except for the
wall-time column, which reports the actual run).  Exit codes: 0 success,
1 verification failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import channel as ch
from . import encoding as enc
from . import groups
from . import ueb as ueb_mod

__all__ = ["main", "build_id", "builtin_scheme", "SCHEME_NAMES"]


@functools.cache
def build_id() -> str:
    """Short content hash of the package sources (CRC-32 and Adler-32 of
    their names and bytes), taken once per process, as the code a process
    runs is the code it imported."""
    pkg = Path(__file__).resolve().parent
    crc, adler = 0, 1
    for path in sorted(pkg.rglob("*.py")):
        for chunk in (path.name.encode(), path.read_bytes()):
            crc = zlib.crc32(chunk, crc)
            adler = zlib.adler32(chunk, adler)
    return f"{crc:08x}{adler:08x}"[:12]


# ---------------------------------------------------------------------------
# Builtin registry
# ---------------------------------------------------------------------------

class SchemeBundle(NamedTuple):
    name: str
    group: str                  # misalignment group to integrate over
    variant: str                # conventional | tight | perfect
    basis: ueb_mod.UnitaryErrorBasis
    scheme: enc.EncodingScheme | None


# name: (misalignment group, variant, UEB, frame subgroup, orbit base).  An
# encoded scheme is built on its subgroup for the orbit of its base index;
# an orbit base of None there means the rod scheme, which builds its own
# Pauli x BOct data.
_SCHEMES = {
    "u1-conventional": ("u1", "conventional", "pauli", None, None),
    "u1-tight": ("u1", "tight", "pauli", "z8", 1),
    "u1-perfect": ("u1", "perfect", "pauli", "z8", 1),
    "su2-conventional": ("su2", "conventional", "pauli", None, None),
    "su2-matched-tight": ("su2", "tight", "pauli", "boct", 1),
    "su2-rod-tight": ("su2", "tight", "pauli", "boct", None),
    "su2-btet-perfect": ("su2", "perfect", "tetrahedral", "btet", 0),
}
_ALIASES = {"su2-boct-tight": "su2-matched-tight"}

SCHEME_NAMES = tuple(_SCHEMES)
# The schemes that carry an encoding, and so have scheme-level checks.
ENCODED_SCHEMES = tuple(name for name, row in _SCHEMES.items()
                        if row[3] is not None)


def builtin_scheme(name: str) -> SchemeBundle:
    """The bundle of a scheme name or alias, built once per process."""
    name = _ALIASES.get(name, name)
    if name not in _SCHEMES:
        raise ConfigError(
            f"unknown scheme {name!r}; available: {', '.join(SCHEME_NAMES)}")
    return _scheme_bundle(name)


@functools.cache
def _scheme_bundle(name: str) -> SchemeBundle:
    group, variant, ueb_name, sub_name, base = _SCHEMES[name]
    basis = _UEBS[ueb_name]()
    if sub_name is None:
        return SchemeBundle(name, group, variant, basis, None)
    if base is None:
        return SchemeBundle(name, group, variant, basis, enc.rod_scheme())
    eq = ueb_mod.equivariance_analysis(basis,
                                       groups.subgroup_by_name(sub_name))
    matched = (enc.tight_matched_scheme if variant == "tight"
               else enc.perfect_matched_scheme)
    return SchemeBundle(name, group, variant, basis, matched(eq, base))


_UEBS: dict[str, Callable[[], ueb_mod.UnitaryErrorBasis]] = {
    "pauli": ueb_mod.pauli_ueb,
    "tetrahedral": ueb_mod.tetrahedral_ueb,
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _to_json(obj):
    """JSON form of complex numbers and of numpy arrays and scalars."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(args, payload: dict, rows: list[dict], samples: int) -> None:
    """Write a payload, with a meta that reports the random samples the
    command drew and, where it drew any, the seed of their stream."""
    meta = {"seed": args.seed if samples else None, "samples": samples,
            "build": build_id()}
    if args.format == "json":
        # One line: without indent, json.dumps runs the C encoder.
        text = json.dumps({"meta": meta} | payload, default=_to_json)
    else:
        import csv
        buf = io.StringIO()
        buf.write(f"# build {meta['build']} seed {json.dumps(meta['seed'])}\n")
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        try:
            Path(args.out).write_text(text if text.endswith("\n")
                                      else text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_groups(report: dict) -> bool:
    ok = True
    for name in ("z4", "z8", "tet", "btet", "boct"):
        try:
            sub = groups.subgroup_by_name(name)
            sub.check_axioms()
            report[f"group:{name}"] = {"ok": True, "order": sub.order}
        except Exception as exc:            # noqa: BLE001 - report and fail
            ok = False
            report[f"group:{name}"] = {"ok": False, "error": str(exc)}
    return ok


def _verify_uebs(report: dict) -> bool:
    ok = True
    for name, ctor in _UEBS.items():
        try:
            passed, dev = ueb_mod.check_ueb(ctor().quats, tol=1e-12)
            report[f"ueb:{name}"] = {"ok": passed, "max_deviation": dev}
        except ValueError as exc:
            passed = False
            report[f"ueb:{name}"] = {"ok": False, "error": str(exc)}
        ok = ok and passed
    return ok


_EQ_PAIRS = (("pauli", "z4"), ("pauli", "z8"),
             ("pauli", "boct"), ("tetrahedral", "btet"))
# A UEB's default subgroup is its last pair above: BOct for the Pauli basis,
# BTet for the tetrahedral one.
_DEFAULT_SUBGROUP = dict(_EQ_PAIRS)


def _verify_equivariance(report: dict, pairs=_EQ_PAIRS) -> bool:
    ok = True
    for ueb_name, sub_name in pairs:
        key = f"equivariance:{ueb_name}/{sub_name}"
        try:
            eq = ueb_mod.equivariance_analysis(
                _UEBS[ueb_name](), groups.subgroup_by_name(sub_name))
            report[key] = {"ok": True,
                           "orbits": [list(o) for o in eq.orbits],
                           "stabilizer_orders": {
                               str(b): len(s)
                               for b, s in eq.stabilizers.items()}}
        except ValueError as exc:
            ok = False
            report[key] = {"ok": False, "error": str(exc)}
    return ok


def _verify_schemes(report: dict, names=ENCODED_SCHEMES) -> bool:
    """Run the exact scheme checks of names; returns whether all passed."""
    ok = True
    for name in names:
        try:
            bundle = builtin_scheme(name)
        except ValueError as exc:
            ok = False
            for key in ("compatibility", "finite-subgroup"):
                report[f"{key}:{name}"] = {"ok": False, "error": str(exc)}
            continue
        for key, (passed, info) in zip(("compatibility", "finite-subgroup"),
                                       enc.check_scheme(bundle.scheme)):
            report[f"{key}:{name}"] = {"ok": passed} | info
            ok = ok and passed
    return ok


def cmd_verify(args) -> int:
    if args.all + bool(args.scheme) + bool(args.ueb or args.subgroup) > 1:
        raise ConfigError("give only one of --all, --scheme and "
                          "--ueb/--subgroup")
    report: dict = {}
    if args.scheme:
        ok = _verify_schemes(report, [args.scheme])
    elif args.ueb or args.subgroup:
        ueb_name = args.ueb or "pauli"
        sub_name = args.subgroup or _DEFAULT_SUBGROUP[ueb_name]
        ok = _verify_uebs(report)
        ok = _verify_equivariance(report, [(ueb_name, sub_name)]) and ok
    else:
        ok = _verify_groups(report)
        ok = _verify_uebs(report) and ok
        ok = _verify_equivariance(report) and ok
        ok = _verify_schemes(report) and ok
    # Every check is exact: nothing is drawn, so --seed has no effect.
    _emit(args, {"ok": ok, "checks": report},
          [{"check": k, "ok": v.get("ok")} for k, v in report.items()], 0)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def _channel_estimates(bundle: SchemeBundle, result, method: str,
                       samples: int, seed: int) -> list[ch.ChannelEstimate]:
    """The bundle's channel for one result or "averaged", followed, for a
    result-averaged encoded scheme, by its per-result channels."""
    averaged = result == "averaged"
    per_result = list(ch.result_estimates(
        bundle.scheme or bundle.basis, bundle.group,
        range(bundle.basis.size) if averaged else [result], method, samples,
        seed).values())
    if not averaged:
        return per_result
    mixed = ch.mix_estimates(per_result)
    return [mixed] if bundle.scheme is None else [mixed, *per_result]


def _index_arg(option: str, text, size: int, alternative: str = "") -> int:
    """A command-line index into a scheme bundle's range(size)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < size:
        raise ConfigError(f"{option} must be {alternative}an index in "
                          f"0..{size - 1}, got {text!r}")
    return value


def _purity_rows(bundle: SchemeBundle, result, samples: int,
                 purities: tuple[np.ndarray, np.ndarray, np.ndarray],
                 seed: int, seconds: float) -> tuple[list[tuple], list[dict]]:
    """The purity figures of a channel, as (interpretation, purity, stderr,
    linear purity), and the CSV rows formatted from them.  purities are the
    map purities, their errors and the linear purities of ch.purity_figures
    over the channel and, for a result-averaged encoded scheme, its
    per-result channels, whose figures enter as their means: the mean of
    the map purities, with the mean of their errors as its error, since
    orbit channels are conjugates sharing one sample set and their errors
    add coherently.  A row carries the seed only where the estimate drew
    samples."""
    label = "result-averaged" if result == "averaged" else f"result-{result}"
    purity, errors, linear = purities
    figures = [(label, float(purity[0]), float(errors[0]), float(linear[0]))]
    if len(purity) > 1:
        figures.append(("mean-result-purity", float(np.mean(purity[1:])),
                        float(np.mean(errors[1:])),
                        float(np.mean(linear[1:]))))
    rows = [{"scheme": bundle.name, "interpretation": interpretation,
             "purity": f"{p:.6f}", "stderr": f"{stderr:.6f}",
             "linear_purity": f"{lin:.6f}", "samples": samples,
             "seed": seed if samples else None,
             "seconds": f"{seconds:.3f}"}
            for interpretation, p, stderr, lin in figures]
    return figures, rows


def cmd_channel(args) -> int:
    bundle = builtin_scheme(args.scheme)
    result = args.result
    if result == "averaged" and bundle.variant == "perfect":
        # A perfect scheme's channel is computed for one result; the
        # default is result 0, and it is labelled so.
        result = 0
    elif result != "averaged":
        result = _index_arg("--result", result, bundle.basis.size,
                            "'averaged' or ")
    t0 = time.perf_counter()
    ests = _channel_estimates(bundle, result, args.method, args.samples,
                              args.seed)
    seconds = time.perf_counter() - t0
    est = ests[0]
    spectra, *purities = ch.purity_figures(ests)
    figures, rows = _purity_rows(bundle, result, est.samples, purities,
                                 args.seed, seconds)
    interpretation, purity, p_err, linear = figures[0]
    payload = {
        "scheme": bundle.name,
        "method": est.method,
        "interpretation": interpretation,
        "superoperator": est.superop,
        "choi_spectrum": spectra[0],
        "map_purity": purity,
        "map_purity_stderr": p_err,
        "linear_purity": linear,
        "pre_norm_deviation": est.pre_norm_deviation,
        "samples": est.samples,
        "seconds": seconds,
    }
    if len(figures) > 1:
        _, mean_p, mean_err, _ = figures[1]
        payload["mean_result_purity"] = mean_p
        payload["mean_result_purity_stderr"] = mean_err
    # An averaged conventional MC channel draws one stream per result.
    streams = bundle.basis.size if bundle.scheme is None and \
        result == "averaged" else 1
    _emit(args, payload, rows, est.samples * streams)
    return 0


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

# (scheme, result): the conventional and tight channels of both frame
# groups, and the rotation-group conventional channel of one result.
_TABLE1_ROWS = (("u1-conventional", "averaged"),
                ("u1-tight", "averaged"),
                ("su2-conventional", 1),
                ("su2-conventional", "averaged"),
                ("su2-matched-tight", "averaged"),
                ("su2-rod-tight", "averaged"))


def cmd_table1(args) -> int:
    """channel --method quadrature over _TABLE1_ROWS.  Every row is exact:
    nothing is drawn, so --samples and --seed have no effect."""
    rows: list[dict] = []
    table: list[dict] = []
    for name, result in _TABLE1_ROWS:
        bundle = builtin_scheme(name)
        t0 = time.perf_counter()
        ests = _channel_estimates(bundle, result, "quadrature", args.samples,
                                  args.seed)
        seconds = time.perf_counter() - t0
        part = _purity_rows(bundle, result, ests[0].samples,
                            ch.purity_figures(ests)[1:], args.seed,
                            seconds)[1]
        rows += part
        # JSON seconds are numbers, as in every other payload; the CSV
        # rows keep their three-decimal text.
        table += [row | {"seconds": seconds} for row in part]
    _emit(args, {"table": table}, rows, 0)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    bundle = builtin_scheme(args.scheme)
    # Qubit states: the input is a basis state |0> or |1>.
    _index_arg("--input", args.input, 2)
    sigma = np.zeros((2, 2), dtype=np.complex128)
    sigma[args.input, args.input] = 1.0
    stream = groups.HaarStream(bundle.group, args.seed)
    t0 = time.perf_counter()
    out, transcript = ch.single_shot_simulate(
        bundle.scheme or bundle.basis, ch.DensityMatrix(sigma), stream,
        shots=args.shots)
    seconds = time.perf_counter() - t0
    fidelity = float(out.mat[args.input, args.input].real)
    results, counts = np.unique(transcript["result"], return_counts=True)
    payload = {
        "scheme": bundle.name,
        "shots": args.shots,
        "input": args.input,
        "output_state": out.mat,
        "input_fidelity": fidelity,
        "result_counts": {int(r): int(c) for r, c in zip(results, counts)},
        "seconds": seconds,
    }
    _emit(args, payload,
          [{"scheme": bundle.name, "shots": args.shots,
            "input": args.input, "input_fidelity": f"{fidelity:.6f}",
            "seed": args.seed, "seconds": f"{seconds:.3f}"}], args.shots)
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    from .optimize import optimize_conventional_ueb
    t0 = time.perf_counter()
    found = optimize_conventional_ueb(args.group)
    seconds = time.perf_counter() - t0
    rows = [{"label": r.label,
             "params": " ".join(f"{p:.6f}" for p in r.params),
             "linear_purity": f"{r.linear_purity:.6f}",
             "stderr": f"{r.stderr:.6f}"} for r in found]
    listed = [r._asdict() | {"params": list(r.params)} for r in found]
    pauli, best = found[0], max(found, key=lambda r: r.linear_purity)
    payload = {
        "group": args.group,
        "baseline": listed[0],
        "rows": listed,
        "best": {"label": best.label, "params": list(best.params),
                 "linear_purity": best.linear_purity},
        "pauli_is_optimal": best.linear_purity <= pauli.linear_purity,
        "seconds": seconds,
    }
    # The objectives are exact: nothing is drawn, so --seed has no effect.
    _emit(args, payload, rows, 0)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors raise ConfigError, so that they exit 2 with a
    one-line message like every other configuration error."""

    def error(self, message):
        raise ConfigError(message)


def _bounded_int(low: int, below: int | None = None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (below is not None and value >= below):
            bound = f"in [{low}, {below})" if below is not None \
                else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "integer"
    return parse


# The CLI's seed range.  A seed keys groups.HaarStream, which takes any
# non-negative integer; the bound keeps seeds to one documented range.
_SEED_LIMIT = 1 << 64


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, and an error raises ConfigError out of it."""
    parser = _Parser(
        prog="frameport",
        description="Teleportation channels under reference-frame "
                    "uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--samples", type=_bounded_int(1000),
                       default=10 ** 6,
                       help="Monte Carlo samples; used by channel "
                            "--method mc")
        p.add_argument("--seed", type=_bounded_int(0, _SEED_LIMIT),
                       default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=_bounded_int(1), default=1,
                       help="accepted for compatibility; has no effect")

    p = sub.add_parser("verify", help="structural verification suites")
    p.add_argument("--all", action="store_true")
    p.add_argument("--scheme", choices=ENCODED_SCHEMES, default=None)
    p.add_argument("--ueb", choices=tuple(_UEBS), default=None)
    p.add_argument("--subgroup", choices=tuple(groups.SUBGROUPS),
                   default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("channel", help="compute an effective channel")
    p.add_argument("--scheme", required=True)
    p.add_argument("--result", default="averaged",
                   help="UEB result index or 'averaged'")
    p.add_argument("--method", choices=("mc", "quadrature"),
                   default="quadrature",
                   help="quadrature (default): the exact channel; mc: "
                        "seeded Monte Carlo over --samples draws")
    common(p)
    p.set_defaults(fn=cmd_channel)

    p = sub.add_parser("table1", help="channel-purity comparison table")
    common(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("simulate", help="single-shot protocol simulation")
    p.add_argument("--scheme", required=True)
    p.add_argument("--shots", type=_bounded_int(1), default=1000)
    p.add_argument("--input", type=int, default=0,
                   help="computational basis state index")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("optimize", help="exact conventional-purity extremes")
    p.add_argument("--group", choices=("u1", "su2"), required=True)
    common(p)
    p.set_defaults(fn=cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
