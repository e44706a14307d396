"""One fresh benchmark process: set up, then run a workload's operations.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,run,trace} --threads T [--scale K] [--spans FILE]

Set-up is `import frameport.cli` plus a cold build of every scheme bundle the
workload uses.  `run` then makes one warm-up run of the operations, whose
outputs are the reference, and times further runs through `cli.main` until
S seconds have passed.  `trace` does the same with every layer wrapped from
the start (see tracer.py) and writes its spans to FILE.  Every timed run and
every set-up is paired with a calibration that tracks the machine's speed
(see Calibration).  The last line of standard output is one JSON object
with the measurements.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import re
import resource
import statistics
import sys
import time
import traceback

import tracer as tracing
import workloads

MIN_RUNS = 3
# Nominal seconds of one calibration on the machine the bounds were set on
# (a 2-vCPU Xeon VM, where it took 0.075 s in its fast spells).
CAL_REF_S = 0.075
# The operations' own timings are the only output allowed to differ between
# runs; everything numerical must be bit-exact (acceptance 10 strips the same
# field).
_SECONDS = re.compile(r'"seconds": [0-9.e+-]+')
# Output fields copied into the record, to show how far a figure moved.
_ESTIMATES = ("map_purity", "map_purity_stderr", "mean_result_purity",
              "mean_result_purity_stderr", "input_fidelity", "ok",
              "pauli_is_optimal")


def _run_op(cli, op) -> tuple:
    """(exit code or error text, stdout, seconds) of one operation."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:                 # noqa: BLE001 - a failed op is counted
        code = traceback.format_exc(limit=3)
    return code, out.getvalue(), time.perf_counter() - t0


class Calibration:
    """A fixed mix of the work the operations do, timed next to every
    measurement: a real batched outer product, a complex 2x2 kron batch
    scattered into buckets, and an interpreter loop.

    The machines this runs on share their cores, and their speed swings by
    up to 1.5x over tens of seconds to minutes.  A time t measured next to a
    calibration that took c is reported as t * CAL_REF_S / c: the time the
    work would take with the machine at its reference speed.  Over three
    minutes of conventional-mc runs this cut the spread of 25-run medians
    from 0.32 to 0.09 (log range).  It owns its numpy data, made on first
    use so that importing this module loads no numpy.
    """

    def __init__(self):
        self._data = None

    def __call__(self) -> float:
        import numpy as np
        if self._data is None:
            rng = np.random.default_rng(0)
            self._data = (rng.random((1 << 16, 4)),
                          rng.random((1 << 15, 2, 2))
                          + 1j * rng.random((1 << 15, 2, 2)),
                          rng.integers(0, 64, size=1 << 15))
        x, w, buckets = self._data
        t0 = time.perf_counter()
        for _ in range(6):
            np.einsum("ni,nj->nij", x, x).sum(axis=0)
        kron = np.einsum("nab,ncd->nacbd", w.conj(), w).reshape(-1, 4, 4)
        np.add.at(np.zeros((64, 4, 4), dtype=complex), buckets, kron)
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - t0

    def median(self, n: int = 3) -> float:
        return statistics.median(self() for _ in range(n))


class Runs:
    """Outputs, timings and failures of repeated runs of a workload.  Every
    run is bracketed by calibrations; its scaled time uses their mean."""

    def __init__(self, workload, calibration: Calibration):
        self.ops = workload.ops
        self.calibration = calibration
        self.last_cal = calibration()
        self.reference = {}
        self.walls = []
        self.scaled = []
        self.cals = []
        self.op_walls = {op.label: [] for op in self.ops}
        self.attempted = 0
        self.failures = []
        self.standing = {}
        self.estimates = {}

    def run(self, cli, timed: bool = True) -> float:
        gc.collect()
        wall = 0.0
        for op in self.ops:
            code, text, seconds = _run_op(cli, op)
            wall += seconds
            if timed:
                self.op_walls[op.label].append(seconds)
            self.attempted += 1
            problems = self._check(op, code, text)
            if problems:
                self.failures.append({"op": op.label, "problems": problems})
        cal = self.calibration()
        if timed:
            mean_cal = (self.last_cal + cal) / 2
            self.walls.append(wall)
            self.cals.append(mean_cal)
            self.scaled.append(wall * CAL_REF_S / mean_cal)
        self.last_cal = cal
        return wall

    def _check(self, op, code, text) -> list:
        if code != 0:
            return [f"exit code {code!r}"]
        try:
            payload = json.loads(text)
        except ValueError:
            return ["output is not JSON"]
        problems = workloads.run_checks(op.checks, payload)
        if op.label not in self.reference:
            self.standing[op.label] = workloads.run_checks(op.standing,
                                                           payload)
            self.estimates[op.label] = {k: payload[k] for k in _ESTIMATES
                                        if k in payload}
        stripped = _SECONDS.sub('"seconds": 0', text)
        first = self.reference.setdefault(op.label, stripped)
        if stripped != first:
            problems.append("output differs from the first run")
        return problems

    def until(self, cli, seconds: float, min_runs: int = MIN_RUNS,
              after=None) -> None:
        """Timed runs until the next one would end after `seconds`;
        `after` is called after each."""
        deadline = time.perf_counter() + seconds
        while len(self.walls) < min_runs or \
                time.perf_counter() + self.walls[-1] <= deadline:
            self.run(cli)
            if after is not None:
                after()

    def report(self) -> dict:
        scaled = statistics.quantiles(self.scaled, n=4)
        raw = statistics.quantiles(self.walls, n=4)
        return {
            "wall_s": statistics.median(self.scaled),
            "wall_quartiles_s": [scaled[0], scaled[2]],
            "runs": len(self.walls),
            "raw_wall_median_s": statistics.median(self.walls),
            "raw_wall_quartiles_s": [raw[0], raw[2]],
            "raw_walls_s": self.walls,
            "calibration_s": self.cals,
            "op_median_s": {k: statistics.median(v)
                            for k, v in self.op_walls.items() if v},
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "standing_failures": {k: v for k, v in self.standing.items()
                                  if v},
            "estimates": self.estimates,
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    workload = workloads.build(args.threads, args.seed,
                               args.scale)[args.workload]

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.trace_imports()
    t0 = time.perf_counter()
    cli = importlib.import_module("frameport.cli")
    absent = tracer.install() if tracer else []
    for name in workload.bundles:
        cli.builtin_scheme(name)
    setup_s = time.perf_counter() - t0
    setup_spans = tracer.take() if tracer else None
    calibration = Calibration()
    setup_cal = calibration.median()
    kernels = sys.modules.get("frameport._kernels")
    out = {"setup_s": setup_s * CAL_REF_S / setup_cal, "raw_setup_s": setup_s,
           "setup_calibration_s": setup_cal, "build_id": cli.build_id(),
           "backend": getattr(kernels, "BACKEND", None),
           "numpy": sys.modules["numpy"].__version__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    runs = Runs(workload, calibration)
    runs.run(cli, timed=False)
    if tracer:
        tracer.take()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is None:
        runs.until(cli, args.seconds)
    else:
        reps = []
        runs.until(cli, args.seconds, min_runs=2,
                   after=lambda: reps.append(tracer.take()))
    out["cpu_util"] = (time.process_time() - cpu0) / (time.perf_counter()
                                                      - wall0)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out |= runs.report()
    if tracer:
        setup = tracing.summarize(setup_spans)
        summaries = [tracing.summarize(spans) for spans in reps]
        metrics, bases = tracing.layer_metrics(setup, summaries)
        out["layers"] = {k: v for k, (v, _) in metrics.items()}
        out["units"] = {k: u for k, (_, u) in metrics.items()}
        out["bases"] = bases
        out["absent"] = absent
        # Self times sum to the wall the traced calls cover, which should
        # match the mean of raw_walls_s: the gap is time spent outside them.
        out["self_sum_s"] = sum(row["self_s"] for s in summaries
                                for row in s["names"].values()) / len(reps)
        out["top_self_s"] = _top_self(summaries)
        if args.spans:
            _write_spans(args.spans, setup_spans, reps)
    print(json.dumps(out))
    return 0


def _top_self(summaries: list, n: int = 15) -> dict:
    """The names with the largest self time per traced run."""
    total = tracing.combine(summaries, 1.0 / len(summaries))["names"]
    top = sorted(total.items(), key=lambda kv: -kv[1]["self_s"])[:n]
    return {name: row["self_s"] for name, row in top}


def _write_spans(path: str, setup: list, reps: list) -> None:
    with open(path, "w") as fh:
        for phase, spans in [("setup", setup)] + [
                (f"run{i}", s) for i, s in enumerate(reps)]:
            for span in spans:
                fh.write(json.dumps([phase, *span]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
