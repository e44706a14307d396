"""The frameport benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and uses `src/` as it is; nothing is
built.  Workloads and their output checks are in workloads.py.  Every
operation passes `--threads` equal to the CPUs this process may use, and the
BLAS pools are pinned to one thread so that threads never exceed CPUs.

With `--trace 0` it reports the end-to-end metrics:

- wall_s: median wall time of one warm run of the workload's operations
  through `frameport.cli.main`, over the runs that fit in S seconds in one
  fresh process (quartiles and run count are printed and go to the record
  file);
- setup_s: median, over SETUP_RUNS fresh processes taken before and after
  the measuring one, of the time for `import frameport.cli` plus a cold
  build of the workload's scheme bundles;
- peak_rss_mb: peak resident memory of the workload process;
- pass_frac: operation runs that passed / operation runs attempted.  A run
  fails if it exits non-zero, fails an output check, or prints numbers that
  differ from the first run in the same process.

Both times are in reference seconds: each measured time is scaled by the
speed of the machine at that moment, taken from a fixed calibration kernel
timed next to it (worker.Calibration).  The raw times and calibrations go
to the record file.

With `--trace 1` it reports the per-layer metrics of tracer.py from a traced
fresh process, plus `process.cpu_util` and `trace.overhead_s` from an
untraced one, each measuring for S/2 seconds.

Seeds 0-9 are development seeds, for use while writing a change (the error
ceilings in workloads.py were set on them); re-check a claim on any other
seed, which the record marks as held out.  Every
record carries the git sha, build id, kernel backend, numpy and Python
versions, CPU count and model, `--threads` and the BLAS thread setting.  The
last line of standard output is the result object; the full record is
written to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 5
DEV_SEEDS = range(10)
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Each worker must end well inside the 180 s a whole run may take.
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _worker(args, mode: str, seconds: float, threads: int,
            spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode,
           "--threads", str(threads), "--scale", str(args.scale)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{var: BLAS_THREADS for var in _BLAS_VARS})
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _stamp(args, threads: int, worker: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_role": "development" if args.seed in DEV_SEEDS else "held-out",
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "git_sha": _git_sha(), "build_id": worker["build_id"],
        "backend": worker["backend"], "numpy": worker["numpy"],
        "python": platform.python_version(), "nproc": threads,
        "cpu_model": _cpu_model(), "threads": threads,
        "blas_threads": int(BLAS_THREADS),
    }


def _counts(*runs) -> tuple[int, int]:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return attempted, failed


def measure(args, threads: int) -> tuple[dict, dict, list]:
    """(metrics, record, worker reports) of one benchmark run."""
    if args.trace == 0:
        # Set-up samples on both sides of the run see more of the machine's
        # slow and fast spells than samples taken back to back.
        before = SETUP_RUNS // 2
        setups = [_worker(args, "setup", 0, threads) for _ in range(before)]
        run = _worker(args, "run", args.seconds, threads)
        setups += [_worker(args, "setup", 0, threads)
                   for _ in range(SETUP_RUNS - 1 - before)]
        attempted, failed = _counts(run)
        setup_times = [s["setup_s"] for s in setups] + [run["setup_s"]]
        metrics = {
            "wall_s": (run["wall_s"], "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "pass_frac": ((attempted - failed) / attempted, "ratio"),
        }
        return metrics, {"setup_times_s": setup_times,
                         "raw_setup_times_s": [s["raw_setup_s"]
                                               for s in setups + [run]],
                         "run": run}, [run]
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    base = _worker(args, "run", args.seconds / 2, threads)
    traced = _worker(args, "trace", args.seconds / 2, threads, spans)
    metrics = {k: (v, traced["units"][k]) for k, v in traced["layers"].items()}
    metrics["process.cpu_util"] = (base["cpu_util"], "ratio")
    metrics["trace.overhead_s"] = (traced["wall_s"] - base["wall_s"], "s")
    return metrics, {"untraced": base, "traced": traced,
                     "spans": str(spans.relative_to(ROOT))}, [base, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("conventional-mc", "tight-mc",
                                 "optimize-scan", "exact-paths"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide sample counts by this (smoke check)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "frameport" / "cli.py").is_file():
        print(f"error: no frameport sources under {ROOT / 'src'}; run from "
              "a source checkout", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    OUT_DIR.mkdir(exist_ok=True)
    try:
        metrics, record, reports = measure(args, threads)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = _counts(*reports)
    for report in reports:
        for failure in report["failures"]:
            print(f"failed: {failure['op']}: {failure['problems']}",
                  file=sys.stderr)
        for op, problems in report["standing_failures"].items():
            print(f"standing failure (not counted): {op}: {problems}",
                  file=sys.stderr)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    stamp = _stamp(args, threads, reports[0])
    path.write_text(json.dumps({"stamp": stamp, "result": result} | record,
                               indent=1) + "\n")
    print("stamp " + json.dumps(stamp))
    print("wall_s " + json.dumps({k: reports[0][k] for k in (
        "wall_s", "wall_quartiles_s", "runs", "raw_wall_median_s")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
