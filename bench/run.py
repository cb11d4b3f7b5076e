"""Protocol benchmark: run one workload, measured or traced.

Run from the repository root:

    python3 bench/run.py --workload feature_sweep --seed 1 --seconds 40 --trace 0

Both modes first generate the workload's inputs in their own process.
With --trace 0 the protocol then runs again and again, each time in a
fresh process with BLAS pinned to one thread, until --seconds have passed
(at least three times); every report is checked and the median of each
end-to-end metric printed.  With --trace 1 one plain and one traced
in-process run go side by side (and, for the pooled workload, one pooled
run follows, whose report must match the traced one byte for byte); the
per-layer metrics and the tracing overhead are printed.  The last line of
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

from checks import check_report  # noqa: E402
from workloads import WORKLOADS, cell_count  # noqa: E402

# Unpinned BLAS in each of the pool's workers oversubscribes the cores.  A
# fixed hash seed keeps dict and set layouts the same from run to run.
PINNED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)}
PINNED["PYTHONHASHSEED"] = "0"
MIN_REPEATS = 3
# A run ends within --seconds plus this margin; a child still running then
# is killed and its cells count as failed.
MARGIN_S = 60.0


class RunFailed(Exception):
    pass


def _start(script: str, *args: str) -> subprocess.Popen:
    """Start a bench script in a fresh interpreter, in a session of its own
    so that a timeout also ends the pool's workers."""
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        env={**os.environ, **PINNED}, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a started script; return the last line it printed."""
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{proc.args[1]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{proc.args[1]} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


class Run:
    """The inputs and config of one benchmark run, and its deadline."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.deadline_s = seconds + MARGIN_S
        self.dir = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        _finish(_start("gen.py", "--workload", workload, "--seed", str(seed),
                       "--out", os.path.join(self.dir, "inputs")), self.remaining())
        with open(os.path.join(self.dir, "inputs", "manifest.json"), encoding="utf-8") as handle:
            self.manifest = json.load(handle)
        self.cells = cell_count(workload)
        self.workers = len(os.sched_getaffinity(0)) if WORKLOADS[workload]["pooled"] else 1
        self.configs = {workers: self._write_config(workers) for workers in {1, self.workers}}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reports: dict[str, bytes] = {}

    def remaining(self) -> float:
        return self.deadline_s - (time.monotonic() - self.started)

    def _write_config(self, workers: int) -> str:
        path = os.path.join(self.dir, f"config-w{workers}.json")
        raw = dict(WORKLOADS[self.workload]["config"],
                   dataset_path=self.manifest["dataset_path"],
                   embedding_path=self.manifest["embedding_path"],
                   master_seed=self.seed, workers=workers)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        return path

    def launch(self, tag: str, workers: int, traced: bool = False) -> tuple:
        """Start one protocol run in a fresh process."""
        args = ["--workload", self.workload, "--config", self.configs[workers],
                "--out", os.path.join(self.dir, tag)]
        self.attempted += self.cells
        return tag, time.monotonic(), _start("child.py", *args, *(["--traced"] if traced else []))

    def collect(self, launched: tuple) -> dict | None:
        """Wait for a protocol run and check its report; None if it failed."""
        tag, started, proc = launched
        try:
            result = json.loads(_finish(proc, self.remaining()))
        except (RunFailed, json.JSONDecodeError) as exc:
            self.failed += self.cells
            print(f"{tag}: failed: {exc}", file=sys.stderr)
            return None
        result["started_at"] = started
        self.failures += [f"{tag}: {f}" for f in check_report(self.workload, result["report"],
                                                                self.manifest)]
        self.failures += [f"{tag}: {f}" for f in result.get("failures", [])]
        with open(result["report"], "rb") as handle:
            self.reports[tag] = handle.read()
        return result

    def protocol(self, tag: str, workers: int) -> dict | None:
        return self.collect(self.launch(tag, workers))

    def same_report(self, tag: str, other: str, why: str) -> None:
        if tag in self.reports and other in self.reports and self.reports[tag] != self.reports[other]:
            self.failures.append(f"report of {tag} differs from {other} ({why})")

    def end_to_end(self, result: dict) -> dict[str, float]:
        if result["first_cell_at"] >= result["last_cell_at"]:
            raise RunFailed("the probe saw no call to train_mlp or train_quantum in the harness")
        config = WORKLOADS[self.workload]["config"]
        trial_epochs = 2 * config["reps"] * self.cells * config["epochs"]
        return {
            "protocol_s": result["written_at"] - result["config_at"],
            "setup_s": result["first_cell_at"] - result["started_at"],
            "trial_epochs_per_s": trial_epochs / (result["last_cell_at"] - result["first_cell_at"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }


def measure(run: Run, seconds: float) -> dict[str, float]:
    samples: list[dict[str, float]] = []
    first = None  # tag of the first run that succeeded
    start = time.monotonic()
    while True:
        tag = f"rep{run.attempted // run.cells}"
        began = time.monotonic()
        result = run.protocol(tag, run.workers)
        if result is not None:
            samples.append(run.end_to_end(result))
            first = first or tag
            run.same_report(tag, first, "re-runs must be byte-identical")
            print(tag + ": " + "  ".join(f"{k}={v:.4f}" for k, v in samples[-1].items()))
        elapsed = time.monotonic() - start
        repeats = run.attempted // run.cells
        if repeats >= MIN_REPEATS and elapsed + (time.monotonic() - began) > seconds:
            break
        if run.remaining() <= 0:
            break
    if not samples:
        raise RunFailed("no protocol run succeeded")
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def trace(run: Run) -> dict[str, float]:
    # Side by side, one per core: both runs see the same machine, so the
    # difference of their times is the cost of tracing, not drift.
    launched = [run.launch("plain", 1), run.launch("traced", 1, traced=True)]
    plain, traced = [run.collect(one) for one in launched]
    if plain is None or traced is None:
        raise RunFailed("the plain or the traced run failed")
    run.same_report("traced", "plain", "tracing must not change results")
    if WORKLOADS[run.workload]["pooled"]:
        run.protocol("pooled", run.workers)
        run.same_report("pooled", "traced", "reports must not depend on the worker count")
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = metrics["trace.protocol_s"] - (plain["written_at"] - plain["config_at"])
    if traced["missing"]:
        print("traced names missing from the program: " + ", ".join(traced["missing"]))
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    shutil.copyfile(os.path.join(run.dir, "traced", "trace.json"),
                    os.path.join(WORK, "traces", f"{run.workload}-s{run.seed}.json"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qsarbench", "harness.py")):
        print(f"no program source under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    try:
        run = Run(args.workload, args.seed, args.seconds)
        try:
            measured = trace(run) if args.trace else measure(run, args.seconds)
            metrics = {name: measured[name] for name in units}
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for failure in run.failures:
        print("CHECK FAILED: " + failure)
    for name, value in metrics.items():
        print(f"{name:>24} {value:14.6f} {units[name]}")
    print(f"cells attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
