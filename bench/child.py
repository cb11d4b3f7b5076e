"""One protocol run in a fresh process, plain or traced.

Run:  python3 bench/child.py --workload W --config CONFIG --out DIR [--traced]

It loads the config, runs the workload's protocol entry point, writes the
report files with `write_report_files`, and prints one JSON line of
timestamps on the system-wide monotonic clock, so the parent can measure
from the moment it started this process.

A plain run adds only a probe around the two trainers as the harness looks
them up: the earliest start and the latest end of any training call, kept
in shared memory so pool workers (forked after the probe is installed)
report into it too.  A traced run installs the span tracer, runs in this
process, then checks properties of what it captured and writes trace.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import multiprocessing
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import qsarbench.harness as harness  # noqa: E402

from tracer import Tracer, check_captured  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _install_probe(window) -> None:
    """Widen `window` = [first start, last end] around every trainer call."""
    for attr in ("train_mlp", "train_quantum"):
        trainer = getattr(harness, attr, None)
        if trainer is None:
            continue

        def probed(*args, _trainer=trainer, **kwargs):
            start = time.monotonic()
            result = _trainer(*args, **kwargs)
            end = time.monotonic()
            with window.get_lock():
                window[0] = min(window[0], start)
                window[1] = max(window[1], end)
            return result

        setattr(harness, attr, probed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qsarbench imported from {harness.__file__}, not from {SRC}")
    # fit_pca warns on every rank-deficient fit in the cluster sweep
    logging.disable(logging.WARNING)

    tracer = window = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    else:
        window = multiprocessing.Array("d", [float("inf"), float("-inf")])
        _install_probe(window)

    runner = getattr(harness, WORKLOADS[args.workload]["entry"])
    t_config = time.monotonic()
    config = harness.ExperimentConfig.from_file(args.config)
    report = runner(config)
    paths = harness.write_report_files(report, args.out, "report")
    t_written = time.monotonic()

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "config_at": t_config,
        "written_at": t_written,
        "peak_rss_mb": usage / 1024.0,
        "report": paths["json"],
    }
    if window is not None:
        # clamped so that they stay finite when no trainer call was seen
        result["first_cell_at"] = min(window[0], t_written)
        result["last_cell_at"] = max(window[1], t_config)
    else:
        tracer.uninstall()
        reps = WORKLOADS[args.workload]["config"]["reps"]
        result["metrics"] = tracer.report(reps, t_written - t_config)
        result["failures"] = check_captured(tracer, config.master_seed)
        result["missing"] = tracer.missing
        with open(os.path.join(args.out, "trace.json"), "w", encoding="utf-8") as handle:
            json.dump({**tracer.dump(), "metrics": result["metrics"]}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
