"""Checks on a written report, recomputed apart from the program.

They rest on the generator's manifest and on properties of the method,
never on a stored copy of an earlier report.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

import numpy as np

from workloads import WORKLOADS, cell_count


def _test_majority_rate(labels: list[int], split_seed: int) -> float:
    """Majority-class share of one resplit's test set.

    The split is the documented scheme: a Philox permutation keyed by the
    split seed, the first round(0.8 * rows) rows for training.
    """
    rows = len(labels)
    n_train = math.floor(0.8 * rows + 0.5)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(split_seed)))
    test = np.asarray(labels)[rng.permutation(rows)[n_train:]]
    share = float(test.mean())
    return max(share, 1.0 - share)


def check_report(workload: str, report_path: str, manifest: dict) -> list[str]:
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    config = WORKLOADS[workload]["config"]
    trials = report["trials"]
    failures = []

    expected = 2 * cell_count(workload) * config["reps"]
    if len(trials) != expected:
        failures.append(f"{len(trials)} trials, expected {expected}")
    if report["skipped_rows"] != manifest["malformed_rows"]:
        failures.append(f"skipped_rows {report['skipped_rows']}, "
                        f"generator wrote {manifest['malformed_rows']} malformed rows")

    pairs = defaultdict(dict)
    per_cell = defaultdict(lambda: defaultdict(list))
    for t in trials:
        if not 0.0 <= t["best_test_accuracy"] <= 1.0:
            failures.append(f"accuracy {t['best_test_accuracy']} outside [0, 1]")
        if not 0 <= t["best_epoch"] < config["epochs"]:
            failures.append(f"best_epoch {t['best_epoch']} outside [0, {config['epochs']})")
        pairs[(t["n"], t["x"], t["split_index"], t["rep_index"])][t["model"]] = t["schedule_digest"]
        per_cell[(t["model"], t["n"], t["x"])][t["split_index"]].append(t["best_test_accuracy"])
    for key, digests in pairs.items():
        if set(digests) != {"classical", "quantum"} or len(set(digests.values())) != 1:
            failures.append(f"trial {key} lacks a classical/quantum pair on one schedule")

    summaries = {(c["model"], c["n"], c["x"]): c for c in report["summaries"]}
    if set(summaries) != set(per_cell):
        failures.append("summary cells differ from trial cells")
    for key, splits in per_cell.items():
        cell = summaries.get(key)
        if cell is None:
            continue
        means = [statistics.fmean(splits[i]) for i in sorted(splits)]
        mean = statistics.fmean(means)
        spread = statistics.stdev(means) if len(means) > 1 else 0.0
        if abs(cell["mean_accuracy"] - mean) > 1e-12 or abs(cell["spread"] - spread) > 1e-12:
            failures.append(f"summary {key} does not match its trials")

    if workload in ("feature_sweep", "fraction_sweep"):
        split_seeds = {t["split_index"]: t["split_seed"] for t in trials}
        majority = statistics.fmean(
            _test_majority_rate(manifest["valid_labels"], seed) for seed in split_seeds.values())
        best = max(c["mean_accuracy"] for c in report["summaries"])
        if best <= majority:
            failures.append(f"best cell {best:.4f} does not beat the majority rate {majority:.4f}")
    return failures
