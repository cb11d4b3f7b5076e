"""Run the benchmark protocols end to end.

With data/bace.csv present this reproduces a slice of the published
comparison; otherwise it generates a synthetic molecule set of similar size
so the whole pipeline (ingest -> fingerprints -> PCA -> paired training ->
aggregated report) can be exercised anywhere.

Run:  python demos/05_full_protocol.py [--full]

The default uses reduced replication (minutes); --full switches to the
published 5 resplits x 20 reps x 100 epochs (hours).
"""

import argparse
import csv
import os
import sys
import tempfile
import time
from pathlib import Path

from qsarbench import ExperimentConfig, run_protocol, write_report_files
from qsarbench.rng import generator

RING_TEMPLATES = ["C1CCCCC1", "c1ccccc1", "c1ccncc1", "C1CCOC1", "C1CCC1"]
CHAINS = ["C", "CC", "CCC", "CCO", "CCN", "CC(C)C", "CC(=O)O", "CCS", "CCOC", "CC(=O)N"]


def synth_dataset(path: Path, rows: int, seed: int = 2024) -> Path:
    """Molecules labeled (with 10% noise) by whether they carry a ring."""
    rng = generator(seed)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["CID", "mol", "Class"])
        for i in range(rows):
            if rng.random() < 0.5:
                core = str(rng.choice(RING_TEMPLATES))
                chain = str(rng.choice(CHAINS))
                smiles = f"{chain}{core}" if core.startswith("C1") else core
                label = 1
            else:
                smiles = str(rng.choice(CHAINS)) + str(rng.choice(CHAINS))
                label = 0
            if rng.random() < 0.1:
                label = 1 - label
            writer.writerow([f"m{i}", smiles, label])
    return path


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="published scale: 5 resplits x 20 reps x 100 epochs")
    parser.add_argument("--n", type=int, nargs="+", default=[2, 3],
                        help="qubit counts (features = 2^n)")
    args = parser.parse_args(argv)

    bace = Path(os.environ.get("QSARBENCH_DATA", "data")) / "bace.csv"
    # a synthetic stand-in lives in a directory of its own until the protocol has read it
    with tempfile.TemporaryDirectory(prefix="qsarbench_demo_") as scratch:
        if bace.is_file():
            dataset_path = bace
            print(f"using real dataset: {bace}")
        else:
            dataset_path = synth_dataset(Path(scratch) / "synthetic_bace.csv", rows=800)
            print(f"bace.csv not found; generated synthetic stand-in at {dataset_path}")

        config = ExperimentConfig(
            dataset="bace",
            dataset_path=str(dataset_path),
            n_list=tuple(args.n),
            reps=20 if args.full else 3,
            resplits=5 if args.full else 2,
            epochs=100 if args.full else 40,
            master_seed=20240901,
        )
        print(f"protocol: {config.resplits} resplits x {config.reps} reps x "
              f"{config.epochs} epochs, n in {config.n_list}")

        start = time.time()
        report = run_protocol(config)
    print(f"\nfinished in {time.time() - start:.0f}s "
          f"({len(report.trials)} trials, {report.skipped_rows} rows skipped)\n")

    print(f"{'model':>10} {'n':>3} {'accuracy':>10} {'spread':>8}   per-resplit means")
    for cell in report.summaries:
        splits = ", ".join(f"{v:.3f}" for v in cell.per_split_means)
        print(f"{cell.model:>10} {cell.n:>3} {cell.mean_accuracy:>10.4f} "
              f"{cell.spread:>8.4f}   [{splits}]")

    paths = write_report_files(report, "results", "demo_feature_sweep")
    print(f"\nreports: {paths['json']}  {paths['csv']}")


if __name__ == "__main__":
    sys.exit(main())
