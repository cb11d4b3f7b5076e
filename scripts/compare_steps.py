"""Time the quantum model's training work, ingest, embedding reads or Butina in two source
trees, interleaved.

Run from the repository root:

    python3 scripts/compare_steps.py --parent DIR --change DIR [--reps 1 20] [--repeats 41]
    python3 scripts/compare_steps.py --parent DIR --change DIR --kinds ingest [--rows 2000]
    python3 scripts/compare_steps.py --parent DIR --change DIR --kinds embeddings [--rows 1500 41000]
    python3 scripts/compare_steps.py --parent DIR --change DIR --kinds butina [--rows 1440 8000]

Both trees' `qsarbench` packages are imported into this one process, under
the names `parent` and `change`, with BLAS pinned to one thread.  For each
qubit count n, batch size B and rep count R, on the same seeded inputs, it
times

* `step`: the loss-and-gradient work of one training batch for each of R
  reps, `quantum._scores_and_backward` plus its `backward`;
* `forward`: R reps' scores on the same B rows, as an epoch's test rows
  are scored;
* `cell`: one `harness._run_cell` on a seeded cell of 1,200 train and 300
  test rows, both models, R reps and `--epochs` epochs (B does not apply).

Both trees train the reps as one batch axis: one call of the score
function, on (R, P) parameters and embedded rows, covers all R reps, and
`cell` calls the same `_run_cell(task)` in both trees.

`--kinds ingest` times `harness._load_with_features`, the ingest of a
protocol run with the default Morgan radius and width and each tree's own
featurizer (one graph per call or a list of graphs), once per `--rows` value, on a
CSV of that many seeded `synthetic_molecules` from `tests/conftest.py` plus
`REAL_SMILES` (bracket atoms) and a few malformed rows (skipped rows).  The
two trees must return the same features, ids and skipped ids; the script
exits non-zero naming what differs.  Its times are per CSV row.

`--kinds embeddings` times `data.load_embeddings`, once per `--rows` value,
on a seeded `id,e0,...,e511` CSV of that many rows with six-decimal values
(as `bench/gen.py` writes them), in shuffled id order, aligned to every id
but one, which is passed as skipped.  The two trees must return the same
bits; the script exits non-zero naming the row count where they differ.  Its
times are per CSV row, and after the table it prints the `tracemalloc` peak
of one call in each tree.

`--kinds butina` times `clustering.butina_cluster` at the protocol's default
cutoff, once per `--rows` value, on that many seeded 512-bit fingerprints
(`fingerprint_families` from `tests/conftest.py`: perturbed copies of a few
prototypes, so clusters form).  The two trees must return the same
partition; the script exits non-zero naming the row count where they
differ.  Its times are per call.

The two trees alternate call by call, and the order of the pair alternates
from repeat to repeat, so drift in the machine's speed hits both alike.
Each time is the best of a few back-to-back calls; the script prints the
median over the repeats, per rep (per rep-epoch for `cell`), in
microseconds, and the change/parent ratio.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is first imported
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("parent", "change")
TRAINING_KINDS = ("step", "forward", "cell")
KINDS = TRAINING_KINDS + ("ingest", "embeddings", "butina")
CELL_TRAIN_ROWS = 1200
CELL_TEST_ROWS = 300
INGEST_SEED = 1717
MALFORMED_SMILES = ("C1CC", "C(C", "[C", "C%1", "CC)C", "Qx")
EMBEDDINGS_SEED = 3131
EMBEDDING_DIM = 512    # data.EMBEDDING_DIM
BUTINA_SEED = 2020
BUTINA_CUTOFF = 0.65   # ExperimentConfig.cluster_cutoff's default
BUTINA_BITS = 512


def load_tree(tree: str, name: str):
    """The `qsarbench` package of a source tree, imported as package `name`."""
    init = os.path.join(os.path.abspath(tree), "src", "qsarbench", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _modules(package) -> dict:
    name = package.__name__
    return {part: sys.modules[f"{name}.{part}"]
            for part in ("quantum", "simulator", "harness", "training", "data", "fingerprint",
                         "clustering")}


def _call(modules: dict, kind: str, n: int, rows: int, reps: int, epochs: int):
    """One tree's timed call of a kind, on inputs seeded by the case alone."""
    if kind == "cell":
        task = _cell_task(modules, n, reps, epochs)
        return lambda: modules["harness"]._run_cell(task)
    quantum = modules["quantum"]
    rng = np.random.default_rng([n, rows, reps])
    x = rng.normal(size=(reps, rows, 1 << n))
    d_scores = rng.normal(size=(reps, rows))
    params = np.stack([quantum.init_quantum_params(n, seed=n + rep).to_vector()
                       for rep in range(reps)])
    amps = modules["simulator"].amplitude_embed(x)
    score = quantum._scores_and_backward

    def step():
        score(params, amps)[1](d_scores)

    def forward():
        score(params, amps[0])

    return {"step": step, "forward": forward}[kind]


def _cell_task(modules: dict, n: int, reps: int, epochs: int):
    """A seeded cell of random features: the same task in every tree."""
    training = modules["training"]
    rng = np.random.default_rng([n, reps, epochs])
    x = rng.normal(size=(CELL_TRAIN_ROWS + CELL_TEST_ROWS, 1 << n))
    y = np.where(rng.random(len(x)) < 0.5, 1, -1)
    cut = CELL_TRAIN_ROWS
    data = training.SupervisedSplit(x[:cut], y[:cut], x[cut:], y[cut:])
    return modules["harness"]._CellTask(
        n=n, x=float(n), split_index=0, split_seed=0, rep_seeds=tuple(range(reps)), data=data,
        optimizer=training.OptimizerConfig(epochs=epochs))


def _best_of(call, number: int) -> float:
    best = float("inf")
    for _ in range(number):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved(calls: dict, repeats: int, number: int) -> dict:
    """Median over the repeats of each tree's best-of-`number` seconds."""
    for tree in TREES:   # warm caches before timing
        calls[tree]()
    times = {tree: [] for tree in TREES}
    for repeat in range(repeats):
        order = TREES if repeat % 2 == 0 else TREES[::-1]
        for tree in order:
            times[tree].append(_best_of(calls[tree], number))
    return {tree: statistics.median(times[tree]) for tree in TREES}


def compare(modules: dict, qubits, rows_list, reps_list, kinds, repeats: int, number: int,
            epochs: int) -> list[dict]:
    """Median seconds per rep (per rep-epoch for `cell`) of each case and tree,
    timed interleaved."""
    results = []
    for n in qubits:
        for reps in reps_list:
            for kind in kinds:
                for rows in (rows_list if kind != "cell" else [CELL_TRAIN_ROWS]):
                    calls = {tree: _call(modules[tree], kind, n, rows, reps, epochs)
                             for tree in TREES}
                    per = reps * (epochs if kind == "cell" else 1)
                    medians = _interleaved(calls, repeats, number)
                    results.append(dict(n=n, rows=rows, reps=reps, kind=kind,
                                        **{tree: medians[tree] / per for tree in TREES}))
    return results


def _conftest():
    """`tests/conftest.py`, which holds the seeded input generators."""
    for path in (os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import conftest
    return conftest


def write_ingest_csv(directory: str, rows: int) -> tuple[str, int]:
    """The seeded ingest input as a BACE-schema CSV, and its row count."""
    conftest = _conftest()
    smiles, labels = conftest.synthetic_molecules(np.random.default_rng(INGEST_SEED), rows)
    smiles += conftest.REAL_SMILES + list(MALFORMED_SMILES)
    labels += [i % 2 for i in range(len(conftest.REAL_SMILES) + len(MALFORMED_SMILES))]
    path = os.path.join(directory, f"ingest-{rows}.csv")
    return str(conftest.write_dataset_csv(path, smiles, labels)), len(smiles)


def _ingest_call(modules: dict, path: str):
    """One tree's ingest of `path` as its protocol runs make it, on no pool."""
    harness = modules["harness"]
    config = harness.ExperimentConfig(dataset="bace", dataset_path=path)
    return lambda: harness._load_with_features(config, None)


def check_same_ingest(datasets: dict) -> None:
    """Exit naming the first field in which the two trees' datasets differ."""
    parent, change = (datasets[tree] for tree in TREES)
    for name in ("ids", "skipped_ids", "features"):
        if not np.array_equal(np.asarray(getattr(parent, name)), np.asarray(getattr(change, name))):
            sys.exit(f"ingest {name} differ between the parent and the change")


def compare_ingest(modules: dict, rows_list, repeats: int, number: int) -> list[dict]:
    """Median seconds per CSV row of each tree's ingest, timed interleaved."""
    results = []
    with tempfile.TemporaryDirectory(prefix="ingest-") as work:
        for rows in rows_list:
            path, n_rows = write_ingest_csv(work, rows)
            calls = {tree: _ingest_call(modules[tree], path) for tree in TREES}
            check_same_ingest({tree: calls[tree]() for tree in TREES})
            medians = _interleaved(calls, repeats, number)
            results.append(dict(n=None, rows=n_rows, reps=None, kind="ingest",
                                **{tree: medians[tree] / n_rows for tree in TREES}))
    return results


def write_embeddings(directory: str, rows: int) -> tuple[str, list[str], tuple[str, ...]]:
    """A seeded embedding CSV of `rows` rows in shuffled id order, the dataset
    ids it is read against (every id but one) and that one skipped id."""
    rng = np.random.default_rng([EMBEDDINGS_SEED, rows])
    path = os.path.join(directory, f"embeddings-{rows}.csv")
    row_format = "%d" + ",%.6f" * EMBEDDING_DIM + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id," + ",".join(f"e{j}" for j in range(EMBEDDING_DIM)) + "\n")
        for key in rng.permutation(rows):
            handle.write(row_format % (key, *rng.normal(size=EMBEDDING_DIM)))
    skipped = rows // 2
    return path, [str(i) for i in range(rows) if i != skipped], (str(skipped),)


def _tracemalloc_peak(call) -> int:
    """The peak of `tracemalloc`'s traced bytes during one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def compare_embeddings(modules: dict, rows_list, repeats: int, number: int) -> list[dict]:
    """Median seconds per CSV row of each tree's `load_embeddings`, timed
    interleaved, and each tree's `tracemalloc` peak of one call."""
    results = []
    with tempfile.TemporaryDirectory(prefix="embeddings-") as work:
        for rows in rows_list:
            path, ids, skipped = write_embeddings(work, rows)
            calls = {tree: functools.partial(modules[tree]["data"].load_embeddings, path, ids,
                                             skipped) for tree in TREES}
            parent, change = (calls[tree]() for tree in TREES)
            if not (parent.dtype == change.dtype == np.float64
                    and np.array_equal(parent.view(np.uint64), change.view(np.uint64))):
                sys.exit(f"embeddings of {rows} rows differ between the parent and the change")
            del parent, change
            peaks = {tree: _tracemalloc_peak(calls[tree]) for tree in TREES}
            medians = _interleaved(calls, repeats, number)
            results.append(dict(n=None, rows=rows, reps=None, kind="embeddings", peaks=peaks,
                                **{tree: medians[tree] / rows for tree in TREES}))
    return results


def compare_butina(modules: dict, rows_list, repeats: int, number: int) -> list[dict]:
    """Median seconds per `butina_cluster` call of each tree, timed interleaved."""
    results = []
    for rows in rows_list:
        bits = _conftest().fingerprint_families(np.random.default_rng(BUTINA_SEED), rows,
                                                BUTINA_BITS)
        calls = {}
        for tree in TREES:
            fps = [modules[tree]["fingerprint"].Fingerprint(b, BUTINA_BITS) for b in bits]
            calls[tree] = functools.partial(modules[tree]["clustering"].butina_cluster, fps,
                                            BUTINA_CUTOFF)
        parent, change = (calls[tree]().clusters for tree in TREES)
        if parent != change:
            sys.exit(f"butina partitions of {rows} rows differ between the parent and the change")
        medians = _interleaved(calls, repeats, number)
        results.append(dict(n=None, rows=rows, reps=None, kind="butina", **medians))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--qubits", type=int, nargs="+", default=[2, 3, 4, 8])
    parser.add_argument("--rows", type=int, nargs="+", default=[32, 300],
                        help="batch rows of step and forward; synthetic molecules of ingest; "
                             "CSV rows of embeddings; fingerprints of butina")
    parser.add_argument("--reps", type=int, nargs="+", default=[1])
    parser.add_argument("--kinds", nargs="+", choices=KINDS, default=list(TRAINING_KINDS))
    parser.add_argument("--epochs", type=int, default=2, help="epochs of each timed cell")
    parser.add_argument("--repeats", type=int, default=41)
    parser.add_argument("--number", type=int, default=3, help="calls per timed best-of")
    args = parser.parse_args(argv)

    modules = {tree: _modules(load_tree(getattr(args, tree), tree)) for tree in TREES}
    print(f"{'n':>3} {'rows':>5} {'reps':>4} {'kind':>8} {'parent us':>10} {'change us':>10} "
          f"{'ratio':>6}")
    training = [kind for kind in args.kinds if kind in TRAINING_KINDS]
    rows = compare(modules, args.qubits, args.rows, args.reps, training, args.repeats,
                   args.number, args.epochs)
    if "ingest" in args.kinds:
        rows += compare_ingest(modules, args.rows, args.repeats, args.number)
    if "embeddings" in args.kinds:
        rows += compare_embeddings(modules, args.rows, args.repeats, args.number)
    if "butina" in args.kinds:
        rows += compare_butina(modules, args.rows, args.repeats, args.number)
    for row in rows:
        n, reps = ("-" if row[key] is None else row[key] for key in ("n", "reps"))
        print(f"{n:>3} {row['rows']:>5} {reps:>4} {row['kind']:>8} "
              f"{row['parent'] * 1e6:>10.1f} {row['change'] * 1e6:>10.1f} "
              f"{row['change'] / row['parent']:>6.2f}")
    for row in rows:
        if "peaks" in row:
            print(f"tracemalloc peak of one {row['kind']} call on {row['rows']} rows: "
                  + ", ".join(f"{tree} {row['peaks'][tree] / 2**20:.2f} MiB" for tree in TREES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
