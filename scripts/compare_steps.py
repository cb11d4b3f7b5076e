"""Time the quantum model's training step in two source trees, interleaved.

Run from the repository root:

    python3 scripts/compare_steps.py --parent DIR --change DIR [--repeats 41]

Both trees' `qsarbench` packages are imported into this one process, under
the names `parent` and `change`, with BLAS pinned to one thread.  For each
qubit count n and batch size B, on the same seeded inputs, it times

* `step`: one `quantum._scores_and_backward(vec, x)` plus its `backward`,
  the loss-and-gradient work of one training batch;
* `forward`: the scores alone, as `q_predict` computes them.

The two trees alternate call by call, and the order of the pair alternates
from repeat to repeat, so drift in the machine's speed hits both alike.
Each time is the best of a few back-to-back calls; the script prints the
median over the repeats, in microseconds, and the change/parent ratio.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is first imported
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

TREES = ("parent", "change")
KINDS = ("step", "forward")


def load_tree(tree: str, name: str):
    """The `qsarbench.quantum` module of a source tree, imported as package `name`."""
    init = os.path.join(os.path.abspath(tree), "src", "qsarbench", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return sys.modules[f"{name}.quantum"]


def _calls(quantum, n: int, rows: int) -> dict:
    """The timed calls for one tree, on inputs seeded by (n, rows) alone."""
    rng = np.random.default_rng([n, rows])
    x = rng.normal(size=(rows, 1 << n))
    d_scores = rng.normal(size=rows)
    vec = quantum.init_quantum_params(n, seed=n).to_vector()

    def step():
        quantum._scores_and_backward(vec, x)[1](d_scores)

    def forward():
        quantum._scores_and_backward(vec, x)

    return {"step": step, "forward": forward}


def _best_of(call, number: int) -> float:
    best = float("inf")
    for _ in range(number):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def compare(modules: dict, qubits, rows_list, repeats: int, number: int) -> list[dict]:
    """Median seconds per (n, rows, kind) and tree, timed interleaved."""
    results = []
    for n in qubits:
        for rows in rows_list:
            calls = {tree: _calls(modules[tree], n, rows) for tree in TREES}
            for kind in KINDS:
                for tree in TREES:   # warm caches before timing
                    calls[tree][kind]()
                times = {tree: [] for tree in TREES}
                for repeat in range(repeats):
                    order = TREES if repeat % 2 == 0 else TREES[::-1]
                    for tree in order:
                        times[tree].append(_best_of(calls[tree][kind], number))
                results.append(dict(n=n, rows=rows, kind=kind,
                                    **{tree: statistics.median(times[tree]) for tree in TREES}))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--qubits", type=int, nargs="+", default=[2, 3, 4, 8])
    parser.add_argument("--rows", type=int, nargs="+", default=[32, 300])
    parser.add_argument("--repeats", type=int, default=41)
    parser.add_argument("--number", type=int, default=3, help="calls per timed best-of")
    args = parser.parse_args(argv)

    modules = {tree: load_tree(getattr(args, tree), tree) for tree in TREES}
    print(f"{'n':>3} {'rows':>5} {'kind':>8} {'parent us':>10} {'change us':>10} {'ratio':>6}")
    for row in compare(modules, args.qubits, args.rows, args.repeats, args.number):
        print(f"{row['n']:>3} {row['rows']:>5} {row['kind']:>8} {row['parent'] * 1e6:>10.1f} "
              f"{row['change'] * 1e6:>10.1f} {row['change'] / row['parent']:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
