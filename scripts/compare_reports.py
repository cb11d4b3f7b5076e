"""Compare the protocol reports that two source trees write on the same inputs.

Run from the repository root:

    python3 scripts/compare_reports.py --parent DIR --change DIR [--seeds 1 2]

For each benchmark workload and seed, the inputs are generated once with
the change tree's `bench/gen.py`.  Each tree's own `bench/child.py` then
runs the workload on them, in a fresh process with BLAS pinned to one
thread and PYTHONHASHSEED=0, and the report JSON and CSV files are compared
byte for byte.  Every trial or summary field that differs is printed with
its key, both values and |delta|.  The exit status is 0 when every file is
identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile


def _rows(report: dict, section: str) -> dict[str, dict]:
    """A report section's rows keyed by what names a trial or a summary cell."""
    out = {}
    for row in report.get(section, []):
        key = f"{row['model']} n={row['n']} x={row['x']}"
        if section == "trials":
            key += f" split={row['split_index']} rep={row['rep_index']}"
        out[key] = row
    return out


def _delta(a, b) -> float | None:
    """|a - b| for two numbers, the largest one for equal-length number lists, else None."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if number(a) and number(b):
        return abs(a - b)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b) \
            and all(number(v) for v in a + b):
        return max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    return None


def diff_reports(parent: dict, change: dict) -> list[tuple[str, object, object, float | None]]:
    """Every field in which two report payloads differ: (key, parent value, change value, |delta|)."""
    diffs = []
    for name in sorted((set(parent) | set(change)) - {"trials", "summaries"}):
        if parent.get(name) != change.get(name):
            diffs.append((name, parent.get(name), change.get(name), None))
    for section in ("summaries", "trials"):
        a, b = _rows(parent, section), _rows(change, section)
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                diffs.append((f"{section}[{key}]", a.get(key), b.get(key), None))
                continue
            for name in sorted(set(a[key]) | set(b[key])):
                x, y = a[key].get(name), b[key].get(name)
                if x != y:
                    diffs.append((f"{section}[{key}].{name}", x, y, _delta(x, y)))
    return diffs


def _run(env: dict, script: str, *args: str) -> None:
    subprocess.run([sys.executable, script, *args], env=env, check=True, stdout=subprocess.DEVNULL)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def compare(parent: str, change: str, workload: str, seed: int, work: str,
            workloads: dict, env: dict) -> int:
    """Run both trees on one workload and seed; print what differs, return the count."""
    inputs = os.path.join(work, "inputs")
    _run(env, os.path.join(change, "bench", "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", inputs)
    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    config = os.path.join(work, "config.json")
    with open(config, "w", encoding="utf-8") as handle:
        json.dump(dict(workloads[workload]["config"], dataset_path=manifest["dataset_path"],
                       embedding_path=manifest["embedding_path"], master_seed=seed, workers=1),
                  handle)
    out = {}
    for tag, tree in (("parent", parent), ("change", change)):
        out[tag] = os.path.join(work, tag)
        _run(env, os.path.join(tree, "bench", "child.py"), "--workload", workload,
             "--config", config, "--out", out[tag])

    count = 0
    label = f"{workload} seed {seed}"
    for suffix in ("json", "csv"):
        a, b = (_read(os.path.join(out[tag], f"report.{suffix}")) for tag in ("parent", "change"))
        if a != b:
            count += 1
            print(f"{label}: report.{suffix} differs")
    if count:
        payloads = [json.loads(_read(os.path.join(out[tag], "report.json")))
                    for tag in ("parent", "change")]
        for key, a, b, delta in diff_reports(*payloads):
            shown = "" if delta is None else f"  |delta| {delta:.3g}"
            print(f"{label}: {key}: {a!r} -> {b!r}{shown}")
    else:
        print(f"{label}: report.json and report.csv identical")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.change, "bench"))
    from run import PINNED  # the benchmark's one-thread BLAS and fixed hash seed
    from workloads import WORKLOADS

    env = {**os.environ, **PINNED}
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
        for workload in sorted(WORKLOADS):
            for seed in args.seeds:
                run_dir = os.path.join(work, f"{workload}-s{seed}")
                differing += compare(os.path.abspath(args.parent), os.path.abspath(args.change),
                                     workload, seed, run_dir, WORKLOADS, env)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
