"""Span tracing of a protocol run from outside the program.

The tracer wraps public names where the calling module looks them up (for
example `parse_smiles` both in `qsarbench.data` and in `qsarbench.harness`)
and records one span per call: name, start, end and parent.  Simulator
kernels are called hundreds of thousands of times, so they are not spans:
each kernel name keeps a call count, time and computed bytes, and that time
stays inside the enclosing quantum span.  A name that the program no
longer has is skipped and reads as zero calls.  Spans stay in memory until
`report` turns them into per-layer metrics.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); span names are "<layer>.<function>"
SPANS = (
    ("qsarbench.harness", "load_dataset", "data.load_dataset"),
    ("qsarbench.harness", "load_embeddings", "data.load_embeddings"),
    ("qsarbench.data", "parse_smiles", "smiles.parse_smiles"),
    ("qsarbench.harness", "parse_smiles", "smiles.parse_smiles"),
    ("qsarbench.harness", "morgan_fingerprint", "fingerprint.morgan_fingerprint"),
    ("qsarbench.fingerprint.Fingerprint", "as_bit_array", "fingerprint.as_bit_array"),
    ("qsarbench.fingerprint.Fingerprint", "from_bit_array", "fingerprint.from_bit_array"),
    ("qsarbench.fingerprint.Fingerprint", "to_words", "fingerprint.to_words"),
    ("qsarbench.harness", "butina_cluster", "clustering.butina_cluster"),
    ("qsarbench.clustering", "neighbor_matrix", "clustering.neighbor_matrix"),
    ("qsarbench.harness", "fit_pca", "pca.fit_pca"),
    ("qsarbench.harness", "transform", "pca.transform"),
    ("qsarbench.harness", "batch_schedule", "training.batch_schedule"),
    ("qsarbench.classical", "batch_schedule", "training.batch_schedule"),
    ("qsarbench.quantum", "batch_schedule", "training.batch_schedule"),
    ("qsarbench.training", "schedule_digest", "training.schedule_digest"),
    ("qsarbench.training", "adam_step", "training.adam_step"),
    ("qsarbench.harness", "train_mlp", "classical.train_mlp"),
    ("qsarbench.harness", "train_quantum", "quantum.train_quantum"),
    ("qsarbench.quantum", "q_predict", "quantum.q_predict"),
    ("qsarbench.harness", "write_report_files", "harness.write_report_files"),
)

# (module, attribute, kernel name)
KERNELS = (
    ("qsarbench.quantum", "apply_single_array", "rot"),
    ("qsarbench.simulator", "apply_single_array", "rot"),
    ("qsarbench.quantum", "apply_cnot_array", "cnot"),
    ("qsarbench.simulator", "apply_cnot_array", "cnot"),
)

QUBIT_COUNTS = (2, 3, 4, 8)

START, END = 1, 2  # fields of a span record


def _resolve(path: str):
    """Import a module, or a class inside one, from a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
        return obj
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.kernels = defaultdict(lambda: [0, 0.0, 0])  # calls, seconds, bytes
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.captured: defaultdict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for owner_path, attr, name in SPANS:
            self._patch(owner_path, attr, lambda fn, name=name: self._span(name, fn))
        for owner_path, attr, name in KERNELS:
            self._patch(owner_path, attr, lambda fn, name=name: self._kernel(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner_path: str, attr: str, make) -> None:
        owner = _resolve(owner_path)
        raw = None if owner is None else vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{owner_path}.{attr}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = getattr(self, "_after_" + name.split(".", 1)[1], None)

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                after(record, args, result)
            return result

        return traced

    def _kernel(self, name: str, fn):
        totals, clock = self.kernels[name], time.perf_counter

        def timed(amps, *args, **kwargs):
            start = clock()
            out = fn(amps, *args, **kwargs)
            totals[1] += clock() - start
            totals[0] += 1
            totals[2] += amps.nbytes + out.nbytes
            return out

        return timed

    # -- per-call bookkeeping (runs after the span has ended) -------------

    def _after_load_dataset(self, record, args, result):
        self.counts["rows"] += len(result)

    def _after_parse_smiles(self, record, args, result):
        self.counts["parses"] += 1

    def _after_butina_cluster(self, record, args, result):
        self.counts["clusters"] += len(result.clusters)
        self.captured["butina"].append((args[0], args[1], result))

    def _after_fit_pca(self, record, args, result):
        self.captured["pca"].append(result)

    def _after_train_quantum(self, record, args, result):
        data = args[0]
        n = int(math.log2(data.train_x.shape[1]))
        record[0] = f"quantum.train_quantum.n{n}"
        if n not in {c[0] for c in self.captured["quantum"]}:
            self.captured["quantum"].append((n, data))

    # -- metrics ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, and per-n quantum time including q_predict."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child_time[i]
            out[name] += own
            if name == "quantum.q_predict" and parent >= 0:
                out[spans[parent][0] + "+predict"] += own
        return out

    def cell_seconds(self, reps: int) -> list[float]:
        """Wall time of each cell: `reps` consecutive classical+quantum pairs."""
        trainers = [s for s in self.spans
                    if s[0] == "classical.train_mlp" or s[0].startswith("quantum.train_quantum")]
        per_cell = 2 * reps
        return [trainers[i + per_cell - 1][END] - trainers[i][START]
                for i in range(0, len(trainers) - per_cell + 1, per_cell)]

    def report(self, reps: int, protocol_s: float) -> dict[str, float]:
        own = self.self_times()
        rows = self.counts["rows"]
        quantum = {n: own[f"quantum.train_quantum.n{n}"] + own[f"quantum.train_quantum.n{n}+predict"]
                   for n in QUBIT_COUNTS}
        cells = self.cell_seconds(reps)
        metrics = {
            "data.load_s": own["data.load_dataset"],
            "data.embeddings_s": own["data.load_embeddings"],
            "data.rows": rows,
            "smiles.parse_s": own["smiles.parse_smiles"],
            "smiles.parses_per_row": self.counts["parses"] / rows if rows else 0.0,
            "fingerprint.morgan_s": own["fingerprint.morgan_fingerprint"],
            "fingerprint.convert_s": (own["fingerprint.as_bit_array"]
                                      + own["fingerprint.from_bit_array"]
                                      + own["fingerprint.to_words"]),
            "clustering.neighbor_s": own["clustering.neighbor_matrix"],
            "clustering.butina_s": own["clustering.butina_cluster"],
            "clustering.clusters": self.counts["clusters"],
            "pca.fit_s": own["pca.fit_pca"],
            "pca.fits": len(self.captured["pca"]),
            "pca.transform_s": own["pca.transform"],
            "training.steps": sum(1 for s in self.spans if s[0] == "training.adam_step"),
            "training.schedule_s": own["training.batch_schedule"] + own["training.schedule_digest"],
            "training.adam_s": own["training.adam_step"],
            "classical.train_s": own["classical.train_mlp"],
            **{f"quantum.train_s.n{n}": quantum[n] for n in QUBIT_COUNTS},
            "quantum.step_s": sum(quantum.values()) - own["quantum.q_predict"],
            "quantum.predict_s": own["quantum.q_predict"],
            "simulator.rot_applies": self.kernels["rot"][0],
            "simulator.cnot_applies": self.kernels["cnot"][0],
            "simulator.rot_s": self.kernels["rot"][1],
            "simulator.cnot_s": self.kernels["cnot"][1],
            "simulator.bytes_moved": self.kernels["rot"][2] + self.kernels["cnot"][2],
            "harness.cells": len(cells),
            "harness.cell_s.max": max(cells, default=0.0),
            "harness.report_s": own["harness.write_report_files"],
            "trace.protocol_s": protocol_s,
            "trace.spans": len(self.spans),
        }
        return {key: float(value) for key, value in metrics.items()}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "kernels": {k: list(v) for k, v in self.kernels.items()},
            "missing": self.missing,
        }


# -- properties of captured results --------------------------------------------

def check_captured(tracer: Tracer, seed: int) -> list[str]:
    """Check Butina, PCA and gradient properties on what the run produced."""
    failures: list[str] = []
    for fps, cutoff, clustering in tracer.captured["butina"]:
        failures += _check_butina(fps, cutoff, clustering)
    for model in tracer.captured["pca"]:
        failures += _check_pca(model)
    rng = np.random.default_rng(seed)
    for n, data in tracer.captured["quantum"]:
        failures += _check_gradient(n, data, rng)
    return failures


def _check_butina(fps, cutoff, clustering) -> list[str]:
    members = sorted(i for cluster in clustering.clusters for i in cluster)
    if members != list(range(len(fps))):
        return ["butina clusters do not partition the indices"]
    sizes = [len(c) for c in clustering.clusters]
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        return ["butina cluster sizes are not non-increasing"]
    for cluster in clustering.clusters:
        centre = fps[cluster[0]].bits
        for member in cluster[1:]:
            bits = fps[member].bits
            union = (centre | bits).bit_count()
            similarity = 1.0 if union == 0 else (centre & bits).bit_count() / union
            if similarity < cutoff:
                return [f"butina member {member} has Tanimoto {similarity:.4f} to its centroid"]
    return []


def _check_pca(model) -> list[str]:
    k = model.components.shape[0]
    gram = model.components @ model.components.T
    if not np.allclose(gram, np.eye(k), atol=1e-8):
        return [f"PCA components (k={k}) are not orthonormal"]
    values = model.eigenvalues
    if np.any(values < 0) or np.any(np.diff(values) > 0):
        return [f"PCA eigenvalues (k={k}) are negative or increasing"]
    return []


def _check_gradient(n: int, data, rng: np.random.Generator) -> list[str]:
    from qsarbench.quantum import init_quantum_params, q_gradient
    from qsarbench.simulator import amplitude_embed, parameter_shift_gradient, run_ansatz, z_expectations

    rows = rng.choice(data.train_x.shape[0], size=min(4, data.train_x.shape[0]), replace=False)
    xb, yb = data.train_x[rows], data.train_y[rows].astype(np.float64)
    params = init_quantum_params(n, int(rng.integers(2**32)))
    z = np.array([z_expectations(run_ansatz(amplitude_embed(x), params.ansatz)) for x in xb])
    residual = z @ params.readout - yb
    upstream = 2.0 / len(rows) * np.outer(residual, params.readout)
    angles = sum(parameter_shift_gradient(x, params.ansatz, u) for x, u in zip(xb, upstream))
    readout = 2.0 / len(rows) * (z.T @ residual)
    expected = np.concatenate([angles.ravel(), readout])
    got = q_gradient(params, xb, yb)
    if not np.allclose(got, expected, rtol=1e-7, atol=1e-9):
        return [f"q_gradient differs from parameter shift at n={n}: "
                f"max {np.max(np.abs(got - expected)):.3g}"]
    return []
