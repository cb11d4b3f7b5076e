"""Experiment orchestration: the three protocols, aggregation and reports.

The feature, training-fraction and cluster sweeps share one driver.  It
loads the dataset with its features once, and for each resplit balances the
classes (where the dataset calls for it) and derives the split seed.  The
protocol then supplies its training plans for that resplit, each tagged
with its sweep value x.  Every plan gets one PCA fit at the widest n, which
each n in n_list truncates; a cell is one (resplit, plan, n) holding one
validated `SupervisedSplit`, and trains all its reps at once: one
`train_mlp` and one `train_quantum` call, each on the reps' stacked batch
schedules, along the trainers' rep axis.

With more than one worker a run opens one process pool and uses it twice:
first the ingest chunks (SMILES parsing and fingerprints, see
`data.load_dataset`), then the cells.  Cells are built in the parent
process between the two, so every data check runs before the first cell
starts.  With one worker everything runs in this process.  The report is
built from the cells' trials.

A protocol run is a pure function of its configuration and input files.
Seeds derive hierarchically (master -> per-resplit -> per-rep -> stream),
so enlarging a sweep never perturbs existing trials, and the classical and
quantum trainers of one trial consume the same seeded batch schedule,
which is asserted via schedule digests.  Trials are embarrassingly
parallel; results are always assembled in canonical order regardless of
worker count.
"""

from __future__ import annotations

import json
import logging
import os
from collections.abc import Callable, Iterator
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from ._version import __version__
from .classical import train_mlp
from .clustering import MAX_PER_CLUSTER, butina_cluster, cluster_training_plan
from .data import (
    EMBEDDING_DIM,
    SCHEMA_PRESETS,
    UNDERSAMPLE_BY_DATASET,
    Dataset,
    SplitPlan,
    load_dataset,
    load_embeddings,
    make_split,
    subsample_fraction,
    undersample,
)
from .errors import ConfigError, InvariantViolation, QsarBenchError
from .fingerprint import Fingerprint, check_morgan_settings, morgan_fingerprint
from .pca import fit_pca, transform
from .quantum import train_quantum
from .rng import derive_seed
from .training import OptimizerConfig, SupervisedSplit, _integer, _real, batch_schedule

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "CellSummary",
    "ExperimentReport",
    "run_protocol",
    "run_fraction_sweep",
    "run_cluster_protocol",
    "write_report_files",
    "load_report",
]

logger = logging.getLogger(__name__)

WORKERS_ENV_VAR = "QSARBENCH_WORKERS"

# seed-path namespaces under the master seed
_NS_UNDERSAMPLE = 0
_NS_SPLIT = 1
_NS_REP = 2
_NS_FRACTION = 3
_NS_CLUSTER = 4
# streams under a rep seed
_STREAM_SCHEDULE = 0
_STREAM_MLP_INIT = 1
_STREAM_QUANTUM_INIT = 2

DATASET_NAMES = ("bace", "bbbp", "hiv")
EMBEDDING_NAMES = ("mgfp", "imgmol")

PROTOCOL_FEATURES = "feature_sweep"
PROTOCOL_FRACTIONS = "fraction_sweep"
PROTOCOL_CLUSTERS = "cluster_sweep"

_INTEGER_FIELDS = ("reps", "resplits", "fingerprint_radius", "fingerprint_bits", "master_seed")


def _path(name: str, value) -> str:
    """A non-empty str or os.PathLike, as str; anything else would open a descriptor or fail late."""
    text = os.fspath(value) if isinstance(value, (str, os.PathLike)) else None
    if not isinstance(text, str) or not text:
        raise ConfigError(f"{name} must be a non-empty path string, got {value!r}")
    return text


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    dataset_path: str
    embedding: str = "mgfp"
    embedding_path: str | None = None
    n_list: tuple[int, ...] = (2, 3, 4, 8)
    reps: int = 20
    resplits: int = 5
    epochs: int = OptimizerConfig.epochs
    learning_rate: float = OptimizerConfig.learning_rate
    beta1: float = OptimizerConfig.beta1
    beta2: float = OptimizerConfig.beta2
    epsilon: float = OptimizerConfig.epsilon
    batch_size: int = OptimizerConfig.batch_size
    fractions: tuple[float, ...] | None = None
    cluster_k: tuple[int, ...] | None = None
    cluster_cutoff: float = 0.65
    fingerprint_radius: int = 2
    fingerprint_bits: int = 512
    master_seed: int = 0
    undersample: bool | None = None
    workers: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dataset", str(self.dataset).lower())
        object.__setattr__(self, "embedding", str(self.embedding).lower())
        object.__setattr__(self, "dataset_path", _path("dataset_path", self.dataset_path))
        if self.embedding_path is not None:
            object.__setattr__(self, "embedding_path", _path("embedding_path", self.embedding_path))
        for name in _INTEGER_FIELDS:
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.workers is not None:
            object.__setattr__(self, "workers", _integer("workers", self.workers))
        object.__setattr__(self, "n_list", tuple(_integer("n_list", n) for n in self.n_list))
        # the training settings obey OptimizerConfig's rules, written once there
        optimizer = self.optimizer_config()
        object.__setattr__(self, "epochs", optimizer.epochs)
        object.__setattr__(self, "batch_size", optimizer.batch_size)
        _real("cluster_cutoff", self.cluster_cutoff)
        if self.fractions is not None:
            object.__setattr__(self, "fractions",
                               tuple(float(_real("fractions", f)) for f in self.fractions))
        if self.undersample is not None and not isinstance(self.undersample, bool):
            raise ConfigError(f"undersample must be true, false or null, got {self.undersample!r}")
        if self.cluster_k is not None:
            object.__setattr__(self, "cluster_k",
                               tuple(_integer("cluster_k", k) for k in self.cluster_k))
        self._validate()

    def _validate(self) -> None:
        if self.dataset not in DATASET_NAMES:
            raise ConfigError(f"dataset must be one of {DATASET_NAMES}, got {self.dataset!r}")
        if self.embedding not in EMBEDDING_NAMES:
            raise ConfigError(f"embedding must be one of {EMBEDDING_NAMES}, got {self.embedding!r}")
        if self.embedding == "imgmol" and not self.embedding_path:
            raise ConfigError("imgmol embedding needs embedding_path")
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ConfigError(f"n_list entries must be >= 1, got {self.n_list}")
        for name in ("n_list", "fractions", "cluster_k"):
            values = getattr(self, name) or ()
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} repeats {repeated}; each value may appear once")
        if self.reps < 1 or self.resplits < 1:
            raise ConfigError("reps and resplits must both be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.fractions is not None and any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ConfigError(f"fractions must lie in (0, 1], got {self.fractions}")
        if self.cluster_k is not None and any(not 1 <= k <= MAX_PER_CLUSTER for k in self.cluster_k):
            raise ConfigError(
                f"cluster_k values must lie in 1..{MAX_PER_CLUSTER}, got {self.cluster_k}"
            )
        if not 0.0 < self.cluster_cutoff <= 1.0:
            raise ConfigError(f"cluster_cutoff must lie in (0, 1], got {self.cluster_cutoff}")
        check_morgan_settings(self.fingerprint_radius, self.fingerprint_bits)
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        width = self.fingerprint_bits if self.embedding == "mgfp" else EMBEDDING_DIM
        if max(self.n_list) > width.bit_length() - 1:   # 2**n > width, without forming 2**n
            raise ConfigError(
                f"n={max(self.n_list)} needs 2**{max(self.n_list)} features; "
                f"the {self.embedding} embedding has {width}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in raw or "dataset_path" not in raw:
            raise ConfigError("config needs at least dataset and dataset_path")
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["n_list"] = list(self.n_list)
        out["fractions"] = None if self.fractions is None else list(self.fractions)
        out["cluster_k"] = None if self.cluster_k is None else list(self.cluster_k)
        # execution knob, not part of the experiment definition: reports must
        # be byte-identical across worker counts
        del out["workers"]
        return out

    @property
    def should_undersample(self) -> bool:
        if self.undersample is not None:
            return self.undersample
        return UNDERSAMPLE_BY_DATASET[self.dataset]

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            learning_rate=self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            epsilon=self.epsilon,
            batch_size=self.batch_size,
            epochs=self.epochs,
        )

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        env = os.environ.get(WORKERS_ENV_VAR)
        if env:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ConfigError(f"{WORKERS_ENV_VAR}={env!r} is not an integer") from exc
            if workers < 1:
                raise ConfigError(f"{WORKERS_ENV_VAR} must be >= 1, got {workers}")
            return workers
        return os.cpu_count() or 1


@dataclass(frozen=True)
class TrialResult:
    model: str
    n: int
    x: float
    split_index: int
    rep_index: int
    split_seed: int
    rep_seed: int
    best_test_accuracy: float
    best_epoch: int
    final_train_loss: float
    test_recall_at_best: float | None
    schedule_digest: str

    def __post_init__(self):
        if not 0.0 <= self.best_test_accuracy <= 1.0:
            raise InvariantViolation(f"accuracy {self.best_test_accuracy} outside [0, 1]")
        if self.test_recall_at_best is not None and not 0.0 <= self.test_recall_at_best <= 1.0:
            raise InvariantViolation(f"recall {self.test_recall_at_best} outside [0, 1]")


@dataclass(frozen=True)
class CellSummary:
    model: str
    n: int
    x: float
    mean_accuracy: float
    spread: float
    per_split_means: tuple[float, ...]
    mean_recall: float | None


@dataclass
class ExperimentReport:
    protocol: str
    config: dict
    version: str
    skipped_rows: int
    trials: list[TrialResult]
    summaries: list[CellSummary] = field(default_factory=list)


# --- data preparation ---------------------------------------------------------

def _morgan_bits(graph, radius: int, nbits: int) -> np.ndarray:
    """One molecule's Morgan fingerprint as uint8 bits; a module-level function, so it pickles."""
    return morgan_fingerprint(graph, radius, nbits).as_bit_array()


def _load_with_features(config: ExperimentConfig, pool: Executor | None) -> Dataset:
    """The dataset with its feature matrix: uint8 fingerprint bits or float64 embeddings."""
    schema = SCHEMA_PRESETS[config.dataset]
    if config.embedding == "mgfp":
        featurize = partial(_morgan_bits, radius=config.fingerprint_radius,
                            nbits=config.fingerprint_bits)
        return load_dataset(config.dataset_path, schema, featurize, pool)
    data = load_dataset(config.dataset_path, schema, executor=pool)
    embeddings = load_embeddings(config.embedding_path, data.ids, data.skipped_ids)
    return replace(data, features=embeddings)


def _signed_labels(labels: np.ndarray) -> np.ndarray:
    return (2 * labels - 1).astype(np.int64)


# --- trial execution ----------------------------------------------------------

@dataclass
class _CellTask:
    """Everything one worker needs to train all reps of a (split, n, x) cell."""

    n: int
    x: float
    split_index: int
    split_seed: int
    rep_seeds: tuple[int, ...]
    data: SupervisedSplit
    optimizer: OptimizerConfig


def _run_cell(task: _CellTask) -> list[TrialResult]:
    """Train every rep of a cell: one trainer call per model, all reps at once."""
    data = task.data
    if data.train_x.shape[1] != 1 << task.n:
        raise InvariantViolation(
            f"cell n={task.n} received {data.train_x.shape[1]} features instead of {1 << task.n}"
        )
    schedules = np.stack([
        batch_schedule(data.train_x.shape[0], task.optimizer.epochs,
                       derive_seed(rep_seed, _STREAM_SCHEDULE))
        for rep_seed in task.rep_seeds
    ])
    outcomes = {}
    for model, train, stream in (("classical", train_mlp, _STREAM_MLP_INIT),
                                 ("quantum", train_quantum, _STREAM_QUANTUM_INIT)):
        seeds = [derive_seed(rep_seed, stream) for rep_seed in task.rep_seeds]
        try:
            outcomes[model] = train(data, task.optimizer, seeds, schedules)
        except InvariantViolation as exc:
            rep = getattr(exc, "rep", None)
            reps = (f"rep_seeds={list(task.rep_seeds)}" if rep is None
                    else f"rep_seed={task.rep_seeds[rep]}")
            raise InvariantViolation(
                f"split_index={task.split_index} n={task.n} x={task.x} {reps} model={model}: {exc}"
            ) from exc
    results: list[TrialResult] = []
    for rep_index, rep_seed in enumerate(task.rep_seeds):
        pair = {model: outcome[rep_index] for model, outcome in outcomes.items()}
        if pair["classical"].schedule_digest != pair["quantum"].schedule_digest:
            raise InvariantViolation("paired trainers consumed different batch schedules")
        for model, outcome in pair.items():
            results.append(TrialResult(
                model=model,
                n=task.n,
                x=task.x,
                split_index=task.split_index,
                rep_index=rep_index,
                split_seed=task.split_seed,
                rep_seed=rep_seed,
                best_test_accuracy=outcome.best_test_accuracy,
                best_epoch=outcome.best_epoch,
                final_train_loss=outcome.final_train_loss,
                test_recall_at_best=outcome.test_recall_at_best,
                schedule_digest=outcome.schedule_digest,
            ))
    return results


def _map_cells(tasks: list[_CellTask], pool: Executor | None) -> list[TrialResult]:
    if pool is None or len(tasks) <= 1:
        nested = [_run_cell(task) for task in tasks]
    else:
        # widest circuits and largest training sets first, so the longest
        # cells start at once instead of queueing behind short ones
        longest_first = sorted(tasks, key=lambda t: (t.n, t.data.train_x.shape[0]), reverse=True)
        nested = list(pool.map(_run_cell, longest_first))
    trials = [trial for cell in nested for trial in cell]
    return sorted(trials, key=lambda t: (t.n, t.x, t.split_index, t.rep_index, t.model))


def _make_cells(
    config: ExperimentConfig,
    subset: Dataset,
    plan: SplitPlan,
    x: float | None,
    split_index: int,
    split_seed: int,
) -> list[_CellTask]:
    """One cell per n on one training plan, all from a single PCA fit.

    x=None marks the feature sweep, whose sweep value is n itself.
    """
    train = subset.features[plan.train_indices]
    test = subset.features[plan.test_indices]
    widest = fit_pca(train, 1 << max(config.n_list))
    signed = _signed_labels(subset.labels)
    train_y, test_y = signed[plan.train_indices], signed[plan.test_indices]
    rep_seeds = tuple(
        derive_seed(config.master_seed, _NS_REP, split_index, rep) for rep in range(config.reps)
    )
    optimizer = config.optimizer_config()
    cells = []
    for n in config.n_list:
        pca = widest.truncate(1 << n)
        cells.append(_CellTask(
            n=n,
            x=float(n) if x is None else x,
            split_index=split_index,
            split_seed=split_seed,
            rep_seeds=rep_seeds,
            data=SupervisedSplit(transform(pca, train), train_y, transform(pca, test), test_y),
            optimizer=optimizer,
        ))
    return cells


def _abort_context(config: ExperimentConfig, exc: Exception) -> None:
    logger.error(
        "experiment aborted: dataset=%s embedding=%s n_list=%s master_seed=%d: %s",
        config.dataset, config.embedding, config.n_list, config.master_seed, exc,
    )


# --- aggregation and reports ----------------------------------------------------

def _aggregate(trials: list[TrialResult], resplits: int) -> list[CellSummary]:
    cells: dict[tuple, dict[int, list[TrialResult]]] = {}
    for trial in trials:
        per_split = cells.setdefault((trial.model, trial.n, trial.x), {})
        per_split.setdefault(trial.split_index, []).append(trial)

    summaries = []
    for (model, n, x), per_split in sorted(cells.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][0])):
        if sorted(per_split) != list(range(resplits)):
            raise InvariantViolation(f"cell {model} n={n} x={x} is missing resplits")
        split_means = [
            float(np.mean([t.best_test_accuracy for t in per_split[i]]))
            for i in range(resplits)
        ]
        recalls = [
            t.test_recall_at_best
            for i in range(resplits)
            for t in per_split[i]
            if t.test_recall_at_best is not None
        ]
        summaries.append(CellSummary(
            model=model,
            n=n,
            x=x,
            mean_accuracy=float(np.mean(split_means)),
            spread=float(np.std(split_means, ddof=1)) if resplits > 1 else 0.0,
            per_split_means=tuple(split_means),
            mean_recall=float(np.mean(recalls)) if recalls else None,
        ))
    return summaries


def _verify_aggregates(report: ExperimentReport, reps: int, resplits: int) -> None:
    """Check the summaries against the trials, counted and averaged apart from `_aggregate`."""
    cells: dict[tuple, list[TrialResult]] = {}
    for trial in report.trials:
        cells.setdefault((trial.model, trial.n, trial.x), []).append(trial)
    keys = [(c.model, c.n, c.x) for c in report.summaries]
    if len(set(keys)) != len(keys) or set(keys) != set(cells):
        raise InvariantViolation("summary cells do not match trial cells")
    expected = [(split, rep) for split in range(resplits) for rep in range(reps)]
    for cell in report.summaries:
        trials = cells[(cell.model, cell.n, cell.x)]
        if sorted((t.split_index, t.rep_index) for t in trials) != expected:
            raise InvariantViolation(
                f"cell {cell.model} n={cell.n} x={cell.x} holds {len(trials)} trials, "
                f"not reps 0..{reps - 1} once in each of {resplits} splits"
            )
        if abs(cell.mean_accuracy - np.mean([t.best_test_accuracy for t in trials])) > 1e-12:
            raise InvariantViolation(
                f"aggregation identity violated for {cell.model} n={cell.n} x={cell.x}"
            )


def _build_report(config: ExperimentConfig, protocol: str, skipped: int,
                  trials: list[TrialResult]) -> ExperimentReport:
    report = ExperimentReport(
        protocol=protocol,
        config=config.to_dict(),
        version=__version__,
        skipped_rows=skipped,
        trials=trials,
        summaries=_aggregate(trials, config.resplits),
    )
    _verify_aggregates(report, config.reps, config.resplits)
    return report


# --- protocols -------------------------------------------------------------------

# A protocol's plans for one resplit: (subset, split_index, split_seed) ->
# (x, training plan) pairs, with x=None when the sweep value is n itself.
_Plans = Callable[[Dataset, int, int], Iterator[tuple[float | None, SplitPlan]]]


def _run(config: ExperimentConfig, protocol: str, plans: _Plans) -> ExperimentReport:
    try:
        workers = config.resolved_workers()
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            data = _load_with_features(config, pool)
            tasks = []
            for split_index in range(config.resplits):
                subset = data
                if config.should_undersample:
                    subset = undersample(data, derive_seed(config.master_seed, _NS_UNDERSAMPLE,
                                                           split_index))
                split_seed = derive_seed(config.master_seed, _NS_SPLIT, split_index)
                for x, plan in plans(subset, split_index, split_seed):
                    tasks += _make_cells(config, subset, plan, x, split_index, split_seed)
            logger.info("%s: %d cells on %d workers", protocol, len(tasks), workers)
            trials = _map_cells(tasks, pool)
        return _build_report(config, protocol, data.skipped_rows, trials)
    except QsarBenchError as exc:
        _abort_context(config, exc)
        raise


def run_protocol(config: ExperimentConfig) -> ExperimentReport:
    """Feature sweep: the 5x20 resplit/rep protocol for each n in n_list."""
    def plans(subset, split_index, split_seed):
        yield None, make_split(subset, split_seed)

    return _run(config, PROTOCOL_FEATURES, plans)


def run_fraction_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Training-fraction sweep; PCA is refit on each subsampled training set."""
    if not config.fractions:
        raise ConfigError("fraction sweep needs a non-empty fractions list")

    def plans(subset, split_index, split_seed):
        plan = make_split(subset, split_seed)
        for fraction_index, fraction in enumerate(config.fractions):
            seed = derive_seed(config.master_seed, _NS_FRACTION, split_index, fraction_index)
            yield fraction, subsample_fraction(plan, fraction, seed)

    return _run(config, PROTOCOL_FRACTIONS, plans)


def run_cluster_protocol(config: ExperimentConfig) -> ExperimentReport:
    """Cluster-sampled training sets: k members from each large cluster."""
    if not config.cluster_k:
        raise ConfigError("cluster protocol needs a non-empty cluster_k list")
    if config.embedding != "mgfp":
        raise ConfigError("cluster protocol requires the mgfp embedding")
    clustering = None

    def plans(subset, split_index, split_seed):
        nonlocal clustering
        # without undersampling every resplit holds the same rows: cluster once
        if clustering is None or config.should_undersample:
            fps = [Fingerprint.from_bit_array(row) for row in subset.features]
            clustering = butina_cluster(fps, config.cluster_cutoff)
        for k_index, k in enumerate(config.cluster_k):
            seed = derive_seed(config.master_seed, _NS_CLUSTER, split_index, k_index)
            yield float(k), cluster_training_plan(clustering, k, seed)

    return _run(config, PROTOCOL_CLUSTERS, plans)


# --- serialization ----------------------------------------------------------------

def write_report_files(report: ExperimentReport, out_dir: str, stem: str) -> dict[str, str]:
    """Write `<stem>.json` (the full report) and `<stem>.csv` (the plot table) under out_dir."""
    if not report.trials:
        raise InvariantViolation("refusing to write a report with no trials")
    os.makedirs(out_dir, exist_ok=True)
    paths = {"json": os.path.join(out_dir, f"{stem}.json"),
             "csv": os.path.join(out_dir, f"{stem}.csv")}
    with open(paths["json"], "w", encoding="utf-8", newline="\n") as handle:
        json.dump(asdict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")
    dataset = report.config.get("dataset", "")
    embedding = report.config.get("embedding", "")
    lines = ["dataset,embedding,n,model,x,mean,spread"]
    for cell in report.summaries:
        lines.append(
            f"{dataset},{embedding},{cell.n},{cell.model},{cell.x!r},"
            f"{cell.mean_accuracy!r},{cell.spread!r}"
        )
    with open(paths["csv"], "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return paths


def load_report(path: str) -> ExperimentReport:
    """Reconstruct a report from its JSON file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return ExperimentReport(
        protocol=payload["protocol"],
        config=payload["config"],
        version=payload["version"],
        skipped_rows=payload["skipped_rows"],
        trials=[TrialResult(**t) for t in payload["trials"]],
        summaries=[
            CellSummary(**{**c, "per_split_means": tuple(c["per_split_means"])})
            for c in payload["summaries"]
        ],
    )
