import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qsarbench.data
import qsarbench.harness
from qsarbench.data import FEATURIZE_BATCH, SCHEMA_PRESETS, load_dataset
from qsarbench.errors import ConfigError, DataError, InvariantViolation
from qsarbench.harness import (
    ExperimentConfig,
    ExperimentReport,
    load_report,
    run_cluster_protocol,
    run_fraction_sweep,
    run_protocol,
    write_report_files,
)
from qsarbench.training import OptimizerConfig

from conftest import synthetic_molecules, write_dataset_csv, write_embeddings_csv


# --- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="mnist", dataset_path="x.csv")
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="bace", dataset_path="x.csv", embedding="imgmol")
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="bace", dataset_path="x.csv", n_list=[])
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="bace", dataset_path="x.csv", fractions=[0.0])
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="bace", dataset_path="x.csv", cluster_k=[8])
    with pytest.raises(ConfigError):  # 2**10 features from 512 fingerprint bits
        ExperimentConfig(dataset="bace", dataset_path="x.csv", n_list=[2, 10])
    with pytest.raises(ConfigError):  # 2**4 features from 8 fingerprint bits
        ExperimentConfig(dataset="bace", dataset_path="x.csv", n_list=[4], fingerprint_bits=8)
    with pytest.raises(ConfigError):  # 2**10 features from 512-d embeddings
        ExperimentConfig(dataset="bace", dataset_path="x.csv", embedding="imgmol",
                         embedding_path="e.csv", n_list=[10], fingerprint_bits=2048)
    with pytest.raises(ConfigError, match="fingerprint bits must be at most 65536"):
        ExperimentConfig(dataset="bace", dataset_path="x.csv", fingerprint_bits=2**40)
    assert ExperimentConfig(dataset="bace", dataset_path="x.csv",
                            fingerprint_bits=2**16).fingerprint_bits == 2**16
    for n in (4_000_000_000, 100_000_000_000):  # rejected without forming 2**n
        with pytest.raises(ConfigError, match=f"n={n} needs 2\\*\\*{n} features; "
                                              f"the mgfp embedding has 512"):
            ExperimentConfig(dataset="bace", dataset_path="x.csv", n_list=[2, n])
    # integer fields take integers only: a float is not rounded, and a string is no number
    for field, value in (("reps", 1.5), ("resplits", 2.0), ("epochs", "3"), ("batch_size", 8.5),
                         ("fingerprint_bits", 512.0), ("fingerprint_radius", 1.5),
                         ("master_seed", 0.5), ("workers", 2.5), ("n_list", [2.9]),
                         ("n_list", [2, 3.0]), ("cluster_k", [1.5]), ("master_seed", -1),
                         # a bool is no count, and a string or a bool is no real number
                         ("reps", True), ("n_list", [True, 2]), ("master_seed", False),
                         ("workers", True), ("cluster_k", [True]), ("undersample", "false"),
                         ("undersample", 0), ("learning_rate", "0.01"), ("fractions", [True]),
                         ("cluster_cutoff", True), ("epsilon", "1e-8"), ("beta2", None),
                         ("learning_rate", float("nan")), ("cluster_cutoff", float("inf")),
                         ("fractions", [float("nan")]),
                         # Adam's settings out of range
                         ("learning_rate", 0.0), ("learning_rate", -0.01), ("beta1", 1.0),
                         ("beta1", -0.1), ("beta2", 1.0), ("epsilon", 0.0),
                         # a worker count below one is no count of workers
                         ("workers", 0), ("workers", -2),
                         # a sweep value given twice would train its cells twice
                         ("n_list", [2, 3, 2]), ("fractions", [0.5, 0.5]), ("cluster_k", [1, 1])):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="bace", dataset_path="x.csv", **{field: value})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"dataset": "bace", "dataset_path": "x", field: value})
    numpy_ints = ExperimentConfig(dataset="bace", dataset_path="x.csv", reps=np.int64(3),
                                  n_list=[np.int32(2)], cluster_k=[np.int64(1)],
                                  master_seed=np.uint8(7), workers=None)
    assert (numpy_ints.reps, numpy_ints.n_list, numpy_ints.cluster_k) == (3, (2,), (1,))
    assert type(numpy_ints.reps) is int and type(numpy_ints.master_seed) is int
    # accepted numbers keep the type they are given, so config echoes do not change
    reals = ExperimentConfig(dataset="bace", dataset_path="x.csv", learning_rate=1, beta1=0,
                             cluster_cutoff=np.float64(0.5), fractions=[1], undersample=False)
    assert reals.to_dict()["learning_rate"] == 1 and type(reals.learning_rate) is int
    assert type(reals.beta1) is int and type(reals.cluster_cutoff) is np.float64
    assert reals.fractions == (1.0,) and reals.should_undersample is False
    with pytest.raises(ConfigError, match=r"fractions repeats \[0\.5\]"):
        ExperimentConfig(dataset="bace", dataset_path="x.csv", fractions=[0.5, 0.25, 0.5])
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"dataset": "bace", "dataset_path": "x", "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"dataset": "bace"})


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("batch_size", 2.5), ("learning_rate", "0.01"), ("beta1", 1.0),
    ("beta2", -0.5), ("epsilon", 0.0),
])
def test_config_checks_training_settings_as_optimizer_config_does(field, value):
    with pytest.raises(ConfigError) as expected:
        OptimizerConfig(**{field: value})
    with pytest.raises(ConfigError) as raised:
        ExperimentConfig.from_dict({"dataset": "bace", "dataset_path": "x.csv", field: value})
    assert str(raised.value) == str(expected.value)


def test_config_path_fields_must_be_paths():
    # an int would open a file descriptor (0 is stdin), a bool likewise
    for value in (0, True, 3.5, ["a.csv"], ""):
        for field, base in (("dataset_path", {}), ("embedding_path", {"dataset_path": "x.csv"})):
            with pytest.raises(ConfigError, match=field):
                ExperimentConfig(dataset="bace", **{**base, field: value})
            with pytest.raises(ConfigError, match=field):
                ExperimentConfig.from_dict({"dataset": "bace", **base, field: value})
    config = ExperimentConfig(dataset="bace", dataset_path=Path("d.csv"), embedding="imgmol",
                              embedding_path=Path("e.csv"))
    assert (config.dataset_path, config.embedding_path) == ("d.csv", "e.csv")


def test_config_undersample_defaults():
    base = dict(dataset_path="x.csv")
    assert not ExperimentConfig(dataset="bace", **base).should_undersample
    assert ExperimentConfig(dataset="bbbp", **base).should_undersample
    assert ExperimentConfig(dataset="hiv", **base).should_undersample
    assert ExperimentConfig(dataset="hiv", undersample=False, **base).should_undersample is False


def test_config_workers_default_to_the_cpus_this_process_may_use(monkeypatch):
    config = ExperimentConfig(dataset="bace", dataset_path="x.csv")
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert config.resolved_workers() == 2
    assert replace(config, workers=3).resolved_workers() == 3   # a set field wins
    monkeypatch.delattr(os, "sched_getaffinity")
    assert config.resolved_workers() == 16
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert config.resolved_workers() == 1


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset": "bace",
        "dataset_path": "data.csv",
        "n_list": [2, 3],
        "reps": 4,
        "epochs": 7,
        "master_seed": 99,
    }), encoding="utf-8")
    config = ExperimentConfig.from_file(str(path))
    assert config.n_list == (2, 3)
    assert config.reps == 4
    assert config.to_dict()["master_seed"] == 99
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(tmp_path / "missing.json"))


# --- protocols on synthetic data --------------------------------------------------

@pytest.fixture(scope="module")
def synthetic_csv(tmp_path_factory):
    rng = np.random.Generator(np.random.Philox(4242))
    smiles, labels = synthetic_molecules(rng, rows=64)
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    return str(write_dataset_csv(path, smiles, labels))


def tiny_config(path, **overrides):
    base = dict(
        dataset="bace",
        dataset_path=path,
        n_list=(2,),
        reps=2,
        resplits=2,
        epochs=3,
        batch_size=8,
        master_seed=7,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_protocol_shape_and_aggregates(synthetic_csv):
    config = tiny_config(synthetic_csv)
    report = run_protocol(config)
    assert report.protocol == "feature_sweep"
    assert len(report.trials) == 2 * 2 * 2  # resplits * reps * models
    assert {t.model for t in report.trials} == {"classical", "quantum"}
    for cell in report.summaries:
        manual = np.mean([
            np.mean([t.best_test_accuracy for t in report.trials
                     if t.model == cell.model and t.split_index == s])
            for s in range(config.resplits)
        ])
        assert abs(cell.mean_accuracy - manual) < 1e-12
        assert len(cell.per_split_means) == config.resplits


def test_report_rejects_a_lost_or_doubled_trial(synthetic_csv):
    config = tiny_config(synthetic_csv)
    trials = run_protocol(config).trials
    build = qsarbench.harness._build_report
    assert len(build(config, "feature_sweep", 0, trials).trials) == 8
    for broken in (trials[:3] + trials[4:], trials + [trials[5]]):
        with pytest.raises(InvariantViolation, match="not reps 0..1 once in each of 2 splits"):
            build(config, "feature_sweep", 0, broken)


def test_paired_trainers_share_batch_schedules(synthetic_csv):
    report = run_protocol(tiny_config(synthetic_csv))
    by_pair = {}
    for trial in report.trials:
        by_pair.setdefault((trial.n, trial.x, trial.split_index, trial.rep_index), []).append(trial)
    for pair in by_pair.values():
        assert len(pair) == 2
        assert pair[0].schedule_digest == pair[1].schedule_digest


def test_degenerate_aggregation_equals_single_trial(synthetic_csv):
    config = tiny_config(synthetic_csv, reps=1, resplits=1)
    report = run_protocol(config)
    for cell in report.summaries:
        trial = [t for t in report.trials if t.model == cell.model][0]
        assert cell.mean_accuracy == trial.best_test_accuracy
        assert cell.spread == 0.0


def test_run_protocol_deterministic_files(synthetic_csv, tmp_path):
    config = tiny_config(synthetic_csv)
    first = run_protocol(config)
    second = run_protocol(config)
    a = write_report_files(first, str(tmp_path / "a"), "r")
    b = write_report_files(second, str(tmp_path / "b"), "r")
    assert Path(a["json"]).read_bytes() == Path(b["json"]).read_bytes()
    assert Path(a["csv"]).read_bytes() == Path(b["csv"]).read_bytes()


def test_parallel_workers_match_serial(synthetic_csv, tmp_path, rng, monkeypatch):
    """Each protocol at two workers opens one pool, for ingest and cells, and
    writes the report of its one-worker run, which opens none."""
    opened = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(qsarbench.harness, "ProcessPoolExecutor", CountedPool)
    data = load_dataset(synthetic_csv, SCHEMA_PRESETS["bace"])
    emb_path = write_embeddings_csv(tmp_path / "emb.csv", data.ids,
                                    rng.normal(size=(len(data), 512)))
    runs = (
        (run_protocol, tiny_config(synthetic_csv, n_list=(2, 3))),
        (run_cluster_protocol, tiny_config(clustered_csv(tmp_path), n_list=(2, 3),
                                           cluster_k=(1, 3), epochs=1)),
        (run_fraction_sweep, tiny_config(synthetic_csv, n_list=(2, 3), embedding="imgmol",
                                         embedding_path=str(emb_path), fractions=(0.5, 1.0),
                                         epochs=1)),
    )
    for run, config in runs:
        serial = run(config)
        assert opened == []
        parallel = run(replace(config, workers=2))
        assert opened == [2]
        opened.clear()
        a = write_report_files(serial, str(tmp_path / "s"), run.__name__)
        b = write_report_files(parallel, str(tmp_path / "p"), run.__name__)
        assert Path(a["json"]).read_bytes() == Path(b["json"]).read_bytes()


def test_worker_error_reaches_the_caller(synthetic_csv, monkeypatch):
    def broken(graphs, radius, nbits):
        raise DataError("featurizer broke")

    # patched before the pool forks, so its workers run the broken featurizer
    monkeypatch.setattr(qsarbench.harness, "morgan_fingerprints", broken)
    with pytest.raises(DataError, match="^featurizer broke$") as err:
        run_protocol(tiny_config(synthetic_csv, workers=2))
    assert type(err.value.__cause__).__name__ == "_RemoteTraceback"  # raised in a worker
    assert multiprocessing.active_children() == []


def test_pool_receives_widest_and_largest_cells_first(synthetic_csv, tmp_path, monkeypatch):
    submitted = []
    slices = []

    class SerialPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            # the run's pool first takes the ingest slices, then the cells
            iterables = [list(iterable) for iterable in iterables]
            if fn is qsarbench.data._parse_chunk:
                slices.extend(len(texts) for texts in iterables[0])
            if fn is qsarbench.harness._run_cell:
                submitted.extend((task.n, task.data.train_x.shape[0]) for task in iterables[0])
            return map(fn, *iterables)

    monkeypatch.setattr(qsarbench.harness, "ProcessPoolExecutor", SerialPool)
    config = tiny_config(synthetic_csv, n_list=(2, 3), fractions=(0.5, 1.0), reps=1)
    pooled = run_fraction_sweep(replace(config, workers=2))
    csv_rows = len(load_dataset(synthetic_csv, SCHEMA_PRESETS["bace"])) + pooled.skipped_rows
    assert len(slices) == -(-csv_rows // FEATURIZE_BATCH) and sum(slices) == csv_rows
    assert max(slices) <= FEATURIZE_BATCH
    assert len(submitted) == 2 * 2 * 2  # resplits * fractions * n
    assert submitted == sorted(submitted, reverse=True)
    assert submitted[0] == (3, max(rows for _, rows in submitted))
    serial = run_fraction_sweep(config)
    a = write_report_files(serial, str(tmp_path / "s"), "r")
    b = write_report_files(pooled, str(tmp_path / "p"), "r")
    assert Path(a["json"]).read_bytes() == Path(b["json"]).read_bytes()


def test_fraction_identity_matches_feature_protocol(synthetic_csv):
    features = run_protocol(tiny_config(synthetic_csv))
    fractions = run_fraction_sweep(tiny_config(synthetic_csv, fractions=(1.0,)))
    key = lambda t: (t.model, t.split_index, t.rep_index)
    feature_acc = {key(t): t.best_test_accuracy for t in features.trials}
    for trial in fractions.trials:
        assert trial.best_test_accuracy == feature_acc[key(trial)]


def test_fraction_sweep_structure(synthetic_csv):
    config = tiny_config(synthetic_csv, fractions=(0.5, 1.0))
    report = run_fraction_sweep(config)
    assert report.protocol == "fraction_sweep"
    xs = sorted({t.x for t in report.trials})
    assert xs == [0.5, 1.0]
    assert len(report.trials) == 2 * 2 * 2 * 2  # resplits * fractions * reps * models
    with pytest.raises(ConfigError):
        run_fraction_sweep(tiny_config(synthetic_csv))


def clustered_csv(tmp_path, rows_per_group=30, **columns):
    # two large groups of identical molecules plus a handful of strays, so
    # Butina finds clusters above the size threshold
    smiles = (
        ["CC(=O)Oc1ccccc1C(=O)O"] * rows_per_group
        + ["CCCCCCCCCC"] * rows_per_group
        + ["C", "CCO", "CCN", "C1CCCCC1"]
    )
    rng = np.random.Generator(np.random.Philox(17))
    labels = [1] * rows_per_group + [0] * rows_per_group + [1, 0, 1, 0]
    # flip a few so neither class is pure within a cluster
    for i in range(0, rows_per_group, 7):
        labels[i] = 0
        labels[rows_per_group + i] = 1
    path = tmp_path / f"clustered-{len(columns)}.csv"
    return str(write_dataset_csv(path, smiles, labels, **columns))


def test_cluster_protocol(synthetic_csv, tmp_path):
    path = clustered_csv(tmp_path)
    config = tiny_config(path, cluster_k=(1, 3))
    report = run_cluster_protocol(config)
    assert report.protocol == "cluster_sweep"
    xs = sorted({t.x for t in report.trials})
    assert xs == [1.0, 3.0]
    # k = 3 with two large clusters -> 6 training rows
    assert len(report.trials) == 2 * 2 * 2 * 2
    with pytest.raises(ConfigError):
        run_cluster_protocol(tiny_config(path))
    with pytest.raises(ConfigError):
        run_cluster_protocol(tiny_config(path, cluster_k=(1,), embedding="imgmol",
                                         embedding_path="none.csv"))


RUN_WITHOUT_NUMPY_MA = """
import sys
from qsarbench.harness import (ExperimentConfig, run_cluster_protocol, run_fraction_sweep,
                               run_protocol)
config = ExperimentConfig(dataset="bbbp", dataset_path=sys.argv[1], n_list=(2,), reps=1,
                          resplits=2, epochs=1, batch_size=8, fractions=(0.5,),
                          cluster_k=(1,), workers=1)
for run in (run_protocol, run_fraction_sweep, run_cluster_protocol):
    run(config)
assert "numpy.ma" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy.ma"))
"""


def test_runs_do_not_import_numpy_ma(tmp_path):
    # numpy.ma adds about 1.6 MiB to a run's peak RSS; np.unique and np.intersect1d import it
    path = clustered_csv(tmp_path, smiles_col="smiles", label_col="p_np")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", RUN_WITHOUT_NUMPY_MA, path], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_cluster_protocol_clusters_once_per_distinct_subset(tmp_path, monkeypatch):
    import qsarbench.harness as harness

    calls = []
    original = harness.butina_cluster

    def counting(fps, cutoff):
        calls.append(len(fps))
        return original(fps, cutoff)

    monkeypatch.setattr(harness, "butina_cluster", counting)
    run_cluster_protocol(tiny_config(clustered_csv(tmp_path), cluster_k=(1, 3), epochs=1))
    assert len(calls) == 1  # bace: no undersampling, every resplit holds the same rows

    calls.clear()
    path = clustered_csv(tmp_path, smiles_col="smiles", label_col="p_np")
    run_cluster_protocol(tiny_config(path, dataset="bbbp", cluster_k=(1,), epochs=1))
    assert len(calls) == 2  # bbbp: undersampled afresh for each resplit


def test_run_parses_each_smiles_once(synthetic_csv, monkeypatch):
    import csv

    import qsarbench.smiles as smiles

    calls = []
    original = smiles._TOKEN

    class CountingScanner:
        """Counts every parse, whichever module called `parse_smiles`."""

        def finditer(self, text):
            calls.append(text)
            return original.finditer(text)

    monkeypatch.setattr(smiles, "_TOKEN", CountingScanner())
    run_protocol(tiny_config(synthetic_csv, epochs=1))
    with open(synthetic_csv, newline="", encoding="utf-8") as handle:
        rows = sum(1 for _ in csv.DictReader(handle))
    assert len(calls) == rows


def test_every_cell_trains_with_the_run_config(synthetic_csv, monkeypatch):
    tasks = []
    map_cells = qsarbench.harness._map_cells

    def recording(cells, pool):
        tasks.extend(cells)
        return map_cells(cells, pool)

    monkeypatch.setattr(qsarbench.harness, "_map_cells", recording)
    config = tiny_config(synthetic_csv, n_list=(2, 3), fractions=(0.5, 1.0), reps=1, epochs=1)
    run_fraction_sweep(config)
    assert len(tasks) == 2 * 2 * 2     # resplits x fractions x n
    assert all(task.optimizer is config for task in tasks)


def test_cells_project_each_n_as_its_own_transform(synthetic_csv):
    # one centered copy of the rows per plan gives each n's features bit for bit
    from qsarbench.data import make_split
    from qsarbench.harness import _load_with_features, _make_cells
    from qsarbench.pca import fit_pca, transform

    config = tiny_config(synthetic_csv, n_list=(2, 3, 4))
    data = _load_with_features(config, None)
    plan = make_split(data, seed=11)
    cells = _make_cells(config, data, plan, None, 0, 11)
    widest = fit_pca(data.features[plan.train_indices], 16)
    assert [cell.n for cell in cells] == [2, 3, 4]
    for cell in cells:
        pca = widest.truncate(1 << cell.n)
        assert np.array_equal(cell.data.train_x, transform(pca, data.features[plan.train_indices]))
        assert np.array_equal(cell.data.test_x, transform(pca, data.features[plan.test_indices]))


def test_imgmol_run_ignores_embeddings_of_skipped_rows(tmp_path, rng):
    smiles = ["CCO", "c1ccccc1", "C1CC", "CCN", "CC(=O)O", "C1CCCCC1"]
    path = write_dataset_csv(tmp_path / "six.csv", smiles, [1, 0, 1, 0, 1, 0])
    ids = [str(i) for i in range(6)]  # the bace schema keys rows by position
    emb_path = write_embeddings_csv(tmp_path / "emb.csv", ids, rng.normal(size=(6, 512)))
    config = tiny_config(str(path), embedding="imgmol", embedding_path=str(emb_path), epochs=1)
    report = run_protocol(config)
    assert report.skipped_rows == 1
    assert len(report.trials) == 2 * 2 * 2


def test_imgmol_protocol_and_unknown_id(synthetic_csv, tmp_path, rng):
    data = load_dataset(synthetic_csv, SCHEMA_PRESETS["bace"])
    matrix = rng.normal(size=(len(data), 512))
    emb_path = write_embeddings_csv(tmp_path / "emb.csv", data.ids, matrix)
    config = tiny_config(synthetic_csv, embedding="imgmol", embedding_path=str(emb_path))
    report = run_protocol(config)
    assert len(report.summaries) == 2
    assert report.config["embedding"] == "imgmol"


# --- reports -------------------------------------------------------------------------

def test_report_round_trip(synthetic_csv, tmp_path):
    report = run_protocol(tiny_config(synthetic_csv))
    loaded = load_report(write_report_files(report, str(tmp_path), "report")["json"])
    assert loaded.protocol == report.protocol
    assert len(loaded.trials) == len(report.trials)
    for a, b in zip(loaded.summaries, report.summaries):
        assert a == b
    # aggregates recomputed from reloaded trials match exactly
    from qsarbench.harness import _aggregate
    recomputed = _aggregate(loaded.trials, loaded.config["resplits"])
    for a, b in zip(recomputed, report.summaries):
        assert abs(a.mean_accuracy - b.mean_accuracy) < 1e-12


def test_csv_and_json_numeric_agreement(synthetic_csv, tmp_path):
    report = run_protocol(tiny_config(synthetic_csv))
    paths = write_report_files(report, str(tmp_path), "agree")
    payload = json.loads(Path(paths["json"]).read_text())
    lines = Path(paths["csv"]).read_text().strip().splitlines()
    assert lines[0] == "dataset,embedding,n,model,x,mean,spread"
    assert len(lines) - 1 == len(payload["summaries"])
    for line, cell in zip(lines[1:], payload["summaries"]):
        fields = line.split(",")
        assert fields[3] == cell["model"]
        assert float(fields[5]) == cell["mean_accuracy"]
        assert float(fields[6]) == cell["spread"]


def test_emit_refuses_empty_trials(tmp_path):
    report = ExperimentReport(
        protocol="feature_sweep", config={}, version="0", skipped_rows=0, trials=[],
    )
    out_dir = tmp_path / "out"
    with pytest.raises(InvariantViolation):
        write_report_files(report, str(out_dir), "no")
    assert not out_dir.exists()


def test_skipped_rows_propagate_to_report(tmp_path):
    rng = np.random.Generator(np.random.Philox(5))
    smiles, labels = synthetic_molecules(rng, rows=40)
    smiles[5] = "C1CC"  # unparseable: dangling ring bond
    path = write_dataset_csv(tmp_path / "skippy.csv", smiles, labels)
    report = run_protocol(tiny_config(str(path)))
    assert report.skipped_rows == 1


def test_atomless_smiles_row_is_skipped(tmp_path):
    rng = np.random.Generator(np.random.Philox(5))
    smiles, labels = synthetic_molecules(rng, rows=40)
    smiles[5] = "."  # parses to no atom: nothing to fingerprint
    path = write_dataset_csv(tmp_path / "dotty.csv", smiles, labels)
    report = run_protocol(tiny_config(str(path)))
    assert report.skipped_rows == 1


def test_path_config_is_echoed_as_a_string(synthetic_csv, tmp_path):
    report = run_protocol(tiny_config(Path(synthetic_csv), reps=1, resplits=1))
    payload = json.loads(Path(write_report_files(report, str(tmp_path), "r")["json"]).read_text())
    assert payload["config"]["dataset_path"] == str(synthetic_csv)


def test_adding_reps_preserves_existing_trials(synthetic_csv):
    small = run_protocol(tiny_config(synthetic_csv, reps=2))
    large = run_protocol(tiny_config(synthetic_csv, reps=3))
    key = lambda t: (t.model, t.n, t.x, t.split_index, t.rep_index)
    existing = {key(t): t for t in small.trials}
    grown = 0
    for trial in large.trials:
        if trial.rep_index < 2:
            assert existing[key(trial)] == trial
        else:
            grown += 1
    assert grown == 2 * 2  # one extra rep x 2 resplits x 2 models


def test_adding_resplits_preserves_existing_trials(synthetic_csv):
    small = run_protocol(tiny_config(synthetic_csv, resplits=2))
    large = run_protocol(tiny_config(synthetic_csv, resplits=3))
    key = lambda t: (t.model, t.n, t.x, t.split_index, t.rep_index)
    existing = {key(t): t for t in small.trials}
    for trial in large.trials:
        if trial.split_index < 2:
            assert existing[key(trial)] == trial
