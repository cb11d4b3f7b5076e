import csv
import json
import logging

import numpy as np
import pytest

import qsarbench.quantum
from qsarbench.cli import EXIT_CONFIG, EXIT_DATA, EXIT_INVARIANT, EXIT_OK, main
from qsarbench.fingerprint import Fingerprint, morgan_fingerprint
from qsarbench.smiles import parse_smiles

from conftest import synthetic_molecules, write_dataset_csv


@pytest.fixture
def dataset_csv(tmp_path):
    rng = np.random.Generator(np.random.Philox(99))
    smiles, labels = synthetic_molecules(rng, rows=50)
    return str(write_dataset_csv(tmp_path / "mols.csv", smiles, labels))


def test_fingerprint_command(dataset_csv, tmp_path, capsys):
    out = tmp_path / "fps.csv"
    code = main(["fingerprint", "--input", dataset_csv, "--smiles-col", "mol",
                 "--radius", "2", "--bits", "512", "--output", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 50
    # spot-check first row against the library call
    first_smiles = list(csv.DictReader(open(dataset_csv)))[0]["mol"]
    expected = morgan_fingerprint(parse_smiles(first_smiles), 2, 512)
    assert rows[0]["fingerprint_hex"] == expected.to_hex()


def test_cluster_command(dataset_csv, tmp_path):
    fps = tmp_path / "fps.csv"
    main(["fingerprint", "--input", dataset_csv, "--smiles-col", "mol", "--output", str(fps)])
    out = tmp_path / "clusters.csv"
    code = main(["cluster", "--fingerprints", str(fps), "--cutoff", "0.5", "--output", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 50
    assert {int(r["index"]) for r in rows} == set(range(50))
    centroids = [r for r in rows if r["is_centroid"] == "1"]
    assert len(centroids) == len({r["cluster_id"] for r in rows})


def test_pca_command(tmp_path, rng):
    matrix = rng.normal(size=(12, 6))
    inp = tmp_path / "m.csv"
    with open(inp, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(6)])
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text("\n".join(str(i) for i in range(8)))
    out = tmp_path / "scores.csv"
    model_out = tmp_path / "model.csv"
    code = main(["pca", "--input", str(inp), "--k", "3", "--fit-rows", str(fit_rows),
                 "--output", str(out), "--model-out", str(model_out)])
    assert code == EXIT_OK
    scores = list(csv.reader(open(out)))
    assert scores[0] == ["c0", "c1", "c2"]
    assert len(scores) == 13
    from qsarbench.pca import PcaModel, fit_pca, transform
    model = fit_pca(matrix[:8], 3)
    expected = transform(model, matrix)
    got = np.array([[float(v) for v in row] for row in scores[1:]])
    np.testing.assert_allclose(got, expected, atol=1e-12)
    loaded = PcaModel.from_csv(str(model_out))
    np.testing.assert_array_equal(loaded.components, model.components)


def test_ingest_command(dataset_csv, tmp_path, capsys):
    out = tmp_path / "norm.csv"
    code = main(["ingest", "--dataset", dataset_csv, "--schema", "bace",
                 "--undersample", "--seed", "3", "--output", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "rows:" in printed
    rows = list(csv.DictReader(open(out)))
    labels = [int(r["label"]) for r in rows]
    assert labels.count(0) == labels.count(1)


def test_ingest_custom_schema(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("structure,hit\nCCO,1\nCC,0\n", encoding="utf-8")
    code = main(["ingest", "--dataset", str(path), "--schema", "custom",
                 "--smiles-col", "structure", "--label-col", "hit"])
    assert code == EXIT_OK
    assert main(["ingest", "--dataset", str(path), "--schema", "custom"]) == EXIT_CONFIG


def test_run_command(dataset_csv, tmp_path, capsys):
    config = {
        "dataset": "bace",
        "dataset_path": dataset_csv,
        "n_list": [2],
        "reps": 1,
        "resplits": 1,
        "epochs": 2,
        "batch_size": 8,
        "master_seed": 5,
        "workers": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    code = main(["run", "--config", str(cfg_path), "--output", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "features_bace_mgfp.json").exists()
    assert (out_dir / "features_bace_mgfp.csv").exists()
    payload = json.load(open(out_dir / "features_bace_mgfp.json"))
    assert payload["protocol"] == "feature_sweep"
    assert len(payload["trials"]) == 2


def run_config(dataset_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": "bace", "dataset_path": dataset_csv, "n_list": [2], "reps": 1,
        "resplits": 1, "epochs": 2, "batch_size": 8, "master_seed": 5, "workers": 1,
    }))
    return ["run", "--config", str(cfg_path), "--output", str(tmp_path / "results")]


def test_log_level(dataset_csv, tmp_path, caplog):
    caplog.set_level(logging.DEBUG)  # restores the root logger's level afterwards
    assert main(["--log-level", "WARNING"] + run_config(dataset_csv, tmp_path)) == EXIT_OK
    assert "cells on" not in caplog.text
    assert main(["--log-level", "info"] + run_config(dataset_csv, tmp_path)) == EXIT_OK
    assert "feature_sweep: 1 cells on 1 workers" in caplog.text
    assert main(["--log-level", "LOUD"] + run_config(dataset_csv, tmp_path)) == EXIT_CONFIG


def test_non_finite_training_exits_with_cell_context(dataset_csv, tmp_path, capsys, monkeypatch):
    exact = qsarbench.quantum._scores_and_backward
    calls = []

    def nan_in_one_step(vec, x):
        calls.append(None)
        scores, backward = exact(vec, x)
        return (np.full_like(scores, np.nan) if len(calls) == 2 else scores), backward

    monkeypatch.setattr(qsarbench.quantum, "_scores_and_backward", nan_in_one_step)
    assert main(run_config(dataset_csv, tmp_path)) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "split_index=0 n=2 x=2.0 rep_seed=" in err
    assert "model=quantum: epoch 0: mean train loss nan" in err


def test_exit_codes(tmp_path):
    # usage error -> config exit code
    assert main(["run"]) == EXIT_CONFIG
    # malformed config file -> config exit code
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    # valid config pointing at a missing dataset -> data exit code
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(tmp_path / "none.csv")}))
    assert main(["run", "--config", str(cfg)]) == EXIT_DATA
    # n too wide for the fingerprint is a config error, raised before any ingest
    cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(tmp_path / "none.csv"),
                               "n_list": [2, 10]}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    # non-integer counts, a fractional n and a negative seed are config errors before ingest
    # as are bools for counts or numbers, strings for numbers, and Adam settings out of range
    for bad_value in ({"reps": 1.5}, {"n_list": [2.9]}, {"master_seed": -1},
                      {"reps": True}, {"n_list": [True, 2]}, {"master_seed": False},
                      {"undersample": "false"}, {"learning_rate": "0.01"}, {"beta1": 1.0},
                      {"fractions": [True]}, {"cluster_cutoff": True}):
        cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(tmp_path / "none.csv"),
                                   **bad_value}))
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    # unknown column -> data exit code
    d = tmp_path / "d.csv"
    d.write_text("a,b\nC,1\n")
    assert main(["fingerprint", "--input", str(d), "--smiles-col", "mol",
                 "--output", str(tmp_path / "o.csv")]) == EXIT_DATA


def test_fingerprint_hex_round_trip_through_cluster_input(tmp_path):
    fp = morgan_fingerprint(parse_smiles("CCO"), 2, 512)
    assert Fingerprint.from_hex(fp.to_hex(), 512) == fp
