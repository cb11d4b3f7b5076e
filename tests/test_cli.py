import argparse
import csv
import json
import logging
from pathlib import Path

import numpy as np
import pytest

import qsarbench.quantum
import qsarbench.training
from qsarbench.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_INVARIANT, EXIT_OK, _build_parser,
                           _cmd_cluster, _cmd_fingerprint, _cmd_ingest, _cmd_pca, _cmd_protocol,
                           main)
from qsarbench.errors import QsarBenchError
from qsarbench.fingerprint import from_hex, morgan_fingerprints, to_hex
from qsarbench.harness import run_cluster_protocol, run_fraction_sweep, run_protocol
from qsarbench.smiles import parse_smiles

from conftest import synthetic_molecules, write_dataset_csv


@pytest.fixture
def dataset_csv(tmp_path):
    rng = np.random.Generator(np.random.Philox(99))
    smiles, labels = synthetic_molecules(rng, rows=50)
    return str(write_dataset_csv(tmp_path / "mols.csv", smiles, labels))


def test_every_subcommand_names_its_handler():
    sub, = [action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)]
    handlers = {name: parser.get_default("handler") for name, parser in sub.choices.items()}
    for name, runner, stem in (("run", run_protocol, "features"),
                               ("fractions", run_fraction_sweep, "fractions"),
                               ("clusters", run_cluster_protocol, "clusters")):
        handler = handlers.pop(name)
        assert handler.func is _cmd_protocol
        assert handler.keywords == {"runner": runner, "protocol_name": stem}
    assert handlers == {"fingerprint": _cmd_fingerprint, "pca": _cmd_pca,
                        "cluster": _cmd_cluster, "ingest": _cmd_ingest}


def test_fingerprint_command(dataset_csv, tmp_path, capsys):
    out = tmp_path / "fps.csv"
    code = main(["fingerprint", "--input", dataset_csv, "--smiles-col", "mol",
                 "--radius", "2", "--bits", "512", "--output", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 50
    # spot-check first row against the library call
    first_smiles = list(csv.DictReader(Path(dataset_csv).read_text().splitlines()))[0]["mol"]
    expected = morgan_fingerprints([parse_smiles(first_smiles)], 2, 512)[0]
    assert rows[0]["fingerprint_hex"] == to_hex(expected)


def test_cluster_command(dataset_csv, tmp_path):
    fps = tmp_path / "fps.csv"
    main(["fingerprint", "--input", dataset_csv, "--smiles-col", "mol", "--output", str(fps)])
    out = tmp_path / "clusters.csv"
    code = main(["cluster", "--fingerprints", str(fps), "--cutoff", "0.5", "--output", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
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
    scores = list(csv.reader(out.read_text().splitlines()))
    assert scores[0] == ["c0", "c1", "c2"]
    assert len(scores) == 13
    from qsarbench.pca import PcaModel, fit_pca, transform
    model = fit_pca(matrix[:8], 3)
    expected = transform(model, matrix)
    got = np.array([[float(v) for v in row] for row in scores[1:]])
    np.testing.assert_allclose(got, expected, atol=1e-12)
    loaded = PcaModel.from_csv(str(model_out))
    np.testing.assert_array_equal(loaded.components, model.components)


def test_pca_command_past_the_rank(tmp_path, rng, caplog):
    # 10 fit rows of 64 bits span 9 axes; --k 48 completes the other 39
    matrix = rng.integers(0, 2, size=(14, 64)).astype(np.float64)
    inp = tmp_path / "m.csv"
    inp.write_text("\n".join([",".join(f"f{i}" for i in range(64)),
                              *(",".join(repr(float(v)) for v in row) for row in matrix)]),
                   encoding="utf-8")
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text("\n".join(str(i) for i in range(10)))
    model_out = tmp_path / "model.csv"
    code = main(["pca", "--input", str(inp), "--k", "48", "--fit-rows", str(fit_rows),
                 "--output", str(tmp_path / "scores.csv"), "--model-out", str(model_out)])
    assert code == EXIT_OK
    assert "k=48 exceeds the rank 9 of the centered training rows; completed 39" in caplog.text
    from qsarbench.pca import PcaModel, fit_pca
    loaded, model = PcaModel.from_csv(str(model_out)), fit_pca(matrix[:10], 48)
    assert np.max(np.abs(loaded.components @ loaded.components.T - np.eye(48))) <= 1e-12
    np.testing.assert_array_equal(loaded.components, model.components)
    np.testing.assert_array_equal(loaded.eigenvalues, model.eigenvalues)
    assert np.count_nonzero(loaded.eigenvalues) == 9


@pytest.mark.parametrize("index", ["9", "-1", "4"])
def test_pca_fit_row_outside_the_matrix_is_a_data_error(index, tmp_path, capsys):
    inp = tmp_path / "m.csv"
    inp.write_text("a,b\n1,2\n3,5\n4,4\n0,1\n")
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text(f"0\n1\n{index}\n")
    out = tmp_path / "scores.csv"
    code = main(["pca", "--input", str(inp), "--k", "1", "--fit-rows", str(fit_rows),
                 "--output", str(out)])
    assert code == EXIT_DATA
    assert f"--fit-rows index {index} is outside the 4 rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body, named", [
    ("a,b\n1,2\nnan,5\n4,4\n", "row 1 holds a value that is not finite"),
    ("a,b\n1,2\n3,5\n4,inf\n", "row 2 holds a value that is not finite"),
    ("a,b\n1,2\n3,5,6\n4,4\n", "row 1 has 3 values; the header names 2 columns"),
    ("a,b\n1,2\n3\n4,4\n", "row 1 has 1 values; the header names 2 columns"),
    ("a,b\n1,2\n3,x\n4,4\n", "row 1 has a non-numeric entry"),
], ids=["nan", "inf", "long-row", "short-row", "non-numeric"])
def test_pca_names_the_file_and_row_of_a_bad_matrix_row(body, named, tmp_path, capsys):
    inp = tmp_path / "m.csv"
    inp.write_text(body)
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text("0\n1\n2\n")
    out = tmp_path / "scores.csv"
    code = main(["pca", "--input", str(inp), "--k", "1", "--fit-rows", str(fit_rows),
                 "--output", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {inp} {named}")
    assert not out.exists()


@pytest.mark.parametrize("value", ["1_0", "\u0663"])
def test_pca_cell_in_another_number_syntax_is_a_data_error(value, tmp_path, capsys):
    inp = tmp_path / "m.csv"
    inp.write_text(f"a,b\n1,2\n3,{value}\n4,4\n", encoding="utf-8")
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text("0\n1\n2\n")
    out = tmp_path / "scores.csv"
    code = main(["pca", "--input", str(inp), "--k", "1", "--fit-rows", str(fit_rows),
                 "--output", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: {inp} row 1 has a non-numeric entry: "
                                       f"could not convert string to float: {value!r}\n")
    assert not out.exists()


def test_pca_skips_blank_lines(tmp_path, capsys):
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text("0\n2\n3\n")
    outputs = []
    # the same matrix plain, and with an interior and a trailing blank line
    for name, body in (("plain", "a,b\n1,2\n3,5\n4,4\n0,1\n"),
                       ("blank", "a,b\n1,2\n\n3,5\n4,4\n0,1\n\n")):
        inp, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-scores.csv"
        inp.write_text(body)
        assert main(["pca", "--input", str(inp), "--k", "1", "--fit-rows", str(fit_rows),
                     "--output", str(out)]) == EXIT_OK
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 5   # the header and the four rows


def test_pca_on_a_header_without_rows_names_the_file(tmp_path, capsys):
    inp = tmp_path / "m.csv"
    inp.write_text("a,b\n")
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text("0\n")
    out = tmp_path / "scores.csv"
    code = main(["pca", "--input", str(inp), "--k", "1", "--fit-rows", str(fit_rows),
                 "--output", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {inp} holds no data rows\n"
    assert not out.exists()


def test_pca_on_an_empty_input_names_the_file(tmp_path, capsys):
    inp = tmp_path / "m.csv"
    inp.write_text("")
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text("0\n")
    out = tmp_path / "scores.csv"
    code = main(["pca", "--input", str(inp), "--k", "1", "--fit-rows", str(fit_rows),
                 "--output", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {inp} is empty\n"
    assert not out.exists()


def test_pca_names_the_file_and_line_of_a_bad_fit_row(tmp_path, capsys):
    inp = tmp_path / "m.csv"
    inp.write_text("a,b\n1,2\n3,5\n4,4\n")
    fit_rows = tmp_path / "rows.txt"
    out = tmp_path / "scores.csv"
    # int() would read '1_0' as row 10 and the Arabic-Indic digit three as row 3
    for bad in ("2.5", "1_0", "\u0663"):
        fit_rows.write_text(f"0\n\n1\n{bad}\n", encoding="utf-8")
        code = main(["pca", "--input", str(inp), "--k", "1", "--fit-rows", str(fit_rows),
                     "--output", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == \
            f"data error: {fit_rows} line 4 is no row index: {bad!r}\n"
        assert not out.exists()


def test_input_that_is_not_utf8_names_its_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"mol,fingerprint_hex,a\nCCO,\xff,1\n")
    good = tmp_path / "m.csv"
    good.write_text("a\n1\n2\n")
    fit_rows = tmp_path / "rows.txt"
    fit_rows.write_text("0\n1\n")
    dataset = write_dataset_csv(tmp_path / "d.csv", ["CCO", "CCN"], [1, 0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(dataset),
                               "embedding": "imgmol", "embedding_path": str(bad)}))
    for flags in (["fingerprint", "--input", str(bad), "--smiles-col", "mol"],
                  ["cluster", "--fingerprints", str(bad)],
                  ["pca", "--input", str(bad), "--k", "1", "--fit-rows", str(fit_rows)],
                  ["pca", "--input", str(good), "--k", "1", "--fit-rows", str(bad)],
                  ["ingest", "--dataset", str(bad), "--schema", "bace"],
                  ["run", "--config", str(cfg)]):
        capsys.readouterr()
        assert main(flags + ["--output", str(tmp_path / "o.csv")]) == EXIT_DATA, flags
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad} is not valid UTF-8: "), err
        assert "can't decode byte 0xff" in err, err


def test_ingest_command(dataset_csv, tmp_path, capsys):
    out = tmp_path / "norm.csv"
    code = main(["ingest", "--dataset", dataset_csv, "--schema", "bace",
                 "--undersample", "--seed", "3", "--output", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "rows:" in printed
    rows = list(csv.DictReader(out.read_text().splitlines()))
    labels = [int(r["label"]) for r in rows]
    assert labels.count(0) == labels.count(1)


def test_ingest_custom_schema(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("structure,hit\nCCO,1\nCC,0\n", encoding="utf-8")
    code = main(["ingest", "--dataset", str(path), "--schema", "custom",
                 "--smiles-col", "structure", "--label-col", "hit"])
    assert code == EXIT_OK
    assert main(["ingest", "--dataset", str(path), "--schema", "custom"]) == EXIT_CONFIG


def test_ingest_unknown_schema_is_a_config_error(dataset_csv, capsys):
    assert main(["ingest", "--dataset", dataset_csv, "--schema", "nope"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown schema 'nope'\n"


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
    payload = json.loads((out_dir / "features_bace_mgfp.json").read_text())
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
    assert err.startswith("internal error: split_index=0 n=2 x=2.0 rep_seed="), err
    assert "model=quantum: epoch 0: mean train loss nan" in err


def test_split_without_test_rows_is_a_data_error(tmp_path, capsys):
    def run(dataset, rows):
        path = tmp_path / f"{dataset}.csv"
        path.write_text(rows, encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": dataset, "dataset_path": str(path), "n_list": [2],
                                   "reps": 1, "resplits": 1, "epochs": 1, "workers": 1}))
        return main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])

    assert run("bace", "mol,Class\nCCO,1\nCCN,0\n") == EXIT_DATA
    assert "split has 2 train and 0 test rows" in capsys.readouterr().err
    # undersampling one row per class leaves two rows to split
    assert run("bbbp", "smiles,p_np\nCCO,1\nCCN,0\nCCC,0\nCCCC,0\n") == EXIT_DATA
    assert "split has 2 train and 0 test rows" in capsys.readouterr().err
    assert run("bace", "mol,Class\nCCO,1\nCCN,0\nCCC,1\n") == EXIT_OK


def test_workers_below_one_rejected_before_ingest(tmp_path):
    cfg = tmp_path / "cfg.json"
    missing = str(tmp_path / "none.csv")
    cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": missing, "workers": 0}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_any_library_error_exits_without_traceback(dataset_csv, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise QsarBenchError("no predictions")

    monkeypatch.setattr(qsarbench.training, "decide", fail)
    assert main(run_config(dataset_csv, tmp_path)) == EXIT_INVARIANT
    assert capsys.readouterr().err == "internal error: no predictions\n"


def test_exit_codes(tmp_path, capsys):
    # usage error -> config exit code
    assert main(["run"]) == EXIT_CONFIG
    # malformed config file -> config exit code
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    # a config that is not UTF-8 is a config error naming the file, not a data error
    bad.write_bytes(b'{"dataset": "\xff"}')
    capsys.readouterr()
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {bad} is not valid UTF-8: "), err
    # valid config pointing at a missing dataset -> data exit code
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(tmp_path / "none.csv")}))
    assert main(["run", "--config", str(cfg)]) == EXIT_DATA
    # n too wide for the fingerprint is a config error, raised before any ingest
    cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(tmp_path / "none.csv"),
                               "n_list": [2, 10]}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    # so is an n whose 2**n would not fit in memory: checked without forming 2**n
    for n in (4_000_000_000, 100_000_000_000):
        cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(tmp_path / "none.csv"),
                                   "n_list": [n]}))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"n={n}" in err and "Traceback" not in err
    # so are fingerprint bits whose per-row bit array would not fit in memory
    cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(tmp_path / "none.csv"),
                               "fingerprint_bits": 2**40}))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "fingerprint bits must be at most" in capsys.readouterr().err
    assert main(["fingerprint", "--input", str(tmp_path / "none.csv"), "--smiles-col", "mol",
                 "--bits", str(2**40), "--output", str(tmp_path / "o.csv")]) == EXIT_CONFIG
    assert "fingerprint bits must be at most" in capsys.readouterr().err
    # non-integer counts, a fractional n and a negative seed are config errors before ingest
    # as are bools for counts or numbers, strings for numbers, and Adam settings out of range
    for bad_value in ({"reps": 1.5}, {"n_list": [2.9]}, {"master_seed": -1},
                      {"reps": True}, {"n_list": [True, 2]}, {"master_seed": False},
                      {"undersample": "false"}, {"learning_rate": "0.01"}, {"beta1": 1.0},
                      {"fractions": [True]}, {"cluster_cutoff": True},
                      # a sweep value given twice would train its cells twice
                      {"n_list": [2, 2]}, {"fractions": [0.5, 0.5]}, {"cluster_k": [1, 1]}):
        cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": str(tmp_path / "none.csv"),
                                   **bad_value}))
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    # unknown column -> data exit code
    d = tmp_path / "d.csv"
    d.write_text("a,b\nC,1\n")
    assert main(["fingerprint", "--input", str(d), "--smiles-col", "mol",
                 "--output", str(tmp_path / "o.csv")]) == EXIT_DATA


def test_fingerprint_hex_round_trip_through_cluster_input(tmp_path):
    fp = morgan_fingerprints([parse_smiles("CCO")], 2, 512)[0]
    np.testing.assert_array_equal(from_hex(to_hex(fp)), fp)


def test_out_of_range_flags_are_config_errors(dataset_csv, tmp_path, capsys):
    fps = tmp_path / "fps.csv"
    assert main(["fingerprint", "--input", dataset_csv, "--smiles-col", "mol",
                 "--output", str(fps)]) == EXIT_OK
    unparseable = tmp_path / "unparseable.csv"
    unparseable.write_text("mol,label\nC1CC,1\n")
    for flags, named in (
        (["fingerprint", "--input", dataset_csv, "--smiles-col", "mol", "--bits", "100"], "bits"),
        (["fingerprint", "--input", dataset_csv, "--smiles-col", "mol", "--radius", "-1"], "radius"),
        # checked before the rows, so an input with no parseable row is no exception
        (["fingerprint", "--input", str(unparseable), "--smiles-col", "mol", "--bits", "100"],
         "bits"),
        (["cluster", "--fingerprints", str(fps), "--cutoff", "1.5"], "cutoff"),
        (["ingest", "--dataset", dataset_csv, "--schema", "bace", "--seed", "-1"], "--seed"),
        # checked before reading, so missing input files are no data error
        (["pca", "--input", str(tmp_path / "none.csv"), "--k", "-1",
          "--fit-rows", str(tmp_path / "none.txt")], "--k"),
        (["pca", "--input", str(tmp_path / "none.csv"), "--k", "0",
          "--fit-rows", str(tmp_path / "none.txt")], "--k"),
    ):
        capsys.readouterr()
        assert main(flags + ["--output", str(tmp_path / "o.csv")]) == EXIT_CONFIG, flags
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err, err


@pytest.mark.parametrize("bits", ["1", "2"])
def test_fingerprint_narrower_than_one_hex_digit_is_a_config_error(bits, dataset_csv, tmp_path,
                                                                   capsys):
    out = tmp_path / "fps.csv"
    assert main(["fingerprint", "--input", dataset_csv, "--smiles-col", "mol", "--bits", bits,
                 "--output", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: --bits must be at least 4, got {bits}: "
                                       "hex holds four bits per digit\n")
    assert not out.exists()


def test_four_bit_fingerprints_round_trip_through_cluster(tmp_path):
    d = tmp_path / "d.csv"
    d.write_text("mol,label\nCCO,1\nc1ccccc1,0\nCCN,1\n")
    fps = tmp_path / "fps.csv"
    assert main(["fingerprint", "--input", str(d), "--smiles-col", "mol", "--bits", "4",
                 "--output", str(fps)]) == EXIT_OK
    cells = [r["fingerprint_hex"] for r in csv.DictReader(fps.read_text().splitlines())]
    expected = morgan_fingerprints([parse_smiles(s) for s in ("CCO", "c1ccccc1", "CCN")], 2, 4)
    assert cells == [to_hex(bits) for bits in expected]
    assert all(len(cell) == 1 for cell in cells)
    for cell, bits in zip(cells, expected):
        np.testing.assert_array_equal(from_hex(cell), bits)
    out = tmp_path / "clusters.csv"
    assert main(["cluster", "--fingerprints", str(fps), "--cutoff", "1.0",
                 "--output", str(out)]) == EXIT_OK
    clusters = list(csv.DictReader(out.read_text().splitlines()))
    assert sorted(int(r["index"]) for r in clusters) == [0, 1, 2]


def test_fingerprint_skips_atomless_rows(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("mol,label\nCCO,1\n.,0\nc1ccccc1,0\n")
    out = tmp_path / "fps.csv"
    assert main(["fingerprint", "--input", str(d), "--smiles-col", "mol",
                 "--output", str(out)]) == EXIT_OK
    assert [r["row"] for r in csv.DictReader(out.read_text().splitlines())] == ["0", "2"]
    assert "(1 rows skipped)" in capsys.readouterr().out


def test_fingerprint_skips_isotopes_and_hydrogen_counts_beyond_sixteen_bits(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("mol,label\nCCO,1\n[70000C],0\n[CH70000],1\n[65535CH4],0\n")
    out = tmp_path / "fps.csv"
    assert main(["fingerprint", "--input", str(d), "--smiles-col", "mol",
                 "--output", str(out)]) == EXIT_OK
    assert [r["row"] for r in csv.DictReader(out.read_text().splitlines())] == ["0", "3"]
    assert "(2 rows skipped)" in capsys.readouterr().out


@pytest.mark.parametrize("huge", ["[" + "1" * 5000 + "C]", "[C+" + "1" * 5000 + "]"],
                         ids=["isotope", "charge"])
def test_fingerprint_skips_numbers_too_long_to_convert(tmp_path, capsys, huge):
    d = tmp_path / "d.csv"
    d.write_text(f"mol,label\nCCO,1\n{huge},0\n")
    out = tmp_path / "fps.csv"
    assert main(["fingerprint", "--input", str(d), "--smiles-col", "mol",
                 "--output", str(out)]) == EXIT_OK
    assert [r["row"] for r in csv.DictReader(out.read_text().splitlines())] == ["0"]
    assert "(1 rows skipped)" in capsys.readouterr().out


def write_hex_column(path, fps):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", "fingerprint_hex"])
        writer.writerows((i, to_hex(fp)) for i, fp in enumerate(fps))


def test_cluster_takes_the_width_from_the_file(tmp_path, capsys):
    graphs = [parse_smiles(s) for s in ("CCO", "CCCO", "c1ccccc1", "CCN")]
    narrow = tmp_path / "narrow.csv"
    write_hex_column(narrow, morgan_fingerprints(graphs, 2, 256))
    out = tmp_path / "clusters.csv"
    assert main(["cluster", "--fingerprints", str(narrow), "--output", str(out)]) == EXIT_OK
    assert len(list(csv.DictReader(out.read_text().splitlines()))) == len(graphs)
    mixed = tmp_path / "mixed.csv"
    write_hex_column(mixed, [*morgan_fingerprints(graphs[:2], 2, 256),
                             morgan_fingerprints(graphs[2:3], 2, 512)[0]])
    capsys.readouterr()
    assert main(["cluster", "--fingerprints", str(mixed), "--output", str(out)]) == EXIT_DATA
    assert "row 2 holds a 512-bit fingerprint; row 0 holds 256 bits" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["fff", "zz"])
def test_cluster_names_the_file_and_row_of_a_bad_hex_cell(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"row,fingerprint_hex\n0,{text}\n")
    assert main(["cluster", "--fingerprints", str(bad), "--output", str(tmp_path / "o.csv")]) \
        == EXIT_DATA
    assert f"{bad} row 0" in capsys.readouterr().err


def test_cluster_of_a_file_without_rows_names_the_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("row,fingerprint_hex\n")
    out = tmp_path / "o.csv"
    assert main(["cluster", "--fingerprints", str(empty), "--output", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {empty} holds no fingerprints to cluster\n"
    assert not out.exists()


def test_cluster_input_without_the_fingerprint_column_is_a_data_error(tmp_path, capsys):
    fps = tmp_path / "fps.csv"
    fps.write_text("row,hex\n0,ff\n")
    out = tmp_path / "o.csv"
    assert main(["cluster", "--fingerprints", str(fps), "--output", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {fps} lacks column 'fingerprint_hex'\n"
    assert not out.exists()


def test_config_path_that_is_no_path_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "bace", "dataset_path": 0}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "dataset_path must be a non-empty path string" in capsys.readouterr().err
