"""Golden files: each protocol, re-run at a tiny scale, writes the committed report,
and ingest turns the seeded corpus into the committed graphs, fingerprints and errors.

A report is promised identical across re-runs and worker counts on one
machine, not across CPUs: another BLAS kernel may round differently, and
then `scripts/regen_golden.py` regenerates the files.  Schedule digests,
best epochs, accuracies, recalls and summaries must match exactly, and
`final_train_loss` within 1e-12.  A failure names every differing field.
"""

import importlib.util
import json
import logging
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen_golden = _load("regen_golden")
compare_reports = _load("compare_reports")

LOSS_TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    return regen_golden.write_dataset(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("protocol", sorted(regen_golden.PROTOCOLS))
def test_protocol_report_matches_its_golden_file(protocol, dataset_path, caplog):
    caplog.set_level(logging.ERROR)   # rank-deficient PCA fits warn on the cluster sweep
    golden = json.loads((ROOT / "tests" / "golden" / f"{protocol}.json").read_text("utf-8"))
    report = regen_golden.run_golden(protocol, dataset_path)
    moved = [
        f"{key}: {old!r} -> {new!r}"
        for key, old, new, delta in compare_reports.diff_reports(golden, report)
        if not (key.endswith(".final_train_loss") and delta is not None
                and delta <= LOSS_TOLERANCE)
    ]
    assert not moved, f"{protocol} report moved in {len(moved)} fields:\n" + "\n".join(moved)


@pytest.fixture(scope="module")
def ingest_entries():
    return regen_golden.ingest_entries()


def test_ingest_matches_its_golden_file(ingest_entries):
    golden = json.loads((ROOT / "tests" / "golden" / "ingest.json").read_text("utf-8"))
    assert [entry["smiles"] for entry in ingest_entries] == [entry["smiles"] for entry in golden], \
        "the ingest corpus itself changed"
    moved = [(old, new) for old, new in zip(golden, ingest_entries) if old != new]
    if moved:
        old, new = moved[0]
        fields = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
        pytest.fail(f"{len(moved)} ingest entries moved; the first is {old['smiles']!r} "
                    f"in {fields}:\n{old}\n->\n{new}")
