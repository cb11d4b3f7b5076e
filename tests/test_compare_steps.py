"""A smoke run of `scripts/compare_steps.py` that times this tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_steps.py"


def test_compare_steps_prints_one_row_per_width_batch_and_kind():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT),
         "--qubits", "1", "2", "--rows", "3", "--reps", "1", "2", "--epochs", "1",
         "--repeats", "2", "--number", "1"],
        capture_output=True, text=True, check=True)
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["n", "rows", "reps", "kind", "parent", "us", "change", "us", "ratio"]
    assert [row.split()[:4] for row in rows] == [
        [n, "1200" if kind == "cell" else "3", reps, kind]
        for n in ("1", "2") for reps in ("1", "2") for kind in ("step", "forward", "cell")]
    for row in rows:
        parent, change, ratio = (float(v) for v in row.split()[4:])
        assert parent > 0 and change > 0 and ratio > 0


def test_compare_steps_times_ingest_of_a_tree_against_itself():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT),
         "--kinds", "ingest", "--rows", "5", "--repeats", "2", "--number", "1"],
        capture_output=True, text=True, check=True)
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["n", "rows", "reps", "kind", "parent", "us", "change", "us", "ratio"]
    assert len(rows) == 1
    n, rows_read, reps, kind, *times = rows[0].split()
    assert (n, reps, kind) == ("-", "-", "ingest")
    assert int(rows_read) > 5   # REAL_SMILES and the malformed rows ride along
    assert all(float(v) > 0 for v in times)


def test_compare_steps_times_butina_of_a_tree_against_itself():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT),
         "--kinds", "butina", "--rows", "50", "--repeats", "2", "--number", "1"],
        capture_output=True, text=True, check=True)
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["n", "rows", "reps", "kind", "parent", "us", "change", "us", "ratio"]
    assert len(rows) == 1
    n, rows_read, reps, kind, *times = rows[0].split()
    assert (n, rows_read, reps, kind) == ("-", "50", "-", "butina")
    assert all(float(v) > 0 for v in times)
