"""A smoke run of `scripts/compare_steps.py` that times this tree against itself."""

import shutil
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


# Appended to a copy of this tree's package: the ingest of trees whose
# featurizer took one graph per call.  `data._parse_texts` hands every ingest
# slice to the `_parse_chunk` it finds in its module when called, so this one
# replaces it.
PER_GRAPH_DATA = """

def _parse_chunk(texts, featurize):
    kept = np.zeros(len(texts), dtype=bool)
    rows = []
    for i, text in enumerate(texts):
        try:
            graph = parse_smiles(text)
        except SmilesParseError:
            continue
        kept[i] = True
        if featurize is not None:
            rows.append(featurize(graph))
    return kept, np.array(rows) if rows else None
"""
PER_GRAPH_HARNESS = """

def _morgan_bits(graph, radius, nbits):
    return morgan_fingerprints([graph], radius, nbits)[0]
"""


def test_compare_steps_times_ingest_of_a_per_graph_tree_against_this_one(tmp_path):
    package = tmp_path / "src" / "qsarbench"
    shutil.copytree(ROOT / "src" / "qsarbench", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, text in (("data.py", PER_GRAPH_DATA), ("harness.py", PER_GRAPH_HARNESS)):
        with open(package / name, "a", encoding="utf-8") as handle:
            handle.write(text)
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(tmp_path), "--change", str(ROOT),
         "--kinds", "ingest", "--rows", "5", "--repeats", "2", "--number", "1"],
        capture_output=True, text=True, check=True)
    _, row = result.stdout.splitlines()
    n, _, reps, kind, *times = row.split()
    assert (n, reps, kind) == ("-", "-", "ingest")
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


def test_compare_steps_times_embedding_reads_of_a_tree_against_itself():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT),
         "--kinds", "embeddings", "--rows", "7", "--repeats", "2", "--number", "1"],
        capture_output=True, text=True, check=True)
    header, row, peak = result.stdout.splitlines()
    assert header.split() == ["n", "rows", "reps", "kind", "parent", "us", "change", "us", "ratio"]
    n, rows_read, reps, kind, *times = row.split()
    assert (n, rows_read, reps, kind) == ("-", "7", "-", "embeddings")
    assert all(float(v) > 0 for v in times)
    assert peak.startswith("tracemalloc peak of one embeddings call on 7 rows: parent ")


# Appended to a copy of this tree's `data.py`: a reader one ulp off.
ULP_OFF_DATA = """

_read_exactly = load_embeddings


def load_embeddings(path, ids, skipped_ids=()):
    return np.nextafter(_read_exactly(path, ids, skipped_ids), np.inf)
"""


def test_compare_steps_exits_when_embedding_bits_differ(tmp_path):
    package = tmp_path / "src" / "qsarbench"
    shutil.copytree(ROOT / "src" / "qsarbench", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "data.py", "a", encoding="utf-8") as handle:
        handle.write(ULP_OFF_DATA)
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(tmp_path),
         "--kinds", "embeddings", "--rows", "7", "--repeats", "2", "--number", "1"],
        capture_output=True, text=True)
    assert result.returncode != 0
    assert "embeddings of 7 rows differ between the parent and the change" in result.stderr
