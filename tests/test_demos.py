"""The demos run to completion against the current package.

Each demo runs in its own interpreter with `src` on PYTHONPATH, from a
temporary working directory.  Demo 05 is left out: it runs a full protocol
for tens of seconds and writes `results/` into its working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_smiles_and_fingerprints.py",
    "02_pca_feature_selection.py",
    "03_quantum_circuit.py",
    "04_train_toy_classifiers.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
