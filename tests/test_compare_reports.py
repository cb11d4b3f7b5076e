"""The field diff of `scripts/compare_reports.py` on hand-made report payloads."""

import copy
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _report() -> dict:
    trial = dict(model="quantum", n=2, x=2.0, split_index=0, rep_index=0, split_seed=11,
                 rep_seed=12, best_test_accuracy=0.75, best_epoch=3, final_train_loss=0.5,
                 test_recall_at_best=None, schedule_digest="4a9b")
    summary = dict(model="quantum", n=2, x=2.0, mean_accuracy=0.75, spread=0.0,
                   per_split_means=[0.75], mean_recall=None)
    return dict(protocol="feature_sweep", config={"dataset": "bace"}, version="0.1.0",
                skipped_rows=0, trials=[trial, {**trial, "model": "classical"}],
                summaries=[summary])


def test_identical_reports_have_no_diff():
    assert compare_reports.diff_reports(_report(), _report()) == []


def test_one_changed_trial_field_is_listed_with_its_delta():
    change = copy.deepcopy(_report())
    change["trials"][0]["final_train_loss"] = 0.5 + 2e-14
    [(key, parent, changed, delta)] = compare_reports.diff_reports(_report(), change)
    assert key == "trials[quantum n=2 x=2.0 split=0 rep=0].final_train_loss"
    assert (parent, changed) == (0.5, 0.5 + 2e-14)
    assert delta == pytest.approx(2e-14)
