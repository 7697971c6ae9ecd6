import json

import numpy as np
import pytest

from segadapt.errors import IntegrityError, ValidationError
from segadapt.report import aggregate_report, emit_report


def _eval_fragment(method, seed, domain, scores, path):
    doc = {
        "kind": "eval",
        "method": method,
        "seed": seed,
        "eval_seed": seed,
        "domain": domain,
        "split": "test",
        "count": len(scores),
        "per_image": scores,
        "mean": float(np.mean(scores)),
        "std": float(np.std(scores)),
        "checkpoint": "x.sdck",
    }
    path.write_text(json.dumps(doc))
    return doc


class TestReport:
    def _populate(self, root):
        root.mkdir(exist_ok=True)
        _eval_fragment("alpha", 0, "target", [0.5, 0.6, 0.7], root / "e1.json")
        _eval_fragment("alpha", 1, "target", [0.6, 0.7, 0.8], root / "e2.json")
        _eval_fragment("beta", 0, "target", [0.4, 0.5, 0.6], root / "e3.json")
        _eval_fragment("beta", 1, "target", [0.3, 0.4, 0.5], root / "e4.json")
        (root / "train.json").write_text(
            json.dumps(
                {
                    "kind": "train", "method": "alpha", "seed": 0,
                    "loss_curve": [1.0], "val_curve": [0.1, 0.2], "best_val_iou": 0.2,
                    "trainable_params": 10, "total_params": 100,
                    "checkpoint": "x.sdck", "config": {},
                }
            )
        )

    def test_aggregate_means_over_seeds(self, tmp_path):
        self._populate(tmp_path)
        report = aggregate_report(tmp_path)
        cell = report["methods"]["alpha"]["cells"]["target_test"]
        assert cell["mean"] == pytest.approx(np.mean([0.6, 0.7]))
        assert cell["seeds"] == [0, 1]
        assert report["methods"]["alpha"]["params"] == (10, 100)

    def test_t_test_between_methods(self, tmp_path):
        self._populate(tmp_path)
        report = aggregate_report(tmp_path)
        assert len(report["t_tests"]) == 1
        t = report["t_tests"][0]
        assert t["methods"] == ["alpha", "beta"]
        assert t["dof"] == 5
        assert t["t"] > 0  # alpha scores above beta everywhere

    def test_table_renders(self, tmp_path):
        self._populate(tmp_path)
        text = emit_report(tmp_path, fmt="table")
        assert "alpha" in text and "target_test IoU" in text
        assert "paired t-tests" in text

    def test_json_format_parses(self, tmp_path):
        self._populate(tmp_path)
        doc = json.loads(emit_report(tmp_path, fmt="json"))
        assert doc["fragments"] == 5

    def test_tampered_mean_rejected(self, tmp_path):
        self._populate(tmp_path)
        doc = json.loads((tmp_path / "e1.json").read_text())
        doc["mean"] += 0.01
        (tmp_path / "e1.json").write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="does not reproduce"):
            aggregate_report(tmp_path)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no run fragments"):
            aggregate_report(tmp_path)

    def test_unknown_format(self, tmp_path):
        self._populate(tmp_path)
        with pytest.raises(ValidationError, match="format"):
            emit_report(tmp_path, fmt="yaml")
