import json
from dataclasses import replace

import pytest

from segadapt.cli import main
from segadapt.config import default_config, save_config
from segadapt.data import SplitSizes


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Config file + generated dataset + one trained checkpoint, via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg = default_config()
    cfg = replace(
        cfg,
        data=replace(cfg.data, sizes=SplitSizes(20, 10, 10, 10, 10)),
        train=replace(cfg.train, method="full_ft", epochs=1, seed=100),
        ttda=replace(cfg.ttda, iterations=1),
    )
    config_path = root / "run.json"
    save_config(config_path, cfg)
    data_dir = root / "data"
    assert main(["gen-data", "--config", str(config_path), "--out", str(data_dir)]) == 0
    run_dir = root / "run"
    assert main(["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(run_dir)]) == 0
    return {
        "root": root,
        "config": str(config_path),
        "data": str(data_dir),
        "run": str(run_dir),
        "checkpoint": str(run_dir / "checkpoint.sdck"),
    }


class TestSubcommands:
    def test_gen_data_wrote_dataset(self, env, capsys):
        assert (env["root"] / "data" / "manifest.json").exists()

    def test_train_wrote_checkpoint(self, env):
        assert (env["root"] / "run" / "checkpoint.sdck").exists()
        assert (env["root"] / "run" / "fragment_train.json").exists()

    def test_eval(self, env, capsys, tmp_path):
        report = tmp_path / "eval.json"
        code = main(
            [
                "eval", "--checkpoint", env["checkpoint"], "--data", env["data"],
                "--domain", "source", "--split", "test", "--report", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "source_test" in out and "IoU" in out
        assert json.loads(report.read_text())["kind"] == "eval"

    def test_ttda(self, env, capsys, tmp_path):
        report = tmp_path / "ttda.json"
        code = main(
            [
                "ttda", "--checkpoint", env["checkpoint"], "--data", env["data"],
                "--config", env["config"], "--report", str(report),
            ]
        )
        assert code == 0
        assert "->" in capsys.readouterr().out
        assert json.loads(report.read_text())["kind"] == "ttda"

    def test_report_table(self, env, capsys):
        code = main(["report", "--run", env["run"], "--format", "table"])
        assert code == 0
        assert "full_ft" in capsys.readouterr().out

    def test_report_json(self, env, capsys):
        code = main(["report", "--run", env["run"], "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "methods" in doc

    def test_paramcount_default(self, capsys):
        code = main(["paramcount"])
        assert code == 0
        out = capsys.readouterr().out
        assert "921,602" in out
        assert "0.66M" in out
        assert "closed form" in out

    def test_paramcount_closed_form_matches_registry(self, env, capsys):
        code = main(["paramcount", "--config", env["config"]])
        assert code == 0
        out = capsys.readouterr().out
        closed = next(l for l in out.splitlines() if "closed form" in l)
        registry = next(l for l in out.splitlines() if "registry" in l)
        assert closed.split(":")[1].strip() == registry.split(":")[1].strip()


class TestExitCodes:
    def test_missing_config_is_one(self, capsys, tmp_path):
        code = main(["train", "--config", str(tmp_path / "no.json"), "--data", "x", "--out", "y"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_checkpoint_is_one(self, env, capsys):
        code = main(
            ["eval", "--checkpoint", "/nonexistent.sdck", "--data", env["data"], "--domain", "source"]
        )
        assert code == 1

    def test_unknown_domain_is_one(self, env, capsys):
        code = main(
            ["eval", "--checkpoint", env["checkpoint"], "--data", env["data"], "--domain", "xray"]
        )
        assert code == 1

    def test_corrupt_checkpoint_is_one(self, env, capsys, tmp_path):
        bad = tmp_path / "bad.sdck"
        bad.write_bytes(b"JUNKJUNKJUNK")
        meta = env["checkpoint"] + ".meta.json"
        (tmp_path / "bad.sdck.meta.json").write_text((env["root"] / "run" / "checkpoint.sdck.meta.json").read_text())
        code = main(["eval", "--checkpoint", str(bad), "--data", env["data"], "--domain", "source"])
        assert code == 1

    def test_malformed_sidecar_is_one(self, env, capsys, tmp_path):
        ckpt = tmp_path / "ckpt.sdck"
        ckpt.write_bytes((env["root"] / "run" / "checkpoint.sdck").read_bytes())
        (tmp_path / "ckpt.sdck.meta.json").write_text("[1, 2]")
        code = main(["eval", "--checkpoint", str(ckpt), "--data", env["data"], "--domain", "source"])
        assert code == 1
        assert "not a JSON object" in capsys.readouterr().err

    def test_tampered_fragment_is_two(self, env, capsys, tmp_path):
        run = tmp_path / "tampered"
        run.mkdir()
        doc = json.loads((env["root"] / "run" / "fragment_train.json").read_text())
        (run / "fragment_train.json").write_text(json.dumps(doc))
        eval_doc = {
            "kind": "eval", "method": "full_ft", "seed": 0, "eval_seed": 0,
            "domain": "source", "split": "test", "count": 2,
            "per_image": [0.5, 0.5], "mean": 0.9, "std": 0.0, "checkpoint": "x",
        }
        (run / "fragment_eval.json").write_text(json.dumps(eval_doc))
        code = main(["report", "--run", str(run)])
        assert code == 2
        assert "integrity error:" in capsys.readouterr().err

    def test_empty_report_dir_is_one(self, capsys, tmp_path):
        assert main(["report", "--run", str(tmp_path)]) == 1

    def test_bad_json_config_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_ablate_axis_choices(self, env):
        with pytest.raises(SystemExit):
            main(["ablate", "--axis", "depth", "--config", env["config"],
                  "--data", env["data"], "--out", "x"])
