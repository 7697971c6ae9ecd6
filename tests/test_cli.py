import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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

    def test_malformed_manifest_is_one(self, env, capsys, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format_version": 1}')
        code = main(["eval", "--checkpoint", env["checkpoint"], "--data", str(tmp_path), "--domain", "source"])
        assert code == 1
        assert "lacks key 'domains'" in capsys.readouterr().err

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

    def test_zero_heads_paramcount_is_one_without_traceback(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": {"enc_heads": 0}}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-m", "segadapt.cli", "paramcount", "--config", str(config)],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert "error:" in out.stderr

    def test_negative_source_seed_gen_data_is_one(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"data": {"source": {"seed": -1}}}))
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d")]) == 1
        assert "seed" in capsys.readouterr().err

    def test_negative_eval_seed_is_one(self, env, capsys):
        code = main(
            [
                "eval", "--checkpoint", env["checkpoint"], "--data", env["data"],
                "--domain", "source", "--seed", "-1",
            ]
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ttda"])
    @pytest.mark.parametrize("loss", [{"temperature": 0}, {"dice_weight": -1}], ids=["temperature", "dice_weight"])
    def test_a_bad_loss_value_is_one_before_any_data_or_checkpoint_is_read(
        self, env, capsys, tmp_path, monkeypatch, command, loss
    ):
        import segadapt.engine as engine

        for name in ("load_manifest", "load_model"):
            monkeypatch.setattr(engine, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"loss": loss}))
        argv = {
            "train": ["train", "--data", env["data"], "--out", str(tmp_path / "out")],
            "ttda": ["ttda", "--checkpoint", env["checkpoint"], "--data", env["data"]],
        }[command]
        _exits_one_with_one_error_line([*argv, "--config", str(config)], capsys)
        assert not (tmp_path / "out").exists()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_ablate_axis_choices(self, env):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--axis", "depth", "--config", env["config"],
                  "--data", env["data"], "--out", "x"])
        assert exc.value.code == 64

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


# Each subcommand's path arguments and the role each plays; the arguments not
# under test take the module run's good values.
PATH_ARGS = {
    "gen-data": [("--config", "in-file"), ("--out", "out-dir")],
    "train": [("--config", "in-file"), ("--data", "in-dir"), ("--out", "out-dir")],
    "eval": [("--checkpoint", "in-file"), ("--data", "in-dir"), ("--report", "out-file")],
    "ttda": [("--checkpoint", "in-file"), ("--data", "in-dir"), ("--config", "in-file"), ("--report", "out-file")],
    "ablate": [("--config", "in-file"), ("--data", "in-dir"), ("--out", "out-dir")],
    "report": [("--run", "in-dir")],
    "paramcount": [("--config", "in-file")],
}
FIXED_ARGS = {"eval": ["--domain", "source"], "ablate": ["--axis", "placement"]}
# A missing output path is made, so it is no bad kind for an output.
BAD_KINDS = {
    "in-file": ("missing", "a-directory", "under-a-file"),
    "in-dir": ("missing", "a-file", "under-a-file"),
    "out-dir": ("a-file", "under-a-file"),
    "out-file": ("a-directory", "under-a-file"),
}
BAD_PATH_CASES = [
    (command, flag, kind)
    for command, args in PATH_ARGS.items()
    for flag, role in args
    for kind in BAD_KINDS[role]
]


def _bad_path(root: Path, kind: str) -> Path:
    a_file, a_directory = root / "a-file", root / "a-directory"
    a_file.write_text("x")
    a_directory.mkdir()
    return {
        "missing": root / "absent",
        "a-file": a_file,
        "a-directory": a_directory,
        "under-a-file": a_file / "x",
    }[kind]


def _exits_one_with_one_error_line(argv, capsys) -> None:
    code = main(argv)  # an undocumented exception escapes here as a test error
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err, err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err


class TestBadPaths:
    @pytest.mark.parametrize("command, flag, kind", BAD_PATH_CASES, ids=["-".join(c) for c in BAD_PATH_CASES])
    def test_each_bad_path_exits_one_with_one_error_line(self, env, capsys, tmp_path, command, flag, kind):
        good = {
            "--config": env["config"], "--data": env["data"], "--checkpoint": env["checkpoint"],
            "--run": env["run"], "--out": str(tmp_path / "out"), "--report": str(tmp_path / "report.json"),
        }
        good[flag] = str(_bad_path(tmp_path, kind))
        argv = [command, *FIXED_ARGS.get(command, [])]
        for arg, _ in PATH_ARGS[command]:
            argv += [arg, good[arg]]
        _exits_one_with_one_error_line(argv, capsys)

    @pytest.mark.parametrize("command", ["train", "ablate", "eval", "ttda"])
    def test_a_bad_out_fails_before_the_first_evaluation(self, env, capsys, tmp_path, monkeypatch, command):
        import segadapt.engine as engine

        for name in ("evaluate_model", "_ttda_sample"):
            monkeypatch.setattr(engine, name, lambda *args, name=name: pytest.fail(f"{name} ran before writing out"))
        good = {"--config": env["config"], "--data": env["data"], "--checkpoint": env["checkpoint"]}
        argv = [command, *FIXED_ARGS.get(command, [])]
        for arg, role in PATH_ARGS[command]:  # each command has one output path
            argv += [arg, str(_bad_path(tmp_path, BAD_KINDS[role][0])) if role.startswith("out-") else good[arg]]
        _exits_one_with_one_error_line(argv, capsys)

    def test_a_directory_init_from_exits_one(self, env, capsys, tmp_path):
        doc = json.loads(Path(env["config"]).read_text())
        doc["train"]["init_from"] = str(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        argv = ["train", "--config", str(config), "--data", env["data"], "--out", str(tmp_path / "out")]
        _exits_one_with_one_error_line(argv, capsys)
        assert not (tmp_path / "out").exists()  # refused before anything is written

    def test_a_directory_checkpoint_with_a_sidecar_beside_it_exits_one(self, env, capsys, tmp_path):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt.meta.json").write_bytes(Path(env["checkpoint"] + ".meta.json").read_bytes())
        argv = ["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data", env["data"], "--domain", "source"]
        _exits_one_with_one_error_line(argv, capsys)

    def test_a_directory_manifest_exits_one(self, env, capsys, tmp_path):
        (tmp_path / "manifest.json").mkdir()
        argv = ["eval", "--checkpoint", env["checkpoint"], "--data", str(tmp_path), "--domain", "source"]
        _exits_one_with_one_error_line(argv, capsys)

    def test_report_skips_a_directory_named_like_a_fragment(self, env, capsys, tmp_path):
        (tmp_path / "sub.json").mkdir()
        _exits_one_with_one_error_line(["report", "--run", str(tmp_path)], capsys)
        (tmp_path / "fragment_train.json").write_bytes((Path(env["run"]) / "fragment_train.json").read_bytes())
        assert main(["report", "--run", str(tmp_path)]) == 0
