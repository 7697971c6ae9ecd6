"""The names the protocol benchmark hooks must exist where it hooks them.

perfbench/tracer.py replaces attributes from outside the package, and the
benchmark's sample clocks patch engine globals.  A refactor that moves or
renames one of them would silently drop a span or a clock, so check here.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import segadapt.engine
from segadapt.checkpoint import dump_bytes
from segadapt.config import default_config
from segadapt.data import SplitSizes, generate_dataset
from segadapt.model import SegmentationModel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def targets():
    return _load_tracer().TARGETS


def test_every_trace_target_is_its_owners_own_attribute(targets):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert not missing


@pytest.mark.parametrize("name", ["supervised_loss", "compute_iou", "restore"])
def test_sample_boundary_clocks_are_engine_globals(name):
    assert callable(vars(segadapt.engine)[name])


@pytest.fixture(scope="module")
def stage(tmp_path_factory):
    """A small dataset and the seeded initial model saved as a full_ft checkpoint."""
    root = tmp_path_factory.mktemp("clocks")
    cfg = default_config()
    cfg = replace(cfg, data=replace(cfg.data, sizes=SplitSizes(10, 10, 10, 10, 10)))
    generate_dataset(root / "data", cfg.data.source, cfg.data.target, cfg.data.sizes)
    checkpoint = root / "base" / "checkpoint.sdck"
    weights = dump_bytes(SegmentationModel(cfg.model).registry)
    segadapt.engine.save_checkpoint(checkpoint, weights, "full_ft", cfg.model, None, None, 0)
    return {"data": root / "data", "cfg": cfg, "checkpoint": checkpoint, "root": root}


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(segadapt.engine, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(segadapt.engine, name, counting)
    return calls


def test_ttda_clock_ticks_once_per_sample_plus_the_load(stage, monkeypatch):
    # One restore loads the checkpoint, then one resets each sample.
    calls = _count_calls(monkeypatch, "restore")
    cfg = replace(stage["cfg"], ttda=replace(stage["cfg"].ttda, iterations=1))
    fragment = segadapt.engine.run_ttda(stage["checkpoint"], stage["data"], cfg)
    assert len(calls) == fragment["count"] + 1


def test_train_clock_ticks_once_per_trained_sample(stage, monkeypatch):
    calls = _count_calls(monkeypatch, "supervised_loss")
    cfg = stage["cfg"]
    cfg = replace(
        cfg,
        train=replace(cfg.train, method="sam_da_dec", epochs=2, init_from=str(stage["checkpoint"])),
    )
    fragment = segadapt.engine.train_supervised(cfg, stage["data"], stage["root"] / "run")
    assert len(calls) == cfg.train.epochs * fragment["train_samples"]
