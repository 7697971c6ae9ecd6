"""The names the protocol benchmark hooks must exist where it hooks them.

perfbench/tracer.py replaces attributes from outside the package, the
benchmark's sample clocks patch engine globals, and perfbench/workloads.py
calls the package through module attributes.  A refactor that moves or
renames one of them would silently drop a span or a clock, so check here.
"""

import ast
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import segadapt.adapter
import segadapt.data
import segadapt.engine
from segadapt.checkpoint import dump_bytes
from segadapt.config import TOY_ADAPTER, default_config
from segadapt.data import SplitSizes, generate_dataset
from segadapt.model import ModelConfig, PromptSet, SegmentationModel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


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


def test_every_package_name_the_workloads_read_exists():
    # workloads.py imports segadapt.engine as engine
    modules = {
        "engine": segadapt.engine,
        "segadapt.data": segadapt.data,
        "segadapt.adapter": segadapt.adapter,
    }
    reads = {
        (owner, node.attr)
        for node in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(node, ast.Attribute) and (owner := ast.unparse(node.value)) in modules
    }
    assert ("engine", "run_ttda") in reads and ("segadapt.data", "generate_dataset") in reads
    missing = sorted(f"{owner}.{attr}" for owner, attr in reads if attr not in vars(modules[owner]))
    assert not missing


@pytest.mark.parametrize("name", ["supervised_loss", "compute_iou", "restore"])
def test_sample_boundary_clocks_are_engine_globals(name):
    assert callable(vars(segadapt.engine)[name])


@pytest.mark.parametrize("placement", ["decoder", "encoder"])
def test_adapter_hooks_resolve_the_traced_module_global(placement, monkeypatch):
    # The tracer's adapter.adapter_apply span replaces the module attribute
    # after the model is wired, so a hook must look the function up per call.
    cfg = ModelConfig()
    adapter_cfg = replace(TOY_ADAPTER, placement=placement)
    model = SegmentationModel(cfg)
    attach = vars(segadapt.adapter)[f"attach_{placement}_adapter"]
    attach(model, adapter_cfg)
    calls = []
    original = segadapt.adapter.adapter_apply

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(segadapt.adapter, "adapter_apply", counting)
    image = np.random.default_rng(0).uniform(size=(cfg.image_size, cfg.image_size))
    model.predict(image, PromptSet([(20.0, 30.0, 1)]))
    if placement == "decoder":
        assert calls == [f"adapter.dec{i}" for i in range(cfg.dec_depth)]
    else:
        first = cfg.enc_depth - adapter_cfg.resolved_encoder_blocks(cfg.enc_depth)
        assert calls == [f"adapter.enc{i}" for i in range(first, cfg.enc_depth)]


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


def test_eval_clock_ticks_once_per_image(stage, monkeypatch):
    # Evaluation runs its images in stacks; the clock still needs one
    # compute_iou per image, a full chunk's and the remainder's alike.
    assert stage["cfg"].data.sizes.source_test % segadapt.engine.EVAL_BATCH
    calls = _count_calls(monkeypatch, "compute_iou")
    fragment = segadapt.engine.evaluate_checkpoint(stage["checkpoint"], stage["data"], "source", "test")
    assert len(calls) == fragment["count"] == stage["cfg"].data.sizes.source_test == 10
