import gc
import json
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import segadapt.engine as engine
import segadapt.tensor as tensor
from chains import ENGINE_LOSSES
from segadapt.adapter import METHODS, trainable_predicate
from segadapt.checkpoint import dump_bytes, load_bytes, restore
from segadapt.config import default_config
from segadapt.data import SplitSizes, generate_dataset, load_manifest, load_split
from segadapt.engine import (
    ABLATION_SIZES,
    ENTROPY_FLOOR,
    EvalResult,
    aggregate_report,
    attach_method,
    emit_report,
    entropy_improved,
    evaluate_checkpoint,
    evaluate_model,
    interior_prompt,
    load_model,
    prompt_rng,
    run_ablation,
    run_ttda,
    save_checkpoint,
    train_supervised,
)
from segadapt.errors import ContractError, FormatError, IntegrityError, ValidationError
from segadapt.model import PromptSet, SegmentationModel
from segadapt.params import Init, ParameterRegistry
from segadapt.tensor import no_grad

SIZES = SplitSizes(30, 10, 10, 10, 10)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset plus a briefly trained base checkpoint."""
    root = tmp_path_factory.mktemp("engine")
    cfg = default_config()
    cfg = replace(cfg, data=replace(cfg.data, sizes=SIZES))
    generate_dataset(root / "data", cfg.data.source, cfg.data.target, cfg.data.sizes)
    base_cfg = replace(cfg, train=replace(cfg.train, method="full_ft", epochs=2, seed=100))
    fragment = train_supervised(base_cfg, root / "data", root / "base")
    return {"root": root, "data": root / "data", "cfg": cfg, "base": fragment}


@pytest.fixture(scope="module")
def samples(workspace):
    manifest = load_manifest(workspace["data"])
    return load_split(workspace["data"], manifest, "source_val")


def _images(x) -> list:
    """The images of ``x``: a stack's, or ``x`` itself (evaluation encodes
    and decodes its images in stacks, every other stage one at a time)."""
    return list(x) if np.ndim(x) == 3 else [x]


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


class TestInteriorPrompt:
    def test_point_lies_on_mask(self, samples):
        for s in samples:
            prompt = interior_prompt(s.mask, prompt_rng(0, s.volume_id, s.slice_index))
            (x, y, label) = prompt.points[0]
            assert label == 1
            assert s.mask[int(y), int(x)] == 1

    def test_single_point(self, samples):
        prompt = interior_prompt(samples[0].mask, prompt_rng(0, 0, 0))
        assert len(prompt.points) == 1

    def test_deterministic(self, samples):
        s = samples[0]
        a = interior_prompt(s.mask, prompt_rng(3, s.volume_id, s.slice_index))
        b = interior_prompt(s.mask, prompt_rng(3, s.volume_id, s.slice_index))
        assert a.points == b.points

    def test_seed_changes_jitter_somewhere(self, samples):
        # Across many samples at least one jitter draw must differ.
        diffs = 0
        for s in samples:
            a = interior_prompt(s.mask, prompt_rng(0, s.volume_id, s.slice_index))
            b = interior_prompt(s.mask, prompt_rng(1, s.volume_id, s.slice_index))
            diffs += a.points != b.points
        assert diffs > 0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            interior_prompt(np.zeros((8, 8), dtype=np.uint8), np.random.default_rng(0))

    def test_single_pixel_mask(self):
        mask = np.zeros((8, 8), dtype=np.uint8)
        mask[5, 2] = 1
        prompt = interior_prompt(mask, np.random.default_rng(0))
        assert prompt.points[0][:2] == (2.0, 5.0)


class TestEvaluation:
    def test_perfect_predictor_scores_one(self, samples, monkeypatch):
        # evaluate_model predicts a stack of images per call.
        masks = {s.image.tobytes(): s.mask for s in samples}
        monkeypatch.setattr(
            SegmentationModel, "predict",
            lambda self, images, *args: SimpleNamespace(mask=[masks[image.tobytes()] for image in images]),
        )
        result = evaluate_model(SegmentationModel(default_config().model), samples, seed=0)
        assert result.mean == 1.0
        assert result.per_image == [1.0] * len(samples)

    def test_eval_results_aggregate(self):
        result = EvalResult.from_scores([0.5, 1.0])
        assert result.mean == 0.75
        assert result.std == 0.25

    def test_checkpoint_eval_idempotent(self, workspace):
        kwargs = dict(domain="source", split="val", seed=0)
        a = evaluate_checkpoint(workspace["base"]["checkpoint"], workspace["data"], **kwargs)
        b = evaluate_checkpoint(workspace["base"]["checkpoint"], workspace["data"], **kwargs)
        assert a["per_image"] == b["per_image"]
        assert a["mean"] == b["mean"]

    def test_eval_does_not_mutate_weights(self, workspace, samples):
        from segadapt.checkpoint import dump_bytes

        model, _ = load_model(workspace["base"]["checkpoint"])
        before = dump_bytes(model.registry)
        evaluate_model(model, samples, seed=0)
        assert dump_bytes(model.registry) == before

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_seed_that_is_not_an_int_at_least_zero_refused(self, workspace, seed):
        with pytest.raises(ValidationError, match="eval seed must be an int >= 0"):
            evaluate_checkpoint(workspace["base"]["checkpoint"], workspace["data"], "source", "val", seed=seed)

    def test_unknown_domain(self, workspace):
        with pytest.raises(ValidationError, match="absent from manifest"):
            evaluate_checkpoint(workspace["base"]["checkpoint"], workspace["data"], "mri", "test")

    def test_report_file_written(self, workspace, tmp_path):
        out = tmp_path / "eval.json"
        fragment = evaluate_checkpoint(
            workspace["base"]["checkpoint"], workspace["data"], "source", "val",
            seed=0, report_path=out,
        )
        assert json.loads(out.read_text())["mean"] == fragment["mean"]


class TestTrainSupervised:
    def test_fragment_shape(self, workspace):
        fragment = workspace["base"]
        cfg = workspace["cfg"]
        assert fragment["kind"] == "train"
        assert len(fragment["loss_curve"]) == 2
        assert len(fragment["val_curve"]) == 3
        assert fragment["trainable_params"] == fragment["total_params"]
        assert (workspace["root"] / "base" / "checkpoint.sdck").exists()
        assert (workspace["root"] / "base" / "checkpoint.sdck.meta.json").exists()
        assert (workspace["root"] / "base" / "fragment_train.json").exists()

    def test_rerun_is_bit_identical(self, workspace, tmp_path):
        cfg = replace(
            workspace["cfg"], train=replace(workspace["cfg"].train, method="full_ft", epochs=2, seed=100)
        )
        train_supervised(cfg, workspace["data"], tmp_path / "again")
        original = (workspace["root"] / "base" / "checkpoint.sdck").read_bytes()
        assert (tmp_path / "again" / "checkpoint.sdck").read_bytes() == original

    def test_adapter_run_starts_at_base_score(self, workspace, tmp_path):
        # Zero-gated adapter: the pre-training validation entry must equal the
        # base checkpoint's score under the same prompt seed.
        cfg = replace(
            workspace["cfg"],
            train=replace(
                workspace["cfg"].train,
                method="sam_da_dec", epochs=1, seed=0,
                init_from=workspace["base"]["checkpoint"],
            ),
        )
        fragment = train_supervised(cfg, workspace["data"], tmp_path / "dec")
        base_eval = evaluate_checkpoint(
            workspace["base"]["checkpoint"], workspace["data"], "source", "val", seed=0
        )
        assert fragment["val_curve"][0] == base_eval["mean"]
        assert fragment["trainable_params"] < fragment["total_params"]

    def test_missing_init_checkpoint(self, workspace, tmp_path):
        cfg = replace(
            workspace["cfg"],
            train=replace(workspace["cfg"].train, init_from=str(tmp_path / "nope.sdck")),
        )
        with pytest.raises(ValidationError, match="init_from"):
            train_supervised(cfg, workspace["data"], tmp_path / "run")

    def test_max_train_samples_caps_the_split(self, workspace, tmp_path):
        cfg = replace(
            workspace["cfg"],
            train=replace(workspace["cfg"].train, epochs=1, max_train_samples=10),
        )
        fragment = train_supervised(cfg, workspace["data"], tmp_path / "capped")
        assert fragment["train_samples"] == 10
        full = replace(workspace["cfg"], train=replace(workspace["cfg"].train, epochs=1))
        fragment_full = train_supervised(full, workspace["data"], tmp_path / "full")
        assert fragment_full["train_samples"] == SIZES.source_train

    def test_max_train_samples_beyond_split_rejected(self, workspace, tmp_path):
        cfg = replace(
            workspace["cfg"],
            train=replace(workspace["cfg"].train, max_train_samples=SIZES.source_train + 1),
        )
        with pytest.raises(ValidationError, match="max_train_samples"):
            train_supervised(cfg, workspace["data"], tmp_path / "run")

    def test_missing_dataset(self, workspace, tmp_path):
        with pytest.raises(ValidationError):
            train_supervised(workspace["cfg"], tmp_path / "no_data", tmp_path / "run")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_epoch_sample_and_lr(self, workspace, tmp_path):
        cfg = replace(
            workspace["cfg"],
            train=replace(
                workspace["cfg"].train, method="decoder_ft", epochs=1, lr=1e30, max_train_samples=10
            ),
        )
        with pytest.raises(ValidationError, match=r"non-finite training loss .* epoch 0 .*volume .*lr 1e\+30"):
            train_supervised(cfg, workspace["data"], tmp_path / "run")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_rerun_leaves_no_earlier_weights_beside_its_sidecar(self, workspace, tmp_path):
        cfg = replace(
            workspace["cfg"],
            train=replace(workspace["cfg"].train, method="decoder_ft", epochs=1, max_train_samples=10),
        )
        out = tmp_path / "run"
        train_supervised(cfg, workspace["data"], out)
        failing = replace(cfg, train=replace(cfg.train, lr=1e30))
        with pytest.raises(ValidationError, match="non-finite training loss"):
            train_supervised(failing, workspace["data"], out)
        with pytest.raises(FormatError, match="truncated checkpoint"):
            load_model(out / "checkpoint.sdck")


def _edited_base(workspace, path, name, index, value):
    """The base checkpoint with one value of parameter ``name`` replaced."""
    model, _ = load_model(workspace["base"]["checkpoint"])
    model.registry.get(name).data[index] = value
    path.write_bytes(dump_bytes(model.registry))
    return str(path)


def _decoder_adapter_cfg(workspace, init_from):
    cfg = workspace["cfg"]
    return replace(
        cfg,
        train=replace(cfg.train, method="sam_da_dec", epochs=1, seed=0, max_train_samples=10,
                      init_from=init_from),
    )


class TestFrozenAudit:
    """The training audit compares each frozen parameter's checkpoint bytes."""

    def test_a_nan_that_training_never_reads_passes(self, workspace, tmp_path):
        # Row 0 of the label embedding is the negative-click label; one
        # positive click never reads it.
        base = _edited_base(workspace, tmp_path / "nan.sdck", "prompt.label_embed", (0, 0), np.nan)
        fragment = train_supervised(_decoder_adapter_cfg(workspace, base), workspace["data"], tmp_path / "run")
        model, _ = load_model(fragment["checkpoint"])
        assert np.isnan(model.registry.get("prompt.label_embed").data[0, 0])

    def test_a_zero_that_turns_negative_is_caught(self, workspace, tmp_path, monkeypatch):
        import segadapt.engine as engine

        name = "encoder.pos_embed"
        base = _edited_base(workspace, tmp_path / "zero.sdck", name, (0, 0), 0.0)
        real_step = engine.adamw_step

        def flipping_step(registry, opt):
            real_step(registry, opt)
            assert not registry.param(name).trainable
            registry.get(name).data[0, 0] = -0.0

        monkeypatch.setattr(engine, "adamw_step", flipping_step)
        with pytest.raises(ContractError, match=f"frozen parameter '{name}' changed during training"):
            train_supervised(_decoder_adapter_cfg(workspace, base), workspace["data"], tmp_path / "run")


def _perturbed_checkpoint(path, method):
    """A checkpoint of ``method`` on the default config, every value of which
    differs from what a seeded build and attachment draw."""
    cfg = default_config()
    model = SegmentationModel(cfg.model)
    adapter_cfg, lora_cfg = attach_method(model, method, cfg.adapter, cfg.lora)
    rng = np.random.default_rng(7)
    for param in model.registry.parameters():
        noise = rng.standard_normal(param.tensor.shape).astype(np.float32)
        param.tensor.data = param.tensor.data + 0.05 * noise
    save_checkpoint(path, dump_bytes(model.registry), method, cfg.model, adapter_cfg, lora_cfg, 0)
    return path


def _without(path, name):
    """Rewrite the checkpoint at ``path`` without parameter ``name``."""
    values = load_bytes(path.read_bytes())
    del values[name]
    reg = ParameterRegistry()
    for key, value in values.items():
        reg.add(key, value.shape, Init.zeros())
    restore(reg, values)
    path.write_bytes(dump_bytes(reg))


class TestLoadModel:
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_a_drawn_build_that_is_restored(self, samples, tmp_path, method):
        ckpt = _perturbed_checkpoint(tmp_path / "m.sdck", method)
        model, _ = load_model(ckpt)
        cfg = default_config()
        drawn = SegmentationModel(cfg.model)
        attach_method(drawn, method, cfg.adapter, cfg.lora)
        restore(drawn.registry, load_bytes(ckpt.read_bytes()))
        assert model.registry.names() == drawn.registry.names()
        assert dump_bytes(model.registry) == dump_bytes(drawn.registry) == ckpt.read_bytes()
        trainable = [[p.trainable for p in m.registry.parameters()] for m in (model, drawn)]
        assert trainable[0] == trainable[1]
        s = samples[0]
        prompts = interior_prompt(s.mask, prompt_rng(0, s.volume_id, s.slice_index))
        np.testing.assert_array_equal(model.predict(s.image, prompts).logits, drawn.predict(s.image, prompts).logits)

    def test_a_checkpoint_missing_one_parameter_is_refused(self, workspace, tmp_path):
        ckpt = _perturbed_checkpoint(tmp_path / "base.sdck", "full_ft")
        _without(ckpt, "decoder.iou_token")
        with pytest.raises(ContractError, match=r"missing \['decoder.iou_token'\]"):
            load_model(ckpt)
        with pytest.raises(ContractError, match=r"missing \['decoder.iou_token'\]"):
            train_supervised(_decoder_adapter_cfg(workspace, str(ckpt)), workspace["data"], tmp_path / "run")

    @pytest.mark.parametrize("method, prefix", [("full_ft", None), ("sam_da_dec", "adapter.")])
    def test_draws_only_what_the_method_attaches(self, tmp_path, monkeypatch, method, prefix):
        ckpt = _perturbed_checkpoint(tmp_path / "m.sdck", method)
        drawn = []
        initialize = ParameterRegistry.initialize

        def recording(self, seed, only=None):
            only = None if only is None else list(only)
            drawn.extend(self.names() if only is None else only)
            initialize(self, seed, only)

        monkeypatch.setattr(ParameterRegistry, "initialize", recording)
        load_model(ckpt)
        if prefix is None:
            assert drawn == []
        else:
            assert drawn and all(name.startswith(prefix) for name in drawn)

    def test_round_trip_predictions(self, workspace, samples, tmp_path):
        cfg = replace(
            workspace["cfg"],
            train=replace(
                workspace["cfg"].train,
                method="sam_da_dec", epochs=1, seed=0,
                init_from=workspace["base"]["checkpoint"],
            ),
        )
        fragment = train_supervised(cfg, workspace["data"], tmp_path / "dec")
        model, meta = load_model(fragment["checkpoint"])
        assert meta["method"] == "sam_da_dec"
        assert any(n.startswith("adapter.dec") for n in model.registry.names())
        # trainable set matches the method policy after reload
        trainables = [n for n in model.registry.names() if model.registry.param(n).trainable]
        assert trainables and all(n.startswith("adapter.") for n in trainables)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_model(tmp_path / "missing.sdck")

    def test_missing_sidecar(self, workspace, tmp_path):
        orphan = tmp_path / "orphan.sdck"
        orphan.write_bytes((workspace["root"] / "base" / "checkpoint.sdck").read_bytes())
        with pytest.raises(ValidationError, match="sidecar"):
            load_model(orphan)

    def test_bad_meta_version(self, workspace, tmp_path):
        src = workspace["root"] / "base"
        ckpt = tmp_path / "old.sdck"
        ckpt.write_bytes((src / "checkpoint.sdck").read_bytes())
        meta = json.loads((src / "checkpoint.sdck.meta.json").read_text())
        meta["meta_version"] = 99
        (tmp_path / "old.sdck.meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="meta version"):
            load_model(ckpt)

    def _with_sidecar(self, workspace, tmp_path, raw):
        ckpt = tmp_path / "ckpt.sdck"
        ckpt.write_bytes((workspace["root"] / "base" / "checkpoint.sdck").read_bytes())
        (tmp_path / "ckpt.sdck.meta.json").write_bytes(raw if isinstance(raw, bytes) else raw.encode())
        return ckpt

    @pytest.mark.parametrize(
        "raw, message",
        [('{"method": oops}', "not JSON at offset 11"), (b'{"method": "\xff"}', "not UTF-8 at offset 12")],
    )
    def test_undecodable_sidecar_is_a_format_error_with_offset(self, workspace, tmp_path, raw, message):
        ckpt = self._with_sidecar(workspace, tmp_path, raw)
        with pytest.raises(FormatError, match=message):
            load_model(ckpt)

    @pytest.mark.parametrize("doc", ["[1, 2]", '"full_ft"', "null"])
    def test_sidecar_that_is_not_an_object(self, workspace, tmp_path, doc):
        ckpt = self._with_sidecar(workspace, tmp_path, doc)
        with pytest.raises(ValidationError, match="ckpt.sdck.meta.json is not a JSON object"):
            load_model(ckpt)

    @pytest.mark.parametrize("key", ["model", "method"])
    def test_sidecar_lacking_a_key(self, workspace, tmp_path, key):
        meta = json.loads((workspace["root"] / "base" / "checkpoint.sdck.meta.json").read_text())
        del meta[key]
        ckpt = self._with_sidecar(workspace, tmp_path, json.dumps(meta))
        with pytest.raises(ValidationError, match=f"ckpt.sdck.meta.json lacks key '{key}'"):
            load_model(ckpt)

    @pytest.mark.parametrize("method", [[1], None, 3])
    def test_sidecar_whose_method_is_not_a_string(self, workspace, tmp_path, method):
        meta = json.loads((workspace["root"] / "base" / "checkpoint.sdck.meta.json").read_text())
        meta["method"] = method
        ckpt = self._with_sidecar(workspace, tmp_path, json.dumps(meta))
        with pytest.raises(ValidationError, match="names no method"):
            load_model(ckpt)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("enc_depth", 10**7, r"missing \['encoder.block6.norm1.gain'\]"),
            ("image_size", 2**20, "shape mismatch for 'encoder.pos_embed'"),
            ("dec_dim", 2**16, "shape mismatch for 'encoder.neck.weight'"),
            ("enc_depth", 1, r"unknown \['encoder.block1."),
        ],
    )
    def test_a_sidecar_that_describes_another_model_is_refused_as_it_is_declared(
        self, workspace, tmp_path, monkeypatch, key, value, message
    ):
        # A larger model is refused at its first parameter the checkpoint
        # lacks, so its declarations cost no more than the checkpoint's.
        meta = json.loads((workspace["root"] / "base" / "checkpoint.sdck.meta.json").read_text())
        meta["model"][key] = value
        ckpt = self._with_sidecar(workspace, tmp_path, json.dumps(meta))
        added = _count_calls(monkeypatch, ParameterRegistry, "add")
        with pytest.raises(ContractError, match=message):
            load_model(ckpt)
        assert len(added) <= len(load_bytes(ckpt.read_bytes()))

    @pytest.mark.parametrize("method", ["sam_da_dec", "sam_da_enc", "lora"])
    def test_sidecar_without_method_config(self, workspace, tmp_path, method):
        src = workspace["root"] / "base"
        ckpt = tmp_path / "bare.sdck"
        ckpt.write_bytes((src / "checkpoint.sdck").read_bytes())
        meta = json.loads((src / "checkpoint.sdck.meta.json").read_text())
        meta.update(method=method, adapter=None, lora=None)
        (tmp_path / "bare.sdck.meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="needs"):
            load_model(ckpt)


class TestAttachMethod:
    @pytest.mark.parametrize(
        "method, uses",
        [
            ("full_ft", (False, False)),
            ("decoder_ft", (False, False)),
            ("lora", (False, True)),
            ("sam_da_dec", (True, False)),
            ("sam_da_enc", (True, False)),
        ],
    )
    def test_returns_only_the_configs_the_method_uses(self, method, uses):
        cfg = default_config()
        model = SegmentationModel(cfg.model)
        adapter_cfg, lora_cfg = attach_method(model, method, cfg.adapter, cfg.lora)
        assert (adapter_cfg is not None, lora_cfg is not None) == uses
        if adapter_cfg is not None:
            assert adapter_cfg.placement == ("decoder" if method == "sam_da_dec" else "encoder")
        trainable = {n for n in model.registry.names() if model.registry.param(n).trainable}
        assert trainable == set(filter(trainable_predicate(method), model.registry.names()))

    def test_unknown_method_rejected(self):
        cfg = default_config()
        with pytest.raises(ValidationError, match="unknown method"):
            attach_method(SegmentationModel(cfg.model), "prompt_tuning", cfg.adapter, cfg.lora)


class TestTTDA:
    def test_entropy_improved_convention(self):
        assert entropy_improved(0.1, 0.05)
        assert not entropy_improved(0.1, 0.1)
        assert not entropy_improved(0.05, 0.1)
        # Saturated predictions have nothing to minimize: staying at the
        # floor counts, climbing off it does not.
        assert entropy_improved(1e-6, 3e-6)
        assert entropy_improved(ENTROPY_FLOOR, ENTROPY_FLOOR)
        assert not entropy_improved(1e-6, 5e-3)

    def test_plain_checkpoint_gets_fresh_adapter(self, workspace, tmp_path):
        cfg = replace(workspace["cfg"], ttda=replace(workspace["cfg"].ttda, iterations=2))
        fragment = run_ttda(
            workspace["base"]["checkpoint"], workspace["data"], cfg,
            report_path=tmp_path / "ttda.json",
        )
        assert fragment["count"] == SIZES.target_test
        assert (tmp_path / "ttda.json").exists()
        for record in fragment["per_sample"]:
            assert set(record) == {
                "volume_id", "slice_index", "iou_before", "iou_after",
                "entropy_before", "entropy_after",
            }

    def test_lambda_zero_is_noop(self, workspace):
        cfg = replace(
            workspace["cfg"],
            ttda=replace(
                workspace["cfg"].ttda,
                lambda_entropy=0.0, lambda_proximity=0.0, lambda_contrastive=0.0,
            ),
        )
        fragment = run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)
        for record in fragment["per_sample"]:
            assert record["iou_after"] == record["iou_before"]
            assert record["entropy_after"] == record["entropy_before"]

    def test_loss_without_terms_leaves_samples_unadapted(self, workspace):
        # Only the contrastive weight is nonzero, and no slice of a 10-slice
        # volume lies 10 slices away to serve as a negative: no sample has a
        # loss term.
        cfg = replace(
            workspace["cfg"],
            ttda=replace(
                workspace["cfg"].ttda,
                lambda_entropy=0.0, lambda_proximity=0.0, lambda_contrastive=0.1,
                negative_min_offset=10,
            ),
        )
        fragment = run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)
        assert fragment["count"] == SIZES.target_test
        for record in fragment["per_sample"]:
            assert record["iou_after"] == record["iou_before"]
            assert record["entropy_after"] == record["entropy_before"]

    def test_lambda_zero_runs_only_the_unadapted_decodes(self, workspace, monkeypatch):
        # With all weights zero no forward beyond each slice's unadapted one
        # runs.  The records equal those of a run that does take the taped
        # forward and then finds no loss term (contrastive weight only, no
        # negative in reach).
        samples = load_split(workspace["data"], load_manifest(workspace["data"]), "target_test")
        assert len(samples) == 10 and len({s.volume_id for s in samples}) == 1
        ttda = replace(workspace["cfg"].ttda, lambda_entropy=0.0, lambda_proximity=0.0)
        fragments, decodes = [], []
        for settings in (
            replace(ttda, lambda_contrastive=0.0),
            replace(ttda, lambda_contrastive=0.1, negative_min_offset=10),
        ):
            with monkeypatch.context() as m:
                calls = _count_calls(m, SegmentationModel, "decode")
                cfg = replace(workspace["cfg"], ttda=settings)
                fragments.append(run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg))
            decodes.append(len(calls))
        zero, termless = fragments
        assert decodes == [10, 20]
        assert zero["per_sample"] == termless["per_sample"]
        assert zero["mean_iou_after"] == zero["mean_iou_before"] == termless["mean_iou_before"]
        assert zero["entropy_improved_fraction"] == 0.0

    def test_restore_verification_catches_drift(self, workspace, monkeypatch):
        import segadapt.engine as engine

        real_restore = engine.restore
        calls = {"n": 0}

        def leaky_restore(registry, source, **kwargs):
            real_restore(registry, source, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:  # skip the load_model restore, corrupt the first reset
                name = next(n for n in registry.names() if n.startswith("adapter."))
                registry.get(name).data.flat[0] += 1.0

        monkeypatch.setattr(engine, "restore", leaky_restore)
        cfg = replace(workspace["cfg"], ttda=replace(workspace["cfg"].ttda, iterations=1))
        with pytest.raises(IntegrityError, match="differ from the checkpoint"):
            run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)

    def test_audit_catches_a_frozen_weight_nudged_during_a_sample(self, workspace, monkeypatch):
        # Only the trained parameters are reset, so the audit must see this.
        import segadapt.engine as engine

        real_sample = engine._ttda_sample
        nudged = []

        def nudging(model, *args):
            record = real_sample(model, *args)
            name = next(n for n in model.registry.names() if n.startswith("encoder."))
            assert not model.registry.param(name).trainable
            model.registry.get(name).data.flat[0] += 1e-3
            nudged.append(name)
            return record

        monkeypatch.setattr(engine, "_ttda_sample", nudging)
        cfg = replace(workspace["cfg"], ttda=replace(workspace["cfg"].ttda, iterations=1))
        with pytest.raises(IntegrityError, match="differ from the checkpoint in the values of 'encoder."):
            run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)
        assert len(nudged) == 1

    def test_each_reset_restores_only_the_trained_parameters(self, workspace, monkeypatch):
        import segadapt.engine as engine

        real_restore = engine.restore
        resets = []

        def recording(registry, source, **kwargs):
            resets.append((set(source) if isinstance(source, dict) else None,
                           {p.name for p in registry.trainable_parameters()}))
            real_restore(registry, source, **kwargs)

        monkeypatch.setattr(engine, "restore", recording)
        cfg = replace(workspace["cfg"], ttda=replace(workspace["cfg"].ttda, iterations=1))
        fragment = run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)
        resets = resets[1:]  # the first loads the checkpoint
        assert len(resets) == fragment["count"]
        for restored, trained in resets:
            assert restored == trained and all(n.startswith("adapter.") for n in trained)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_sample_and_lr(self, workspace):
        cfg = replace(workspace["cfg"], ttda=replace(workspace["cfg"].ttda, lr=1e30, iterations=2))
        with pytest.raises(ValidationError, match=r"non-finite TTDA loss .* \(volume \d+, slice \d+\) at lr 1e\+30"):
            run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)

    def test_decodes_each_unadapted_slice_once(self, workspace, monkeypatch):
        # One unadapted decode per slice (its own start and its role as another
        # sample's positive or negative), one per iteration and one final.
        calls = _count_calls(monkeypatch, SegmentationModel, "decode")
        cfg = workspace["cfg"]
        fragment = run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)
        assert len(calls) == fragment["count"] * (cfg.ttda.iterations + 2)

    def test_every_slice_is_decoded_unadapted_before_the_first_step(self, workspace, monkeypatch):
        # The split is one volume: each of its slices is decoded under no_grad,
        # as the start, positive or negative of a sample, before any sample
        # takes an AdamW step.
        import segadapt.engine as engine
        import segadapt.tensor as tensor

        samples = load_split(workspace["data"], load_manifest(workspace["data"]), "target_test")
        assert len({s.volume_id for s in samples}) == 1
        events = []
        real_decode, real_step = SegmentationModel.decode, engine.adamw_step

        def decode(self, state):
            events.append("decode" if tensor.grad_enabled() else "no_grad decode")
            return real_decode(self, state)

        def step(*args, **kwargs):
            events.append("step")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(SegmentationModel, "decode", decode)
        monkeypatch.setattr(engine, "adamw_step", step)
        cfg = replace(workspace["cfg"], ttda=replace(workspace["cfg"].ttda, iterations=1))
        run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)
        before_step = events[: events.index("step")]
        assert before_step.count("no_grad decode") == len(samples)
        assert len(events) - events.count("step") == len(samples) * (cfg.ttda.iterations + 2)

    def test_mean_fields_match_records(self, workspace):
        cfg = replace(workspace["cfg"], ttda=replace(workspace["cfg"].ttda, iterations=1))
        fragment = run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)
        assert fragment["mean_iou_before"] == pytest.approx(
            np.mean([r["iou_before"] for r in fragment["per_sample"]]), abs=1e-12
        )
        assert fragment["mean_iou_after"] == pytest.approx(
            np.mean([r["iou_after"] for r in fragment["per_sample"]]), abs=1e-12
        )


class TestTTDAMemoScope:
    """TTDA's memos live for one volume: a sample's positive and negatives
    are slices of its own volume, so nothing a finished volume memoized is
    read again."""

    @pytest.fixture(scope="class")
    def two_volumes(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("volumes")
        cfg = default_config()
        cfg = replace(cfg, data=replace(cfg.data, sizes=SplitSizes(10, 10, 20, 10, 20)),
                      ttda=replace(cfg.ttda, iterations=1))
        generate_dataset(root / "data", cfg.data.source, cfg.data.target, cfg.data.sizes)
        checkpoint = root / "start" / "checkpoint.sdck"
        weights = dump_bytes(SegmentationModel(cfg.model).registry)
        save_checkpoint(checkpoint, weights, "full_ft", cfg.model, None, None, 0)
        return {"data": root / "data", "cfg": cfg, "checkpoint": checkpoint}

    def _run(self, two_volumes, monkeypatch, scoped):
        """The fragment, and the volumes whose embeddings were still alive
        when a later volume's sample started."""
        import segadapt.engine as engine

        embeddings = []  # (volume id, weak reference)
        alive = set()
        real_inputs, real_sample = engine._frozen_inputs, engine._ttda_sample

        def recording_inputs(model, seed):
            inputs = real_inputs(model, seed)

            def recorded(s):
                prompts, embedding, prefix = inputs(s)
                embeddings.append((s.volume_id, weakref.ref(embedding)))
                return prompts, embedding, prefix

            return recorded

        def checking_sample(model, s, *args):
            gc.collect()
            alive.update(v for v, ref in embeddings if v != s.volume_id and ref() is not None)
            return real_sample(model, s, *args)

        monkeypatch.setattr(engine, "_frozen_inputs", recording_inputs)
        monkeypatch.setattr(engine, "_ttda_sample", checking_sample)
        if not scoped:
            monkeypatch.setattr(engine, "_volume_runs", lambda samples: [list(samples)])
        fragment = run_ttda(two_volumes["checkpoint"], two_volumes["data"], two_volumes["cfg"])
        assert len({v for v, _ in embeddings}) == 2
        return fragment, alive

    def test_a_finished_volume_is_collectable_and_the_fragment_unchanged(self, two_volumes, monkeypatch):
        scoped, alive = self._run(two_volumes, monkeypatch, scoped=True)
        assert alive == set()
        with monkeypatch.context() as m:
            unscoped, kept = self._run(two_volumes, m, scoped=False)
        assert kept  # one memo for the whole split keeps the first volume alive
        assert scoped == unscoped


def _method_cfg(workspace, method):
    """A short run of `method` from the shared base checkpoint."""
    cfg = workspace["cfg"]
    return replace(
        cfg,
        train=replace(
            cfg.train, method=method, epochs=2, seed=0, max_train_samples=10,
            init_from=workspace["base"]["checkpoint"],
        ),
        ttda=replace(cfg.ttda, iterations=2),
    )


def _drop_path(fragment):
    return {k: v for k, v in fragment.items() if k != "checkpoint"}


# What the memo keeps, (embedding, decoder prefix), for each method: the
# tape's verdict on what no trainable weight feeds.
MEMO_KEEPS = {
    "full_ft": (False, False),
    "decoder_ft": (True, False),
    "lora": (False, False),
    "sam_da_dec": (True, True),
    "sam_da_enc": (False, False),
}


def _memo_keeps(model, s):
    """Whether a stage's memo keeps the embedding and the decoder prefix of
    sample ``s``: a second call hands back the first call's objects."""
    inputs = engine._frozen_inputs(model, 0)
    first, again = inputs(s), inputs(s)
    assert again[0] is first[0]  # the click is kept whatever trains
    return again[1] is first[1], again[2] is not None and again[2] is first[2]


def _without_memo(model, seed):
    """``_frozen_inputs`` with nothing kept: every forward draws its click
    and encodes the image, the prompts, layer 0 and layer 1's tokens."""
    return lambda s: (interior_prompt(s.mask, prompt_rng(seed, s.volume_id, s.slice_index)), None, None)


def _attached(method):
    cfg = default_config()
    model = SegmentationModel(cfg.model)
    attach_method(model, method, cfg.adapter, cfg.lora)
    return model


class TestEncoderFrozenRule:
    """The memo keeps an image's embedding exactly when nothing that feeds
    the encoder trains."""

    @pytest.mark.parametrize("method, frozen", [(m, e) for m, (e, _) in MEMO_KEEPS.items()])
    def test_truth_table(self, samples, method, frozen):
        assert _memo_keeps(_attached(method), samples[0])[0] is frozen

    def test_ttda_fresh_adapter_on_full_ft_checkpoint(self, workspace, samples):
        model, meta = load_model(workspace["base"]["checkpoint"])
        assert meta["method"] == "full_ft" and _memo_keeps(model, samples[0]) == (False, False)
        attach_method(model, "sam_da_dec", workspace["cfg"].adapter, None)
        assert _memo_keeps(model, samples[0])[0]


class TestDecoderPrefixRule:
    """The memo keeps the decoder prefix (layer 0's state and layer 1's
    self-attended tokens) exactly when nothing that feeds it trains."""

    @pytest.mark.parametrize("method, frozen", [(m, p) for m, (_, p) in MEMO_KEEPS.items()])
    def test_truth_table(self, samples, method, frozen):
        assert _memo_keeps(_attached(method), samples[0])[1] is frozen

    def test_ttda_fresh_adapter_on_full_ft_checkpoint(self, workspace, samples):
        model, _ = load_model(workspace["base"]["checkpoint"])
        attach_method(model, "sam_da_dec", workspace["cfg"].adapter, None)
        assert _memo_keeps(model, samples[0])[1]

    def test_a_trained_layer_one_self_attention_is_not_kept(self, samples):
        # Layer 0 is frozen, but the prefix's tokens come out of layer 1's
        # self-attention, which trains: only the embedding is kept.
        model = SegmentationModel(default_config().model)
        model.registry.set_trainable(lambda name: name.startswith("decoder.layer1.self_attn."))
        assert _memo_keeps(model, samples[0]) == (True, False)


class TestEmbeddingCache:
    @pytest.mark.parametrize("method", list(MEMO_KEEPS))
    def test_cached_runs_equal_uncached_runs(self, workspace, tmp_path, monkeypatch, method):
        cfg = _method_cfg(workspace, method)
        runs = {}
        for cached in (True, False):
            with monkeypatch.context() as m:
                if not cached:
                    m.setattr(engine, "_frozen_inputs", _without_memo)
                train = train_supervised(cfg, workspace["data"], tmp_path / f"cached_{cached}")
                ttda = run_ttda(train["checkpoint"], workspace["data"], cfg)
            runs[cached] = (
                Path(train["checkpoint"]).read_bytes(), _drop_path(train), _drop_path(ttda)
            )
        assert runs[True] == runs[False]

    @pytest.mark.parametrize("method", ["full_ft", "sam_da_dec"])
    def test_nothing_computed_under_no_grad_is_kept(self, samples, monkeypatch, method):
        # Every result under no_grad is off the tape, trainable weights or not.
        inputs = engine._frozen_inputs(_attached(method), 0)
        s = samples[0]
        with no_grad():
            inputs(s)
        calls = _count_calls(monkeypatch, SegmentationModel, "encode_image")
        _, embedding, _ = inputs(s)
        assert len(calls) == 1
        assert embedding.requires_grad is (method == "full_ft")

    @pytest.mark.parametrize("method", ["sam_da_dec", "full_ft"])
    def test_encoder_passes(self, workspace, tmp_path, monkeypatch, method):
        images = []
        encode_image = SegmentationModel.encode_image

        def counting(self, image):
            images.extend(_images(image))
            return encode_image(self, image)

        monkeypatch.setattr(SegmentationModel, "encode_image", counting)
        cfg = _method_cfg(workspace, method)
        fragment = train_supervised(cfg, workspace["data"], tmp_path / "run")
        epochs, n_train, n_val = cfg.train.epochs, fragment["train_samples"], SIZES.source_val
        # Told apart by content: a stack holds copies of the samples' images.
        distinct = len({image.tobytes() for image in images})
        assert distinct == n_train + n_val
        if method == "full_ft":
            # one pass per training step and per validation prediction
            assert len(images) == epochs * n_train + (epochs + 1) * n_val
            return
        assert len(images) == distinct
        images.clear()
        ttda = run_ttda(fragment["checkpoint"], workspace["data"], cfg)
        assert len(images) == len({image.tobytes() for image in images}) == ttda["count"]


class TestDecoderPrefixCache:
    def test_runs_equal_runs_without_it(self, workspace, tmp_path, monkeypatch):
        real_inputs = engine._frozen_inputs

        def without_prefix(model, seed):
            inputs = real_inputs(model, seed)
            return lambda s: (*inputs(s)[:2], None)

        cfg = _method_cfg(workspace, "sam_da_dec")
        runs = {}
        for cached in (True, False):
            with monkeypatch.context() as m:
                if not cached:
                    m.setattr(engine, "_frozen_inputs", without_prefix)
                train = train_supervised(cfg, workspace["data"], tmp_path / f"cached_{cached}")
                ttda = run_ttda(train["checkpoint"], workspace["data"], cfg)
            runs[cached] = (
                Path(train["checkpoint"]).read_bytes(), _drop_path(train), _drop_path(ttda)
            )
        assert runs[True] == runs[False]

    def test_prompts_encoded_once_per_sample_and_prompt(self, workspace, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch, SegmentationModel, "encode_prompts")
        cfg = _method_cfg(workspace, "sam_da_dec")
        fragment = train_supervised(cfg, workspace["data"], tmp_path / "run")
        # Each sample has one seeded prompt set, reused by every epoch.
        assert len(calls) == fragment["train_samples"] + SIZES.source_val
        calls.clear()
        ttda = run_ttda(fragment["checkpoint"], workspace["data"], cfg)
        assert len(calls) == ttda["count"]


def _count_clicks(monkeypatch):
    """The masks ``engine.interior_prompt`` draws a click on from now on."""
    masks = []
    real_click = engine.interior_prompt

    def click(mask, rng, *args):
        masks.append(mask)
        return real_click(mask, rng, *args)

    monkeypatch.setattr(engine, "interior_prompt", click)
    return masks


class TestPerSampleWork:
    """Within a stage call each sample's click is drawn once, whatever
    trains, and layer 1's self-attention runs once per sample where its
    input is off the tape."""

    @pytest.mark.parametrize("method", ["sam_da_dec", "decoder_ft"])
    def test_clicks_and_layer_one_self_attention(self, workspace, tmp_path, monkeypatch, method):
        clicks, attended = _count_clicks(monkeypatch), []
        real_attention = SegmentationModel._attention

        def attention(self, prefix, heads, tokens, *args):
            if prefix == "decoder.layer1.self_attn":
                attended.extend(_images(tokens.data))
            return real_attention(self, prefix, heads, tokens, *args)

        monkeypatch.setattr(SegmentationModel, "_attention", attention)
        cfg = _method_cfg(workspace, method)
        fragment = train_supervised(cfg, workspace["data"], tmp_path / "run")
        epochs, n_train, n_val = cfg.train.epochs, fragment["train_samples"], SIZES.source_val
        assert len(clicks) == len({id(mask) for mask in clicks}) == n_train + n_val
        if method == "decoder_ft":
            # layer 1 trains: one self-attention per training step and per
            # validation prediction
            assert len(attended) == epochs * n_train + (epochs + 1) * n_val
            return
        assert len(attended) == n_train + n_val
        clicks.clear()
        attended.clear()
        ttda = run_ttda(fragment["checkpoint"], workspace["data"], cfg)
        assert len(clicks) == len(attended) == ttda["count"]

    def test_clicks_once_where_the_encoder_trains(self, workspace, tmp_path, monkeypatch):
        clicks = _count_clicks(monkeypatch)
        cfg = _method_cfg(workspace, "full_ft")
        cfg = replace(cfg, train=replace(cfg.train, epochs=1, max_train_samples=4))
        fragment = train_supervised(cfg, workspace["data"], tmp_path / "run")
        assert len(clicks) == len({id(mask) for mask in clicks}) == fragment["train_samples"] + SIZES.source_val

    def test_evaluation_without_a_memo_draws_a_click_per_image(self, samples, monkeypatch):
        clicks = _count_clicks(monkeypatch)
        encodes = _count_calls(monkeypatch, SegmentationModel, "encode_image")
        model = SegmentationModel(default_config().model)
        evaluate_model(model, samples, seed=0)
        evaluate_model(model, samples, seed=0)
        assert len(clicks) == sum(len(_images(image)) for image, *_ in encodes) == 2 * len(samples)


def _count_nodes(monkeypatch):
    """Nodes recorded on the tape from now on, by the function that made each."""
    ops = Counter()
    real_node = tensor._node

    def counting(data, parents, grad_fn):
        if tensor.grad_enabled():
            ops[sys._getframe(1).f_code.co_name] += 1
        return real_node(data, parents, grad_fn)

    monkeypatch.setattr(tensor, "_node", counting)
    return ops


class TestLossNodes:
    """Each loss term is one tape node, bit-identical to the chain of nodes
    it replaced (kept in ``chains``)."""

    @pytest.mark.parametrize("method", ["full_ft", "sam_da_dec"])
    def test_runs_equal_runs_of_the_chains(self, workspace, tmp_path, monkeypatch, method):
        cfg = _method_cfg(workspace, method)
        runs = {}
        for fused in (True, False):
            with monkeypatch.context() as m:
                if not fused:
                    for name, chain in ENGINE_LOSSES.items():
                        m.setattr(engine, name, chain)
                train = train_supervised(cfg, workspace["data"], tmp_path / f"fused_{fused}")
                ttda = run_ttda(train["checkpoint"], workspace["data"], cfg)
            runs[fused] = (
                Path(train["checkpoint"]).read_bytes(), _drop_path(train), _drop_path(ttda)
            )
        assert runs[True] == runs[False]

    def test_a_ttda_iteration_records_one_node_per_term(self, workspace, monkeypatch):
        # The chains recorded 129-149 nodes per iteration here, five more for
        # each negative (134 at two).  Now the decoder from layer 1's
        # cross-attention on makes 64 (layer 1's self-attention, 7 more, is
        # in the memoized prefix) and the objective 11, whatever the number
        # of negatives: the dense mean, four loss nodes, proximity's sum, and
        # the weighted sum's three products and two sums.
        cfg = workspace["cfg"]
        cfg = replace(cfg, ttda=replace(cfg.ttda, iterations=2))
        ops = _count_nodes(monkeypatch)
        steps = []
        real_backward = engine.backward

        def backward(loss):
            steps.append(ops.copy())
            ops.clear()
            real_backward(loss)

        monkeypatch.setattr(engine, "backward", backward)
        fragment = run_ttda(workspace["base"]["checkpoint"], workspace["data"], cfg)
        whole = steps[1::2]  # each sample's second step: nothing but one iteration
        assert len(whole) == fragment["count"]
        for step in whole:
            assert sum(step.values()) == 75
            terms = ["confident_entropy_loss", "focal_loss", "dice_loss", "slice_contrastive_loss"]
            assert [step[name] for name in terms] == [1, 1, 1, 1]

    def test_a_supervised_loss_records_nine_nodes(self, workspace, tmp_path, monkeypatch):
        # dice and cross-entropy one node each (the chains: 11 and 10), the
        # IoU match 2 and the weighted sum 5; 28 before.
        ops = _count_nodes(monkeypatch)
        counts = []
        real_loss = engine.supervised_loss

        def supervised_loss(*args, **kwargs):
            ops.clear()
            out = real_loss(*args, **kwargs)
            counts.append(ops.copy())
            return out

        monkeypatch.setattr(engine, "supervised_loss", supervised_loss)
        cfg = replace(_method_cfg(workspace, "sam_da_dec"), train=replace(
            _method_cfg(workspace, "sam_da_dec").train, epochs=1, max_train_samples=2))
        train_supervised(cfg, workspace["data"], tmp_path / "run")
        assert counts and all(sum(c.values()) == 9 for c in counts)
        assert all(c["dice_loss"] == c["cross_entropy_loss"] == 1 for c in counts)


class TestAblation:
    def test_size_axis_plan(self, workspace, tmp_path):
        seen = []

        def stub(run_cfg, data_root, out_dir):
            seen.append((run_cfg.adapter.prompt_dim, run_cfg.train.method, run_cfg.train.seed))
            return {"source_iou": 0.9, "target_iou": 0.8, "trainable_params": 11}

        report = run_ablation(
            workspace["cfg"], workspace["data"], "size", tmp_path, seeds=(0, 1), runner=stub
        )
        assert seen == [
            (d, "sam_da_dec", s) for d in ABLATION_SIZES for s in (0, 1)
        ]
        assert set(report["summary"]) == {"size_512", "size_1024", "size_2048"}
        assert (tmp_path / "ablation_size.json").exists()

    def test_placement_axis_plan(self, workspace, tmp_path):
        seen = []

        def stub(run_cfg, data_root, out_dir):
            seen.append(run_cfg.train.method)
            return {"source_iou": 1.0, "target_iou": 1.0, "trainable_params": 1}

        report = run_ablation(
            workspace["cfg"], workspace["data"], "placement", tmp_path, seeds=(0, 1), runner=stub
        )
        assert seen == ["sam_da_dec", "sam_da_dec", "sam_da_enc", "sam_da_enc"]
        assert set(report["summary"]) == {"decoder", "encoder"}

    def test_summary_aggregates_runner_outputs(self, workspace, tmp_path):
        scores = iter([0.2, 0.4, 0.5, 0.7])

        def stub(run_cfg, data_root, out_dir):
            v = next(scores)
            return {"source_iou": v, "target_iou": v / 2, "trainable_params": 5}

        report = run_ablation(
            workspace["cfg"], workspace["data"], "placement", tmp_path, seeds=(0, 1), runner=stub
        )
        decoder = report["summary"]["decoder"]
        assert decoder["source_iou_mean"] == pytest.approx(0.3)
        assert decoder["target_iou_mean"] == pytest.approx(0.15)

    def test_unknown_axis(self, workspace, tmp_path):
        with pytest.raises(ValidationError, match="axis"):
            run_ablation(workspace["cfg"], workspace["data"], "depth", tmp_path, runner=lambda *a: {})


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
