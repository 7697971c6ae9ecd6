import gc
import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from segadapt.adapter import trainable_predicate
from segadapt.checkpoint import dump_bytes
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
    evaluate_with_predictor,
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
    def test_perfect_predictor_scores_one(self, samples):
        class Oracle:
            def __init__(self, mask):
                self.mask = mask

        result = evaluate_with_predictor(lambda s, prompts: Oracle(s.mask), samples, seed=0)
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


class TestLoadModel:
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

        def recording_inputs(model):
            inputs = real_inputs(model)

            def recorded(s, prompts):
                embedding, prefix = inputs(s, prompts)
                embeddings.append((s.volume_id, weakref.ref(embedding)))
                return embedding, prefix

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


class TestEncoderFrozenRule:
    @pytest.mark.parametrize(
        "method, frozen",
        [
            ("full_ft", False),
            ("decoder_ft", True),
            ("lora", False),
            ("sam_da_dec", True),
            ("sam_da_enc", False),
        ],
    )
    def test_truth_table(self, method, frozen):
        cfg = default_config()
        model = SegmentationModel(cfg.model)
        attach_method(model, method, cfg.adapter, cfg.lora)
        assert model.encoder_frozen() is frozen

    def test_ttda_fresh_adapter_on_full_ft_checkpoint(self, workspace):
        model, meta = load_model(workspace["base"]["checkpoint"])
        assert meta["method"] == "full_ft" and not model.encoder_frozen()
        attach_method(model, "sam_da_dec", workspace["cfg"].adapter, None)
        assert model.encoder_frozen()


class TestEmbeddingCache:
    @pytest.mark.parametrize("method", ["sam_da_dec", "decoder_ft"])
    def test_cached_runs_equal_uncached_runs(self, workspace, tmp_path, monkeypatch, method):
        cfg = _method_cfg(workspace, method)
        runs = {}
        for cached in (True, False):
            with monkeypatch.context() as m:
                if not cached:
                    m.setattr(SegmentationModel, "encoder_frozen", lambda self: False)
                train = train_supervised(cfg, workspace["data"], tmp_path / f"cached_{cached}")
                ttda = run_ttda(train["checkpoint"], workspace["data"], cfg)
            runs[cached] = (
                Path(train["checkpoint"]).read_bytes(), _drop_path(train), _drop_path(ttda)
            )
        assert runs[True] == runs[False]

    def test_memo_refuses_an_embedding_on_the_tape(self, workspace, tmp_path, monkeypatch):
        # A rule that wrongly holds under full_ft must not reuse a stale grid.
        monkeypatch.setattr(SegmentationModel, "encoder_frozen", lambda self: True)
        with pytest.raises(ContractError, match="autodiff tape"):
            train_supervised(_method_cfg(workspace, "full_ft"), workspace["data"], tmp_path / "run")

    @pytest.mark.parametrize("method", ["sam_da_dec", "full_ft"])
    def test_encoder_passes(self, workspace, tmp_path, monkeypatch, method):
        images = []
        encode_image = SegmentationModel.encode_image

        def counting(self, image):
            images.append(image)
            return encode_image(self, image)

        monkeypatch.setattr(SegmentationModel, "encode_image", counting)
        cfg = _method_cfg(workspace, method)
        fragment = train_supervised(cfg, workspace["data"], tmp_path / "run")
        epochs, n_train, n_val = cfg.train.epochs, fragment["train_samples"], SIZES.source_val
        distinct = len({id(image) for image in images})
        assert distinct == n_train + n_val
        if method == "full_ft":
            # one pass per training step and per validation prediction
            assert len(images) == epochs * n_train + (epochs + 1) * n_val
            return
        assert len(images) == distinct
        images.clear()
        ttda = run_ttda(fragment["checkpoint"], workspace["data"], cfg)
        assert len(images) == len({id(image) for image in images}) == ttda["count"]


class TestDecoderPrefixRule:
    @pytest.mark.parametrize(
        "method, frozen",
        [
            ("full_ft", False),
            ("decoder_ft", False),
            ("lora", False),
            ("sam_da_dec", True),
            ("sam_da_enc", False),
        ],
    )
    def test_truth_table(self, method, frozen):
        cfg = default_config()
        model = SegmentationModel(cfg.model)
        attach_method(model, method, cfg.adapter, cfg.lora)
        assert model.decoder_prefix_frozen() is frozen

    def test_ttda_fresh_adapter_on_full_ft_checkpoint(self, workspace):
        model, _ = load_model(workspace["base"]["checkpoint"])
        assert not model.decoder_prefix_frozen()
        attach_method(model, "sam_da_dec", workspace["cfg"].adapter, None)
        assert model.decoder_prefix_frozen()


class TestDecoderPrefixCache:
    def test_runs_equal_runs_without_it(self, workspace, tmp_path, monkeypatch):
        cfg = _method_cfg(workspace, "sam_da_dec")
        runs = {}
        for cached in (True, False):
            with monkeypatch.context() as m:
                if not cached:
                    m.setattr(SegmentationModel, "decoder_prefix_frozen", lambda self: False)
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

    def test_memo_refuses_a_prefix_on_the_tape(self, workspace, tmp_path, monkeypatch):
        # A rule that wrongly holds while decoder layer 0 trains must not
        # reuse a stale prefix.
        monkeypatch.setattr(SegmentationModel, "decoder_prefix_frozen", lambda self: True)
        with pytest.raises(ContractError, match="decoder prefix .* autodiff tape"):
            train_supervised(_method_cfg(workspace, "decoder_ft"), workspace["data"], tmp_path / "run")


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
