"""Segmentation model: shapes, determinism, prompt handling, decoder trace."""

import subprocess
import sys

import numpy as np
import pytest

from segadapt import Tensor, no_grad
from segadapt.adapter import AdapterConfig, attach_decoder_adapter
from segadapt.errors import DimensionError, ValidationError
from segadapt.gradcheck import finite_diff_check
from segadapt.losses import LossConfig, supervised_loss
from segadapt.model import (
    DecoderState,
    ModelConfig,
    PromptSet,
    SegmentationModel,
)

TINY = ModelConfig(
    image_size=16,
    patch_size=4,
    enc_dim=16,
    enc_depth=2,
    enc_heads=2,
    dec_dim=16,
    dec_depth=2,
    dec_heads=2,
    mlp_ratio=2,
    seed=7,
)


def tiny_model(seed: int = 7, dtype=np.float32) -> SegmentationModel:
    cfg = TINY if seed == 7 else ModelConfig(**{**TINY.__dict__, "seed": seed})
    return SegmentationModel(cfg, dtype=dtype)


def sample_image(seed: int = 0, size: int = 16) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(size, size))


PROMPTS = PromptSet([(4.0, 5.0, 1), (10.0, 2.0, 0), (7.0, 12.0, 1)])


class TestConfig:
    def test_defaults_are_consistent(self):
        cfg = ModelConfig()
        assert cfg.grid_size == 8
        assert cfg.num_patches == 64
        assert cfg.upsample_stages == 3
        assert cfg.pixel_feature_dim == 8

    @pytest.mark.parametrize(
        "overrides",
        [
            {"image_size": 60},  # not a multiple of patch_size
            {"patch_size": 3},  # not a power of two
            {"enc_dim": 130},  # not divisible by heads
            {"dec_dim": 66},  # breaks position code / halvings
            {"enc_depth": 0},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValidationError):
            ModelConfig(**{**ModelConfig().__dict__, **overrides})


class TestForwardShapes:
    def test_output_shapes(self):
        model = tiny_model()
        out = model.forward(sample_image(), PROMPTS)
        assert out.logits.shape == (16, 16)
        assert out.iou_pred.shape == ()
        assert out.dense.shape == (TINY.num_patches, TINY.dec_dim)
        assert np.all(np.isfinite(out.logits.data))

    def test_iou_pred_strictly_inside_unit_interval(self):
        model = tiny_model()
        pred = model.predict(sample_image(), PROMPTS)
        assert 0.0 < pred.iou_pred < 1.0

    def test_image_shape_rejected(self):
        model = tiny_model()
        with pytest.raises(DimensionError):
            model.forward(np.zeros((16, 8)), PROMPTS)


class TestDeterminism:
    def test_same_seed_same_prediction(self):
        a = tiny_model().predict(sample_image(), PROMPTS)
        b = tiny_model().predict(sample_image(), PROMPTS)
        assert np.array_equal(a.logits, b.logits)
        assert a.iou_pred == b.iou_pred

    def test_repeated_predict_is_stable(self):
        model = tiny_model()
        a = model.predict(sample_image(), PROMPTS)
        b = model.predict(sample_image(), PROMPTS)
        assert np.array_equal(a.logits, b.logits)

    def test_seed_changes_prediction(self):
        a = tiny_model(seed=7).predict(sample_image(), PROMPTS)
        b = tiny_model(seed=8).predict(sample_image(), PROMPTS)
        assert not np.array_equal(a.logits, b.logits)


class TestPrompts:
    def test_prompt_permutation_invariance(self):
        model = tiny_model()
        base = model.predict(sample_image(), PROMPTS)
        shuffled = model.predict(sample_image(), PromptSet([PROMPTS.points[i] for i in (2, 0, 1)]))
        np.testing.assert_allclose(shuffled.logits, base.logits, atol=1e-5)
        assert abs(shuffled.iou_pred - base.iou_pred) <= 1e-6

    def test_label_embedding_separates_labels(self):
        model = tiny_model()
        with no_grad():
            pos = model.encode_prompts(PromptSet([(6.0, 6.0, 1)])).data
            neg = model.encode_prompts(PromptSet([(6.0, 6.0, 0)])).data
        table = model.registry.get("prompt.label_embed").data
        np.testing.assert_allclose(pos - neg, (table[1] - table[0])[None, :], atol=1e-7)

    def test_position_code_separates_locations(self):
        model = tiny_model()
        with no_grad():
            a = model.encode_prompts(PromptSet([(2.0, 3.0, 1)])).data
            b = model.encode_prompts(PromptSet([(9.0, 14.0, 1)])).data
        assert np.abs(a - b).max() > 1e-3

    @pytest.mark.parametrize(
        "points",
        [
            [],
            [(-1.0, 4.0, 1)],
            [(4.0, 99.0, 1)],
            [(4.0, 4.0, 3)],
        ],
    )
    def test_invalid_prompts_rejected(self, points):
        model = tiny_model()
        with pytest.raises(ValidationError):
            model.encode_prompts(PromptSet(points))


class TestEncoder:
    def test_patch_locality_before_attention(self):
        # Pre-attention tokens: editing pixels inside one patch may only move
        # that patch's token.
        model = tiny_model()
        img_a = sample_image()
        img_b = img_a.copy()
        img_b[4:8, 8:12] += 0.5  # patch row 1, col 2 -> token index 1*4+2
        with no_grad():
            tok_a = model.patch_tokens(img_a).data
            tok_b = model.patch_tokens(img_b).data
        changed = np.flatnonzero(np.abs(tok_a - tok_b).max(axis=1) > 0)
        assert changed.tolist() == [6]

    def test_encoder_hook_sees_every_block(self):
        model = tiny_model()
        seen = []

        def hook(x, i):
            seen.append((i, x.shape))
            return x

        model.encoder_hook = hook
        with no_grad():
            model.encode_image(sample_image())
        assert seen == [(i, (TINY.num_patches, TINY.enc_dim)) for i in range(TINY.enc_depth)]


def _ln_rows(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


class TestDecoder:
    def test_dense_hook_sees_every_layer(self):
        model = tiny_model()
        seen = []

        def hook(dense, layer):
            seen.append((layer, dense.shape))
            return dense

        model.dense_hook = hook
        model.predict(sample_image(), PROMPTS)
        assert seen == [(i, (TINY.num_patches, TINY.dec_dim)) for i in range(TINY.dec_depth)]

    def test_layer_preserves_shapes(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        tokens = Tensor(rng.normal(size=(5, 16)).astype(np.float32))
        dense = Tensor(rng.normal(size=(16, 16)).astype(np.float32))
        with no_grad():
            out = model.twoway_layer(DecoderState(tokens, dense), 0)
        assert out.tokens.shape == (5, 16)
        assert out.dense.shape == (16, 16)

    def test_zeroed_layer_reduces_to_stacked_normalization(self):
        # With every projection and MLP weight of a layer zeroed (biases are
        # zero from init) each residual branch contributes nothing, so the
        # layer must equal plain layer-norm compositions.
        model = tiny_model()
        for name in model.registry.names():
            if name.startswith("decoder.layer0.") and ".norm" not in name:
                model.registry.get(name).data[...] = 0.0
        rng = np.random.default_rng(11)
        tokens = rng.normal(size=(4, 16)).astype(np.float32)
        dense = rng.normal(size=(16, 16)).astype(np.float32)
        with no_grad():
            out = model.twoway_layer(DecoderState(Tensor(tokens), Tensor(dense)), 0)
        expect_tokens = _ln_rows(_ln_rows(_ln_rows(tokens.astype(np.float64))))
        expect_dense = _ln_rows(dense.astype(np.float64))
        np.testing.assert_allclose(out.tokens.data, expect_tokens, atol=1e-5)
        np.testing.assert_allclose(out.dense.data, expect_dense, atol=1e-5)

    def test_lora_delta_changes_projection(self):
        model = tiny_model()
        image = sample_image()
        base = model.predict(image, PROMPTS)
        dim = TINY.enc_dim
        down = Tensor(np.full((dim, 2), 0.05, dtype=np.float32))
        up = Tensor(np.full((2, dim), 0.05, dtype=np.float32))
        model.lora_deltas["encoder.block0.attn.query"] = (down, up, 0.0)
        np.testing.assert_array_equal(model.predict(image, PROMPTS).logits, base.logits)
        model.lora_deltas["encoder.block0.attn.query"] = (down, up, 2.0)
        assert not np.array_equal(model.predict(image, PROMPTS).logits, base.logits)


class TestForwardPath:
    """``forward`` is the one place that builds the state ``decode`` starts
    from; handing it the embedding or the prefix changes nothing."""

    def test_given_embedding_or_prefix_is_bit_identical(self):
        model = tiny_model()
        attach_decoder_adapter(model, AdapterConfig(num_prompts=2, prompt_dim=8, key_dim=8, value_dim=8), seed=1)
        for name in model.registry.names():
            if name.endswith(".gate"):  # open the zero-init gates so the adapter acts
                model.registry.get(name).data[...] = 0.5
        image = sample_image(3)
        embedding = model.encode_image(image)
        prefix = model.decoder_prefix(embedding, model.encode_prompts(PROMPTS))
        runs = [
            model.forward(image, PROMPTS),
            model.forward(image, PROMPTS, embedding=embedding),
            model.forward(image, PROMPTS, embedding=embedding, prefix=prefix),
        ]
        for out in runs[1:]:
            for field in ("logits", "iou_pred", "dense"):
                got, want = getattr(out, field).data, getattr(runs[0], field).data
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
        unadapted = tiny_model().forward(image, PROMPTS)
        assert not np.array_equal(runs[0].logits.data, unadapted.logits.data)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of import time on every run.
    code = "import sys, segadapt; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


GRADCHECK_CFG = ModelConfig(
    image_size=8,
    patch_size=4,
    enc_dim=8,
    enc_depth=1,
    enc_heads=2,
    dec_dim=16,
    dec_depth=1,
    dec_heads=2,
    mlp_ratio=2,
    seed=3,
)


class TestGradients:
    def test_mask_path_finite_difference(self):
        model = SegmentationModel(GRADCHECK_CFG, dtype=np.float64)
        image = sample_image(5, size=8)
        target = (np.random.default_rng(6).uniform(size=(8, 8)) > 0.5).astype(np.float64)
        prompts = PromptSet([(2.0, 2.0, 1), (6.0, 5.0, 0)])
        # The IoU-match term holds the achieved IoU fixed, which steps when a
        # pixel crosses probability 0.5; keep the objective smooth by dropping
        # it here and checking the IoU head separately below.
        loss_cfg = LossConfig(iou_weight=0.0)

        def objective():
            out = model.forward(image, prompts)
            total, _ = supervised_loss(out.logits, out.iou_pred, target, loss_cfg)
            return total

        err = finite_diff_check(objective, model.registry, eps=1e-5, coords_per_param=2, seed=0)
        assert err <= 1e-5

    def test_iou_head_finite_difference(self):
        model = SegmentationModel(GRADCHECK_CFG, dtype=np.float64)
        image = sample_image(5, size=8)
        prompts = PromptSet([(2.0, 2.0, 1), (6.0, 5.0, 0)])

        def objective():
            return model.forward(image, prompts).iou_pred

        err = finite_diff_check(objective, model.registry, eps=1e-5, coords_per_param=2, seed=1)
        assert err <= 1e-5
