"""Adapter mechanics: attention math, zero-init equivalence, policies, counts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from segadapt import Tensor, no_grad
from segadapt.adapter import (
    METHODS,
    AdapterConfig,
    LoraConfig,
    adapter_apply,
    adapter_attention,
    adapter_param_count,
    apply_freeze_policy,
    attach_decoder_adapter,
    attach_encoder_adapter,
    attach_lora,
    declare_adapter_layer,
    lora_param_count,
    trainable_predicate,
)
from segadapt.checkpoint import dump_bytes
from segadapt.engine import attach_method
from segadapt.errors import ContractError, ValidationError
from segadapt.gradcheck import finite_diff_check
from segadapt.losses import dice_loss
from segadapt.model import ModelConfig, PromptSet, SegmentationModel
from segadapt.params import AdamWState, ParameterRegistry, adamw_step

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

TOY_ADAPTER = AdapterConfig(num_prompts=2, prompt_dim=32, key_dim=8, value_dim=8)


def tiny_model(dtype=np.float32) -> SegmentationModel:
    return SegmentationModel(TINY, dtype=dtype)


def sample_image(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(size=(16, 16))


PROMPTS = PromptSet([(4.0, 5.0, 1), (10.0, 2.0, 0)])


SCOPE = "adapter.dec0"


def scalar_state(prompt_rows) -> ParameterRegistry:
    """One layer at SCOPE in a float64 registry: 1-dim everything, unit
    weights, zero biases, identity post, unit gate."""
    reg = ParameterRegistry(dtype=np.float64)
    declare_adapter_layer(reg, SCOPE, 1, AdapterConfig(len(prompt_rows), 1, 1, 1))
    reg.get(f"{SCOPE}.prompts").data[...] = prompt_rows
    for name in ("gate", "query.weight", "key.weight", "value.weight", "proj.weight", "post.weight"):
        reg.get(f"{SCOPE}.{name}").data[...] = 1.0
    return reg


class TestAdapterAttention:
    def test_scalar_hand_computation(self):
        reg = scalar_state([[1.0], [3.0]])
        out = adapter_attention(Tensor(np.array([[2.0]])), reg, SCOPE)
        expect = (math.exp(2.0) * 1.0 + math.exp(6.0) * 3.0) / (math.exp(2.0) + math.exp(6.0))
        assert abs(out.item() - expect) <= 1e-6

    def test_single_prompt_broadcasts_its_value(self):
        # One key: softmax weight is 1 for every query row regardless of score.
        rng = np.random.default_rng(0)
        reg = scalar_state([[0.7]])
        tokens = Tensor(rng.normal(size=(5, 1)))
        out = adapter_attention(tokens, reg, SCOPE)
        np.testing.assert_allclose(out.data, np.full((5, 1), 0.7), atol=1e-12)

    def test_zero_prompts_yield_projection_bias(self):
        reg = scalar_state([[0.0], [0.0]])
        reg.get(f"{SCOPE}.proj.bias").data[...] = 1.25
        out = adapter_attention(Tensor(np.array([[0.4], [2.0], [-3.0]])), reg, SCOPE)
        np.testing.assert_allclose(out.data, np.full((3, 1), 1.25), atol=1e-12)

    def test_scores_divided_by_sqrt_value_dim(self):
        # With distinct key/value dims the divisor must follow the value dim.
        reg = ParameterRegistry(dtype=np.float64)
        cfg = AdapterConfig(num_prompts=3, prompt_dim=4, key_dim=2, value_dim=8)
        declare_adapter_layer(reg, SCOPE, 5, cfg)
        reg.initialize(1)
        tokens = np.random.default_rng(2).normal(size=(6, 5))
        with no_grad():
            out = adapter_attention(Tensor(tokens), reg, SCOPE)

        def w(name):
            return reg.get(f"{SCOPE}.{name}").data

        q = tokens @ w("query.weight") + w("query.bias")
        k = w("prompts") @ w("key.weight")
        v = w("prompts") @ w("value.weight") + w("value.bias")
        scores = q @ k.T / math.sqrt(8)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        expect = (weights @ v) @ w("proj.weight") + w("proj.bias")
        np.testing.assert_allclose(out.data, expect, atol=1e-10)


class TestAdapterApply:
    def test_fresh_layer_is_exact_identity(self):
        reg = ParameterRegistry(dtype=np.float32)
        declare_adapter_layer(reg, SCOPE, 16, TOY_ADAPTER)
        reg.initialize(3)
        tokens = np.random.default_rng(4).normal(size=(10, 16)).astype(np.float32)
        with no_grad():
            out = adapter_apply(Tensor(tokens), reg, SCOPE)
        np.testing.assert_array_equal(out.data, tokens)

    def test_unit_gate_zero_attention_reduces_to_post_projection(self):
        reg = scalar_state([[0.0], [0.0]])
        reg.get(f"{SCOPE}.gate").data[...] = 1.0
        reg.get(f"{SCOPE}.post.weight").data[...] = 2.0
        tokens = Tensor(np.array([[1.5], [-0.5]]))
        out = adapter_apply(tokens, reg, SCOPE)
        np.testing.assert_allclose(out.data, tokens.data * 2.0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        reg = ParameterRegistry(dtype=np.float64)
        cfg = AdapterConfig(num_prompts=2, prompt_dim=6, key_dim=3, value_dim=3)
        declare_adapter_layer(reg, SCOPE, 4, cfg)
        reg.initialize(5)
        reg.get(f"{SCOPE}.gate").data[...] = 0.3  # exercise the attention branch
        tokens = np.random.default_rng(6).normal(size=(7, 4))

        def objective():
            out = adapter_apply(Tensor(tokens), reg, SCOPE)
            return (out * out).sum()

        err = finite_diff_check(objective, reg, eps=1e-5, coords_per_param=4, seed=0)
        assert err <= 1e-4

    def test_gate_gradient_nonzero_at_zero(self):
        # The gate must receive signal while still at its zero init.
        reg = ParameterRegistry(dtype=np.float64)
        declare_adapter_layer(reg, SCOPE, 4, AdapterConfig(2, 8, 4, 4))
        reg.initialize(9)
        tokens = Tensor(np.random.default_rng(10).normal(size=(5, 4)))
        from segadapt.tensor import backward

        backward(adapter_apply(tokens, reg, SCOPE).sum())
        assert abs(float(reg.get(f"{SCOPE}.gate").grad)) > 1e-8


class TestDecoderAttachment:
    def test_zero_init_preserves_predictions(self):
        base = tiny_model()
        image = sample_image()
        before = base.predict(image, PROMPTS)
        attach_decoder_adapter(base, AdapterConfig(**{**TOY_ADAPTER.__dict__}), seed=11)
        after = base.predict(image, PROMPTS)
        np.testing.assert_array_equal(after.logits, before.logits)
        assert after.iou_pred == before.iou_pred

    def test_one_state_per_decoder_layer(self):
        model = tiny_model()
        attach_decoder_adapter(model, TOY_ADAPTER)
        scopes = {n.split(".")[1] for n in model.registry.names() if n.startswith("adapter.")}
        assert scopes == {"dec0", "dec1"}

    def test_policy_trains_adapter_only(self):
        model = tiny_model()
        attach_decoder_adapter(model, TOY_ADAPTER)
        for name in model.registry.names():
            assert model.registry.param(name).trainable == name.startswith("adapter.")

    def test_double_attach_rejected(self):
        model = tiny_model()
        attach_decoder_adapter(model, TOY_ADAPTER)
        with pytest.raises(ContractError):
            attach_decoder_adapter(model, TOY_ADAPTER)

    def test_busy_dense_hook_rejected(self):
        model = tiny_model()
        model.dense_hook = lambda dense, layer: dense
        with pytest.raises(ContractError):
            attach_decoder_adapter(model, TOY_ADAPTER)

    def test_wrong_placement_rejected(self):
        with pytest.raises(ValidationError):
            attach_decoder_adapter(tiny_model(), AdapterConfig(placement="encoder"))

    def test_training_moves_only_adapter_parameters(self):
        model = tiny_model()
        attach_decoder_adapter(model, TOY_ADAPTER, seed=2)
        frozen_before = {
            n: model.registry.get(n).data.copy()
            for n in model.registry.names()
            if not n.startswith("adapter.")
        }
        image = sample_image(3)
        target = (np.random.default_rng(4).uniform(size=(16, 16)) > 0.6).astype(np.float32)
        opt = AdamWState(lr=1e-2)
        from segadapt.tensor import backward

        moved = False
        for _ in range(3):
            out = model.forward(image, PROMPTS)
            backward(dice_loss(out.logits, target))
            model.registry.fill_missing_grads()
            adamw_step(model.registry, opt)
        for name, before in frozen_before.items():
            np.testing.assert_array_equal(model.registry.get(name).data, before)
        for n in model.registry.names():
            if n.startswith("adapter.") and not np.array_equal(
                model.registry.get(n).data, np.zeros_like(model.registry.get(n).data)
            ):
                moved = True
        assert moved


class TestEncoderAttachment:
    def test_zero_init_preserves_predictions(self):
        model = tiny_model()
        image = sample_image()
        before = model.predict(image, PROMPTS)
        attach_encoder_adapter(
            model, AdapterConfig(num_prompts=2, prompt_dim=32, key_dim=8, value_dim=8, placement="encoder")
        )
        after = model.predict(image, PROMPTS)
        np.testing.assert_array_equal(after.logits, before.logits)

    def test_default_fraction_adapts_five_of_six_blocks(self):
        assert AdapterConfig(placement="encoder").resolved_encoder_blocks(6) == 5
        assert AdapterConfig(placement="encoder").resolved_encoder_blocks(2) == 2

    def test_adapted_block_indices_are_final_blocks(self):
        model = tiny_model()
        cfg = AdapterConfig(
            num_prompts=2, prompt_dim=32, key_dim=8, value_dim=8,
            placement="encoder", encoder_adapted_blocks=1,
        )
        attach_encoder_adapter(model, cfg)
        scopes = {n.split(".")[1] for n in model.registry.names() if n.startswith("adapter.")}
        assert scopes == {"enc1"}

    def test_too_many_blocks_rejected(self):
        cfg = AdapterConfig(placement="encoder", encoder_adapted_blocks=3)
        with pytest.raises(ValidationError):
            attach_encoder_adapter(tiny_model(), cfg)

    def test_policy_trains_adapters_and_decoder(self):
        model = tiny_model()
        attach_encoder_adapter(
            model, AdapterConfig(num_prompts=2, prompt_dim=32, key_dim=8, value_dim=8, placement="encoder")
        )
        pred = trainable_predicate("sam_da_enc")
        for name in model.registry.names():
            assert model.registry.param(name).trainable == pred(name)
            assert pred(name) == name.startswith(("adapter.", "decoder."))


class TestLora:
    def test_zero_init_preserves_predictions(self):
        model = tiny_model()
        image = sample_image()
        before = model.predict(image, PROMPTS)
        attach_lora(model, LoraConfig())
        after = model.predict(image, PROMPTS)
        np.testing.assert_array_equal(after.logits, before.logits)

    def test_param_count_closed_form(self):
        model = tiny_model()
        attach_lora(model, LoraConfig(rank=3))
        added = sum(
            model.registry.get(n).data.size
            for n in model.registry.names()
            if n.startswith("lora.")
        )
        # r * (d_in + d_out) per targeted square projection
        assert added == lora_param_count(LoraConfig(rank=3), TINY.enc_dim, TINY.enc_depth)
        assert added == 3 * (16 + 16) * 2 * TINY.enc_depth

    def test_rank_exceeding_dim_rejected(self):
        with pytest.raises(ValidationError):
            attach_lora(tiny_model(), LoraConfig(rank=17))

    def test_double_attach_rejected(self):
        model = tiny_model()
        attach_lora(model, LoraConfig())
        with pytest.raises(ContractError):
            attach_lora(model, LoraConfig())

    def test_both_matrices_get_gradient_after_one_step(self):
        # With the up-projection still zero the down matrix sees no signal, so
        # take one optimizer step first, then check both sides.
        model = tiny_model()
        attach_lora(model, LoraConfig())
        image = sample_image(8)
        target = (np.random.default_rng(9).uniform(size=(16, 16)) > 0.5).astype(np.float32)
        opt = AdamWState(lr=1e-2)
        from segadapt.tensor import backward

        for step in range(2):
            out = model.forward(image, PROMPTS)
            backward(dice_loss(out.logits, target))
            if step == 0:
                model.registry.fill_missing_grads()
                adamw_step(model.registry, opt)
        down = model.registry.get("lora.block0.query.down")
        up = model.registry.get("lora.block0.query.up")
        assert np.abs(up.grad).max() > 0
        assert np.abs(down.grad).max() > 0


def _attach_encoder(model):
    attach_encoder_adapter(model, replace(TOY_ADAPTER, placement="encoder"))


def _assert_refusal_changes_nothing(model, call, error):
    """``call(model)`` raises ``error`` and leaves the registry's names, values
    and trainability, the hooks and the LoRA deltas as they were."""
    names = model.registry.names()
    trainable = [model.registry.param(n).trainable for n in names]
    values = dump_bytes(model.registry)
    dense_hook, encoder_hook = model.dense_hook, model.encoder_hook
    deltas = dict(model.lora_deltas)
    with pytest.raises(error):
        call(model)
    assert model.registry.names() == names
    assert [model.registry.param(n).trainable for n in names] == trainable
    assert dump_bytes(model.registry) == values
    assert model.dense_hook is dense_hook and model.encoder_hook is encoder_hook
    assert model.lora_deltas.keys() == deltas.keys()
    assert all(model.lora_deltas[k] is v for k, v in deltas.items())


class TestSecondAttachment:
    @pytest.mark.parametrize(
        "first, second",
        [
            (lambda m: attach_decoder_adapter(m, TOY_ADAPTER), lambda m: attach_decoder_adapter(m, TOY_ADAPTER)),
            (_attach_encoder, _attach_encoder),
            (
                lambda m: attach_lora(m, LoraConfig()),
                lambda m: attach_lora(m, LoraConfig(targets=("key", "out"))),
            ),
        ],
        ids=["decoder", "encoder", "lora"],
    )
    def test_refused_second_attachment_changes_nothing(self, first, second):
        model = tiny_model()
        first(model)
        _assert_refusal_changes_nothing(model, second, ContractError)


# Each call attaches with the given seed; ids are the attachment's.
SEEDED_ATTACHES = {
    "decoder": lambda m, seed: attach_decoder_adapter(m, TOY_ADAPTER, seed=seed),
    "encoder": lambda m, seed: attach_encoder_adapter(m, replace(TOY_ADAPTER, placement="encoder"), seed=seed),
    "lora": lambda m, seed: attach_lora(m, LoraConfig(), seed=seed),
    "method-sam_da_dec": lambda m, seed: attach_method(m, "sam_da_dec", TOY_ADAPTER, None, seed=seed),
    "method-sam_da_enc": lambda m, seed: attach_method(m, "sam_da_enc", TOY_ADAPTER, None, seed=seed),
    "method-lora": lambda m, seed: attach_method(m, "lora", None, LoraConfig(), seed=seed),
}


class TestNegativeSeed:
    @pytest.mark.parametrize("attach", list(SEEDED_ATTACHES.values()), ids=list(SEEDED_ATTACHES))
    def test_negative_seed_refused_before_any_parameter_is_added(self, attach):
        _assert_refusal_changes_nothing(tiny_model(), lambda m: attach(m, -1), ValidationError)

    @pytest.mark.parametrize("seed", [1.5, True, "1", None])
    @pytest.mark.parametrize("attach", list(SEEDED_ATTACHES.values()), ids=list(SEEDED_ATTACHES))
    def test_seed_that_is_not_an_int_refused_before_any_parameter_is_added(self, attach, seed):
        _assert_refusal_changes_nothing(tiny_model(), lambda m: attach(m, seed), ValidationError)


class TestParamCount:
    def test_published_dims_give_expected_total(self):
        cfg = AdapterConfig(num_prompts=2, prompt_dim=512, key_dim=256, value_dim=256)
        assert adapter_param_count(cfg, token_dim=256, layer_count=2) == 921_602

    def test_formula_matches_registry_enumeration(self):
        for cfg, token_dim, layers in [
            (AdapterConfig(2, 512, 256, 256), 256, 2),
            (AdapterConfig(2, 128, 64, 64), 64, 2),
            (AdapterConfig(1, 16, 8, 4), 32, 3),
            (AdapterConfig(7, 3, 5, 2), 11, 1),
            (AdapterConfig(4, 64, 32, 32), 128, 5),
        ]:
            reg = ParameterRegistry(dtype=np.float32)
            for layer in range(layers):
                declare_adapter_layer(reg, f"adapter.dec{layer}", token_dim, cfg)
            enumerated = sum(reg.get(n).data.size for n in reg.names())
            assert adapter_param_count(cfg, token_dim, layers) == enumerated

    def test_prompt_count_linearity(self):
        one = adapter_param_count(AdapterConfig(1, 512, 256, 256), 256, 2)
        two = adapter_param_count(AdapterConfig(2, 512, 256, 256), 256, 2)
        assert two - one == 2 * 512

    def test_zero_prompts_rejected(self):
        with pytest.raises(ValidationError):
            adapter_param_count(AdapterConfig(num_prompts=0), 256, 2)

    def test_toy_attachment_trainable_count_matches_formula(self):
        model = tiny_model()
        attach_decoder_adapter(model, TOY_ADAPTER)
        trainable = sum(
            model.registry.get(n).data.size
            for n in model.registry.names()
            if model.registry.param(n).trainable
        )
        assert trainable == adapter_param_count(TOY_ADAPTER, TINY.dec_dim, TINY.dec_depth)


class TestPolicies:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            trainable_predicate("prompt_tuning")

    def test_method_roster(self):
        assert METHODS == ("full_ft", "decoder_ft", "lora", "sam_da_dec", "sam_da_enc")

    def test_full_ft_trains_everything(self):
        model = tiny_model()
        trainable, total = apply_freeze_policy(model, "full_ft")
        assert trainable == total

    def test_decoder_ft_trains_decoder_only(self):
        model = tiny_model()
        apply_freeze_policy(model, "decoder_ft")
        for name in model.registry.names():
            assert model.registry.param(name).trainable == name.startswith("decoder.")

    def test_trainable_counts_strictly_ordered_across_methods(self):
        counts = {}
        for method in METHODS:
            model = SegmentationModel(ModelConfig())
            toy = AdapterConfig(num_prompts=2, prompt_dim=128, key_dim=64, value_dim=64)
            if method == "sam_da_dec":
                attach_decoder_adapter(model, toy)
            elif method == "sam_da_enc":
                attach_encoder_adapter(
                    model, AdapterConfig(2, 128, 64, 64, placement="encoder")
                )
            elif method == "lora":
                attach_lora(model, LoraConfig())
            counts[method] = apply_freeze_policy(model, method)[0]
        assert (
            counts["sam_da_dec"]
            < counts["decoder_ft"]
            < counts["lora"]
            < counts["sam_da_enc"]
            < counts["full_ft"]
        )

    def test_toy_adapter_fraction_below_five_percent(self):
        model = SegmentationModel(ModelConfig())
        attach_decoder_adapter(
            model, AdapterConfig(num_prompts=2, prompt_dim=128, key_dim=64, value_dim=64)
        )
        trainable = model.registry.param_count(trainable_only=True)
        assert trainable / model.registry.param_count() < 0.05
