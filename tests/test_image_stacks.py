"""A stack of images gives each image's own values, bit for bit.

Op level: every operation that takes a leading image axis must give, for
each image of a stack, the bytes of the same call on that image alone, and a
stack of one must give the unstacked call's value and every leaf's gradient
byte for byte.  A weight shared by the stack gets the sum of the per-image
gradients.  Engine level: ``evaluate_model``, which runs ``EVAL_BATCH``
images per forward, must give exactly the scores and logits of a loop of
``predict`` over the images, for every method, with and without the stage
memo, on splits that leave a partial chunk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fused_ops import arrays

import segadapt.engine as engine
from segadapt import Tensor, backward
from segadapt.adapter import METHODS, AdapterConfig, LoraConfig
from segadapt.config import TOY_ADAPTER, RunConfig
from segadapt.data import default_source_domain, generate_volume
from segadapt.errors import DimensionError
from segadapt.model import ModelConfig, PromptSet, SegmentationModel
from segadapt.tensor import (
    add,
    attention,
    concat,
    gather_rows,
    gelu,
    layer_norm,
    linear,
    matmul,
    no_grad,
    softmax,
    stack,
    transpose,
)

EXAMPLES = settings(max_examples=40, deadline=None)
IMAGES = st.integers(1, 4)
EXTENT = st.integers(1, 5)  # includes one row and one column


def _grads(op, leaves):
    """Value bytes of ``op(**tensors)`` and each leaf's gradient bytes."""
    tensors = {name: Tensor(data, requires_grad=grad) for name, (data, grad) in leaves.items()}
    out = op(**tensors)
    if out.requires_grad:
        backward((out * out).sum())
    return out.data.tobytes(), {n: None if t.grad is None else t.grad.tobytes() for n, t in tensors.items()}


def assert_stack_is_per_image(op, stacked, shared, data):
    """``op`` over a stack equals ``op`` per image, byte for byte; a stack of
    one equals the unstacked call in value and gradient."""
    images = len(next(iter(stacked.values())))
    with no_grad():
        whole = op(**{n: Tensor(a) for n, a in {**stacked, **shared}.items()}).data
        for j in range(images):
            alone = op(**{n: Tensor(a[j]) for n, a in stacked.items()},
                       **{n: Tensor(a) for n, a in shared.items()})
            assert whole[j].tobytes() == alone.data.tobytes()
    masks = {n: data.draw(st.booleans()) for n in (*stacked, *shared)}
    one = {n: (a[:1], masks[n]) for n, a in stacked.items()} | {n: (a, masks[n]) for n, a in shared.items()}
    plain = {n: (a[0], masks[n]) for n, a in stacked.items()} | {n: (a, masks[n]) for n, a in shared.items()}
    (value_one, grads_one), (value, grads) = _grads(op, one), _grads(op, plain)
    assert value_one == value and grads_one == grads


def draw_stack(data, images, shape, bound=10.0):
    return data.draw(arrays((images, *shape), bound))


class TestStackedOps:
    @EXAMPLES
    @given(st.data(), IMAGES, EXTENT, EXTENT, EXTENT, st.booleans())
    def test_linear(self, data, images, n, k, d, with_delta):
        stacked = {"x": draw_stack(data, images, (n, k))}
        if with_delta:
            stacked["delta"] = draw_stack(data, images, (n, d))
        shared = {"weight": data.draw(arrays((k, d), 10.0)), "bias": data.draw(arrays((d,), 10.0))}
        assert_stack_is_per_image(linear, stacked, shared, data)

    @EXAMPLES
    @given(st.data(), IMAGES, EXTENT, EXTENT)
    def test_layer_norm(self, data, images, n, d):
        stacked = {"x": draw_stack(data, images, (n, d))}
        shared = {"gain": data.draw(arrays((d,), 10.0)), "bias": data.draw(arrays((d,), 10.0))}
        assert_stack_is_per_image(layer_norm, stacked, shared, data)

    @EXAMPLES
    @given(st.data(), IMAGES, st.sampled_from([1, 2, 4]), EXTENT, EXTENT, st.booleans())
    def test_attention(self, data, images, heads, n_q, n_k, shared_kv):
        # Each image's own keys and values, or one set every image attends
        # over, as an adapter's prompt bank is.
        def op(q, k, v):
            return attention(q, k, v, heads, 0.5)

        kv = {"k": (n_k, 4), "v": (n_k, 8)}
        stacked = {"q": draw_stack(data, images, (n_q, 4))}
        if shared_kv:
            shared = {n: data.draw(arrays(s, 10.0)) for n, s in kv.items()}
        else:
            shared = {}
            stacked |= {n: draw_stack(data, images, s) for n, s in kv.items()}
        assert_stack_is_per_image(op, stacked, shared, data)

    @EXAMPLES
    @given(st.data(), IMAGES, EXTENT, EXTENT, EXTENT, st.sampled_from(["a", "b", "both"]))
    def test_matmul(self, data, images, m, k, n, which):
        # A stack times one shared matrix on either side, or stack by stack:
        # the mask head multiplies each image's pixels by its own column.
        shapes = {"a": (m, k), "b": (k, n)}
        stacked = {x: draw_stack(data, images, shapes[x]) for x in shapes if which in (x, "both")}
        shared = {x: data.draw(arrays(shapes[x], 10.0)) for x in shapes if x not in stacked}
        assert_stack_is_per_image(matmul, stacked, shared, data)

    @EXAMPLES
    @given(st.data(), IMAGES, EXTENT, EXTENT)
    def test_elementwise_and_shape_ops(self, data, images, n, d):
        # A table added to every image, as the position embedding is; the
        # row-wise and elementwise ops; a transpose of each image's matrix.
        table = {"b": data.draw(arrays((n, d), 10.0))}
        for op in (add, lambda a, b: add(b, a)):
            assert_stack_is_per_image(op, {"a": draw_stack(data, images, (n, d))}, table, data)
        for op in (gelu, transpose, lambda a: softmax(a, axis=-1), lambda a: a.sigmoid(), lambda a: a.relu()):
            assert_stack_is_per_image(op, {"a": draw_stack(data, images, (n, d))}, {}, data)

    @EXAMPLES
    @given(st.data(), IMAGES, EXTENT, EXTENT)
    def test_token_concat(self, data, images, n, d):
        # One image's learned tokens joined to every image's prompt tokens.
        def op(token, prompts):
            return concat([token, token * 2.0, prompts], axis=-2)

        shared = {"token": data.draw(arrays((1, d), 10.0))}
        assert_stack_is_per_image(op, {"prompts": draw_stack(data, images, (n, d))}, shared, data)

    @pytest.mark.parametrize("images", [2, 3])
    def test_shared_weights_get_the_sum_of_per_image_gradients(self, images):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((images, 3, 4))
        weights = {"w": rng.standard_normal((4, 4)), "b": rng.standard_normal(4),
                   "gain": rng.standard_normal(4), "kv": rng.standard_normal((2, 4))}

        def grads(x):
            leaves = {n: Tensor(a, requires_grad=True, dtype=np.float64) for n, a in weights.items()}
            h = linear(Tensor(x, dtype=np.float64), leaves["w"], leaves["b"])
            h = layer_norm(h, leaves["gain"], leaves["b"])
            out = attention(h, leaves["kv"], leaves["kv"], 2, 0.5)
            backward((out * out).sum())
            return {n: t.grad for n, t in leaves.items()}

        whole = grads(xs)
        per_image = [grads(x) for x in xs]
        for name in weights:
            np.testing.assert_allclose(whole[name], sum(g[name] for g in per_image), rtol=1e-12, atol=1e-12)

    def test_gather_rows_and_stack(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True, dtype=np.float64)
        rows = gather_rows(table, [[0, 2], [2, 2]])
        np.testing.assert_array_equal(rows.data, [[[0, 1], [4, 5]], [[4, 5], [4, 5]]])
        parts = [Tensor(np.full((2, 2), v), requires_grad=True, dtype=np.float64) for v in (1.0, 2.0)]
        stacked = stack(parts)
        backward((stacked * rows).sum())
        np.testing.assert_array_equal(table.grad, [[1, 1], [0, 0], [5, 5]])
        np.testing.assert_array_equal(parts[1].grad, rows.data[1])
        with pytest.raises(DimensionError):
            stack([parts[0], Tensor(np.ones(3), dtype=np.float64)])

    def test_a_plain_row_broadcast_is_still_refused(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
        with pytest.raises(DimensionError):
            add(Tensor(np.ones((2, 4, 2))), Tensor(np.ones((3, 2))))


# -- the model and evaluate_model ------------------------------------------------

CFG = RunConfig()
SAMPLES = generate_volume(default_source_domain(), 11) + generate_volume(default_source_domain(), 12)[:1]


def _attached(model_cfg, method, adapter=TOY_ADAPTER, lora=LoraConfig()):
    """A model with ``method`` attached and every adapter and LoRA value
    moved off its start, so that zero gates and up-projections do not hide
    them."""
    model = SegmentationModel(model_cfg)
    engine.attach_method(model, method, adapter, lora, seed=1)
    rng = np.random.default_rng(2)
    for name in model.registry.names():
        if name.startswith(("adapter.", "lora.")):
            t = model.registry.get(name)
            t.data[...] = 0.2 * rng.standard_normal(t.shape)
    return model


def assert_evaluation_is_per_image(model, samples, seed, memo_passes=2):
    """evaluate_model, without and then with a memo (passes on one memo),
    records exactly the per-image logits and scores."""
    reference = [model.predict(s.image, engine._click(s, seed)) for s in samples]
    scores = [engine.compute_iou(p.mask, s.mask) for p, s in zip(reference, samples)]
    logits = []
    predict = model.predict

    def recording(*args):
        pred = predict(*args)
        logits.extend(pred.logits)
        return pred

    model.predict = recording
    memo = engine._frozen_inputs(model, seed, samples)
    for inputs in [None] + [memo] * memo_passes:
        logits.clear()
        assert engine.evaluate_model(model, samples, seed, inputs).per_image == scores
        assert [a.tobytes() for a in logits] == [p.logits.tobytes() for p in reference]
    del model.predict


class TestEvaluateInChunks:
    def test_the_split_leaves_a_partial_chunk(self):
        assert len(SAMPLES) % engine.EVAL_BATCH

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_scores_each_image_as_alone(self, method):
        assert_evaluation_is_per_image(_attached(CFG.model, method), SAMPLES, seed=4)

    def test_the_zero_gated_adapter_ttda_attaches(self):
        model = SegmentationModel(CFG.model)
        engine.attach_method(model, "full_ft", None, None)
        engine.attach_method(model, "sam_da_dec", CFG.adapter, None, seed=CFG.ttda.seed)
        assert_evaluation_is_per_image(model, SAMPLES, seed=0)

    def test_a_stack_is_iou_estimates_and_logits_per_image(self):
        model = _attached(CFG.model, "sam_da_dec")
        clicks = [engine._click(s, 0) for s in SAMPLES[:3]]
        whole = model.predict(np.stack([s.image for s in SAMPLES[:3]]), clicks)
        for j, (s, click) in enumerate(zip(SAMPLES[:3], clicks)):
            alone = model.predict(s.image, click)
            assert whole.logits[j].tobytes() == alone.logits.tobytes()
            assert whole.iou_pred[j] == alone.iou_pred

    def test_prompt_sets_of_different_sizes_do_not_stack(self):
        model = _attached(CFG.model, "decoder_ft")
        images = np.stack([SAMPLES[0].image, SAMPLES[1].image])
        prompts = [PromptSet([(3.0, 4.0, 1)]), PromptSet([(3.0, 4.0, 1), (9.0, 9.0, 0)])]
        with pytest.raises(DimensionError, match="equally many points"):
            model.predict(images, prompts)


@st.composite
def tiny_configs(draw):
    """A random tiny model, and adapter and LoRA configs for it: the knobs
    the memo's rule and the stacked forward depend on."""
    enc_heads, dec_heads = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    enc_depth = draw(st.integers(1, 3))
    model_cfg = ModelConfig(
        patch_size=draw(st.sampled_from([8, 16])), enc_dim=8 * enc_heads, enc_depth=enc_depth,
        enc_heads=enc_heads, dec_dim=16, dec_depth=draw(st.integers(1, 2)), dec_heads=dec_heads,
        mlp_ratio=2, seed=draw(st.integers(0, 99)),
    )
    adapter = AdapterConfig(num_prompts=draw(st.integers(1, 3)), prompt_dim=8, key_dim=4, value_dim=4,
                            encoder_adapted_blocks=draw(st.integers(1, enc_depth)))
    projections = st.sampled_from(["query", "key", "value", "out"])
    targets = draw(st.lists(projections, min_size=1, max_size=4, unique=True))
    lora = LoraConfig(rank=draw(st.integers(1, 4)), targets=tuple(targets))
    return model_cfg, adapter, lora


@st.composite
def tiny_runs(draw):
    """A random tiny model, one method on it and a number of images."""
    model_cfg, adapter, lora = draw(tiny_configs())
    method = draw(st.sampled_from(METHODS))
    return model_cfg, method, adapter, lora, draw(st.integers(1, 11))


@settings(max_examples=60, deadline=None)
@given(tiny_runs())
def test_random_tiny_models_score_each_image_as_alone(run):
    model_cfg, method, adapter, lora, count = run
    model = _attached(model_cfg, method, adapter, lora)
    assert_evaluation_is_per_image(model, SAMPLES[:count], seed=count)
