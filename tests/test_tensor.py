import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import segadapt.tensor as tensor
from chains import chain_attention, chain_linear
from segadapt import Init, ParameterRegistry, Tensor, backward, concat, finite_diff_check, no_grad
from segadapt.adapter import AdapterConfig, attach_decoder_adapter
from segadapt.errors import ContractError, DimensionError
from segadapt.model import ModelConfig, PromptSet, SegmentationModel
from segadapt.tensor import (
    LOG_CLAMP,
    _mean,
    attention,
    gather_rows,
    layer_norm,
    linear,
    matmul,
    softmax,
)


def fd_grad(fn, tensor, eps=1e-6):
    """Central-difference gradient of scalar fn() w.r.t. tensor.data."""
    flat = tensor.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn()
        flat[i] = orig - eps
        minus = fn()
        flat[i] = orig
        out[i] = (plus - minus) / (2 * eps)
    return out.reshape(tensor.shape)


def check_grad(build, tensors, tol=1e-6):
    """Compare backward() grads against central differences for each input."""
    loss = build()
    backward(loss)
    for t in tensors:
        with no_grad():
            fd = fd_grad(lambda: build().item(), t)
        got = np.zeros_like(t.data) if t.grad is None else t.grad
        np.testing.assert_allclose(got, fd, rtol=tol, atol=tol)
        t.grad = None


class TestMatmul:
    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 3))
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        got = matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(got.data, expected, atol=1e-12)

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 5, 4))
        b = rng.standard_normal((3, 4, 2))
        got = matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        for h in range(3):
            np.testing.assert_allclose(got.data[h], a[h] @ b[h], atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True, dtype=np.float64)
        check_grad(lambda: (matmul(a, b) * matmul(a, b)).sum(), [a, b])

    def test_batched_gradients(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True, dtype=np.float64)
        check_grad(lambda: (matmul(a, b) ** 2.0).sum(), [a, b])


class TestElementwise:
    def test_equal_shape_arithmetic(self):
        a = Tensor(np.array([1.0, 2.0]), dtype=np.float64)
        b = Tensor(np.array([3.0, 5.0]), dtype=np.float64)
        np.testing.assert_allclose((a + b).data, [4, 7])
        np.testing.assert_allclose((a - b).data, [-2, -3])
        np.testing.assert_allclose((a * b).data, [3, 10])
        np.testing.assert_allclose((a / b).data, [1 / 3, 2 / 5])

    def test_scalar_broadcast_both_sides(self):
        a = Tensor(np.array([[1.0, 2.0]]), dtype=np.float64)
        np.testing.assert_allclose((a + 1.0).data, [[2, 3]])
        np.testing.assert_allclose((2.0 * a).data, [[2, 4]])
        np.testing.assert_allclose((1.0 - a).data, [[0, -1]])
        np.testing.assert_allclose((2.0 / a).data, [[2, 1]])

    def test_general_broadcast_rejected(self):
        a = Tensor(np.ones((4, 2)))
        b = Tensor(np.ones((2,)))
        with pytest.raises(DimensionError):
            a + b

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.ones(2), dtype=np.float32) + Tensor(np.ones(2), dtype=np.float64)

    def test_arithmetic_gradients(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal(6) + 3.0, requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(6) + 3.0, requires_grad=True, dtype=np.float64)
        check_grad(lambda: ((a * b + a / b - b) ** 2.0).sum(), [a, b])

    def test_scalar_grad_accumulates_over_elements(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
        s = Tensor(np.asarray(2.0), requires_grad=True, dtype=np.float64)
        backward((a * s).sum())
        assert s.grad.shape == ()
        assert float(s.grad) == pytest.approx(6.0)

    def test_relu_and_grad_mask(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True, dtype=np.float64)
        y = x.relu()
        np.testing.assert_allclose(y.data, [0, 0, 2])
        backward(y.sum())
        np.testing.assert_allclose(x.grad, [0, 0, 1])

    def test_gelu_matches_gaussian_cdf_form(self):
        xs = np.linspace(-4, 4, 33)
        got = Tensor(xs, dtype=np.float64).gelu().data
        expected = np.array([x * 0.5 * (1 + math.erf(x / math.sqrt(2))) for x in xs])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gelu_gradient(self):
        x = Tensor(np.linspace(-2, 2, 9), requires_grad=True, dtype=np.float64)
        check_grad(lambda: (x.gelu() * x.gelu()).sum(), [x])

    def test_exp_log_gradients(self):
        x = Tensor(np.array([0.2, 1.0, 3.0]), requires_grad=True, dtype=np.float64)
        check_grad(lambda: (x.exp().log() * x).sum(), [x])

    def test_log_clamp_is_finite_with_zero_slope(self):
        x = Tensor(np.array([0.0, -1.0, 1.0]), requires_grad=True, dtype=np.float64)
        y = x.log()
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == pytest.approx(math.log(LOG_CLAMP))
        backward(y.sum())
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_open_interval_and_midpoint(self):
        y = Tensor(np.array([-1000.0, 0.0, 1000.0]), dtype=np.float32).sigmoid()
        assert 0.0 < y.data[0] < y.data[1] < y.data[2] < 1.0
        assert y.data[1] == pytest.approx(0.5)

    def test_sigmoid_gradient(self):
        x = Tensor(np.linspace(-3, 3, 7), requires_grad=True, dtype=np.float64)
        check_grad(lambda: (x.sigmoid() ** 2.0).sum(), [x])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        s = softmax(Tensor(rng.standard_normal((5, 7)), dtype=np.float64), axis=1)
        np.testing.assert_allclose(s.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_extreme_logits_no_overflow(self):
        s = softmax(Tensor(np.array([[1000.0, 0.0]]), dtype=np.float64), axis=1)
        np.testing.assert_allclose(s.data, [[1.0, 0.0]], atol=1e-300)
        assert np.all(np.isfinite(s.data))

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4))
        a = softmax(Tensor(x, dtype=np.float64), axis=1).data
        b = softmax(Tensor(x + 7.5, dtype=np.float64), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            softmax(Tensor(np.ones((2, 0))), axis=1)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
        check_grad(lambda: (softmax(x, axis=1) * w).sum(), [x])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    def test_distribution_property(self, logits):
        s = softmax(Tensor(np.array([logits]), dtype=np.float64), axis=1).data
        assert np.all(s >= 0)
        assert s.sum() == pytest.approx(1.0, abs=1e-9)


def _attention_run(op, heads, leaves, inputs):
    """Forward bytes and every leaf's .grad bytes of ``op`` under a fixed loss."""
    rng = np.random.default_rng(heads)
    leaves = {name: Tensor(data, requires_grad=grad) for name, (data, grad) in leaves.items()}
    q, k, v = inputs(leaves)
    out = op(q, k, v, heads, 1.0 / math.sqrt(q.shape[1] // heads))
    w = Tensor(rng.standard_normal(out.shape).astype(np.float32))
    loss = (out * out * w).sum()
    if loss.requires_grad:
        backward(loss)
    grads = {n: None if t.grad is None else t.grad.tobytes() for n, t in leaves.items()}
    return out.data.dtype, out.data.tobytes(), grads


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("mask", list(itertools.product([False, True], repeat=3)))
    def test_bit_identical_to_the_chain(self, heads, mask):
        rng = np.random.default_rng(30 + heads)
        n_q, n_k, dim, dim_v = 5, 7, 8, 12
        shapes = {"q": (n_q, dim), "k": (n_k, dim), "v": (n_k, dim_v)}
        leaves = {
            n: (rng.standard_normal(shape).astype(np.float32), grad)
            for (n, shape), grad in zip(shapes.items(), mask)
        }
        inputs = lambda t: (t["q"], t["k"], t["v"])  # noqa: E731
        fused = _attention_run(attention, heads, leaves, inputs)
        assert fused == _attention_run(chain_attention, heads, leaves, inputs)
        assert fused[0] == np.float32
        assert [g is not None for g in fused[2].values()] == list(mask)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("cross", [False, True])
    def test_bit_identical_with_projections_of_a_shared_input(self, heads, cross):
        # Self-attention projects q, k and v from one input; cross-attention
        # projects k and v from one and q from another, so n_q != n_k.  The
        # flows into a shared input sum in the chain's order.
        rng = np.random.default_rng(40 + heads)
        f32 = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
        leaves = {"x": (f32(5, 6), True), "y": (f32(9, 6), True)}
        leaves.update({n: (f32(6, 8), True) for n in ("wq", "wk", "wv")})

        def inputs(t):
            kv = t["y"] if cross else t["x"]
            return t["x"] @ t["wq"], kv @ t["wk"], kv @ t["wv"]

        fused = _attention_run(attention, heads, leaves, inputs)
        assert fused == _attention_run(chain_attention, heads, leaves, inputs)
        assert (fused[2]["y"] is not None) == cross

    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradcheck(self, heads):
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("q", (3, 4), Init.normal(1.0))
        reg.add("k", (5, 4), Init.normal(1.0))
        reg.add("v", (5, 6), Init.normal(1.0))
        reg.initialize(seed=heads)
        w = Tensor(np.random.default_rng(6).standard_normal((3, 6)), dtype=np.float64)

        def f():
            out = attention(reg.get("q"), reg.get("k"), reg.get("v"), heads, 0.7)
            return (out * out * w).sum()

        assert finite_diff_check(f, reg, eps=1e-5, coords_per_param=12) <= 1e-6

    def test_closure_skips_inputs_that_need_no_gradient(self):
        rng = np.random.default_rng(8)
        const = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        for heads in (1, 2):
            for out, needed in [
                (attention(const @ w, const, const, heads, 0.5), (True, False, False)),
                (attention(const, const @ w, const, heads, 0.5), (False, True, False)),
                (attention(const, const, const @ w, heads, 0.5), (False, False, True)),
            ]:
                grads = out._grad_fn(np.ones(out.shape, dtype=np.float32))
                assert tuple(pg is not None for pg in grads) == needed

    def test_shape_and_dtype_errors(self):
        x = Tensor(np.ones((3, 4)), dtype=np.float32)
        with pytest.raises(DimensionError):
            attention(x, Tensor(np.ones((3, 6)), dtype=np.float32), x, 1, 1.0)
        with pytest.raises(DimensionError):
            attention(x, x, x, 3, 1.0)
        with pytest.raises(ContractError):
            attention(x, x, Tensor(np.ones((3, 4)), dtype=np.float64), 1, 1.0)

    def test_predict_records_one_node_per_attention(self, monkeypatch):
        # 6 encoder blocks, 3 attentions in each of 2 decoder layers and 2
        # adapters; the only permutes left are the 3 upsampling stages'.
        # Every affine layer is one linear node: 75 in the model (6 per
        # encoder block, 14 per decoder layer, patch embed, neck, 3 upsampling
        # stages, 6 in the heads) and 4 per adapter, whose key stays a matmul.
        ops = Counter()
        real_node = tensor._node

        def counting(data, parents, grad_fn):
            ops[sys._getframe(1).f_code.co_name] += 1
            return real_node(data, parents, grad_fn)

        model = SegmentationModel(ModelConfig())
        attach_decoder_adapter(model, AdapterConfig())
        monkeypatch.setattr(tensor, "_node", counting)
        model.predict(np.zeros((64, 64)), PromptSet([(20, 30, 1)]))
        assert ops["attention"] == 14
        assert ops["permute"] == 3
        assert ops["softmax"] == 0
        assert ops["linear"] == 83
        assert ops["matmul"] == 3  # the adapters' keys and the mask product
        assert sum(ops.values()) == 175


def _linear_run(op, leaves, build):
    """Forward bytes and every leaf's .grad bytes of ``build(op, leaves)``
    under a fixed loss."""
    leaves = {name: Tensor(data, requires_grad=grad) for name, (data, grad) in leaves.items()}
    out = build(op, leaves)
    w = Tensor(np.random.default_rng(9).standard_normal(out.shape).astype(np.float32))
    loss = (out * out * w).sum()
    if loss.requires_grad:
        backward(loss)
    grads = {n: None if t.grad is None else t.grad.tobytes() for n, t in leaves.items()}
    return out.data.dtype, out.data.tobytes(), grads


_LINEAR_MASKS = [(m, False) for m in itertools.product([False, True], repeat=3)] + [
    (m, True) for m in itertools.product([False, True], repeat=4)
]


class TestLinear:
    @pytest.mark.parametrize("mask, with_delta", _LINEAR_MASKS)
    def test_bit_identical_to_the_chain(self, mask, with_delta):
        rng = np.random.default_rng(50)
        shapes = {"x": (5, 7), "w": (7, 6), "b": (6,), "d": (5, 6)}
        leaves = {
            n: (rng.standard_normal(shape).astype(np.float32), grad)
            for (n, shape), grad in zip(shapes.items(), mask)
        }

        def build(op, t):
            return op(t["x"], t["w"], t["b"], t["d"] if with_delta else None)

        fused = _linear_run(linear, leaves, build)
        assert fused == _linear_run(chain_linear, leaves, build)
        assert fused[0] == np.float32
        assert [g is not None for g in fused[2].values()] == list(mask)

    @pytest.mark.parametrize("lora", [False, True])
    def test_bit_identical_with_projections_of_a_shared_input(self, lora):
        # q, k and v are projected from one input, as in self-attention, and
        # with ``lora`` q and v carry a low-rank delta of that same input,
        # so three or five flows sum into it in the chain's order.
        rng = np.random.default_rng(60)
        f32 = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
        leaves = {"x": (f32(5, 8), True)}
        for p in "qkv":
            leaves.update({f"w{p}": (f32(8, 8), True), f"b{p}": (f32(8), True)})
            leaves.update({f"down{p}": (f32(8, 2), True), f"up{p}": (f32(2, 8), True)})

        def build(op, t):
            x = t["x"]

            def proj(p, delta):
                d = ((x @ t[f"down{p}"]) @ t[f"up{p}"]) * 0.5 if delta else None
                return op(x, t[f"w{p}"], t[f"b{p}"], d)

            return attention(proj("q", lora), proj("k", False), proj("v", lora), 2, 0.5)

        fused = _linear_run(linear, leaves, build)
        assert fused == _linear_run(chain_linear, leaves, build)
        assert (fused[2]["downq"] is not None) == lora and fused[2]["downk"] is None

    @pytest.mark.parametrize("with_delta", [False, True])
    def test_gradcheck(self, with_delta):
        reg = ParameterRegistry(dtype=np.float64)
        for name, shape in [("x", (3, 4)), ("w", (4, 5)), ("b", (5,)), ("d", (3, 5))]:
            reg.add(name, shape, Init.normal(1.0))
        reg.initialize(seed=12)

        def f():
            delta = reg.get("d") * reg.get("d") if with_delta else None
            out = linear(reg.get("x"), reg.get("w"), reg.get("b"), delta)
            return (out * out).sum()

        assert finite_diff_check(f, reg, eps=1e-5) <= 1e-6

    def test_grads(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
        w = Tensor(np.array([[1.0, 0.0], [2.0, 3.0]]), requires_grad=True, dtype=np.float64)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        out = linear(x, w, b)
        np.testing.assert_allclose(out.data, np.tile([4.0, 5.0], (3, 1)))
        backward(out.sum())
        np.testing.assert_allclose(x.grad, np.tile([1.0, 5.0], (3, 1)))
        np.testing.assert_allclose(w.grad, np.full((2, 2), 3.0))
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_closure_skips_inputs_that_need_no_gradient(self):
        rng = np.random.default_rng(13)
        const, square = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((4, 4)))
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        bias = Tensor(np.zeros(4))
        for out, needed in [
            (linear(const, w, bias), (False, True, False)),
            (linear(const @ w, square, bias), (True, False, False)),
            (linear(const, square, w[0]), (False, False, True)),
            (linear(const, square, bias, const @ w), (False, False, False, True)),
            (linear(const @ w, w, bias, const), (True, True, False, False)),
        ]:
            grads = out._grad_fn(np.ones(out.shape, dtype=np.float32))
            assert tuple(pg is not None for pg in grads) == needed

    def test_shape_and_dtype_errors(self):
        x = Tensor(np.ones((3, 2)), dtype=np.float32)
        w, b = Tensor(np.ones((2, 4)), dtype=np.float32), Tensor(np.ones(4), dtype=np.float32)
        for args in [
            (x, Tensor(np.ones((3, 4)), dtype=np.float32), b),  # inner extents differ
            (x, w, Tensor(np.ones(3), dtype=np.float32)),  # bias width
            (x, w, Tensor(np.ones((1, 4)), dtype=np.float32)),  # bias rank
            (Tensor(np.ones(2), dtype=np.float32), w, b),  # x rank
            (x, w, b, Tensor(np.ones((2, 4)), dtype=np.float32)),  # delta rows
        ]:
            with pytest.raises(DimensionError):
                linear(*args)
        with pytest.raises(ContractError):
            linear(x, w, Tensor(np.ones(4), dtype=np.float64))
        with pytest.raises(ContractError):
            linear(x, w, b, Tensor(np.ones((3, 4)), dtype=np.float64))


class TestLayerNorm:
    def test_normalizes_rows(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((4, 8)) * 3 + 1, dtype=np.float64)
        gain = Tensor(np.ones(8), dtype=np.float64)
        bias = Tensor(np.zeros(8), dtype=np.float64)
        y = layer_norm(x, gain, bias).data
        np.testing.assert_allclose(y.mean(axis=1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), np.ones(4), rtol=1e-4)

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 6))
        g = rng.standard_normal(6)
        b = rng.standard_normal(6)
        eps = 1e-5
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + eps) * g + b
        got = layer_norm(
            Tensor(x, dtype=np.float64),
            Tensor(g, dtype=np.float64),
            Tensor(b, dtype=np.float64),
            eps=eps,
        ).data
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gradients_flow_to_all_inputs(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
        g = Tensor(rng.standard_normal(5), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal(5), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
        check_grad(lambda: (layer_norm(x, g, b) * w).sum(), [x, g, b], tol=1e-5)

    def test_bad_eps_rejected(self):
        x = Tensor(np.ones((2, 3)))
        one = Tensor(np.ones(3))
        with pytest.raises(ContractError):
            layer_norm(x, one, one, eps=0.0)


class TestShapeOps:
    def test_reshape_permute_roundtrip(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True, dtype=np.float64)
        y = x.permute(2, 0, 1).reshape(8, 3)
        assert y.shape == (8, 3)
        check_grad(lambda: (x.permute(2, 0, 1).reshape(8, 3) ** 2.0).sum(), [x])

    def test_take_grad_scatters(self):
        x = Tensor(np.arange(10.0), requires_grad=True, dtype=np.float64)
        backward(x[2:5].sum())
        expected = np.zeros(10)
        expected[2:5] = 1
        np.testing.assert_allclose(x.grad, expected)

    def test_concat_and_split_grads(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones((4, 3)), requires_grad=True, dtype=np.float64)
        out = concat([a, b], axis=0)
        assert out.shape == (6, 3)
        backward((out * 2.0).sum())
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((4, 3), 2.0))

    def test_gather_rows_accumulates_repeats(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True, dtype=np.float64)
        out = gather_rows(table, [0, 0, 2])
        np.testing.assert_allclose(out.data, [[0, 1], [0, 1], [4, 5]])
        backward(out.sum())
        np.testing.assert_allclose(table.grad, [[2, 2], [0, 0], [1, 1]])

    def test_gather_rows_bounds(self):
        with pytest.raises(DimensionError):
            gather_rows(Tensor(np.ones((2, 2))), [3])

    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 5))
        t = Tensor(x, dtype=np.float64)
        np.testing.assert_allclose(t.sum().item(), x.sum())
        np.testing.assert_allclose(t.mean().item(), x.mean())
        np.testing.assert_allclose(t.sum(axis=0).data, x.sum(axis=0))
        np.testing.assert_allclose(t.mean(axis=1).data, x.mean(axis=1))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        hnp.arrays(
            st.sampled_from([np.float32, np.float64]),
            hnp.array_shapes(min_dims=2, max_dims=3, max_side=6),
            elements=st.floats(allow_nan=True, allow_infinity=True, width=32),
        ),
        st.sampled_from([None, 0, 1, -1]),
        st.booleans(),
    )
    @example(np.array([[np.inf, 1.0], [np.nan, 2.0], [-np.inf, np.inf]], dtype=np.float32), 1, True)
    @example(np.array([[1e30, 1e30, -1e30], [3.0, 0.1, 0.2]], dtype=np.float64), -1, False)
    def test_mean_equals_ndarray_mean_byte_for_byte(self, x, axis, keepdims):
        with np.errstate(all="ignore"):
            expected = np.asarray(x.mean(axis=axis, keepdims=keepdims))
            got = _mean(x, axis, keepdims)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_reduction_gradients(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
        check_grad(lambda: ((x.mean(axis=0) * x.sum(axis=0)) ** 2.0).sum(), [x])


class TestBackward:
    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            backward(x * 2.0)

    def test_grad_accumulates_across_calls(self):
        x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        backward((x * 3.0).sum())
        backward((x * 3.0).sum())
        np.testing.assert_allclose(x.grad, [6.0])

    def test_graph_released_after_backward(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 2.0).sum()
        assert y._parents
        backward(y)
        assert y._parents == () and y._grad_fn is None

    def test_diamond_graph_sums_paths(self):
        # loss = x*x + x*x through two distinct intermediate nodes
        x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        a = x * x
        b = x * x
        backward((a + b).sum())
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._grad_fn is None and not y.requires_grad

    def test_values_finite_after_model_style_chain(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((6, 6)), dtype=np.float32)
        y = softmax(x @ x.T, axis=1) @ x
        y = layer_norm(y, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        assert np.all(np.isfinite(y.gelu().sigmoid().data))

    def test_grads_land_on_trainable_leaves_only(self):
        x = Tensor(np.ones((2, 3)))  # a constant input
        w = Tensor(np.full((3, 2), 0.5), requires_grad=True)
        frozen = Tensor(np.full((2,), 2.0))  # a weight that does not train
        h = linear(x, w, frozen)
        backward((h * h).sum())
        assert w.grad is not None
        assert h.grad is None and frozen.grad is None and x.grad is None

    def test_closures_skip_inputs_that_need_no_gradient(self):
        rng = np.random.default_rng(5)
        const = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        gain = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4))
        for out, needed in [
            (const @ w, (False, True)),
            (linear(const, w, bias), (False, True, False)),
            (layer_norm(const @ w, gain, bias), (True, True, False)),
            (const * (const @ w), (False, True)),
            (const / (const @ w), (False, True)),
            ((const @ w) - const, (True, False)),
            (concat([const, const @ w], axis=0), (False, True)),
        ]:
            grads = out._grad_fn(np.ones(out.shape, dtype=np.float32))
            assert tuple(pg is not None for pg in grads) == needed
