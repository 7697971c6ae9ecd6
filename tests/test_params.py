import numpy as np
import pytest

from segadapt import AdamWState, Init, ParameterRegistry, adamw_step, backward
from segadapt.checkpoint import dump_bytes, restore
from segadapt.config import default_config
from segadapt.engine import attach_method
from segadapt.errors import ContractError, ValidationError
from segadapt.model import SegmentationModel
from segadapt.params import BUCKET_ELEMENTS, _bound


def make_registry(order):
    reg = ParameterRegistry(dtype=np.float64)
    specs = {
        "alpha.weight": ((4, 3), Init.lecun()),
        "beta.bias": ((3,), Init.zeros()),
        "gamma.embed": ((5, 2), Init.normal(0.02)),
    }
    for name in order:
        shape, init = specs[name]
        reg.add(name, shape, init)
    reg.initialize(seed=123)
    return reg


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = ParameterRegistry()
        reg.add("w", (2,), Init.zeros())
        with pytest.raises(ContractError, match="duplicate"):
            reg.add("w", (2,), Init.zeros())

    def test_unknown_name_rejected(self):
        with pytest.raises(ContractError, match="unknown"):
            ParameterRegistry().get("nope")

    def test_init_independent_of_declaration_order(self):
        a = make_registry(["alpha.weight", "beta.bias", "gamma.embed"])
        b = make_registry(["gamma.embed", "alpha.weight", "beta.bias"])
        for name in a.names():
            np.testing.assert_array_equal(a.get(name).data, b.get(name).data)

    def test_seed_controls_values(self):
        a = make_registry(["alpha.weight", "beta.bias", "gamma.embed"])
        b = make_registry(["alpha.weight", "beta.bias", "gamma.embed"])
        b.initialize(seed=124)
        assert not np.array_equal(a.get("alpha.weight").data, b.get("alpha.weight").data)

    def test_negative_seed_rejected_before_any_write(self):
        reg = make_registry(["alpha.weight", "beta.bias", "gamma.embed"])
        before = dump_bytes(reg)
        with pytest.raises(ValidationError, match="seed"):
            reg.initialize(seed=-1)
        assert dump_bytes(reg) == before

    @pytest.mark.parametrize(
        "seed, only, error",
        [
            (0, None, ContractError),  # "b" cannot be an identity; "a" sorts first
            (0, ["a", "zzz"], ContractError),
            (1.5, None, ValidationError),
            (True, None, ValidationError),
            ("0", None, ValidationError),
            (None, None, ValidationError),
        ],
    )
    def test_refused_initialize_changes_nothing(self, seed, only, error):
        reg = ParameterRegistry()
        reg.add("a", (4,), Init.normal(1.0))
        reg.add("b", (2, 3), Init.identity())
        before = dump_bytes(reg)
        with pytest.raises(error):
            reg.initialize(seed, only=only)
        assert dump_bytes(reg) == before

    def test_unknown_init_kind_refused_before_any_draw(self):
        reg = ParameterRegistry()
        reg.add("a", (4,), Init.normal(1.0))
        reg.add("b", (3,), Init("uniform"))
        before = dump_bytes(reg)
        with pytest.raises(ContractError, match="unknown init kind 'uniform'"):
            reg.initialize(0)
        assert dump_bytes(reg) == before

    def test_identity_init(self):
        reg = ParameterRegistry()
        reg.add("mix", (3, 3), Init.identity())
        reg.initialize(seed=0)
        np.testing.assert_array_equal(reg.get("mix").data, np.eye(3, dtype=np.float32))
        with pytest.raises(ContractError):
            reg2 = ParameterRegistry()
            reg2.add("bad", (2, 3), Init.identity())
            reg2.initialize(seed=0)

    def test_param_count_and_trainable_filter(self):
        reg = make_registry(["alpha.weight", "beta.bias", "gamma.embed"])
        assert reg.param_count() == 12 + 3 + 10
        reg.set_trainable(lambda name: name.startswith("alpha."))
        assert reg.param_count(trainable_only=True) == 12
        assert not reg.get("beta.bias").requires_grad

    def test_initialize_writes_into_each_declared_array(self):
        reg = make_registry(["alpha.weight", "beta.bias", "gamma.embed"])
        arrays, before = {name: reg.get(name).data for name in reg.names()}, dump_bytes(reg)
        reg.initialize(seed=124)
        assert all(reg.get(name).data is array for name, array in arrays.items())
        assert dump_bytes(reg) != before

    def test_trainability_is_the_tensor_flag(self):
        reg = make_registry(["alpha.weight", "beta.bias"])
        reg.set_trainable(lambda name: name == "beta.bias")
        assert [(p.trainable, p.tensor.requires_grad) for p in reg.parameters()] == [(False, False), (True, True)]
        with pytest.raises(AttributeError):
            reg.param("alpha.weight").trainable = True

    def test_fill_missing_grads(self):
        reg = make_registry(["alpha.weight", "beta.bias", "gamma.embed"])
        reg.fill_missing_grads()
        assert all(p.tensor.grad is not None for p in reg.trainable_parameters())
        assert np.all(reg.get("beta.bias").grad == 0)


    def test_expected_shapes_refuse_before_anything_is_added(self):
        reg = ParameterRegistry(expected={"alpha.weight": (3, 4), "beta": (3, 4)})
        reg.add("alpha.weight", (3, 4), Init.zeros())
        with pytest.raises(ContractError, match=r"shape mismatch for 'beta': checkpoint \(3, 4\), registry \(4, 3\)"):
            reg.add("beta", (4, 3), Init.zeros())
        with pytest.raises(ContractError, match=r"missing \['gamma'\]"):
            reg.add("gamma", (2**40,), Init.zeros())  # refused before its zeros are allocated
        assert reg.names() == ["alpha.weight"]
        reg.expected = None
        reg.add("gamma", (2,), Init.zeros())  # without an expectation anything goes


def adamw_oracle(w0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
    """Reference recurrence, plain python floats."""
    w = float(w0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        w = w - lr * wd * w
        w = w - lr * mhat / (vhat**0.5 + eps)
    return w


class TestAdamW:
    def _scalar_registry(self, value=0.0):
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("w", (), Init.constant(value))
        reg.initialize(seed=0)
        return reg

    def test_single_step_matches_hand_recurrence(self):
        reg = self._scalar_registry(0.0)
        state = AdamWState(lr=0.1)
        reg.get("w").grad = np.asarray(1.0)
        adamw_step(reg, state)
        expected = adamw_oracle(0.0, [1.0], lr=0.1)
        assert float(reg.get("w").data) == pytest.approx(expected, abs=1e-15)
        assert float(reg.get("w").data) == pytest.approx(-0.1, abs=1e-8)

    def test_multi_step_with_decay_matches_oracle(self):
        grads = [0.5, -1.25, 2.0, 0.0, 0.3]
        reg = self._scalar_registry(0.7)
        state = AdamWState(lr=0.05, weight_decay=0.1)
        for g in grads:
            reg.get("w").grad = np.asarray(g)
            adamw_step(reg, state)
        expected = adamw_oracle(0.7, grads, lr=0.05, wd=0.1)
        assert float(reg.get("w").data) == pytest.approx(expected, rel=1e-12)

    def test_lr_zero_is_noop_even_with_decay(self):
        reg = self._scalar_registry(0.7)
        state = AdamWState(lr=0.0, weight_decay=0.5)
        reg.get("w").grad = np.asarray(3.0)
        adamw_step(reg, state)
        assert float(reg.get("w").data) == 0.7

    def test_zero_grad_no_decay_leaves_params(self):
        reg = self._scalar_registry(0.7)
        state = AdamWState(lr=0.1)
        reg.get("w").grad = np.asarray(0.0)
        adamw_step(reg, state)
        assert float(reg.get("w").data) == 0.7

    def test_zero_grad_with_decay_shrinks_weights(self):
        reg = self._scalar_registry(2.0)
        state = AdamWState(lr=0.1, weight_decay=0.25)
        reg.get("w").grad = np.asarray(0.0)
        adamw_step(reg, state)
        assert float(reg.get("w").data) == pytest.approx(2.0 - 0.1 * 0.25 * 2.0, abs=1e-15)

    def test_missing_grad_names_parameter(self):
        reg = self._scalar_registry()
        with pytest.raises(ContractError, match="'w'"):
            adamw_step(reg, AdamWState(lr=0.1))

    def test_frozen_params_untouched_and_grads_cleared(self):
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("a", (2,), Init.constant(1.0))
        reg.add("b", (2,), Init.constant(1.0))
        reg.initialize(seed=0)
        reg.set_trainable(lambda n: n == "a")
        reg.get("a").grad = np.ones(2)
        adamw_step(reg, AdamWState(lr=0.1))
        np.testing.assert_array_equal(reg.get("b").data, [1.0, 1.0])
        assert reg.get("a").grad is None
        assert not np.array_equal(reg.get("a").data, [1.0, 1.0])

    def test_trains_a_quadratic_to_minimum(self):
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("w", (3,), Init.constant(4.0))
        reg.initialize(seed=0)
        state = AdamWState(lr=0.2)
        for _ in range(200):
            loss = (reg.get("w") ** 2.0).sum()
            backward(loss)
            adamw_step(reg, state)
        assert float(np.abs(reg.get("w").data).max()) < 1e-2


def model_registry(method):
    cfg = default_config()
    model = SegmentationModel(cfg.model)
    attach_method(model, method, cfg.adapter, cfg.lora)
    return model.registry


def reference_step(weights, grads, m, v, step, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter AdamW update, one fresh array per operation."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, g in grads.items():
        w = weights[name]
        m[name] = beta1 * m.get(name, np.zeros_like(w)) + (1.0 - beta1) * g
        v[name] = beta2 * v.get(name, np.zeros_like(w)) + (1.0 - beta2) * (g * g)
        if weight_decay:
            w = w - lr * weight_decay * w
        weights[name] = w - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlatAdamW:
    """The in-place update over flat buffers against ``reference_step``."""

    def _grads(self, reg, rng):
        grads = {}
        for p in reg.trainable_parameters():
            g = np.array(rng.standard_normal(p.tensor.shape) * rng.choice([1e-6, 1.0, 1e3]), dtype=np.float32)
            g.reshape(-1)[:: 7] = 0.0  # exact zeros: no moment, sqrt(0) in the denominator
            grads[p.name] = g
        return grads

    @pytest.mark.parametrize("method", ["sam_da_dec", "full_ft"])
    @pytest.mark.parametrize("lr, weight_decay", [(1e-2, 0.0), (1e-2, 0.05), (0.0, 0.05)])
    def test_bit_identical_to_the_per_parameter_update(self, method, lr, weight_decay):
        reg = model_registry(method)
        trained = [p.name for p in reg.trainable_parameters()]
        weights = {n: reg.get(n).data.copy() for n in trained}
        frozen = {n: reg.get(n).data.copy() for n in reg.names() if n not in weights}
        initial = {n: w.copy() for n, w in weights.items()}
        state = AdamWState(lr=lr, weight_decay=weight_decay)
        m, v = {}, {}
        rng = np.random.default_rng(5)
        for step in range(1, 6):
            grads = self._grads(reg, rng)
            for name, g in grads.items():
                reg.get(name).grad = g
            adamw_step(reg, state)
            reference_step(weights, grads, m, v, step, lr, weight_decay)
            assert all(same_bits(reg.get(n).data, weights[n]) for n in trained)
            assert all(same_bits(state.m[n], m[n]) and same_bits(state.v[n], v[n]) for n in trained)
        assert all(same_bits(reg.get(n).data, frozen[n]) for n in frozen)
        if lr == 0.0:
            assert all(same_bits(reg.get(n).data, initial[n]) for n in trained)

    @pytest.mark.parametrize("rebind", ["restore", "assign"])
    def test_values_rebound_between_steps_are_never_lost(self, rebind):
        reg = model_registry("sam_da_dec")
        trained = [p.name for p in reg.trainable_parameters()]
        weights = {n: reg.get(n).data.copy() for n in trained}
        state = AdamWState(lr=1e-2, weight_decay=0.01)
        m, v = {}, {}
        rng = np.random.default_rng(7)
        for step in range(1, 6):
            if step == 3:  # new values for every other trained parameter
                values = {n: rng.standard_normal(weights[n].shape).astype(np.float32) for n in trained[::2]}
                if rebind == "restore":
                    restore(reg, values, strict=False)
                else:
                    for name, value in values.items():
                        reg.get(name).data = value
                weights.update((n, value.copy()) for n, value in values.items())
            grads = self._grads(reg, rng)
            for name, g in grads.items():
                reg.get(name).grad = g
            adamw_step(reg, state)
            reference_step(weights, grads, m, v, step, 1e-2, 0.01)
            assert all(same_bits(reg.get(n).data, weights[n]) for n in trained)

    def test_a_restore_between_steps_keeps_the_buckets_bound(self):
        reg = model_registry("sam_da_dec")
        params = list(reg.trainable_parameters())
        trained = [p.name for p in params]
        weights = {n: reg.get(n).data.copy() for n in trained}
        state = AdamWState(lr=1e-2, weight_decay=0.01)
        m, v = {}, {}
        rng = np.random.default_rng(11)
        for step in range(1, 6):
            if step == 3:  # new values for every other trained parameter
                buckets, views = state.buckets, [p.tensor.data for p in params]
                values = {n: rng.standard_normal(weights[n].shape).astype(np.float32) for n in trained[::2]}
                restore(reg, values, strict=False)
                weights.update((n, value.copy()) for n, value in values.items())
                assert all(p.tensor.data is view for p, view in zip(params, views))
                assert _bound(state.buckets, params)
            grads = self._grads(reg, rng)
            for name, g in grads.items():
                reg.get(name).grad = g
            adamw_step(reg, state)
            reference_step(weights, grads, m, v, step, 1e-2, 0.01)
            if step >= 3:
                assert state.buckets is buckets
            assert all(same_bits(reg.get(n).data, weights[n]) for n in trained)
            assert all(same_bits(state.m[n], m[n]) and same_bits(state.v[n], v[n]) for n in trained)

    def test_scratch_is_one_bucket_not_the_registry(self):
        reg = model_registry("full_ft")
        rng = np.random.default_rng(0)
        for name, g in self._grads(reg, rng).items():
            reg.get(name).grad = g
        state = AdamWState(lr=1e-3)
        adamw_step(reg, state)
        largest = max(p.tensor.data.size for p in reg.trainable_parameters())
        longest = max(max(bucket.w.size, bucket.m.size, bucket.v.size) for bucket in state.buckets)
        assert state.scratch.shape[1] == longest <= max(BUCKET_ELEMENTS, largest)
        assert 10 * longest < reg.param_count(trainable_only=True)

    def test_gradient_of_another_shape_names_parameter(self):
        reg = make_registry(["alpha.weight", "beta.bias"])
        reg.get("alpha.weight").grad = np.zeros((4, 3))
        reg.get("beta.bias").grad = np.zeros((1, 3))
        with pytest.raises(ContractError, match="'beta.bias'"):
            adamw_step(reg, AdamWState(lr=0.1))
