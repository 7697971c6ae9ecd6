import numpy as np
import pytest

from segadapt import AdamWState, Init, ParameterRegistry, adamw_step, backward
from segadapt.errors import ContractError


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

    def test_fill_missing_grads(self):
        reg = make_registry(["alpha.weight", "beta.bias", "gamma.embed"])
        reg.fill_missing_grads()
        assert all(p.tensor.grad is not None for p in reg.trainable_parameters())
        assert np.all(reg.get("beta.bias").grad == 0)


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
