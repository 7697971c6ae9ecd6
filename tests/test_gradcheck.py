import numpy as np
import pytest

from segadapt import Init, ParameterRegistry, finite_diff_check
from segadapt.errors import ContractError


def quadratic_registry():
    reg = ParameterRegistry(dtype=np.float64)
    reg.add("w", (5,), Init.normal(1.0))
    reg.initialize(seed=3)
    return reg


class TestFiniteDiffCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        reg = quadratic_registry()
        err = finite_diff_check(lambda: (reg.get("w") ** 2.0).sum(), reg, eps=1e-5)
        assert err <= 1e-8

    def test_nonlinear_composite_below_tolerance(self):
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("x", (4, 2), Init.normal(0.5))
        reg.add("w", (2, 3), Init.normal(0.5))
        reg.add("b", (3,), Init.normal(0.5))
        reg.initialize(seed=4)

        def f():
            from segadapt.tensor import linear

            h = linear(reg.get("x"), reg.get("w"), reg.get("b")).gelu()
            return (h.softmax(axis=1) * h.sigmoid()).sum()

        assert finite_diff_check(f, reg, eps=1e-5) <= 1e-6

    def test_detached_path_is_flagged_as_wrong_gradient(self):
        # f computes w*w but the analytic graph only sees one factor, a
        # planted 2x error that the checker must catch.
        reg = quadratic_registry()
        w = reg.get("w")

        def f():
            from segadapt.tensor import Tensor

            return (w * Tensor(w.data.copy(), dtype=np.float64)).sum()

        err = finite_diff_check(f, reg, eps=1e-5)
        assert err > 0.4

    def test_constant_function_reports_zero(self):
        reg = quadratic_registry()
        from segadapt.tensor import Tensor

        err = finite_diff_check(lambda: Tensor(np.asarray(2.5, dtype=np.float64)), reg)
        assert err == 0.0

    def test_float32_registry_rejected(self):
        reg = ParameterRegistry(dtype=np.float32)
        reg.add("w", (2,), Init.normal(1.0))
        reg.initialize(seed=0)
        with pytest.raises(ContractError, match="float64"):
            finite_diff_check(lambda: (reg.get("w") ** 2.0).sum(), reg)

    def test_eps_bounds_enforced(self):
        reg = quadratic_registry()
        for eps in (1e-8, 1e-2):
            with pytest.raises(ContractError, match="eps"):
                finite_diff_check(lambda: (reg.get("w") ** 2.0).sum(), reg, eps=eps)

    def test_nondeterministic_f_rejected(self):
        reg = quadratic_registry()
        counter = {"n": 0}

        def f():
            counter["n"] += 1
            return (reg.get("w") ** 2.0).sum() * float(counter["n"])

        with pytest.raises(ContractError, match="deterministic"):
            finite_diff_check(f, reg)
