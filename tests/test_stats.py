import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from segadapt.errors import ValidationError
from segadapt.stats import paired_t_test, student_t_two_sided_p


class TestIncompleteBeta:
    def test_t_cdf_matches_scipy(self):
        for dof in (1, 2, 5, 30, 199):
            for t in (-7.2, -1.0, -0.1, 0.0, 0.4, 3.3, 12.0):
                expected = 2 * scipy.stats.t.sf(abs(t), dof)
                assert student_t_two_sided_p(t, dof) == pytest.approx(expected, abs=1e-10)


class TestPairedTTest:
    def test_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 8, 40, 200):
            a = rng.normal(0.6, 0.1, size=n)
            b = a + rng.normal(0.02, 0.05, size=n)
            res = paired_t_test(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert res.statistic == pytest.approx(ref.statistic, rel=1e-9)
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-6)
            assert res.dof == n - 1
            assert not res.degenerate

    def test_identical_samples_give_p_one(self):
        a = [0.3, 0.5, 0.9, 0.1]
        res = paired_t_test(a, a)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.degenerate

    def test_constant_nonzero_shift_gives_p_zero(self):
        # dyadic values keep the shift exact, so the differences have
        # exactly zero variance
        a = np.array([0.25, 0.5, 0.75])
        res = paired_t_test(a + 0.125, a)
        assert res.p_value == 0.0
        assert math.isinf(res.statistic) and res.statistic > 0
        assert res.degenerate

    def test_antisymmetry(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.statistic == pytest.approx(-rev.statistic)
        assert fwd.p_value == pytest.approx(rev.p_value)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValidationError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_differences_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            paired_t_test([0.1, bad, 0.4], [0.2, 0.3, 0.5])

    def test_tail_matches_scipy_at_large_dof_and_extreme_t(self):
        for dof, t in ((10**6, 2.0), (10**6, 0.3), (3, 1e-8), (7, 40.0), (1, 1e6), (5, math.inf)):
            expected = 2 * scipy.stats.t.sf(abs(t), dof)
            assert student_t_two_sided_p(t, dof) == pytest.approx(expected, rel=1e-12, abs=1e-300)
            assert student_t_two_sided_p(-t, dof) == student_t_two_sided_p(t, dof)

    def test_dof_below_one_rejected(self):
        with pytest.raises(ValidationError, match="degrees of freedom"):
            student_t_two_sided_p(1.0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=24),
        st.integers(0, 2**32 - 1),
    )
    def test_p_value_in_unit_interval(self, diffs, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=len(diffs))
        res = paired_t_test(base + np.asarray(diffs), base)
        assert 0.0 <= res.p_value <= 1.0
