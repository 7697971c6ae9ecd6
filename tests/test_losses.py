import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segadapt import Init, ParameterRegistry, Tensor, backward, finite_diff_check
from segadapt.errors import DimensionError, ValidationError
from segadapt.losses import (
    LossConfig,
    compute_iou,
    confident_entropy_loss,
    cross_entropy_loss,
    dice_loss,
    focal_loss,
    iou_match_loss,
    mask_from_logits,
    proximity_loss,
    slice_contrastive_loss,
    supervised_loss,
    weighted_sum,
)


def rand_case(seed, shape=(6, 6)):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 2, size=shape)
    target = (rng.random(shape) > 0.5).astype(np.float64)
    return logits, target


class TestComputeIoU:
    def test_hand_cases(self):
        a = np.array([[1, 1], [0, 0]], dtype=bool)
        b = np.array([[1, 0], [1, 0]], dtype=bool)
        assert compute_iou(a, b) == pytest.approx(1 / 3)
        assert compute_iou(a, a) == 1.0
        assert compute_iou(a, ~a) == 0.0

    def test_both_empty_is_one(self):
        z = np.zeros((4, 4), dtype=bool)
        assert compute_iou(z, z) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random((5, 5)) > 0.6
            b = rng.random((5, 5)) > 0.4
            assert compute_iou(a, b) == pytest.approx(compute_iou(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            compute_iou(np.zeros((2, 2)), np.zeros((3, 3)))


class TestDice:
    def test_matches_numpy_oracle(self):
        logits, target = rand_case(1)
        p = 1 / (1 + np.exp(-logits))
        smooth = 1.0
        expected = 1 - (2 * (p * target).sum() + smooth) / (p.sum() + target.sum() + smooth)
        got = dice_loss(Tensor(logits, dtype=np.float64), target).item()
        assert got == pytest.approx(expected, rel=1e-10)

    def test_perfect_prediction_near_zero(self):
        target = (np.random.default_rng(2).random((8, 8)) > 0.5).astype(np.float64)
        logits = (target * 2 - 1) * 40.0
        assert dice_loss(Tensor(logits, dtype=np.float64), target).item() <= 1e-3

    def test_complete_miss_near_one(self):
        target = np.zeros((8, 8))
        target[:4] = 1.0
        logits = (1 - target) * 80.0 - 40.0
        assert dice_loss(Tensor(logits, dtype=np.float64), target).item() > 0.95

    def test_gradient(self):
        logits, target = rand_case(3, shape=(4, 4))
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("logits", (4, 4), Init.zeros())
        reg.initialize(seed=0)
        reg.get("logits").data = logits.copy()
        err = finite_diff_check(lambda: dice_loss(reg.get("logits"), target), reg)
        assert err <= 1e-6


class TestCrossEntropy:
    def test_uniform_probability_gives_ln2(self):
        target = (np.random.default_rng(4).random((5, 5)) > 0.5).astype(np.float64)
        loss = cross_entropy_loss(Tensor(np.zeros((5, 5)), dtype=np.float64), target)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_numpy_oracle(self):
        logits, target = rand_case(5)
        p = 1 / (1 + np.exp(-logits))
        expected = -(target * np.log(p) + (1 - target) * np.log(1 - p)).mean()
        got = cross_entropy_loss(Tensor(logits, dtype=np.float64), target).item()
        assert got == pytest.approx(expected, rel=1e-9)

    def test_saturated_logits_stay_finite(self):
        target = np.ones((3, 3))
        loss = cross_entropy_loss(Tensor(np.full((3, 3), -500.0), dtype=np.float64), target)
        assert np.isfinite(loss.item())

    def test_gradient(self):
        logits, target = rand_case(6, shape=(3, 5))
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("logits", (3, 5), Init.zeros())
        reg.initialize(seed=0)
        reg.get("logits").data = logits.copy()
        err = finite_diff_check(lambda: cross_entropy_loss(reg.get("logits"), target), reg)
        assert err <= 1e-6


class TestFocal:
    def test_gamma_zero_equals_cross_entropy(self):
        logits, target = rand_case(7)
        t = Tensor(logits, dtype=np.float64)
        assert focal_loss(t, target, gamma=0.0).item() == pytest.approx(
            cross_entropy_loss(t, target).item(), abs=1e-9
        )

    def test_half_probability_with_gamma_two(self):
        # single pixel at p_t = 0.5: (1 - 0.5)^2 * ln 2
        loss = focal_loss(Tensor(np.zeros((1, 1)), dtype=np.float64), np.ones((1, 1)), gamma=2.0)
        assert loss.item() == pytest.approx(0.25 * math.log(2), abs=1e-12)

    def test_downweights_easy_pixels(self):
        target = np.ones((4, 4))
        easy = Tensor(np.full((4, 4), 5.0), dtype=np.float64)
        ce = cross_entropy_loss(easy, target).item()
        fl = focal_loss(easy, target, gamma=2.0).item()
        assert fl < ce

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValidationError):
            focal_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 2)), gamma=-1.0)

    def test_gradient(self):
        logits, target = rand_case(8, shape=(4, 3))
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("logits", (4, 3), Init.zeros())
        reg.initialize(seed=0)
        reg.get("logits").data = logits.copy()
        err = finite_diff_check(
            lambda: focal_loss(reg.get("logits"), target, gamma=2.0), reg
        )
        assert err <= 1e-6


class TestMaskFromLogits:
    def test_zero_logit_is_foreground(self):
        logits = np.array([-1.0, -1e-30, 0.0, 1e-30, 1.0], dtype=np.float32)
        assert mask_from_logits(logits).tolist() == [False, False, True, True, True]

    def test_saturated_logits(self):
        logits = np.array([-1e4, 1e4])
        assert mask_from_logits(logits).tolist() == [False, True]


class TestWeightedSum:
    def test_no_terms_is_none(self):
        term = Tensor(np.asarray(2.0))
        assert weighted_sum([]) is None
        assert weighted_sum([(0.0, term), (0.0, term)]) is None

    def test_zero_weights_dropped(self):
        a, b = Tensor(np.asarray(2.0)), Tensor(np.asarray(5.0))
        assert weighted_sum([(0.0, a), (3.0, b)]).item() == 15.0
        assert weighted_sum([(0.5, a), (0.0, b)]).item() == 1.0


class TestIoUMatch:
    def test_zero_when_prediction_matches(self):
        logits, target = rand_case(9)
        with np.errstate(over="ignore"):
            actual = compute_iou(1 / (1 + np.exp(-logits)) >= 0.5, target >= 0.5)
        loss = iou_match_loss(Tensor(np.asarray(actual)), Tensor(logits), target)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_squared_error_form(self):
        target = np.ones((2, 2))
        logits = Tensor(np.full((2, 2), 10.0), dtype=np.float64)
        loss = iou_match_loss(Tensor(np.asarray(0.25)), logits, target)
        assert loss.item() == pytest.approx((0.25 - 1.0) ** 2)

    def test_gradient_reaches_head_only(self):
        logits = Tensor(rand_case(10)[0], requires_grad=True, dtype=np.float64)
        iou_pred = Tensor(np.asarray(0.5), requires_grad=True, dtype=np.float64)
        backward(iou_match_loss(iou_pred, logits, np.ones(logits.shape)))
        assert iou_pred.grad is not None
        assert logits.grad is None


class TestSupervised:
    def test_weighted_sum_of_components(self):
        logits, target = rand_case(11)
        t = Tensor(logits, dtype=np.float64)
        iou_pred = Tensor(np.asarray(0.4), dtype=np.float64)
        cfg = LossConfig(dice_weight=0.8, ce_weight=0.2, iou_weight=1.0)
        total, parts = supervised_loss(t, iou_pred, target, cfg)
        expected = 0.8 * parts["dice"] + 0.2 * parts["cross_entropy"] + parts["iou_match"]
        assert total.item() == pytest.approx(expected, rel=1e-9)
        assert parts["total"] == pytest.approx(expected, rel=1e-9)

    def test_zero_weights_drop_terms(self):
        logits, target = rand_case(12)
        t = Tensor(logits, dtype=np.float64)
        iou_pred = Tensor(np.asarray(0.4), dtype=np.float64)
        cfg = LossConfig(dice_weight=0.0, ce_weight=0.0, iou_weight=1.0)
        total, parts = supervised_loss(t, iou_pred, target, cfg)
        assert total.item() == pytest.approx(parts["iou_match"], rel=1e-12)


class TestConfidentEntropy:
    def test_matches_sort_oracle(self):
        logits, _ = rand_case(13, shape=(8, 8))
        p = 1 / (1 + np.exp(-logits))
        h = -(p * np.log(p) + (1 - p) * np.log(1 - p)).ravel()
        k = math.ceil(0.7 * h.size)
        expected = np.sort(h)[:k].mean()
        got = confident_entropy_loss(Tensor(logits, dtype=np.float64), fraction=0.7)
        assert got.item() == pytest.approx(expected, rel=1e-9)

    def test_fraction_one_is_plain_mean(self):
        logits, _ = rand_case(14)
        p = 1 / (1 + np.exp(-logits))
        expected = -(p * np.log(p) + (1 - p) * np.log(1 - p)).mean()
        got = confident_entropy_loss(Tensor(logits, dtype=np.float64), fraction=1.0)
        assert got.item() == pytest.approx(expected, rel=1e-9)

    def test_gradient_zero_outside_selection(self):
        logits = np.array([[0.01, 4.0], [-3.5, 0.02]])  # two confident, two uncertain
        t = Tensor(logits, requires_grad=True, dtype=np.float64)
        backward(confident_entropy_loss(t, fraction=0.5))
        assert t.grad[0, 1] != 0 and t.grad[1, 0] != 0
        assert t.grad[0, 0] == 0 and t.grad[1, 1] == 0

    def test_value_within_binary_entropy_range(self):
        logits, _ = rand_case(15)
        value = confident_entropy_loss(Tensor(logits, dtype=np.float64), fraction=0.7).item()
        assert 0.0 <= value <= math.log(2)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValidationError):
            confident_entropy_loss(Tensor(np.zeros((2, 2))), fraction=0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_entropy_bound_property(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 4, size=(5, 5))
        value = confident_entropy_loss(Tensor(logits, dtype=np.float64), fraction=0.7).item()
        assert 0.0 <= value <= math.log(2) + 1e-12


class TestProximity:
    def test_equals_focal_plus_dice_on_pseudo_target(self):
        logits, _ = rand_case(16)
        snapshot = rand_case(17)[0]
        pseudo = (snapshot >= 0).astype(np.float64)
        t = Tensor(logits, dtype=np.float64)
        expected = focal_loss(t, pseudo, gamma=2.0).item() + dice_loss(t, pseudo).item()
        assert proximity_loss(t, snapshot).item() == pytest.approx(expected, rel=1e-9)

    def test_near_zero_at_snapshot(self):
        initial = np.zeros((6, 6))
        initial[2:4, 2:4] = 1.0
        logits = (initial * 2 - 1) * 40.0
        assert proximity_loss(Tensor(logits, dtype=np.float64), logits).item() < 1e-2


class TestSharedSigmoid:
    """A pair of terms on the same logits computes their sigmoid once."""

    @pytest.mark.parametrize(
        "pair",
        [
            lambda z, t: proximity_loss(z, t),
            lambda z, t: supervised_loss(z, Tensor(np.asarray(0.4)), t > 0.5),
        ],
        ids=["proximity", "supervised"],
    )
    def test_one_sigmoid_per_pair(self, monkeypatch, pair):
        import segadapt.losses as losses

        calls = []
        real = losses._sigmoid_forward
        monkeypatch.setattr(losses, "_sigmoid_forward", lambda x: calls.append(x) or real(x))
        logits, target = rand_case(18)
        pair(Tensor(logits, dtype=np.float64, requires_grad=True), target)
        assert len(calls) == 1


class TestSliceContrastive:
    def test_two_candidate_closed_form(self):
        # anchor == positive, orthogonal negative, temperature 1:
        # loss = -log(e / (e + 1))
        anchor = Tensor(np.array([1.0, 0.0]), dtype=np.float64)
        loss = slice_contrastive_loss(
            anchor, np.array([2.0, 0.0]), [np.array([0.0, 3.0])], temperature=1.0
        )
        assert loss.item() == pytest.approx(-math.log(math.e / (math.e + 1)), rel=1e-12)

    def test_pulls_toward_positive(self):
        rng = np.random.default_rng(18)
        pos = rng.normal(size=8)
        neg = rng.normal(size=8)
        near = slice_contrastive_loss(Tensor(pos * 2), pos, [neg]).item()
        far = slice_contrastive_loss(Tensor(neg * 2), pos, [neg]).item()
        assert near < far

    def test_scale_invariance_of_anchor(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=6)
        pos = rng.normal(size=6)
        neg = rng.normal(size=6)
        l1 = slice_contrastive_loss(Tensor(a, dtype=np.float64), pos, [neg]).item()
        l2 = slice_contrastive_loss(Tensor(a * 7, dtype=np.float64), pos, [neg]).item()
        assert l1 == pytest.approx(l2, rel=1e-9)

    def test_zero_norm_anchor_rejected(self):
        with pytest.raises(ValidationError):
            slice_contrastive_loss(Tensor(np.zeros(4)), np.ones(4), [np.ones(4)])

    def test_no_negatives_rejected(self):
        with pytest.raises(ValidationError):
            slice_contrastive_loss(Tensor(np.ones(4)), np.ones(4), [])

    def test_gradient(self):
        rng = np.random.default_rng(20)
        pos = rng.normal(size=5)
        negs = [rng.normal(size=5) for _ in range(3)]
        reg = ParameterRegistry(dtype=np.float64)
        reg.add("anchor", (5,), Init.normal(1.0))
        reg.initialize(seed=21)
        err = finite_diff_check(
            lambda: slice_contrastive_loss(reg.get("anchor"), pos, negs), reg
        )
        assert err <= 1e-6
