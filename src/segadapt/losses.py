"""Segmentation losses and the test-time adaptation objectives.

All losses take raw mask logits (a 2-d tensor) and numpy targets; targets are
constants, gradients flow through the logits only unless stated otherwise.

Dice, cross-entropy, focal, confident-entropy and slice-contrastive loss are
each one tape node whose only parent is the differentiable input.  Forward
and backward run the numpy operations of the chain of tensor ops that states
the loss, in the same order and dtypes, and sum the flows into an array that
the chain uses more than once in the order its backward pass would (and add
a negated flow, as the chain does, rather than subtract it): every value and
gradient is bit-identical to that chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, ValidationError
from . import tensor
from .tensor import Tensor, _log_backward, _log_forward, _mean, _sigmoid_forward


@dataclass(frozen=True)
class LossConfig:
    """Weights and knobs for the supervised objective and TTDA terms."""

    dice_weight: float = 0.8
    ce_weight: float = 0.2
    iou_weight: float = 1.0
    dice_smooth: float = 1.0
    focal_gamma: float = 2.0
    confidence_fraction: float = 0.7
    temperature: float = 0.1

    def __post_init__(self):
        if min(self.dice_weight, self.ce_weight, self.iou_weight) < 0:
            raise ValidationError("loss weights must be non-negative")
        if self.dice_smooth < 0:
            raise ValidationError(f"dice_smooth must be >= 0, got {self.dice_smooth}")
        if self.focal_gamma < 0:
            raise ValidationError(f"focal gamma must be >= 0, got {self.focal_gamma}")
        if not 0 < self.confidence_fraction <= 1:
            raise ValidationError(f"confidence_fraction must be in (0, 1], got {self.confidence_fraction}")
        if self.temperature <= 0:
            raise ValidationError(f"temperature must be positive, got {self.temperature}")


def _check_target(logits: Tensor, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target)
    if target.shape != logits.shape:
        raise DimensionError(f"target shape {target.shape} != logits shape {logits.shape}")
    return target.astype(logits.dtype)


def mask_from_logits(logits: np.ndarray) -> np.ndarray:
    """The one binarization rule: a pixel is foreground where its logit is >= 0."""
    return np.asarray(logits) >= 0


def compute_iou(pred_mask: np.ndarray, target_mask: np.ndarray) -> float:
    """Intersection over union of two binary masks; two empty masks match."""
    a = np.asarray(pred_mask).astype(bool)
    b = np.asarray(target_mask).astype(bool)
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def _constant(value, like: Tensor) -> np.ndarray:
    """A Python number as the 0-d array the tensor ops make of it."""
    return np.asarray(value, dtype=like.dtype)


def dice_loss(
    logits: Tensor, target: np.ndarray, smooth: float = 1.0, *, p: np.ndarray | None = None
) -> Tensor:
    """1 - (2 sum(p t) + smooth) / (sum(p) + sum(t) + smooth) at p = sigmoid(logits).

    ``p``, if given, is ``_sigmoid_forward(logits.data)``: a pair of terms on
    the same logits computes it once.
    """
    t = _check_target(logits, target)
    n = logits.data.size
    p = _sigmoid_forward(logits.data.reshape(n)) if p is None else p.reshape(n)
    flat = t.reshape(n)
    two, smooth = _constant(2.0, logits), _constant(smooth, logits)
    num = (p * flat).sum() * two + smooth
    denom = p.sum() + _constant(float(t.sum()), logits) + smooth

    def grad_fn(g):
        g_ratio = -g
        g_denom = -g_ratio * num / (denom * denom)
        g_p = g_ratio / denom * two * flat + g_denom  # the overlap's flow, then the sum's
        return ((g_p * p * (1.0 - p)).reshape(logits.shape),)

    return tensor._node(_constant(1.0, logits) - num / denom, (logits,), grad_fn)


def cross_entropy_loss(logits: Tensor, target: np.ndarray, *, p: np.ndarray | None = None) -> Tensor:
    """Mean of -(t log p + (1 - t) log(1 - p)) at p = sigmoid(logits); ``p``
    as in ``dice_loss``."""
    t = _check_target(logits, target)
    one = _constant(1.0, logits)
    p = _sigmoid_forward(logits.data) if p is None else p
    q, rest = one - p, one - t
    clamped_p, log_p = _log_forward(p)
    clamped_q, log_q = _log_forward(q)
    terms = t * log_p + rest * log_q
    count = terms.size

    def grad_fn(g):
        g_terms = -g / count
        g_p = _log_backward(p, clamped_p, g_terms * t) + -_log_backward(q, clamped_q, g_terms * rest)
        return (g_p * p * (1.0 - p),)

    return tensor._node(-_mean(terms, None, False), (logits,), grad_fn)


def focal_loss(
    logits: Tensor, target: np.ndarray, gamma: float = 2.0, *, p: np.ndarray | None = None
) -> Tensor:
    """Mean of -(1 - p_t)^gamma * log(p_t); gamma = 0 reduces to CE; ``p``
    as in ``dice_loss``."""
    if gamma < 0:
        raise ValidationError(f"focal gamma must be >= 0, got {gamma}")
    t = _check_target(logits, target)
    one = _constant(1.0, logits)
    p = _sigmoid_forward(logits.data) if p is None else p
    rest = one - t
    pt = p * t + (one - p) * rest
    clamped, log_pt = _log_forward(pt)
    c = float(gamma)
    if c == 0:
        terms = log_pt
    else:
        far = one - pt
        weight = far ** c
        terms = weight * log_pt
    count = terms.size

    def grad_fn(g):
        g_terms = -g / count
        g_pt = _log_backward(pt, clamped, g_terms if c == 0 else g_terms * weight)
        if c != 0:
            g_pt = -(g_terms * log_pt * c * far ** (c - 1.0)) + g_pt  # the weight's flow first
        g_p = g_pt * t + -(g_pt * rest)
        return (g_p * p * (1.0 - p),)

    return tensor._node(-_mean(terms, None, False), (logits,), grad_fn)


def iou_match_loss(iou_pred: Tensor, logits: Tensor, target: np.ndarray) -> Tensor:
    """Squared error between the predicted IoU and the IoU actually achieved.

    The achieved IoU (of the binarized prediction) is treated as a constant,
    so gradients reach the IoU head only.
    """
    if iou_pred.data.size != 1:
        raise DimensionError(f"iou_pred must be scalar, got shape {iou_pred.shape}")
    t = _check_target(logits, target)
    actual = compute_iou(mask_from_logits(logits.data), t >= 0.5)
    return (iou_pred - actual) ** 2.0


def weighted_sum(terms: Iterable[tuple[float, Tensor]]) -> Tensor | None:
    """Left fold of ``term * weight`` over (weight, term) pairs.

    Zero-weight terms are dropped; None when no term remains.
    """
    total = None
    for weight, term in terms:
        if weight != 0.0:
            scaled = term * weight
            total = scaled if total is None else total + scaled
    return total


def supervised_loss(
    logits: Tensor,
    iou_pred: Tensor,
    target: np.ndarray,
    cfg: LossConfig = LossConfig(),
) -> tuple[Tensor, dict[str, float]]:
    """Weighted dice + cross-entropy + IoU-match total; zero weights drop terms."""
    p = _sigmoid_forward(logits.data)
    terms = {
        "dice": (cfg.dice_weight, dice_loss(logits, target, smooth=cfg.dice_smooth, p=p)),
        "cross_entropy": (cfg.ce_weight, cross_entropy_loss(logits, target, p=p)),
        "iou_match": (cfg.iou_weight, iou_match_loss(iou_pred, logits, target)),
    }
    parts = {name: term.item() for name, (_, term) in terms.items()}
    total = weighted_sum(terms.values())
    if total is None:
        total = Tensor(np.asarray(0.0, dtype=logits.dtype))
    parts["total"] = total.item()
    return total, parts


def confident_entropy_loss(logits: Tensor, fraction: float = 0.7) -> Tensor:
    """Mean binary entropy over the lowest-entropy ``fraction`` of pixels.

    The selection mask is computed from current values and held constant, so
    gradients flow only through the selected pixels.  Per-pixel entropy lies
    in [0, ln 2].

    Entropy is evaluated in logit space, H(z) = log(1+e^-|z|) + |z|/(1+e^|z|),
    which equals -p log p - (1-p) log(1-p) at p = sigmoid(z) but stays exact
    and differentiable for saturated logits where the sigmoid itself rounds
    to 0 or 1.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"confidence fraction must be in (0, 1], got {fraction}")
    n = logits.data.size
    z = logits.data.reshape(n)
    # |z| via a constant sign mask; d|z|/dz = sign(z) almost everywhere
    sign = np.where(z >= 0, 1.0, -1.0).astype(logits.dtype)
    magnitude = z * sign
    decay = np.exp(-magnitude)  # e^-|z| in (0, 1]
    grown = decay + _constant(1.0, logits)
    clamped, log_grown = _log_forward(grown)
    product = magnitude * decay
    entropy = log_grown + product / grown
    k = min(n, max(1, math.ceil(fraction * n)))
    order = np.argpartition(entropy, k - 1)[:k]
    mask = np.zeros(n, dtype=logits.dtype)
    mask[order] = 1.0
    count = _constant(float(k), logits)

    def grad_fn(g):
        g_entropy = g / count * mask
        g_product = g_entropy / grown
        # decay feeds the log, the product and the quotient's denominator
        g_decay = (
            _log_backward(grown, clamped, g_entropy)
            + g_product * magnitude
            + -g_entropy * product / (grown * grown)
        )
        g_magnitude = g_product * decay + -(g_decay * decay)  # the product's flow first
        return ((g_magnitude * sign).reshape(logits.shape),)

    return tensor._node((entropy * mask).sum() / count, (logits,), grad_fn)


def proximity_loss(
    logits: Tensor,
    snapshot_logits: np.ndarray,
    gamma: float = 2.0,
    smooth: float = 1.0,
) -> Tensor:
    """Focal + dice against the binarized snapshot prediction.

    Anchors adapted predictions to the pre-adaptation output; the snapshot is
    a constant.
    """
    pseudo = mask_from_logits(snapshot_logits).astype(logits.dtype)
    p = _sigmoid_forward(logits.data)
    return focal_loss(logits, pseudo, gamma=gamma, p=p) + dice_loss(logits, pseudo, smooth=smooth, p=p)


def _unit_vector(v: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValidationError(f"{what} embedding has zero norm")
    return v / norm


def _reference(other, anchor: Tensor) -> np.ndarray:
    data = other.data if isinstance(other, Tensor) else other
    ref = _unit_vector(data, "reference").astype(anchor.dtype)
    if ref.shape != anchor.shape:
        raise DimensionError(f"embedding shape {ref.shape} != anchor {anchor.shape}")
    return ref


def slice_contrastive_loss(
    anchor: Tensor,
    positive,
    negatives,
    temperature: float = 0.1,
) -> Tensor:
    """InfoNCE over pooled slice embeddings.

    The anchor keeps its graph; positive/negative embeddings are constants
    (numpy arrays or detached tensors).  All embeddings are L2-normalized
    before the dot products.
    """
    if temperature <= 0:
        raise ValidationError(f"temperature must be positive, got {temperature}")
    negatives = list(negatives)
    if not negatives:
        raise ValidationError("contrastive loss needs at least one negative")
    if anchor.data.ndim != 1:
        raise DimensionError(f"anchor must be 1-d, got shape {anchor.shape}")

    a = anchor.data
    norm_sq = np.asarray((a * a).sum())  # a 0-d array, whose ** numpy computes as the chain's
    if float(norm_sq) == 0.0:
        raise ValidationError("anchor embedding has zero norm")
    norm = norm_sq ** 0.5
    unit = a / norm
    refs = [_reference(other, anchor) for other in [positive, *negatives]]
    temperature = _constant(temperature, anchor)
    sims = [(unit * ref).sum() / temperature for ref in refs]
    exps = [np.exp(sim) for sim in sims]
    denom = sum(exps[1:], exps[0])
    clamped, log_denom = _log_forward(denom)

    def grad_fn(g):
        g_denom = _log_backward(denom, clamped, g)
        g_sims = [g_denom * e for e in exps]
        g_sims[0] = -g + g_sims[0]  # the positive's flow from the result, then from its exp
        flows = [g_sim / temperature * ref for g_sim, ref in zip(g_sims, refs)]
        g_unit = sum(flows[2:] + flows[:1], flows[1])  # the negatives in order, then the positive
        g_norm = (-g_unit * a / (norm * norm)).sum()
        g_norm_sq = g_norm * 0.5 * norm_sq ** -0.5
        return (g_unit / norm + g_norm_sq * a + g_norm_sq * a,)

    return tensor._node(log_denom - sims[0], (anchor,), grad_fn)
