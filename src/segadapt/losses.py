"""Segmentation losses and the test-time adaptation objectives.

All losses take raw mask logits (a 2-d tensor) and numpy targets; targets are
constants, gradients flow through the logits only unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, ValidationError
from .tensor import Tensor


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


def dice_loss(logits: Tensor, target: np.ndarray, smooth: float = 1.0) -> Tensor:
    t = _check_target(logits, target)
    n = logits.data.size
    p = logits.reshape(n).sigmoid()
    tt = Tensor(t.reshape(n))
    overlap = (p * tt).sum()
    denom = p.sum() + float(t.sum()) + smooth
    return 1.0 - (2.0 * overlap + smooth) / denom


def cross_entropy_loss(logits: Tensor, target: np.ndarray) -> Tensor:
    t = _check_target(logits, target)
    p = logits.sigmoid()
    tt = Tensor(t)
    ll = tt * p.log() + (1.0 - tt) * (1.0 - p).log()
    return -ll.mean()


def focal_loss(logits: Tensor, target: np.ndarray, gamma: float = 2.0) -> Tensor:
    """Mean of -(1 - p_t)^gamma * log(p_t); gamma = 0 reduces to CE."""
    if gamma < 0:
        raise ValidationError(f"focal gamma must be >= 0, got {gamma}")
    t = _check_target(logits, target)
    p = logits.sigmoid()
    tt = Tensor(t)
    pt = p * tt + (1.0 - p) * (1.0 - tt)
    weight = (1.0 - pt) ** gamma if gamma != 0 else None
    term = pt.log() if weight is None else weight * pt.log()
    return -term.mean()


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
    terms = {
        "dice": (cfg.dice_weight, dice_loss(logits, target, smooth=cfg.dice_smooth)),
        "cross_entropy": (cfg.ce_weight, cross_entropy_loss(logits, target)),
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
    z = logits.reshape(n)
    # |z| via a constant sign mask; d|z|/dz = sign(z) almost everywhere
    sign = np.where(z.data >= 0, 1.0, -1.0).astype(logits.dtype)
    magnitude = z * Tensor(sign)
    decay = (-magnitude).exp()  # e^-|z| in (0, 1]
    entropy = (decay + 1.0).log() + magnitude * decay / (decay + 1.0)
    k = min(n, max(1, math.ceil(fraction * n)))
    order = np.argpartition(entropy.data, k - 1)[:k]
    mask = np.zeros(n, dtype=logits.dtype)
    mask[order] = 1.0
    return (entropy * Tensor(mask)).sum() / float(k)


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
    return focal_loss(logits, pseudo, gamma=gamma) + dice_loss(logits, pseudo, smooth=smooth)


def _unit_vector(v: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValidationError(f"{what} embedding has zero norm")
    return v / norm


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

    norm_sq = (anchor * anchor).sum()
    if float(norm_sq.data) == 0.0:
        raise ValidationError("anchor embedding has zero norm")
    unit = anchor / norm_sq.sqrt()

    def similarity(other) -> Tensor:
        data = other.data if isinstance(other, Tensor) else other
        ref = _unit_vector(data, "reference").astype(anchor.dtype)
        if ref.shape != anchor.shape:
            raise DimensionError(f"embedding shape {ref.shape} != anchor {anchor.shape}")
        return (unit * Tensor(ref)).sum() / temperature

    pos = similarity(positive)
    denom = pos.exp()
    for neg in negatives:
        denom = denom + similarity(neg).exp()
    return denom.log() - pos
