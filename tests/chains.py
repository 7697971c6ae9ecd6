"""The chains of separate tape nodes that the fused operations replace.

Each function here states an operation the way the package did before it
became one node, out of the tensor op suite, and serves as the reference the
fused node must match byte for byte: values and every leaf's gradient.
"""

import math

import numpy as np

from segadapt import tensor
from segadapt.errors import DimensionError, ValidationError
from segadapt.losses import (
    LossConfig,
    _check_target,
    _unit_vector,
    iou_match_loss,
    mask_from_logits,
    weighted_sum,
)
from segadapt.tensor import Tensor, softmax


def chain_attention(q, k, v, heads, scale):
    """The reshape / permute / matmul / softmax chain of ``tensor.attention``."""
    n_q, dim = q.shape
    n_k, dim_v = v.shape
    if heads == 1:
        return softmax((q @ k.T) * scale, axis=1) @ v
    q3 = q.reshape(n_q, heads, dim // heads).permute(1, 0, 2)
    k3 = k.reshape(n_k, heads, dim // heads).permute(1, 2, 0)
    v3 = v.reshape(n_k, heads, dim_v // heads).permute(1, 0, 2)
    weights = softmax((q3 @ k3) * scale, axis=2)
    return (weights @ v3).permute(1, 0, 2).reshape(n_q, dim_v)


def add_bias(x, bias):
    """The bias node ``linear`` replaced, as the package had it."""
    out = x.data + bias.data[None, :]

    def grad_fn(g):
        return (g if x.requires_grad else None), (g.sum(axis=0) if bias.requires_grad else None)

    return tensor._node(out, (x, bias), grad_fn)


def chain_linear(x, weight, bias, delta=None):
    """The matmul / add / bias chain of ``tensor.linear``."""
    y = x @ weight
    return add_bias(y if delta is None else y + delta, bias)


def chain_dice_loss(logits, target, smooth=1.0):
    t = _check_target(logits, target)
    n = logits.data.size
    p = logits.reshape(n).sigmoid()
    tt = Tensor(t.reshape(n))
    overlap = (p * tt).sum()
    denom = p.sum() + float(t.sum()) + smooth
    return 1.0 - (2.0 * overlap + smooth) / denom


def chain_cross_entropy_loss(logits, target):
    t = _check_target(logits, target)
    p = logits.sigmoid()
    tt = Tensor(t)
    ll = tt * p.log() + (1.0 - tt) * (1.0 - p).log()
    return -ll.mean()


def chain_focal_loss(logits, target, gamma=2.0):
    if gamma < 0:
        raise ValidationError(f"focal gamma must be >= 0, got {gamma}")
    t = _check_target(logits, target)
    p = logits.sigmoid()
    tt = Tensor(t)
    pt = p * tt + (1.0 - p) * (1.0 - tt)
    weight = (1.0 - pt) ** gamma if gamma != 0 else None
    term = pt.log() if weight is None else weight * pt.log()
    return -term.mean()


def chain_confident_entropy_loss(logits, fraction=0.7):
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"confidence fraction must be in (0, 1], got {fraction}")
    n = logits.data.size
    z = logits.reshape(n)
    sign = np.where(z.data >= 0, 1.0, -1.0).astype(logits.dtype)
    magnitude = z * Tensor(sign)
    decay = (-magnitude).exp()
    entropy = (decay + 1.0).log() + magnitude * decay / (decay + 1.0)
    k = min(n, max(1, math.ceil(fraction * n)))
    order = np.argpartition(entropy.data, k - 1)[:k]
    mask = np.zeros(n, dtype=logits.dtype)
    mask[order] = 1.0
    return (entropy * Tensor(mask)).sum() / float(k)


def chain_slice_contrastive_loss(anchor, positive, negatives, temperature=0.1):
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

    def similarity(other):
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


def chain_proximity_loss(logits, snapshot_logits, gamma=2.0, smooth=1.0):
    pseudo = mask_from_logits(snapshot_logits).astype(logits.dtype)
    return chain_focal_loss(logits, pseudo, gamma=gamma) + chain_dice_loss(
        logits, pseudo, smooth=smooth
    )


def chain_supervised_loss(logits, iou_pred, target, cfg=LossConfig()):
    terms = {
        "dice": (cfg.dice_weight, chain_dice_loss(logits, target, smooth=cfg.dice_smooth)),
        "cross_entropy": (cfg.ce_weight, chain_cross_entropy_loss(logits, target)),
        "iou_match": (cfg.iou_weight, iou_match_loss(iou_pred, logits, target)),
    }
    parts = {name: term.item() for name, (_, term) in terms.items()}
    total = weighted_sum(terms.values())
    if total is None:
        total = Tensor(np.asarray(0.0, dtype=logits.dtype))
    parts["total"] = total.item()
    return total, parts


# The engine's loss names and the chain each one stood for.
ENGINE_LOSSES = {
    "supervised_loss": chain_supervised_loss,
    "confident_entropy_loss": chain_confident_entropy_loss,
    "proximity_loss": chain_proximity_loss,
    "slice_contrastive_loss": chain_slice_contrastive_loss,
}
