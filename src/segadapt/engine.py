"""Experiment engine: supervised training, evaluation, per-sample adaptation.

Protocol: a base model is fully trained on the source domain once, then each
method (full_ft, decoder_ft, lora, sam_da_dec, sam_da_enc) adapts from that
shared checkpoint under its freeze policy.  Evaluation prompts each mask with
one seeded interior click.  Test-time adaptation tunes the method's trainable
set per sample with unsupervised losses, then restores the trained parameters
and checks every parameter's bytes against the checkpoint before touching the
next sample.

Every run writes JSON fragments; emit_report aggregates them, recomputing all
means from the stored per-image lists and refusing to report numbers that do
not reproduce.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .adapter import (
    AdapterConfig,
    LoraConfig,
    apply_freeze_policy,
    attach_decoder_adapter,
    attach_encoder_adapter,
    attach_lora,
)
from .checkpoint import dump_bytes, first_difference, float32_bytes, load_bytes, restore
from .config import RunConfig, config_to_dict, overlay
from .data import Sample, load_manifest, load_split, read_json_object
from .errors import ContractError, IntegrityError, ValidationError
from .losses import (
    compute_iou,
    confident_entropy_loss,
    mask_from_logits,
    proximity_loss,
    slice_contrastive_loss,
    supervised_loss,
    weighted_sum,
)
from .model import DecoderState, ImageEmbedding, ModelConfig, PromptSet, SegmentationModel
from .params import AdamWState, adamw_step
from .stats import paired_t_test
from .tensor import Tensor, backward, no_grad

_PROMPT_TAG = 0x70726F6D
_SHUFFLE_TAG = 0x73687566

META_VERSION = 1
BASE_SEED = 100
METHOD_SEEDS = (0, 1, 2, 3)

# Mean confident-pixel entropy below this many nats means the confident set
# averages logit magnitudes past ~9: the prediction is saturated and entropy
# minimization has nothing left to shave off.
ENTROPY_FLOOR = 1e-4


def entropy_improved(before: float, after: float) -> bool:
    """Whether adaptation lowered confident-pixel entropy for one sample.

    Already-saturated samples count as improved only while they stay at the
    floor; a strict decrease of a quantity at roundoff scale is noise, but a
    climb off the floor is a real regression.
    """
    if before <= ENTROPY_FLOOR:
        return after <= ENTROPY_FLOOR
    return after < before


# -- prompting ----------------------------------------------------------------


def prompt_rng(seed: int, volume_id: int, slice_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_PROMPT_TAG, seed, volume_id, slice_index])
    )


def interior_prompt(mask: np.ndarray, rng: np.random.Generator, jitter: int = 2) -> PromptSet:
    """One positive click: the interior point nearest the mask centroid,
    jittered a couple of pixels but never off the mask."""
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        raise ValidationError("cannot prompt an empty mask")
    cy, cx = ys.mean(), xs.mean()
    idx = int(np.argmin((ys - cy) ** 2 + (xs - cx) ** 2))
    y, x = int(ys[idx]), int(xs[idx])
    dy, dx = (int(v) for v in rng.integers(-jitter, jitter + 1, size=2))
    yj, xj = y + dy, x + dx
    h, w = mask.shape
    if 0 <= yj < h and 0 <= xj < w and mask[yj, xj]:
        y, x = yj, xj
    return PromptSet([(float(x), float(y), 1)])


# -- evaluation ----------------------------------------------------------------


@dataclass
class EvalResult:
    per_image: list[float]
    mean: float
    std: float

    @classmethod
    def from_scores(cls, scores: list[float]) -> "EvalResult":
        arr = np.asarray(scores, dtype=np.float64)
        return cls(per_image=[float(v) for v in scores], mean=float(arr.mean()), std=float(arr.std()))


def evaluate_with_predictor(
    predict: Callable[[Sample, PromptSet], object],
    samples: Sequence[Sample],
    seed: int,
) -> EvalResult:
    """IoU of binarized predictions against ground truth, one click per image."""
    scores = []
    for s in samples:
        prompts = interior_prompt(s.mask, prompt_rng(seed, s.volume_id, s.slice_index))
        pred = predict(s, prompts)
        scores.append(compute_iou(pred.mask, s.mask))
    return EvalResult.from_scores(scores)


Inputs = Callable[[Sample, PromptSet], tuple[ImageEmbedding | None, DecoderState | None]]


def evaluate_model(
    model: SegmentationModel,
    samples: Sequence[Sample],
    seed: int,
    inputs: Inputs | None = None,
) -> EvalResult:
    """Evaluate the model; ``inputs`` supplies what each forward may reuse
    (by default every image and prompt is encoded)."""
    inputs = inputs or (lambda s, p: (None, None))
    return evaluate_with_predictor(lambda s, p: model.predict(s.image, p, *inputs(s, p)), samples, seed)


def _off_tape(tensor: Tensor, what: str, s: Sample) -> None:
    if tensor.requires_grad or tensor._grad_fn is not None:
        raise ContractError(
            f"memoized {what} of sample (volume {s.volume_id}, slice {s.slice_index}) "
            f"is on the autodiff tape"
        )


def _frozen_inputs(model: SegmentationModel) -> Inputs:
    """``inputs(sample, prompts)``: the (image embedding, decoder prefix) pair
    a forward of that sample and prompt set may reuse within one stage call.

    While ``model.encoder_frozen()`` holds, the embedding of each (loaded
    Sample object, PromptSet) is computed once and reused (SAM's split: the
    heavy image encoder once per image, the prompt encoder and decoder once
    per prompt); while ``model.decoder_prefix_frozen()`` also holds, so is the
    decoder's state after layer 0.  The caller must not change weights those
    rules cover while it uses the helper.  Parts whose rule does not hold
    come back None and are computed by the forward.
    """
    if not model.encoder_frozen():
        return lambda s, p: (None, None)
    keep_prefix = model.decoder_prefix_frozen()
    # Keyed on object identity; each entry keeps its sample alive so the id
    # cannot be reused by another object.  A stage call gives each sample one
    # seeded prompt set, so each image is still encoded once.
    memo: dict[tuple[int, PromptSet], tuple[Sample, ImageEmbedding, DecoderState | None]] = {}

    def inputs(s: Sample, prompts: PromptSet):
        hit = memo.get((id(s), prompts))
        if hit is None:
            embedding = model.encode_image(s.image)
            _off_tape(embedding.grid, "embedding", s)
            prefix = None
            if keep_prefix:
                # Recorded with the caller's tape setting: while the rule holds
                # no input needs a gradient, so the tape records nothing; a rule
                # that holds wrongly leaves the prefix on the tape and is refused.
                prefix = model.decoder_prefix(embedding, model.encode_prompts(prompts))
                _off_tape(prefix.tokens, "decoder prefix", s)
                _off_tape(prefix.dense, "decoder prefix", s)
            hit = memo[id(s), prompts] = (s, embedding, prefix)
        return hit[1], hit[2]

    return inputs


# -- checkpoint + sidecar -----------------------------------------------------------


def _meta_path(checkpoint: str | Path) -> Path:
    return Path(str(checkpoint) + ".meta.json")


def save_checkpoint(
    checkpoint: str | Path,
    weights: bytes,
    method: str,
    model_cfg: ModelConfig,
    adapter_cfg: AdapterConfig | None,
    lora_cfg: LoraConfig | None,
    seed: int,
) -> None:
    path = Path(checkpoint)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(weights)
    meta = {
        "meta_version": META_VERSION,
        "method": method,
        "seed": seed,
        "model": asdict(model_cfg),
        "adapter": asdict(adapter_cfg) if adapter_cfg else None,
        "lora": asdict(lora_cfg) if lora_cfg else None,
    }
    _meta_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True))


def load_model(checkpoint: str | Path) -> tuple[SegmentationModel, dict]:
    """Rebuild the trained model from a checkpoint plus its JSON sidecar."""
    path = Path(checkpoint)
    if not path.exists():
        raise ValidationError(f"checkpoint not found: {path}")
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise ValidationError(f"checkpoint sidecar not found: {meta_path}")
    meta = read_json_object(meta_path, "checkpoint sidecar")
    if meta.get("meta_version") != META_VERSION:
        raise ValidationError(f"unsupported checkpoint meta version in {meta_path}")
    for key in ("model", "method"):
        if key not in meta:
            raise ValidationError(f"checkpoint sidecar {meta_path} lacks key {key!r}")
    if not isinstance(meta["method"], str):
        raise ValidationError(f"checkpoint sidecar {meta_path} names no method: {meta['method']!r}")
    model = SegmentationModel(overlay(ModelConfig(), meta["model"]))
    adapter_cfg = overlay(AdapterConfig(), meta["adapter"]) if meta.get("adapter") else None
    lora_cfg = overlay(LoraConfig(), meta["lora"]) if meta.get("lora") else None
    attach_method(model, meta["method"], adapter_cfg, lora_cfg)
    restore(model.registry, path)
    return model, meta


def attach_method(
    model: SegmentationModel,
    method: str,
    adapter_cfg: AdapterConfig | None,
    lora_cfg: LoraConfig | None,
    seed: int = 0,
) -> tuple[AdapterConfig | None, LoraConfig | None]:
    """Wire a method's mechanism and freeze policy onto the model.

    Returns the (adapter, LoRA) configs the method used; the other is None.
    """
    placement = {"sam_da_dec": "decoder", "sam_da_enc": "encoder"}.get(method)
    if placement is not None:
        if adapter_cfg is None:
            raise ValidationError(f"method {method!r} needs an adapter config")
        adapter_cfg = replace(adapter_cfg, placement=placement)
        attach = attach_decoder_adapter if placement == "decoder" else attach_encoder_adapter
        attach(model, adapter_cfg, seed=seed)
        return adapter_cfg, None
    if method == "lora":
        if lora_cfg is None:
            raise ValidationError("method 'lora' needs a LoRA config")
        attach_lora(model, lora_cfg, seed=seed)
        return None, lora_cfg
    apply_freeze_policy(model, method)
    return None, None


# -- supervised training -------------------------------------------------------------


def _chunks(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start : start + size]


def train_supervised(cfg: RunConfig, data_root: str | Path, out_dir: str | Path) -> dict:
    """AdamW over the supervised loss on source training data.

    Audits that frozen parameters never moved, then writes the weights of
    the best-validation epoch as checkpoint + sidecar + a JSON fragment
    into out_dir.
    """
    cfg.validate()
    data_root = Path(data_root)
    out_dir = Path(out_dir)
    manifest = load_manifest(data_root)
    train_samples = load_split(data_root, manifest, "source_train")
    val_samples = load_split(data_root, manifest, "source_val")
    if cfg.train.max_train_samples is not None:
        if cfg.train.max_train_samples > len(train_samples):
            raise ValidationError(
                f"max_train_samples {cfg.train.max_train_samples} exceeds the "
                f"{len(train_samples)}-sample source_train split"
            )
        train_samples = train_samples[: cfg.train.max_train_samples]

    model = SegmentationModel(cfg.model)
    if cfg.train.init_from:
        init_path = Path(cfg.train.init_from)
        if not init_path.exists():
            raise ValidationError(f"init_from checkpoint not found: {init_path}")
        restore(model.registry, init_path)
    adapter_cfg, lora_cfg = attach_method(
        model, cfg.train.method, cfg.adapter, cfg.lora, seed=cfg.train.seed
    )
    trainable, total = model.registry.param_count(trainable_only=True), model.registry.param_count()

    # Compared as checkpoint bytes: a NaN that never moves passes, a 0.0 that
    # turns into -0.0 does not.
    frozen_before = {
        name: float32_bytes(model.registry.get(name).data)
        for name in model.registry.names()
        if not model.registry.param(name).trainable
    }

    opt = AdamWState(lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([_SHUFFLE_TAG, cfg.train.seed]))
    seed = cfg.train.seed
    inputs = _frozen_inputs(model)

    val = evaluate_model(model, val_samples, seed, inputs)
    val_curve = [val.mean]
    loss_curve: list[float] = []
    # Best-validation retention over trained epochs; the pre-training entry
    # val_curve[0] is context for the curve, never a retention candidate.
    best_val = -1.0
    best_bytes = dump_bytes(model.registry)

    for epoch in range(cfg.train.epochs):
        order = shuffle_rng.permutation(len(train_samples))
        epoch_losses = []
        for batch in _chunks(order, cfg.train.batch_size):
            scale = 1.0 / len(batch)
            for idx in batch:
                s = train_samples[int(idx)]
                prompts = interior_prompt(s.mask, prompt_rng(seed, s.volume_id, s.slice_index))
                out = model.forward(s.image, prompts, *inputs(s, prompts))
                total_loss, parts = supervised_loss(out.logits, out.iou_pred, s.mask, cfg.loss)
                if not math.isfinite(parts["total"]):
                    raise ValidationError(
                        f"non-finite training loss {parts['total']} in epoch {epoch} on sample "
                        f"(volume {s.volume_id}, slice {s.slice_index}) at lr {cfg.train.lr}"
                    )
                backward(total_loss * scale)
                epoch_losses.append(parts["total"])
            model.registry.fill_missing_grads()
            adamw_step(model.registry, opt)
        loss_curve.append(float(np.mean(epoch_losses)))
        val = evaluate_model(model, val_samples, seed, inputs)
        val_curve.append(val.mean)
        if val.mean > best_val:
            best_val = val.mean
            best_bytes = dump_bytes(model.registry)

    for name, before in frozen_before.items():
        if float32_bytes(model.registry.get(name).data) != before:
            raise ContractError(f"frozen parameter {name!r} changed during training")

    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = out_dir / "checkpoint.sdck"
    save_checkpoint(checkpoint, best_bytes, cfg.train.method, cfg.model, adapter_cfg, lora_cfg, seed)
    fragment = {
        "kind": "train",
        "method": cfg.train.method,
        "seed": seed,
        "train_samples": len(train_samples),
        "loss_curve": loss_curve,
        "val_curve": val_curve,
        "best_val_iou": best_val,
        "trainable_params": trainable,
        "total_params": total,
        "checkpoint": str(checkpoint),
        "config": config_to_dict(cfg),
    }
    (out_dir / "fragment_train.json").write_text(json.dumps(fragment, indent=2, sort_keys=True))
    return fragment


def evaluate_checkpoint(
    checkpoint: str | Path,
    data_root: str | Path,
    domain: str,
    split: str,
    seed: int = 0,
    report_path: str | Path | None = None,
) -> dict:
    data_root = Path(data_root)
    manifest = load_manifest(data_root)
    if domain not in manifest["domains"]:
        raise ValidationError(
            f"domain {domain!r} absent from manifest; available: {sorted(manifest['domains'])}"
        )
    samples = load_split(data_root, manifest, f"{domain}_{split}")
    model, meta = load_model(checkpoint)
    result = evaluate_model(model, samples, seed)
    fragment = {
        "kind": "eval",
        "method": meta["method"],
        "seed": meta.get("seed", 0),
        "eval_seed": seed,
        "domain": domain,
        "split": split,
        "count": len(result.per_image),
        "per_image": result.per_image,
        "mean": result.mean,
        "std": result.std,
        "checkpoint": str(checkpoint),
    }
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(json.dumps(fragment, indent=2, sort_keys=True))
    return fragment


# -- test-time adaptation ---------------------------------------------------------------


def _group_by_volume(samples: Sequence[Sample]) -> dict[int, dict[int, Sample]]:
    volumes: dict[int, dict[int, Sample]] = {}
    for s in samples:
        volumes.setdefault(s.volume_id, {})[s.slice_index] = s
    return volumes


def _ttda_sample(
    model: SegmentationModel,
    s: Sample,
    volume: dict[int, Sample],
    cfg: RunConfig,
    adapt: bool,
    inputs: Inputs,
    unadapted: Callable[[Sample], tuple[PromptSet, Tensor, np.ndarray]],
) -> dict:
    """Adapt the model to one sample and return the sample's record.

    Leaves the adapted weights in place; the caller restores them.  A sample
    whose weighted loss has no terms stays unadapted.
    """
    settings = cfg.ttda
    q = cfg.loss.confidence_fraction
    prompts, first_logits, _ = unadapted(s)
    with no_grad():
        entropy_before = confident_entropy_loss(first_logits, q).item()
    snapshot = first_logits.data
    iou_before = compute_iou(mask_from_logits(snapshot), s.mask)

    entropy_after = entropy_before
    iou_after = iou_before
    if adapt:
        pos_idx = next(
            (
                s.slice_index + d
                for d in (settings.positive_offset, -settings.positive_offset)
                if s.slice_index + d in volume
            ),
            None,
        )
        neg_idxs = [
            i for i in sorted(volume) if abs(i - s.slice_index) >= settings.negative_min_offset
        ]
        positive = unadapted(volume[pos_idx])[2] if pos_idx is not None else None
        negatives = [unadapted(volume[i])[2] for i in neg_idxs]

        opt = AdamWState(lr=settings.lr, weight_decay=0.0)
        for _ in range(settings.iterations):
            out = model.forward(s.image, prompts, *inputs(s, prompts))
            entropy = confident_entropy_loss(out.logits, q)
            proximity = proximity_loss(
                out.logits, snapshot, gamma=cfg.loss.focal_gamma, smooth=cfg.loss.dice_smooth
            )
            terms = [(settings.lambda_entropy, entropy), (settings.lambda_proximity, proximity)]
            if positive is not None and negatives:
                contrastive = slice_contrastive_loss(
                    out.dense.mean(axis=0), positive, negatives, temperature=cfg.loss.temperature
                )
                terms.append((settings.lambda_contrastive, contrastive))
            loss = weighted_sum(terms)
            if loss is None:
                break  # no weighted term applies to this sample: it stays unadapted
            if not math.isfinite(loss.item()):
                raise ValidationError(
                    f"non-finite TTDA loss {loss.item()} on sample (volume {s.volume_id}, "
                    f"slice {s.slice_index}) at lr {settings.lr}"
                )
            backward(loss)
            model.registry.fill_missing_grads()
            adamw_step(model.registry, opt)
        else:
            with no_grad():
                final = model.forward(s.image, prompts, *inputs(s, prompts))
                entropy_after = confident_entropy_loss(final.logits, q).item()
            iou_after = compute_iou(mask_from_logits(final.logits.data), s.mask)

    return {
        "volume_id": s.volume_id,
        "slice_index": s.slice_index,
        "iou_before": iou_before,
        "iou_after": iou_after,
        "entropy_before": entropy_before,
        "entropy_after": entropy_after,
    }


def _unadapted(model: SegmentationModel, inputs: Inputs, seed: int):
    """``unadapted(sample) -> (prompts, logits, pooled dense embedding)`` of a
    slice under the reference weights, computed once per slice: as the
    sample's own starting point and as another sample's positive or negative.
    Only called while the weights equal the reference."""
    memo: dict[tuple[int, int], tuple[PromptSet, Tensor, np.ndarray]] = {}

    def unadapted(s: Sample) -> tuple[PromptSet, Tensor, np.ndarray]:
        key = (s.volume_id, s.slice_index)
        if key not in memo:
            prompts = interior_prompt(s.mask, prompt_rng(seed, *key))
            reused = inputs(s, prompts)  # with the tape on, so the memo's tape check applies
            with no_grad():
                out = model.forward(s.image, prompts, *reused)
            memo[key] = (prompts, out.logits, out.dense.data.mean(axis=0))
        return memo[key]

    return unadapted


def _volume_runs(samples: Sequence[Sample]) -> list[list[Sample]]:
    """Consecutive samples of one volume, in order (``load_split`` keeps a
    volume's slices together)."""
    return [list(run) for _, run in itertools.groupby(samples, key=lambda s: s.volume_id)]


def run_ttda(
    checkpoint: str | Path,
    data_root: str | Path,
    cfg: RunConfig,
    report_path: str | Path | None = None,
) -> dict:
    """Per-sample unsupervised adaptation with verified checkpoint resets.

    Checkpoints without any adapter get a fresh zero-gated decoder adapter
    (predictions initially unchanged); adapter checkpoints tune their own
    adapter.  After each sample the trained parameters are restored and
    every parameter's bytes are compared with the reference; any difference
    aborts the run.
    """
    cfg.validate()
    settings = cfg.ttda
    data_root = Path(data_root)
    manifest = load_manifest(data_root)
    samples = load_split(data_root, manifest, settings.split)
    volumes = _group_by_volume(samples)

    model, meta = load_model(checkpoint)
    if not any(n.startswith("adapter.") for n in model.registry.names()):
        attach_method(model, "sam_da_dec", cfg.adapter, None, seed=settings.seed)
    # Parsed once.  A sample changes only the parameters that train, so only
    # those are reset; the audit still covers every parameter.
    reference = load_bytes(dump_bytes(model.registry))
    trained = {p.name: reference[p.name] for p in model.registry.trainable_parameters()}

    adapt = any((settings.lambda_entropy, settings.lambda_proximity, settings.lambda_contrastive))
    records = []
    for run in _volume_runs(samples):
        # Memos live for one volume: a sample's positive and negatives are
        # slices of its own volume.
        inputs = _frozen_inputs(model)
        unadapted = _unadapted(model, inputs, settings.seed)
        for s in run:
            records.append(_ttda_sample(model, s, volumes[s.volume_id], cfg, adapt, inputs, unadapted))
            restore(model.registry, trained, strict=False)
            difference = first_difference(model.registry, reference)
            if difference is not None:
                raise IntegrityError(
                    f"weights after restoring sample (volume {s.volume_id}, slice "
                    f"{s.slice_index}) differ from the checkpoint in {difference}"
                )

    before = [r["iou_before"] for r in records]
    after = [r["iou_after"] for r in records]
    improved = [entropy_improved(r["entropy_before"], r["entropy_after"]) for r in records]
    fragment = {
        "kind": "ttda",
        "method": meta["method"],
        "seed": settings.seed,
        "split": settings.split,
        "count": len(records),
        "per_sample": records,
        "mean_iou_before": float(np.mean(before)),
        "mean_iou_after": float(np.mean(after)),
        "entropy_improved_fraction": float(np.mean(improved)) if adapt else 0.0,
        "checkpoint": str(checkpoint),
        "config": config_to_dict(cfg),
    }
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(json.dumps(fragment, indent=2, sort_keys=True))
    return fragment


# -- ablation --------------------------------------------------------------------------------


ABLATION_SIZES = (512, 1024, 2048)


def _train_and_eval(cfg: RunConfig, data_root: Path, out_dir: Path) -> dict:
    fragment = train_supervised(cfg, data_root, out_dir)
    results = {}
    for domain in ("source", "target"):
        results[domain] = evaluate_checkpoint(
            fragment["checkpoint"],
            data_root,
            domain,
            "test",
            seed=cfg.train.seed,
            report_path=out_dir / f"fragment_eval_{domain}_test.json",
        )
    return {
        "source_iou": results["source"]["mean"],
        "target_iou": results["target"]["mean"],
        "trainable_params": fragment["trainable_params"],
    }


def run_ablation(
    cfg: RunConfig,
    data_root: str | Path,
    axis: str,
    out_dir: str | Path,
    seeds: Sequence[int] = METHOD_SEEDS,
    runner: Callable[[RunConfig, Path, Path], dict] | None = None,
) -> dict:
    """The size or placement matrix, each cell trained over the given seeds."""
    data_root = Path(data_root)
    out_dir = Path(out_dir)
    runner = runner or _train_and_eval
    if axis == "size":
        variants = [
            (f"size_{d}", replace(cfg, adapter=replace(cfg.adapter, prompt_dim=d, placement="decoder"),
                                  train=replace(cfg.train, method="sam_da_dec")))
            for d in ABLATION_SIZES
        ]
    elif axis == "placement":
        variants = [
            ("decoder", replace(cfg, train=replace(cfg.train, method="sam_da_dec"))),
            ("encoder", replace(cfg, train=replace(cfg.train, method="sam_da_enc"))),
        ]
    else:
        raise ValidationError(f"unknown ablation axis {axis!r}; expected 'size' or 'placement'")

    runs = []
    for name, variant in variants:
        for seed in seeds:
            run_cfg = replace(variant, train=replace(variant.train, seed=seed))
            outcome = runner(run_cfg, data_root, out_dir / f"{name}_seed{seed}")
            runs.append({"variant": name, "seed": seed, **outcome})

    summary = {}
    for name, _ in variants:
        rows = [r for r in runs if r["variant"] == name]
        summary[name] = {
            "source_iou_mean": float(np.mean([r["source_iou"] for r in rows])),
            "source_iou_std": float(np.std([r["source_iou"] for r in rows], ddof=1 if len(rows) > 1 else 0)),
            "target_iou_mean": float(np.mean([r["target_iou"] for r in rows])),
            "target_iou_std": float(np.std([r["target_iou"] for r in rows], ddof=1 if len(rows) > 1 else 0)),
            "trainable_params": rows[0]["trainable_params"],
        }
    report = {"kind": "ablation", "axis": axis, "runs": runs, "summary": summary}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"ablation_{axis}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    return report


# -- reporting -----------------------------------------------------------------------------------


def _check_mean(stored: float, values: Sequence[float], context: str) -> None:
    recomputed = float(np.mean(np.asarray(values, dtype=np.float64)))
    if abs(recomputed - stored) > 1e-9:
        raise IntegrityError(
            f"{context}: stored mean {stored!r} does not reproduce from per-image "
            f"scores (recomputed {recomputed!r})"
        )


def _is_int(v) -> bool:
    # Bounded so that every integer converts to a float exactly.
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= 2**53


def _is_number(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_scores(v) -> bool:
    return isinstance(v, list) and bool(v) and all(_is_number(x) for x in v)


def _is_records(v) -> bool:
    return isinstance(v, list) and bool(v) and all(
        isinstance(r, dict) and _is_number(r.get("iou_before")) and _is_number(r.get("iou_after"))
        for r in v
    )


_TEXT = (lambda v: isinstance(v, str), "a string")
_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a finite number")
# Per fragment kind, each key the report reads and what it must hold.
_FRAGMENT_KEYS = {
    "train": {
        "method": _TEXT,
        "trainable_params": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
        "total_params": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    },
    "eval": {
        "method": _TEXT, "seed": _INT, "domain": _TEXT, "split": _TEXT, "mean": _NUMBER,
        "per_image": (_is_scores, "a non-empty list of finite numbers"),
    },
    "ttda": {
        "method": _TEXT, "split": _TEXT, "count": _INT,
        "mean_iou_before": _NUMBER, "mean_iou_after": _NUMBER, "entropy_improved_fraction": _NUMBER,
        "per_sample": (_is_records, "a non-empty list of objects with finite 'iou_before' and 'iou_after'"),
    },
}


def collect_fragments(run_dir: str | Path) -> list[dict]:
    """Every run fragment under ``run_dir``, each checked to hold the keys
    the report reads; a malformed one is a ValidationError naming path and key."""
    run_dir = Path(run_dir)
    fragments = []
    for path in sorted(run_dir.rglob("*.json")):
        try:
            doc = json.loads(path.read_bytes())
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if not isinstance(kind, str) or kind not in _FRAGMENT_KEYS:
            continue
        for key, (valid, what) in _FRAGMENT_KEYS[kind].items():
            if key not in doc:
                raise ValidationError(f"{kind} fragment {path} lacks key {key!r}")
            if not valid(doc[key]):
                raise ValidationError(f"{kind} fragment {path}: key {key!r} must be {what}")
        doc["_path"] = str(path)
        fragments.append(doc)
    if not fragments:
        raise ValidationError(f"no run fragments found under {run_dir}")
    return fragments


def aggregate_report(run_dir: str | Path) -> dict:
    """Cross-check every fragment and aggregate over seeds."""
    fragments = collect_fragments(run_dir)
    evals = [f for f in fragments if f["kind"] == "eval"]
    trains = [f for f in fragments if f["kind"] == "train"]
    ttdas = [f for f in fragments if f["kind"] == "ttda"]

    for f in evals:
        _check_mean(f["mean"], f["per_image"], f"eval fragment {f['_path']}")
    for f in ttdas:
        _check_mean(f["mean_iou_before"], [r["iou_before"] for r in f["per_sample"]],
                    f"ttda fragment {f['_path']} (before)")
        _check_mean(f["mean_iou_after"], [r["iou_after"] for r in f["per_sample"]],
                    f"ttda fragment {f['_path']} (after)")

    methods: dict[str, dict] = {}
    for f in trains:
        entry = methods.setdefault(f["method"], {"params": None, "cells": {}})
        entry["params"] = (f["trainable_params"], f["total_params"])

    grouped: dict[tuple[str, str, str], list[dict]] = {}
    for f in evals:
        grouped.setdefault((f["method"], f["domain"], f["split"]), []).append(f)
    for (method, domain, split), group in sorted(grouped.items()):
        group = sorted(group, key=lambda f: f["seed"])
        seed_means = [f["mean"] for f in group]
        cell = {
            "seeds": [f["seed"] for f in group],
            "seed_means": seed_means,
            "mean": float(np.mean(seed_means)),
            "std": float(np.std(seed_means, ddof=1 if len(seed_means) > 1 else 0)),
        }
        methods.setdefault(method, {"params": None, "cells": {}})["cells"][f"{domain}_{split}"] = cell

    # Paired tests on per-image scores pooled seed-major, methods pairwise.
    tests = []
    by_cell: dict[tuple[str, str], dict[str, list[float]]] = {}
    for (method, domain, split), group in grouped.items():
        group = sorted(group, key=lambda f: f["seed"])
        pooled: list[float] = []
        for f in group:
            pooled.extend(f["per_image"])
        by_cell.setdefault((domain, split), {})[method] = pooled
    for (domain, split), per_method in sorted(by_cell.items()):
        names = sorted(per_method)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if len(per_method[a]) != len(per_method[b]) or len(per_method[a]) < 2:
                    continue
                result = paired_t_test(per_method[a], per_method[b])
                tests.append(
                    {
                        "domain": domain,
                        "split": split,
                        "methods": [a, b],
                        "t": result.statistic,
                        "p": result.p_value,
                        "dof": result.dof,
                        "degenerate": result.degenerate,
                    }
                )

    ttda_summary = [
        {
            "method": f["method"],
            "split": f["split"],
            "count": f["count"],
            "mean_iou_before": f["mean_iou_before"],
            "mean_iou_after": f["mean_iou_after"],
            "entropy_improved_fraction": f["entropy_improved_fraction"],
        }
        for f in ttdas
    ]
    return {
        "methods": methods,
        "t_tests": tests,
        "ttda": ttda_summary,
        "fragments": len(fragments),
    }


def render_table(report: dict) -> str:
    """Plain-text layout: methods down the rows, domain cells across."""
    cells = sorted({cell for m in report["methods"].values() for cell in m["cells"]})
    header = ["method", "params (train/total)"] + [f"{c} IoU" for c in cells]
    rows = [header]
    for method in sorted(report["methods"]):
        entry = report["methods"][method]
        params = "-"
        if entry["params"]:
            trainable, total = entry["params"]
            params = f"{trainable:,}/{total:,} ({100 * trainable / total:.1f}%)"
        row = [method, params]
        for cell in cells:
            stats = entry["cells"].get(cell)
            row.append("-" if stats is None else f"{stats['mean']:.4f} ± {stats['std']:.4f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))

    if report["ttda"]:
        lines.append("")
        lines.append("test-time adaptation:")
        for t in report["ttda"]:
            lines.append(
                f"  {t['method']} on {t['split']}: IoU {t['mean_iou_before']:.4f} -> "
                f"{t['mean_iou_after']:.4f} over {t['count']} samples "
                f"(entropy down on {100 * t['entropy_improved_fraction']:.0f}%)"
            )
    if report["t_tests"]:
        lines.append("")
        lines.append("paired t-tests (per-image IoU, pooled over seeds):")
        for t in report["t_tests"]:
            flag = " [degenerate]" if t["degenerate"] else ""
            lines.append(
                f"  {t['methods'][0]} vs {t['methods'][1]} on {t['domain']}_{t['split']}: "
                f"t={t['t']:+.3f}, p={t['p']:.4g}, dof={t['dof']}{flag}"
            )
    return "\n".join(lines)


def emit_report(run_dir: str | Path, fmt: str = "table") -> str:
    report = aggregate_report(run_dir)
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "table":
        return render_table(report)
    raise ValidationError(f"unknown report format {fmt!r}; expected 'json' or 'table'")
