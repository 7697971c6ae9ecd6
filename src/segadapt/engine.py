"""Experiment engine: supervised training, evaluation, per-sample adaptation.

Protocol: a base model is fully trained on the source domain once, then each
method (full_ft, decoder_ft, lora, sam_da_dec, sam_da_enc) adapts from that
shared checkpoint under its freeze policy.  Evaluation prompts each mask with
one seeded interior click.  Test-time adaptation tunes the method's trainable
set per sample with unsupervised losses, then restores the trained parameters
and checks every parameter's bytes against the checkpoint before touching the
next sample.
"""

from __future__ import annotations

import gc
import itertools
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
from .checkpoint import (
    byte_reference,
    dump_bytes,
    first_difference,
    float32_bytes,
    load_bytes,
    restore,
)
from .config import RunConfig, config_to_dict, overlay
from .data import Sample, load_manifest, load_split, read_file, read_json_object, write_file, write_json
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
from .model import DecoderState, ModelConfig, PromptSet, SegmentationModel
from .params import AdamWState, adamw_step, check_int
from .stats import seed_summary
from .tensor import Tensor, backward, grad_enabled, no_grad, stack

_PROMPT_TAG = 0x70726F6D
_SHUFFLE_TAG = 0x73687566
PROMPT_JITTER = 2  # pixels an evaluation click may move off the centroid-nearest point
EVAL_BATCH = 8  # images per evaluation forward

META_VERSION = 1
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


def interior_prompt(mask: np.ndarray, rng: np.random.Generator) -> PromptSet:
    """One positive click: the interior point nearest the mask centroid,
    jittered up to ``PROMPT_JITTER`` pixels but never off the mask."""
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        raise ValidationError("cannot prompt an empty mask")
    cy, cx = ys.mean(), xs.mean()
    idx = int(np.argmin((ys - cy) ** 2 + (xs - cx) ** 2))
    y, x = int(ys[idx]), int(xs[idx])
    dy, dx = (int(v) for v in rng.integers(-PROMPT_JITTER, PROMPT_JITTER + 1, size=2))
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


def _click(s: Sample, seed: int) -> PromptSet:
    """The sample's one seeded interior click."""
    return interior_prompt(s.mask, prompt_rng(seed, s.volume_id, s.slice_index))


Inputs = Callable[[Sample], tuple[PromptSet, Tensor | None, DecoderState | None]]


def evaluate_model(
    model: SegmentationModel,
    samples: Sequence[Sample],
    seed: int,
    inputs: Inputs | None = None,
) -> EvalResult:
    """IoU of binarized predictions against ground truth, one click per image;
    ``inputs``, a stage's memo drawn with the same seed, supplies each click
    and what its forward may reuse (by default each click is drawn and every
    image and prompt is encoded).

    Images run ``EVAL_BATCH`` at a time, each chunk as one stacked forward
    whose every image is bit-identical to its own forward.  A chunk stacks
    the memo's decoder prefixes if every sample has one, else its embeddings
    if every sample has one, else it encodes the whole chunk.
    """
    scores = []
    for chunk in _chunks(samples, EVAL_BATCH):
        reused = [inputs(s) if inputs is not None else (_click(s, seed), None, None) for s in chunk]
        prompts, embeddings, prefixes = zip(*reused)
        images = np.stack([s.image for s in chunk])
        prefix = embedding = None
        with no_grad():
            if all(p is not None for p in prefixes):
                prefix = DecoderState(stack(p.tokens for p in prefixes), stack(p.dense for p in prefixes))
            elif all(e is not None for e in embeddings):
                embedding = stack(embeddings)
        pred = model.predict(images, prompts, embedding, prefix)
        scores += [compute_iou(mask, s.mask) for mask, s in zip(pred.mask, chunk)]
    return EvalResult.from_scores(scores)


def _frozen_inputs(model: SegmentationModel, seed: int, samples: Sequence[Sample]) -> Inputs:
    """``inputs(sample)``: the (prompts, image embedding, decoder prefix)
    triple a forward of one of ``samples`` may use within one stage call.

    Everything is decided here, once.  Each sample's seeded click is drawn
    and kept whatever trains.  With the tape on, the first sample's image is
    encoded as the tape's probe.  An embedding that comes back off the tape
    (no ``requires_grad``) was fed by no trainable parameter, hook or LoRA
    delta, so it stays valid while the caller trains: every sample's
    embedding is kept -- SAM's split: the heavy image encoder once per
    image, the prompt encoder and decoder once per prompt.  Every decoder
    prefix (layer 0's state and layer 1's self-attended tokens) is kept too
    if the first one comes back off the tape.  The first sample keeps its
    values as they came back; the rest are encoded ``EVAL_BATCH`` images per
    stacked no-grad forward, each image bit-identical to its own forward.
    Otherwise, or when built under ``no_grad`` (where every result is off
    the tape), only the clicks are kept and each forward encodes for itself.
    The caller must not change frozen weights, or which weights train, while
    it uses the memo.

    Under ``decoder_ft`` the probe's prefix comes back on the tape (34
    nodes, once per call) and is dropped.  It is the tape's verdict: telling
    beforehand whether the prefix would be kept needs rules on parameter
    names that say what feeds it, a second source of truth beside the tape.
    """
    unique = list({id(s): s for s in samples}.values())
    clicks = [_click(s, seed) for s in unique]
    embeddings: list[Tensor | None] = [None] * len(unique)
    prefixes: list[DecoderState | None] = [None] * len(unique)
    if grad_enabled():
        embedding = model.encode_image(unique[0].image)
        if not embedding.requires_grad:
            prefix = model.decoder_prefix(embedding, model.encode_prompts(clicks[0]))
            keep_prefix = not (prefix.tokens.requires_grad or prefix.dense.requires_grad)
            embeddings[0], prefixes[0] = embedding, prefix if keep_prefix else None
            with no_grad():
                for start in range(1, len(unique), EVAL_BATCH):
                    part = slice(start, start + EVAL_BATCH)
                    stacked = model.encode_image(np.stack([s.image for s in unique[part]]))
                    embeddings[part] = [Tensor(e) for e in stacked.data]
                    if keep_prefix:
                        state = model.decoder_prefix(stacked, model.encode_prompts(clicks[part]))
                        prefixes[part] = [
                            DecoderState(Tensor(t), Tensor(d)) for t, d in zip(state.tokens.data, state.dense.data)
                        ]
    # Keyed on object identity; each entry keeps its sample alive so the id
    # cannot be reused by another object.
    memo = {id(s): (s, (c, e, p)) for s, c, e, p in zip(unique, clicks, embeddings, prefixes)}
    return lambda s: memo[id(s)][1]


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
    write_file(checkpoint, weights)
    write_json(_meta_path(checkpoint), {
        "meta_version": META_VERSION,
        "method": method,
        "seed": seed,
        "model": asdict(model_cfg),
        "adapter": asdict(adapter_cfg) if adapter_cfg else None,
        "lora": asdict(lora_cfg) if lora_cfg else None,
    })


def load_model(checkpoint: str | Path) -> tuple[SegmentationModel, dict]:
    """Rebuild the trained model from a checkpoint plus its JSON sidecar."""
    # Parsed first, so a missing checkpoint is named as one; its raw bytes are dropped here.
    values = load_bytes(read_file(checkpoint, "checkpoint"))
    meta_path = _meta_path(checkpoint)
    meta = read_json_object(meta_path, "checkpoint sidecar")
    if meta.get("meta_version") != META_VERSION:
        raise ValidationError(f"unsupported checkpoint meta version in {meta_path}")
    for key in ("model", "method"):
        if key not in meta:
            raise ValidationError(f"checkpoint sidecar {meta_path} lacks key {key!r}")
    if not isinstance(meta["method"], str):
        raise ValidationError(f"checkpoint sidecar {meta_path} names no method: {meta['method']!r}")
    model_cfg = overlay(ModelConfig(), meta["model"])
    adapter_cfg = overlay(AdapterConfig(), meta["adapter"]) if meta.get("adapter") else None
    lora_cfg = overlay(LoraConfig(), meta["lora"]) if meta.get("lora") else None
    # Each parameter is checked against the checkpoint as it is declared, so
    # a sidecar that describes another model costs no more than the
    # checkpoint.  restore below is strict, so it replaces every value:
    # drawing them is waste.
    shapes = {name: value.shape for name, value in values.items()}
    model = SegmentationModel(model_cfg, draw=False, expected=shapes)
    attach_method(model, meta["method"], adapter_cfg, lora_cfg)
    model.registry.expected = None  # a caller may attach more, as TTDA does
    restore(model.registry, values)
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


def _chunks(order: Sequence, size: int):
    for start in range(0, len(order), size):
        yield order[start : start + size]


def train_supervised(cfg: RunConfig, data_root: str | Path, out_dir: str | Path) -> dict:
    """AdamW over the supervised loss on source training data.

    Audits that frozen parameters never moved, then writes the weights of
    the best-validation epoch as checkpoint + sidecar + a JSON fragment
    into out_dir.
    """
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

    # An init_from checkpoint replaces every value before the method attaches.
    model = SegmentationModel(cfg.model, draw=not cfg.train.init_from)
    if cfg.train.init_from:
        restore(model.registry, load_bytes(read_file(cfg.train.init_from, "init_from checkpoint")))
    adapter_cfg, lora_cfg = attach_method(
        model, cfg.train.method, cfg.adapter, cfg.lora, seed=cfg.train.seed
    )
    # Writing an empty checkpoint and its sidecar now makes out_dir, so a bad
    # one fails before any training, and a run that fails leaves no earlier
    # run's weights beside the new sidecar.
    seed = cfg.train.seed
    checkpoint = out_dir / "checkpoint.sdck"
    save_checkpoint(checkpoint, b"", cfg.train.method, cfg.model, adapter_cfg, lora_cfg, seed)
    trainable, total = model.registry.param_count(trainable_only=True), model.registry.param_count()

    # Compared as checkpoint bytes: a NaN that never moves passes, a 0.0 that
    # turns into -0.0 does not.
    frozen_before = {
        name: float32_bytes(model.registry.get(name).data)
        for name in model.registry.names()
        if not model.registry.param(name).trainable
    }

    opt = AdamWState(lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([_SHUFFLE_TAG, seed]))
    inputs = _frozen_inputs(model, seed, [*val_samples, *train_samples])

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
                out = model.forward(s.image, *inputs(s))
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

    write_file(checkpoint, best_bytes)
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
    write_json(out_dir / "fragment_train.json", fragment)
    return fragment


def evaluate_checkpoint(
    checkpoint: str | Path,
    data_root: str | Path,
    domain: str,
    split: str,
    seed: int = 0,
    report_path: str | Path | None = None,
) -> dict:
    check_int(seed, "eval seed", 0)
    if report_path is not None:
        write_file(report_path, b"")  # a path that cannot be written fails before the pass
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
        write_json(report_path, fragment)
    return fragment


# -- test-time adaptation ---------------------------------------------------------------


def _unadapted(model: SegmentationModel, inputs: Inputs, s: Sample) -> tuple[Tensor, np.ndarray]:
    """A slice's logits and pooled dense embedding under the weights the
    model holds; ``run_ttda`` calls it only while those are the reference."""
    with no_grad():
        out = model.forward(s.image, *inputs(s))
    return out.logits, out.dense.data.mean(axis=0)


def _ttda_sample(
    model: SegmentationModel,
    s: Sample,
    cfg: RunConfig,
    inputs: Inputs,
    unadapted: dict[tuple[int, int], tuple[Tensor, np.ndarray]],
) -> dict:
    """Adapt the model to one sample and return the sample's record.

    ``unadapted`` maps (volume id, slice index) to ``_unadapted`` of that
    slice: the sample's own start, its positive and its negatives.  Leaves
    the adapted weights in place; the caller restores them.  A sample to
    which no weighted term applies stays unadapted, and no forward of it runs.
    """
    settings = cfg.ttda
    q = cfg.loss.confidence_fraction
    v, i = s.volume_id, s.slice_index
    first_logits, _ = unadapted[v, i]
    with no_grad():
        entropy_before = confident_entropy_loss(first_logits, q).item()
    snapshot = first_logits.data
    iou_before = compute_iou(mask_from_logits(snapshot), s.mask)

    record = {
        "volume_id": v,
        "slice_index": i,
        "iou_before": iou_before,
        "iou_after": iou_before,
        "entropy_before": entropy_before,
        "entropy_after": entropy_before,
    }
    positive = next(
        (
            unadapted[v, i + d][1]
            for d in (settings.positive_offset, -settings.positive_offset)
            if (v, i + d) in unadapted
        ),
        None,
    )
    # Ascending slice order: the contrastive loss sums its negatives in it.
    negatives = [
        unadapted[key][1]
        for key in sorted(unadapted)
        if key[0] == v and abs(key[1] - i) >= settings.negative_min_offset
    ]
    contrast = settings.lambda_contrastive if positive is not None and negatives else 0.0
    if not any((settings.lambda_entropy, settings.lambda_proximity, contrast)):
        return record  # no weighted term applies: no forward runs and the sample stays unadapted

    opt = AdamWState(lr=settings.lr, weight_decay=0.0)
    for _ in range(settings.iterations):
        out = model.forward(s.image, *inputs(s))
        entropy = confident_entropy_loss(out.logits, q)
        proximity = proximity_loss(
            out.logits, snapshot, gamma=cfg.loss.focal_gamma, smooth=cfg.loss.dice_smooth
        )
        terms = [(settings.lambda_entropy, entropy), (settings.lambda_proximity, proximity)]
        if contrast:
            contrastive = slice_contrastive_loss(
                out.dense.mean(axis=0), positive, negatives, temperature=cfg.loss.temperature
            )
            terms.append((contrast, contrastive))
        loss = weighted_sum(terms)
        if not math.isfinite(loss.item()):
            raise ValidationError(
                f"non-finite TTDA loss {loss.item()} on sample (volume {v}, slice {i}) "
                f"at lr {settings.lr}"
            )
        backward(loss)
        model.registry.fill_missing_grads()
        adamw_step(model.registry, opt)
    with no_grad():
        final = model.forward(s.image, *inputs(s))
        record["entropy_after"] = confident_entropy_loss(final.logits, q).item()
    record["iou_after"] = compute_iou(mask_from_logits(final.logits.data), s.mask)
    return record


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
    if report_path is not None:
        write_file(report_path, b"")  # a path that cannot be written fails before the pass
    settings = cfg.ttda
    manifest = load_manifest(data_root)
    samples = load_split(data_root, manifest, settings.split)

    model, meta = load_model(checkpoint)
    if not any(n.startswith("adapter.") for n in model.registry.names()):
        attach_method(model, "sam_da_dec", cfg.adapter, None, seed=settings.seed)
    # Serialized once.  A sample changes only the parameters that train, so
    # only those are reset; the audit still covers every parameter.
    reference = byte_reference(model.registry)
    trained = {p.name: p.tensor.data.copy() for p in model.registry.trainable_parameters()}

    records = []
    # The tape is freed by reference count, so the samples leave the cyclic
    # collector nothing to find (a 100-sample call: 3 objects).  It is paused
    # for the loop: each pass it would run lands on one sample's latency.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for run in _volume_runs(samples):
            # Memos live for one volume: a sample's positive and negatives are
            # slices of its own volume.  Every slice's unadapted forward runs
            # before any sample adapts, so all run under the reference weights.
            inputs = _frozen_inputs(model, settings.seed, run)
            unadapted = {(s.volume_id, s.slice_index): _unadapted(model, inputs, s) for s in run}
            for s in run:
                records.append(_ttda_sample(model, s, cfg, inputs, unadapted))
                restore(model.registry, trained, strict=False)
                difference = first_difference(model.registry, reference)
                if difference is not None:
                    raise IntegrityError(
                        f"weights after restoring sample (volume {s.volume_id}, slice "
                        f"{s.slice_index}) differ from the checkpoint in {difference}"
                    )
    finally:
        if collecting:
            gc.enable()

    before = [r["iou_before"] for r in records]
    after = [r["iou_after"] for r in records]
    improved = [entropy_improved(r["entropy_before"], r["entropy_after"]) for r in records]
    adapt = any((settings.lambda_entropy, settings.lambda_proximity, settings.lambda_contrastive))
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
        write_json(report_path, fragment)
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
    if not seeds:
        raise ValidationError("an ablation needs at least one seed")
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
        cell = {}
        for key in ("source_iou", "target_iou"):
            cell[f"{key}_mean"], cell[f"{key}_std"] = seed_summary([r[key] for r in rows])
        summary[name] = {**cell, "trainable_params": rows[0]["trainable_params"]}
    report = {"kind": "ablation", "axis": axis, "runs": runs, "summary": summary}
    write_json(out_dir / f"ablation_{axis}.json", report)
    return report
