"""The three protocol-stage workloads and the checks on their outputs.

Each workload has a set-up (dataset plus starting checkpoint, all derived from
the workload seed) and an iteration: its main stage followed by an
``evaluate_checkpoint`` pass over the checkpoint that stage used or wrote.
Every call goes through the public engine API by module attribute, so the
tracer's wrappers see it.  See README.md in this directory for why each
workload exists and which layer metrics should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import erf

import segadapt.adapter
import segadapt.data
import segadapt.engine as engine
from segadapt.checkpoint import dump_bytes
from segadapt.config import TOY_ADAPTER, DataSettings, RunConfig, TrainSettings
from segadapt.data import (
    SplitSizes,
    default_pretrain_domain,
    default_source_domain,
    default_target_domain,
)
from segadapt.model import ModelConfig, SegmentationModel

_SEED_TAG = 0x70657266

# Generalist-base stage: the gate's 200/50 train/val ratio at a fifth of the
# size, so one call fits several times into a run; three epochs give each
# call over 100 per-sample latencies, ten of them beyond p90.
BASE_SIZES = SplitSizes(source_train=40, source_val=10, source_test=30, target_val=10, target_test=30)
BASE_EPOCHS = 3
# Method stage: the gate's budget on the default splits.
METHOD_EPOCHS = 8
METHOD_LR = 3e-4
METHOD_TRAIN_SAMPLES = 30
# TTDA stage: ten whole volumes, so at least ten samples lie beyond p90.
TTDA_SIZES = SplitSizes(source_train=10, source_val=10, source_test=100, target_val=10, target_test=100)


@dataclass(frozen=True)
class Seeds:
    """Everything the workload seed decides: domains, model and training."""

    domain_a: int
    domain_b: int
    model: int
    train: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        state = np.random.SeedSequence([_SEED_TAG, seed]).generate_state(4)
        return cls(*(int(v) % 2**31 for v in state))


@dataclass
class Setup:
    data: Path
    cfg: RunConfig
    checkpoint: Path | None = None
    checkpoint_bytes: bytes = b""


@dataclass
class Iteration:
    """One pass of a workload's stages and what the checks made of it."""

    stage_wall_s: float = 0.0
    stage_samples: int = 0
    eval_wall_s: float = 0.0
    eval_images: int = 0
    # Per-sample latency and the kernel time (ms) measured around it.
    latencies: list[tuple[float, float]] = field(default_factory=list)
    # Median calibration-kernel time (ms) during the stage and during eval.
    stage_kernel_ms: float = 0.0
    eval_kernel_ms: float = 0.0
    eval_kernel_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    checkpoint: Path | None = None
    train_fragment: dict | None = None

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def calibration_kernel():
    """A fixed numpy/scipy kernel shaped like one encoder MLP block (~1 ms).

    It shares no code with segadapt, so no change to the package moves it;
    its time tracks only how fast the machine runs at that moment.
    """
    rng = np.random.default_rng(0)
    a = rng.random((64, 128), dtype=np.float32)
    b = rng.random((128, 512), dtype=np.float32) - 0.5
    c = rng.random((512, 128), dtype=np.float32)

    def kernel():
        h = a @ b
        return (h * 0.5 * (1.0 + erf(h * 0.70710678))) @ c

    return kernel


@dataclass
class Marks:
    """Sample-boundary timestamps and the kernel time spent at each one."""

    stamps: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)

    def intervals(self) -> list[tuple[float, float]]:
        """(seconds, local kernel ms) per pair of consecutive boundaries.

        The seconds leave out the kernel run at the later boundary.  The local
        kernel time is the median of the readings nearest the interval, which
        tracks the machine's speed second by second.
        """
        out = []
        for j, (a, b) in enumerate(zip(self.stamps, self.stamps[1:])):
            near = self.kernel_s[max(0, j - 4) : j + 6]
            out.append((b - a - self.kernel_s[j + 1], 1e3 * statistics.median(near)))
        return out


@contextlib.contextmanager
def boundary_clock(attr: str, kernel):
    """Timestamp every call the engine makes to ``engine.<attr>``.

    This is the only hook of an untraced iteration: at each sample boundary
    it runs the calibration kernel once, then takes a timestamp.  Callers
    subtract the kernel's time from what they measure.  With ``kernel`` None
    (a traced iteration) nothing is hooked.
    """
    marks = Marks()
    if kernel is None:
        yield marks
        return
    original = getattr(engine, attr)

    def stamped(*args, **kwargs):
        start = perf_counter()
        kernel()
        end = perf_counter()
        marks.kernel_s.append(end - start)
        marks.stamps.append(end)
        return original(*args, **kwargs)

    setattr(engine, attr, stamped)
    try:
        yield marks
    finally:
        setattr(engine, attr, original)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _is_iou(value) -> bool:
    return _finite(value) and 0.0 <= value <= 1.0


def _digest_part(fragment: dict, keys) -> dict:
    return {k: fragment[k] for k in keys}


def _digest(checkpoint_bytes: bytes, parts: list[dict]) -> str:
    h = hashlib.sha256(checkpoint_bytes)
    h.update(json.dumps(parts, sort_keys=True).encode())
    return h.hexdigest()


def _check_train(it: Iteration, frag: dict, expected: int, epochs: int) -> None:
    problems = []
    if frag["train_samples"] != expected:
        problems.append(f"train_samples {frag['train_samples']} != split size {expected}")
    if len(frag["loss_curve"]) != epochs or not all(map(_finite, frag["loss_curve"])):
        problems.append(f"loss curve not {epochs} finite values: {frag['loss_curve']}")
    if len(frag["val_curve"]) != epochs + 1 or not all(map(_is_iou, frag["val_curve"])):
        problems.append(f"val curve not {epochs + 1} IoUs in [0, 1]: {frag['val_curve']}")
    if not _is_iou(frag["best_val_iou"]):
        problems.append(f"best_val_iou {frag['best_val_iou']} outside [0, 1]")
    if problems:
        it.fail(1, "train stage: " + "; ".join(problems))


def _run_eval(it: Iteration, setup: Setup, checkpoint: Path, domain: str, seed: int, kernel) -> dict | None:
    expected = getattr(setup.cfg.data.sizes, f"{domain}_test")
    it.attempted += expected
    with boundary_clock("compute_iou", kernel) as marks:
        start = perf_counter()
        try:
            frag = engine.evaluate_checkpoint(checkpoint, setup.data, domain, "test", seed=seed)
        except Exception as exc:  # counted, reported, and the run is marked incorrect
            it.fail(expected, f"eval {domain}_test raised {exc!r}")
            return None
        it.eval_wall_s += perf_counter() - start - sum(marks.kernel_s)
    it.eval_kernel_s += marks.kernel_s
    if it.eval_kernel_s:
        it.eval_kernel_ms = 1e3 * statistics.median(it.eval_kernel_s)
    it.eval_images += expected
    if frag["count"] != expected or len(frag["per_image"]) != expected:
        it.fail(expected, f"eval {domain}_test counted {frag['count']} images, split has {expected}")
        return frag
    bad = sum(not _is_iou(v) for v in frag["per_image"])
    if bad:
        it.fail(bad, f"eval {domain}_test: {bad} IoUs outside [0, 1]")
    if not (_is_iou(frag["mean"]) and _finite(frag["std"])):
        it.fail(1, f"eval {domain}_test: mean {frag['mean']} / std {frag['std']} not finite IoU stats")
    return frag


def _kernel_median(it: Iteration, marks: Marks) -> None:
    if marks.kernel_s:
        it.stage_kernel_ms = 1e3 * statistics.median(marks.kernel_s)


_TRAIN_KEYS = ("method", "train_samples", "loss_curve", "val_curve", "best_val_iou",
               "trainable_params", "total_params")
_EVAL_KEYS = ("domain", "split", "count", "per_image", "mean", "std")
_TTDA_KEYS = ("split", "count", "per_sample", "mean_iou_before", "mean_iou_after",
              "entropy_improved_fraction")


class Workload:
    name = ""
    boundary: str | None = None

    def setup(self, root: Path, seeds: Seeds) -> Setup:
        raise NotImplementedError

    def iterate(self, setup: Setup, out: Path, kernel) -> Iteration:
        """One pass of the stages; ``kernel`` is the calibration kernel, or
        None in a traced iteration, which hooks nothing."""
        raise NotImplementedError

    def final_check(self, setup: Setup, last: Iteration) -> list[str]:
        """Reload the checkpoint a train stage wrote: its bytes must round-trip
        and its source_val IoU must equal the fragment's best_val_iou exactly."""
        frag = last.train_fragment
        raw = last.checkpoint.read_bytes()
        model, _ = engine.load_model(last.checkpoint)
        problems = []
        if dump_bytes(model.registry) != raw:
            problems.append("reloaded checkpoint does not re-serialize to its own bytes")
        manifest = segadapt.data.load_manifest(setup.data)
        val = segadapt.data.load_split(setup.data, manifest, "source_val")
        iou = engine.evaluate_model(model, val, setup.cfg.train.seed).mean
        if iou != frag["best_val_iou"]:
            problems.append(f"reloaded source_val IoU {iou!r} != best_val_iou {frag['best_val_iou']!r}")
        return problems


class _TrainWorkload(Workload):
    boundary = "supervised_loss"

    def iterate(self, setup: Setup, out: Path, kernel) -> Iteration:
        it = Iteration()
        cfg = setup.cfg
        it.attempted += 1
        with boundary_clock(self.boundary, kernel) as marks:
            start = perf_counter()
            try:
                frag = engine.train_supervised(cfg, setup.data, out)
            except Exception as exc:
                it.fail(1, f"train stage raised {exc!r}")
                return it
            it.stage_wall_s = perf_counter() - start - sum(marks.kernel_s)
        _kernel_median(it, marks)
        n = frag["train_samples"]
        expected = cfg.train.max_train_samples or cfg.data.sizes.source_train
        _check_train(it, frag, expected, cfg.train.epochs)
        it.stage_samples = n * cfg.train.epochs
        # One stamp per trained sample; intervals across an epoch boundary
        # also hold that epoch's validation pass, so they are left out.
        it.latencies = [v for j, v in enumerate(marks.intervals()) if (j + 1) % n]
        it.train_fragment = frag
        it.checkpoint = Path(frag["checkpoint"])
        parts = [_digest_part(frag, _TRAIN_KEYS)]
        for domain in ("source", "target"):
            ev = _run_eval(it, setup, it.checkpoint, domain, cfg.train.seed, kernel)
            if ev is not None:
                parts.append(_digest_part(ev, _EVAL_KEYS))
        it.digest = _digest(it.checkpoint.read_bytes(), parts)
        return it


class BaseFullFT(_TrainWorkload):
    """full_ft from the seeded initial model on a pretrain-family corpus."""

    name = "base_full_ft"

    def setup(self, root: Path, seeds: Seeds) -> Setup:
        pre = default_pretrain_domain(seed=seeds.domain_a)
        holdout = replace(pre, name="pretrain_holdout", seed=seeds.domain_b)
        data = root / "data"
        segadapt.data.generate_dataset(data, source=pre, target=holdout, sizes=BASE_SIZES)
        cfg = RunConfig(
            model=ModelConfig(seed=seeds.model),
            data=DataSettings(source=pre, target=holdout, sizes=BASE_SIZES),
            train=TrainSettings(method="full_ft", epochs=BASE_EPOCHS, seed=seeds.train),
        )
        return Setup(data=data, cfg=cfg.validate())


class MethodSamDaDec(_TrainWorkload):
    """sam_da_dec from a base checkpoint under the gate's method-stage budget."""

    name = "method_sam_da_dec"

    def setup(self, root: Path, seeds: Seeds) -> Setup:
        source = default_source_domain(seed=seeds.domain_a)
        target = default_target_domain(seed=seeds.domain_b)
        data = root / "data"
        segadapt.data.generate_dataset(data, source=source, target=target)
        model_cfg = ModelConfig(seed=seeds.model)
        # The starting base is the seeded initial model: a trained base costs
        # minutes, and the stage's work does not depend on the weight values.
        base = root / "base" / "checkpoint.sdck"
        weights = dump_bytes(SegmentationModel(model_cfg).registry)
        engine.save_checkpoint(base, weights, "full_ft", model_cfg, None, None, seeds.model)
        cfg = RunConfig(
            model=model_cfg,
            data=DataSettings(source=source, target=target),
            train=TrainSettings(
                method="sam_da_dec",
                epochs=METHOD_EPOCHS,
                lr=METHOD_LR,
                seed=seeds.train,
                init_from=str(base),
                max_train_samples=METHOD_TRAIN_SAMPLES,
            ),
        )
        return Setup(data=data, cfg=cfg.validate())


class TTDADec(Workload):
    """run_ttda with default settings from a sam_da_dec checkpoint."""

    name = "ttda_dec"
    boundary = "restore"

    def setup(self, root: Path, seeds: Seeds) -> Setup:
        source = default_source_domain(seed=seeds.domain_a)
        target = default_target_domain(seed=seeds.domain_b)
        data = root / "data"
        segadapt.data.generate_dataset(data, source=source, target=target, sizes=TTDA_SIZES)
        model_cfg = ModelConfig(seed=seeds.model)
        model = SegmentationModel(model_cfg)
        adapter_cfg = replace(TOY_ADAPTER, placement="decoder")
        segadapt.adapter.attach_decoder_adapter(model, adapter_cfg, seed=seeds.train)
        start = root / "start" / "checkpoint.sdck"
        weights = dump_bytes(model.registry)
        engine.save_checkpoint(start, weights, "sam_da_dec", model_cfg, adapter_cfg, None, seeds.train)
        base = RunConfig()
        cfg = RunConfig(
            model=model_cfg,
            data=DataSettings(source=source, target=target, sizes=TTDA_SIZES),
            train=replace(base.train, seed=seeds.train),
            ttda=replace(base.ttda, seed=seeds.train),
        )
        return Setup(data=data, cfg=cfg.validate(), checkpoint=start, checkpoint_bytes=weights)

    def iterate(self, setup: Setup, out: Path, kernel) -> Iteration:
        it = Iteration()
        cfg = setup.cfg
        expected = cfg.data.sizes.target_test
        # The unadapted baseline TTDA is judged against.
        evals = [_run_eval(it, setup, setup.checkpoint, domain, cfg.ttda.seed, kernel)
                 for domain in ("source", "target")]
        it.attempted += expected
        with boundary_clock(self.boundary, kernel) as marks:
            start = perf_counter()
            try:
                frag = engine.run_ttda(setup.checkpoint, setup.data, cfg)
            except Exception as exc:
                it.fail(expected, f"ttda raised {exc!r}")
                return it
            it.stage_wall_s = perf_counter() - start - sum(marks.kernel_s)
        _kernel_median(it, marks)
        it.stage_samples = frag["count"]
        # The first stamp is load_model's restore; each later one ends a sample.
        it.latencies = marks.intervals()
        records = frag["per_sample"]
        if frag["count"] != expected or len(records) != expected:
            it.fail(expected, f"ttda counted {frag['count']} samples, split has {expected}")
        else:
            bad = sum(
                not (_is_iou(r["iou_before"]) and _is_iou(r["iou_after"])
                     and _finite(r["entropy_before"]) and _finite(r["entropy_after"]))
                for r in records
            )
            if bad:
                it.fail(bad, f"ttda: {bad} samples with an IoU outside [0, 1] or a non-finite entropy")
        if not all(_is_iou(frag[k]) for k in ("mean_iou_before", "mean_iou_after", "entropy_improved_fraction")):
            it.fail(1, "ttda: summary means outside [0, 1]")
        parts = [_digest_part(frag, _TTDA_KEYS)]
        parts += [_digest_part(ev, _EVAL_KEYS) for ev in evals if ev is not None]
        it.digest = _digest(setup.checkpoint.read_bytes(), parts)
        return it

    def final_check(self, setup: Setup, last: Iteration) -> list[str]:
        """The starting checkpoint is untouched and reloads to its own bytes."""
        raw = setup.checkpoint.read_bytes()
        model, _ = engine.load_model(setup.checkpoint)
        problems = []
        if raw != setup.checkpoint_bytes:
            problems.append("starting checkpoint changed on disk during TTDA")
        if dump_bytes(model.registry) != raw:
            problems.append("reloaded starting checkpoint does not re-serialize to its own bytes")
        return problems


WORKLOADS = {w.name: w for w in (BaseFullFT(), MethodSamDaDec(), TTDADec())}
