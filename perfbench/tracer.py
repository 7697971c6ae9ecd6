"""Span tracer installed from outside the package.

Wrappers replace public functions as module (or class) attributes, so every
call the engine makes through that name opens a span.  Spans are kept in
memory as ``(id, name, start, end, parent_id)`` and written out once, at the
end of a run.  A span's self time is its duration minus the durations of its
direct children; summed over a stage's whole subtree, self times add up to
the stage's wall time, so the layers' shares are exact up to the wrappers'
own cost.

Counts (calls, flops, bytes, ...) are taken inside the wrappers from the
arguments and results, never from the clock, so they repeat exactly for the
same inputs.
"""

from __future__ import annotations

import hashlib
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import segadapt.adapter
import segadapt.data
import segadapt.engine
import segadapt.tensor
from segadapt.model import SegmentationModel
from segadapt.params import ParameterRegistry

LAYERS = ("data", "model", "adapter", "tensor", "losses", "params", "checkpoint", "engine")


def _matmul_flops(counts, args, result):
    a, b = args[0].shape, args[1].shape
    batch = a[0] if len(a) == 3 else 1
    counts["tensor.matmul.flops"] += 2 * batch * a[-2] * a[-1] * b[-1]


def _gelu_elements(counts, args, result):
    counts["tensor.gelu.elements"] += args[0].data.size


def _adamw_params(counts, args, result):
    counts["params.adamw_step.params_updated"] += args[0].param_count(trainable_only=True)


def _restore_bytes(counts, args, result):
    source = args[1]
    if isinstance(source, (bytes, bytearray)):
        size = len(source)
    elif isinstance(source, dict):
        size = sum(v.nbytes for v in source.values())
    else:
        size = os.path.getsize(source)
    counts["checkpoint.restore.bytes_parsed"] += size


def _dump_bytes(counts, args, result):
    counts["checkpoint.dump_bytes.bytes"] += len(result)


def _dataset_samples(counts, args, result):
    counts["data.generate_dataset.samples"] += sum(s["count"] for s in result["splits"].values())


# (owner, attribute, span name, count hook).  Engine-namespace entries are the
# names engine.py imported from the other modules: patching them there is what
# the engine's own calls resolve to.
TARGETS = [
    (segadapt.data, "generate_dataset", "data.generate_dataset", _dataset_samples),
    (segadapt.engine, "load_manifest", "data.load_manifest", None),
    (segadapt.engine, "load_split", "data.load_split", None),
    (SegmentationModel, "predict", "model.predict", None),
    (SegmentationModel, "forward", "model.forward", None),
    (SegmentationModel, "encode_image", "model.encode_image", None),
    (SegmentationModel, "encode_prompts", "model.encode_prompts", None),
    (SegmentationModel, "decode", "model.decode", None),
    (segadapt.adapter, "adapter_apply", "adapter.adapter_apply", None),
    (segadapt.adapter, "apply_freeze_policy", "adapter.apply_freeze_policy", None),
    (segadapt.engine, "apply_freeze_policy", "adapter.apply_freeze_policy", None),
    (segadapt.engine, "attach_decoder_adapter", "adapter.attach_decoder_adapter", None),
    (segadapt.tensor, "matmul", "tensor.matmul", _matmul_flops),
    (segadapt.tensor, "gelu", "tensor.gelu", _gelu_elements),
    (segadapt.engine, "backward", "tensor.backward", None),
    (segadapt.engine, "supervised_loss", "losses.supervised_loss", None),
    (segadapt.engine, "confident_entropy_loss", "losses.confident_entropy_loss", None),
    (segadapt.engine, "proximity_loss", "losses.proximity_loss", None),
    (segadapt.engine, "slice_contrastive_loss", "losses.slice_contrastive_loss", None),
    (segadapt.engine, "compute_iou", "losses.compute_iou", None),
    (segadapt.engine, "adamw_step", "params.adamw_step", _adamw_params),
    (ParameterRegistry, "fill_missing_grads", "params.fill_missing_grads", None),
    (segadapt.engine, "restore", "checkpoint.restore", _restore_bytes),
    (segadapt.engine, "dump_bytes", "checkpoint.dump_bytes", _dump_bytes),
    (segadapt.engine, "train_supervised", "engine.train_supervised", None),
    (segadapt.engine, "evaluate_checkpoint", "engine.evaluate_checkpoint", None),
    (segadapt.engine, "evaluate_model", "engine.evaluate_model", None),
    (segadapt.engine, "run_ttda", "engine.run_ttda", None),
    (segadapt.engine, "load_model", "engine.load_model", None),
    (segadapt.engine, "interior_prompt", "engine.interior_prompt", None),
    (segadapt.engine, "save_checkpoint", "engine.save_checkpoint", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    """Collects spans, per-name self time and counts while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Encoder passes and distinct images, per stage (root span name).
        self._passes: dict[str, int] = defaultdict(int)
        self._images: dict[str, set[bytes]] = defaultdict(set)
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        tracer = self
        is_encode = name == "model.encode_image"

        def wrapped(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            if is_encode and stack:
                stage = stack[0][2]
                tracer._passes[stage] += 1
                tracer._images[stage].add(hashlib.blake2b(args[1].tobytes(), digest_size=16).digest())
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                tracer.spans.append((span_id, name, start, end, parent[1] if parent else -1))
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapped

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def root_wall_s(self) -> float:
        return sum(end - start for _, _, start, end, parent in self.spans if parent == -1)

    def metrics(self) -> dict[str, float]:
        """Per-name and per-layer calls, self time and counts."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for layer in LAYERS:
            names = [n for n in SPAN_NAMES if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(self.calls.get(n, 0) for n in names)
            out[f"{layer}.self_s"] = sum(self.self_s.get(n, 0.0) for n in names)
        out.update(self.counts)
        for key in ("tensor.matmul.flops", "tensor.gelu.elements", "params.adamw_step.params_updated",
                    "checkpoint.restore.bytes_parsed", "checkpoint.dump_bytes.bytes",
                    "data.generate_dataset.samples"):
            out.setdefault(key, 0)
        # The main stage's reuse of images; evaluation sees each image once.
        stages = [s for s in ("engine.train_supervised", "engine.run_ttda") if s in self._passes]
        images = sum(len(self._images[s]) for s in stages)
        out["model.encode_image.distinct_images"] = images
        out["model.encode_image.passes_per_image"] = (
            sum(self._passes[s] for s in stages) / images if images else 0.0
        )
        wall = self.root_wall_s()
        out["trace.stage_wall_s"] = wall
        # Engine self time is the remainder no layer below it accounts for.
        out["trace.coverage"] = 1.0 - out["engine.self_s"] / wall if wall else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """One line per span: id, name, start and end (ns), parent id (-1 at a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(f"{span_id}\t{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\t{parent}\n")
        os.replace(tmp, path)
