"""Promptable single-mask segmentation model at desk scale.

A small ViT encoder turns the image into a grid of embeddings, point prompts
become tokens (sinusoidal position code plus a learned label embedding), and
a two-way transformer decoder exchanges information between tokens and the
dense grid before upsampling back to pixel resolution.  The decoder exposes a
hook on its dense-embedding output per layer and the encoder a hook per
block; the adapter module wires into these.

Every entry point takes one image or a stack of them: an image [S, S] and
its ``PromptSet``, or images [B, S, S] and a sequence of B prompt sets with
equal point counts.  Every array of a stack's forward then carries a leading
image axis, and each image's values are bit-identical to its own forward
(see ``tensor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, ValidationError
from .losses import mask_from_logits
from .params import Init, ParameterRegistry, check_seed
from .tensor import (
    Tensor,
    attention,
    concat,
    gather_rows,
    layer_norm,
    linear,
    no_grad,
)


POSITIVE = 1
NEGATIVE = 0


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 64
    patch_size: int = 8
    enc_dim: int = 128
    enc_depth: int = 6
    enc_heads: int = 4
    dec_dim: int = 64
    dec_depth: int = 2
    dec_heads: int = 2
    num_mask_tokens: int = 1
    mlp_ratio: int = 4
    seed: int = 0

    def __post_init__(self):
        # Sizes first: the divisibility checks below divide by them.
        if self.patch_size < 2 or self.patch_size & (self.patch_size - 1):
            raise ValidationError(f"patch_size {self.patch_size} must be a power of two >= 2")
        if self.image_size <= 0 or self.image_size % self.patch_size:
            raise ValidationError(
                f"image_size {self.image_size} must be a positive multiple of patch_size {self.patch_size}"
            )
        if min(self.enc_dim, self.enc_heads, self.enc_depth,
               self.dec_dim, self.dec_heads, self.dec_depth, self.mlp_ratio) < 1:
            raise ValidationError("dims, heads, depths and mlp_ratio must be >= 1")
        check_seed(self.seed, "model seed")
        if self.enc_dim % self.enc_heads:
            raise ValidationError(f"enc_dim {self.enc_dim} not divisible by enc_heads {self.enc_heads}")
        if self.dec_dim % self.dec_heads:
            raise ValidationError(f"dec_dim {self.dec_dim} not divisible by dec_heads {self.dec_heads}")
        if self.dec_dim % 4:
            raise ValidationError(f"dec_dim {self.dec_dim} must be divisible by 4 for the position code")
        if self.dec_dim % (1 << self.upsample_stages):
            raise ValidationError(
                f"dec_dim {self.dec_dim} must be divisible by {1 << self.upsample_stages} "
                f"(one channel halving per upsample stage)"
            )
        if self.num_mask_tokens != 1:
            raise ValidationError("single-mask model: num_mask_tokens must be 1")

    @property
    def grid_size(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid_size * self.grid_size

    @property
    def upsample_stages(self) -> int:
        return int(math.log2(self.patch_size))

    @property
    def pixel_feature_dim(self) -> int:
        return self.dec_dim >> self.upsample_stages


@dataclass(frozen=True)
class PromptSet:
    """Point prompts: (x, y, label) with label 1 = foreground, 0 = background."""

    points: tuple[tuple[float, float, int], ...]

    def __init__(self, points: Sequence[Sequence[float]]):
        object.__setattr__(self, "points", tuple(tuple(p) for p in points))

    def validate(self, image_size: int) -> None:
        if not self.points:
            raise ValidationError("prompt set must contain at least one point")
        for x, y, label in self.points:
            if not (0 <= x <= image_size - 1 and 0 <= y <= image_size - 1):
                raise ValidationError(
                    f"prompt point ({x}, {y}) outside image bounds [0, {image_size - 1}]"
                )
            if label not in (POSITIVE, NEGATIVE):
                raise ValidationError(f"prompt label must be 0 or 1, got {label}")

    def permuted(self, order: Sequence[int]) -> "PromptSet":
        return PromptSet([self.points[i] for i in order])


Prompts = PromptSet | Sequence[PromptSet]  # one image's prompt set, or a stack's


@dataclass
class DecoderState:
    """A stack's state carries the leading image axis on both tensors."""

    tokens: Tensor  # [2 + num_prompts, dec_dim]: mask token, IoU token, prompts
    dense: Tensor  # [num_patches, dec_dim]


@dataclass
class ForwardResult:
    """A stack's result carries the leading image axis on every tensor."""

    logits: Tensor  # [image_size, image_size]
    iou_pred: Tensor  # scalar in (0, 1)
    dense: Tensor  # final dense embeddings after the decoder (and hooks)


@dataclass
class MaskPrediction:
    """A stack's prediction holds [B, S, S] logits and B IoU estimates."""

    logits: np.ndarray
    iou_pred: float | np.ndarray

    @property
    def mask(self) -> np.ndarray:
        return mask_from_logits(self.logits)


class SegmentationModel:
    """Parameter registry plus the forward graph builders.

    With ``draw=False`` the parameters are declared but not drawn from
    ``cfg.seed``: every value stays zero, for a caller that restores all of
    them from a checkpoint (strictly, so none is left at zero) or only
    counts them.  The restore writes into the arrays declared here.
    ``expected`` becomes the registry's (see ``ParameterRegistry``).
    """

    def __init__(
        self,
        cfg: ModelConfig,
        dtype=np.float32,
        *,
        draw: bool = True,
        expected: Mapping[str, tuple[int, ...]] | None = None,
    ):
        self.cfg = cfg
        self.registry = ParameterRegistry(dtype=dtype, expected=expected)
        # Hook points used by the adapter/LoRA attachments.
        self.encoder_hook: Callable[[Tensor, int], Tensor] | None = None
        self.dense_hook: Callable[[Tensor, int], Tensor] | None = None
        self.lora_deltas: dict[str, tuple[Tensor, Tensor, float]] = {}
        self._declare_parameters()
        if draw:
            self.registry.initialize(cfg.seed)

    # -- parameter declaration -------------------------------------------------

    def _declare_attention(self, prefix: str, dim: int) -> None:
        for proj in ("query", "key", "value", "out"):
            self.registry.add(f"{prefix}.{proj}.weight", (dim, dim), Init.lecun())
            self.registry.add(f"{prefix}.{proj}.bias", (dim,), Init.zeros())

    def _declare_norm(self, prefix: str, dim: int) -> None:
        self.registry.add(f"{prefix}.gain", (dim,), Init.constant(1.0))
        self.registry.add(f"{prefix}.bias", (dim,), Init.zeros())

    def _declare_mlp(self, prefix: str, dim: int, hidden: int, out: int | None = None) -> None:
        self.registry.add(f"{prefix}.fc1.weight", (dim, hidden), Init.lecun())
        self.registry.add(f"{prefix}.fc1.bias", (hidden,), Init.zeros())
        self.registry.add(f"{prefix}.fc2.weight", (hidden, out or dim), Init.lecun())
        self.registry.add(f"{prefix}.fc2.bias", (out or dim,), Init.zeros())

    def _declare_parameters(self) -> None:
        cfg = self.cfg
        patch_dim = cfg.patch_size * cfg.patch_size
        reg = self.registry
        reg.add("encoder.patch_embed.weight", (patch_dim, cfg.enc_dim), Init.lecun())
        reg.add("encoder.patch_embed.bias", (cfg.enc_dim,), Init.zeros())
        reg.add("encoder.pos_embed", (cfg.num_patches, cfg.enc_dim), Init.normal(0.02))
        for i in range(cfg.enc_depth):
            p = f"encoder.block{i}"
            self._declare_norm(f"{p}.norm1", cfg.enc_dim)
            self._declare_attention(f"{p}.attn", cfg.enc_dim)
            self._declare_norm(f"{p}.norm2", cfg.enc_dim)
            self._declare_mlp(f"{p}.mlp", cfg.enc_dim, cfg.mlp_ratio * cfg.enc_dim)
        reg.add("encoder.neck.weight", (cfg.enc_dim, cfg.dec_dim), Init.lecun())
        reg.add("encoder.neck.bias", (cfg.dec_dim,), Init.zeros())

        reg.add("prompt.label_embed", (2, cfg.dec_dim), Init.normal(0.02))

        reg.add("decoder.mask_token", (1, cfg.dec_dim), Init.normal(0.02))
        reg.add("decoder.iou_token", (1, cfg.dec_dim), Init.normal(0.02))
        for i in range(cfg.dec_depth):
            p = f"decoder.layer{i}"
            self._declare_attention(f"{p}.self_attn", cfg.dec_dim)
            self._declare_norm(f"{p}.norm1", cfg.dec_dim)
            self._declare_attention(f"{p}.cross_token_to_image", cfg.dec_dim)
            self._declare_norm(f"{p}.norm2", cfg.dec_dim)
            self._declare_mlp(f"{p}.mlp", cfg.dec_dim, cfg.mlp_ratio * cfg.dec_dim)
            self._declare_norm(f"{p}.norm3", cfg.dec_dim)
            self._declare_attention(f"{p}.cross_image_to_token", cfg.dec_dim)
            self._declare_norm(f"{p}.norm4", cfg.dec_dim)
        chans = cfg.dec_dim
        for s in range(cfg.upsample_stages):
            reg.add(f"decoder.upsample{s}.weight", (chans, 2 * chans), Init.lecun())
            reg.add(f"decoder.upsample{s}.bias", (2 * chans,), Init.zeros())
            chans //= 2
        self._declare_mlp("decoder.mask_mlp", cfg.dec_dim, cfg.dec_dim, out=cfg.dec_dim)
        reg.add("decoder.mask_mlp.fc3.weight", (cfg.dec_dim, cfg.pixel_feature_dim), Init.lecun())
        reg.add("decoder.mask_mlp.fc3.bias", (cfg.pixel_feature_dim,), Init.zeros())
        self._declare_mlp("decoder.iou_mlp", cfg.dec_dim, cfg.dec_dim, out=cfg.dec_dim)
        reg.add("decoder.iou_mlp.fc3.weight", (cfg.dec_dim, 1), Init.lecun())
        reg.add("decoder.iou_mlp.fc3.bias", (1,), Init.zeros())

    # -- building blocks ---------------------------------------------------------

    def _proj(self, name: str, x: Tensor) -> Tensor:
        lora = self.lora_deltas.get(name)
        delta = None if lora is None else ((x @ lora[0]) @ lora[1]) * lora[2]
        return linear(x, self.registry.get(f"{name}.weight"), self.registry.get(f"{name}.bias"), delta)

    def _attention(self, prefix: str, heads: int, q_in: Tensor, k_in: Tensor, v_in: Tensor) -> Tensor:
        q = self._proj(f"{prefix}.query", q_in)
        k = self._proj(f"{prefix}.key", k_in)
        v = self._proj(f"{prefix}.value", v_in)
        scale = 1.0 / math.sqrt(q.shape[-1] // heads)
        return self._proj(f"{prefix}.out", attention(q, k, v, heads, scale))

    def _norm(self, prefix: str, x: Tensor) -> Tensor:
        return layer_norm(x, self.registry.get(f"{prefix}.gain"), self.registry.get(f"{prefix}.bias"))

    def _mlp(self, prefix: str, x: Tensor) -> Tensor:
        return self._proj(f"{prefix}.fc2", self._proj(f"{prefix}.fc1", x).gelu())

    def _head_mlp(self, prefix: str, x: Tensor) -> Tensor:
        h = self._proj(f"{prefix}.fc1", x).relu()
        return self._proj(f"{prefix}.fc3", self._proj(f"{prefix}.fc2", h).relu())

    # -- encoder -------------------------------------------------------------------

    def patch_tokens(self, image: np.ndarray) -> Tensor:
        """Pre-attention tokens: patchify, linear embed, add position embedding."""
        cfg = self.cfg
        image = np.asarray(image)
        size = (cfg.image_size, cfg.image_size)
        if image.shape[-2:] != size or image.ndim not in (2, 3):
            raise DimensionError(f"image shape {image.shape} is neither {size} nor a stack of {size}")
        g, p = cfg.grid_size, cfg.patch_size
        lead = image.shape[:-2]
        patches = (
            image.astype(self.registry.dtype)
            .reshape(lead + (g, p, g, p))
            .swapaxes(-3, -2)
            .reshape(lead + (cfg.num_patches, p * p))
        )
        return self._proj("encoder.patch_embed", Tensor(patches)) + self.registry.get("encoder.pos_embed")

    def encode_image(self, image: np.ndarray) -> Tensor:
        """The image's embedding grid, [num_patches, dec_dim]; [B, ...] for a stack."""
        cfg = self.cfg
        x = self.patch_tokens(image)
        for i in range(cfg.enc_depth):
            p = f"encoder.block{i}"
            h = self._norm(f"{p}.norm1", x)
            x = x + self._attention(f"{p}.attn", cfg.enc_heads, h, h, h)
            x = x + self._mlp(f"{p}.mlp", self._norm(f"{p}.norm2", x))
            if self.encoder_hook is not None:
                x = self.encoder_hook(x, i)
        return self._proj("encoder.neck", x)

    # -- prompts ---------------------------------------------------------------------

    def _position_code(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Sinusoidal code of normalized coordinates, log-spaced frequencies."""
        cfg = self.cfg
        n_freq = cfg.dec_dim // 4
        max_freq = max(2.0, cfg.image_size / 2.0)
        freqs = 2.0 ** np.linspace(0.0, math.log2(max_freq), n_freq)
        out = np.empty((xs.size, cfg.dec_dim), dtype=np.float64)
        for axis, coords in enumerate((xs, ys)):
            phase = 2.0 * math.pi * np.outer(coords / cfg.image_size, freqs)
            base = axis * 2 * n_freq
            out[:, base : base + n_freq] = np.sin(phase)
            out[:, base + n_freq : base + 2 * n_freq] = np.cos(phase)
        return out

    def encode_prompts(self, prompts: Prompts) -> Tensor:
        """One prompt set's tokens, [num_points, dec_dim]; [B, ...] for a
        sequence of B sets, which must hold equally many points."""
        cfg = self.cfg
        one = isinstance(prompts, PromptSet)
        sets = [prompts] if one else list(prompts)
        for s in sets:
            s.validate(cfg.image_size)
        counts = {len(s.points) for s in sets}
        if len(counts) != 1:
            raise DimensionError(f"a stack's prompt sets must hold equally many points, got {sorted(counts)}")
        count = counts.pop()
        shape = (count,) if one else (len(sets), count)
        points = [p for s in sets for p in s.points]
        xs = np.array([p[0] for p in points], dtype=np.float64)
        ys = np.array([p[1] for p in points], dtype=np.float64)
        labels = np.array([int(p[2]) for p in points]).reshape(shape)
        code = Tensor(self._position_code(xs, ys).astype(self.registry.dtype).reshape(shape + (cfg.dec_dim,)))
        return code + gather_rows(self.registry.get("prompt.label_embed"), labels)

    # -- decoder ------------------------------------------------------------------------

    def _self_attend(self, state: DecoderState, layer: int) -> DecoderState:
        """Layer ``layer``'s first sub-block, which reads the tokens alone."""
        p = f"decoder.layer{layer}"
        t = state.tokens
        t = self._norm(f"{p}.norm1", t + self._attention(f"{p}.self_attn", self.cfg.dec_heads, t, t, t))
        return DecoderState(tokens=t, dense=state.dense)

    def _exchange(self, state: DecoderState, layer: int) -> DecoderState:
        """The rest of layer ``layer``, from the tokens its first sub-block made."""
        cfg = self.cfg
        p = f"decoder.layer{layer}"
        t, d = state.tokens, state.dense
        t = self._norm(
            f"{p}.norm2", t + self._attention(f"{p}.cross_token_to_image", cfg.dec_heads, t, d, d)
        )
        t = self._norm(f"{p}.norm3", t + self._mlp(f"{p}.mlp", t))
        d = self._norm(
            f"{p}.norm4", d + self._attention(f"{p}.cross_image_to_token", cfg.dec_heads, d, t, t)
        )
        return DecoderState(tokens=t, dense=d)

    def twoway_layer(self, state: DecoderState, layer: int) -> DecoderState:
        """One token<->image exchange; residual + layer-norm per sub-block."""
        return self._exchange(self._self_attend(state, layer), layer)

    def _enter(self, state: DecoderState, layer: int) -> DecoderState:
        """``state`` with its tokens through layer ``layer``'s first
        sub-block, if the decoder has that layer."""
        return self._self_attend(state, layer) if layer < self.cfg.dec_depth else state

    def decoder_prefix(self, embedding: Tensor, prompt_tokens: Tensor) -> DecoderState:
        """The state after decoder layer 0, before its dense hook, with the
        tokens already through layer 1's self-attention: that sub-block
        reads only the tokens, which no dense hook touches."""
        reg = self.registry
        tokens = concat(
            [reg.get("decoder.mask_token"), reg.get("decoder.iou_token"), prompt_tokens], axis=-2
        )
        return self._enter(self.twoway_layer(DecoderState(tokens=tokens, dense=embedding), 0), 1)

    def decode(self, state: DecoderState) -> ForwardResult:
        """Continue from ``state``, the one ``decoder_prefix`` returned.

        Between layers the tokens run one sub-block ahead of the dense grid:
        each layer's exchange starts from tokens its self-attention made.
        """
        cfg = self.cfg
        for layer in range(cfg.dec_depth):
            if layer:
                state = self._enter(self._exchange(state, layer), layer + 1)
            if self.dense_hook is not None:
                state = DecoderState(state.tokens, self.dense_hook(state.dense, layer))

        feat = state.dense
        lead = feat.shape[:-2]
        # each token expands into a 2x2 spatial block with half the channels
        i = len(lead)
        expand = (*range(i), i, i + 2, i + 1, i + 3, i + 4)
        h = w = cfg.grid_size
        for s in range(cfg.upsample_stages):
            c = feat.shape[-1]
            feat = self._proj(f"decoder.upsample{s}", feat)
            feat = (
                feat.reshape(lead + (h, w, 2, 2, c // 2))
                .permute(expand)
                .reshape(lead + (2 * h * 2 * w, c // 2))
            )
            h, w = 2 * h, 2 * w

        mask_vec = self._head_mlp("decoder.mask_mlp", state.tokens[..., 0:1, :])  # [1, pixel_dim]
        logits = (feat @ mask_vec.T).reshape(lead + (cfg.image_size, cfg.image_size))
        iou_pred = self._head_mlp("decoder.iou_mlp", state.tokens[..., 1:2, :]).sigmoid().reshape(lead)
        return ForwardResult(logits=logits, iou_pred=iou_pred, dense=state.dense)

    # -- entry points ----------------------------------------------------------------------

    def forward(
        self,
        image: np.ndarray,
        prompts: Prompts,
        embedding: Tensor | None = None,
        prefix: DecoderState | None = None,
    ) -> ForwardResult:
        """Decode the prompts from ``prefix``, the state ``decoder_prefix``
        made of them, if given; else from the image's ``embedding``, encoded
        if not given.  A stack of images takes a stack of each."""
        if prefix is None:
            if embedding is None:
                embedding = self.encode_image(image)
            prefix = self.decoder_prefix(embedding, self.encode_prompts(prompts))
        return self.decode(prefix)

    def predict(
        self,
        image: np.ndarray,
        prompts: Prompts,
        embedding: Tensor | None = None,
        prefix: DecoderState | None = None,
    ) -> MaskPrediction:
        """``forward`` without a tape, as arrays."""
        with no_grad():
            result = self.forward(image, prompts, embedding, prefix)
        iou = result.iou_pred.data
        return MaskPrediction(logits=result.logits.data.copy(), iou_pred=float(iou) if iou.ndim == 0 else iou)
