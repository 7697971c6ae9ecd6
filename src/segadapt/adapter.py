"""Gated prompt-attention adapters, LoRA deltas, and freeze policies.

Each adapted layer owns a small bank of learnable prompt vectors.  The layer's
dense embeddings attend over that bank (embeddings as queries, prompts as keys
and values) and the result is folded back in through a scalar gate that starts
at zero, so a freshly attached adapter leaves the base model's outputs intact.

Each layer's parameters live in the model's registry under one scope
("adapter.dec<i>" or "adapter.enc<i>") and are read back from it by name, as
the model's own layers read theirs.  Attachment wires a hook that applies the
layer's scope into the model's dense/encoder path; the freeze policies key on
the "adapter." name prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ContractError, ValidationError
from .model import SegmentationModel
from .params import Init, ParameterRegistry, check_number, check_seed
from .tensor import Tensor, attention, linear

METHODS = ("full_ft", "decoder_ft", "lora", "sam_da_dec", "sam_da_enc")


@dataclass(frozen=True)
class AdapterConfig:
    num_prompts: int = 2
    prompt_dim: int = 512
    key_dim: int = 256
    value_dim: int = 256
    placement: str = "decoder"
    encoder_adapted_blocks: int | None = None
    init_scale: float = 0.02

    def __post_init__(self):
        if self.num_prompts < 1:
            raise ValidationError(f"num_prompts must be >= 1, got {self.num_prompts}")
        if min(self.prompt_dim, self.key_dim, self.value_dim) < 1:
            raise ValidationError("adapter dims must be >= 1")
        if self.placement not in ("decoder", "encoder"):
            raise ValidationError(f"placement must be 'decoder' or 'encoder', got {self.placement!r}")
        check_number(self.init_scale, "init_scale", 0.0, above=True)

    def resolved_encoder_blocks(self, enc_depth: int) -> int:
        # Default: adapt the final five-sixths of the blocks, rounded up.
        n = self.encoder_adapted_blocks
        if n is None:
            n = math.ceil(5 * enc_depth / 6)
        if not 1 <= n <= enc_depth:
            raise ValidationError(
                f"encoder_adapted_blocks {n} out of range [1, {enc_depth}]"
            )
        return n


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 4
    alpha: float | None = None  # defaults to 2 * rank
    targets: tuple[str, ...] = ("query", "value")

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        if self.alpha is not None:
            check_number(self.alpha, "LoRA alpha", 0.0, above=True)
        if not self.targets:
            raise ValidationError("at least one target projection required")
        for t in self.targets:
            if t not in ("query", "key", "value", "out"):
                raise ValidationError(f"unknown LoRA target {t!r}")

    @property
    def scaling(self) -> float:
        alpha = 2.0 * self.rank if self.alpha is None else self.alpha
        return alpha / self.rank


def declare_adapter_layer(
    registry: ParameterRegistry, scope: str, token_dim: int, cfg: AdapterConfig
) -> None:
    """Register one layer's adapter parameters under `scope`."""
    add = registry.add
    add(f"{scope}.prompts", (cfg.num_prompts, cfg.prompt_dim), Init.normal(cfg.init_scale))
    add(f"{scope}.gate", (), Init.zeros())
    add(f"{scope}.query.weight", (token_dim, cfg.key_dim), Init.lecun())
    add(f"{scope}.query.bias", (cfg.key_dim,), Init.zeros())
    # No key bias: softmax cancels a per-query additive constant.
    add(f"{scope}.key.weight", (cfg.prompt_dim, cfg.key_dim), Init.lecun())
    add(f"{scope}.value.weight", (cfg.prompt_dim, cfg.value_dim), Init.lecun())
    add(f"{scope}.value.bias", (cfg.value_dim,), Init.zeros())
    add(f"{scope}.proj.weight", (cfg.value_dim, token_dim), Init.lecun())
    add(f"{scope}.proj.bias", (token_dim,), Init.zeros())
    add(f"{scope}.post.weight", (token_dim, token_dim), Init.identity())
    add(f"{scope}.post.bias", (token_dim,), Init.zeros())


def adapter_attention(tokens: Tensor, registry: ParameterRegistry, scope: str) -> Tensor:
    """Embeddings attend over the prompt bank; scores divided by sqrt(value dim)."""
    g = registry.get
    prompts = g(f"{scope}.prompts")
    q = linear(tokens, g(f"{scope}.query.weight"), g(f"{scope}.query.bias"))
    k = prompts @ g(f"{scope}.key.weight")
    v = linear(prompts, g(f"{scope}.value.weight"), g(f"{scope}.value.bias"))
    scale = 1.0 / math.sqrt(v.shape[1])
    return linear(attention(q, k, v, 1, scale), g(f"{scope}.proj.weight"), g(f"{scope}.proj.bias"))


def adapter_apply(tokens: Tensor, registry: ParameterRegistry, scope: str) -> Tensor:
    """Gated correction then output projection: post(tokens + gate * attention)."""
    g = registry.get
    corrected = tokens + adapter_attention(tokens, registry, scope) * g(f"{scope}.gate")
    return linear(corrected, g(f"{scope}.post.weight"), g(f"{scope}.post.bias"))


def attach_decoder_adapter(model: SegmentationModel, cfg: AdapterConfig, seed: int = 0) -> None:
    """One adapter per decoder layer, applied to the dense-embedding output."""
    if cfg.placement != "decoder":
        raise ValidationError(f"decoder attachment requires placement 'decoder', got {cfg.placement!r}")
    if model.dense_hook is not None:
        raise ContractError("model already has a dense hook")
    check_seed(seed)
    reg = model.registry
    for i in range(model.cfg.dec_depth):
        declare_adapter_layer(reg, f"adapter.dec{i}", model.cfg.dec_dim, cfg)
    reg.initialize(seed, only=[n for n in reg.names() if n.startswith("adapter.dec")])
    model.dense_hook = lambda dense, layer: adapter_apply(dense, reg, f"adapter.dec{layer}")
    apply_freeze_policy(model, "sam_da_dec")


def attach_encoder_adapter(model: SegmentationModel, cfg: AdapterConfig, seed: int = 0) -> None:
    """Adapters on the final encoder blocks, applied to each block's tokens."""
    if cfg.placement != "encoder":
        raise ValidationError(f"encoder attachment requires placement 'encoder', got {cfg.placement!r}")
    if model.encoder_hook is not None:
        raise ContractError("model already has an encoder hook")
    check_seed(seed)
    depth = model.cfg.enc_depth
    first = depth - cfg.resolved_encoder_blocks(depth)
    reg = model.registry
    for i in range(first, depth):
        declare_adapter_layer(reg, f"adapter.enc{i}", model.cfg.enc_dim, cfg)
    reg.initialize(seed, only=[n for n in reg.names() if n.startswith("adapter.enc")])
    model.encoder_hook = lambda x, i: adapter_apply(x, reg, f"adapter.enc{i}") if i >= first else x
    apply_freeze_policy(model, "sam_da_enc")


def attach_lora(model: SegmentationModel, cfg: LoraConfig, seed: int = 0) -> None:
    """Low-rank deltas on encoder attention projections; up-projection zero-init."""
    if model.lora_deltas:
        raise ContractError("model already has LoRA deltas")
    check_seed(seed)
    dim = model.cfg.enc_dim
    if cfg.rank > dim:
        raise ValidationError(f"rank {cfg.rank} exceeds projection dim {dim}")
    reg = model.registry
    for i in range(model.cfg.enc_depth):
        for target in cfg.targets:
            scope = f"lora.block{i}.{target}"
            # initialize() below rebinds the values of these same tensors.
            down = reg.add(f"{scope}.down", (dim, cfg.rank), Init.lecun()).tensor
            up = reg.add(f"{scope}.up", (cfg.rank, dim), Init.zeros()).tensor
            model.lora_deltas[f"encoder.block{i}.attn.{target}"] = (down, up, cfg.scaling)
    reg.initialize(seed, only=[n for n in reg.names() if n.startswith("lora.")])
    apply_freeze_policy(model, "lora")


_POLICIES: dict[str, Callable[[str], bool]] = {
    "full_ft": lambda name: True,
    "decoder_ft": lambda name: name.startswith("decoder."),
    "lora": lambda name: name.startswith(("lora.", "decoder.")),
    "sam_da_dec": lambda name: name.startswith("adapter."),
    "sam_da_enc": lambda name: name.startswith(("adapter.", "decoder.")),
}


def trainable_predicate(method: str) -> Callable[[str], bool]:
    try:
        return _POLICIES[method]
    except KeyError:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}") from None


def apply_freeze_policy(model: SegmentationModel, method: str) -> tuple[int, int]:
    """Set trainability by name; returns (trainable, total) parameter counts."""
    reg = model.registry
    reg.set_trainable(trainable_predicate(method))
    return reg.param_count(trainable_only=True), reg.param_count()


def adapter_param_count(cfg: AdapterConfig, token_dim: int, layer_count: int) -> int:
    """Closed-form trainable-parameter count for the adapter attachment.

    Per layer: prompt bank, gate, query/key/value/output projections (key
    carries no bias), and the square post projection.
    """
    per_layer = (
        cfg.num_prompts * cfg.prompt_dim
        + 1
        + (token_dim * cfg.key_dim + cfg.key_dim)
        + cfg.prompt_dim * cfg.key_dim
        + (cfg.prompt_dim * cfg.value_dim + cfg.value_dim)
        + (cfg.value_dim * token_dim + token_dim)
        + (token_dim * token_dim + token_dim)
    )
    return per_layer * layer_count


def lora_param_count(cfg: LoraConfig, dim: int, blocks: int) -> int:
    """r * (d_in + d_out) per targeted projection."""
    return cfg.rank * (dim + dim) * len(cfg.targets) * blocks
