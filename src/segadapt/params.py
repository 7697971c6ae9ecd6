"""Named parameters: registry, initialization, and the AdamW optimizer.

Parameters live in a flat registry keyed by unique dotted-path names.
Initialization draws come from a single counter-based 64-bit generator
(Philox) and are consumed in sorted-name order, so parameter values do not
depend on construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ContractError
from .tensor import Tensor


@dataclass(frozen=True)
class Init:
    """Declarative initializer; only random kinds consume generator draws."""

    kind: str
    std: float = 0.0
    value: float = 0.0

    @staticmethod
    def zeros() -> "Init":
        return Init("zeros")

    @staticmethod
    def constant(value: float) -> "Init":
        return Init("constant", value=value)

    @staticmethod
    def identity() -> "Init":
        return Init("identity")

    @staticmethod
    def normal(std: float) -> "Init":
        return Init("normal", std=std)

    @staticmethod
    def lecun() -> "Init":
        """Normal with std 1/sqrt(fan_in); fan_in is the first extent."""
        return Init("lecun")

    def materialize(self, shape: tuple[int, ...], rng: np.random.Generator | None, dtype):
        if self.kind == "zeros":
            return np.zeros(shape, dtype=dtype)
        if self.kind == "constant":
            return np.full(shape, self.value, dtype=dtype)
        if self.kind == "identity":
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ContractError(f"identity init needs a square matrix, got {shape}")
            return np.eye(shape[0], dtype=dtype)
        if self.kind == "normal":
            return (rng.standard_normal(shape) * self.std).astype(dtype)
        if self.kind == "lecun":
            fan_in = shape[0] if shape else 1
            return (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype)
        raise ContractError(f"unknown init kind {self.kind!r}")


@dataclass
class Parameter:
    name: str
    tensor: Tensor
    init: Init
    trainable: bool = True


class ParameterRegistry:
    """Flat mapping of dotted-path names to parameters."""

    def __init__(self, dtype=np.float32):
        if dtype not in (np.float32, np.float64):
            raise ContractError(f"registry dtype must be float32 or float64, got {dtype}")
        self.dtype = dtype
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, shape: tuple[int, ...], init: Init, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        tensor = Tensor(np.zeros(tuple(shape), dtype=self.dtype), requires_grad=trainable)
        param = Parameter(name, tensor, init, trainable)
        self._params[name] = param
        return param

    def initialize(self, seed, only: Iterable[str] | None = None) -> None:
        """Fill parameter values; draws are ordered by parameter name.

        Values are drawn in float64 and cast to the registry dtype so the two
        precisions see the same numbers (up to rounding).
        """
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        names = sorted(self._params) if only is None else sorted(set(only))
        for name in names:
            param = self._params[name]
            data = param.init.materialize(param.tensor.shape, rng, np.float64)
            param.tensor.data = np.ascontiguousarray(data.astype(self.dtype)).reshape(data.shape)

    # -- access ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def get(self, name: str) -> Tensor:
        try:
            return self._params[name].tensor
        except KeyError:
            raise ContractError(f"unknown parameter {name!r}") from None

    def param(self, name: str) -> Parameter:
        try:
            return self._params[name]
        except KeyError:
            raise ContractError(f"unknown parameter {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._params)

    def parameters(self) -> Iterator[Parameter]:
        for name in sorted(self._params):
            yield self._params[name]

    def trainable_parameters(self) -> Iterator[Parameter]:
        return (p for p in self.parameters() if p.trainable)

    # -- training support -------------------------------------------------------

    def set_trainable(self, predicate: Callable[[str], bool]) -> None:
        for param in self._params.values():
            param.trainable = bool(predicate(param.name))
            param.tensor.requires_grad = param.trainable

    def zero_grads(self) -> None:
        for param in self._params.values():
            param.tensor.grad = None

    def fill_missing_grads(self) -> None:
        """Zero-fill grads of trainable parameters that did not participate
        in the last forward pass (e.g. an unused label-embedding row path)."""
        for param in self._params.values():
            if param.trainable and param.tensor.grad is None:
                param.tensor.grad = np.zeros_like(param.tensor.data)

    def param_count(self, trainable_only: bool = False) -> int:
        return sum(
            p.tensor.data.size
            for p in self._params.values()
            if p.trainable or not trainable_only
        )


# -- AdamW ---------------------------------------------------------------------


@dataclass
class AdamWState:
    """Optimizer state: decoupled weight decay, bias-corrected moments."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(registry: ParameterRegistry, state: AdamWState) -> None:
    """One update over every trainable parameter; grads are cleared after.

    Weight decay is applied to the weights directly (never to the gradient),
    so lr == 0 is a strict no-op on parameter values.  A trainable parameter
    without a populated gradient is a caller error.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for param in registry.trainable_parameters():
        g = param.tensor.grad
        if g is None:
            raise ContractError(f"trainable parameter {param.name!r} has no gradient")
        m = state.m.get(param.name)
        v = state.v.get(param.name)
        if m is None:
            m = np.zeros_like(param.tensor.data)
            v = np.zeros_like(param.tensor.data)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[param.name] = m
        state.v[param.name] = v
        w = param.tensor.data
        if state.weight_decay:
            w = w - state.lr * state.weight_decay * w
        w = w - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        param.tensor.data = w.astype(param.tensor.data.dtype, copy=False)
    for param in registry.trainable_parameters():
        param.tensor.grad = None
