"""Named parameters: registry, initialization, and the AdamW optimizer.

Parameters live in a flat registry keyed by unique dotted-path names.
Initialization draws come from a single counter-based 64-bit generator
(Philox) and are consumed in sorted-name order, so parameter values do not
depend on construction order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import ContractError, ValidationError
from .tensor import Tensor


def check_seed(seed, what: str = "seed") -> None:
    """Refuse, with ValidationError, a seed that is not an int >= 0 (a bool
    is not one)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"{what} must be an int >= 0, got {seed!r}")


def check_number(value, what: str, low: float, *, above: bool = False, high: float | None = None) -> None:
    """Refuse, with ValidationError, a value that is not a finite real number
    >= ``low`` (> ``low`` if ``above``) and, if ``high`` is given, <= ``high``.
    Every float rule of a config goes through here, so none lets NaN or
    +-inf through (a bool is not a number)."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not (ok and (value > low if above else value >= low) and (high is None or value <= high)):
        bound = f"{'>' if above else '>='} {low}" + ("" if high is None else f" and <= {high}")
        raise ValidationError(f"{what} must be a finite number {bound}, got {value!r}")


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

    def check(self, shape: tuple[int, ...]) -> None:
        """Raise ContractError where ``materialize`` cannot fill ``shape``."""
        if self.kind not in ("zeros", "constant", "identity", "normal", "lecun"):
            raise ContractError(f"unknown init kind {self.kind!r}")
        if self.kind == "identity" and (len(shape) != 2 or shape[0] != shape[1]):
            raise ContractError(f"identity init needs a square matrix, got {shape}")

    def materialize(self, shape: tuple[int, ...], rng: np.random.Generator | None, dtype):
        """Values for a ``shape`` that ``check`` accepted."""
        if self.kind == "zeros":
            return np.zeros(shape, dtype=dtype)
        if self.kind == "constant":
            return np.full(shape, self.value, dtype=dtype)
        if self.kind == "identity":
            return np.eye(shape[0], dtype=dtype)
        if self.kind == "normal":
            return (rng.standard_normal(shape) * self.std).astype(dtype)
        fan_in = shape[0] if shape else 1  # lecun
        return (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype)


@dataclass
class Parameter:
    name: str
    tensor: Tensor
    init: Init

    @property
    def trainable(self) -> bool:
        return self.tensor.requires_grad


class ParameterRegistry:
    """Flat mapping of dotted-path names to parameters.

    ``add`` allocates each parameter's one array.  ``initialize`` and
    ``checkpoint.restore`` write values into it; only AdamW's gather
    (``_Bucket``) rebinds a ``.data``, to a view of its flat buffer that
    holds the same values.  A parameter trains exactly when its tensor
    ``requires_grad``.

    While ``expected`` maps names to shapes (those of a checkpoint the
    registry is built for), ``add`` refuses with ContractError, before it
    allocates anything, a parameter not named there with that shape: a
    model described wrongly for its checkpoint is refused at its first wrong
    parameter, in time and memory bounded by the checkpoint's.
    """

    def __init__(self, dtype=np.float32, expected: Mapping[str, tuple[int, ...]] | None = None):
        if dtype not in (np.float32, np.float64):
            raise ContractError(f"registry dtype must be float32 or float64, got {dtype}")
        self.dtype = dtype
        self.expected = expected
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, shape: tuple[int, ...], init: Init) -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        if self.expected is not None:
            if name not in self.expected:
                raise ContractError(f"checkpoint/registry mismatch: missing {[name]}")
            if tuple(shape) != self.expected[name]:
                raise ContractError(
                    f"shape mismatch for {name!r}: checkpoint {self.expected[name]}, registry {tuple(shape)}"
                )
        tensor = Tensor(np.zeros(tuple(shape), dtype=self.dtype), requires_grad=True)
        param = Parameter(name, tensor, init)
        self._params[name] = param
        return param

    def initialize(self, seed: int, only: Iterable[str] | None = None) -> None:
        """Fill parameter values; draws are ordered by parameter name.

        Values are drawn in float64 and cast to the registry dtype so the two
        precisions see the same numbers (up to rounding).  Everything a draw
        could refuse is checked before the first value is drawn, so a call
        that raises changes nothing; then each value is written, as it is
        drawn, into the parameter's own array.
        """
        check_seed(seed)
        names = sorted(self._params) if only is None else sorted(set(only))
        params = [self.param(name) for name in names]
        for param in params:
            param.init.check(param.tensor.shape)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        for param in params:
            param.tensor.data[...] = param.init.materialize(param.tensor.shape, rng, np.float64)

    # -- access ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._params

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
            param.tensor.requires_grad = bool(predicate(param.name))

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

# Trainable parameters are grouped, in name order, into buckets of at most
# this many values (a larger parameter gets a bucket of its own).  Each bucket
# holds its weights and both moments in flat buffers, and the scratch is one
# bucket long, so no buffer is the size of a full registry.
BUCKET_ELEMENTS = 1 << 16


@dataclass
class AdamWState:
    """Optimizer state: decoupled weight decay, bias-corrected moments.

    ``m`` and ``v`` map parameter names to views into the moment buffers of
    ``buckets``.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    buckets: list = field(default_factory=list, repr=False, compare=False)
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)


class _Bucket:
    """Consecutive trainable parameters gathered into flat buffers.

    Each parameter's values are copied into ``w`` and its ``.data`` rebound
    to a view of it; moments carry over by name from ``state.m``/``state.v``
    (zeros for a new name or shape), which then hold views of ``m``/``v``.
    """

    def __init__(self, params: list[Parameter], dtype, state: AdamWState):
        total = sum(p.tensor.data.size for p in params)
        self.w = np.empty(total, dtype=dtype)
        self.m = np.zeros(total, dtype=dtype)
        self.v = np.zeros(total, dtype=dtype)
        self.members: list[tuple[Parameter, int, np.ndarray]] = []  # (param, offset, bound view)
        start = 0
        for param in params:
            data = param.tensor.data
            span = slice(start, start + data.size)
            self.w[span] = data.reshape(-1)
            for flat, moments in ((self.m, state.m), (self.v, state.v)):
                old = moments.get(param.name)
                if old is not None and old.shape == data.shape:
                    flat[span] = old.reshape(-1)
                moments[param.name] = flat[span].reshape(data.shape)
            param.tensor.data = self.w[span].reshape(data.shape)
            self.members.append((param, start, param.tensor.data))
            start += data.size


def _gather(params: list[Parameter], dtype, state: AdamWState) -> list[_Bucket]:
    # One bucket at a time: the arrays a bucket releases can hold the next.
    buckets, group, size = [], [], 0
    for param in params:
        if group and size + param.tensor.data.size > BUCKET_ELEMENTS:
            buckets.append(_Bucket(group, dtype, state))
            group, size = [], 0
        group.append(param)
        size += param.tensor.data.size
    if group:
        buckets.append(_Bucket(group, dtype, state))
    return buckets


def _bound(buckets: list[_Bucket], params: list[Parameter]) -> bool:
    """Whether ``params`` are exactly the gathered parameters, each ``.data``
    still the view it was bound to.  ``restore`` and ``initialize`` write
    into that view, so only a caller that assigns ``.data`` unbinds it."""
    members = [member for bucket in buckets for member in bucket.members]
    return len(params) == len(members) and all(
        p is q and p.tensor.data is view for p, (q, _, view) in zip(params, members)
    )


def adamw_step(registry: ParameterRegistry, state: AdamWState) -> None:
    """One update over every trainable parameter; grads are cleared after.

    Weight decay is applied to the weights directly (never to the gradient),
    so lr == 0 is a strict no-op on parameter values.  A trainable parameter
    without a gradient of its own shape and dtype is a caller error.

    The update runs in place, bucket by bucket, with the same float ops in
    the same order per element as the textbook per-parameter form.
    Afterwards each trainable ``.data`` is a view into a bucket that later
    steps overwrite, so a caller wanting a snapshot copies it.  Values that
    ``restore`` or ``initialize`` write between steps land in that view and
    keep the buckets and moments.  Parameters are gathered again, keeping
    their current values, whenever the trainable set changed or a caller
    assigned a ``.data`` since the last step.
    """
    params = list(registry.trainable_parameters())
    for param in params:
        g = param.tensor.grad
        if g is None:
            raise ContractError(f"trainable parameter {param.name!r} has no gradient")
        if g.shape != param.tensor.data.shape or g.dtype != registry.dtype:
            raise ContractError(
                f"gradient of {param.name!r} is {g.dtype}{list(g.shape)}, "
                f"parameter is {np.dtype(registry.dtype)}{list(param.tensor.data.shape)}"
            )
    if not _bound(state.buckets, params):
        state.buckets = _gather(params, registry.dtype, state)
        largest = max((bucket.w.size for bucket in state.buckets), default=0)
        state.scratch = np.empty((2, largest), dtype=registry.dtype)
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for bucket in state.buckets:
        m, v, w = bucket.m, bucket.v, bucket.w
        g, tmp = state.scratch[0, : w.size], state.scratch[1, : w.size]
        for param, offset, _ in bucket.members:
            grad = param.tensor.grad.reshape(-1)
            g[offset : offset + grad.size] = grad
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(m, state.beta1, out=m)
        np.multiply(g, 1.0 - state.beta1, out=tmp)
        np.add(m, tmp, out=m)
        # v = beta2 * v + (1 - beta2) * (g * g)
        np.multiply(v, state.beta2, out=v)
        np.multiply(g, g, out=tmp)
        np.multiply(tmp, 1.0 - state.beta2, out=tmp)
        np.add(v, tmp, out=v)
        if state.weight_decay:
            # w = w - lr * weight_decay * w
            np.multiply(w, state.lr * state.weight_decay, out=tmp)
            np.subtract(w, tmp, out=w)
        # w = w - lr * (m / bc1) / (sqrt(v / bc2) + eps), g now scratch
        np.divide(m, bc1, out=tmp)
        np.multiply(tmp, state.lr, out=tmp)
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        np.add(g, state.eps, out=g)
        np.divide(tmp, g, out=tmp)
        np.subtract(w, tmp, out=w)
    for param in params:
        param.tensor.grad = None
