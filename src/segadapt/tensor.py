"""Dense tensors with reverse-mode automatic differentiation.

Values are row-major numpy buffers, float32 for training runs and float64 for
gradient checking.  Every differentiable operation records its inputs and a
gradient closure on the output node; ``backward`` walks that graph once in
reverse topological order, accumulates ``.grad`` on every reachable leaf
(a tensor that requires gradients and was not produced by an operation), and
then frees the graph.  Closures skip the gradient of any input that does not
require one, such as a frozen weight or a constant.

Broadcasting is deliberately restricted: binary elementwise operations accept
equal shapes or a scalar (0-d) operand, nothing else.  The few structured
patterns the models need are dedicated primitives (the affine ``linear``,
``gather_rows``, batched 3-d ``matmul``, multi-head ``attention``) so shape
errors stay loud.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError

# Inputs to log() are clamped here; the derivative is zero in the clamped
# region so finite differences and analytic gradients agree.
LOG_CLAMP = 1e-12

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / snapshots)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether operations are being recorded on the tape."""
    return _grad_enabled


class Tensor:
    """A numpy array plus optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        # ascontiguousarray promotes 0-d to 1-d; reshape restores scalar rank.
        self.data = np.ascontiguousarray(arr).reshape(arr.shape)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, index):
        return take(self, index)

    # -- method forms of the op suite ---------------------------------------

    def matmul(self, other):
        return matmul(self, other)

    def transpose(self):
        return transpose(self)

    def permute(self, *axes):
        return permute(self, axes if len(axes) > 1 else axes[0])

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return power(self, 0.5)

    def sigmoid(self):
        return sigmoid(self)

    def relu(self):
        return relu(self)

    def gelu(self):
        return gelu(self)

    def softmax(self, axis=-1):
        return softmax(self, axis=axis)


# -- graph plumbing ----------------------------------------------------------


def _node(data: np.ndarray, parents: Sequence[Tensor], grad_fn: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad or p._grad_fn is not None for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def _as_tensor(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _check_pair(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}")
    if a.shape != b.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} are neither equal nor scalar-with-tensor"
        )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Only the scalar-with-tensor case can disagree in shape here.
    if grad.shape == shape:
        return grad
    return np.asarray(grad.sum(), dtype=grad.dtype).reshape(shape)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Accumulates into ``.grad`` of every reachable leaf with
    ``requires_grad`` (repeated calls keep accumulating until grads are
    reset) and releases the recorded graph afterwards.  Intermediate nodes
    keep ``.grad`` None: nothing reads it.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    # Upstream flows are kept separate from .grad so that grads accumulated
    # by a previous backward() call are never propagated twice.
    flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flows.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None:
                continue
            key = id(parent)
            flows[key] = pg if key not in flows else flows[key] + pg
        node._parents = ()
        node._grad_fn = None


# -- arithmetic --------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a, b = (a, _as_tensor(b, a)) if isinstance(a, Tensor) else (_as_tensor(a, b), b)
    _check_pair(a, b, "add")
    out = a.data + b.data

    def grad_fn(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), grad_fn)


def sub(a: Tensor, b) -> Tensor:
    a, b = (a, _as_tensor(b, a)) if isinstance(a, Tensor) else (_as_tensor(a, b), b)
    _check_pair(a, b, "sub")
    out = a.data - b.data

    def grad_fn(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), grad_fn)


def mul(a: Tensor, b) -> Tensor:
    a, b = (a, _as_tensor(b, a)) if isinstance(a, Tensor) else (_as_tensor(a, b), b)
    _check_pair(a, b, "mul")
    out = a.data * b.data

    def grad_fn(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), grad_fn)


def div(a: Tensor, b) -> Tensor:
    a, b = (a, _as_tensor(b, a)) if isinstance(a, Tensor) else (_as_tensor(a, b), b)
    _check_pair(a, b, "div")
    out = a.data / b.data

    def grad_fn(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _node(out, (a, b), grad_fn)


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def power(a: Tensor, exponent: float) -> Tensor:
    c = float(exponent)
    out = a.data ** c

    def grad_fn(g):
        return (g * c * a.data ** (c - 1.0),)

    return _node(out, (a,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: [m,k]@[k,n], or batched [h,m,k]@[h,k,n]."""
    if a.data.ndim != b.data.ndim or a.data.ndim not in (2, 3):
        raise DimensionError(f"matmul: ranks {a.data.ndim} and {b.data.ndim} unsupported")
    if a.shape[-1] != b.shape[-2] or (a.data.ndim == 3 and a.shape[0] != b.shape[0]):
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not align")
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"matmul: mixed dtypes {a.data.dtype} and {b.data.dtype}")
    out = a.data @ b.data

    def grad_fn(g):
        ga = g @ b.data.swapaxes(-1, -2) if a.requires_grad else None
        gb = a.data.swapaxes(-1, -2) @ g if b.requires_grad else None
        return ga, gb

    return _node(out, (a, b), grad_fn)


# -- shape movement ----------------------------------------------------------


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {a.shape}")
    return _node(np.ascontiguousarray(a.data.T), (a,), lambda g: (g.T,))


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"permute: {axes} is not a permutation of rank {a.data.ndim}")
    out = np.ascontiguousarray(a.data.transpose(axes))

    def grad_fn(g):
        # The inverse permutation, worked out only when a backward pass needs it.
        return (g.transpose(sorted(range(len(axes)), key=axes.__getitem__)),)

    return _node(out, (a,), grad_fn)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    out = a.data.reshape(shape)
    return _node(out, (a,), lambda g: (g.reshape(a.shape),))


def take(a: Tensor, index) -> Tensor:
    """Basic (slice/int) indexing with scatter-add backward."""
    out = np.ascontiguousarray(a.data[index])

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, index, g)
        return (buf,)

    return _node(out, (a,), grad_fn)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Row lookup into a [rows, d] table; unused rows get zero gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise DimensionError(f"gather_rows: table {a.shape}, indices {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise DimensionError(f"gather_rows: index out of range for {a.shape[0]} rows")
    out = a.data[idx].copy()

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return _node(out, (a,), grad_fn)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise DimensionError("concat: empty input list")
    dtypes = {t.data.dtype for t in ts}
    if len(dtypes) > 1:
        raise ContractError(f"concat: mixed dtypes {sorted(map(str, dtypes))}")
    out = np.concatenate([t.data for t in ts], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def grad_fn(g):
        return tuple(
            np.ascontiguousarray(p) if t.requires_grad else None
            for t, p in zip(ts, np.split(g, splits, axis=axis))
        )

    return _node(out, ts, grad_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor, delta: Tensor | None = None) -> Tensor:
    """``x @ weight + delta + bias`` as one tape node: x [n, k], weight [k, d],
    bias [d] broadcast over rows (the only row broadcast), the optional delta
    [n, d] a LoRA term, say.  Forward and backward run the numpy operations of
    the matmul / add / bias-add chain of nodes, so every bit matches that chain."""
    parents = (x, weight, bias) if delta is None else (x, weight, bias, delta)
    if x.data.ndim != 2 or bias.data.ndim != 1 or weight.shape != x.shape[1:] + bias.shape or (
        delta is not None and delta.shape != x.shape[:1] + bias.shape
    ):
        raise DimensionError(f"linear: shapes {[p.shape for p in parents]} do not align")
    if len({p.data.dtype for p in parents}) > 1:
        raise ContractError(f"linear: mixed dtypes {[p.data.dtype.name for p in parents]}")
    out = x.data @ weight.data
    if delta is not None:
        out += delta.data
    out += bias.data

    def grad_fn(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = x.data.T @ g if weight.requires_grad else None
        gb = g.sum(axis=0) if bias.requires_grad else None
        return (gx, gw, gb) if delta is None else (gx, gw, gb, g if delta.requires_grad else None)

    return _node(out, parents, grad_fn)


# -- reductions --------------------------------------------------------------


def _mean(x: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """``x.mean(axis=axis, keepdims=keepdims)`` as the two ufunc calls that
    ``ndarray.mean`` makes, without its Python wrapper: the same bytes."""
    total = np.asarray(np.add.reduce(x, axis=axis, keepdims=keepdims))
    count = x.size if axis is None else x.shape[axis]
    return np.true_divide(total, np.intp(count), out=total, casting="unsafe")


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(np.asarray(g), shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        return (np.ascontiguousarray(_expand_reduced(g, a.shape, axis, keepdims)),)

    return _node(np.asarray(out), (a,), grad_fn)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    out = _mean(a.data, axis, keepdims)

    def grad_fn(g):
        return (np.ascontiguousarray(_expand_reduced(g, a.shape, axis, keepdims)) / count,)

    return _node(out, (a,), grad_fn)


# -- elementwise nonlinearities ----------------------------------------------


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def _log_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    clamped = np.maximum(x, LOG_CLAMP)
    return clamped, np.log(clamped)


def _log_backward(x: np.ndarray, clamped: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.where(x >= LOG_CLAMP, g / clamped, 0.0)


def log(a: Tensor) -> Tensor:
    """Natural log with input clamped at LOG_CLAMP; slope 0 in the clamp."""
    clamped, out = _log_forward(a.data)
    return _node(out, (a,), lambda g: (_log_backward(a.data, clamped, g),))


def _sigmoid_forward(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    info = np.finfo(x.dtype)
    return np.clip(s, info.tiny, 1.0 - info.epsneg)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic; output pinned strictly inside (0, 1)."""
    s = _sigmoid_forward(a.data)

    def grad_fn(g):
        return (g * s * (1.0 - s),)

    return _node(s, (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _node(out, (a,), lambda g: (g * (a.data > 0),))


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU: x * Phi(x)."""
    x = a.data
    phi = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    out = x * phi

    def grad_fn(g):
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return (g * (phi + x * pdf),)

    return _node(out, (a,), grad_fn)


def _softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_backward(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - inner)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    ndim = a.data.ndim
    if not -ndim <= axis < ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for shape {a.shape}")
    axis = axis % ndim
    if a.shape[axis] == 0:
        raise DimensionError(f"softmax: empty axis {axis} in shape {a.shape}")
    out = _softmax_forward(a.data, axis)
    return _node(out, (a,), lambda g: (_softmax_backward(out, g, axis),))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    ``q`` is [n_q, d], ``k`` is [n_k, d] and ``v`` is [n_k, d_v], with d and
    d_v divisible by ``heads``; the result is [n_q, d_v], each head's
    ``softmax(q_h @ k_h.T * scale) @ v_h`` with the heads side by side.  The
    forward and backward run the numpy operations of the equivalent
    reshape / permute / matmul / softmax chain of separate nodes, in the same
    order and on the same memory layouts, so every value and gradient is
    bit-identical to that chain.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise DimensionError(f"attention: expected matrices, got {q.shape}, {k.shape}, {v.shape}")
    (n_q, dim), (n_k, dim_v) = q.shape, v.shape
    if k.shape != (n_k, dim) or heads < 1 or dim % heads or dim_v % heads:
        raise DimensionError(
            f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not split into {heads} heads"
        )
    if not q.data.dtype == k.data.dtype == v.data.dtype:
        raise ContractError(
            f"attention: mixed dtypes {q.data.dtype}, {k.data.dtype} and {v.data.dtype}"
        )
    scale = np.asarray(scale, dtype=q.data.dtype)
    if heads == 1:
        q3, k3, v3, axis = q.data, np.ascontiguousarray(k.data.T), v.data, 1
    else:
        q3 = np.ascontiguousarray(q.data.reshape(n_q, heads, dim // heads).transpose(1, 0, 2))
        k3 = np.ascontiguousarray(k.data.reshape(n_k, heads, dim // heads).transpose(1, 2, 0))
        v3 = np.ascontiguousarray(v.data.reshape(n_k, heads, dim_v // heads).transpose(1, 0, 2))
        axis = 2
    weights = _softmax_forward((q3 @ k3) * scale, axis)
    out = weights @ v3
    if heads > 1:
        out = np.ascontiguousarray(out.transpose(1, 0, 2)).reshape(n_q, dim_v)

    def grad_fn(g):
        if heads > 1:
            g = g.reshape(n_q, heads, dim_v // heads).transpose(1, 0, 2)
        gq = gk = gv = None
        if q.requires_grad or k.requires_grad:
            gs = _softmax_backward(weights, g @ v3.swapaxes(-1, -2), axis) * scale
            if q.requires_grad:
                gq = gs @ k3.swapaxes(-1, -2)
            if k.requires_grad:
                gk = q3.swapaxes(-1, -2) @ gs
        if v.requires_grad:
            gv = weights.swapaxes(-1, -2) @ g
        if heads == 1:
            return gq, (None if gk is None else gk.T), gv
        return (
            None if gq is None else gq.transpose(1, 0, 2).reshape(n_q, dim),
            None if gk is None else gk.transpose(2, 0, 1).reshape(n_k, dim),
            None if gv is None else gv.transpose(1, 0, 2).reshape(n_k, dim_v),
        )

    return _node(out, (q, k, v), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis of a matrix, then affine."""
    if eps <= 0:
        raise ContractError(f"layer_norm: eps must be positive, got {eps}")
    if x.data.ndim != 2:
        raise DimensionError(f"layer_norm: expected a matrix, got shape {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} must be ({d},)"
        )
    mu = _mean(x.data, 1, True)
    xc = x.data - mu
    var = _mean(xc * xc, 1, True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data[None, :] + bias.data[None, :]

    def grad_fn(g):
        gx = None
        if x.requires_grad:
            dxhat = g * gain.data[None, :]
            gx = inv * (
                dxhat
                - _mean(dxhat, 1, True)
                - xhat * _mean(dxhat * xhat, 1, True)
            )
        ggain = (g * xhat).sum(axis=0) if gain.requires_grad else None
        return gx, ggain, (g.sum(axis=0) if bias.requires_grad else None)

    return _node(out, (x, gain, bias), grad_fn)
