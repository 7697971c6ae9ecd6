"""Dense tensors with reverse-mode automatic differentiation.

Values are row-major numpy buffers, float32 for training runs and float64 for
gradient checking.  Every differentiable operation records its inputs and a
gradient closure on the output node; ``backward`` walks that graph once in
reverse topological order, accumulates ``.grad`` on every reachable leaf
(a tensor that requires gradients and was not produced by an operation), and
then frees the graph.  Closures skip the gradient of any input that does not
require one, such as a frozen weight or a constant.

Broadcasting is deliberately restricted: binary elementwise operations accept
equal shapes, a scalar (0-d) operand, or a stack of images [B, ...] with one
image's shape [...] of rank 2 or more (a position table added to every
image's tokens, say), nothing else.  The few structured patterns the models
need are dedicated primitives (the affine ``linear``, ``gather_rows``,
``matmul``, multi-head ``attention``, ``layer_norm``) so shape errors stay
loud.

The matrix operations and ``layer_norm`` also take that leading image axis,
so one call evaluates a stack of images.  Their products stay per image: a
stack multiplies as ``[B, n, k] @ [k, d]``, for which numpy makes one BLAS
call per image with that image's own shapes, never as one ``[B*n, k]``
product, whose rounding differs from the per-image product when a factor has
one row or one column.  Row-wise and elementwise work runs over the whole
stack.  Each image's values are therefore bit-identical to a call on that
image alone, and a stack of one gives the unstacked call's values and
gradients.  A parameter used by every image of a stack gets its gradient
summed over the image axis.
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


def _image_of(stack: tuple[int, ...], image: tuple[int, ...]) -> bool:
    """Whether ``stack`` is a stack of images shaped ``image`` (rank >= 2)."""
    return len(image) >= 2 and stack[1:] == image


def _check_pair(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}")
    if not (
        a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0
        or _image_of(a.shape, b.shape) or _image_of(b.shape, a.shape)
    ):
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} are neither equal, scalar-with-tensor, "
            f"nor a stack of images with one image"
        )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``grad`` summed down to an operand's ``shape``: a scalar's whole sum,
    or the sum over the leading axes that an operand shared by a stack lacks."""
    if grad.shape == shape:
        return grad
    if not shape:
        return np.asarray(grad.sum(), dtype=grad.dtype).reshape(shape)
    if grad.size == math.prod(shape):  # a stack of one: a sum would turn -0.0 into 0.0
        return grad.reshape(shape)
    return grad.sum(axis=tuple(range(grad.ndim - len(shape))))


def _rows(x: np.ndarray) -> np.ndarray:
    """``x`` as a matrix of its last-axis rows: the same matrix if 2-d."""
    return x.reshape(-1, x.shape[-1])


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
    """Matrix product [m,k]@[k,n] of each pair of matrices: batched
    [h,m,k]@[h,k,n], or a stack with one shared matrix, [B,m,k]@[k,n] or
    [m,k]@[B,k,n]."""
    ad, bd = a.data, b.data
    lead_a, lead_b = ad.shape[:-2], bd.shape[:-2]
    if ad.ndim < 2 or bd.ndim < 2 or (lead_a and lead_b and lead_a != lead_b):
        raise DimensionError(f"matmul: ranks {ad.ndim} and {bd.ndim} unsupported")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul: shapes {ad.shape} and {bd.shape} do not align")
    if ad.dtype != bd.dtype:
        raise ContractError(f"matmul: mixed dtypes {ad.dtype} and {bd.dtype}")
    out = ad @ bd

    def grad_fn(g):
        ga = _unbroadcast(g @ bd.mT, ad.shape) if a.requires_grad else None
        gb = _unbroadcast(ad.mT @ g, bd.shape) if b.requires_grad else None
        return ga, gb

    return _node(out, (a, b), grad_fn)


# -- shape movement ----------------------------------------------------------


def transpose(a: Tensor) -> Tensor:
    """A matrix's transpose, or each one's in a stack of matrices."""
    if a.data.ndim < 2:
        raise DimensionError(f"transpose: expected a matrix, got shape {a.shape}")
    return _node(np.ascontiguousarray(a.data.mT), (a,), lambda g: (g.mT,))


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
    """Row lookup into a [rows, d] table, [*indices.shape, d] out (one row of
    indices per image of a stack, say); unused rows get zero gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2 or idx.ndim < 1:
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
    """Join along ``axis``.  A part without the leading axes of the
    highest-rank part (one image's tokens joined to a stack's) is repeated
    over them, and its gradient summed over them; ``axis`` then counts from
    the end."""
    ts = list(tensors)
    if not ts:
        raise DimensionError("concat: empty input list")
    dtypes = {t.data.dtype for t in ts}
    if len(dtypes) > 1:
        raise ContractError(f"concat: mixed dtypes {sorted(map(str, dtypes))}")
    parts = [t.data for t in ts]
    top = max(parts, key=np.ndim).shape
    if any(p.ndim < len(top) for p in parts):
        if axis >= 0:
            raise DimensionError(
                f"concat: parts of ranks {[p.ndim for p in parts]} need an axis counted from the end"
            )
        parts = [np.broadcast_to(p, top[: len(top) - p.ndim] + p.shape) for p in parts]
    out = np.concatenate(parts, axis=axis)
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def grad_fn(g):
        return tuple(
            np.ascontiguousarray(_unbroadcast(p, t.shape)) if t.requires_grad else None
            for t, p in zip(ts, np.split(g, splits, axis=axis))
        )

    return _node(out, ts, grad_fn)


def stack(tensors: Iterable[Tensor]) -> Tensor:
    """Equal-shaped tensors, one per image, along a new leading image axis."""
    ts = list(tensors)
    if not ts or len({t.shape for t in ts}) > 1:
        raise DimensionError(f"stack: needs equal shapes, got {[t.shape for t in ts]}")
    dtypes = {t.data.dtype for t in ts}
    if len(dtypes) > 1:
        raise ContractError(f"stack: mixed dtypes {sorted(map(str, dtypes))}")
    out = np.stack([t.data for t in ts])
    return _node(out, ts, lambda g: tuple(gi if t.requires_grad else None for t, gi in zip(ts, g)))


def linear(x: Tensor, weight: Tensor, bias: Tensor, delta: Tensor | None = None) -> Tensor:
    """``x @ weight + delta + bias`` as one tape node: x [n, k] or a stack
    [B, n, k], weight [k, d], bias [d] broadcast over rows (the only row
    broadcast), the optional delta shaped like the output, a LoRA term, say.
    Forward and backward run the numpy operations of the matmul / add /
    bias-add chain of nodes, so every bit matches that chain."""
    parents = (x, weight, bias) if delta is None else (x, weight, bias, delta)
    if x.data.ndim < 2 or bias.data.ndim != 1 or weight.shape != x.shape[-1:] + bias.shape or (
        delta is not None and delta.shape != x.shape[:-1] + bias.shape
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
        # A stack's shared weight and bias take the sum over every image's rows.
        rows_x, rows_g = (x.data, g) if g.ndim == 2 else (_rows(x.data), _rows(g))
        gw = rows_x.T @ rows_g if weight.requires_grad else None
        gb = rows_g.sum(axis=0) if bias.requires_grad else None
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
    ``softmax(q_h @ k_h.T * scale) @ v_h`` with the heads side by side.  A
    stack of queries [B, n_q, d] attends either over keys and values of its
    own, [B, n_k, d] and [B, n_k, d_v], or over one set shared by every image.
    The forward and backward run the numpy operations of the equivalent
    reshape / permute / matmul / softmax chain of separate nodes, in the same
    order and on the same memory layouts, so every value and gradient is
    bit-identical to that chain.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim not in (2, 3) or kd.ndim != vd.ndim or kd.ndim not in (2, qd.ndim):
        raise DimensionError(f"attention: expected matrices, got {q.shape}, {k.shape}, {v.shape}")
    lead = qd.shape[:-2]
    (n_q, dim), (n_k, dim_v) = qd.shape[-2:], vd.shape[-2:]
    if (kd.shape[-2:] != (n_k, dim) or kd.shape[:-2] not in ((), lead) or kd.shape[:-2] != vd.shape[:-2]
            or heads < 1 or dim % heads or dim_v % heads):
        raise DimensionError(
            f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not split into {heads} heads"
        )
    if not qd.dtype == kd.dtype == vd.dtype:
        raise ContractError(f"attention: mixed dtypes {qd.dtype}, {kd.dtype} and {vd.dtype}")
    scale = np.asarray(scale, dtype=qd.dtype)
    shared = kd.ndim < qd.ndim  # one key and value set for every image of a stack
    if heads == 1:
        q3, k3, v3 = qd, np.ascontiguousarray(kd.mT), vd
    else:
        # [..., n, width] as [..., heads, n, width // heads]
        q3 = np.ascontiguousarray(qd.reshape(lead + (n_q, heads, dim // heads)).swapaxes(-3, -2))
        k3 = np.ascontiguousarray(kd.reshape(kd.shape[:-1] + (heads, dim // heads)).swapaxes(-3, -2).mT)
        v3 = np.ascontiguousarray(vd.reshape(vd.shape[:-1] + (heads, dim_v // heads)).swapaxes(-3, -2))
    weights = _softmax_forward((q3 @ k3) * scale, -1)
    out = weights @ v3
    if heads > 1:
        out = np.ascontiguousarray(out.swapaxes(-3, -2)).reshape(lead + (n_q, dim_v))

    def grad_fn(g):
        if heads > 1:
            g = g.reshape(lead + (n_q, heads, dim_v // heads)).swapaxes(-3, -2)
        gq = gk = gv = None
        if q.requires_grad or k.requires_grad:
            gs = _softmax_backward(weights, g @ v3.mT, -1) * scale
            if q.requires_grad:
                gq = gs @ k3.mT
            if k.requires_grad:
                gk = (q3.mT @ gs).mT
        if v.requires_grad:
            gv = weights.mT @ g
        if heads > 1:  # the heads back side by side
            gq = None if gq is None else gq.swapaxes(-3, -2).reshape(lead + (n_q, dim))
            gk = None if gk is None else gk.swapaxes(-3, -2).reshape(lead + (n_k, dim))
            gv = None if gv is None else gv.swapaxes(-3, -2).reshape(lead + (n_k, dim_v))
        if shared:  # summed over the image axis
            gk = None if gk is None else _unbroadcast(gk, kd.shape)
            gv = None if gv is None else _unbroadcast(gv, vd.shape)
        return gq, gk, gv

    return _node(out, (q, k, v), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis of a matrix, or of each
    matrix in a stack, then affine."""
    if eps <= 0:
        raise ContractError(f"layer_norm: eps must be positive, got {eps}")
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"layer_norm: expected a matrix, got shape {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} must be ({d},)"
        )
    mu = _mean(x.data, -1, True)
    xc = x.data - mu
    var = _mean(xc * xc, -1, True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data[None, :] + bias.data[None, :]

    def grad_fn(g):
        gx = None
        if x.requires_grad:
            dxhat = g * gain.data[None, :]
            gx = inv * (
                dxhat
                - _mean(dxhat, -1, True)
                - xhat * _mean(dxhat * xhat, -1, True)
            )
        ggain = _rows(g * xhat).sum(axis=0) if gain.requires_grad else None
        return gx, ggain, (_rows(g).sum(axis=0) if bias.requires_grad else None)

    return _node(out, (x, gain, bias), grad_fn)
