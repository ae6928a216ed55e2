"""Dense float tensors with reverse-mode automatic differentiation.

Activations use NCHW layout and float32 storage; float64 is supported so
gradients can be checked against central finite differences without noise.
Each differentiable operation appends one node to a thread-local tape during
the forward pass. ``backward`` pops the tape in strict reverse order,
accumulating gradients (by addition) into every tensor that requires them
and releasing each node, and each intermediate gradient, once it has been
consumed, so every training step records a fresh graph.

Broadcasting is deliberately narrow: equal shapes, a channel-parameter
operand (``[1,C,1,1]`` or ``[N,C,1,1]`` against ``[N,C,H,W]``), and a bias
row (``[M]`` against ``[N,M]``). Anything else is a shape error.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_float_array(data, dtype=None) -> Array:
    if dtype is None:
        if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
            dtype = data.dtype
        else:
            dtype = np.float32
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Validate a shape: rank 1..4, every dim >= 1."""
    out = tuple(int(d) for d in dims)
    if not 1 <= len(out) <= 4:
        raise ShapeError(f"tensor rank must be between 1 and 4, got {len(out)}")
    if any(d < 1 for d in out):
        raise ShapeError(f"tensor dims must be positive, got {out}")
    return out


class Tensor:
    """A contiguous float array with optional gradient storage."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_float_array(data, dtype)
        check_dims(self.data.shape)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars take a cheaper path than materializing a tensor
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return _scalar_affine(self, 1.0, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return _scalar_affine(self, 1.0, -float(other))

    def __rsub__(self, other):
        return _scalar_affine(self, -1.0, float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return _scalar_affine(self, float(other), 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return _scalar_affine(self, 1.0 / float(other), 0.0)

    def __neg__(self):
        return _scalar_affine(self, -1.0, 0.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=False)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=True)

    def reshape(self, dims) -> "Tensor":
        return reshape(self, dims)


# ---------------------------------------------------------------------------
# tape


class TapeNode:
    """One recorded operation: inputs, output and the local gradient rule."""

    __slots__ = ("op", "inputs", "output", "grad_fn")

    def __init__(self, op: str, inputs: tuple, output: Tensor,
                 grad_fn: Callable[[Array], Sequence[Optional[Array]]]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


_tls = threading.local()


def _tape() -> list:
    tape = getattr(_tls, "tape", None)
    if tape is None:
        tape = []
        _tls.tape = tape
    return tape


def tape_size() -> int:
    return len(_tape())


def grad_enabled() -> bool:
    return getattr(_tls, "grad_enabled", True)


class no_grad:
    """Context manager that suspends tape recording (used for evaluation)."""

    def __enter__(self):
        self._prev = grad_enabled()
        _tls.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _tls.grad_enabled = self._prev
        return False


def record(op: str, inputs: Sequence[Tensor], out_data: Array,
           grad_fn: Callable[[Array], Sequence[Optional[Array]]]) -> Tensor:
    """Wrap an op result in a Tensor, appending a tape node when needed."""
    needs = grad_enabled() and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        _tape().append(TapeNode(op, tuple(inputs), out, grad_fn))
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor the scalar loss depends on.

    Gradients from multiple consumers accumulate by addition. Each node's
    output gradient is released as soon as that node's rule has run, so
    intermediate tensors (the loss included) end with ``grad`` None and only
    leaves, such as parameters, keep theirs. Each node is popped off the
    tape as its rule runs, and the tape is cleared even if a rule raises.

    Until it is popped, a node keeps its inputs and output, and what its
    rule closes over: here the inputs of mul, div and matmul, the output of
    relu, sigmoid and softmax, and log_softmax's exp of its output; the
    layers module lists what its ops keep. Rules that recompute from these
    rest on two invariants:
    - no array recorded on the tape is written in place before backward;
    - no gradient rule writes into its ``g``: ``add`` hands one array to
      both its inputs, so such a write would change another gradient.
    """
    tape = _tape()
    try:
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not tape:
            raise ContractError("backward called on an empty tape")
        loss.grad = np.ones_like(loss.data)
        while tape:
            node = tape.pop()
            gout = node.output.grad
            if gout is None:
                continue
            gins = node.grad_fn(gout)
            node.output.grad = None
            for t, g in zip(node.inputs, gins):
                if g is None or not t.requires_grad:
                    continue
                t.grad = g if t.grad is None else t.grad + g
    finally:
        tape.clear()


# ---------------------------------------------------------------------------
# broadcasting (restricted)


def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    if sa == sb:
        return sa
    if len(sa) == 4 and len(sb) == 4:
        if sa[1] != sb[1]:
            raise ShapeError(f"channel counts differ: {sa} vs {sb}")
        out = []
        for x, y in zip(sa, sb):
            if x == y or y == 1:
                out.append(x)
            elif x == 1:
                out.append(y)
            else:
                raise ShapeError(f"cannot broadcast {sa} with {sb}")
        return tuple(out)
    if len(sa) == 2 and len(sb) == 1 and sa[1] == sb[0]:
        return sa
    if len(sa) == 1 and len(sb) == 2 and sb[1] == sa[0]:
        return sb
    raise ShapeError(f"cannot broadcast {sa} with {sb}")


def _unbroadcast(g: Array, shape: tuple) -> Array:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


def _broadcast_op(op: str, a: Tensor, b: Tensor, fn, rule) -> Tensor:
    """Node `op` of `fn(a, b)`; `rule(g)` gives both inputs' gradients before unbroadcasting."""
    _broadcast_shape(a.shape, b.shape)

    def grad_fn(g):
        ga, gb = rule(g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return record(op, (a, b), fn(a.data, b.data), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("add", a, b, np.add, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("sub", a, b, np.subtract, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _broadcast_op("mul", a, b, np.multiply, lambda g: (g * bd, g * ad))


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"div needs equal shapes, got {a.shape} vs {b.shape}")
    out = a.data / b.data
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g / bd, -g * ad / (bd * bd)

    return record("div", (a, b), out, grad_fn)


def _scalar_affine(x: Tensor, scale: float, shift: float) -> Tensor:
    out = x.data * scale + shift

    def grad_fn(g):
        return (g * scale,)

    return record("scalar_affine", (x,), out, grad_fn)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def grad_fn(g):
        # max(v, 0) > 0 exactly when v > 0, NaN and -0.0 included
        return (g * (out > 0),)

    return record("relu", (x,), out, grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    # split by sign so exp never overflows
    xd = x.data
    pos = xd >= 0
    z = np.exp(np.where(pos, -xd, xd))
    out = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z)).astype(xd.dtype)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return record("sigmoid", (x,), out, grad_fn)


# ---------------------------------------------------------------------------
# matmul, reductions, shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 tensors, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g @ bd.T, ad.T @ g

    return record("matmul", (a, b), out, grad_fn)


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def _reduce(x: Tensor, axis, keepdims: bool, mean: bool) -> Tensor:
    axes = _normalize_axes(axis, x.ndim)
    count = 1
    for a in axes:
        count *= x.shape[a]
    out = x.data.mean(axis=axes, keepdims=keepdims) if mean \
        else x.data.sum(axis=axes, keepdims=keepdims)
    out = np.asarray(out)
    if out.ndim == 0:
        out = out.reshape(1)
    kshape = tuple(1 if a in axes else n for a, n in enumerate(x.shape))
    scale = 1.0 / count if mean else 1.0

    def grad_fn(g):
        gx = np.broadcast_to(g.reshape(kshape) * scale, x.shape)
        return (np.ascontiguousarray(gx),)

    return record("mean" if mean else "sum", (x,), out, grad_fn)


def reshape(x: Tensor, dims) -> Tensor:
    dims = check_dims(dims)
    if int(np.prod(dims)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {dims}")
    old = x.shape
    out = x.data.reshape(dims)

    def grad_fn(g):
        return (g.reshape(old),)

    return record("reshape", (x,), out, grad_fn)


def softmax(x: Tensor, axis: int = 1) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return (p * (g - (g * p).sum(axis=axis, keepdims=True)),)

    return record("softmax", (x,), p, grad_fn)


def log_softmax(x: Tensor, axis: int = 1) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def grad_fn(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return record("log_softmax", (x,), out, grad_fn)
