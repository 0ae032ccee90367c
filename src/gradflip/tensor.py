"""Dense float64 tensors with define-by-run reverse-mode differentiation.

Tensors wrap numpy arrays. An op whose inputs are gradient-tracked records
a node holding its parents and a backward closure; backward() walks the
recorded graph once, in reverse topological order, and returns gradients
for the requested leaves. Graphs are rebuilt on every forward pass and
never reused.

Every computing op checks its result for NaN/Inf, so numerical overflow
raises NumericOverflow instead of propagating silently. Reductions that
break ties (max) resolve to the lowest index, which keeps subgradients
deterministic.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

PARAM_GROUPS = ("main", "speaker")


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the attempted op."""


class NumericOverflow(ArithmeticError):
    """An op produced NaN or infinity from finite inputs."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disables graph recording inside a with-block (inference mode)."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _check_finite(op: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericOverflow(f"{op}: result contains NaN or Inf")


class Tensor:
    """A dense float64 array, optionally recorded on the autodiff tape."""

    __slots__ = ("data", "grad_tracked", "_parents", "_backward")

    def __init__(self, data, grad_tracked: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite("tensor", arr)
        self.data = arr
        self.grad_tracked = bool(grad_tracked)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item: tensor has {self.data.size} elements")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, tracked={self.grad_tracked})"


def _node(data: np.ndarray, op: str, parents: tuple, backward, check: bool = True) -> Tensor:
    if check:
        _check_finite(op, data)
    out = Tensor.__new__(Tensor)
    out.data = data
    if _grad_enabled and any(p.grad_tracked for p in parents):
        out.grad_tracked = True
        out._parents = parents
        out._backward = backward
    else:
        out.grad_tracked = False
        out._parents = ()
        out._backward = None
    return out


def _acc(grads: dict, t: Tensor, val: np.ndarray) -> None:
    # Constants never receive gradient; skipping them keeps the dict small.
    if not t.grad_tracked:
        return
    key = id(t)
    if key in grads:
        grads[key] = grads[key] + val
    else:
        grads[key] = val


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# primitive ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("add", a, b)

    def bw(g, grads):
        _acc(grads, a, _unbroadcast(g, a.shape))
        _acc(grads, b, _unbroadcast(g, b.shape))

    with np.errstate(over="ignore"):
        out = a.data + b.data
    return _node(out, "add", (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("sub", a, b)

    def bw(g, grads):
        _acc(grads, a, _unbroadcast(g, a.shape))
        _acc(grads, b, _unbroadcast(-g, b.shape))

    return _node(a.data - b.data, "sub", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("mul", a, b)

    def bw(g, grads):
        _acc(grads, a, _unbroadcast(g * b.data, a.shape))
        _acc(grads, b, _unbroadcast(g * a.data, b.shape))

    with np.errstate(over="ignore", invalid="ignore"):
        out = a.data * b.data
    return _node(out, "mul", (a, b), bw)


def smul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g, grads):
        _acc(grads, a, g * c)

    return _node(a.data * c, "smul", (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: shapes {a.shape} and {b.shape} do not conform")

    def bw(g, grads):
        _acc(grads, a, g @ b.data.T)
        _acc(grads, b, a.data.T @ g)

    with np.errstate(over="ignore", invalid="ignore"):
        out = _row_blocked_product(a.data, b.data)
    return _node(out, "matmul", (a, b), bw)


# rows per BLAS call in a product's forward pass
ROW_BLOCK = 128


def _row_blocked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, as one BLAS gemm per block of exactly ROW_BLOCK rows of a (the
    last one padded with zero rows); the full blocks go to numpy as one
    stacked product, which still runs one gemm per block.

    BLAS picks its kernel by the operand sizes, and kernels round
    differently; with one call size a row's product no longer depends on
    how many other rows it is multiplied with, so an utterance gets the
    same bits alone and inside a packed batch."""
    rows = a.shape[0]
    full = rows - rows % ROW_BLOCK
    out = np.empty((rows, b.shape[1]))
    if full:
        blocks = (full // ROW_BLOCK, ROW_BLOCK)
        np.matmul(a[:full].reshape(blocks + a.shape[1:]), b, out=out[:full].reshape(blocks + b.shape[1:]))
    if full < rows:
        tail = np.zeros((ROW_BLOCK, a.shape[1]))
        tail[: rows - full] = a[full:]
        out[full:] = (tail @ b)[: rows - full]
    return out


def sigmoid(a: Tensor) -> Tensor:
    # tanh form is overflow-free for large negative inputs
    out_data = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def bw(g, grads):
        _acc(grads, a, g * out_data * (1.0 - out_data))

    return _node(out_data, "sigmoid", (a,), bw)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def bw(g, grads):
        _acc(grads, a, g * out_data)

    return _node(out_data, "exp", (a,), bw)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a.data)

    def bw(g, grads):
        _acc(grads, a, g / a.data)

    return _node(out_data, "log", (a,), bw)


def pow_scalar(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p. Non-integer or negative p requires positive inputs."""
    p = float(p)
    if (p != int(p) or p < 0) and np.any(a.data <= 0.0):
        raise NumericOverflow(f"pow_scalar: exponent {p} needs positive inputs")
    with np.errstate(over="ignore"):
        out_data = a.data**p

    def bw(g, grads):
        _acc(grads, a, g * p * a.data ** (p - 1.0))

    return _node(out_data, "pow_scalar", (a,), bw)


def sum_reduce(a: Tensor, axis: int | None = None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def bw(g, grads):
        ge = g if axis is None else np.expand_dims(g, axis)
        _acc(grads, a, np.broadcast_to(ge, a.shape).copy())

    return _node(out_data, "sum_reduce", (a,), bw, check=False)


def max_reduce(a: Tensor, axis: int) -> Tensor:
    if a.shape[axis] == 0:
        raise ShapeMismatch("max_reduce: empty axis")
    out_data = a.data.max(axis=axis)
    # ties resolve to the lowest index so the subgradient is deterministic
    idx = np.argmax(a.data, axis=axis)

    def bw(g, grads):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        _acc(grads, a, full)

    return _node(out_data, "max_reduce", (a,), bw, check=False)


def logsumexp(a: Tensor, axis: int) -> Tensor:
    """Numerically stabilized log(sum(exp(a))) along one axis."""
    if a.shape[axis] == 0:
        raise ShapeMismatch("logsumexp: empty axis")
    m = a.data.max(axis=axis, keepdims=True)
    z = np.exp(a.data - m)
    s = z.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)
    soft = z / s

    def bw(g, grads):
        _acc(grads, a, np.expand_dims(g, axis) * soft)

    return _node(out_data, "logsumexp", (a,), bw)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    dim = a.shape[axis]
    if not (0 <= start < stop <= dim):
        raise ShapeMismatch(f"slice_axis: [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def bw(g, grads):
        full = np.zeros_like(a.data)
        full[index] = g
        _acc(grads, a, full)

    return _node(a.data[index], "slice_axis", (a,), bw, check=False)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeMismatch("concat: no tensors")
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis):
            raise ShapeMismatch(f"concat: shapes {[t.shape for t in tensors]} differ off axis {axis}")
    sizes = [t.shape[axis] for t in tensors]

    def bw(g, grads):
        offset = 0
        for t, n in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + n)
            _acc(grads, t, g[tuple(index)])
            offset += n

    return _node(np.concatenate([t.data for t in tensors], axis=axis), "concat", tensors, bw, check=False)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ShapeMismatch(f"reshape: cannot view {a.shape} as {shape}")

    def bw(g, grads):
        _acc(grads, a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), "reshape", (a,), bw, check=False)


def grad_scale(a: Tensor, factor: float) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by factor.

    factor < 0 turns descent on the downstream loss into ascent for
    everything upstream of the junction (gradient reversal). factor 0
    passes no gradient, so the output records no parent and a backward
    pass stops at the junction."""
    factor = float(factor)

    def bw(g, grads):
        _acc(grads, a, g * factor)

    return _node(a.data, "grad_scale", (a,) if factor else (), bw, check=False)


# ---------------------------------------------------------------------------
# backward pass


def _topo_from(loss: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor, wrt):
    """Differentiate a scalar loss.

    wrt may be a ParamStore (returns {name: gradient array}, zeros for
    parameters the loss never touched) or an iterable of tensors (returns
    a list of gradient arrays in the same order).
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    if loss._backward is not None:
        # overflow here only happens on an already-diverging loss; the
        # forward finiteness check is the enforcement point
        with np.errstate(all="ignore"):
            for node in reversed(_topo_from(loss)):
                g = grads.pop(id(node), None)
                if g is not None:
                    node._backward(g, grads)

    def grad(t: Tensor) -> np.ndarray:
        # zeros only for a tensor the loss never reached
        return grads[id(t)] if id(t) in grads else np.zeros_like(t.data)

    if isinstance(wrt, ParamStore):
        return {name: grad(t) for name, t, _ in wrt.items()}
    return [grad(t) for t in wrt]


# ---------------------------------------------------------------------------
# parameters


class ParamStore:
    """Named parameter tensors, each tagged with group `main` or `speaker`.

    Iteration is always in lexicographic name order, which makes updates
    and serialization deterministic.
    """

    def __init__(self):
        self._entries: dict[str, tuple[Tensor, str]] = {}

    def add(self, name: str, tensor: Tensor, group: str) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        if group not in PARAM_GROUPS:
            raise ValueError(f"unknown parameter group: {group}")
        tensor.grad_tracked = True
        self._entries[name] = (tensor, group)
        return tensor

    def names(self) -> list[str]:
        return sorted(self._entries)

    def get(self, name: str) -> Tensor:
        return self._entries[name][0]

    def items(self) -> Iterable[tuple[str, Tensor, str]]:
        for name in sorted(self._entries):
            t, g = self._entries[name]
            yield name, t, g

    def group_names(self, group: str) -> list[str]:
        return [n for n, _, g in self.items() if g == group]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t, _ in self.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, t, _ in self.items():
            np.copyto(t.data, snap[name])

    @contextlib.contextmanager
    def frozen(self, groups: tuple[str, ...]):
        """Inside the block only parameters of `groups` are gradient-tracked:
        the others record no tape and `sgd_step` leaves them alone. Each
        parameter's previous tracking comes back on exit, also on an error."""
        saved = [(t, t.grad_tracked) for t, _ in self._entries.values()]
        for t, group in self._entries.values():
            t.grad_tracked = t.grad_tracked and group in groups
        try:
            yield
        finally:
            for t, tracked in saved:
                t.grad_tracked = tracked


def sgd_step(params: ParamStore, grads: dict[str, np.ndarray], lr_main: float, lr_speaker: float) -> None:
    """Plain SGD, w <- w - lr(group) * g, in deterministic name order.

    Untracked parameters are left alone, so inside `params.frozen(groups)`
    only those groups are updated (phase B of training updates `speaker`).
    """
    for name, t, group in params.items():
        if name not in grads:
            raise ValueError(f"sgd_step: missing gradient for parameter '{name}'")
        if t.grad_tracked:
            lr = lr_main if group == "main" else lr_speaker
            np.subtract(t.data, lr * grads[name], out=t.data)
