"""Reverse-mode automatic differentiation over numpy arrays.

Design notes:
  - A Tensor wraps one ndarray. Ops build a DAG; Tensor.backward() runs a
    single reverse sweep over an iteratively computed postorder (recursion
    would overflow on long chains of ops).
  - Nodes whose parents all have requires_grad=False are created as constants
    with no recorded parents, so constant subgraphs cost nothing at backward.
  - Each op records one closure mapping the upstream gradient to per-parent
    gradients; broadcasting is undone by summing over the broadcast axes.
  - Gradients have the same dtype as their tensor. Training runs float32,
    grad checks float64; the engine never mixes the two silently because
    python scalars do not upcast numpy float32 arrays.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from civsf.errors import ShapeError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (used for cached inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._bwd = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple[Tensor, ...], bwd) -> Tensor:
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._bwd = bwd
        return out

    def _lift(self, other) -> Tensor:
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    # -- reverse sweep -------------------------------------------------------

    def _topo(self) -> list[Tensor]:
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad for every reachable leaf.

        self must be scalar (the training losses all are). Leaves that do not
        contribute keep grad=None; see collect_grads for zero-filling.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.data.shape}")
        order = self._topo()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bwd is None or node.grad is None:
                continue
            grads = node._bwd(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g.copy() if g.base is not None or g is node.grad else g
                else:
                    parent.grad = parent.grad + g

    # -- shape attributes ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, rg={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> Tensor:
        other = self._lift(other)
        a, b = self, other

        def bwd(g):
            return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

        return Tensor._make(a.data + b.data, (a, b), bwd)

    __radd__ = __add__

    def __sub__(self, other) -> Tensor:
        other = self._lift(other)
        a, b = self, other

        def bwd(g):
            return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

        return Tensor._make(a.data - b.data, (a, b), bwd)

    def __rsub__(self, other) -> Tensor:
        return self._lift(other).__sub__(self)

    def __mul__(self, other) -> Tensor:
        other = self._lift(other)
        a, b = self, other

        def bwd(g):
            ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
            gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._make(a.data * b.data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Tensor:
        other = self._lift(other)
        a, b = self, other

        def bwd(g):
            ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
            gb = None
            if b.requires_grad:
                gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
            return ga, gb

        return Tensor._make(a.data / b.data, (a, b), bwd)

    def __rtruediv__(self, other) -> Tensor:
        return self._lift(other).__truediv__(self)

    def __neg__(self) -> Tensor:
        a = self

        def bwd(g):
            return (-g,)

        return Tensor._make(-a.data, (a,), bwd)

    def __pow__(self, exponent) -> Tensor:
        if not isinstance(exponent, (int, float)):
            raise ShapeError("pow supports constant scalar exponents only")
        a = self
        c = float(exponent)
        out_data = a.data ** c

        def bwd(g):
            return (g * c * a.data ** (c - 1.0),)

        return Tensor._make(out_data, (a,), bwd)

    def __matmul__(self, other) -> Tensor:
        other = self._lift(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ShapeError("matmul requires operands with ndim >= 2")
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ShapeError(
                f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}"
            )

        def bwd(g):
            ga = gb = None
            if a.requires_grad:
                ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
            if b.requires_grad:
                gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
            return ga, gb

        return Tensor._make(a.data @ b.data, (a, b), bwd)

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape) -> Tensor:
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape

        def bwd(g):
            return (g.reshape(old),)

        return Tensor._make(a.data.reshape(shape), (a,), bwd)

    def transpose(self, axes: tuple[int, ...]) -> Tensor:
        a = self
        inverse = tuple(int(i) for i in np.argsort(axes))

        def bwd(g):
            return (g.transpose(inverse),)

        return Tensor._make(a.data.transpose(axes), (a,), bwd)

    def swapaxes(self, i: int, j: int) -> Tensor:
        axes = list(range(self.data.ndim))
        axes[i], axes[j] = axes[j], axes[i]
        return self.transpose(tuple(axes))

    def __getitem__(self, idx) -> Tensor:
        a = self

        def bwd(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._make(a.data[idx], (a,), bwd)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> Tensor:
        a = self
        shape = a.data.shape

        def bwd(g):
            if axis is None:
                return (np.broadcast_to(g.reshape((1,) * len(shape)), shape).copy(),)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2, shape).copy(),)

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)

    def mean(self, axis=None, keepdims: bool = False) -> Tensor:
        a = self
        shape = a.data.shape
        if axis is None:
            count = a.data.size
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for i in ax:
                count *= shape[i]
        inv = 1.0 / count

        def bwd(g):
            if axis is None:
                return (np.broadcast_to((g * inv).reshape((1,) * len(shape)), shape).copy(),)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2 * inv, shape).copy(),)

        return Tensor._make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)

    # -- pointwise nonlinearities ------------------------------------------------

    def tanh(self) -> Tensor:
        a = self
        out_data = np.tanh(a.data)

        def bwd(g):
            return (g * (1.0 - out_data * out_data),)

        return Tensor._make(out_data, (a,), bwd)

    def relu(self) -> Tensor:
        a = self
        keep = a.data > 0

        def bwd(g):
            return (g * keep,)

        return Tensor._make(np.where(keep, a.data, 0), (a,), bwd)

    def abs(self) -> Tensor:
        a = self
        sign = np.sign(a.data)

        def bwd(g):
            return (g * sign,)

        return Tensor._make(np.abs(a.data), (a,), bwd)


# -- free functions ----------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; masked logits at -1e9 underflow to exact 0."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return Tensor._make(out_data, (x,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def bwd(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), bwd)


def put(values: Tensor, idx, shape: tuple[int, ...]) -> Tensor:
    """Scatter values into a zero tensor of the given shape: out[idx] = values.

    idx must address each output position at most once; duplicate positions
    would keep only one contribution on the forward pass.
    """
    out_data = np.zeros(shape, dtype=values.data.dtype)
    out_data[idx] = values.data

    def bwd(g):
        return (g[idx],)

    return Tensor._make(out_data, (values,), bwd)


def pad2d(x: Tensor, margin: int) -> Tensor:
    """Zero-pad the last two axes by margin on every side."""
    a = x
    width = [(0, 0)] * (a.data.ndim - 2) + [(margin, margin), (margin, margin)]
    inner = (Ellipsis, slice(margin, a.data.shape[-2] + margin),
             slice(margin, a.data.shape[-1] + margin))

    def bwd(g):
        return (g[inner],)

    return Tensor._make(np.pad(a.data, width), (a,), bwd)


def collect_grads(params: list[tuple[str, Tensor]]) -> dict[str, np.ndarray]:
    """Per-parameter gradients after backward(); non-contributing ones are zero."""
    out = {}
    for name, p in params:
        out[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return out
