"""Neural building blocks on top of the tensor engine.

Modules register parameters by attribute walk: any Tensor attribute with
requires_grad=True is a parameter, Modules and lists of Modules recurse.
Names are attribute paths ("vit.blocks.0.attn.wq.w"), which keeps checkpoint
layouts stable as long as attribute names are stable.
"""

from __future__ import annotations

import numpy as np

from civsf.errors import ShapeError
from civsf.numerics.tensor import Tensor, pad2d, softmax


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Module:
    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for key in sorted(self.__dict__):
            value = self.__dict__[key]
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out.append((name, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(name))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{name}.{i}"))
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Install parameter arrays in place; missing or mismatched names fail."""
        params = dict(self.named_parameters())
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        if missing or extra:
            raise ShapeError(f"parameter set mismatch: missing={missing} extra={extra}")
        for name, p in params.items():
            arr = arrays[name]
            if arr.shape != p.data.shape:
                raise ShapeError(f"{name}: stored shape {arr.shape} != model {p.data.shape}")
            p.data = arr.astype(p.data.dtype, copy=True)
            p.grad = None


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True, dtype=np.float32):
        self.w = Tensor(xavier_uniform(rng, (d_in, d_out), d_in, d_out, dtype),
                        requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = x @ self.w
        if self.b is not None:
            y = y + self.b
        return y


class LayerNorm(Module):
    def __init__(self, dim: int, dtype=np.float32, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = (var + self.eps) ** -0.5
        return centered * inv * self.gamma + self.beta


class FeedForward(Module):
    def __init__(self, dim: int, expansion: int, rng: np.random.Generator, dtype=np.float32):
        self.lin1 = Linear(dim, dim * expansion, rng, dtype=dtype)
        self.lin2 = Linear(dim * expansion, dim, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.lin1(x).relu())


class SelfAttention(Module):
    """Multi-head self-attention with an optional keep mask.

    Disallowed positions are overwritten with -1e9 before the softmax, which
    underflows to an exact zero weight, so outputs at step t are bitwise
    independent of inputs at masked positions.
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator, dtype=np.float32):
        if dim % n_heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {n_heads}")
        self.wq = Linear(dim, dim, rng, dtype=dtype)
        # No key bias: softmax shifts out a per-query constant, so a key bias
        # cannot affect the output and its gradient is identically zero.
        self.wk = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.wv = Linear(dim, dim, rng, dtype=dtype)
        self.wo = Linear(dim, dim, rng, dtype=dtype)
        self.n_heads = n_heads
        self.dtype = dtype

    def __call__(self, x: Tensor, keep: np.ndarray | None = None) -> Tensor:
        b, s, d = x.shape
        h = self.n_heads
        dh = d // h

        def split(t: Tensor) -> Tensor:
            return t.reshape(b, s, h, dh).transpose((0, 2, 1, 3))

        q, k, v = split(self.wq(x)), split(self.wk(x)), split(self.wv(x))
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dh))
        if keep is not None:
            keep_f = keep.astype(self.dtype)
            scores = scores * keep_f + (1.0 - keep_f) * -1e9
        weights = softmax(scores, axis=-1)
        out = (weights @ v).transpose((0, 2, 1, 3)).reshape(b, s, d)
        return self.wo(out)


class TransformerBlock(Module):
    def __init__(self, dim: int, n_heads: int, expansion: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.ln1 = LayerNorm(dim, dtype=dtype)
        self.attn = SelfAttention(dim, n_heads, rng, dtype=dtype)
        self.ln2 = LayerNorm(dim, dtype=dtype)
        self.ff = FeedForward(dim, expansion, rng, dtype=dtype)

    def __call__(self, x: Tensor, keep: np.ndarray | None = None) -> Tensor:
        x = x + self.attn(self.ln1(x), keep)
        return x + self.ff(self.ln2(x))


def causal_keep(length: int) -> np.ndarray:
    """Lower-triangular keep mask: position t attends to positions <= t."""
    return np.tril(np.ones((length, length), dtype=bool))


class Lstm(Module):
    """Unidirectional LSTM, gate order (input, forget, cell, output).

    Forget-gate bias starts at 1.0 so early training keeps long memories.
    Input is a plain ndarray: the recurrence only differentiates parameters
    and hidden state, never the driving sequence.

    The whole sequence is one autodiff node whose parents are wx, wh and b:
    the forward runs the recurrence in plain numpy and keeps each step's
    gates, and the backward is backpropagation through time written out by
    hand. Both use the operations, in the order, that the step-by-step graph
    of matmuls, slices, sigmoids and products would use, so outputs and
    gradients are bitwise those of that graph.
    """

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.wx = Tensor(xavier_uniform(rng, (d_in, 4 * d_hidden), d_in, d_hidden, dtype),
                         requires_grad=True)
        self.wh = Tensor(xavier_uniform(rng, (d_hidden, 4 * d_hidden), d_hidden, d_hidden, dtype),
                         requires_grad=True)
        bias = np.zeros(4 * d_hidden, dtype=dtype)
        bias[d_hidden:2 * d_hidden] = 1.0
        self.b = Tensor(bias, requires_grad=True)
        self.d_hidden = d_hidden
        self.dtype = dtype

    def __call__(self, x: np.ndarray, steps: int | None = None) -> Tensor:
        if x.ndim != 3:
            raise ShapeError(f"lstm input must be (batch, length, channels), got {x.shape}")
        n, length, _ = x.shape
        run = length if steps is None else min(steps, length)
        hd = self.d_hidden
        wx, wh, b = self.wx.data, self.wh.data, self.b.data
        h = np.zeros((n, hd), dtype=self.dtype)
        c = np.zeros((n, hd), dtype=self.dtype)
        out = np.empty((n, run, hd), dtype=self.dtype)
        # per step: input, previous h and c, sigmoid gates, cell gate, tanh(c)
        xs, hs, cs, sig, cell, tcs = [], [], [], [], [], []
        for t in range(run):
            xt = np.ascontiguousarray(x[:, t], dtype=self.dtype)
            z = xt @ wx + h @ wh + b
            e = np.exp(-np.abs(z))          # exp of a negated magnitude never overflows
            d = 1.0 + e
            s = np.where(z >= 0, 1.0 / d, e / d)
            g = np.tanh(z[:, 2 * hd:3 * hd])
            xs.append(xt)
            hs.append(h)
            cs.append(c)
            sig.append(s)
            cell.append(g)
            c = s[:, hd:2 * hd] * c + s[:, :hd] * g
            tc = np.tanh(c)
            tcs.append(tc)
            h = s[:, 3 * hd:] * tc
            out[:, t] = h

        def bwd(gout):
            dwx = dwh = db = dz = dc = None
            for t in reversed(range(run)):
                s, g, tc = sig[t], cell[t], tcs[t]
                i, f, o = s[:, :hd], s[:, hd:2 * hd], s[:, 3 * hd:]
                dh = gout[:, t]
                if dz is not None:              # what step t + 1 passes back
                    dh = dh + dz @ wh.swapaxes(-1, -2)
                    dc = dh * o * (1.0 - tc * tc) + dc * sig[t + 1][:, hd:2 * hd]
                else:
                    dc = dh * o * (1.0 - tc * tc)
                # each gate block of a zero array, as a slice's backward fills it
                dz = np.zeros((n, 4 * hd), dtype=self.dtype)
                dz[:, :hd] += dc * g * i * (1.0 - i)
                dz[:, hd:2 * hd] += dc * cs[t] * f * (1.0 - f)
                dz[:, 2 * hd:3 * hd] += dc * i * (1.0 - g * g)
                dz[:, 3 * hd:] += dh * tc * o * (1.0 - o)
                terms = (xs[t].swapaxes(-1, -2) @ dz, hs[t].swapaxes(-1, -2) @ dz,
                         dz.sum(axis=0))
                if dwx is None:
                    dwx, dwh, db = terms
                else:
                    dwx, dwh, db = dwx + terms[0], dwh + terms[1], db + terms[2]
            return dwx, dwh, db

        return Tensor._make(out, (self.wx, self.wh, self.b), bwd)


class Conv3x3(Module):
    """3x3 same-padding convolution via gather + matmul (im2col)."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, dtype=np.float32):
        self.w = Tensor(xavier_uniform(rng, (c_in * 9, c_out), c_in * 9, c_out, dtype),
                        requires_grad=True)
        self.b = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
        self.c_in = c_in
        self.c_out = c_out

    def __call__(self, x: Tensor) -> Tensor:
        n, c, hh, ww = x.shape
        if c != self.c_in:
            raise ShapeError(f"conv expects {self.c_in} channels, got {c}")
        padded = pad2d(x, 1)
        oi = np.repeat(np.arange(hh), ww).reshape(-1, 1)
        oj = np.tile(np.arange(ww), hh).reshape(-1, 1)
        di = np.repeat(np.arange(3), 3).reshape(1, -1)
        dj = np.tile(np.arange(3), 3).reshape(1, -1)
        patches = padded[:, :, oi + di, oj + dj]            # (n, c, hw, 9)
        patches = patches.transpose((0, 2, 1, 3)).reshape(n, hh * ww, c * 9)
        y = patches @ self.w + self.b                        # (n, hw, c_out)
        return y.transpose((0, 2, 1)).reshape(n, self.c_out, hh, ww)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor doubling of the last two axes."""
    n, c, hh, ww = x.shape
    ii = np.repeat(np.arange(hh), 2).reshape(-1, 1)
    jj = np.repeat(np.arange(ww), 2).reshape(1, -1)
    return x[:, :, ii, jj]


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """(n, r*r*k, h, w) -> (n, k, r*h, r*w)."""
    n, c, hh, ww = x.shape
    if c % (r * r) != 0:
        raise ShapeError(f"channels {c} not divisible by {r * r}")
    k = c // (r * r)
    return (x.reshape(n, r, r, k, hh, ww)
             .transpose((0, 3, 4, 1, 5, 2))
             .reshape(n, k, hh * r, ww * r))
