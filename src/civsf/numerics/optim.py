"""Optimizers over named parameter lists.

All state lives in plain float arrays keyed by parameter name so checkpoints
can carry it and a resumed run continues bitwise identically. A non-finite
loss aborts before the backward pass, and a non-finite gradient aborts the
step naming the offending parameter.
"""

from __future__ import annotations

import numpy as np

from civsf.errors import NumericError, ShapeError
from civsf.numerics.tensor import Tensor


class Optimizer:
    def __init__(self, params: list[tuple[str, Tensor]], lr: float):
        names = [n for n, _ in params]
        if len(set(names)) != len(names):
            raise ShapeError("duplicate parameter names passed to optimizer")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def minimize(self, loss: Tensor, where: str) -> None:
        """One step down the gradient of loss; a non-finite loss raises
        NumericError naming where it arose ("phase 1a at epoch 3")."""
        if not np.isfinite(loss.data):
            raise NumericError(f"non-finite loss in {where}")
        self.zero_grad()
        loss.backward()
        self.step()

    def _grad(self, name: str, p: Tensor) -> np.ndarray:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        return g


class Adam(Optimizer):
    """Adam with bias correction; weight_decay > 0 makes it AdamW (decoupled)."""

    def __init__(self, params: list[tuple[str, Tensor]], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, p in self.params:
            g = self._grad(name, p)
            m = self.m[name] = self.b1 * self.m[name] + (1.0 - self.b1) * g
            v = self.v[name] = self.b2 * self.v[name] + (1.0 - self.b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay > 0.0:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"t": np.array([self.t], dtype=np.float64)}
        for name in self.m:
            out[f"m/{name}"] = self.m[name]
            out[f"v/{name}"] = self.v[name]
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        expected = {"t"} | {f"{k}/{n}" for n in self.m for k in ("m", "v")}
        if set(arrays) != expected:
            raise ShapeError("optimizer state names do not match this parameter set")
        self.t = int(arrays["t"][0])
        for name in self.m:
            self.m[name] = arrays[f"m/{name}"].astype(self.m[name].dtype, copy=True)
            self.v[name] = arrays[f"v/{name}"].astype(self.v[name].dtype, copy=True)


def adamw(params: list[tuple[str, Tensor]], lr: float,
          weight_decay: float = 0.01) -> Adam:
    return Adam(params, lr, weight_decay=weight_decay)
