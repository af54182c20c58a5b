"""Central-difference gradient verification in float64."""

from __future__ import annotations

import numpy as np

from civsf.errors import NumericError
from civsf.numerics.tensor import Tensor, collect_grads, no_grad


def grad_check(loss_fn, params: list[tuple[str, Tensor]], epsilon: float = 1e-5,
               max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of loss_fn against central differences.

    loss_fn is a zero-argument callable that rebuilds the loss graph from the
    live parameter tensors; parameters must be float64. Returns the maximum
    relative error |a - n| / max(|a|, |n|, 1e-8) over the checked coordinates.
    When max_coords_per_param is set, at most that many coordinates per
    parameter are checked, drawn without replacement from rng.

    Raises NumericError if any evaluated loss is non-finite.
    """
    for name, p in params:
        if p.data.dtype != np.float64:
            raise NumericError(f"grad_check requires float64 parameters, '{name}' is {p.data.dtype}")
    if max_coords_per_param is not None and rng is None:
        rng = np.random.default_rng(0)

    def evaluate() -> Tensor:
        loss = loss_fn()
        if not np.all(np.isfinite(loss.data)):
            raise NumericError("loss is non-finite during grad_check")
        return loss

    for _, p in params:
        p.grad = None
    evaluate().backward()
    analytic = collect_grads(params)

    worst = 0.0
    with no_grad():                     # the central differences need loss values only
        for name, p in params:
            flat = p.data.reshape(-1)
            size = flat.size
            if max_coords_per_param is not None and size > max_coords_per_param:
                coords = rng.choice(size, size=max_coords_per_param, replace=False)
            else:
                coords = np.arange(size)
            a_flat = analytic[name].reshape(-1)
            for i in coords:
                saved = flat[i]
                flat[i] = saved + epsilon
                hi = evaluate().item()
                flat[i] = saved - epsilon
                lo = evaluate().item()
                flat[i] = saved
                numeric = (hi - lo) / (2.0 * epsilon)
                a = float(a_flat[i])
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if err > worst:
                    worst = err
    return worst
