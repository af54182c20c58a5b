from civsf.numerics.tensor import (
    Tensor,
    collect_grads,
    log_softmax,
    no_grad,
    pad2d,
    put,
    softmax,
)
from civsf.numerics import nn, optim
from civsf.numerics.gradcheck import grad_check
from civsf.numerics.rng import RngStream

__all__ = [
    "Tensor", "collect_grads", "log_softmax", "no_grad", "pad2d",
    "put", "softmax", "nn", "optim", "grad_check", "RngStream",
]
