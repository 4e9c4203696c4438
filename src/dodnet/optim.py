"""Classical SGD with momentum.

Update rule per parameter: v <- momentum * v + g, then p <- p - lr * v.
Parameters that received no gradient this step are left untouched, velocity
included, so frozen branches (e.g. inactive task decoders) stay bitwise
stable.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .tensor import Tensor


class SGDMomentum:
    def __init__(self, named_params: Iterable[Tuple[str, Tensor]], momentum: float = 0.99):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self._params = list(named_params)
        names = [n for n, _ in self._params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names handed to the optimizer")
        self.momentum = momentum
        self.velocity = {n: np.zeros_like(p.data) for n, p in self._params}

    def zero_grad(self) -> None:
        for _, p in self._params:
            p.grad = None

    def step(self, lr: float) -> None:
        if lr < 0:
            raise ValueError(f"negative learning rate {lr}")
        for name, p in self._params:
            if p.grad is None:
                continue
            v = self.velocity[name]
            v *= self.momentum
            v += p.grad
            p.data -= lr * v
