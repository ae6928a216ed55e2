"""Adam optimizer with bias correction, operating on named parameters.

State (first/second moments, step count) is keyed by parameter name so it
can be checkpointed and restored exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor


class Adam:
    def __init__(self, named_params, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not (math.isfinite(lr) and lr > 0):
            raise ConfigError(f"learning rate must be positive and finite, got {lr}")
        if not math.isfinite(eps):
            raise ConfigError(f"eps must be finite, got {eps}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.params: dict[str, Tensor] = dict(named_params)
        if not self.params:
            raise ConfigError("optimizer got no parameters")
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        """One Adam update from the .grad fields; missing grads count as zero."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter '{name}' "
                                   f"at step {t}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed for checkpointing."""
        out = {}
        for name in self.params:
            out[f"adam.m:{name}"] = self.m[name]
            out[f"adam.v:{name}"] = self.v[name]
        return out

    def load_state(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        for name, p in self.params.items():
            for prefix, store in (("adam.m:", self.m), ("adam.v:", self.v)):
                arr = arrays.get(prefix + name)
                if arr is None:
                    raise ConfigError(f"checkpoint missing optimizer state for '{name}'")
                if arr.shape != p.data.shape:
                    raise ConfigError(f"optimizer state shape {arr.shape} does not "
                                      f"match parameter '{name}' {p.data.shape}")
                store[name] = arr.astype(p.data.dtype, copy=True)
        self.step_count = int(step_count)
