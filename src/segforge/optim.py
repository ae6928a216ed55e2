"""Adam optimizer with bias correction, operating on named parameters.

State (first/second moments, step count) is keyed by parameter name so it
can be checkpointed and restored exactly.

The update is cache-blocked. Each parameter is walked in flat chunks of
CHUNK elements, and every chunk runs the whole ufunc sequence in place,
with two scratch buffers reused across chunks and parameters. Written
whole-array, the same update made about seven full-size temporaries per
parameter, each one streamed through memory. Chunking changes neither the
order of the operations nor their scalar operands, and each operation
(multiply, add, square, divide, sqrt) rounds every element on its own, so
the parameters and both moments come out bit-identical to the whole-array
update. On a 2-vCPU host with 2 OpenBLAS threads and random gradients, one
step over the full preset's 73.8M parameters took 0.39-0.53 s against
0.70-0.95 s whole-array (medians of 5 steps, four alternating runs of each),
and one desk step took 10-11 against 17 ms. One flat pass over all
parameters without chunking was no faster than the whole-array update: the
gain comes from keeping each chunk's operands in cache.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor

# elements per chunk of the in-place update: at 32K float32 values, one chunk
# of the parameter, both moments, the gradient and the two scratch buffers
# (768 KB together) stay in cache from one ufunc to the next
CHUNK = 32768


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
        """One Adam update from the .grad fields; missing grads count as zero.

        Per element, in this order: m = m*b1 + g*(1-b1); v = v*b2 + g*g*(1-b2);
        p -= (m/bc1)*lr / (sqrt(v/bc2) + eps), applied chunk by chunk. Every
        term rounds in the parameter's dtype, which is also the dtype of each
        gradient that `backward` leaves.
        """
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        # two CHUNK-sized buffers per parameter dtype, reused across chunks
        scratch = {dt: np.empty((2, CHUNK), dtype=dt)
                   for dt in {p.data.dtype for p in self.params.values()}}
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter '{name}' "
                                   f"at step {t}")
            elif g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match "
                                 f"parameter '{name}' {p.data.shape}")
            ubuf, dbuf = scratch[p.data.dtype]
            # p.data, m and v are C-contiguous, so these are views
            flats = [a.reshape(-1) for a in (p.data, self.m[name], self.v[name])]
            gflat = g.reshape(-1)
            for lo in range(0, gflat.size, CHUNK):
                pc, mc, vc = (a[lo:lo + CHUNK] for a in flats)
                gc = gflat[lo:lo + CHUNK]
                k = gc.size
                # the gradient terms are spent before the update reuses their buffer
                tmp = upd = ubuf[:k]
                den = dbuf[:k]
                mc *= b1
                mc += np.multiply(gc, 1.0 - b1, out=tmp)
                vc *= b2
                vc += np.multiply(np.square(gc, out=tmp), 1.0 - b2, out=tmp)
                np.multiply(np.divide(mc, bc1, out=upd), lr, out=upd)
                np.add(np.sqrt(np.divide(vc, bc2, out=den), out=den), eps, out=den)
                pc -= np.divide(upd, den, out=upd)

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
                store[name] = arr.astype(p.data.dtype, order="C", copy=True)
        self.step_count = int(step_count)
