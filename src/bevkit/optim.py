"""Adam with bias correction over named parameters."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .errors import ConfigError, ContractError, of_kind
from .tensor import Parameter


class Adam:
    """Standard Adam. Parameters update in lexicographic name order and their
    gradients are zeroed after each step; a parameter with no gradient is
    treated as having zero gradient."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = sorted(params, key=lambda p: p.name)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names")
        # a beta of 1 divides by zero, and eps 0 divides 0 by 0 where a grad is 0
        if not (all(of_kind(x, 0.0) for x in (lr, beta1, beta2, eps))
                and 0 < lr < np.inf and 0 < eps < np.inf and 0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigError(f"Adam needs finite lr > 0 and eps > 0 and betas in [0, 1), got "
                              f"lr={lr!r}, beta1={beta1!r}, beta2={beta2!r}, eps={eps!r}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.tensor.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.tensor.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            p.tensor.grad = None

    def zero_grad(self):
        for p in self.params:
            p.tensor.grad = None

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Optimizer state as flat named arrays (for checkpointing)."""
        out = {"opt.step": np.array([float(self.t)])}
        for p in self.params:
            out[f"opt.m.{p.name}"] = self.m[p.name]
            out[f"opt.v.{p.name}"] = self.v[p.name]
        return out

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]):
        """Restore ``state_arrays()`` output. Every key, every shape and the
        step are checked before any state changes; a missing key, a wrong
        shape or a step that is not a finite non-negative integer is a
        ConfigError."""
        want = self.state_arrays()
        for key, cur in want.items():
            if key not in arrays:
                raise ConfigError(f"optimizer state is missing {key}")
            if np.shape(arrays[key]) != cur.shape:
                raise ConfigError(
                    f"optimizer state shape {np.shape(arrays[key])} != {cur.shape} for {key}")
        step = float(arrays["opt.step"][0])
        if not (np.isfinite(step) and step >= 0 and step == int(step)):
            raise ConfigError(f"optimizer step must be a non-negative integer, got {step}")
        self.t = int(step)
        for p in self.params:
            self.m[p.name] = arrays[f"opt.m.{p.name}"].copy()
            self.v[p.name] = arrays[f"opt.v.{p.name}"].copy()
