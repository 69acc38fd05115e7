"""Adam with bias correction over named parameters."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .errors import ConfigError, ContractError, of_kind, real_floats
from .tensor import Parameter

# Kingma and Ba's moment decay rates and denominator offset (arXiv 1412.6980)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam. Parameters update in lexicographic name order and their
    gradients are zeroed after each step; a parameter with no gradient is
    treated as having zero gradient."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3):
        self.params = sorted(params, key=lambda p: p.name)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names")
        if not (of_kind(lr, 0.0) and 0 < lr < np.inf):
            raise ConfigError(f"Adam needs a finite lr > 0, got {lr!r}")
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self):
        self.t += 1
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        for p in self.params:
            g = p.tensor.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[p.name]
            v = self.v[p.name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            p.tensor.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + _EPS)
            p.tensor.grad = None

    def zero_grad(self):
        for p in self.params:
            p.tensor.grad = None

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the optimizer state as flat named arrays (for checkpointing)."""
        out = {"opt.step": np.array([float(self.t)])}
        for p in self.params:
            out[f"opt.m.{p.name}"] = self.m[p.name].copy()
            out[f"opt.v.{p.name}"] = self.v[p.name].copy()
        return out

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]):
        """Restore ``state_arrays()`` output as float64 copies. Every key,
        array and the step are checked before any state changes; a missing
        key, an array that is not ``errors.real_floats`` of its shape (step's
        in-place updates refuse integers), a negative second moment (its
        square root puts NaN in the parameters) or a step that is not a
        non-negative integer is a ConfigError."""
        want = {"opt.step": (1,), **{f"opt.{moment}.{p.name}": p.data.shape
                                     for p in self.params for moment in "mv"}}
        for key, shape in want.items():
            if key not in arrays:
                raise ConfigError(f"optimizer state is missing {key}")
            a = arrays[key]
            if not real_floats(a, shape) or (key.startswith("opt.v.") and np.any(a < 0)):
                raise ConfigError(f"optimizer state {key} must be finite real floats of shape "
                                  f"{shape}, non-negative in a second moment")
        step = float(arrays["opt.step"][0])
        if not (step >= 0 and step == int(step)):
            raise ConfigError(f"optimizer step must be a non-negative integer, got {step}")
        self.t = int(step)
        for p in self.params:
            self.m[p.name] = arrays[f"opt.m.{p.name}"].astype(np.float64)
            self.v[p.name] = arrays[f"opt.v.{p.name}"].astype(np.float64)
