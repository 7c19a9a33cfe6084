"""Bias-corrected Adam (Kingma & Ba, 2015), shared by training and gain search.

Both callers import ``adam_step`` by that name, so each module holds its own
global for it. Only the step size ``alpha`` is set per call; the moment
decay rates ``BETA1`` and ``BETA2`` and the denominator guard ``EPS`` are
the same for every caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-7


@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 1e-2

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    iteration: int

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), iteration=0)


def adam_step(state: AdamState, grad: np.ndarray, f: np.ndarray, cfg: AdamConfig):
    """One bias-corrected Adam update of ``f``; returns (new f, new state)."""
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient in Adam update")
    it = state.iteration + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grad
    v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**it)
    v_hat = v / (1.0 - BETA2**it)
    f_new = f - cfg.alpha * m_hat / (np.sqrt(v_hat) + EPS)
    return f_new, AdamState(m=m, v=v, iteration=it)
