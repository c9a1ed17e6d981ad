"""Classical optimizers for hybrid quantum-classical loops (QAOA/VQE/VQC).

Three options cover the NISQ-era standards:

* :func:`scipy_minimize` — COBYLA / Nelder-Mead via scipy (noise-free
  simulator expectations).
* :class:`SPSAOptimizer` — simultaneous perturbation, the common choice on
  sampled/noisy objectives.
* :func:`parameter_shift_gradient` — exact gradients for circuits built
  from single-parameter rotations, enabling plain gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import optimize as sciopt

from repro.exceptions import ReproError
from repro.utils.rngtools import ensure_rng

ScalarFn = Callable[[np.ndarray], float]


@dataclass
class OptimizerResult:
    """Outcome of a classical optimization run."""

    params: np.ndarray
    value: float
    evaluations: int
    history: list[float] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OptimizerResult(value={self.value:.6g}, evals={self.evaluations})"


def scipy_minimize(
    fn: ScalarFn,
    x0: np.ndarray,
    method: str = "COBYLA",
    maxiter: int = 200,
) -> OptimizerResult:
    """Minimise ``fn`` with a scipy derivative-free method.

    COBYLA needs ``maxiter`` of at least the number of parameters + 2 (scipy
    would silently raise a smaller one), so a smaller one is refused.
    """
    x0 = np.asarray(x0, dtype=float)
    if method.upper() == "COBYLA" and maxiter < x0.size + 2:
        raise ReproError(
            f"COBYLA needs maxiter >= {x0.size + 2} (parameters + 2) for {x0.size} "
            f"parameters; got {maxiter}"
        )
    history: list[float] = []
    evals = 0

    def wrapped(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        value = float(fn(np.asarray(x, dtype=float)))
        history.append(value)
        return value

    result = sciopt.minimize(wrapped, x0, method=method, options={"maxiter": maxiter})
    return OptimizerResult(np.asarray(result.x, dtype=float), float(result.fun), evals, history)


class SPSAOptimizer:
    """Simultaneous Perturbation Stochastic Approximation.

    Uses the standard gain sequences ``a_k = a / (k + 1 + A)^alpha`` and
    ``c_k = c / (k + 1)^gamma`` (Spall 1998).
    """

    def __init__(
        self,
        maxiter: int = 200,
        a: float = 0.2,
        c: float = 0.1,
        alpha: float = 0.602,
        gamma: float = 0.101,
        stability: "float | None" = None,
    ):
        self.maxiter = maxiter
        self.a = a
        self.c = c
        self.alpha = alpha
        self.gamma = gamma
        self.stability = stability if stability is not None else 0.1 * maxiter

    def minimize(self, fn: ScalarFn, x0: np.ndarray, rng=None) -> OptimizerResult:
        rng = ensure_rng(rng)
        x = np.asarray(x0, dtype=float).copy()
        best_x, best_v = x.copy(), float(fn(x))
        history = [best_v]
        evals = 1
        for k in range(self.maxiter):
            ak = self.a / (k + 1 + self.stability) ** self.alpha
            ck = self.c / (k + 1) ** self.gamma
            delta = rng.choice([-1.0, 1.0], size=x.shape)
            plus = float(fn(x + ck * delta))
            minus = float(fn(x - ck * delta))
            evals += 2
            grad = (plus - minus) / (2.0 * ck) * delta
            x = x - ak * grad
            value = min(plus, minus)
            history.append(value)
            if value < best_v:
                best_v = value
                best_x = (x + ck * delta).copy() if plus < minus else (x - ck * delta).copy()
        final = float(fn(x))
        evals += 1
        history.append(final)
        if final < best_v:
            best_v, best_x = final, x.copy()
        return OptimizerResult(best_x, best_v, evals, history)


def parameter_shift_gradient(fn: ScalarFn, params: np.ndarray, shift: float = np.pi / 2) -> np.ndarray:
    """Exact gradient of rotation-parameterised circuit expectations.

    Valid when every parameter enters the circuit as the angle of a gate
    ``exp(-i theta G / 2)`` with ``G^2 = I`` (RX/RY/RZ/RZZ): then
    ``df/dtheta = (f(theta + pi/2) - f(theta - pi/2)) / 2``.
    """
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        plus = params.copy()
        plus[i] += shift
        minus = params.copy()
        minus[i] -= shift
        grad[i] = (float(fn(plus)) - float(fn(minus))) / (2.0 * np.sin(shift))
    return grad


def finite_difference_gradient(fn: ScalarFn, params: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences (for observables where the shift rule
    does not apply)."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        plus = params.copy()
        plus[i] += eps
        minus = params.copy()
        minus[i] -= eps
        grad[i] = (float(fn(plus)) - float(fn(minus))) / (2.0 * eps)
    return grad


def gradient_descent(
    fn: ScalarFn,
    x0: np.ndarray,
    learning_rate: float = 0.1,
    maxiter: int = 100,
    grad_fn: "Callable[[ScalarFn, np.ndarray], np.ndarray] | None" = None,
    tol: float = 1e-8,
) -> OptimizerResult:
    """Plain gradient descent using the parameter-shift rule by default."""
    grad_fn = grad_fn or parameter_shift_gradient
    x = np.asarray(x0, dtype=float).copy()
    history = []
    evals = 0
    value = float(fn(x))
    evals += 1
    history.append(value)
    for _ in range(maxiter):
        grad = grad_fn(fn, x)
        evals += 2 * x.size
        x_new = x - learning_rate * grad
        new_value = float(fn(x_new))
        evals += 1
        history.append(new_value)
        if abs(new_value - value) < tol:
            x, value = x_new, new_value
            break
        x, value = x_new, new_value
    return OptimizerResult(x, value, evals, history)
