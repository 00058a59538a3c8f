# Burer-Monteiro vanilla gradient descent with fixed step sizes, plus the
# step-size rules, rank-r projection and factor-distance utilities.
#
# The solver iterates X <- X - eta * grad_X(loss, X).  No line search,
# momentum, or restarts: the convergence theory covers plain fixed-step
# descent only.

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .empirics import estimate_rho
from .model import (ProblemInstance, SensingOperator, adjoint_op, apply_op,
                    estimate_rip)
from .losses import KERNEL, MSE, LossSpec, loss_and_grad_residual

__all__ = [
    "ETA_SELECTORS",
    "check_eta",
    "SolverConfig",
    "SolveResult",
    "ConvergenceBoundInputs",
    "step_size_bound",
    "spectral_init",
    "auto_step_size",
    "gradient_descent",
    "project_rank_r",
    "dist_factor",
    "error_frobenius",
    "trace_csv",
]

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Step-size rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceBoundInputs:
    """Constants feeding the fixed-step-size bounds.

    rho is the restricted gradient-Lipschitz constant of the quadratic
    (MSE) structure; the kernel rule reuses it and accounts for the kernel
    curvature through the h^2 factor, with h read from the loss spec.
    norm_Mw is ||M^w||_F where M^w is the minimizer of the loss at the
    realized noise; it has no closed form for the kernel loss and is in
    practice approximated from a long high-precision solve (or from the
    spectral surrogate before solving).
    """

    rho: float
    rank: int
    delta: float = 0.0
    zeta2: float = 0.0
    eps: float = 0.0
    norm_Mw: float = 0.0

    def __post_init__(self):
        for name in ("rho", "rank", "zeta2", "eps", "norm_Mw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.rho == 0 or self.rank == 0:
            raise ValueError("rho and rank must be positive")


def step_size_bound(spec: LossSpec, inputs: ConvergenceBoundInputs) -> float:
    """Largest step size with a monotone-descent guarantee.

    MSE:     1 / (12 rho sqrt(r) (2(sqrt(2)-1) sqrt(1-s^2) + ||M^w||_F))
    kernel:  h^2 times the MSE value for the same inputs,
    with s = delta + zeta2 * eps < 1 required.  For the combined loss the
    conservative min of the two rules is used (no dedicated theory).
    """
    s = inputs.delta + inputs.zeta2 * inputs.eps
    if s >= 1.0:
        raise ValueError(f"need delta + zeta2*eps < 1, got {s}")
    base = 1.0 / (12.0 * inputs.rho * math.sqrt(inputs.rank)
                  * (2.0 * (_SQRT2 - 1.0) * math.sqrt(1.0 - s * s)
                     + inputs.norm_Mw))
    if spec.kind == MSE:
        return base
    # The bandwidth in the rule is the loss's own kernel bandwidth.
    if spec.kind == KERNEL:
        return spec.h ** 2 * base
    return min(base, spec.h ** 2 * base)


# Step-size selectors resolved by auto_step_size:
#   "auto"      theory step from step_size_bound with a shared rho estimate
#               of the quadratic structure (the kernel value is exactly h^2
#               times the MSE value);
#   "auto_rho"  same formula but with rho re-estimated for the actual loss
#               being solved; far less conservative for the kernel loss,
#               whose gradients are small.
ETA_SELECTORS = ("auto", "auto_rho")


def check_eta(eta) -> None:
    """Raise ValueError unless eta is a selector or a positive number."""
    if isinstance(eta, str):
        if eta not in ETA_SELECTORS:
            raise ValueError(f"unknown eta selector {eta!r}; expected a "
                             f"positive number or one of "
                             f"{', '.join(ETA_SELECTORS)}")
    elif isinstance(eta, bool) or not (isinstance(eta, numbers.Real)
                                       and eta > 0):
        raise ValueError(f"explicit eta must be a number > 0, got {eta!r}")


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Gradient-descent configuration.

    eta: positive float, or a selector from ETA_SELECTORS.
    init: "spectral", "ground_truth_perturbed", or "explicit" (set init_X0).
    """

    eta: object = "auto"
    max_iters: int = 1000
    grad_tol: float = 1e-10
    init: str = "spectral"
    init_scale: float = 0.0
    init_X0: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        check_eta(self.eta)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 <= self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and >= 0, got "
                             f"{self.grad_tol}")
        if not math.isfinite(self.init_scale):
            raise ValueError(f"init_scale must be finite, got {self.init_scale}")
        if self.init not in ("spectral", "ground_truth_perturbed", "explicit"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "explicit" and self.init_X0 is None:
            raise ValueError("explicit init requires init_X0")


@dataclass(frozen=True)
class SolveResult:
    X_hat: np.ndarray
    loss_trace: np.ndarray     # length iterations_run + 1
    error_trace: Optional[np.ndarray]
    iterations_run: int
    termination: str           # "grad_tol" | "max_iters" | "non_finite"
    eta: float
    grad_norm: float           # ||grad_X|| at X_hat


def spectral_init(op: SensingOperator, b: np.ndarray, r: int) -> np.ndarray:
    """Warm start from the top-r eigenpairs of the symmetric A*(b).

    Standard matrix-sensing initialization; the convergence theory assumes
    a point inside a basin without providing one.
    """
    vals, vecs = np.linalg.eigh(adjoint_op(op, np.asarray(b)))
    idx = np.argsort(vals)[::-1][:r]
    lam = np.clip(vals[idx], 0.0, None)
    return vecs[:, idx] * np.sqrt(lam)


def _init_point(instance: ProblemInstance, config: SolverConfig) -> np.ndarray:
    r = instance.truth.r
    if config.init == "spectral":
        return spectral_init(instance.op, instance.measurements, r)
    if config.init == "ground_truth_perturbed":
        X = instance.truth.factor
        if config.init_scale == 0.0:
            return X.copy()
        rng = np.random.default_rng(config.seed)
        pert = rng.standard_normal(X.shape)
        pert *= config.init_scale * np.linalg.norm(X) / np.linalg.norm(pert)
        return X + pert
    return np.array(config.init_X0, dtype=float, copy=True)


def auto_step_size(instance: ProblemInstance, spec, selector: str = "auto",
                   seed: int = 0, rho_samples: int = 32):
    """Step size from the closed-form descent rule, on-instance constants.

    rho comes from empirics.estimate_rho; delta from a sampled isometry
    probe; ||M^w||_F is approximated by the rank-r spectral surrogate built
    from the measurements (the actual minimizer is not available before
    solving).  With selector "auto" the rho of the quadratic structure is
    used, so the kernel step is exactly h^2 times the MSE step; "auto_rho"
    re-estimates rho for the loss itself.  spec is a LossSpec, or a tuple
    of them for one step per spec, in order: one delta probe, one spectral
    init and one rho sample set serve them all, and each step is the one
    its spec gets alone.
    """
    if selector not in ETA_SELECTORS:
        raise ValueError(f"unknown eta selector {selector!r}")
    op, b = instance.op, instance.measurements
    r = instance.truth.r
    specs = spec if isinstance(spec, tuple) else (spec,)
    seeds = np.random.SeedSequence(seed).generate_state(2)
    if selector == "auto_rho":
        rhos = estimate_rho(specs, op, b, samples=rho_samples,
                            seed=int(seeds[0]))
    else:
        rhos = estimate_rho((LossSpec.mse(),), op, b, samples=rho_samples,
                            seed=int(seeds[0])) * len(specs)
    delta = estimate_rip(op, min(2 * r, op.n), 32, int(seeds[1])).delta_hat
    delta = min(delta, 0.999)
    X0 = spectral_init(op, b, r)
    norm_mw = float(np.linalg.norm(X0 @ X0.T))
    steps = tuple(step_size_bound(s, ConvergenceBoundInputs(
        rho=rho, rank=r, delta=delta, zeta2=0.0, eps=0.0, norm_Mw=norm_mw))
                  for s, rho in zip(specs, rhos))
    return steps if isinstance(spec, tuple) else steps[0]


def gradient_descent(instance: ProblemInstance, spec: LossSpec,
                     config: SolverConfig) -> SolveResult:
    """Fixed-step gradient descent on the factored loss.

    Terminates on gradient norm below grad_tol, on the iteration budget, or
    on a non-finite value (partial traces are kept in that case).
    Deterministic given the config seed.
    """
    op, b = instance.op, instance.measurements
    M_star = instance.truth.matrix

    if isinstance(config.eta, str):
        eta = auto_step_size(instance, spec, config.eta, seed=config.seed)
    else:
        eta = float(config.eta)
    if not math.isfinite(eta) or eta <= 0:
        raise ValueError(f"step size resolved to {eta}")

    X = _init_point(instance, config)
    losses = []
    errors = []
    steps = 0

    def record(X):
        # A diverging iterate overflows here; the loop below reports that
        # as "non_finite", so the overflow warnings carry nothing more.
        with np.errstate(over="ignore", invalid="ignore"):
            r = b - apply_op(op, X @ X.T)
            val, g = loss_and_grad_residual(spec, r)
            losses.append(val)
            errors.append(float(np.linalg.norm(X @ X.T - M_star)))
            gX = 2.0 * (-adjoint_op(op, g)) @ X
            return val, gX, float(np.linalg.norm(gX))

    val, gX, gnorm = record(X)
    while True:
        if not (math.isfinite(val) and np.all(np.isfinite(gX))):
            termination = "non_finite"
            break
        if gnorm < config.grad_tol:
            termination = "grad_tol"
            break
        if steps == config.max_iters:
            termination = "max_iters"
            break
        X = X - eta * gX
        steps += 1
        val, gX, gnorm = record(X)

    return SolveResult(X_hat=X, loss_trace=np.array(losses),
                       error_trace=np.array(errors), iterations_run=steps,
                       termination=termination, eta=eta, grad_norm=gnorm)


# ---------------------------------------------------------------------------
# Projections and distances
# ---------------------------------------------------------------------------

def project_rank_r(M: np.ndarray, r: int) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix of rank at most r.

    Eigendecomposes sym(M), keeps the r algebraically largest eigenvalues
    clamped at zero, and reconstructs.
    """
    M = np.asarray(M, dtype=float)
    S = 0.5 * (M + M.T)
    vals, vecs = np.linalg.eigh(S)
    keep = np.argsort(vals)[::-1][:r]
    lam = np.clip(vals[keep], 0.0, None)
    return (vecs[:, keep] * lam) @ vecs[:, keep].T


def dist_factor(X: np.ndarray, M: np.ndarray) -> float:
    """min over Z with Z Z^T = M of ||X - Z||_F.

    Computed as ||X - Z0 Q*||_F where Z0 carries the top-r eigenpairs of M
    and Q* solves the orthogonal Procrustes problem.  M must be PSD of rank
    at most r = X.shape[1], to within 1e-8 of max(|eigenvalue|, 1).
    """
    X = np.asarray(X, dtype=float)
    M = np.asarray(M, dtype=float)
    n, r = X.shape
    if M.shape != (n, n):
        raise ValueError(f"M must be {n} x {n}, got {M.shape}")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    tol = 1e-8 * max(abs(vals[0]), abs(vals[-1]), 1.0)
    if vals[0] < -tol:
        raise ValueError("M must be positive semidefinite")
    if n > r and vals[-(r + 1)] > tol:
        raise ValueError(f"rank(M) exceeds r={r}")
    lam = np.clip(vals[-r:], 0.0, None)
    Z0 = vecs[:, -r:] * np.sqrt(lam)
    u, _, vt = np.linalg.svd(Z0.T @ X)
    return float(np.linalg.norm(X - Z0 @ (u @ vt)))


def error_frobenius(X: np.ndarray, M_star: np.ndarray) -> float:
    """||X X^T - M*||_F; inf or nan for a diverged X."""
    X = np.asarray(X, dtype=float)
    M_star = np.asarray(M_star, dtype=float)
    if X.ndim != 2 or M_star.shape != (X.shape[0], X.shape[0]):
        raise ValueError("dimension mismatch between X and M*")
    # A diverged iterate (a "non_finite" solve) overflows here; the caller
    # already flags it, so the overflow warning carries nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(X @ X.T - M_star))


def trace_csv(values: np.ndarray, column: str) -> str:
    """Two-column CSV (iteration, value) with 17-significant-digit floats."""
    lines = [f"iteration,{column}"]
    for i, v in enumerate(np.asarray(values)):
        lines.append(f"{i},{float(v):.17g}")
    return "\n".join(lines) + "\n"
