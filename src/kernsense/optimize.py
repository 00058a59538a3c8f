# Burer-Monteiro vanilla gradient descent with fixed step sizes, plus the
# step-size rules, rank-r projection and factor-distance utilities.
#
# The solver iterates X <- X - eta * grad_X(loss, X).  No line search,
# momentum, or restarts: the convergence theory covers plain fixed-step
# descent only.
#
# Stacked solves: gradient_descent also takes tuples of instances that share
# one operator, with a spec and a config per instance.  The problems descend
# in lockstep: each evaluation makes one stacked apply_op and one stacked
# adjoint_op for the problems still running, and a problem that ends leaves
# the stack.  Stacked operator products are zero-padded blocks of
# model._OP_BLOCK rows, so a problem's trajectory is the same bits in any
# tuple, at any position.  A bare call differs from its tuple-of-one bits
# by rounding: a bare MSE solve descends on the normal equations
# (model.normal_products: A*A formed once per call, then one k x k product
# per step, k = n(n+1)/2), and any other bare solve makes matrix-vector
# products.  Measured at n = 40 on a 2-vCPU Xeon, the normal form pays for
# its build (one m k^2 product) after about 36, 45 and 60 steps at
# m = 4000, 2000 and 1200.
# Tuples keep the residual form, where MSE rows ride the operator blocks
# that the other rows pay for, and a problem's bits must not depend on
# what it is stacked with.  losses._loss_grad_M composes their losses with
# the operator, with one fast Gauss transform per bandwidth for the kernel
# rows, which gives each row the bits it gets alone.

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .empirics import estimate_rho
from .model import (ProblemInstance, SensingOperator, _check_count,
                    _derived_seeds, adjoint_op, estimate_rip, normal_products)
from .losses import KERNEL, MSE, LossSpec, _loss_grad_M, _measurements

__all__ = [
    "ETA_SELECTORS",
    "check_eta",
    "check_init_X0",
    "SolverConfig",
    "SolveResult",
    "SolveResults",
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
    conservative min of the two rules is used (no dedicated theory).  rho
    is at losses' scale, for the MSE that of 0.5 sum(r_i^2).
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
    """Raise ValueError unless eta is a selector or a finite number > 0."""
    if isinstance(eta, str):
        if eta not in ETA_SELECTORS:
            raise ValueError(f"unknown eta selector {eta!r}; expected a "
                             f"positive number or one of "
                             f"{', '.join(ETA_SELECTORS)}")
    elif isinstance(eta, bool) or not (isinstance(eta, numbers.Real)
                                       and 0 < eta < math.inf):
        raise ValueError(f"eta must be a finite number > 0, got {eta!r}")


def check_init_X0(X0, n: Optional[int] = None) -> np.ndarray:
    """X0 as a new float array; ValueError naming init_X0 unless it is a
    finite 2-D real array with at least one column (none would read as
    converged at once), with n rows when n is given."""
    try:
        X = np.asarray(X0)
        real = X.ndim == 2 and X.dtype.kind in "iuf" and X.shape[1] > 0
    except ValueError:                   # nested sequences of unequal length
        real = False
    if not real:
        raise ValueError(f"init_X0 must be a 2-D array of real numbers with "
                         f"at least one column, got {X0!r:.60}")
    X = X.astype(float)
    if not np.all(np.isfinite(X)):
        raise ValueError("init_X0 must be finite")
    if n is not None and X.shape[0] != n:
        raise ValueError(f"init_X0 must have n={n} rows, got shape {X.shape}")
    return X


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Gradient-descent configuration.

    eta: finite float > 0, or a selector from ETA_SELECTORS.
    init: "spectral", "ground_truth_perturbed", or "explicit" (set init_X0,
    a finite 2-D real array; gradient_descent checks that it has n rows).
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
        _check_count("max_iters", self.max_iters)
        if not 0 <= self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and >= 0, got "
                             f"{self.grad_tol}")
        if not math.isfinite(self.init_scale):
            raise ValueError(f"init_scale must be finite, got {self.init_scale}")
        if self.init not in ("spectral", "ground_truth_perturbed", "explicit"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "explicit" and self.init_X0 is None:
            raise ValueError("explicit init requires init_X0")
        if self.init_X0 is not None:
            check_init_X0(self.init_X0)


@dataclass(frozen=True)
class SolveResult:
    X_hat: np.ndarray
    loss_trace: np.ndarray     # length iterations_run + 1
    error_trace: Optional[np.ndarray]
    iterations_run: int
    termination: str           # "grad_tol" | "max_iters" | "non_finite"
    eta: float
    grad_norm: float           # ||grad_X|| at X_hat


class SolveResults(tuple):
    """The SolveResult of each problem of a stacked gradient_descent call,
    in order, with the outcome of the call as a whole: iterations_run sums
    the problems' steps, and termination is their common reason, or "mixed".
    """

    @property
    def iterations_run(self) -> int:
        return sum(res.iterations_run for res in self)

    @property
    def termination(self) -> str:
        reasons = {res.termination for res in self}
        return reasons.pop() if len(reasons) == 1 else "mixed"


def spectral_init(op: SensingOperator, b: np.ndarray, r: int) -> np.ndarray:
    """Warm start from the top-r eigenpairs of the symmetric A*(b).

    Standard matrix-sensing initialization; the convergence theory assumes
    a point inside a basin without providing one.
    """
    vals, vecs = np.linalg.eigh(adjoint_op(op, _measurements(op, b)))
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
    return check_init_X0(config.init_X0, instance.truth.n)


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
    rho_seed, rip_seed = _derived_seeds(seed, 2)
    if selector == "auto_rho":
        rhos = estimate_rho(specs, op, b, samples=rho_samples, seed=rho_seed)
    else:
        rhos = estimate_rho((LossSpec.mse(),), op, b, samples=rho_samples,
                            seed=rho_seed) * len(specs)
    delta = estimate_rip(op, min(2 * r, op.n), 32, rip_seed).delta_hat
    delta = min(delta, 0.999)
    X0 = spectral_init(op, b, r)
    norm_mw = float(np.linalg.norm(X0 @ X0.T))
    steps = tuple(step_size_bound(s, ConvergenceBoundInputs(
        rho=rho, rank=r, delta=delta, zeta2=0.0, eps=0.0, norm_Mw=norm_mw))
                  for s, rho in zip(specs, rhos))
    return steps if isinstance(spec, tuple) else steps[0]


class _Descent:
    """One problem's state in gradient_descent's loop."""

    def __init__(self, instance: ProblemInstance, spec: LossSpec,
                 config: SolverConfig):
        self.X = _init_point(instance, config)
        if isinstance(config.eta, str):
            eta = auto_step_size(instance, spec, config.eta, seed=config.seed)
        else:
            eta = float(config.eta)
        if not math.isfinite(eta) or eta <= 0:
            raise ValueError(f"step size resolved to {eta}")
        self.spec, self.config, self.eta = spec, config, eta
        self.b = _measurements(instance.op, instance.measurements)
        self.M_star = instance.truth.matrix
        self.losses = []
        self.errors = []
        self.steps = 0
        self.termination = None

    def ended(self) -> bool:
        """Whether the solve stops at the current iterate (sets termination)."""
        if not (math.isfinite(self.losses[-1])
                and np.all(np.isfinite(self.gX))):
            self.termination = "non_finite"
        elif self.gnorm < self.config.grad_tol:
            self.termination = "grad_tol"
        elif self.steps == self.config.max_iters:
            self.termination = "max_iters"
        return self.termination is not None

    def result(self) -> SolveResult:
        return SolveResult(X_hat=self.X, loss_trace=np.array(self.losses),
                           error_trace=np.array(self.errors),
                           iterations_run=self.steps,
                           termination=self.termination, eta=self.eta,
                           grad_norm=self.gnorm)


def gradient_descent(instance, spec, config):
    """Fixed-step gradient descent on the factored loss.

    Terminates on gradient norm below grad_tol, on the iteration budget, or
    on a non-finite value (partial traces are kept in that case).
    Deterministic given the config seed.

    instance, spec and config are one problem, giving a SolveResult, or
    tuples of one length, giving SolveResults, one per problem in order.
    The instances of a tuple must share one operator: every iteration
    applies it and its adjoint once to the stack of running problems.  A
    problem's result is the same bits in every tuple that holds it, and
    agrees with its bare call to rounding.  A bare MSE call forms the
    normal matrix A*A once (5.4 MB at n = 40), freed on return, and each
    step is one k x k product (model.normal_products, whose value carries an
    absolute rounding error of order 2^-53 ||b||^2); other bare calls apply
    the operator and its adjoint once per step.
    """
    stacked = isinstance(instance, tuple)
    if any(isinstance(a, tuple) != stacked for a in (spec, config)) or (
            stacked and not len(instance) == len(spec) == len(config)):
        raise ValueError("instance, spec and config must all be tuples of "
                         "one length, or none of them")
    if not stacked:
        instance, spec, config = (instance,), (spec,), (config,)
    if not instance:
        raise ValueError("no problems to solve")
    op = instance[0].op
    if any(inst.op is not op and not np.array_equal(inst.op.P, op.P)
           for inst in instance[1:]):
        raise ValueError("stacked problems must share one operator")
    runs = [_Descent(*p) for p in zip(instance, spec, config)]
    normal = (normal_products(op, runs[0].b)
              if not stacked and runs[0].spec.kind == MSE else None)

    def evaluate(active):
        XXt = [run.X @ run.X.T for run in active]
        if normal is not None:
            val, grad = normal(XXt[0])
            vals, grads = [val], grad
        else:
            vals, grads = _loss_grad_M(
                [run.spec for run in active], op,
                np.stack([run.b for run in active]),
                np.stack(XXt) if stacked else XXt[0])
        for run, M, val, grad in zip(active, XXt, vals,
                                     grads.reshape(-1, op.n, op.n)):
            run.losses.append(val)
            run.errors.append(float(np.linalg.norm(M - run.M_star)))
            run.gX = 2.0 * grad @ run.X
            run.gnorm = float(np.linalg.norm(run.gX))

    # A diverging iterate overflows; the loop reports that as "non_finite",
    # so the overflow warnings carry nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        active = runs
        evaluate(active)
        while active := [run for run in active if not run.ended()]:
            for run in active:
                run.X = run.X - run.eta * run.gX
                run.steps += 1
            evaluate(active)

    if stacked:
        return SolveResults(run.result() for run in runs)
    return runs[0].result()


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
