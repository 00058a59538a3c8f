# The noise sweep: each loss's real error beside its bound over a grid of
# noise levels, averaged over seeded trials, as CSV rows (`kernsense sweep`).

from __future__ import annotations

import dataclasses
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bounds as bd
from .empirics import estimate_lambda12, estimate_rho, residual_constants
from .losses import KERNEL, LOSS_KINDS, MSE, LossSpec, lambda_min_hessian
from .model import (NoiseModel, ProblemInstance, apply_op, estimate_rip,
                    make_instance)
from .optimize import (SolverConfig, auto_step_size, check_eta,
                       error_frobenius, gradient_descent)

# Lanczos steps (Hessian-vector products) for the kernel bound's lambda_min.
# At n = 40 they stop short of convergence; such rows carry
# lambda_min_unconverged.
LAMBDA_MIN_ITERS = 40


# Python types a config value must have, by its declared type (bool is
# rejected where a number is declared).
_CONFIG_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str,
                 "tuple": tuple, "dict": dict,
                 "Optional[float]": (numbers.Real, type(None))}


def _check_types(values: dict, types: dict) -> None:
    """Raise ValueError naming the first key of values whose value does not
    have the type that types declares for it."""
    for name, value in values.items():
        want = _CONFIG_TYPES.get(types.get(name))
        if want is not None and (isinstance(value, bool)
                                 or not isinstance(value, want)):
            raise ValueError(f"config key {name!r} must be of type "
                             f"{types[name]}, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Noise-sweep description.

    Each trial builds one instance (truth + operator + a noise direction)
    shared across the whole epsilon grid and all losses; per grid point the
    noise is rescaled to exact norm epsilon.  The theory is conditioned on
    {||w|| <= eps}, so pinning the boundary is the honest desk-scale
    surrogate; for Gaussian noise kinds the epsilon of each row maps
    through prob_norm_bound for a probability-axis label.  The noise is
    not centered.

    losses (no kind twice) and eps_grid must be non-empty.  eta is a
    positive number or a selector from optimize.ETA_SELECTORS.  The
    kernel-loss error bound uses the lambda_min that Lanczos
    (LAMBDA_MIN_ITERS steps) measures on the Hessian at the ground truth,
    the quantity the bound is stated for.  workers > 1 runs the trials on
    a thread pool.
    """

    n: int = 40
    r: int = 5
    losses: tuple = LOSS_KINDS
    h: float = 1.0
    lambda_mix: float = 0.5
    eps_grid: tuple = (0.5, 0.6, 0.7, 0.8, 0.9)
    trials: int = 3
    noise_kind: str = "sub_gaussian_scaled"
    noise_params: dict = dataclasses.field(
        default_factory=lambda: {"sigma0": 0.05})
    delta_regime: str = "low"      # low -> m = 10 n r, high -> m = 2 n r
    m: int = 0                     # 0 means derive from the regime
    base_seed: int = 0
    max_iters: int = 500
    eta: object = "auto_rho"
    init_scale: float = 0.1
    const_samples: int = 16
    workers: int = 1
    out: str = ""

    def __post_init__(self):
        fields = dataclasses.fields(self)
        _check_types({f.name: getattr(self, f.name) for f in fields},
                     {f.name: f.type for f in fields})
        if not math.isfinite(self.init_scale):
            raise ValueError(f"init_scale must be finite, got "
                             f"{self.init_scale}")
        # h and lambda_mix are checked whatever losses are swept.
        LossSpec.combined(self.lambda_mix, self.h)
        eg = self.eps_grid
        if not eg:
            raise ValueError("eps_grid must not be empty")
        if not all(isinstance(e, numbers.Real) and not isinstance(e, bool)
                   and math.isfinite(e) and e >= 0 for e in eg):
            raise ValueError(f"eps_grid values must be finite and >= 0, "
                             f"got {eg}")
        if any(b <= a for a, b in zip(eg, eg[1:])):
            raise ValueError("eps_grid must be strictly increasing")
        for name in ("trials", "workers", "max_iters", "const_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.delta_regime not in ("low", "high"):
            raise ValueError("delta_regime must be 'low' or 'high'")
        check_eta(self.eta)
        if not self.losses:
            raise ValueError("losses must not be empty")
        for k in self.losses:
            if k not in LOSS_KINDS:
                raise ValueError(f"unknown loss {k!r}")
        if len(set(self.losses)) < len(self.losses):
            raise ValueError(f"losses must not repeat a kind, got {self.losses}")

    @property
    def m_eff(self) -> int:
        if self.m:
            return self.m
        factor = 10 if self.delta_regime == "low" else 2
        return factor * self.n * self.r


def _loss_spec(kind: str, h: float, lambda_mix: float) -> LossSpec:
    """The LossSpec of a loss kind; h and lambda_mix apply where it has them."""
    if kind == MSE:
        return LossSpec.mse()
    if kind == KERNEL:
        return LossSpec.kernel(h)
    return LossSpec.combined(lambda_mix, h)


@dataclass(frozen=True)
class SweepRow:
    loss: str
    epsilon: float
    real_error: float
    bound_error: float
    lipschitz_L: float
    hessian_H: float
    flags: str


SWEEP_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepRow))


def _trial_seed(base_seed: int, trial: int, role: int) -> int:
    return int(np.random.SeedSequence((base_seed, trial, role)).generate_state(1)[0])


def _trial_base(config: SweepConfig, trial: int):
    """Instance (truth, operator, unit noise direction, delta_hat) per trial."""
    noise = NoiseModel(config.noise_kind, config.noise_params)
    inst = make_instance(config.n, config.r, config.m_eff,
                         tuple([1.0] * config.r), noise,
                         _trial_seed(config.base_seed, trial, 0))
    w = inst.noise
    nw = float(np.linalg.norm(w))
    if nw < 1e-30:
        w = np.zeros(config.m_eff)
        w[0] = 1.0
        nw = 1.0
    direction = w / nw
    delta = estimate_rip(inst.op, min(2 * config.r, config.n), 48,
                         _trial_seed(config.base_seed, trial, 1)).delta_hat
    return inst, direction, min(delta, 0.999)


def _cell_bound(config: SweepConfig, spec: LossSpec, inst: ProblemInstance,
                eps: float, delta: float, res, lam_min) -> tuple:
    """Error bound (NaN unless finite) and flags of one solved (loss, eps)
    cell of a trial; a solve that stopped short of grad_tol is flagged why."""
    flags = [] if res.termination == "grad_tol" else [res.termination]
    bound = math.nan
    try:
        if spec.kind == MSE:
            bound = bd.mse_error_upper(bd.BoundInputs(delta=delta, eps=eps))
        elif spec.kind == KERNEL:
            # Residual constants at the ground truth: residuals there equal w.
            g_min, b_max = residual_constants(inst.noise, config.h)
            bi = bd.BoundInputs(delta=delta, eps=eps, h=config.h,
                                g_min=g_min, b_max=b_max,
                                lambda_min=lam_min.value)
            if not lam_min.converged:
                flags.append("lambda_min_unconverged")
            bound = bd.kernel_error_upper(bi)
        else:
            l_star = float(res.loss_trace[-1])
            bound = bd.combined_bound(l_star, config.lambda_mix,
                                      bd.BoundInputs(delta=delta, eps=eps,
                                                     n_meas=inst.op.m))
    except ValueError as exc:
        flags.append(f"bound_precondition: {exc}")
    return (bound if math.isfinite(bound) else math.nan), flags


def _run_trial(config: SweepConfig, trial: int) -> dict:
    """Every (loss, eps) cell of one trial, keyed by (loss, eps).

    Automatic step sizes (one call for all losses) and the kernel
    lambda_min are resolved once, on the largest-epsilon instance, and
    reused across the grid.  All cells are solved in one stacked
    gradient_descent call, which applies the trial's operator once per
    iteration to all running cells.  One estimate_rho call covers all
    losses and epsilons: its sample pairs depend on the trial's seed and
    ||M*|| alone, so they are drawn and applied once.  Then, per epsilon,
    one estimate_lambda12 call covers all losses, on one sample set (its
    seeds depend on the trial alone; its noise magnitudes on ||b||), and
    each loss's bound is computed.
    """
    inst0, direction, delta = _trial_base(config, trial)
    b_clean = apply_op(inst0.op, inst0.truth.matrix)
    insts = {eps: replace(inst0, noise=eps * direction,
                          measurements=b_clean + eps * direction)
             for eps in config.eps_grid}
    inst_top = insts[config.eps_grid[-1]]
    lam_min = None
    if KERNEL in config.losses:
        # The smallest Hessian eigenvalue at the truth moves by well under a
        # percent across the grid (the weights see only the residual
        # spread), so per-cell re-measurement buys nothing but runtime.
        lam_min = lambda_min_hessian(
            LossSpec.kernel(config.h), inst_top.op, inst_top.measurements,
            inst_top.truth.matrix, iters=LAMBDA_MIN_ITERS,
            seed=_trial_seed(config.base_seed, trial, 5))
    specs = tuple(_loss_spec(loss, config.h, config.lambda_mix)
                  for loss in config.losses)
    etas = (auto_step_size(inst_top, specs, config.eta,
                           seed=_trial_seed(config.base_seed, trial, 6),
                           rho_samples=16)
            if isinstance(config.eta, str)
            else (float(config.eta),) * len(specs))
    solvers = [SolverConfig(eta=eta, max_iters=config.max_iters,
                            grad_tol=1e-9, init="ground_truth_perturbed",
                            init_scale=config.init_scale,
                            seed=_trial_seed(config.base_seed, trial, 2))
               for eta in etas]
    keys = [(eps, j) for eps in config.eps_grid for j in range(len(specs))]
    solves = dict(zip(keys, gradient_descent(
        tuple(insts[eps] for eps, _ in keys),
        tuple(specs[j] for _, j in keys),
        tuple(solvers[j] for _, j in keys))))
    b_grid = np.stack([inst.measurements for inst in insts.values()])
    rho_grid = estimate_rho(specs, inst0.op, b_grid, config.const_samples,
                            _trial_seed(config.base_seed, trial, 3),
                            rank=config.r,
                            scale=float(np.linalg.norm(inst0.truth.matrix)))
    cells = {}
    for (eps, inst), rhos in zip(insts.items(), rho_grid):
        lams = estimate_lambda12(specs, inst.op, inst.measurements,
                                 inst.truth.matrix,
                                 max(4, config.const_samples // 2),
                                 _trial_seed(config.base_seed, trial, 4),
                                 rank=min(2 * config.r, config.n))
        for j, (loss, spec, rho, (_, lam2)) in enumerate(
                zip(config.losses, specs, rhos, lams)):
            res = solves[(eps, j)]
            bound, flags = _cell_bound(config, spec, inst, eps, delta, res,
                                       lam_min)
            cells[(loss, eps)] = {
                "real_error": error_frobenius(res.X_hat, inst.truth.matrix),
                "bound_error": bound, "lipschitz_L": rho, "hessian_H": lam2,
                "flags": flags}
    return cells


def run_sweep(config: SweepConfig) -> list:
    """Execute the sweep; returns SweepRow per (loss, epsilon), each the
    mean over the trials.

    Trials are independent given their derived seeds, so execution order
    (and thread count) cannot change the result; rows are reduced in a
    fixed order.  With workers > 1 the trials run on a thread pool.
    """
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            trials = list(pool.map(partial(_run_trial, config),
                                   range(config.trials)))
    else:
        trials = [_run_trial(config, t) for t in range(config.trials)]

    rows = []
    for loss in config.losses:
        for eps in config.eps_grid:
            group = [cells[(loss, eps)] for cells in trials]
            flags = sorted({f for g in group for f in g["flags"]})
            means = {k: float(np.mean([g[k] for g in group]))
                     for k in group[0] if k != "flags"}
            rows.append(SweepRow(loss=loss, epsilon=eps, **means,
                                 flags=";".join(flags) if flags else "ok"))
    return rows


def sweep_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(",".join(v if isinstance(v, str) else f"{float(v):.17g}"
                              for v in dataclasses.astuple(r)))
    return "\n".join(lines) + "\n"
