# Command-line orchestration: instance generation, solving, noise sweeps,
# bound reports, and the verification suite.  Emits CSV/JSON only; plotting
# is left to external tools.
#
# Exit codes: 0 success, 2 bad arguments, 3 solver hit a non-finite value,
# 4 verification failure.

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import bounds as bd
from .empirics import estimate_lambda12, estimate_rho, residual_constants
from .losses import KERNEL, LOSS_KINDS, MSE, LossSpec, lambda_min_hessian
from .model import (NoiseModel, ProblemInstance, apply_op, estimate_rip,
                    instance_from_json, instance_to_json, make_instance,
                    prob_norm_bound)
from .optimize import (ETA_SELECTORS, SolverConfig, auto_step_size, check_eta,
                       check_init_X0, error_frobenius, gradient_descent,
                       trace_csv)
from .verify import run_verification

SWEEP_CSV_HEADER = "loss,epsilon,real_error,bound_error,lipschitz_L,hessian_H,flags"

# Lanczos steps (Hessian-vector products) for the kernel bound's lambda_min.
# At n = 40 they stop short of convergence; such rows carry
# lambda_min_unconverged.
LAMBDA_MIN_ITERS = 40


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------

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
    """Error bound and flags of one solved (loss, eps) cell of a trial."""
    flags = ["non_finite"] if res.termination == "non_finite" else []
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
    return bound, flags


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
            bounds_ok = [g["bound_error"] for g in group
                         if math.isfinite(g["bound_error"])]
            rows.append(SweepRow(
                loss=loss, epsilon=eps,
                real_error=float(np.mean([g["real_error"] for g in group])),
                bound_error=(float(np.mean(bounds_ok)) if len(bounds_ok)
                             == len(group) else math.nan),
                lipschitz_L=float(np.mean([g["lipschitz_L"] for g in group])),
                hessian_H=float(np.mean([g["hessian_H"] for g in group])),
                flags=";".join(flags) if flags else "ok"))
    return rows


def sweep_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        bound = _fmt(r.bound_error) if math.isfinite(r.bound_error) else "nan"
        lines.append(",".join([r.loss, _fmt(r.epsilon), _fmt(r.real_error),
                               bound, _fmt(r.lipschitz_L), _fmt(r.hessian_H),
                               r.flags]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _number(text: str, flag: str, item: str) -> float:
    """float(text), text taken from the comma-separated item of flag."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{flag}: no number in item {item!r}") from None


def _parse_kv(text: str) -> dict:
    out = {}
    if text:
        for item in text.split(","):
            k, _, v = item.partition("=")
            out[k.strip()] = _number(v, "--noise-params", item)
    return out


def _cmd_gen(args) -> int:
    spectrum = tuple(_number(s, "--spectrum", s)
                     for s in args.spectrum.split(","))
    noise = NoiseModel(args.noise, _parse_kv(args.noise_params), args.centered)
    inst = make_instance(args.n, args.rank, args.m, spectrum, noise, args.seed)
    # The probe validates --rip-trials, so it runs before anything is written.
    rip = estimate_rip(inst.op, min(2 * args.rank, args.n), args.rip_trials,
                       args.seed)
    Path(args.out).write_text(instance_to_json(inst))
    print(f"wrote {args.out}")
    print(f"delta_hat (rank {rip.rank_tested}, {rip.trials} trials, sampled "
          f"lower bound): {rip.delta_hat:.6f}")
    return 0


def _init_file(path: str, n: int) -> np.ndarray:
    """The --init-file matrix, checked as gradient_descent checks init_X0."""
    text = Path(path).read_text()
    try:
        return check_init_X0(json.loads(text), n)
    except ValueError as exc:            # also malformed JSON
        raise ValueError(f"--init-file {path}: {exc}") from None


def _cmd_solve(args) -> int:
    if args.init == "explicit" and args.init_file is None:
        raise ValueError("--init explicit needs --init-file")
    # A flag the chosen init does not read would be ignored silently.
    if args.init_file is not None and args.init != "explicit":
        raise ValueError(f"--init-file needs --init explicit, got --init "
                         f"{args.init}")
    if args.init_scale is not None and args.init != "ground_truth_perturbed":
        raise ValueError(f"--init-scale needs --init ground_truth_perturbed, "
                         f"got --init {args.init}")
    # h and lambda_mix are checked whatever the loss, as sweep does.
    LossSpec.combined(args.lambda_mix, args.h)
    inst = instance_from_json(Path(args.instance).read_text())
    spec = _loss_spec(args.loss, args.h, args.lambda_mix)
    init_x0 = None
    if args.init == "explicit":
        init_x0 = _init_file(args.init_file, inst.truth.n)
    config = SolverConfig(eta=args.eta, max_iters=args.max_iters,
                          grad_tol=args.grad_tol, init=args.init,
                          init_scale=(0.1 if args.init_scale is None
                                      else args.init_scale), init_X0=init_x0,
                          seed=args.seed)
    res = gradient_descent(inst, spec, config)

    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}_loss.csv").write_text(trace_csv(res.loss_trace, "loss"))
    Path(f"{prefix}_error.csv").write_text(trace_csv(res.error_trace, "error"))
    summary = {
        "loss": args.loss,
        "iterations_run": res.iterations_run,
        "termination": res.termination,
        "eta": res.eta,
        "final_loss": float(res.loss_trace[-1]),
        "final_error": float(res.error_trace[-1]),
        "final_grad_norm": res.grad_norm,
        "relative_error": float(res.error_trace[-1]
                                / np.linalg.norm(inst.truth.matrix)),
    }
    Path(f"{prefix}_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 3 if res.termination == "non_finite" else 0


def _config_fields(args, cls, extra=()) -> dict:
    """Fields for cls: the JSON object in --config, where a key outside the
    fields of cls and extra is a usage error, overridden by every given
    flag whose dest is a field of cls."""
    names = [f.name for f in dataclasses.fields(cls)]
    fields = {}
    if args.config:
        fields = json.loads(Path(args.config).read_text())
        if not isinstance(fields, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(fields) - set(names) - set(extra))
        if unknown:
            raise ValueError(f"{args.config}: unknown config key(s): "
                             f"{', '.join(unknown)}")
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    return fields


def _sweep_config_from_args(args) -> SweepConfig:
    fields = _config_fields(args, SweepConfig)
    # JSON has no tuples; other types are checked by SweepConfig.
    for key in ("losses", "eps_grid"):
        if isinstance(fields.get(key), list):
            fields[key] = tuple(fields[key])
    return SweepConfig(**fields)


def _cmd_sweep(args) -> int:
    config = _sweep_config_from_args(args)
    rows = run_sweep(config)
    text = sweep_csv(rows)
    if config.out:
        Path(config.out).write_text(text)
        print(f"wrote {config.out}")
    else:
        sys.stdout.write(text)
    # Probability-axis labels: each epsilon maps through the norm bound of
    # prob_norm_bound, whose scale sigma makes the entries
    # sigma/sqrt(m)-sub-Gaussian.  Only the Gaussian noise kinds carry one.
    params = config.noise_params
    if config.noise_kind == "sub_gaussian_scaled":
        sigma = params["sigma0"]
    elif config.noise_kind == "gaussian":
        sigma = params["sigma"] * math.sqrt(config.m_eff)
    else:
        print(f"# no prob_lower_bound: {config.noise_kind} noise has no "
              f"sub-Gaussian scale")
        return 0
    for row in rows:
        p = prob_norm_bound(max(row.epsilon, 1e-12), config.m_eff, max(sigma, 1e-6))
        print(f"# {row.loss} eps={row.epsilon:g} prob_lower_bound={p:.6f}")
    return 0


# BoundInputs fields that `bounds` takes as float flags; the one int field,
# n_meas, is taken as an int flag.
BOUNDS_FLOAT_INPUTS = tuple(f.name for f in dataclasses.fields(bd.BoundInputs)
                            if f.type != "int")
# Keys a bounds config may hold beside the BoundInputs fields.
_HDI_KEYS = ("lambda_rstar", "norm_q", "gamma_min", "u_min_sq")
_REPORT_KEYS = ("l_star", "lambda_mix", "rho", "rank")
# The declared type of every key a bounds config may hold.
_BOUNDS_TYPES = {
    **{f.name: f.type for f in dataclasses.fields(bd.BoundInputs)},
    **dict.fromkeys(_HDI_KEYS, "float"), "l_star": "float",
    "lambda_mix": "float", "rho": "float", "rank": "int"}


def _cmd_bounds(args) -> int:
    fields = _config_fields(args, bd.BoundInputs, _HDI_KEYS + _REPORT_KEYS)
    _check_types(fields, _BOUNDS_TYPES)
    hdi_fields = {k: fields.pop(k) for k in _HDI_KEYS if k in fields}
    missing = [k for k in _HDI_KEYS if k not in hdi_fields]
    if hdi_fields and missing:
        raise ValueError(f"high-delta inputs need all of "
                         f"{', '.join(_HDI_KEYS)}; missing {', '.join(missing)}")
    l_star = fields.pop("l_star", 0.0)
    lambda_mix = fields.pop("lambda_mix", 1.0)
    rho = fields.pop("rho", 1.0)
    rank = fields.pop("rank", 1)
    bi = bd.BoundInputs(**fields)
    hdi = bd.HighDeltaInputs(base=bi, **hdi_fields) if hdi_fields else None
    report = bd.compute_report(bi, hdi=hdi, l_star=l_star,
                               lambda_mix=lambda_mix, rho=rho, rank=rank)
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"wrote {args.out}")
    print(report.render_comparison())
    if report.errors:
        print("rejected calculators:")
        for name, msg in sorted(report.errors.items()):
            print(f"  {name}: {msg}")
    if report.flags:
        for name, msg in sorted(report.flags.items()):
            print(f"  note {name}: {msg}")
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(args.seed)
    for name, (passed, detail) in results.items():
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    n_fail = sum(1 for p, _ in results.values() if not p)
    if args.out:
        doc = {name: {"pass": bool(p), "detail": d}
               for name, (p, d) in results.items()}
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{len(results) - n_fail}/{len(results)} invariants passed")
    return 4 if n_fail else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _eta_arg(text: str):
    """--eta value: a selector name, or a number checked later."""
    try:
        return text if text in ETA_SELECTORS else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number or one of "
            f"{', '.join(ETA_SELECTORS)}, got {text!r}") from None


def _float_tuple(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kernsense",
        description="Matrix sensing with mse / kernel / combined losses: "
                    "generation, solving, sweeps, bound reports, verification.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--rank", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--spectrum", type=str, required=True,
                   help="comma-separated eigenvalues, e.g. 4,1")
    g.add_argument("--noise", type=str, default="gaussian",
                   choices=list(NoiseModel._PARAMS))
    g.add_argument("--noise-params", type=str, default="sigma=0.1",
                   help="comma-separated k=v pairs")
    g.add_argument("--centered", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--rip-trials", type=int, default=64)
    g.add_argument("--out", type=str, required=True)
    g.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("solve", help="run gradient descent on an instance")
    s.add_argument("--instance", type=str, required=True)
    s.add_argument("--loss", type=str, default=MSE, choices=LOSS_KINDS)
    s.add_argument("--h", type=float, default=1.0)
    s.add_argument("--lambda-mix", type=float, default=0.5)
    s.add_argument("--eta", type=_eta_arg, default="auto")
    s.add_argument("--max-iters", type=int, default=5000)
    s.add_argument("--grad-tol", type=float, default=1e-10)
    s.add_argument("--init", type=str, default="spectral",
                   choices=["spectral", "ground_truth_perturbed", "explicit"])
    s.add_argument("--init-scale", type=float, default=None,
                   help="perturbation scale for --init ground_truth_perturbed"
                   " (default 0.1)")
    s.add_argument("--init-file", type=str, default=None,
                   help="JSON array X0 for --init explicit")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", type=str, required=True,
                   help="output prefix for traces and summary")
    s.set_defaults(fn=_cmd_solve)

    w = sub.add_parser("sweep", help="noise sweep over an epsilon grid")
    w.add_argument("--config", type=str, default=None,
                   help="JSON file with SweepConfig fields (snake_case)")
    w.add_argument("--n", type=int, default=None)
    w.add_argument("--rank", dest="r", metavar="RANK", type=int, default=None)
    w.add_argument("--m", type=int, default=None)
    w.add_argument("--loss", dest="losses", metavar="LOSS", default=None,
                   type=lambda text: tuple(text.split(",")),
                   help="comma-separated subset of mse,kernel,combined")
    w.add_argument("--h", type=float, default=None)
    w.add_argument("--lambda-mix", type=float, default=None)
    w.add_argument("--eps", dest="eps_grid", metavar="EPS", default=None,
                   type=_float_tuple,
                   help="comma-separated strictly increasing grid")
    w.add_argument("--trials", type=int, default=None)
    w.add_argument("--delta-regime", type=str, default=None,
                   choices=["low", "high"])
    w.add_argument("--eta", type=_eta_arg, default=None)
    w.add_argument("--max-iters", type=int, default=None)
    w.add_argument("--workers", type=int, default=None)
    w.add_argument("--seed", dest="base_seed", metavar="SEED", type=int,
                   default=None)
    w.add_argument("--out", type=str, default=None)
    w.set_defaults(fn=_cmd_sweep)

    b = sub.add_parser("bounds", help="evaluate every bound calculator")
    b.add_argument("--config", type=str, default=None)
    for f in dataclasses.fields(bd.BoundInputs):
        b.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                       type=float if f.name in BOUNDS_FLOAT_INPUTS else int,
                       default=None)
    b.add_argument("--out", type=str, default=None)
    b.set_defaults(fn=_cmd_bounds)

    v = sub.add_parser("verify", help="run the named invariant suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", type=str, default=None)
    v.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:           # missing file, a directory, no access
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
