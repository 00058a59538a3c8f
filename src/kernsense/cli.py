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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds as bd
from .empirics import estimate_lambda12, estimate_rho, residual_constants
from .losses import LossSpec, lambda_min_hessian, loss_value
from .model import (NoiseModel, ProblemInstance, apply_op, estimate_rip,
                    instance_from_json, instance_to_json, make_instance,
                    prob_norm_bound)
from .optimize import (ETA_SELECTORS, SolverConfig, auto_step_size, check_eta,
                       error_frobenius, gradient_descent, trace_csv)
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

    eta is a positive number or a selector from optimize.ETA_SELECTORS.
    The kernel-loss error bound uses the lambda_min that Lanczos
    (LAMBDA_MIN_ITERS steps) measures on the Hessian at the ground truth,
    the quantity the bound is stated for.
    """

    n: int = 40
    r: int = 5
    losses: tuple = ("mse", "kernel", "combined")
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
        eg = tuple(self.eps_grid)
        if not all(math.isfinite(e) and e >= 0 for e in eg):
            raise ValueError(f"eps_grid values must be finite and >= 0, "
                             f"got {eg}")
        if any(b <= a for a, b in zip(eg, eg[1:])):
            raise ValueError("eps_grid must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.delta_regime not in ("low", "high"):
            raise ValueError("delta_regime must be 'low' or 'high'")
        check_eta(self.eta)
        for k in self.losses:
            if k not in ("mse", "kernel", "combined"):
                raise ValueError(f"unknown loss {k!r}")

    @property
    def m_eff(self) -> int:
        if self.m:
            return self.m
        factor = 10 if self.delta_regime == "low" else 2
        return factor * self.n * self.r

    def loss_spec(self, kind: str) -> LossSpec:
        if kind == "mse":
            return LossSpec.mse()
        if kind == "kernel":
            return LossSpec.kernel(self.h)
        return LossSpec.combined(self.lambda_mix, self.h)


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


def _at_eps(inst: ProblemInstance, direction: np.ndarray,
            eps: float) -> ProblemInstance:
    w = eps * direction
    b = apply_op(inst.op, inst.truth.matrix) + w
    return replace(inst, noise=w, measurements=b)


def _run_cell(config: SweepConfig, loss_kind: str, eps: float, trial: int,
              base, eta, lam_min) -> dict:
    """One (loss, eps, trial) cell: solve, then constants and the bound."""
    inst0, direction, delta = base
    inst = _at_eps(inst0, direction, eps)
    spec = config.loss_spec(loss_kind)
    flags = []

    res = gradient_descent(inst, spec, SolverConfig(
        eta=eta, max_iters=config.max_iters, grad_tol=1e-9,
        init="ground_truth_perturbed", init_scale=config.init_scale,
        seed=_trial_seed(config.base_seed, trial, 2)))
    if res.termination == "non_finite":
        flags.append("non_finite")
    e_real = error_frobenius(res.X_hat, inst.truth.matrix)

    rho = estimate_rho(spec, inst.op, inst.measurements,
                       config.const_samples,
                       _trial_seed(config.base_seed, trial, 3),
                       rank=config.r,
                       scale=float(np.linalg.norm(inst.truth.matrix)))
    _, lam2 = estimate_lambda12(spec, inst.op, inst.measurements,
                                inst.truth.matrix,
                                max(4, config.const_samples // 2),
                                _trial_seed(config.base_seed, trial, 4),
                                rank=min(2 * config.r, config.n))

    # Residual constants at the ground truth: residuals there equal w.
    g_min, b_max = residual_constants(inst.noise, config.h)
    bound = math.nan
    try:
        if loss_kind == "mse":
            bound = bd.mse_error_upper(bd.BoundInputs(delta=delta, eps=eps))
        elif loss_kind == "kernel":
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

    return {"loss": loss_kind, "epsilon": eps, "trial": trial,
            "real_error": e_real, "bound_error": bound,
            "lipschitz_L": rho, "hessian_H": lam2,
            "flags": flags}


def run_sweep(config: SweepConfig) -> list:
    """Execute the sweep; returns SweepRow per (loss, epsilon).

    Cells are independent given their derived seeds, so execution order
    (and thread count) cannot change the result; rows are reduced in a
    fixed order.  Automatic step sizes are resolved once per (loss, trial)
    on the largest-epsilon instance and reused across the grid.
    """
    bases = {t: _trial_base(config, t) for t in range(config.trials)}
    etas = {}
    lam_meas = {}
    for t in range(config.trials):
        inst0, direction, _ = bases[t]
        inst_top = _at_eps(inst0, direction, config.eps_grid[-1])
        for loss in config.losses:
            if isinstance(config.eta, str):
                etas[(loss, t)] = auto_step_size(
                    inst_top, config.loss_spec(loss), config.eta,
                    seed=_trial_seed(config.base_seed, t, 6), rho_samples=16)
            else:
                etas[(loss, t)] = float(config.eta)
        if "kernel" in config.losses:
            # Measured once per trial at the top of the grid: the smallest
            # Hessian eigenvalue at the truth moves by well under a percent
            # across the grid (the weights see only the residual spread),
            # so per-cell re-measurement buys nothing but runtime.
            lam_meas[t] = lambda_min_hessian(
                config.loss_spec("kernel"), inst_top.op,
                inst_top.measurements, inst_top.truth.matrix,
                iters=LAMBDA_MIN_ITERS,
                seed=_trial_seed(config.base_seed, t, 5))
    cells = [(loss, eps, t) for loss in config.losses
             for eps in config.eps_grid for t in range(config.trials)]

    def work(cell):
        loss, eps, t = cell
        return _run_cell(config, loss, eps, t, bases[t], etas[(loss, t)],
                         lam_meas.get(t))

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(work, cells))
    else:
        results = [work(c) for c in cells]

    by_cell = {(r["loss"], r["epsilon"], r["trial"]): r for r in results}
    rows = []
    for loss in config.losses:
        for eps in config.eps_grid:
            group = [by_cell[(loss, eps, t)] for t in range(config.trials)]
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

def _parse_kv(text: str) -> dict:
    out = {}
    if text:
        for item in text.split(","):
            k, _, v = item.partition("=")
            out[k.strip()] = float(v)
    return out


def _cmd_gen(args) -> int:
    spectrum = tuple(float(s) for s in args.spectrum.split(","))
    noise = NoiseModel(args.noise, _parse_kv(args.noise_params), args.centered)
    inst = make_instance(args.n, args.rank, args.m, spectrum, noise, args.seed)
    doc = instance_to_json(inst)
    Path(args.out).write_text(doc)
    rip = estimate_rip(inst.op, min(2 * args.rank, args.n), args.rip_trials,
                       args.seed)
    print(f"wrote {args.out}")
    print(f"delta_hat (rank {rip.rank_tested}, {rip.trials} trials, sampled "
          f"lower bound): {rip.delta_hat:.6f}")
    return 0


def _loss_spec_from_args(args) -> LossSpec:
    if args.loss == "mse":
        return LossSpec.mse(args.mse_norm)
    if args.loss == "kernel":
        return LossSpec.kernel(args.h)
    return LossSpec.combined(args.lambda_mix, args.h)


def _cmd_solve(args) -> int:
    inst = instance_from_json(Path(args.instance).read_text())
    spec = _loss_spec_from_args(args)
    init_x0 = None
    if args.init == "explicit":
        init_x0 = np.array(json.loads(Path(args.init_file).read_text()))
    config = SolverConfig(eta=args.eta, max_iters=args.max_iters,
                          grad_tol=args.grad_tol, init=args.init,
                          init_scale=args.init_scale, init_X0=init_x0,
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


def _read_config(path: str, allowed) -> dict:
    """The JSON object in path; a key outside allowed is a usage error."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): "
                         f"{', '.join(unknown)}")
    return doc


def _sweep_config_from_args(args) -> SweepConfig:
    fields = {}
    if args.config:
        fields.update(_read_config(
            args.config, [f.name for f in dataclasses.fields(SweepConfig)]))
    override = {
        "n": args.n, "r": args.rank, "m": args.m, "h": args.h,
        "lambda_mix": args.lambda_mix, "trials": args.trials,
        "base_seed": args.seed, "max_iters": args.max_iters,
        "out": args.out, "workers": args.workers,
        "delta_regime": args.delta_regime,
    }
    for k, v in override.items():
        if v is not None:
            fields[k] = v
    if args.loss is not None:
        fields["losses"] = tuple(args.loss.split(","))
    if args.eps is not None:
        fields["eps_grid"] = tuple(float(x) for x in args.eps.split(","))
    if args.eta is not None:
        fields["eta"] = args.eta
    if "losses" in fields:
        fields["losses"] = tuple(fields["losses"])
    if "eps_grid" in fields:
        fields["eps_grid"] = tuple(fields["eps_grid"])
    if "noise_params" in fields:
        fields["noise_params"] = dict(fields["noise_params"])
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


# BoundInputs fields that `bounds` takes as float flags.
BOUNDS_FLOAT_INPUTS = ("delta", "eps", "h", "zeta1", "zeta2", "g_min", "b_max",
                       "l1", "l2", "sigma_r", "g_scale", "l_smooth",
                       "lambda_min", "c_extra")
# Keys a bounds config may hold beside the BoundInputs fields.
_HDI_KEYS = ("lambda_rstar", "norm_q", "gamma_min", "u_min_sq")
_REPORT_KEYS = ("l_star", "lambda_mix", "rho", "rank")


def _cmd_bounds(args) -> int:
    fields = {}
    if args.config:
        fields.update(_read_config(
            args.config, [f.name for f in dataclasses.fields(bd.BoundInputs)]
            + list(_HDI_KEYS + _REPORT_KEYS)))
    for name in BOUNDS_FLOAT_INPUTS + ("n_meas",):
        v = getattr(args, name)
        if v is not None:
            fields[name] = v
    hdi_fields = {k: fields.pop(k) for k in _HDI_KEYS if k in fields}
    l_star = fields.pop("l_star", 0.0)
    lambda_mix = fields.pop("lambda_mix", 1.0)
    rho = fields.pop("rho", 1.0)
    rank = fields.pop("rank", 1)
    bi = bd.BoundInputs(**fields)
    hdi = (bd.HighDeltaInputs(base=bi, **hdi_fields)
           if len(hdi_fields) == 4 else None)
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
    s.add_argument("--loss", type=str, default="mse",
                   choices=["mse", "kernel", "combined"])
    s.add_argument("--h", type=float, default=1.0)
    s.add_argument("--lambda-mix", type=float, default=0.5)
    s.add_argument("--mse-norm", type=str, default="half_sum",
                   choices=["half_sum", "mean"])
    s.add_argument("--eta", type=_eta_arg, default="auto")
    s.add_argument("--max-iters", type=int, default=5000)
    s.add_argument("--grad-tol", type=float, default=1e-10)
    s.add_argument("--init", type=str, default="spectral",
                   choices=["spectral", "ground_truth_perturbed", "explicit"])
    s.add_argument("--init-scale", type=float, default=0.1)
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
    w.add_argument("--rank", type=int, default=None)
    w.add_argument("--m", type=int, default=None)
    w.add_argument("--loss", type=str, default=None,
                   help="comma-separated subset of mse,kernel,combined")
    w.add_argument("--h", type=float, default=None)
    w.add_argument("--lambda-mix", type=float, default=None)
    w.add_argument("--eps", type=str, default=None,
                   help="comma-separated strictly increasing grid")
    w.add_argument("--trials", type=int, default=None)
    w.add_argument("--delta-regime", type=str, default=None,
                   choices=["low", "high"])
    w.add_argument("--eta", type=_eta_arg, default=None)
    w.add_argument("--max-iters", type=int, default=None)
    w.add_argument("--workers", type=int, default=None)
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--out", type=str, default=None)
    w.set_defaults(fn=_cmd_sweep)

    b = sub.add_parser("bounds", help="evaluate every bound calculator")
    b.add_argument("--config", type=str, default=None)
    for name in BOUNDS_FLOAT_INPUTS:
        b.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float,
                       default=None)
    b.add_argument("--n-meas", dest="n_meas", type=int, default=None)
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
