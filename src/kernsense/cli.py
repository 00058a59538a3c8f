# Command-line front end over the library: argument parsing and the five
# subcommands (gen, solve, sweep, bounds, verify); the sweep's engine is
# kernsense.sweep.  Emits CSV/JSON only; plotting is left to external tools.
#
# Exit codes: 0 success, 2 bad arguments, 3 solver hit a non-finite value,
# 4 verification failure.

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bd
from .losses import LOSS_KINDS, MSE, LossSpec
from .model import (NoiseModel, estimate_rip, instance_from_json,
                    instance_to_json, make_instance, prob_norm_bound)
from .optimize import (ETA_SELECTORS, SolverConfig, check_init_X0,
                       gradient_descent, trace_csv)
from .sweep import (SweepConfig, SweepRow, _check_types, _loss_spec,
                    run_sweep, sweep_csv)
from .verify import run_verification

# perfbench reads these through cli until ROADMAP item 0(g) reads sweep.
__all__ = ["SweepConfig", "SweepRow", "run_sweep"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _number(text: str, flag: str, item: str) -> float:
    """float(text), text taken from the comma-separated item of flag."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{flag}: no number in item {item!r}") from None


def _check_out_dir(path) -> None:
    """Stop a run whose output file cannot be written before any work."""
    if path and Path(path).is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    if path and not Path(path).parent.is_dir():
        raise ValueError(f"cannot write {path}: no such directory")


def _read(path: str, flag: str, parse=json.loads):
    """parse(the text of the file at path); a ValueError (malformed JSON
    too) names flag and the file."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{flag} {path}: {exc}") from None


def _parse_kv(text: str) -> dict:
    out = {}
    if text:
        for item in text.split(","):
            k, _, v = item.partition("=")
            k, value = k.strip(), _number(v, "--noise-params", item)
            if k in out:
                raise ValueError(f"--noise-params: key {k!r} given twice")
            out[k] = value
    return out


def _cmd_gen(args) -> int:
    _check_out_dir(args.out)
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
    inst = _read(args.instance, "--instance", instance_from_json)
    spec = _loss_spec(args.loss, args.h, args.lambda_mix)
    init_x0 = None
    if args.init == "explicit":     # checked as gradient_descent checks it
        init_x0 = _read(args.init_file, "--init-file", lambda text:
                        check_init_X0(json.loads(text), inst.truth.n))
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
        fields = _read(args.config, "--config")
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
    _check_out_dir(config.out)
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
    _check_out_dir(args.out)
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
    _check_out_dir(args.out)
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
