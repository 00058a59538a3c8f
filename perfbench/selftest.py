"""Self-test of the output oracle.

Clean outputs of a tiny instance must pass every check, and each injected
corruption (a perturbed loss, a sign-flipped or rescaled gradient, a wrong
error, a missing or non-finite sweep row, a negative constant) must be
reported as a failure.  A checker that accepts a corrupted output would let
a broken program through, so a self-test failure marks the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import oracle


def _expect(problems, label, got, should_fail):
    if bool(got) != should_fail:
        verdict = "accepted" if should_fail else f"rejected ({got})"
        problems.append(f"{label}: oracle {verdict}")


def _solve_cases(ks, problems):
    inst = ks.model.make_instance(6, 2, 60, (1.0, 0.5),
                                  ks.model.NoiseModel.gaussian(0.05), 3)
    op, b, M_star = inst.op, inst.measurements, inst.truth.matrix
    rng = np.random.default_rng(4)
    X0 = inst.truth.factor + 0.05 * rng.standard_normal(inst.truth.factor.shape)
    iters = 5
    for spec, loss in ((ks.losses.LossSpec.mse(), oracle.Loss("mse")),
                       (ks.losses.LossSpec.kernel(0.5), oracle.Loss("kernel", 0.5)),
                       (ks.losses.LossSpec.combined(0.2, 0.5),
                        oracle.Loss("combined", 0.5, 0.2))):
        eta = ks.optimize.auto_step_size(inst, spec, "auto_rho", seed=1)
        res = ks.optimize.gradient_descent(inst, spec, ks.optimize.SolverConfig(
            eta=eta, max_iters=iters, grad_tol=0.0, init="explicit",
            init_X0=X0))
        out = oracle.SolveOutput(
            X_hat=res.X_hat, first_loss=float(res.loss_trace[0]),
            final_loss=float(res.loss_trace[-1]),
            final_error=float(res.error_trace[-1]),
            grad=ks.losses.grad_X(spec, op, b, res.X_hat),
            iterations=res.iterations_run, termination=res.termination,
            trace_len=len(res.loss_trace))
        cases = {
            "clean": (out, False),
            "loss*(1+1e-6)": (replace(out, final_loss=out.final_loss * (1 + 1e-6)), True),
            "-gradient": (replace(out, grad=-out.grad), True),
            "gradient*(1+1e-4)": (replace(out, grad=out.grad * (1 + 1e-4)), True),
            "error*(1+1e-6)": (replace(out, final_error=out.final_error * (1 + 1e-6)), True),
            "X_hat=X0": (replace(out, X_hat=X0), True),
            "no descent": (replace(out, first_loss=out.final_loss), True),
            "non_finite": (replace(out, termination="non_finite"), True),
        }
        for label, (o, bad) in cases.items():
            got = oracle.check_solve(loss, op.mats, b, M_star, iters, o)
            _expect(problems, f"solve {loss.kind} {label}", got, bad)


def _sweep_cases(ks, problems):
    losses, grid, norm = ("mse", "kernel"), (0.5, 0.9), math.sqrt(2.0)
    rows = [ks.cli.SweepRow(loss=l, epsilon=e, real_error=0.1, bound_error=1.0,
                            lipschitz_L=1.0, hessian_H=0.0, flags="ok")
            for l in losses for e in grid]
    cases = {
        "clean": (rows, False),
        "missing row": (rows[:-1], True),
        "nan real_error": ([replace(rows[0], real_error=math.nan)] + rows[1:], True),
        "real_error >= ||M*||": ([replace(rows[0], real_error=norm)] + rows[1:], True),
        "non_finite flag": (rows[:-1] + [replace(rows[-1], flags="non_finite")], True),
    }
    for label, (r, bad) in cases.items():
        _expect(problems, f"sweep {label}",
                oracle.check_sweep(r, losses, grid, norm), bad)


def _constants_cases(ks, problems):
    inst = ks.model.make_instance(6, 2, 60, (1.0, 0.5),
                                  ks.model.NoiseModel.student_t(2.0, 1.0), 5)
    spec = ks.losses.LossSpec.kernel(0.5)
    est = ks.empirics.estimate_constants(spec, inst, 2, 6)
    lam = ks.losses.lambda_min_hessian(spec, inst.op, inst.measurements,
                                       inst.truth.matrix, iters=5, seed=7)
    cases = {
        "clean": (est, lam, False),
        "zeta1 < 0": (replace(est, zeta1=-1e-3), lam, True),
        "rho nan": (replace(est, rho=math.nan), lam, True),
        "g_min*(1+1e-6)": (replace(est, g_min=est.g_min * (1 + 1e-6)), lam, True),
        "lambda_min nan": (est, lam._replace(value=math.nan), True),
    }
    for label, (e, l, bad) in cases.items():
        _expect(problems, f"constants {label}",
                oracle.check_constants(e, l, inst.noise, 0.5), bad)


def run(ks):
    """Problems found; empty when the oracle behaves."""
    problems = []
    _solve_cases(ks, problems)
    _sweep_cases(ks, problems)
    _constants_cases(ks, problems)
    return problems
