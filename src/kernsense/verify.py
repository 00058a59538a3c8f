# Named invariant suite backing the `verify` subcommand.  Each check returns
# (passed, detail); the CLI renders one line per name and exits nonzero if
# anything fails.  These are the cross-module contracts that must hold on
# any healthy build, independent of experiment configuration.

from __future__ import annotations

import math

import numpy as np

from . import bounds as bd
from .empirics import estimate_rho, estimate_zeta1, finite_diff_check
from .losses import (LossSpec, grad_residual, grad_X, hessian_quadratic_form,
                     lambda_min_hessian, loss_value)
from .model import (NoiseModel, apply_op, adjoint_op, estimate_rip,
                    gen_gaussian_operator, make_instance,
                    orthonormal_basis_operator, prob_norm_bound, sample_noise)
from .optimize import (ConvergenceBoundInputs, SolverConfig, dist_factor,
                        error_frobenius, gradient_descent, project_rank_r,
                        spectral_init, step_size_bound)

__all__ = ["run_verification", "VERIFICATION_NAMES"]


def _check_adjoint(seed):
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for n in (5, 6):
        op = gen_gaussian_operator(n, 40, seed)
        for _ in range(20):
            M = rng.standard_normal((n, n))
            M = 0.5 * (M + M.T)
            v = rng.standard_normal(40)
            lhs = float(apply_op(op, M) @ v)
            rhs = float(np.sum(M * adjoint_op(op, v)))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return worst < 1e-10, f"max rel err {worst:.2e}"


def _check_linearity(seed):
    rng = np.random.default_rng(seed + 2)
    err = zero = 0.0
    for n, m in ((4, 25), (5, 30)):
        op = gen_gaussian_operator(n, m, seed)
        A = rng.standard_normal((n, n)); A = 0.5 * (A + A.T)
        B = rng.standard_normal((n, n)); B = 0.5 * (B + B.T)
        err = max(err, float(np.abs(apply_op(op, A + B) - apply_op(op, A)
                                    - apply_op(op, B)).max()))
        zero = max(zero, float(np.abs(apply_op(op, np.zeros((n, n)))).max()))
    return err < 1e-12 and zero == 0.0, f"additivity err {err:.2e}"


def _check_rip_basis(seed):
    op = orthonormal_basis_operator(4)
    d = estimate_rip(op, 2, 25, seed).delta_hat
    return d < 1e-10, f"delta_hat {d:.2e}"


def _check_prob_bound_monotone(seed):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(50):
        eps = rng.uniform(0.1, 5.0)
        m = int(rng.integers(1, 500))
        sig = rng.uniform(0.01, 1.0)
        up = rng.uniform(1.0, 1.5)
        p = prob_norm_bound(eps, m, sig)
        ok &= prob_norm_bound(eps * up, m, sig) >= p
        ok &= prob_norm_bound(eps, m + int(rng.integers(1, 11)), sig) <= p
        ok &= prob_norm_bound(eps, m, sig * up) <= p
        ok &= 0.0 <= p <= 1.0
    return ok, "eps up / m up / sigma up orderings on 50 triples"


def _check_noise_centering(seed):
    w = sample_noise(NoiseModel.uniform(0.0, 1.0, centered=True), 1000, seed)
    return abs(float(w.mean())) < 1e-12, f"|mean| {abs(float(w.mean())):.2e}"


def _check_determinism(seed):
    a = make_instance(5, 2, 20, (2.0, 1.0), NoiseModel.gaussian(0.1), seed)
    b = make_instance(5, 2, 20, (2.0, 1.0), NoiseModel.gaussian(0.1), seed)
    same = (np.array_equal(a.truth.matrix, b.truth.matrix)
            and np.array_equal(a.op.P, b.op.P)
            and np.array_equal(a.noise, b.noise))
    return same, "two builds bit-identical"


def _check_kernel_translation(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        spec = LossSpec.kernel(rng.uniform(0.5, 1.5))
        r = rng.standard_normal(rng.integers(2, 30))
        c = rng.uniform(-10, 10)
        worst = max(worst, abs(loss_value(spec, r + c) - loss_value(spec, r)))
    return worst < 1e-12, f"max shift |dL| {worst:.2e}"


def _check_mse_not_translation(seed):
    rng = np.random.default_rng(seed)
    ok = True
    spec = LossSpec.mse()
    for _ in range(40):
        r = rng.standard_normal(rng.integers(2, 30))
        c = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        ok &= loss_value(spec, r + c) != loss_value(spec, r)
    return ok, "strict inequality on 40 shifted residuals"


def _check_grad_sum_zero(seed):
    rng = np.random.default_rng(seed)
    spec = LossSpec.kernel(0.8)
    worst = 0.0
    for _ in range(50):
        r = rng.standard_normal(rng.integers(2, 40)) * rng.uniform(0.1, 5.0)
        worst = max(worst, abs(float(grad_residual(spec, r).sum())))
    return worst < 1e-10, f"max |sum g| {worst:.2e}"


def _check_kernel_nonneg(seed):
    rng = np.random.default_rng(seed)
    ok = True
    mn = math.inf
    for _ in range(50):
        spec = LossSpec.kernel(rng.uniform(0.5, 1.5))
        m = rng.integers(2, 30)
        for c in (0.0, rng.uniform(-10, 10)):
            ok &= loss_value(spec, np.full(m, c)) == 0.0
        mn = min(mn, loss_value(spec, rng.standard_normal(m)))
    return ok and mn >= 0.0, f"constant -> 0, min sampled {mn:.2e}"


def _check_combined_endpoints(seed):
    inst = make_instance(5, 2, 25, (2.0, 1.0), NoiseModel.gaussian(0.1), seed)
    X = np.random.default_rng(seed + 3).standard_normal((5, 2))
    r = inst.measurements - apply_op(inst.op, X @ X.T)
    ok = True
    # At lambda = 1 the combined loss is the MSE scaled to (1/m) sum(r_i^2).
    for lam, ref, scale in ((1.0, LossSpec.mse(), 2.0 / r.size),
                            (0.0, LossSpec.kernel(0.8), 1.0)):
        spec = LossSpec.combined(lam, 0.8)
        ok &= abs(loss_value(spec, r) - scale * loss_value(ref, r)) < 1e-12
        ga = grad_X(spec, inst.op, inst.measurements, X)
        gb = scale * grad_X(ref, inst.op, inst.measurements, X)
        ok &= float(np.abs(ga - gb).max()) < 1e-12
    return ok, "value and gradient equal at lambda in {0, 1}"


def _check_grad_fd(seed):
    inst = make_instance(6, 2, 30, (2.0, 0.7), NoiseModel.gaussian(0.1), seed)
    X = np.random.default_rng(seed + 4).standard_normal((6, 2))
    worst = 0.0
    for spec in (LossSpec.mse(), LossSpec.kernel(0.8), LossSpec.combined(0.5, 0.8)):
        rep = finite_diff_check(spec, inst.op, inst.measurements, X, tol=1e-6)
        if not rep.passed:
            return False, f"{spec.kind} failed at {rep.max_rel_err:.2e}"
        worst = max(worst, rep.max_rel_err)
    return True, f"all losses, worst rel err {worst:.2e}"


def _check_grad_mutation(seed):
    rng = np.random.default_rng(seed + 5)
    best = math.inf
    for m, spectrum in ((30, (2.0, 0.7)), (60, (2.0, 1.0))):
        inst = make_instance(6, 2, m, spectrum, NoiseModel.gaussian(0.1), seed)
        rep = finite_diff_check(LossSpec.mse(), inst.op, inst.measurements,
                                rng.standard_normal((6, 2)), tol=1e-6,
                                grad_fn=lambda s, o, b, x: -grad_X(s, o, b, x))
        if rep.passed or rep.vacuous:
            return False, f"sign-flipped gradient passed at m={m}"
        best = min(best, rep.max_rel_err)
    return True, f"sign-flipped gradient rejected at {best:.2e}"


def _check_mse_hessian_independent(seed):
    inst = make_instance(6, 2, 40, (2.0, 1.0), NoiseModel.gaussian(0.1), seed)
    rng = np.random.default_rng(seed + 6)
    K = rng.standard_normal((6, 6)); K = 0.5 * (K + K.T)
    vals = []
    for _ in range(2):
        M = rng.standard_normal((6, 6)); M = 0.5 * (M + M.T)
        vals.append(hessian_quadratic_form(LossSpec.mse(), inst.op,
                                           inst.measurements, M, K))
    return abs(vals[0] - vals[1]) < 1e-9, f"|diff| {abs(vals[0]-vals[1]):.2e}"


def _check_mse_lambda_min_basis(seed):
    op = orthonormal_basis_operator(4)
    res = lambda_min_hessian(LossSpec.mse(), op, np.zeros(16), np.eye(4),
                             iters=200, seed=seed)
    return abs(res.value - 1.0) < 1e-6 and res.converged, \
        f"lambda_min {res.value:.9f}"


def _check_descent(seed):
    ok = True
    for n, m in ((6, 60), (7, 84)):
        inst = make_instance(n, 2, m, (2.0, 0.8), NoiseModel.gaussian(0.05),
                             seed)
        scale = float(np.linalg.norm(inst.truth.matrix))
        delta = min(estimate_rip(inst.op, 4, 40, seed + 1).delta_hat, 0.99)
        X0 = spectral_init(inst.op, inst.measurements, 2)
        for spec in (LossSpec.mse(), LossSpec.kernel(1.0),
                     LossSpec.combined(0.5, 1.0)):
            rho = estimate_rho(spec, inst.op, inst.measurements, 30, seed + 2,
                               rank=2, scale=scale)
            ci = ConvergenceBoundInputs(
                rho=rho, rank=2, delta=delta,
                norm_Mw=float(np.linalg.norm(X0 @ X0.T)))
            eta = 0.5 * step_size_bound(spec, ci)
            res = gradient_descent(inst, spec, SolverConfig(
                eta=eta, max_iters=400, grad_tol=0.0,
                init="ground_truth_perturbed", init_scale=0.2, seed=seed))
            ok &= bool(np.all(np.diff(res.loss_trace) <= 1e-10))
    return ok, "loss non-increasing for mse/kernel/combined at eta = bound/2"


def _check_dist_rotation(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, 2))
    Z = rng.standard_normal((5, 2))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    own = dist_factor(X, X @ X.T)
    gap = max(abs(dist_factor(X @ q, M) - dist_factor(X, M))
              for M in (X @ X.T, Z @ Z.T))
    return own < 1e-10 and gap < 1e-10, \
        f"d(X, XX^T)={own:.2e}, max |d(XQ) - d(X)| {gap:.2e}"


def _check_projection(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((6, 6)); M = 0.5 * (M + M.T)
    P = project_rank_r(M, 2)
    vals = np.linalg.eigvalsh(P)
    ok = vals.min() >= -1e-12 and np.sum(vals > 1e-10) <= 2
    dp = np.linalg.norm(P - M)
    for _ in range(100):
        Z = rng.standard_normal((6, 2))
        ok &= np.linalg.norm(Z @ Z.T - M) >= dp - 1e-9
    return ok, f"PSD, rank <= 2, beats 100 random rank-2 candidates ({dp:.4f})"


def _check_dist_sandwich(seed):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(20):
        X = rng.standard_normal((5, 2))
        Z = rng.standard_normal((5, 2))
        M = Z @ Z.T
        sr = np.linalg.eigvalsh(M)[-2]
        lhs = dist_factor(X, M) ** 2
        rhs = error_frobenius(X, M) ** 2 / (2 * (math.sqrt(2) - 1) * sr)
        ok &= lhs <= rhs * (1 + 1e-9)
    return ok, "dist^2 <= ||XX^T - M||^2 / (2(sqrt(2)-1) sigma_r) on 20 draws"


def _check_turning_point(seed):
    tp = bd.turning_point(0.3)
    resid = abs(tp.eps_star * math.exp(-tp.eps_star ** 2) - 0.09)
    ok = (abs(tp.peak_eps - 1 / math.sqrt(2)) < 1e-12
          and abs(tp.peak_val - math.exp(-0.5) / math.sqrt(2)) < 1e-12
          and resid < 1e-10
          and bd.turning_point(math.sqrt(2 * bd.PEAK_VAL)).eps_star is None)
    return ok, f"peak constants exact, crossing residual {resid:.2e}"


def _check_bound_monotonicity(seed):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(40):
        d = rng.uniform(0.05, 0.6)
        e = rng.uniform(0.05, 0.9)
        h = rng.uniform(0.5, 2.0)
        bi = bd.BoundInputs(delta=d, eps=e, h=h, b_max=1.0, g_min=0.8)
        ok &= bd.mse_error_upper(bd.BoundInputs(delta=d, eps=e * 1.5)) \
            >= bd.mse_error_upper(bd.BoundInputs(delta=d, eps=e))
        up = bd.kernel_lambda_min_floor(bi)
        ok &= bd.kernel_lambda_min_floor(
            bd.BoundInputs(delta=d, eps=e, h=h, b_max=1.0, g_min=0.8,
                           l1=bi.l1_eff * 1.3)) >= up
        ok &= bd.kernel_lambda_min_floor(
            bd.BoundInputs(delta=d, eps=e, h=h * 1.3, b_max=1.0, g_min=0.8)) <= up
        ok &= bd.general_loss_bound(bd.BoundInputs(delta=0.1, eps=0.2)) > 0
        ok &= bd.high_delta_order(e * 1.2) >= bd.high_delta_order(e)
        ok &= bd.mse_high_delta_upper(bd.BoundInputs(eps=min(e * 1.1, 0.99))) \
            >= bd.mse_high_delta_upper(bd.BoundInputs(eps=e * 0.9))
    return ok, "shape checks over 40 random inputs"


def _check_nested_monotone(seed):
    op = gen_gaussian_operator(5, 40, seed)
    d10 = estimate_rip(op, 2, 10, seed).delta_hat
    d40 = estimate_rip(op, 2, 40, seed).delta_hat
    inst = make_instance(5, 2, 40, (2.0, 1.0), NoiseModel.gaussian(0.1), seed)
    z10 = estimate_zeta1(LossSpec.mse(), inst.op, inst.measurements,
                         inst.truth.matrix, 10, seed)
    z40 = estimate_zeta1(LossSpec.mse(), inst.op, inst.measurements,
                         inst.truth.matrix, 40, seed)
    return d10 <= d40 and z10 <= z40, \
        f"rip {d10:.4f}<={d40:.4f}, zeta1 {z10:.4f}<={z40:.4f}"


_CHECKS = [
    ("operator_adjoint_identity", _check_adjoint),
    ("operator_linearity", _check_linearity),
    ("rip_orthonormal_basis_zero", _check_rip_basis),
    ("prob_norm_bound_monotone", _check_prob_bound_monotone),
    ("noise_centering", _check_noise_centering),
    ("generator_determinism", _check_determinism),
    ("kernel_translation_invariance", _check_kernel_translation),
    ("mse_not_translation_invariant", _check_mse_not_translation),
    ("kernel_grad_sum_zero", _check_grad_sum_zero),
    ("kernel_loss_nonnegative", _check_kernel_nonneg),
    ("combined_endpoints", _check_combined_endpoints),
    ("gradient_finite_difference", _check_grad_fd),
    ("gradient_mutation_detected", _check_grad_mutation),
    ("mse_hessian_m_independent", _check_mse_hessian_independent),
    ("mse_lambda_min_orthonormal", _check_mse_lambda_min_basis),
    ("monotone_descent_half_step", _check_descent),
    ("dist_factor_rotation_invariant", _check_dist_rotation),
    ("project_rank_r_nearest_psd", _check_projection),
    ("dist_factor_curvature_sandwich", _check_dist_sandwich),
    ("turning_point_peak", _check_turning_point),
    ("bound_monotonicity_shapes", _check_bound_monotonicity),
    ("estimator_nested_monotone", _check_nested_monotone),
]

VERIFICATION_NAMES = [name for name, _ in _CHECKS]


def run_verification(seed: int = 0) -> dict:
    """Run every named invariant; returns {name: (passed, detail)}."""
    results = {}
    for name, fn in _CHECKS:
        try:
            results[name] = fn(seed)
        except Exception as exc:  # a crashing check is a failing check
            results[name] = (False, f"raised {type(exc).__name__}: {exc}")
    return results
