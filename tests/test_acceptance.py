"""Acceptance suite: one test per release criterion, each registered with
the terminal-summary reporter so a single pass/fail line prints per
criterion.  Tolerances are pinned here, not configurable."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import record_acceptance
from kernsense import bounds as bd
from kernsense.empirics import (estimate_lambda12, estimate_rho,
                                estimate_zeta2, finite_diff_check)
from kernsense.losses import (LossSpec, grad_residual, hessian_quadratic_form,
                              lambda_min_hessian, loss_value)
from kernsense.model import (NoiseModel, estimate_rip, full_rank_defect,
                             make_instance, orthonormal_basis_operator,
                             prob_norm_bound)
from kernsense.optimize import (ConvergenceBoundInputs, SolverConfig,
                                auto_step_size, error_frobenius,
                                gradient_descent, spectral_init,
                                step_size_bound)
from kernsense.sweep import SweepConfig, run_sweep


def _criterion(number, description):
    """Assert-and-record wrapper: the registered line mirrors the test."""
    class _Ctx:
        def __init__(self):
            self.detail = ""

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            record_acceptance(number, description, exc_type is None,
                              self.detail)
            return False
    return _Ctx()


def test_criterion_1_gradient_oracle():
    """20 random instances, all three losses: grad_X vs central FD < 1e-5."""
    with _criterion(1, "gradient oracle: analytic grad_X matches central "
                       "finite differences < 1e-5 on 20 instances") as ctx:
        start = time.time()
        rng = np.random.default_rng(1000)
        worst = 0.0
        for k in range(20):
            n = int(rng.integers(4, 9))
            r = int(rng.integers(1, 3))
            m = int(rng.integers(10, 51))
            inst = make_instance(n, r, m, tuple(rng.uniform(0.5, 3.0, r)),
                                 NoiseModel.gaussian(0.15), seed=2000 + k)
            X = rng.standard_normal((n, r))
            for spec in (LossSpec.mse(), LossSpec.kernel(0.9),
                         LossSpec.combined(0.5, 0.9)):
                rep = finite_diff_check(spec, inst.op, inst.measurements, X,
                                        tol=1e-5)
                assert rep.passed, (k, spec.kind, rep.max_rel_err)
                worst = max(worst, rep.max_rel_err)
        elapsed = time.time() - start
        assert elapsed < 30.0
        ctx.detail = f"worst rel err {worst:.2e}, {elapsed:.1f}s"


def test_criterion_2_kernel_loss_structure():
    """Exact zero on constants, translation invariance, zero-sum gradient."""
    with _criterion(2, "kernel-loss structure: zero at constants, "
                       "translation invariant, zero-sum gradient") as ctx:
        rng = np.random.default_rng(1001)
        spec = LossSpec.kernel(1.0)
        for c in (0.0, -2.5, 7.0):
            assert loss_value(spec, np.full(11, c)) == 0.0
        worst_shift = 0.0
        for _ in range(100):
            r = rng.standard_normal(rng.integers(2, 30)) * rng.uniform(0.2, 3)
            c = rng.uniform(-8, 8)
            worst_shift = max(worst_shift,
                              abs(loss_value(spec, r + c) - loss_value(spec, r)))
        assert worst_shift < 1e-12
        worst_sum = 0.0
        for _ in range(100):
            r = rng.standard_normal(rng.integers(2, 40)) * rng.uniform(0.1, 4)
            worst_sum = max(worst_sum, abs(grad_residual(spec, r).sum()))
        assert worst_sum < 1e-10
        ctx.detail = f"shift {worst_shift:.1e}, grad sum {worst_sum:.1e}"


def test_criterion_3_noise_sensitivity():
    """Alternating +-s pattern: MSE grad_w scales like s, kernel decays."""
    with _criterion(3, "noise sensitivity: mse grad_w linear in s (2%), "
                       "kernel strictly decreasing for s >= 1") as ctx:
        start = time.time()
        pattern = np.tile([-1.0, 1.0], 12)
        scales = (1.0, 2.0, 4.0, 8.0)
        mse_norms = [np.linalg.norm(grad_residual(LossSpec.mse(), s * pattern))
                     for s in scales]
        ker_norms = [np.linalg.norm(grad_residual(LossSpec.kernel(1.0),
                                                  s * pattern))
                     for s in scales]
        for i, s in enumerate(scales[1:], start=1):
            ratio = mse_norms[i] / mse_norms[0]
            assert abs(ratio - s) <= 0.02 * s
        assert all(b < a for a, b in zip(ker_norms, ker_norms[1:]))
        assert all(v > 0 for v in ker_norms)
        elapsed = time.time() - start
        assert elapsed < 1.0
        ctx.detail = f"kernel norms {['%.1e' % v for v in ker_norms]}"


def test_criterion_4_mse_hessian_facts():
    """Constant Hessian, curvature floor 1-delta, exact isometry value."""
    with _criterion(4, "mse Hessian facts: M-independent, floor 1-delta, "
                       "exactly 1 on the isometry") as ctx:
        inst = make_instance(6, 2, 500, (2, 1), NoiseModel.gaussian(0.05),
                             seed=1002)
        rng = np.random.default_rng(1003)
        K = rng.standard_normal((6, 6)); K = 0.5 * (K + K.T)
        vals = []
        for _ in range(2):
            M = rng.standard_normal((6, 6)); M = 0.5 * (M + M.T)
            vals.append(hessian_quadratic_form(LossSpec.mse(), inst.op,
                                               inst.measurements, M, K))
        assert abs(vals[0] - vals[1]) < 1e-9

        # The Hessian acts on the full symmetric space, so the matching
        # isometry constant is the exact full-rank defect (the exhaustive
        # limit of the sampled estimate, computable at this size).
        delta_full = full_rank_defect(inst.op)
        res = lambda_min_hessian(LossSpec.mse(), inst.op, inst.measurements,
                                 inst.truth.matrix, iters=300, seed=4)
        assert res.value >= 1.0 - delta_full - 1e-6
        sampled = estimate_rip(inst.op, 4, 100, seed=5).delta_hat
        assert sampled <= delta_full

        op0 = orthonormal_basis_operator(4)
        res0 = lambda_min_hessian(LossSpec.mse(), op0, np.zeros(16),
                                  np.eye(4), iters=200, seed=6)
        assert abs(res0.value - 1.0) < 1e-6
        ctx.detail = (f"lambda_min {res.value:.4f} >= "
                      f"{1 - delta_full - 1e-6:.4f}; isometry "
                      f"{res0.value:.9f}")


def test_criterion_5_monotone_descent():
    """eta = 0.5 x step bound descends for 10 instances per loss; the auto
    kernel step is exactly h^2 times the auto MSE step."""
    with _criterion(5, "monotone descent at eta = bound/2 over 10 instances "
                       "per loss; kernel auto = h^2 x mse auto") as ctx:
        rng = np.random.default_rng(1004)
        worst_increase = -np.inf
        for k in range(10):
            n = int(rng.integers(5, 9))
            r = int(rng.integers(1, 3))
            m = 8 * n * r
            inst = make_instance(n, r, m, tuple(rng.uniform(0.5, 2.5, r)),
                                 NoiseModel.gaussian(0.05), seed=3000 + k)
            scale = float(np.linalg.norm(inst.truth.matrix))
            delta = min(estimate_rip(inst.op, min(2 * r, n), 32,
                                     3100 + k).delta_hat, 0.99)
            X0 = spectral_init(inst.op, inst.measurements, r)
            norm_mw = float(np.linalg.norm(X0 @ X0.T))
            for spec in (LossSpec.mse(), LossSpec.kernel(1.0),
                         LossSpec.combined(0.5, 1.0)):
                rho = estimate_rho(spec, inst.op, inst.measurements, 24,
                                   3200 + k, rank=r, scale=scale)
                ci = ConvergenceBoundInputs(rho=rho, rank=r, delta=delta,
                                            norm_Mw=norm_mw)
                eta = 0.5 * step_size_bound(spec, ci)
                res = gradient_descent(inst, spec, SolverConfig(
                    eta=eta, max_iters=1000, grad_tol=0.0,
                    init="ground_truth_perturbed", init_scale=0.15,
                    seed=3300 + k))
                steps = np.diff(res.loss_trace)
                worst_increase = max(worst_increase, float(steps.max()))
                assert np.all(steps <= 1e-10), (k, spec.kind, steps.max())
        inst = make_instance(8, 2, 128, (2, 1), NoiseModel.gaussian(0.1),
                             seed=3400)
        e_mse = auto_step_size(inst, LossSpec.mse(), "auto", seed=7)
        e_ker = auto_step_size(inst, LossSpec.kernel(0.6), "auto", seed=7)
        assert e_ker == 0.6 ** 2 * e_mse
        ctx.detail = f"worst step increase {worst_increase:.2e}"


def test_criterion_6_noiseless_recovery():
    """MSE from spectral init and kernel from perturbed init both recover."""
    with _criterion(6, "noiseless recovery: mse spectral < 1e-3 in 5000 "
                       "iters, kernel perturbed(0.1) < 1e-3") as ctx:
        t0 = time.time()
        inst = make_instance(12, 2, 300, (2, 1), NoiseModel.gaussian(0.0),
                             seed=21)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta="auto", max_iters=5000, grad_tol=1e-12, init="spectral"))
        rel_mse = res.error_trace[-1] / np.linalg.norm(inst.truth.matrix)
        t_mse = time.time() - t0
        assert rel_mse < 1e-3 and res.iterations_run <= 5000
        assert t_mse < 60.0

        t0 = time.time()
        res2 = gradient_descent(inst, LossSpec.kernel(1.0), SolverConfig(
            eta="auto_rho", max_iters=8000, grad_tol=1e-13,
            init="ground_truth_perturbed", init_scale=0.1, seed=5))
        rel_ker = res2.error_trace[-1] / np.linalg.norm(inst.truth.matrix)
        t_ker = time.time() - t0
        assert rel_ker < 1e-3
        assert t_ker < 60.0
        ctx.detail = (f"mse rel {rel_mse:.1e} in {res.iterations_run} iters "
                      f"({t_mse:.0f}s); kernel rel {rel_ker:.1e} "
                      f"({t_ker:.0f}s)")


def test_criterion_7_trend_reproduction():
    """Noise sweep at n=40, r=5, low-delta regime: the four trend claims.

    Exact values are seed-dependent, so the assertions are the
    properties: (a) the MSE bound column grows strictly with the noise
    level; (b) the kernel bound column is flat (max/min < 1.5); (c) the
    kernel real error is dominated by its bound in at least 4 of 5 rows;
    (d) at the largest noise level the combined loss recovers at least as
    well as the MSE.  The noise direction is heavy-tailed (student t,
    dof 2) with the bandwidth at the outlier scale: the regime where the
    robust losses genuinely beat the MSE (they stop fitting the corrupted
    measurements) instead of tying it to within sampling noise.  The
    kernel bound uses the measured Hessian curvature at the truth, which
    is flat across the grid.  m = 1200 keeps the sampled isometry defect
    well under 1/3 (asserted per trial) at roughly a third of the
    m = 10 n r pairwise-kernel cost.
    """
    with _criterion(7, "sweep trends: mse bound increasing, kernel bound "
                       "flat, kernel real <= bound (>=4/5), combined <= mse "
                       "at largest eps") as ctx:
        t0 = time.time()
        config = SweepConfig(
            n=40, r=5, m=1200, losses=("mse", "kernel", "combined"), h=0.5,
            lambda_mix=0.2, eps_grid=(0.5, 0.6, 0.7, 0.8, 0.9), trials=3,
            noise_kind="student_t", noise_params={"dof": 2.0, "scale": 1.0},
            delta_regime="low", base_seed=7, max_iters=300, eta="auto_rho",
            init_scale=0.05, const_samples=8, workers=1)
        from kernsense.sweep import _trial_base
        for t in range(config.trials):
            delta_t = _trial_base(config, t)[2]
            assert delta_t < 1.0 / 3.0, f"trial {t} delta {delta_t}"
        rows = {(r.loss, r.epsilon): r for r in run_sweep(config)}
        elapsed = time.time() - t0

        grid = config.eps_grid
        mse_bounds = [rows[("mse", e)].bound_error for e in grid]
        assert all(math.isfinite(b) for b in mse_bounds)
        assert all(b > a for a, b in zip(mse_bounds, mse_bounds[1:])), \
            f"(a) mse bounds not increasing: {mse_bounds}"

        ker_bounds = [rows[("kernel", e)].bound_error for e in grid]
        assert all(math.isfinite(b) for b in ker_bounds)
        flat_ratio = max(ker_bounds) / min(ker_bounds)
        assert flat_ratio < 1.5, f"(b) kernel bound ratio {flat_ratio}"

        dominated = sum(rows[("kernel", e)].real_error
                        <= rows[("kernel", e)].bound_error for e in grid)
        assert dominated >= 4, f"(c) kernel real <= bound in {dominated}/5"

        com9 = rows[("combined", 0.9)].real_error
        mse9 = rows[("mse", 0.9)].real_error
        assert com9 <= mse9, f"(d) combined {com9} vs mse {mse9}"

        assert elapsed < 600.0
        ctx.detail = (f"(b) ratio {flat_ratio:.3f}, (c) {dominated}/5, "
                      f"(d) {com9:.3f} <= {mse9:.3f}, {elapsed:.0f}s")


def test_criterion_8_closed_form_spot_checks():
    """Frozen scalar values and shape properties of the calculators."""
    with _criterion(8, "closed-form spot checks and bound monotonicity") as ctx:
        start = time.time()
        tp = bd.turning_point(0.5)
        assert abs(tp.peak_eps - 1 / math.sqrt(2)) < 1e-8
        assert abs(tp.peak_val - math.exp(-0.5) / math.sqrt(2)) < 1e-8

        assert abs(prob_norm_bound(4, 100, 0.05)
                   - (1 - 2 * math.exp(-4))) < 1e-12

        gl = bd.general_loss_bound(bd.BoundInputs(delta=0.0, eps=0.3,
                                                  zeta1=1.0, zeta2=0.0))
        assert gl == pytest.approx(0.6, rel=1e-12)

        hdi0 = bd.HighDeltaInputs(
            base=bd.BoundInputs(delta=0.6, eps=0.0, h=1.0, zeta1=1.0,
                                zeta2=1.0),
            lambda_rstar=0.5, norm_q=1.0, gamma_min=1.0, u_min_sq=0.0)
        assert bd.high_delta_upper(hdi0) == pytest.approx(0.0, abs=1e-14)

        # Monotonicity properties from the module invariants.
        rng = np.random.default_rng(1005)
        for _ in range(40):
            d = rng.uniform(0.05, 0.6)
            e = rng.uniform(0.05, 0.9)
            h = rng.uniform(0.5, 2.0)
            assert bd.mse_error_upper(bd.BoundInputs(delta=d, eps=1.4 * e)) \
                > bd.mse_error_upper(bd.BoundInputs(delta=d, eps=e))
            base = bd.BoundInputs(delta=d, eps=e, h=h, b_max=1.0, g_min=0.8)
            up = bd.kernel_lambda_min_floor(base)
            assert bd.kernel_lambda_min_floor(replace(
                base, l1=base.l1_eff * 1.5)) > up
            assert bd.kernel_lambda_min_floor(replace(base, h=h * 1.4)) < up
            assert bd.mse_high_delta_upper(
                bd.BoundInputs(eps=min(1.2 * e, 0.99))) \
                > bd.mse_high_delta_upper(bd.BoundInputs(eps=e))
            assert bd.high_delta_order(1.3 * e) > bd.high_delta_order(e)
            ml = bd.lower_bound("mse", bd.BoundInputs(delta=d, eps=1.3 * e,
                                                      l_smooth=5.0))
            assert ml > bd.lower_bound("mse", bd.BoundInputs(delta=d, eps=e,
                                                             l_smooth=5.0))
            kl = bd.lower_bound("kernel", bd.BoundInputs(delta=d, eps=1.3 * e,
                                                         h=h, l_smooth=2.0))
            assert kl < bd.lower_bound("kernel", bd.BoundInputs(
                delta=d, eps=e, h=h, l_smooth=2.0))
        elapsed = time.time() - start
        assert elapsed < 1.0
        ctx.detail = f"{elapsed * 1000:.0f} ms"


def test_criterion_9_empirics_sanity():
    """Structural MSE facts: zeta2 and lambda2 vanish; rho = 1 on isometry."""
    with _criterion(9, "empirics sanity: mse zeta2 < 1e-6, lambda2 < 1e-6, "
                       "rho = 1 on the isometry") as ctx:
        inst = make_instance(8, 2, 160, (2, 1), NoiseModel.gaussian(0.1),
                             seed=1006)
        z2 = estimate_zeta2(LossSpec.mse(), inst.op, inst.measurements,
                            inst.truth.matrix, samples=40, seed=8)
        assert z2 < 1e-6
        _, lam2 = estimate_lambda12(LossSpec.mse(), inst.op,
                                    inst.measurements, inst.truth.matrix,
                                    samples=40, seed=9)
        assert lam2 < 1e-6
        op0 = orthonormal_basis_operator(4)
        rho = estimate_rho(LossSpec.mse(), op0, np.zeros(16), samples=30,
                           seed=10)
        assert abs(rho - 1.0) < 1e-9
        ctx.detail = f"zeta2 {z2:.1e}, lambda2 {lam2:.1e}, rho {rho:.12f}"


@pytest.mark.xfail(
    strict=True,
    reason="second clause is unattainable for this observation model: the "
           "kernel loss is translation invariant, so centering the noise "
           "shifts the measurements by a constant and leaves its landscape "
           "identical (ratio ~1), while the MSE fits the large uniform mean "
           "into the recovered matrix (ratio ~2); see this test's docstring")
def test_criterion_10_non_centered_noise_regression():
    """Uniform(0,1) noise, spectral init: the kernel error rises strictly
    when the mean is kept, and the MSE degrades less in relative terms.

    Expected to fail on the second clause.  The kernel loss depends on the
    measurements only through pairwise differences, and the non-centered
    instance differs from its centered twin by exactly a constant vector,
    so the two kernel landscapes are identical; the only kernel degradation
    available comes from the measurement-dependent init landing in a
    slightly different basin (first clause, small but strict).  The MSE, by
    contrast, actively fits the large uniform mean into the recovered
    matrix and its error roughly doubles, so its relative degradation
    exceeds the kernel's at every configuration probed.  The assertion is
    kept as specified rather than weakened.
    """
    with _criterion(10, "non-centered uniform noise: kernel degrades "
                        "strictly, and mse degrades less in relative "
                        "terms") as ctx:
        t0 = time.time()
        n, r, m = 10, 2, 200
        errors = {}
        for centered in (True, False):
            noise = NoiseModel.uniform(0.0, 1.0, centered=centered)
            inst = make_instance(n, r, m, (4.0, 1.0), noise, seed=77)
            for kind, spec in (("mse", LossSpec.mse()),
                               ("kernel", LossSpec.kernel(0.4))):
                res = gradient_descent(inst, spec, SolverConfig(
                    eta="auto_rho", max_iters=2500, grad_tol=1e-10,
                    init="spectral", seed=78))
                errors[(kind, centered)] = error_frobenius(
                    res.X_hat, inst.truth.matrix)
        ker_ratio = errors[("kernel", False)] / errors[("kernel", True)]
        mse_ratio = errors[("mse", False)] / errors[("mse", True)]
        elapsed = time.time() - t0
        ctx.detail = (f"kernel {errors[('kernel', True)]:.3f}->"
                      f"{errors[('kernel', False)]:.3f} (x{ker_ratio:.2f}); "
                      f"mse x{mse_ratio:.2f}; {elapsed:.0f}s")
        assert errors[("kernel", False)] > errors[("kernel", True)]
        assert elapsed < 120.0
        # Fails: translation invariance pins the kernel ratio near 1 while
        # the MSE absorbs the mean; see the docstring above.
        assert mse_ratio < ker_ratio
