import math

import numpy as np
import pytest

from kernsense.empirics import estimate_rho
from kernsense.losses import LossSpec
from kernsense.model import (NoiseModel, estimate_rip, make_instance)
from kernsense.optimize import (ConvergenceBoundInputs, SolverConfig,
                                auto_step_size, dist_factor, error_frobenius,
                                gradient_descent, project_rank_r,
                                spectral_init, step_size_bound,
                                step_size_summary_rule, trace_csv)

SQRT2 = math.sqrt(2.0)


class TestStepSizeBound:
    def test_frozen_unit_case(self):
        ci = ConvergenceBoundInputs(rho=1.0, rank=1)
        val = step_size_bound(LossSpec.mse(), ci)
        assert val == pytest.approx(1.0 / (24.0 * (SQRT2 - 1.0)), rel=1e-14)
        assert abs(val - 0.100594) < 1e-5
        assert step_size_bound(LossSpec.kernel(1.0), ci) == val

    def test_kernel_is_h_squared_times_mse(self):
        ci = ConvergenceBoundInputs(rho=2.3, rank=3, delta=0.2, zeta2=0.1,
                                    eps=0.5, norm_Mw=1.4)
        ratio = step_size_bound(LossSpec.kernel(0.7), ci) \
            / step_size_bound(LossSpec.mse(), ci)
        assert ratio == pytest.approx(0.7 ** 2, rel=1e-14)

    def test_combined_takes_min(self):
        ci = ConvergenceBoundInputs(rho=1.0, rank=2, norm_Mw=0.5)
        mse = step_size_bound(LossSpec.mse(), ci)
        assert step_size_bound(LossSpec.combined(0.5, 0.5), ci) == 0.25 * mse
        assert step_size_bound(LossSpec.combined(0.5, 2.0), ci) == mse

    def test_monotone_in_rho_and_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            rho = rng.uniform(0.5, 5)
            nm = rng.uniform(0, 5)
            ci = ConvergenceBoundInputs(rho=rho, rank=2, norm_Mw=nm)
            up_rho = ConvergenceBoundInputs(rho=rho * 1.5, rank=2, norm_Mw=nm)
            up_nm = ConvergenceBoundInputs(rho=rho, rank=2, norm_Mw=nm + 1)
            base = step_size_bound(LossSpec.mse(), ci)
            assert step_size_bound(LossSpec.mse(), up_rho) < base
            assert step_size_bound(LossSpec.mse(), up_nm) < base

    def test_precondition(self):
        ci = ConvergenceBoundInputs(rho=1.0, rank=1, delta=0.5, zeta2=1.0,
                                    eps=0.6)
        with pytest.raises(ValueError):
            step_size_bound(LossSpec.mse(), ci)

    def test_summary_rule_shorthand(self):
        assert step_size_summary_rule("mse", 4.0, 2.0) == 1.0 / 48.0
        assert step_size_summary_rule("kernel", 4.0, 2.0, h=0.5) == 0.25 / 48.0


class TestGradientDescent:
    def test_truth_init_terminates_immediately(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.0), seed=1)
        for spec in (LossSpec.mse(), LossSpec.kernel(1.0),
                     LossSpec.combined(0.5, 1.0)):
            res = gradient_descent(inst, spec, SolverConfig(
                eta=0.05, max_iters=50, grad_tol=1e-8,
                init="explicit", init_X0=inst.truth.factor))
            assert res.termination == "grad_tol"
            assert res.iterations_run == 0
            assert len(res.loss_trace) == 1

    def test_perturbed_zero_scale_is_truth(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.0), seed=2)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta=0.05, max_iters=50, grad_tol=1e-8,
            init="ground_truth_perturbed", init_scale=0.0))
        assert res.iterations_run == 0
        assert res.error_trace[0] < 1e-12

    def test_mse_noiseless_recovery(self):
        inst = make_instance(12, 2, 300, (2, 1), NoiseModel.gaussian(0.0), seed=21)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta="auto", max_iters=5000, grad_tol=1e-12, init="spectral"))
        rel = res.error_trace[-1] / np.linalg.norm(inst.truth.matrix)
        assert rel < 1e-3

    def test_trace_lengths(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=3)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta=0.01, max_iters=17, grad_tol=0.0))
        assert res.iterations_run == 17
        assert len(res.loss_trace) == 18
        assert len(res.error_trace) == 18
        assert res.termination == "max_iters"

    def test_divergence_flagged_non_finite(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=4)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta=1e6, max_iters=200, grad_tol=0.0))
        assert res.termination == "non_finite"
        assert res.iterations_run < 200
        assert len(res.loss_trace) == res.iterations_run + 1

    def test_descent_at_half_bound(self):
        # eta = 0.5 x step_size_bound with the matching empirically
        # estimated rho keeps every step non-increasing.
        for seed in (5, 6):
            inst = make_instance(7, 2, 84, (2, 0.8),
                                 NoiseModel.gaussian(0.05), seed=seed)
            scale = float(np.linalg.norm(inst.truth.matrix))
            delta = min(estimate_rip(inst.op, 4, 40, seed).delta_hat, 0.99)
            X0 = spectral_init(inst.op, inst.measurements, 2)
            for spec in (LossSpec.mse(), LossSpec.kernel(1.0),
                         LossSpec.combined(0.5, 1.0)):
                rho = estimate_rho(spec, inst.op, inst.measurements, 30,
                                   seed + 1, rank=2, scale=scale)
                ci = ConvergenceBoundInputs(
                    rho=rho, rank=2, delta=delta,
                    norm_Mw=float(np.linalg.norm(X0 @ X0.T)))
                res = gradient_descent(inst, spec, SolverConfig(
                    eta=0.5 * step_size_bound(spec, ci), max_iters=400,
                    grad_tol=0.0, init="ground_truth_perturbed",
                    init_scale=0.2, seed=seed))
                assert np.all(np.diff(res.loss_trace) <= 1e-10)

    def test_auto_kernel_equals_h2_times_auto_mse(self):
        inst = make_instance(8, 2, 120, (2, 1), NoiseModel.gaussian(0.1), seed=7)
        e_mse = auto_step_size(inst, LossSpec.mse(), "auto", seed=3)
        e_ker = auto_step_size(inst, LossSpec.kernel(0.7), "auto", seed=3)
        assert e_ker == pytest.approx(0.49 * e_mse, rel=1e-14)


class TestProjectRankR:
    def test_fixed_point(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((6, 2))
        M = Z @ Z.T
        assert np.linalg.norm(project_rank_r(M, 2) - M) < 1e-12

    def test_diagonal_truncation(self):
        P = project_rank_r(np.diag([3.0, 1.0]), 1)
        assert np.allclose(P, np.diag([3.0, 0.0]), atol=1e-14)

    def test_negative_eigenvalue_clamped(self):
        # Oracle: enumerate candidate eigenvalue subsets of size <= 1 and
        # clamp; keeping the +1 eigenvector is the unique nearest choice.
        P = project_rank_r(np.diag([1.0, -5.0]), 1)
        assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-14)

    def test_psd_rank_and_optimality(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((6, 6)); M = 0.5 * (M + M.T)
        P = project_rank_r(M, 2)
        ev = np.linalg.eigvalsh(P)
        assert ev.min() >= -1e-12
        assert np.sum(ev > 1e-10) <= 2
        d = np.linalg.norm(P - M)
        for _ in range(100):
            Z = rng.standard_normal((6, 2))
            assert np.linalg.norm(Z @ Z.T - M) >= d - 1e-9


class TestDistFactor:
    def test_zero_for_own_factor(self):
        X = np.random.default_rng(10).standard_normal((5, 2))
        assert dist_factor(X, X @ X.T) < 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 2))
        Z = rng.standard_normal((5, 2))
        M = Z @ Z.T
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        assert abs(dist_factor(X @ q, M) - dist_factor(X, M)) < 1e-10

    def test_rank_one_sign_enumeration(self):
        # Oracle: rank-1 PSD M = lam u u^T admits exactly Z = +-sqrt(lam) u.
        rng = np.random.default_rng(12)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        lam = 2.7
        M = lam * np.outer(u, u)
        X = rng.standard_normal((4, 1))
        brute = min(np.linalg.norm(X - s * math.sqrt(lam) * u[:, None])
                    for s in (-1.0, 1.0))
        assert dist_factor(X, M) == pytest.approx(brute, abs=1e-10)

    def test_rejects_rank_excess(self):
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((5, 3))
        with pytest.raises(ValueError):
            dist_factor(rng.standard_normal((5, 2)), Z @ Z.T)

    def test_curvature_sandwich(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            X = rng.standard_normal((5, 2))
            Z = rng.standard_normal((5, 2))
            M = Z @ Z.T
            sigma_r = np.linalg.eigvalsh(M)[-2]
            lhs = dist_factor(X, M) ** 2
            rhs = error_frobenius(X, M) ** 2 / (2 * (SQRT2 - 1) * sigma_r)
            assert lhs <= rhs * (1 + 1e-9)


class TestErrorFrobenius:
    def test_known_values(self):
        inst = make_instance(5, 2, 20, (2, 1), NoiseModel.gaussian(0.0), seed=15)
        assert error_frobenius(inst.truth.factor, inst.truth.matrix) < 1e-12
        zero = np.zeros((5, 2))
        assert error_frobenius(zero, inst.truth.matrix) == pytest.approx(
            np.linalg.norm(inst.truth.matrix))

    def test_trace_expansion_identity(self):
        # Oracle: ||XX^T - M||_F^2 = tr((XX^T)^2) - 2 tr(XX^T M) + tr(M^2).
        rng = np.random.default_rng(16)
        X = rng.standard_normal((5, 2))
        M = rng.standard_normal((5, 5)); M = 0.5 * (M + M.T)
        G = X @ X.T
        expanded = math.sqrt(max(np.trace(G @ G) - 2 * np.trace(G @ M)
                                 + np.trace(M @ M), 0.0))
        assert error_frobenius(X, M) == pytest.approx(expanded, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            error_frobenius(np.zeros((5, 2)), np.zeros((4, 4)))


class TestTraceCsv:
    def test_format(self):
        text = trace_csv(np.array([1.0, 0.5]), "loss")
        lines = text.splitlines()
        assert lines[0] == "iteration,loss"
        assert lines[1] == "0,1"
        assert text.endswith("\n")
        assert "\r" not in text
