import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernsense.empirics import _hess_gap
from kernsense.losses import (_FGT_MIN_M, LossSpec, _dense_sums, _fgt_sums,
                              _kernel, _kernel_hessian, grad_M, grad_residual,
                              grad_w, grad_X, hessian_quadratic_form,
                              hessian_vector_product, hvp_residual,
                              kernel_grad_residual, kernel_row_means,
                              lambda_min_hessian, loss_and_grad_residual,
                              loss_value, residuals, weighted_residual_mean)
from kernsense.model import (NoiseModel, adjoint_op, apply_op, estimate_rip,
                             gen_gaussian_operator, make_instance,
                             orthonormal_basis_operator,
                             random_low_rank_symmetric)
from kernsense.optimize import SolverConfig, gradient_descent

# Frozen by direct scalar evaluation of the pairwise log-sum-exp with m=2,
# residuals (0, h): both rows give -log((1 + e^-1)/2).
KERNEL_VALUE_0_H = 0.3798854930417225


def fd_grad_X(spec, op, b, X, t=1e-6):
    g = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp = X.copy(); Xp[i, j] += t
            Xm = X.copy(); Xm[i, j] -= t
            g[i, j] = (loss_value(spec, residuals(op, b, Xp))
                       - loss_value(spec, residuals(op, b, Xm))) / (2 * t)
    return g


class TestLossSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec.kernel(0.0)
        with pytest.raises(ValueError):
            LossSpec.combined(1.5, 1.0)
        with pytest.raises(ValueError):
            LossSpec("huber")
        with pytest.raises(ValueError):
            LossSpec("mse", mse_norm="sum")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            LossSpec.kernel(bad)
        with pytest.raises(ValueError):
            LossSpec.combined(0.5, bad)
        with pytest.raises(ValueError):
            LossSpec.combined(bad, 1.0)
        with pytest.raises(ValueError):
            kernel_grad_residual(np.zeros(3), bad)


class TestResiduals:
    def test_exact_recovery_and_noise(self):
        inst = make_instance(6, 2, 30, (2, 1), NoiseModel.gaussian(0.0), seed=1)
        r0 = residuals(inst.op, inst.measurements, inst.truth.factor)
        assert np.abs(r0).max() < 1e-12
        inst2 = make_instance(6, 2, 30, (2, 1), NoiseModel.gaussian(0.3), seed=1)
        r = residuals(inst2.op, inst2.measurements, inst2.truth.factor)
        assert np.abs(r - inst2.noise).max() < 1e-10

    def test_double_evaluation_oracle(self):
        inst = make_instance(5, 2, 20, (2, 1), NoiseModel.gaussian(0.2), seed=2)
        X = np.random.default_rng(3).standard_normal((5, 2))
        r1 = residuals(inst.op, inst.measurements, X)
        M = X @ X.T
        r2 = inst.measurements - np.array(
            [np.sum(A * M) for A in inst.op.mats])
        assert np.abs(r1 - r2).max() < 1e-12


class TestLossValue:
    def test_kernel_zero_on_constant(self):
        spec = LossSpec.kernel(0.7)
        assert loss_value(spec, np.zeros(9)) == 0.0
        assert loss_value(spec, np.full(9, 3.14)) == 0.0

    def test_kernel_translation_invariance(self):
        spec = LossSpec.kernel(1.3)
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.standard_normal(rng.integers(2, 25))
            c = rng.uniform(-10, 10)
            assert abs(loss_value(spec, r + c) - loss_value(spec, r)) < 1e-12

    def test_mse_not_translation_invariant(self):
        rng = np.random.default_rng(5)
        for norm in ("half_sum", "mean"):
            spec = LossSpec.mse(norm)
            for _ in range(20):
                r = rng.standard_normal(10)
                c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
                assert loss_value(spec, r + c) != loss_value(spec, r)

    def test_kernel_frozen_scalar(self):
        h = 1.0
        val = loss_value(LossSpec.kernel(h), np.array([0.0, h]))
        assert abs(val - KERNEL_VALUE_0_H) < 1e-12
        assert abs(val - (-math.log((1 + math.exp(-1)) / 2))) < 1e-15

    def test_mse_values(self):
        r = np.array([1.0, -1.0])
        assert loss_value(LossSpec.mse("mean"), r) == 1.0
        assert loss_value(LossSpec.mse("half_sum"), r) == 1.0
        assert loss_value(LossSpec.mse("half_sum"), np.array([2.0])) == 2.0

    def test_kernel_nonnegative(self):
        spec = LossSpec.kernel(0.9)
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert loss_value(spec, rng.standard_normal(12)) >= 0.0

    def test_combined_interpolates_values(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal(15)
        k = loss_value(LossSpec.kernel(0.8), r)
        m = loss_value(LossSpec.mse("mean"), r)
        assert loss_value(LossSpec.combined(0.0, 0.8), r) == k
        assert loss_value(LossSpec.combined(1.0, 0.8), r) == m
        mid = loss_value(LossSpec.combined(0.3, 0.8), r)
        assert abs(mid - (0.3 * m + 0.7 * k)) < 1e-15


class TestKernelGradResidual:
    def test_zero_at_constant(self):
        assert np.abs(kernel_grad_residual(np.full(7, 2.2), 0.9)).max() == 0.0

    def test_antisymmetric_pair(self):
        g = kernel_grad_residual(np.array([0.0, 0.7]), 1.1)
        assert abs(g[0] + g[1]) < 1e-14

    def test_matches_finite_difference(self):
        r = np.array([0.0, 1.0])
        g = kernel_grad_residual(r, 1.0)
        t = 1e-6
        fd = np.zeros(2)
        for i in range(2):
            rp = r.copy(); rp[i] += t
            rm = r.copy(); rm[i] -= t
            fd[i] = (loss_value(LossSpec.kernel(1.0), rp)
                     - loss_value(LossSpec.kernel(1.0), rm)) / (2 * t)
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-7

    def test_sum_zero_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            r = rng.standard_normal(rng.integers(2, 40)) * rng.uniform(0.1, 5)
            assert abs(kernel_grad_residual(r, 0.8).sum()) < 1e-10


def dense_kernel(r, h):
    """Value and gradient from the dense pairwise tables (the reference)."""
    return _kernel(r, h, True, _dense_sums)


def fast_kernel(r, h, grad=True):
    """Value and gradient from the fast Gauss transform, whatever m is."""
    return _kernel(r, h, grad, _fgt_sums)


def sample_residuals(kind, m, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal(m)
    if kind == "student_t":
        return rng.standard_t(2.0, m)
    return np.clip(rng.standard_cauchy(m), -1e3, 1e3)     # clipped Cauchy


class TestKernelFastPath:
    """The box-wise fast Gauss transform against the dense tables.

    Tolerances are fixed from double precision, not from observed errors:
    relative 1e-12 on the value and 1e-10 on the gradient norm, and the
    criterion-2 bounds (zero-sum gradient < 1e-10, shift < 1e-12).
    """

    @settings(max_examples=25, deadline=None, database=None)
    @given(m=st.integers(_FGT_MIN_M, 4000), h=st.floats(0.1, 2.0),
           kind=st.sampled_from(["normal", "student_t", "cauchy"]),
           seed=st.integers(0, 2**32 - 1), shift=st.floats(-8.0, 8.0))
    @example(m=4000, h=0.1, kind="cauchy", seed=0, shift=7.5)
    @example(m=_FGT_MIN_M, h=2.0, kind="normal", seed=1, shift=-8.0)
    def test_agrees_with_dense(self, m, h, kind, seed, shift):
        r = sample_residuals(kind, m, seed)
        v_ref, g_ref = dense_kernel(r, h)
        v, g = fast_kernel(r, h)
        assert abs(v - v_ref) <= 1e-12 * abs(v_ref)
        assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)
        assert abs(g.sum()) < 1e-10
        v_shift, _ = fast_kernel(r + shift, h)
        assert abs(v_shift - v) < 1e-12

    def test_value_only_matches(self):
        r = sample_residuals("student_t", 700, 3)
        assert fast_kernel(r, 0.5, grad=False) == (fast_kernel(r, 0.5)[0], None)

    def test_constant_residuals(self):
        v, g = fast_kernel(np.full(_FGT_MIN_M, 3.7), 0.9)
        assert abs(v) < 1e-14
        assert np.abs(g).max() < 1e-14

    def test_noise_sensitivity_pattern(self):
        # Criterion 3's alternating pattern: the gradient norm falls with
        # the spread while the two clusters lie within the reach; beyond it
        # they no longer interact and the gradient is exactly zero, where
        # the dense path gives exponentially small norms (1e-111 at 8h).
        pattern = np.tile([-1.0, 1.0], _FGT_MIN_M)
        norms = [np.linalg.norm(fast_kernel(s * pattern, 1.0)[1])
                 for s in (1.0, 2.0, 2.5, 4.0, 8.0)]
        assert norms[0] > norms[1] > norms[2] > 0.0
        assert norms[3] == norms[4] == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_residual(self, bad):
        r = sample_residuals("normal", 600, 4)
        r[17] = bad
        v, g = fast_kernel(r, 0.5)
        assert not math.isfinite(v)
        assert not np.all(np.isfinite(g))
        assert not math.isfinite(fast_kernel(r, 0.5, grad=False)[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [40, 2 * _FGT_MIN_M])
    def test_non_finite_measurement_ends_solve(self, m):
        inst = make_instance(6, 2, m, (2, 1), NoiseModel.gaussian(0.1), seed=5)
        b = inst.measurements.copy()
        b[3] = math.inf
        res = gradient_descent(replace(inst, measurements=b),
                               LossSpec.kernel(0.5),
                               SolverConfig(eta=0.01, max_iters=5,
                                            init="ground_truth_perturbed"))
        assert res.termination == "non_finite"
        assert res.iterations_run == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gap", [1e6, -1e6, -1e300])
    def test_far_outlier(self, gap):
        h = 0.5
        r = sample_residuals("normal", 600, 6)
        r_out = r.copy()
        r_out[0] = (r.max() if gap > 0 else r.min()) + gap * h
        v_ref, g_ref = dense_kernel(r_out, h)
        v, g = fast_kernel(r_out, h)
        assert abs(v - v_ref) <= 1e-12 * abs(v_ref)
        assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)

        # Memory follows the occupied boxes, not the boxes the gap spans.
        def peak(x):
            tracemalloc.start()
            try:
                fast_kernel(x, h)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(r_out) < 1.5 * peak(r)

    @pytest.mark.parametrize("m", [_FGT_MIN_M - 1, _FGT_MIN_M])
    def test_path_selected_by_size(self, m):
        r = sample_residuals("normal", m, 7)
        want = fast_kernel(r, 0.8) if m >= _FGT_MIN_M else dense_kernel(r, 0.8)
        spec = LossSpec.kernel(0.8)
        v, g = loss_and_grad_residual(spec, r)
        assert v == want[0] == loss_value(spec, r)
        assert np.array_equal(g, want[1])
        assert np.array_equal(grad_residual(spec, r), want[1])
        assert np.array_equal(kernel_grad_residual(r, 0.8), want[1])


class TestResidualHessian:
    """Exact residual-space Hessian-vector products against their oracles.

    Tolerances are fixed from double precision and the difference step, not
    from observed errors: fast path against dense 1e-10 relative in norm,
    symmetry and zero sum 1e-10 relative, central differences of the exact
    gradient (step 1e-5) 1e-6 relative in norm.
    """

    @settings(max_examples=25, deadline=None, database=None)
    @given(m=st.integers(_FGT_MIN_M, 4000), h=st.floats(0.1, 2.0),
           kind=st.sampled_from(["normal", "student_t", "cauchy"]),
           seed=st.integers(0, 2**32 - 1))
    @example(m=4000, h=0.1, kind="cauchy", seed=0)
    @example(m=_FGT_MIN_M, h=2.0, kind="normal", seed=1)
    def test_fast_agrees_with_dense(self, m, h, kind, seed):
        r = sample_residuals(kind, m, seed)
        v = np.random.default_rng([seed, 1]).standard_normal(m)
        ref = _kernel_hessian(r, h, _dense_sums)(v)
        hv = _kernel_hessian(r, h, _fgt_sums)(v)
        assert np.linalg.norm(hv - ref) <= 1e-10 * np.linalg.norm(ref)
        assert abs(hv.sum()) < 1e-10 * np.linalg.norm(hv)

    @pytest.mark.parametrize("m", [40, 2 * _FGT_MIN_M])
    @pytest.mark.parametrize("kind", ["normal", "student_t"])
    def test_symmetric_and_zero_sum(self, m, kind):
        r = sample_residuals(kind, m, 8)
        u, v = np.random.default_rng(9).standard_normal((2, m))
        spec = LossSpec.kernel(0.5)
        hu, hv = hvp_residual(spec, r, u), hvp_residual(spec, r, v)
        scale = max(np.linalg.norm(u) * np.linalg.norm(hv),
                    np.linalg.norm(v) * np.linalg.norm(hu))
        assert abs(u @ hv - v @ hu) <= 1e-10 * scale
        assert abs(hv.sum()) < 1e-10 * np.linalg.norm(hv)

    @pytest.mark.parametrize("m", [40, 2 * _FGT_MIN_M])
    @pytest.mark.parametrize("spec", [LossSpec.kernel(0.5),
                                      LossSpec.combined(0.3, 0.5)])
    def test_matches_gradient_differences(self, m, spec):
        # The finite-difference Hessian lives only here, as an oracle.
        r = sample_residuals("student_t", m, 10)
        v = np.random.default_rng(11).standard_normal(m)
        t = 1e-5
        fd = (grad_residual(spec, r + t * v)
              - grad_residual(spec, r - t * v)) / (2 * t)
        hv = hvp_residual(spec, r, v)
        assert np.linalg.norm(hv - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("m", [40, 2 * _FGT_MIN_M])
    def test_combined_mixes_parts(self, m):
        # The combined loss mixes the mean-normalized MSE, whose Hessian is
        # (1/m) times the sum-normalized 2I that hvp_residual gives the MSE.
        r = sample_residuals("normal", m, 12)
        v = np.random.default_rng(13).standard_normal(m)
        lam = 0.3
        hv = hvp_residual(LossSpec.combined(lam, 0.5), r, v)
        parts = (lam / m * hvp_residual(LossSpec.mse("mean"), r, v)
                 + (1 - lam) * hvp_residual(LossSpec.kernel(0.5), r, v))
        assert np.linalg.norm(hv - parts) <= 1e-14 * np.linalg.norm(parts)

    @pytest.mark.parametrize("norm", ["half_sum", "mean"])
    def test_mse_is_twice_identity(self, norm):
        r, v = np.random.default_rng(14).standard_normal((2, 9))
        assert np.array_equal(hvp_residual(LossSpec.mse(norm), r, v), 2 * v)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            hvp_residual(LossSpec.kernel(1.0), np.zeros(5), np.zeros(4))

    @pytest.mark.parametrize("m", [40, 2 * _FGT_MIN_M])
    def test_row_means_match_direct_sum(self, m):
        r = sample_residuals("student_t", m, 15)
        direct = np.exp(-np.subtract.outer(r, r) ** 2 / 0.25).mean(axis=1)
        assert np.max(np.abs(kernel_row_means(r, 0.5) - direct) / direct) <= 1e-12


def fd_hess_form(spec, op, b, M, K, L, t=1e-4):
    """[Hess L(M)](K, L) from polarized central second differences of the
    loss along K + L and K - L: a finite-difference oracle only."""
    def second_difference(D):
        f = [loss_value(spec, b - apply_op(op, M + s * D)) for s in (-t, 0.0, t)]
        return (f[0] - 2.0 * f[1] + f[2]) / (t * t)
    return 0.25 * (second_difference(K + L) - second_difference(K - L))


class TestHessianNoiseGap:
    """The zeta2/lambda2 bilinear forms <A(K), (H(r1) - H(r2)) A(L)> against
    the polarized-difference oracle; tolerance 1e-5 relative to the forms,
    fixed from the step 1e-4 (truncation ~1e-8, rounding ~1e-8)."""

    @pytest.mark.parametrize("m", [60, 2 * _FGT_MIN_M])
    @pytest.mark.parametrize("spec", [LossSpec.kernel(0.5),
                                      LossSpec.combined(0.3, 0.5)])
    def test_matches_polarized_differences(self, m, spec):
        inst = make_instance(6, 2, m, (2, 1), NoiseModel.gaussian(0.1), seed=26)
        rng = np.random.default_rng(27)
        M = inst.truth.matrix + 0.1 * random_low_rank_symmetric(6, 2, rng)
        K = random_low_rank_symmetric(6, 2, rng)
        L = random_low_rank_symmetric(6, 2, rng)
        w = 0.3 * rng.standard_normal(m)
        b1, b2 = inst.measurements + w, inst.measurements
        f1 = fd_hess_form(spec, inst.op, b1, M, K, L)
        f2 = fd_hess_form(spec, inst.op, b2, M, K, L)
        tol = 1e-5 * max(abs(f1), abs(f2))
        r2 = b2 - apply_op(inst.op, M)
        assert abs(_hess_gap(spec, inst.op, r2 + w, r2, K, L) - (f1 - f2)) <= tol
        form = float(np.sum(K * hessian_vector_product(spec, inst.op, b1, M, L)))
        assert abs(form - f1) <= tol


class TestWeightedResidualMean:
    def test_constant(self):
        assert weighted_residual_mean(np.full(5, 1.7), 0.8, 2) == pytest.approx(1.7)

    def test_symmetric_pattern(self):
        assert abs(weighted_residual_mean(np.array([-0.4, 0.0, 0.4]), 1.0, 1)) < 1e-15

    def test_direct_evaluation_and_grad_sign(self):
        r = np.array([0.0, 1.0, 2.0])
        h = 1.0
        w = np.exp(-(r - r[0]) ** 2 / h ** 2)
        expected = float(w @ r / w.sum())
        got = weighted_residual_mean(r, h, 0)
        assert got == pytest.approx(expected, rel=1e-12)
        # Row 0 sits below its weighted mean, so the own-row pull and the
        # full gradient component share the sign of r_i - rbar_i.
        g = kernel_grad_residual(r, h)
        assert math.copysign(1, g[0]) == math.copysign(1, r[0] - got)

    def test_index_check(self):
        with pytest.raises(ValueError):
            weighted_residual_mean(np.zeros(3), 1.0, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_bandwidth(self, bad):
        with pytest.raises(ValueError):
            weighted_residual_mean(np.array([0.0, 1.0, 2.0]), bad, 0)


ALL_SPECS = [LossSpec.mse("half_sum"), LossSpec.mse("mean"),
             LossSpec.kernel(0.8), LossSpec.combined(0.4, 0.8)]


class TestGradM:
    def test_zero_residual_kernel(self):
        inst = make_instance(5, 2, 25, (2, 1), NoiseModel.gaussian(0.0), seed=9)
        g = grad_M(LossSpec.kernel(1.0), inst.op, inst.measurements,
                   inst.truth.matrix)
        assert np.abs(g).max() < 1e-12

    def test_half_sum_closed_form(self):
        inst = make_instance(5, 2, 25, (2, 1), NoiseModel.gaussian(0.2), seed=10)
        rng = np.random.default_rng(11)
        M = rng.standard_normal((5, 5)); M = 0.5 * (M + M.T)
        r = inst.measurements - apply_op(inst.op, M)
        g = grad_M(LossSpec.mse("half_sum"), inst.op, inst.measurements, M)
        assert np.abs(g + adjoint_op(inst.op, r)).max() < 1e-12

    def test_combined_endpoints(self):
        inst = make_instance(5, 2, 25, (2, 1), NoiseModel.gaussian(0.2), seed=12)
        rng = np.random.default_rng(13)
        M = rng.standard_normal((5, 5)); M = 0.5 * (M + M.T)
        g1 = grad_M(LossSpec.combined(1.0, 0.8), inst.op, inst.measurements, M)
        g_mse = grad_M(LossSpec.mse("mean"), inst.op, inst.measurements, M)
        assert np.abs(g1 - g_mse).max() < 1e-12
        g0 = grad_M(LossSpec.combined(0.0, 0.8), inst.op, inst.measurements, M)
        g_k = grad_M(LossSpec.kernel(0.8), inst.op, inst.measurements, M)
        assert np.abs(g0 - g_k).max() < 1e-12


class TestGradX:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_at_truth_noiseless(self, spec):
        inst = make_instance(6, 2, 30, (2, 1), NoiseModel.gaussian(0.0), seed=14)
        g = grad_X(spec, inst.op, inst.measurements, inst.truth.factor)
        assert np.abs(g).max() < 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matches_finite_difference(self, spec):
        inst = make_instance(6, 2, 30, (2, 1), NoiseModel.gaussian(0.15), seed=15)
        X = np.random.default_rng(16).standard_normal((6, 2))
        ga = grad_X(spec, inst.op, inst.measurements, X)
        fd = fd_grad_X(spec, inst.op, inst.measurements, X)
        assert np.abs(ga - fd).max() / np.abs(fd).max() < 1e-6

    def test_joint_scaling_keeps_zero_set(self):
        from dataclasses import replace
        from kernsense.model import SensingOperator
        inst = make_instance(5, 2, 20, (2, 1), NoiseModel.gaussian(0.0), seed=17)
        op2 = SensingOperator.from_mats(3.0 * inst.op.mats)
        b2 = 3.0 * inst.measurements
        g = grad_X(LossSpec.kernel(1.0), op2, b2, inst.truth.factor)
        assert np.abs(g).max() < 1e-12


class TestGradW:
    def test_mse_mean_frozen(self):
        g = grad_w(LossSpec.mse("mean"), np.array([1.0, 0.0]))
        assert np.array_equal(g, np.array([1.0, 0.0]))

    def test_kernel_constant_zero(self):
        assert np.abs(grad_w(LossSpec.kernel(1.0), np.full(6, 0.3))).max() == 0.0

    def test_kernel_exponential_suppression(self):
        spec = LossSpec.kernel(1.0)
        n1 = np.linalg.norm(grad_w(spec, np.array([-1.0, 1.0])))
        n3 = np.linalg.norm(grad_w(spec, np.array([-3.0, 3.0])))
        assert n3 < n1

    def test_noise_sensitivity_ordering(self):
        # mse scales linearly in the spread; kernel decays once the
        # pattern diameter exceeds the bandwidth.
        pattern = np.tile([-1.0, 1.0], 10)
        mse_norms = []
        ker_norms = []
        for s in (1.0, 2.0, 4.0, 8.0):
            mse_norms.append(np.linalg.norm(grad_w(LossSpec.mse("mean"),
                                                   s * pattern)))
            ker_norms.append(np.linalg.norm(grad_w(LossSpec.kernel(1.0),
                                                   s * pattern)))
        for i, s in enumerate((2.0, 4.0, 8.0), start=1):
            ratio = mse_norms[i] / mse_norms[0]
            assert abs(ratio - s) <= 0.02 * s
        assert all(b < a for a, b in zip(ker_norms, ker_norms[1:]))


class TestHessian:
    def test_mse_orthonormal_value(self):
        op = orthonormal_basis_operator(4)
        rng = np.random.default_rng(18)
        K = rng.standard_normal((4, 4)); K = 0.5 * (K + K.T)
        q = hessian_quadratic_form(LossSpec.mse(), op, np.zeros(16),
                                   np.eye(4), K)
        assert abs(q - 2 * np.sum(K * K)) < 1e-10

    def test_mse_independent_of_M(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=19)
        rng = np.random.default_rng(20)
        K = rng.standard_normal((6, 6)); K = 0.5 * (K + K.T)
        vals = []
        for _ in range(2):
            M = rng.standard_normal((6, 6)); M = 0.5 * (M + M.T)
            vals.append(hessian_quadratic_form(LossSpec.mse(), inst.op,
                                               inst.measurements, M, K))
        assert abs(vals[0] - vals[1]) < 1e-9

    def test_kernel_two_schemes_agree(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=21)
        rng = np.random.default_rng(22)
        M = inst.truth.matrix
        K = rng.standard_normal((6, 6)); K = 0.5 * (K + K.T)
        spec = LossSpec.kernel(1.0)
        q_form = hessian_quadratic_form(spec, inst.op, inst.measurements, M, K)
        hv = hessian_vector_product(spec, inst.op, inst.measurements, M, K)
        q_hvp = float(np.sum(K * hv))
        assert abs(q_form - q_hvp) / max(abs(q_hvp), 1e-12) < 1e-12

    def test_rejects_zero_direction(self):
        op = orthonormal_basis_operator(3)
        with pytest.raises(ValueError):
            hessian_quadratic_form(LossSpec.mse(), op, np.zeros(9),
                                   np.eye(3), np.zeros((3, 3)))


class TestLambdaMin:
    def test_mse_orthonormal_exact(self):
        op = orthonormal_basis_operator(4)
        res = lambda_min_hessian(LossSpec.mse(), op, np.zeros(16), np.eye(4),
                                 iters=200, seed=0)
        assert res.converged
        assert abs(res.value - 2.0) < 1e-6

    def test_mse_gaussian_respects_rip_floor(self):
        # The Hessian acts on the whole symmetric space, so the matching
        # isometry constant is the exact full-rank defect (the sampled
        # rank-restricted estimate is only a lower bound and need not
        # dominate the eigensolver's minimum).
        from kernsense.model import full_rank_defect
        inst = make_instance(6, 2, 500, (2, 1), NoiseModel.gaussian(0.05), seed=23)
        delta = full_rank_defect(inst.op)
        res = lambda_min_hessian(LossSpec.mse(), inst.op, inst.measurements,
                                 inst.truth.matrix, iters=300, seed=1)
        assert res.value >= 2 * (1 - delta) - 1e-6
        sampled = estimate_rip(inst.op, 4, 100, seed=24).delta_hat
        assert sampled <= delta

    def test_kernel_psd_at_global_min(self):
        inst = make_instance(5, 2, 30, (2, 1), NoiseModel.gaussian(0.0), seed=25)
        res = lambda_min_hessian(LossSpec.kernel(1.0), inst.op,
                                 inst.measurements, inst.truth.matrix,
                                 iters=300, seed=2)
        assert res.value >= -1e-8
