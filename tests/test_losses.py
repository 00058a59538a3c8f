import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernsense.losses as losses
from kernsense.empirics import (_hess_gaps, estimate_lambda12, estimate_rho,
                                estimate_zeta1, estimate_zeta2,
                                finite_diff_check)
from kernsense.losses import (_FGT_MIN_M, _FGT_TERMS, LossSpec, _dense_sums,
                              _fgt_sums, _kernel, _kernel_hessian, grad_M,
                              grad_residual, grad_X, hessian_quadratic_form,
                              hessian_vector_product, hvp_residual,
                              kernel_row_means, lambda_min_hessian,
                              loss_and_grad_residual, loss_value, residuals)
from kernsense.model import (NoiseModel, SensingOperator, adjoint_op,
                             apply_op, estimate_rip, make_instance,
                             orthonormal_basis_operator,
                             random_low_rank_symmetric)
from kernsense.optimize import SolverConfig, gradient_descent, spectral_init

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            LossSpec.kernel(bad)
        with pytest.raises(ValueError):
            LossSpec.combined(0.5, bad)
        with pytest.raises(ValueError):
            LossSpec.combined(bad, 1.0)
        with pytest.raises(ValueError):
            kernel_row_means(np.zeros(3), bad)


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

    def test_kernel_frozen_scalar(self):
        h = 1.0
        val = loss_value(LossSpec.kernel(h), np.array([0.0, h]))
        assert abs(val - KERNEL_VALUE_0_H) < 1e-12
        assert abs(val - (-math.log((1 + math.exp(-1)) / 2))) < 1e-15

    def test_mse_values(self):
        r = np.array([1.0, -1.0])
        assert 2 / r.size * loss_value(LossSpec.mse(), r) == 1.0
        assert loss_value(LossSpec.mse(), r) == 1.0
        assert loss_value(LossSpec.mse(), np.array([2.0])) == 2.0

    def test_kernel_nonnegative(self):
        spec = LossSpec.kernel(0.9)
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert loss_value(spec, rng.standard_normal(12)) >= 0.0

    def test_combined_interpolates_values(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal(15)
        k = loss_value(LossSpec.kernel(0.8), r)
        m = float(r @ r) / r.size
        assert loss_value(LossSpec.combined(0.0, 0.8), r) == k
        assert loss_value(LossSpec.combined(1.0, 0.8), r) == m
        mid = loss_value(LossSpec.combined(0.3, 0.8), r)
        assert abs(mid - (0.3 * m + 0.7 * k)) < 1e-15


class TestKernelGradResidual:
    def test_zero_at_constant(self):
        g = grad_residual(LossSpec.kernel(0.9), np.full(7, 2.2))
        assert np.abs(g).max() == 0.0

    def test_antisymmetric_pair(self):
        g = grad_residual(LossSpec.kernel(1.1), np.array([0.0, 0.7]))
        assert abs(g[0] + g[1]) < 1e-14

    def test_matches_finite_difference(self):
        r = np.array([0.0, 1.0])
        g = grad_residual(LossSpec.kernel(1.0), r)
        t = 1e-6
        fd = np.zeros(2)
        for i in range(2):
            rp = r.copy(); rp[i] += t
            rm = r.copy(); rm[i] -= t
            fd[i] = (loss_value(LossSpec.kernel(1.0), rp)
                     - loss_value(LossSpec.kernel(1.0), rm)) / (2 * t)
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-7


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


def assert_fast_matches_dense(r, h, seed):
    """Value (1e-12), gradient and HVP (1e-10 in norm) of the fast path
    against the dense tables, and a zero-sum gradient."""
    v_ref, g_ref = dense_kernel(r, h)
    v, g = fast_kernel(r, h)
    assert abs(v - v_ref) <= 1e-12 * abs(v_ref)
    assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)
    assert abs(g.sum()) < 1e-10
    u = np.random.default_rng([seed, 5]).standard_normal(r.size)
    hu_ref = _kernel_hessian(r, h, _dense_sums)(u)
    hu = _kernel_hessian(r, h, _fgt_sums)(u)
    assert np.linalg.norm(hu - hu_ref) <= 1e-10 * np.linalg.norm(hu_ref)


class TestDenseAndSparseBoxes:
    """Boxes of at least 2p = 48 points are reduced and evaluated by one
    BLAS product each, the other boxes in one vectorized batch; both must
    meet the fast path's tolerances against the dense tables."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(n_dense=st.integers(4 * _FGT_TERMS, 3000),
           n_out=st.integers(1, 60), width=st.floats(1e-3, 0.12),
           h=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_cluster_with_outliers(self, n_dense, n_out, width, h, seed):
        # At least 4p points within +-0.12h, under half a box of width h/2,
        # fill at most two boxes, so one is dense.  The outliers sit near
        # whole bandwidths from the cluster, in sparse boxes, some within
        # the reach of the cluster and some beyond it.
        rng = np.random.default_rng(seed)
        cluster = width * h * rng.uniform(-1.0, 1.0, n_dense)
        steps = rng.choice(np.r_[-9:0, 1:10], n_out)
        outliers = h * (steps + rng.uniform(-0.2, 0.2, n_out))
        r = rng.permutation(np.concatenate((cluster, outliers)))
        assert_fast_matches_dense(r, h, seed)

    @pytest.mark.parametrize("n", [2 * _FGT_TERMS - 1, 2 * _FGT_TERMS])
    def test_box_at_the_threshold(self, n):
        # The cluster's minimum, -3h, centres box 0, so the n points within
        # h/10 of 0 fill box 6 alone; the other points lie at least h/2
        # from them, within the reach.
        h = 0.8
        rng = np.random.default_rng(n)
        box = 0.1 * h * rng.uniform(-1.0, 1.0, n)
        rest = h * rng.uniform(0.5, 3.0, 300) * rng.choice([-1.0, 1.0], 300)
        r = rng.permutation(np.concatenate(([-3.0 * h], box, rest)))
        assert_fast_matches_dense(r, h, n)

    @pytest.mark.parametrize("m", [2 * _FGT_TERMS, _FGT_MIN_M, 4000])
    def test_dense_box_of_equal_residuals_is_exact(self, m):
        v, g = fast_kernel(np.full(m, -1.3), 0.7)
        assert v == 0.0 and not np.any(g)


class TestSortedEvaluation:
    """The kernel entry points sort the residuals once and hand the sorted
    vector to the sums, so the fast path depends on the residuals' values,
    not on their order: a permuted input gives the same value and the
    permuted gradient bit for bit.  Tied residuals get equal sums, so this
    holds with ties too; the HVP's weights v differ between tied residuals,
    whose sorted order is arbitrary, so it is checked on tie-free inputs.
    """

    @settings(max_examples=25, deadline=None, database=None)
    @given(m=st.integers(_FGT_MIN_M, 2000), h=st.floats(0.1, 2.0),
           kind=st.sampled_from(["normal", "student_t", "cauchy"]),
           seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    @example(m=_FGT_MIN_M, h=0.5, kind="normal", seed=2, ties=True)
    @example(m=_FGT_MIN_M, h=1.0, kind="normal", seed=0, ties=True)
    def test_permutation_commutes(self, m, h, kind, seed, ties):
        r = sample_residuals(kind, m, seed)
        if ties:
            r = np.round(r, 1)
        rng = np.random.default_rng([seed, 2])
        perm = rng.permutation(m)
        v, g = fast_kernel(r, h)
        v_perm, g_perm = fast_kernel(r[perm], h)
        assert v_perm == v
        assert np.array_equal(g_perm, g[perm])
        if np.unique(r).size == m:
            u = rng.standard_normal(m)
            hu = _kernel_hessian(r, h, _fgt_sums)(u)
            hu_perm = _kernel_hessian(r[perm], h, _fgt_sums)(u[perm])
            assert np.array_equal(hu_perm, hu[perm])

    @settings(max_examples=10, deadline=None, database=None)
    @given(m=st.integers(_FGT_MIN_M, 2000), h=st.floats(0.1, 2.0),
           kind=st.sampled_from(["normal", "student_t", "cauchy"]),
           seed=st.integers(0, 2**32 - 1))
    def test_row_means_in_input_order(self, m, h, kind, seed):
        r = sample_residuals(kind, m, seed)
        np.random.default_rng([seed, 3]).shuffle(r)
        dense = _dense_sums(r, h)(None, (0,))[0] / m
        assert np.max(np.abs(kernel_row_means(r, h) - dense) / dense) <= 1e-12

    def test_equal_residual_clusters_are_exact(self):
        # Each cluster's first box is centred on its minimum, so equal
        # residuals sit at offset 0, where only the expansions' constant
        # terms survive: the odd sums, and so the gradient, are exactly 0.
        r = np.repeat([-5.0, 5.0, 20.0], [200, 250, 100])
        np.random.default_rng(16).shuffle(r)
        v, g = fast_kernel(r, 1.0)
        assert v == dense_kernel(r, 1.0)[0]
        assert not np.any(g)
        v, g = fast_kernel(np.full(_FGT_MIN_M, 3.7), 0.9)
        assert v == 0.0 and not np.any(g)


class TestResidualHessian:
    """Exact residual-space Hessian-vector products against their oracles.

    Tolerances are fixed from double precision and the difference step, not
    from observed errors: fast path against dense 1e-10 relative in norm,
    symmetry and zero sum 1e-10 relative, central differences of the exact
    gradient (step 1e-5) 1e-6 relative in norm, and of the value (step
    1e-5) along u 1e-6 relative to ||g|| ||u||.
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

    @settings(max_examples=30, deadline=None, database=None)
    @given(spec=st.sampled_from([LossSpec.mse(), LossSpec.kernel(0.5),
                                 LossSpec.combined(0.3, 0.5)]),
           m=st.one_of(st.integers(20, _FGT_MIN_M - 1),
                       st.integers(_FGT_MIN_M, 2 * _FGT_MIN_M)),
           kind=st.sampled_from(["normal", "student_t"]),
           seed=st.integers(0, 2**32 - 1))
    @example(spec=LossSpec.mse(), m=40, kind="normal", seed=0)
    @example(spec=LossSpec.combined(0.3, 0.5), m=2 * _FGT_MIN_M,
             kind="student_t", seed=1)
    def test_derivatives_are_central_differences(self, spec, m, kind, seed):
        # Each kind at one scale, on both Gauss-sum providers: the gradient
        # is the derivative of the value, the HVP that of the gradient.
        r = sample_residuals(kind, m, seed)
        u, v = np.random.default_rng([seed, 2]).standard_normal((2, m))
        t = 1e-5
        g = grad_residual(spec, r)
        fd = (loss_value(spec, r + t * u)
              - loss_value(spec, r - t * u)) / (2 * t)
        assert abs(g @ u - fd) <= 1e-6 * np.linalg.norm(g) * np.linalg.norm(u)
        fd = (grad_residual(spec, r + t * v)
              - grad_residual(spec, r - t * v)) / (2 * t)
        hv = hvp_residual(spec, r, v)
        assert np.linalg.norm(hv - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("m", [40, 2 * _FGT_MIN_M])
    def test_combined_mixes_parts(self, m):
        # The combined loss mixes the mean square (1/m) sum(r_i^2), whose
        # Hessian is (2/m) times the MSE's I (of 0.5 sum(r_i^2)).
        r = sample_residuals("normal", m, 12)
        v = np.random.default_rng(13).standard_normal(m)
        lam = 0.3
        hv = hvp_residual(LossSpec.combined(lam, 0.5), r, v)
        parts = (2 * lam / m * hvp_residual(LossSpec.mse(), r, v)
                 + (1 - lam) * hvp_residual(LossSpec.kernel(0.5), r, v))
        assert np.linalg.norm(hv - parts) <= 1e-14 * np.linalg.norm(parts)

    def test_mse_is_identity(self):
        # Gradient r and HVP v, each a new array: no caller holds an alias
        # of its residuals or direction.
        r, v = np.random.default_rng(14).standard_normal((2, 9))
        hv = hvp_residual(LossSpec.mse(), r, v)
        assert np.array_equal(hv, v) and not np.shares_memory(hv, v)
        for x in (r, v):
            dx = losses._derivative(LossSpec.mse(), x, None)
            assert np.array_equal(dx, x) and not np.shares_memory(dx, x)

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
                                      LossSpec.combined(0.3, 0.5),
                                      LossSpec.mse()])
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
        gap = _hess_gaps((spec,), r2 + w, r2, apply_op(inst.op, K),
                         apply_op(inst.op, L))[0]
        assert abs(gap - (f1 - f2)) <= tol
        form = float(np.sum(K * hessian_vector_product(spec, inst.op, b1, M, L)))
        assert abs(form - f1) <= tol


# combined(1.0, h) is the MSE scaled to (1/m) sum(r_i^2).
ALL_SPECS = [LossSpec.mse(), LossSpec.combined(1.0, 0.8),
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
        g = grad_M(LossSpec.mse(), inst.op, inst.measurements, M)
        assert np.abs(g + adjoint_op(inst.op, r)).max() < 1e-12

    def test_combined_endpoints(self):
        inst = make_instance(5, 2, 25, (2, 1), NoiseModel.gaussian(0.2), seed=12)
        rng = np.random.default_rng(13)
        M = rng.standard_normal((5, 5)); M = 0.5 * (M + M.T)
        g1 = grad_M(LossSpec.combined(1.0, 0.8), inst.op, inst.measurements, M)
        g_mse = (2 / inst.op.m) * grad_M(LossSpec.mse(), inst.op,
                                         inst.measurements, M)
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
        inst = make_instance(5, 2, 20, (2, 1), NoiseModel.gaussian(0.0), seed=17)
        op2 = SensingOperator(n=5, m=20, P=3.0 * inst.op.P)
        b2 = 3.0 * inst.measurements
        g = grad_X(LossSpec.kernel(1.0), op2, b2, inst.truth.factor)
        assert np.abs(g).max() < 1e-12


class TestGradW:
    def test_mse_mean_frozen(self):
        r = np.array([1.0, 0.0])
        g = 2 / r.size * grad_residual(LossSpec.mse(), r)
        assert np.array_equal(g, np.array([1.0, 0.0]))

    def test_kernel_constant_zero(self):
        g = grad_residual(LossSpec.kernel(1.0), np.full(6, 0.3))
        assert np.abs(g).max() == 0.0

    def test_kernel_exponential_suppression(self):
        spec = LossSpec.kernel(1.0)
        n1 = np.linalg.norm(grad_residual(spec, np.array([-1.0, 1.0])))
        n3 = np.linalg.norm(grad_residual(spec, np.array([-3.0, 3.0])))
        assert n3 < n1

    def test_noise_sensitivity_ordering(self):
        # mse scales linearly in the spread; kernel decays once the
        # pattern diameter exceeds the bandwidth.
        pattern = np.tile([-1.0, 1.0], 10)
        mse_norms = []
        ker_norms = []
        for s in (1.0, 2.0, 4.0, 8.0):
            mse_norms.append(np.linalg.norm(grad_residual(LossSpec.mse(),
                                                          s * pattern)))
            ker_norms.append(np.linalg.norm(grad_residual(LossSpec.kernel(1.0),
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
        assert abs(q - np.sum(K * K)) < 1e-10

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


def _exact_lambda_min(spec, op, b, M):
    """eigvalsh(Phi^T H Phi): Phi is op.P with its off-diagonal columns
    scaled by sqrt(2), the operator on an orthonormal basis of symmetric
    matrices, and the columns of H Phi come from hvp_residual."""
    iu = np.triu_indices(op.n)
    phi = op.P * np.where(iu[0] == iu[1], 1.0, math.sqrt(2.0))
    r = b - apply_op(op, M)
    h_phi = np.column_stack([hvp_residual(spec, r, c) for c in phi.T])
    return float(np.linalg.eigvalsh(phi.T @ h_phi)[0])


def _student_t_top(n, r, m, seed, eps=0.9):
    """The sweep's instance at its largest noise level: student-t noise
    rescaled to norm eps."""
    inst = make_instance(n, r, m, (1.0,) * r, NoiseModel.student_t(2.0, 1.0),
                         seed)
    w = eps * inst.noise / np.linalg.norm(inst.noise)
    return replace(inst, noise=w,
                   measurements=apply_op(inst.op, inst.truth.matrix) + w)


class TestLambdaMin:
    # Lanczos with a budget of at least the n(n+1)/2 symmetric directions
    # spans the whole space, so it must reproduce the dense eigenvalue.
    @pytest.mark.parametrize("spec,m", [
        (LossSpec.mse(), 60),
        (LossSpec.kernel(0.5), 100),                 # dense kernel sums
        (LossSpec.kernel(0.5), _FGT_MIN_M + 20),     # fast Gauss transform
        (LossSpec.combined(0.3, 0.5), 100),
        (LossSpec.combined(0.3, 0.5), _FGT_MIN_M + 20),
    ])
    def test_matches_dense_eigvalsh(self, spec, m):
        n = 5
        dim = n * (n + 1) // 2
        inst = _student_t_top(n, 2, m, seed=31)
        exact = _exact_lambda_min(spec, inst.op, inst.measurements,
                                  inst.truth.matrix)
        res = lambda_min_hessian(spec, inst.op, inst.measurements,
                                 inst.truth.matrix, iters=dim + 5, seed=4)
        assert abs(res.value - exact) <= 1e-9 * max(1.0, abs(exact))
        assert res.converged
        assert res.iterations <= dim

    @pytest.mark.parametrize("iters", [1, 2, 5, 12, 30])
    def test_never_below_exact_with_small_budget(self, iters):
        # Ritz values interlace: every one lies above the true minimum.
        spec = LossSpec.kernel(0.5)
        inst = _student_t_top(9, 2, 180, seed=32)
        exact = _exact_lambda_min(spec, inst.op, inst.measurements,
                                  inst.truth.matrix)
        res = lambda_min_hessian(spec, inst.op, inst.measurements,
                                 inst.truth.matrix, iters=iters, seed=5)
        assert res.iterations <= iters
        assert res.value >= exact - 1e-10

    def test_kernel_budget_of_forty_lands_near_exact(self):
        # A two-phase power iteration with 40 products per phase returned
        # 1.9x the exact value here (and 12.7x on the benchmark's m=1200,
        # n=40 instance); 40 Lanczos steps in a 136-dimensional space come
        # within 10%.
        spec = LossSpec.kernel(0.5)
        inst = _student_t_top(16, 2, 320, seed=0)
        exact = _exact_lambda_min(spec, inst.op, inst.measurements,
                                  inst.truth.matrix)
        res = lambda_min_hessian(spec, inst.op, inst.measurements,
                                 inst.truth.matrix, iters=40, seed=1)
        assert res.iterations <= 40
        assert exact > 0
        assert abs(res.value - exact) <= 0.1 * exact

    def test_same_seed_is_bit_identical(self):
        spec = LossSpec.combined(0.3, 0.5)
        inst = _student_t_top(8, 2, 320, seed=33)
        runs = [lambda_min_hessian(spec, inst.op, inst.measurements,
                                   inst.truth.matrix, iters=20, seed=6)
                for _ in range(2)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("iters", [2.5, True, 0, -1, "40"])
    def test_rejects_budget_that_is_not_a_count(self, iters):
        # A fraction raised TypeError from range(), and True ran one step
        # and reported iterations=True.
        inst = _student_t_top(4, 1, 40, seed=34)
        with pytest.raises(ValueError, match="iters must be"):
            lambda_min_hessian(LossSpec.kernel(0.5), inst.op,
                               inst.measurements, inst.truth.matrix,
                               iters=iters)

    def test_non_finite_residuals_give_nan(self):
        inst = _student_t_top(4, 1, 40, seed=34)
        b = inst.measurements.copy()
        b[3] = math.nan
        res = lambda_min_hessian(LossSpec.kernel(0.5), inst.op, b,
                                 inst.truth.matrix, iters=10, seed=0)
        assert math.isnan(res.value) and not res.converged

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
        assert res.value >= 1 - delta - 1e-6
        sampled = estimate_rip(inst.op, 4, 100, seed=24).delta_hat
        assert sampled <= delta

    def test_kernel_psd_at_global_min(self):
        inst = make_instance(5, 2, 30, (2, 1), NoiseModel.gaussian(0.0), seed=25)
        res = lambda_min_hessian(LossSpec.kernel(1.0), inst.op,
                                 inst.measurements, inst.truth.matrix,
                                 iters=300, seed=2)
        assert res.value >= -1e-8


# ---------------------------------------------------------------------------
# Stacks of residual rows
# ---------------------------------------------------------------------------

def _box_counts(r, h):
    """Points per occupied box of the fast path's h/2 grid for one row of
    a single cluster (the first box centred on its minimum)."""
    return np.unique(np.floor((r - r.min()) / (0.5 * h) + 0.5),
                     return_counts=True)[1]


def _narrow_row(rng, m, h):
    """m residuals all inside one box of the h/2 grid."""
    return 1.0 + 0.2 * h * rng.random(m)


def _wide_row(rng, m, h):
    """m residuals over ~120 boxes of the h/2 grid, each box sparse."""
    return h * rng.uniform(0.0, 60.0, m)


def _stack_rows(data, m, k, h):
    """k residual rows of sample_residuals' kinds or narrow (one box) or
    wide (more than 64 boxes) at bandwidth h, some with ties, some equal to
    an earlier row, some with a far outlier, and at most one with a NaN.
    The narrow and wide rows put a row's translation at the widths where
    BLAS changes kernels: a matrix-vector product, and past small-matrix
    sizes."""
    rows = []
    for i in range(k):
        if rows and data.draw(st.booleans(), label=f"equal {i}"):
            rows.append(rows[data.draw(st.integers(0, len(rows) - 1))].copy())
            continue
        kind = data.draw(st.sampled_from(
            ["normal", "student_t", "cauchy", "narrow", "wide"]))
        seed = data.draw(st.integers(0, 2**32 - 1), label=f"seed {i}")
        if kind == "narrow":
            r = _narrow_row(np.random.default_rng(seed), m, h)
        elif kind == "wide":
            r = _wide_row(np.random.default_rng(seed), m, h)
        else:
            r = sample_residuals(kind, m, seed)
        edit = data.draw(st.sampled_from(["none", "ties", "outlier"]))
        if edit == "ties":
            r = np.round(r, 1)
        elif edit == "outlier":
            r[data.draw(st.integers(0, m - 1))] = r.max() + 1e6
        rows.append(r)
    if data.draw(st.booleans(), label="nan row"):
        rows[data.draw(st.integers(0, k - 1))][
            data.draw(st.integers(0, m - 1))] = math.nan
    return np.array(rows)


def _kernel_rows(R, h, V):
    """Values, gradients and Hessian-vector products of the rows of R."""
    v, g = _kernel(R, h, True)
    return v, g, _kernel_hessian(R, h)(V)


class TestStackedRows:
    """A stack of residual rows goes through one transform (per chunk of
    rows), in which each row is its own cluster: every row's value,
    gradient and Hessian product are the bits it gets alone, in any order
    and at any height, and meet the fast path's tolerances against the
    dense tables (assert_fast_matches_dense's)."""

    @settings(max_examples=20, deadline=None, database=None)
    @given(data=st.data(), m=st.integers(_FGT_MIN_M - 60, _FGT_MIN_M + 400),
           k=st.integers(1, 12), h=st.floats(0.1, 2.0))
    def test_rows_do_not_depend_on_the_stack(self, data, m, k, h):
        R = _stack_rows(data, m, k, h)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        V = rng.standard_normal(R.shape)
        values, grads, hvps = _kernel_rows(R, h, V)
        perm = rng.permutation(k)
        top = data.draw(st.integers(1, k))
        for part in (perm, np.arange(top)):
            pv, pg, ph = _kernel_rows(R[part], h, V[part])
            assert np.array_equal(pv, values[part], equal_nan=True)
            assert np.array_equal(pg, grads[part], equal_nan=True)
            assert np.array_equal(ph, hvps[part], equal_nan=True)
        for r, u, v, g, hu in zip(R, V, values, grads, hvps):
            alone = _kernel_rows(r, h, u)
            assert np.array_equal(alone[0], v, equal_nan=True)
            assert np.array_equal(alone[1], g, equal_nan=True)
            assert np.array_equal(alone[2], hu, equal_nan=True)
            if np.isnan(r).any():          # NaN stays in its own row
                assert math.isnan(v) and np.isnan(g).all()
                continue
            v_ref, g_ref = dense_kernel(r, h)
            hu_ref = _kernel_hessian(r, h, _dense_sums)(u)
            assert abs(v - v_ref) <= 1e-12 * abs(v_ref)
            assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)
            assert abs(g.sum()) < 1e-10
            assert (np.linalg.norm(hu - hu_ref)
                    <= 1e-10 * np.linalg.norm(hu_ref))

    def test_one_box_wide_and_dense_rows_in_one_stack(self):
        # A row of one box, an all-sparse row of more than 64 boxes and a
        # row with dense and sparse boxes share one transform; in every
        # order each row gets the bits of its own call.
        m, h = 600, 0.5
        rng = np.random.default_rng(12)
        R = np.array([_narrow_row(rng, m, h), _wide_row(rng, m, h),
                      rng.standard_normal(m)])
        narrow, wide, mixed = (_box_counts(r, h) for r in R)
        assert narrow.size == 1
        assert wide.size > 64 and wide.max() < 2 * _FGT_TERMS
        assert mixed.min() < 2 * _FGT_TERMS <= mixed.max()
        assert R.size <= losses._FGT_CHUNK
        V = rng.standard_normal(R.shape)
        alone = [_kernel_rows(r, h, v) for r, v in zip(R, V)]
        for perm in itertools.permutations(range(3)):
            perm = list(perm)
            for i, got in zip(perm, zip(*_kernel_rows(R[perm], h, V[perm]))):
                for a, b in zip(alone[i], got):
                    assert np.array_equal(a, b)

    def test_one_transform_per_bandwidth(self, monkeypatch):
        # A stacked solve's evaluation and an estimate_rho call over a spec
        # tuple make one transform per bandwidth for all their rows, not
        # one per row; the stacks here fit in one chunk.
        inst = make_instance(6, 2, 2 * _FGT_MIN_M, (2, 1),
                             NoiseModel.gaussian(0.1), seed=8)
        specs = (LossSpec.kernel(0.5), LossSpec.combined(0.3, 0.5),
                 LossSpec.kernel(0.8), LossSpec.mse(),
                 LossSpec.combined(0.6, 0.8))
        assert 3 * 2 * inst.op.m <= losses._FGT_CHUNK
        calls = []
        real = losses._gauss_sums

        def counted(r, h):
            calls.append(h)
            return real(r, h)

        monkeypatch.setattr(losses, "_gauss_sums", counted)
        # Every problem ends at its first evaluation (grad_tol is huge).
        config = SolverConfig(eta=0.01, max_iters=5, grad_tol=1e30,
                              init="ground_truth_perturbed", init_scale=0.1)
        res = gradient_descent((inst,) * len(specs), specs,
                               (config,) * len(specs))
        assert res.iterations_run == 0
        assert sorted(calls) == [0.5, 0.8]
        calls.clear()
        estimate_rho(specs, inst.op, inst.measurements, samples=3, seed=4)
        assert sorted(calls) == [0.5, 0.8]


def _entry_point_calls():
    """Every public entry point that takes a measurement vector b, as
    call(inst, b)."""
    spec = LossSpec.kernel(0.5)

    def M(inst):
        return inst.truth.matrix

    def X(inst):
        return inst.truth.factor

    return {
        "residuals": lambda i, b: residuals(i.op, b, X(i)),
        "grad_M": lambda i, b: grad_M(spec, i.op, b, M(i)),
        "grad_X": lambda i, b: grad_X(spec, i.op, b, X(i)),
        "hessian_quadratic_form": lambda i, b: hessian_quadratic_form(
            spec, i.op, b, M(i), M(i)),
        "hessian_vector_product": lambda i, b: hessian_vector_product(
            spec, i.op, b, M(i), M(i)),
        "lambda_min_hessian": lambda i, b: lambda_min_hessian(
            spec, i.op, b, M(i), iters=3),
        "estimate_zeta1": lambda i, b: estimate_zeta1(spec, i.op, b, M(i),
                                                      samples=2, seed=0),
        "estimate_zeta2": lambda i, b: estimate_zeta2(spec, i.op, b, M(i),
                                                      samples=2, seed=0),
        "estimate_rho": lambda i, b: estimate_rho(spec, i.op, b, samples=2,
                                                  seed=0),
        "estimate_lambda12": lambda i, b: estimate_lambda12(
            spec, i.op, b, M(i), samples=2, seed=0),
        "finite_diff_check": lambda i, b: finite_diff_check(spec, i.op, b,
                                                            X(i)),
        "spectral_init": lambda i, b: spectral_init(i.op, b, 2),
        "gradient_descent": lambda i, b: gradient_descent(
            replace(i, measurements=b), spec,
            SolverConfig(eta=0.01, max_iters=1, init="explicit",
                         init_X0=X(i))),
    }


@pytest.mark.parametrize("bad", ["0.3", "[0.3]", "m - 1"])
@pytest.mark.parametrize("entry", sorted(_entry_point_calls()))
def test_measurements_of_the_wrong_length_are_rejected(entry, bad):
    # numpy would broadcast a scalar or a length-1 b over the residuals;
    # every entry point rejects it with residuals' message instead.
    inst = make_instance(6, 2, 60, (2, 1), NoiseModel.gaussian(0.1), seed=9)
    b = {"0.3": 0.3, "[0.3]": [0.3],
         "m - 1": inst.measurements[:-1]}[bad]
    with pytest.raises(ValueError, match=r"b must have length 60, got "):
        _entry_point_calls()[entry](inst, b)
