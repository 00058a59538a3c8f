import functools
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernsense.empirics import (_hess_gaps, estimate_constants,
                                estimate_lambda12, estimate_rho,
                                estimate_zeta1, estimate_zeta2,
                                finite_diff_check, residual_constants)
from kernsense.losses import (_FGT_MIN_M, LossSpec, _derivative,
                              _kernel_work, grad_M, grad_residual,
                              hvp_residual, kernel_row_means)
from kernsense.model import (_OP_BLOCK, NoiseModel, apply_op,
                             estimate_rip, make_instance,
                             orthonormal_basis_operator,
                             random_low_rank_symmetric)


@pytest.fixture(scope="module")
def inst():
    return make_instance(6, 2, 60, (2.0, 1.0), NoiseModel.gaussian(0.1), seed=11)


class TestZeta1:
    def test_mse_respects_analytic_cap(self, inst):
        # Gradient difference for the square loss 0.5 sum(r_i^2) is exactly
        # A*(w), so the sampled sup cannot exceed sqrt(1+delta) for the
        # true constant; allow 5% on top of the sampled delta.
        delta = estimate_rip(inst.op, 4, 200, seed=1).delta_hat
        z1 = estimate_zeta1(LossSpec.mse(), inst.op, inst.measurements,
                            inst.truth.matrix, samples=500, seed=2)
        assert 0.0 < z1 <= math.sqrt(1.0 + delta) * 1.05

    def test_zero_noise_gives_zero(self, inst):
        z1 = estimate_zeta1(LossSpec.mse(), inst.op, inst.measurements,
                            inst.truth.matrix, samples=50, seed=3,
                            mag_range=(0.0, 0.0))
        assert z1 == 0.0

    def test_nested_monotone(self, inst):
        a = estimate_zeta1(LossSpec.mse(), inst.op, inst.measurements,
                           inst.truth.matrix, samples=100, seed=4)
        b = estimate_zeta1(LossSpec.mse(), inst.op, inst.measurements,
                           inst.truth.matrix, samples=500, seed=4)
        assert a <= b


class TestZeta2:
    def test_mse_exactly_zero(self, inst):
        z2 = estimate_zeta2(LossSpec.mse(), inst.op, inst.measurements,
                            inst.truth.matrix, samples=40, seed=5)
        assert z2 < 1e-6

    def test_zero_noise_gives_zero(self, inst):
        z2 = estimate_zeta2(LossSpec.kernel(1.0), inst.op, inst.measurements,
                            inst.truth.matrix, samples=20, seed=6,
                            mag_range=(0.0, 0.0))
        assert z2 == 0.0

    def test_kernel_reproducible_across_seeds(self, inst):
        vals = [estimate_zeta2(LossSpec.kernel(1.0), inst.op,
                               inst.measurements, inst.truth.matrix,
                               samples=120, seed=s, mag_range=(0.01, 0.3))
                for s in (7, 8)]
        assert all(v > 0 for v in vals)
        assert abs(vals[0] - vals[1]) / max(vals) < 0.2


class TestRho:
    def test_orthonormal_basis_exact_one(self):
        op = orthonormal_basis_operator(4)
        rho = estimate_rho(LossSpec.mse(), op, np.zeros(16), samples=30, seed=9)
        assert abs(rho - 1.0) < 1e-9

    def test_nested_monotone_and_deterministic(self, inst):
        a = estimate_rho(LossSpec.kernel(1.0), inst.op, inst.measurements,
                         samples=10, seed=30, rank=2, scale=2.0)
        b = estimate_rho(LossSpec.kernel(1.0), inst.op, inst.measurements,
                         samples=40, seed=30, rank=2, scale=2.0)
        b2 = estimate_rho(LossSpec.kernel(1.0), inst.op, inst.measurements,
                          samples=40, seed=30, rank=2, scale=2.0)
        assert a <= b
        assert b == b2

    def test_kernel_bandwidth_scaling(self, inst):
        r1 = estimate_rho(LossSpec.kernel(1.0), inst.op, inst.measurements,
                          samples=60, seed=11, rank=2, scale=2.0)
        r05 = estimate_rho(LossSpec.kernel(0.5), inst.op, inst.measurements,
                           samples=60, seed=11, rank=2, scale=2.0)
        # curvature scales like 1/h^2; the sup location moves, so coarse
        assert 2.0 <= r05 / r1 <= 8.0


class TestLambda12:
    def test_mse_lambda2_zero(self, inst):
        lam1, lam2 = estimate_lambda12(LossSpec.mse(), inst.op,
                                       inst.measurements, inst.truth.matrix,
                                       samples=40, seed=12)
        assert lam1 > 0
        assert lam2 < 1e-6

    def test_identical_pairs_skipped(self, inst):
        lam1, lam2 = estimate_lambda12(LossSpec.mse(), inst.op,
                                       inst.measurements, inst.truth.matrix,
                                       samples=10, seed=13,
                                       mag_range=(0.0, 0.0))
        assert lam1 == 0.0 and lam2 == 0.0

    def test_kernel_lambda1_reproducible(self, inst):
        vals = [estimate_lambda12(LossSpec.kernel(1.0), inst.op,
                                  inst.measurements, inst.truth.matrix,
                                  samples=120, seed=s,
                                  mag_range=(0.01, 0.3))[0]
                for s in (14, 15)]
        assert all(v > 0 for v in vals)
        assert abs(vals[0] - vals[1]) / max(vals) < 0.2


@functools.cache
def _shared_instance(m):
    return make_instance(6, 2, m, (2.0, 1.0), NoiseModel.student_t(2.0, 1.0),
                         seed=19)


class TestSharedSamples:
    """Several losses on one sample set: each gets, bit for bit, what its
    own one-spec call gives, on the dense (m = 60) and the fast kernel path,
    with the combined loss at the kernel's bandwidth or at its own."""

    @settings(max_examples=20, deadline=None, database=None)
    @given(m=st.sampled_from([60, 2 * _FGT_MIN_M]),
           seed=st.integers(0, 2 ** 32 - 1), samples=st.integers(1, 20),
           h=st.floats(0.2, 2.0), lam=st.floats(0.0, 1.0),
           own_h=st.booleans())
    def test_tuple_equals_one_spec_calls(self, m, seed, samples, h, lam,
                                         own_h):
        inst = _shared_instance(m)
        op, b, M = inst.op, inst.measurements, inst.truth.matrix
        specs = (LossSpec.mse(), LossSpec.kernel(h),
                 LossSpec.combined(lam, 1.7 * h if own_h else h))
        assert estimate_rho(specs, op, b, samples, seed, rank=2,
                            scale=2.0) == tuple(
            estimate_rho(s, op, b, samples, seed, rank=2, scale=2.0)
            for s in specs)
        assert estimate_lambda12(specs, op, b, M, samples, seed,
                                 rank=4) == tuple(
            estimate_lambda12(s, op, b, M, samples, seed, rank=4)
            for s in specs)

    @settings(max_examples=20, deadline=None, database=None)
    @given(m=st.sampled_from([60, 2 * _FGT_MIN_M]),
           seed=st.integers(0, 2 ** 32 - 1), h=st.floats(0.2, 2.0),
           lam=st.floats(0.0, 1.0), own_h=st.booleans())
    def test_shared_kernel_work_equals_one_loss_functions(self, m, seed, h,
                                                          lam, own_h):
        # The quantities mixed from shared kernel results are bit for bit
        # those of losses' one-loss functions.
        rng = np.random.default_rng(seed)
        r = rng.standard_t(2.0, (3, m))
        ak, al = rng.standard_normal((2, m))
        specs = (LossSpec.mse(), LossSpec.kernel(h),
                 LossSpec.combined(lam, 1.7 * h if own_h else h))
        kernel = _kernel_work(specs, lambda k: grad_residual(k, r))
        for spec in specs:
            want = np.array([grad_residual(spec, row) for row in r])
            assert np.array_equal(_derivative(spec, r, kernel.get(spec.h)),
                                  want)
        for spec, gap in zip(specs, _hess_gaps(specs, r[0], r[1], ak, al)):
            assert gap == float(ak @ (hvp_residual(spec, r[0], al)
                                      - hvp_residual(spec, r[1], al)))

    @settings(max_examples=10, deadline=None, database=None)
    @given(m=st.sampled_from([60, 2 * _FGT_MIN_M]),
           seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 4),
           tuple_spec=st.booleans())
    def test_rho_of_a_measurement_stack_equals_row_calls(self, m, seed, rows,
                                                         tuple_spec):
        # The pairs depend on the seed alone, so one call serves a stack of
        # measurement vectors, as the sweep's epsilon grid: each row gets
        # what its own call gives, bit for bit.
        inst = _shared_instance(m)
        rng = np.random.default_rng(seed)
        bs = inst.measurements + rng.standard_normal((rows, m)) * \
            rng.uniform(0.0, 2.0, (rows, 1))
        spec = (LossSpec.mse(), LossSpec.kernel(0.6),
                LossSpec.combined(0.3, 0.9))
        spec = spec if tuple_spec else spec[1]
        assert estimate_rho(spec, inst.op, bs, 5, seed, rank=2,
                            scale=2.0) == tuple(
            estimate_rho(spec, inst.op, b, 5, seed, rank=2, scale=2.0)
            for b in bs)

    def test_rho_rejects_a_stack_of_the_wrong_width(self, inst):
        with pytest.raises(ValueError, match="b must have length 60"):
            estimate_rho(LossSpec.mse(), inst.op,
                         np.zeros((3, inst.op.m - 1)), 2, 0)

    def test_one_spec_tuple_and_repeats(self, inst):
        op, b, M = inst.op, inst.measurements, inst.truth.matrix
        spec = LossSpec.combined(0.3, 0.8)
        assert estimate_rho((spec,), op, b, 5, 1) == (
            estimate_rho(spec, op, b, 5, 1),)
        assert estimate_lambda12((spec, spec), op, b, M, 5, 2) == (
            estimate_lambda12(spec, op, b, M, 5, 2),) * 2
        assert estimate_lambda12((spec,), op, b, M, 5, 3,
                                 mag_range=(0.0, 0.0)) == ((0.0, 0.0),)


class TestResidualConstants:
    def test_constant_residuals(self):
        g_min, b_max = residual_constants(np.full(9, 0.4), 1.0)
        assert g_min == 1.0 and b_max == 0.0

    def test_frozen_pair(self):
        g_min, b_max = residual_constants(np.array([0.0, 1.0]), 1.0)
        assert b_max == 1.0
        assert g_min == pytest.approx((1 + math.exp(-1)) / 2, abs=1e-12)

    def test_sandwich(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            r = rng.standard_normal(rng.integers(2, 25)) * rng.uniform(0.2, 3)
            h = rng.uniform(0.3, 2.0)
            g_min, b_max = residual_constants(r, h)
            assert math.exp(-b_max ** 2 / h ** 2) - 1e-12 <= g_min <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_bandwidth(self, bad):
        with pytest.raises(ValueError):
            residual_constants(np.zeros(3), bad)

    @pytest.mark.parametrize("r", [[[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]],
                                   [[0.0, 1.0]], 0.4])
    def test_rejects_anything_but_one_vector(self, r):
        # The rows [0,0,0] and [5,5,5], read as one vector, gave G = 0.5
        # everywhere and B = 5, where each row alone gives 1 and 0.
        shape = np.shape(r)
        for f in (residual_constants, kernel_row_means):
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                f(np.array(r), 1.0)


class TestFiniteDiffCheck:
    def test_passes_for_all_losses(self, inst):
        X = np.random.default_rng(17).standard_normal((6, 2))
        for spec in (LossSpec.mse(), LossSpec.kernel(0.8),
                     LossSpec.combined(0.4, 0.8)):
            rep = finite_diff_check(spec, inst.op, inst.measurements, X,
                                    tol=1e-6)
            assert rep.passed and not rep.vacuous

    def test_vacuous_at_zero_gradient(self):
        clean = make_instance(5, 2, 25, (2, 1), NoiseModel.gaussian(0.0), seed=18)
        rep = finite_diff_check(LossSpec.mse(), clean.op, clean.measurements,
                                clean.truth.factor, tol=1e-6)
        assert rep.passed and rep.vacuous and rep.grad_norm < 1e-10


class TestConstantEstimates:
    def test_bundle(self, inst):
        est = estimate_constants(LossSpec.mse(), inst, samples=30, seed=20)
        assert est.l2 == 0.0
        assert est.l1 >= 2.0
        assert {f.name for f in fields(est)} == {
            "zeta1", "zeta2", "rho", "lambda1", "lambda2", "g_min", "b_max",
            "l1", "l2", "samples", "seed"}


# ---------------------------------------------------------------------------
# Per-sample reference: the estimators as written before sampling was
# stacked.  Every sample makes its own apply_op/adjoint_op calls and every
# gradient its own A(M).
# ---------------------------------------------------------------------------

def _ref_hess_gap(spec, op, r1, r2, K, L):
    al = apply_op(op, L)
    return float(apply_op(op, K) @ (hvp_residual(spec, r1, al)
                                    - hvp_residual(spec, r2, al)))


def _ref_noise_dir(rng, m, mag_range):
    lo, hi = mag_range
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    if hi <= 0:
        return 0.0 * v
    mag = math.exp(rng.uniform(math.log(max(lo, 1e-12)), math.log(hi)))
    return mag * v


def _ref_noise_samples(op, b, M_base, samples, seed, scale, rank, dirs):
    mag_range = (1e-3, max(float(np.linalg.norm(b)), 1e-3))
    k = max(1, min(op.n, rank))
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        M = M_base + scale * rng.uniform(0.0, 1.0) * \
            random_low_rank_symmetric(op.n, k, rng)
        directions = [random_low_rank_symmetric(op.n, k, rng)
                      for _ in range(dirs)]
        w = _ref_noise_dir(rng, op.m, mag_range)
        nw = np.linalg.norm(w)
        if nw >= 1e-12:
            yield M, directions, w, nw


def _ref_zeta1(spec, op, b, M_base, samples, seed, scale, rank):
    best = 0.0
    for M, (K,), w, nw in _ref_noise_samples(op, b, M_base, samples, seed,
                                             scale, rank, 1):
        diff = grad_M(spec, op, np.asarray(b) + w, M) \
            - grad_M(spec, op, b, M)
        best = max(best, abs(float(np.sum(diff * K))) / nw)
    return best


def _ref_zeta2(spec, op, b, M_base, samples, seed, scale, rank):
    best = 0.0
    for M, (K, L), w, nw in _ref_noise_samples(op, b, M_base, samples, seed,
                                               scale, rank, 2):
        r = np.asarray(b) - apply_op(op, M)
        best = max(best, abs(_ref_hess_gap(spec, op, r + w, r, K, L)) / nw)
    return best


def _ref_rho(spec, op, b, samples, seed, rank, scale):
    best = 0.0
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        s = math.exp(rng.uniform(math.log(1e-2), math.log(max(scale, 1e-2))))
        t = math.exp(rng.uniform(math.log(1e-3), math.log(1.0)))
        M = s * random_low_rank_symmetric(op.n, rank, rng)
        Mp = M + t * random_low_rank_symmetric(op.n, rank, rng)
        dn = np.linalg.norm(M - Mp)
        if dn < 1e-12:
            continue
        diff = grad_M(spec, op, b, M) - grad_M(spec, op, b, Mp)
        best = max(best, float(np.linalg.norm(diff)) / dn)
    return best


def _ref_lambda12(spec, op, b, M, samples, seed, rank):
    mag_range = (1e-3, max(float(np.linalg.norm(b)), 1e-3))
    r = np.asarray(b) - apply_op(op, M)
    lam1 = lam2 = 0.0
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        w1 = _ref_noise_dir(rng, op.m, mag_range)
        w2 = _ref_noise_dir(rng, op.m, mag_range)
        dw = np.linalg.norm(w1 - w2)
        if dw < 1e-12:
            continue
        g1 = grad_M(spec, op, np.asarray(b) + w1, M)
        g2 = grad_M(spec, op, np.asarray(b) + w2, M)
        lam1 = max(lam1, float(np.linalg.norm(g1 - g2)) / dw)
        k = max(1, min(op.n, rank))
        K = random_low_rank_symmetric(op.n, k, rng)
        L = random_low_rank_symmetric(op.n, k, rng)
        lam2 = max(lam2, abs(_ref_hess_gap(spec, op, r + w1, r + w2, K, L)) / dw)
    return lam1, lam2


def _ref_rip(op, rank, trials, seed):
    return max(abs(float(np.sum(apply_op(op, random_low_rank_symmetric(
        op.n, rank, np.random.default_rng([seed, t]))) ** 2)) - 1.0)
        for t in range(trials))


SPECS = [LossSpec.mse(), LossSpec.kernel(0.8), LossSpec.combined(0.3, 0.8)]


class TestStackedSampling:
    """Stacked estimators against the per-sample reference above, and the
    nested-count contract of the module header under operator blocking."""

    # m = 60 runs the dense kernel sums, m = 2 _FGT_MIN_M the fast transform;
    # 40 samples span three operator blocks.
    @pytest.mark.parametrize("m", [60, 2 * _FGT_MIN_M])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_matches_per_sample_reference(self, spec, m):
        inst = make_instance(6, 2, m, (2.0, 1.0), NoiseModel.gaussian(0.1),
                             seed=21)
        op, b, M = inst.op, inst.measurements, inst.truth.matrix
        k = 40
        pairs = [
            (estimate_zeta1(spec, op, b, M, k, 22, scale=2.0, rank=4),
             _ref_zeta1(spec, op, b, M, k, 22, 2.0, 4)),
            (estimate_zeta2(spec, op, b, M, k, 23, scale=2.0, rank=4),
             _ref_zeta2(spec, op, b, M, k, 23, 2.0, 4)),
            (estimate_rho(spec, op, b, k, 24, rank=2, scale=2.0),
             _ref_rho(spec, op, b, k, 24, 2, 2.0)),
            *zip(estimate_lambda12(spec, op, b, M, k, 25, rank=4),
                 _ref_lambda12(spec, op, b, M, k, 25, 4)),
            (estimate_rip(op, 4, k, 26).delta_hat, _ref_rip(op, 4, k, 26)),
        ]
        for got, ref in pairs:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec", SPECS[:2], ids=lambda s: s.kind)
    def test_exactly_monotone_in_sample_count(self, spec, inst):
        op, b, M = inst.op, inst.measurements, inst.truth.matrix
        counts = range(1, 2 * _OP_BLOCK + 2)
        runs = {
            "zeta1": [estimate_zeta1(spec, op, b, M, k, 40) for k in counts],
            "zeta2": [estimate_zeta2(spec, op, b, M, k, 41) for k in counts],
            "rho": [estimate_rho(spec, op, b, k, 42, scale=2.0)
                    for k in counts],
            "lambda1": [estimate_lambda12(spec, op, b, M, k, 43)[0]
                        for k in counts],
            "lambda2": [estimate_lambda12(spec, op, b, M, k, 43)[1]
                        for k in counts],
            "rip": [estimate_rip(op, 2, k, 44).delta_hat for k in counts],
        }
        for name, values in runs.items():
            assert all(a <= b for a, b in zip(values, values[1:])), name

    # Each estimator's count goes through model._draws, which checks it
    # before anything is drawn.
    @pytest.mark.parametrize("count", [True, 2.5, "3", 0])
    @pytest.mark.parametrize("name,estimate", [
        ("trials", lambda i, k: estimate_rip(i.op, 2, k, 0)),
        ("samples", lambda i, k: estimate_zeta1(
            LossSpec.mse(), i.op, i.measurements, i.truth.matrix, k, 0)),
        ("samples", lambda i, k: estimate_zeta2(
            LossSpec.mse(), i.op, i.measurements, i.truth.matrix, k, 0)),
        ("samples", lambda i, k: estimate_rho(
            LossSpec.mse(), i.op, i.measurements, k, 0)),
        ("samples", lambda i, k: estimate_lambda12(
            LossSpec.mse(), i.op, i.measurements, i.truth.matrix, k, 0)),
        ("samples", lambda i, k: estimate_constants(LossSpec.mse(), i, k, 0)),
    ], ids=["rip", "zeta1", "zeta2", "rho", "lambda12", "constants"])
    def test_count_must_be_a_positive_integer(self, inst, name, estimate,
                                              count):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            estimate(inst, count)
