import math

import numpy as np
import pytest

from kernsense.empirics import (ConstantEstimates, estimate_constants,
                                estimate_lambda12, estimate_rho,
                                estimate_zeta1, estimate_zeta2,
                                finite_diff_check, residual_constants)
from kernsense.losses import LossSpec, grad_X
from kernsense.model import (NoiseModel, estimate_rip, make_instance,
                             orthonormal_basis_operator)


@pytest.fixture(scope="module")
def inst():
    return make_instance(6, 2, 60, (2.0, 1.0), NoiseModel.gaussian(0.1), seed=11)


class TestZeta1:
    def test_mse_respects_analytic_cap(self, inst):
        # Gradient difference for the sum-normalized square loss is exactly
        # 2 A*(w), so the sampled sup cannot exceed 2 sqrt(1+delta) for the
        # true constant; allow 5% on top of the sampled delta.
        delta = estimate_rip(inst.op, 4, 200, seed=1).delta_hat
        z1 = estimate_zeta1(LossSpec.mse(), inst.op, inst.measurements,
                            inst.truth.matrix, samples=500, seed=2)
        assert 0.0 < z1 <= 2.0 * math.sqrt(1.0 + delta) * 1.05

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
    def test_orthonormal_basis_exact_two(self):
        op = orthonormal_basis_operator(4)
        rho = estimate_rho(LossSpec.mse(), op, np.zeros(16), samples=30, seed=9)
        assert abs(rho - 2.0) < 1e-9

    def test_degenerate_pairs_rejected(self, inst):
        with pytest.raises(ValueError):
            estimate_rho(LossSpec.mse(), inst.op, inst.measurements,
                         samples=5, seed=10, gap_range=(0.0, 0.0))

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

    def test_mutated_gradient_fails(self, inst):
        X = np.random.default_rng(19).standard_normal((6, 2))
        rep = finite_diff_check(
            LossSpec.mse(), inst.op, inst.measurements, X, tol=1e-6,
            grad_fn=lambda s, o, b, x: -grad_X(s, o, b, x))
        assert not rep.passed


class TestConstantEstimates:
    def test_bundle_and_json_round_trip(self, inst):
        est = estimate_constants(LossSpec.mse(), inst, samples=30, seed=20)
        assert est.l2 == 0.0
        assert est.l1 >= 2.0
        text = est.to_json()
        back = ConstantEstimates.from_json(text)
        assert back == est
        import json
        keys = set(json.loads(text))
        assert keys == {"zeta1", "zeta2", "rho", "lambda1", "lambda2",
                        "g_min", "b_max", "l1", "l2", "samples", "seed"}
