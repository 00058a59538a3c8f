import json
import math

import pytest

from kernsense.bounds import (PEAK_EPS, PEAK_VAL, BoundInputs, HighDeltaInputs,
                              bandwidth_rule, combined_bound, compute_report,
                              delta_condition, general_loss_bound,
                              high_delta_b_coef, high_delta_order,
                              high_delta_upper, kernel_error_upper,
                              kernel_lambda_min_floor, lipschitz_lambda,
                              lower_bound, mse_error_upper,
                              mse_high_delta_upper, noise_sensitivity_orders,
                              turning_point)


class TestMseErrorUpper:
    def test_zero_noise(self):
        assert mse_error_upper(BoundInputs(delta=0.3, eps=0.0)) == 0.0

    def test_frozen_value(self):
        val = mse_error_upper(BoundInputs(delta=0.1, eps=0.5))
        assert val == pytest.approx(math.sqrt(1.1) * 0.5 / 0.1, rel=1e-14)
        assert abs(val - 5.244044) < 1e-6

    def test_linear_in_eps(self):
        slope = math.sqrt(1.1) / 0.1
        for e in (0.1, 0.4, 0.7):
            assert mse_error_upper(BoundInputs(delta=0.1, eps=e)) \
                == pytest.approx(slope * e, rel=1e-12)

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            mse_error_upper(BoundInputs(delta=0.0, eps=1.0))


class TestBoundInputs:
    @pytest.mark.parametrize("field,value", [
        ("h", math.nan), ("h", math.inf), ("h", 0.0),
        ("eps", math.nan), ("eps", math.inf), ("eps", -0.1),
        ("delta", math.nan)])
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError, match=field):
            BoundInputs(**{field: value})


class TestKernelLambdaMinFloor:
    def test_frozen_value(self):
        bi = BoundInputs(g_min=1.0, b_max=0.0, l1=2.0, l2=0.0, h=1.0)
        assert kernel_lambda_min_floor(bi) == 8.0

    def test_shape(self):
        base = BoundInputs(g_min=0.8, b_max=1.0, h=1.0)
        up = kernel_lambda_min_floor(base)
        assert kernel_lambda_min_floor(
            BoundInputs(g_min=0.8, b_max=1.0, h=1.0, l1=base.l1_eff * 2)) > up
        assert kernel_lambda_min_floor(
            BoundInputs(g_min=0.8, b_max=1.0, h=1.5)) < up

    def test_pipeline_positive(self):
        bi = BoundInputs(delta=0.2, g_min=0.9, b_max=0.4, h=1.0)
        v = kernel_lambda_min_floor(bi)
        assert math.isfinite(v) and v > 0


class TestKernelErrorUpper:
    def test_clamped_noise_term(self):
        bi = BoundInputs(delta=0.1, eps=0.7, h=1.0, lambda_min=2.0)
        assert kernel_error_upper(bi) == 1.0

    def test_zero_noise_constant_term(self):
        bi = BoundInputs(delta=0.1, eps=0.0, h=1.0, lambda_min=0.5)
        assert kernel_error_upper(bi) == pytest.approx(2.0)

    def test_noise_term_peak_at_inv_sqrt2(self):
        # With a small lambda_min the noise term dominates; the bare
        # R = eps exp(-eps^2)/h^2 is maximized at eps = 1/sqrt(2).
        def val(e):
            return kernel_error_upper(
                BoundInputs(delta=0.1, eps=e, h=0.2, lambda_min=0.05))
        peak = val(PEAK_EPS)
        assert peak > val(PEAK_EPS / 2) and peak > val(2 * PEAK_EPS)

    def test_requires_positive_lambda_min(self):
        with pytest.raises(ValueError):
            kernel_error_upper(BoundInputs(lambda_min=0.0))

    def test_constant_term_dominates_below_crossing(self):
        # For small eps the bound equals sqrt(2/lambda_min) exactly.
        bi = BoundInputs(delta=0.2, eps=1e-3, h=1.0, lambda_min=0.5)
        assert kernel_error_upper(bi) == pytest.approx(2.0)

    def test_regime_consistency_below_turning_point(self):
        # With these inputs the noise term stays below the constant term
        # everywhere left of the crossing eps_star, so the bound equals
        # sqrt(2/lambda_min) on that whole range.
        h, lam, delta = 0.5, 0.1, 0.1
        eps_star = turning_point(h).eps_star
        const_term = math.sqrt(2 / lam)
        for frac in (0.05, 0.3, 0.6, 0.95):
            bi = BoundInputs(delta=delta, eps=frac * eps_star, h=h,
                             lambda_min=lam)
            assert kernel_error_upper(bi) == const_term


class TestTurningPoint:
    def test_peak_constants(self):
        tp = turning_point(0.5)
        assert abs(tp.peak_eps - 1 / math.sqrt(2)) < 1e-15
        assert abs(tp.peak_val - math.exp(-0.5) / math.sqrt(2)) < 1e-15
        assert abs(tp.peak_val - 0.428882) < 1e-6

    def test_exact_peak_bandwidth(self):
        tp = turning_point(math.sqrt(PEAK_VAL))
        assert tp.eps_star == pytest.approx(PEAK_EPS, abs=1e-8)

    def test_bisection_residual(self):
        tp = turning_point(0.3)
        resid = tp.eps_star * math.exp(-tp.eps_star ** 2) - 0.09
        assert abs(resid) < 1e-10
        assert 0 < tp.eps_star <= PEAK_EPS

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -0.3])
    def test_rejects_invalid_h(self, h):
        # NaN passed the old h <= 0 test and gave eps_star 4.1e-11.
        with pytest.raises(ValueError, match="finite and > 0"):
            turning_point(h)


class TestLipschitzLambda:
    def test_mse_values(self):
        assert lipschitz_lambda("mse", BoundInputs(delta=0.0)) == 2.0
        assert lipschitz_lambda("mse", BoundInputs(delta=0.0, eps=9.0)) == 2.0

    def test_kernel_frozen(self):
        bi = BoundInputs(delta=0.0, eps=PEAK_EPS, h=1.0, c_extra=0.0)
        assert abs(lipschitz_lambda("kernel", bi) - 3.431053) < 1e-5

    def test_kernel_decays_to_additive_constant(self):
        bi = BoundInputs(delta=0.2, eps=10.0, h=1.0, c_extra=0.7)
        assert abs(lipschitz_lambda("kernel", bi) - 0.7) < 1e-8

    def test_crossing_is_computable(self):
        # kernel lambda exceeds the constant mse lambda near the peak and
        # falls below it for large eps: a finite crossing exists.
        bi_peak = BoundInputs(delta=0.0, eps=PEAK_EPS, h=0.8)
        assert lipschitz_lambda("kernel", bi_peak) > lipschitz_lambda(
            "mse", bi_peak)
        bi_far = BoundInputs(delta=0.0, eps=5.0, h=0.8)
        assert lipschitz_lambda("kernel", bi_far) < lipschitz_lambda(
            "mse", bi_far)


class TestDeltaCondition:
    def test_conservative_frozen(self):
        cond = delta_condition(BoundInputs(b_max=2 * math.sqrt(2), g_min=1.0),
                               "conservative")
        assert cond.value == pytest.approx(2 * math.sqrt(2) / math.sqrt(6) - 1,
                                           rel=1e-12)
        assert abs(cond.value - 0.154701) < 1e-6
        assert cond.feasible

    def test_conservative_one_third_round_trip(self):
        g_min = 1.0
        b = (4.0 / 3.0) * math.sqrt(2 * (g_min + 2.0))
        cond = delta_condition(BoundInputs(b_max=b, g_min=g_min), "conservative")
        assert abs(cond.value - 1.0 / 3.0) < 1e-10

    def test_noise_aware_zero_eps_limit(self):
        bi = BoundInputs(eps=0.0, h=1.2, g_scale=0.5, sigma_r=1.0)
        expected = math.sqrt(bi.h ** 4 * (2 - 0.5) / (8 * bi.h ** 2)) - 1
        assert delta_condition(bi, "noise_aware").value == pytest.approx(
            expected, rel=1e-12)

    def test_infeasible_flag(self):
        cond = delta_condition(BoundInputs(b_max=0.5, g_min=1.0), "conservative")
        assert cond.value < 0 and not cond.feasible

    def test_explicit_uses_bandwidth_rule_form(self):
        bi = BoundInputs(b_max=4.0, g_min=1.0, g_scale=0.0, l2=0.0, sigma_r=1.0)
        cond = delta_condition(bi, "explicit")
        expected = math.sqrt(16.0 / (4 * 3.0) * 2.0) - 1
        assert cond.value == pytest.approx(expected, rel=1e-12)

    def test_bandwidth_rule(self):
        assert bandwidth_rule(2.0, 2.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            bandwidth_rule(0.0, 1.0)


class TestHighDelta:
    def base(self, eps):
        return HighDeltaInputs(
            base=BoundInputs(delta=0.6, eps=eps, h=1.0, zeta1=1.0, zeta2=1.0,
                             l1=1.0 / 0.6),
            lambda_rstar=0.5, norm_q=1.0, gamma_min=1.0, u_min_sq=0.0)

    def test_b_coef_unit_construction(self):
        assert high_delta_b_coef(self.base(1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_quadratic_root(self):
        val = high_delta_upper(self.base(1.0))
        expected = (-0.6 + math.sqrt(0.36 + 3.2)) / 4.0
        assert val == pytest.approx(expected, rel=1e-12)
        assert abs(val - 0.321699) < 1e-6

    def test_zero_noise_gives_zero(self):
        assert high_delta_upper(self.base(0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_increasing_in_eps(self):
        vals = [high_delta_upper(self.base(e)) for e in (0.2, 0.5, 0.8, 1.1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_zeta2(self):
        hdi = HighDeltaInputs(
            base=BoundInputs(delta=0.6, eps=1.0, zeta1=1.0, zeta2=0.0),
            lambda_rstar=0.5, norm_q=1.0, gamma_min=1.0, u_min_sq=0.0)
        with pytest.raises(ValueError):
            high_delta_upper(hdi)

    def test_order_shape(self):
        assert high_delta_order(0.0) == 0.0
        assert high_delta_order(0.8) > high_delta_order(0.4)


class TestMseHighDelta:
    def test_frozen(self):
        assert mse_high_delta_upper(BoundInputs(eps=0.0)) == 0.0
        val = mse_high_delta_upper(BoundInputs(eps=0.5))
        assert val == pytest.approx(0.75 / math.sqrt(0.5), rel=1e-12)
        assert abs(val - 1.060660) < 1e-6

    def test_increasing(self):
        vals = [mse_high_delta_upper(BoundInputs(eps=e))
                for e in (0.1, 0.3, 0.6, 0.9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_eps_ge_one(self):
        with pytest.raises(ValueError):
            mse_high_delta_upper(BoundInputs(eps=1.0))


class TestLowerBound:
    def test_mse_frozen(self):
        bi = BoundInputs(delta=0.0, eps=1.0, l_smooth=4.0)
        assert lower_bound("mse", bi) == pytest.approx(2.0, rel=1e-12)

    def test_kernel_frozen(self):
        bi = BoundInputs(delta=0.0, eps=0.0, h=1.0, l_smooth=1.0)
        assert lower_bound("kernel", bi) == pytest.approx(2.0, rel=1e-12)

    def test_opposite_monotonicity_in_eps(self):
        for lo, hi in ((0.2, 0.5), (0.5, 1.0)):
            mse_lo = lower_bound("mse", BoundInputs(delta=0.1, eps=lo, l_smooth=4.0))
            mse_hi = lower_bound("mse", BoundInputs(delta=0.1, eps=hi, l_smooth=4.0))
            ker_lo = lower_bound("kernel", BoundInputs(delta=0.1, eps=lo,
                                                       h=1.0, l_smooth=2.0))
            ker_hi = lower_bound("kernel", BoundInputs(delta=0.1, eps=hi,
                                                       h=1.0, l_smooth=2.0))
            assert mse_hi > mse_lo
            assert ker_hi < ker_lo

    def test_mse_precondition_named(self):
        with pytest.raises(ValueError, match="2\\(1 \\+ delta\\)"):
            lower_bound("mse", BoundInputs(delta=0.5, eps=1.0, l_smooth=2.0))


class TestCombinedBound:
    def test_zero_case(self):
        assert combined_bound(0.0, 1.0, BoundInputs(delta=0.0, eps=0.0,
                                                    n_meas=5)) == 0.0

    def test_frozen(self):
        assert combined_bound(1.0, 1.0, BoundInputs(delta=0.0, eps=0.0,
                                                    n_meas=10)) == 1.0

    def test_delta_prefactor(self):
        lo = combined_bound(1.0, 1.0, BoundInputs(delta=0.0, eps=0.0, n_meas=10))
        hi = combined_bound(1.0, 1.0, BoundInputs(delta=0.75, eps=0.0, n_meas=10))
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_rejects_zero_mix(self):
        with pytest.raises(ValueError):
            combined_bound(1.0, 0.0, BoundInputs())


class TestGeneralLossBound:
    def test_frozen(self):
        bi = BoundInputs(delta=0.0, eps=0.3, zeta1=1.0, zeta2=0.0)
        assert general_loss_bound(bi) == pytest.approx(0.6, rel=1e-12)

    def test_zero_noise(self):
        assert general_loss_bound(BoundInputs(delta=0.2, eps=0.0)) == 0.0

    def test_regime_rejected(self):
        with pytest.raises(ValueError):
            general_loss_bound(BoundInputs(delta=0.34, eps=0.0))


class TestNoiseSensitivityOrders:
    def test_zero(self):
        assert noise_sensitivity_orders("mse", 0.0, 1.0, 5) == 0.0
        assert noise_sensitivity_orders("kernel", 0.0, 1.0, 5) == 0.0

    def test_kernel_frozen(self):
        v = noise_sensitivity_orders("kernel", 1.0, 1.0, 10)
        assert abs(v - 0.0367879) < 1e-6

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0])
    def test_kernel_rejects_invalid_h(self, h):
        with pytest.raises(ValueError, match="finite and > 0"):
            noise_sensitivity_orders("kernel", 0.5, h, 10)

    def test_ratio_independent_of_m(self):
        for m in (3, 17, 400):
            k = noise_sensitivity_orders("kernel", 0.8, 0.9, m)
            s = noise_sensitivity_orders("mse", 0.8, 0.9, m)
            assert k / s == pytest.approx(math.exp(-(0.8 / 0.9) ** 2) / 0.81,
                                          rel=1e-12)


class TestReport:
    def test_all_rows_from_one_input(self):
        bi = BoundInputs(delta=0.2, eps=0.5, h=1.0, lambda_min=1.5, b_max=1.0,
                         g_min=0.9, l_smooth=5.0, n_meas=100, sigma_r=1.0)
        rep = compute_report(bi, l_star=0.3, lambda_mix=0.5, rho=2.0, rank=2)
        table = rep.render_comparison()
        assert len(table.splitlines()) == 7  # header + six property rows
        for key in ("noise_sensitivity_kernel", "mse_error_upper",
                    "lipschitz_lambda_mse", "lower_bound_kernel",
                    "step_size_kernel", "combined_bound"):
            assert math.isfinite(rep.values[key])

    def test_precondition_reported_not_raised(self):
        rep = compute_report(BoundInputs(delta=0.0, eps=0.5, h=1.0))
        assert "mse_error_upper" in rep.errors
        assert "lower_bound_mse" in rep.errors

    def test_json(self):
        bi = BoundInputs(delta=0.2, eps=0.5, h=1.0, lambda_min=1.5,
                         b_max=1.0, l_smooth=5.0)
        rep = compute_report(bi)
        doc = json.loads(rep.to_json())
        assert doc["inputs"]["delta"] == 0.2

    def test_turning_point_delegation(self):
        rep = compute_report(BoundInputs(delta=0.2, eps=0.5, h=0.3,
                                         lambda_min=1.0, b_max=1.0))
        tp = turning_point(0.3)
        assert rep.values["turning_point_eps_star"] == tp.eps_star
