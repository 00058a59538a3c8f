# Closed-form bound calculators.
#
# Several of the underlying results hold only up to an order constant; every
# such calculator here uses implied constant 1 and its output should be read
# as an order bound: good for trend comparison (monotonicity, crossings,
# flatness), not a certified envelope.  Exponents are kept exactly as the
# formulas state them.

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

from .losses import LossSpec
from .optimize import ConvergenceBoundInputs, step_size_bound

__all__ = [
    "PEAK_EPS",
    "PEAK_VAL",
    "BoundInputs",
    "HighDeltaInputs",
    "TurningPoint",
    "DeltaCondition",
    "mse_error_upper",
    "kernel_lambda_min_floor",
    "kernel_error_upper",
    "turning_point",
    "lipschitz_lambda",
    "delta_condition",
    "bandwidth_rule",
    "high_delta_b_coef",
    "high_delta_upper",
    "high_delta_order",
    "mse_high_delta_upper",
    "lower_bound",
    "combined_bound",
    "general_loss_bound",
    "noise_sensitivity_orders",
    "BoundReport",
    "compute_report",
]

PEAK_EPS = 1.0 / math.sqrt(2.0)
PEAK_VAL = PEAK_EPS * math.exp(-0.5)


def _check_finite(**values) -> None:
    """Raise ValueError naming the first value (None skipped) that is NaN
    or infinite: every formula here would carry it into its result."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs shared by the calculators.

    delta: restricted-isometry constant; eps: noise norm bound; h: kernel
    bandwidth; zeta1/zeta2: noise coupling constants; g_min/b_max: residual
    constants; l1/l2: gradient/Hessian difference bounds (l1 defaults to
    2(1+delta), l2 to 0 for linear sensing); sigma_r: smallest nonzero
    eigenvalue of the ground truth; g_scale: residual-gradient scale G
    (-sigma_min of the gradient at a minimizer); l_smooth: generic
    smoothness constant for the lower bounds; lambda_min: Hessian floor;
    c_extra: additive constant in the kernel continuity bound; n_meas:
    measurement count.  Every float given must be finite.
    """

    delta: float = 0.0
    eps: float = 0.0
    h: float = 1.0
    zeta1: float = 1.0
    zeta2: float = 0.0
    g_min: float = 1.0
    b_max: float = 0.0
    l1: Optional[float] = None
    l2: float = 0.0
    sigma_r: float = 1.0
    g_scale: float = 0.0
    l_smooth: float = 0.0
    lambda_min: float = 0.0
    c_extra: float = 0.0
    n_meas: int = 1

    def __post_init__(self):
        _check_finite(**{f.name: getattr(self, f.name) for f in fields(self)
                         if f.type != "int"})
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if not self.eps >= 0:
            raise ValueError("eps must be finite and >= 0")
        if not self.h > 0:
            raise ValueError("h must be finite and > 0")
        if not self.n_meas >= 1:
            raise ValueError(f"n_meas must be >= 1, got {self.n_meas}")

    @property
    def l1_eff(self) -> float:
        return self.l1 if self.l1 is not None else 2.0 * (1.0 + self.delta)


@dataclass(frozen=True)
class HighDeltaInputs:
    """Extra spectral quantities for the above-one-half isometry regime.

    norm_q is ||X^ U^T + U X^^T|| for an (unspecified in the source)
    direction U; by default callers estimate it with a random unit-Frobenius
    U, and the report flags it as estimated.
    """

    base: BoundInputs
    lambda_rstar: float
    norm_q: float
    gamma_min: float
    u_min_sq: float

    def __post_init__(self):
        _check_finite(lambda_rstar=self.lambda_rstar, norm_q=self.norm_q,
                      gamma_min=self.gamma_min, u_min_sq=self.u_min_sq)
        for name in ("lambda_rstar", "norm_q", "gamma_min"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.u_min_sq < 0:
            raise ValueError("u_min_sq must be >= 0")


# ---------------------------------------------------------------------------
# Calculators
# ---------------------------------------------------------------------------

def mse_error_upper(bi: BoundInputs) -> float:
    """sqrt(1 + delta) * eps / delta; linear in the noise bound."""
    if bi.delta <= 0:
        raise ValueError("mse_error_upper needs delta > 0 (formula is singular)")
    return math.sqrt(1.0 + bi.delta) * bi.eps / bi.delta


def kernel_lambda_min_floor(bi: BoundInputs) -> float:
    """Curvature floor at the ground truth for the kernel loss:

    c = 2/(G_min h^2) (L1^2 (1 + 2B^2/h^2) + B L2) + 4 B^2 L1^2/(G_min^2 h^4).
    """
    if bi.g_min <= 0:
        raise ValueError("g_min must be > 0")
    l1, l2, b, h, g = bi.l1_eff, bi.l2, bi.b_max, bi.h, bi.g_min
    return (2.0 / (g * h * h)) * (l1 * l1 * (1.0 + 2.0 * b * b / (h * h)) + b * l2) \
        + (4.0 / (g * g * h ** 4)) * b * b * l1 * l1


def kernel_error_upper(bi: BoundInputs) -> float:
    """max( sqrt(2/lambda_min), 2(1+delta) R / (1 - delta - lambda_min) )

    with R = eps * exp(-eps^2) / h^2 (bare exponent).  The noise term is
    clamped to zero when its denominator is not positive.
    """
    if bi.lambda_min <= 0:
        raise ValueError("kernel_error_upper needs lambda_min > 0")
    r_w = bi.eps * math.exp(-(bi.eps ** 2)) / (bi.h ** 2)
    denom = 1.0 - bi.delta - bi.lambda_min
    term2 = 2.0 * (1.0 + bi.delta) * r_w / denom if denom > 0 else 0.0
    return max(math.sqrt(2.0 / bi.lambda_min), term2)


class TurningPoint(NamedTuple):
    eps_star: Optional[float]
    peak_eps: float
    peak_val: float


def turning_point(h: float) -> TurningPoint:
    """Smallest eps with eps * exp(-eps^2) = h^2, if one exists.

    The map eps -> eps e^{-eps^2} increases up to its maximum
    (1/sqrt(2)) e^{-1/2} at eps = 1/sqrt(2); beyond that value of h^2 there
    is no crossing and eps_star is None.  Root by bisection to 1e-10.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("h must be finite and > 0")
    target = h * h
    if target > PEAK_VAL:
        return TurningPoint(None, PEAK_EPS, PEAK_VAL)
    # The map is flat at its maximum, so bisection noise near the peak is
    # unavoidable; snap targets within a few ulps of the peak to the peak.
    if target >= PEAK_VAL * (1.0 - 1e-12):
        return TurningPoint(PEAK_EPS, PEAK_EPS, PEAK_VAL)

    def f(x):
        return x * math.exp(-x * x) - target

    lo, hi = 0.0, PEAK_EPS
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return TurningPoint(0.5 * (lo + hi), PEAK_EPS, PEAK_VAL)


def lipschitz_lambda(kind: str, bi: BoundInputs) -> float:
    """Gradient-vs-noise Lipschitz scale.

    kernel: 8(1+delta) eps e^{-eps^2} / h^4 + C; mse: 2 sqrt(1+delta),
    independent of the noise level.
    """
    if kind == "mse":
        return 2.0 * math.sqrt(1.0 + bi.delta)
    if kind == "kernel":
        return 8.0 * (1.0 + bi.delta) * bi.eps * math.exp(-bi.eps ** 2) \
            / bi.h ** 4 + bi.c_extra
    raise ValueError(f"unknown kind {kind!r}")


class DeltaCondition(NamedTuple):
    value: float
    feasible: bool


def bandwidth_rule(b_max: float, g_min: float) -> float:
    """Recommended bandwidth h = sqrt(2) B / sqrt(G_min)."""
    if b_max <= 0 or g_min <= 0:
        raise ValueError("b_max and g_min must be > 0")
    return math.sqrt(2.0) * b_max / math.sqrt(g_min)


def delta_condition(bi: BoundInputs, mode: str = "conservative") -> DeltaCondition:
    """Admissible-isometry threshold for spurious minima to vanish.

    explicit      sqrt( B^2/(4(G_min+2)) (2 - G/sigma_r - L2/B) ) - 1,
                  at the recommended bandwidth sqrt(2) B / sqrt(G_min);
    conservative  B / sqrt(2 (G_min + 2)) - 1;
    noise_aware   the bandwidth-explicit form with the residual bound
                  replaced by the noise bound eps.

    A negative (or undefined, reported as nan) value means no admissible
    delta exists; the raw value is returned with feasible=False rather than
    clamped, since the sign is informative.
    """
    if mode == "conservative":
        if bi.b_max <= 0:
            raise ValueError("conservative mode needs b_max > 0")
        val = bi.b_max / math.sqrt(2.0 * (bi.g_min + 2.0)) - 1.0
    elif mode == "explicit":
        if bi.b_max <= 0:
            raise ValueError("explicit mode needs b_max > 0")
        if bi.sigma_r <= 0:
            raise ValueError("explicit mode needs sigma_r > 0")
        inner = 2.0 - bi.g_scale / bi.sigma_r - bi.l2 / bi.b_max
        rad = bi.b_max ** 2 / (4.0 * (bi.g_min + 2.0)) * inner
        val = math.sqrt(rad) - 1.0 if rad >= 0 else float("nan")
    elif mode == "noise_aware":
        if bi.sigma_r <= 0:
            raise ValueError("noise_aware mode needs sigma_r > 0")
        # h^4 (2 - G/sigma_r - 2 eps L2 e / h^2) / (8 e (h^2 + 2 eps^2 (1 + e)))
        # at e = exp(eps^2/h^2), both sides divided by e^2 so that a small
        # h cannot overflow: q = 1/e lies in [0, 1].
        h2, e2 = bi.h ** 2, bi.eps ** 2
        q = math.exp(-e2 / h2)
        num = h2 * q * (h2 * (2.0 - bi.g_scale / bi.sigma_r) * q
                        - 2.0 * bi.eps * bi.l2)
        den = 8.0 * q * (h2 + 2.0 * e2) + 16.0 * e2
        ratio = num / den
        val = math.sqrt(ratio) - 1.0 if ratio >= 0 else float("nan")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return DeltaCondition(val, bool(val > 0.0) if math.isfinite(val) else False)


def high_delta_b_coef(hdi: HighDeltaInputs) -> float:
    """Quadratic coefficient for the above-one-half regime:

    sqrt(2 lambda_{r*}) / ||Q|| * [ L1^2 d^2 e^{-2u^2/h^2} / (h^4 G^2)
                                    + L2 d e^{-u^2/h^2} / (h^2 G) ].
    """
    bi = hdi.base
    l1, l2, d, h, g = bi.l1_eff, bi.l2, bi.delta, bi.h, hdi.gamma_min
    u2 = hdi.u_min_sq
    return math.sqrt(2.0 * hdi.lambda_rstar) / hdi.norm_q * (
        l1 * l1 * d * d / (h ** 4 * g * g) * math.exp(-2.0 * u2 / h ** 2)
        + l2 * d / (h ** 2 * g) * math.exp(-u2 / h ** 2))


def high_delta_upper(hdi: HighDeltaInputs) -> float:
    """Positive root of the error quadratic in the high-isometry regime:

    ( -[z1(1+d) - B e^2 z2] + sqrt([z1(1+d) - B e^2 z2]^2
                                   + 8 B e^2 z1 z2 (1-d)) ) / (4 z2).
    """
    bi = hdi.base
    if bi.zeta2 <= 0:
        raise ValueError("high_delta_upper needs zeta2 > 0; with zeta2 = 0 "
                         "use mse_error_upper / general_loss_bound instead")
    bcoef = high_delta_b_coef(hdi)
    be2 = bcoef * bi.eps ** 2
    a = bi.zeta1 * (1.0 + bi.delta) - be2 * bi.zeta2
    disc = a * a + 8.0 * be2 * bi.zeta1 * bi.zeta2 * (1.0 - bi.delta)
    return (-a + math.sqrt(disc)) / (4.0 * bi.zeta2)


def high_delta_order(eps: float) -> float:
    """Order-level shape of the high-isometry bound at unit coefficient B:
    -(1 - eps^2) + sqrt((1 - eps^2)^2 + eps^2)."""
    e2 = eps * eps
    a = 1.0 - e2
    return -a + math.sqrt(a * a + e2)


def mse_high_delta_upper(bi: BoundInputs) -> float:
    """eps (1 + eps) / sqrt(1 - eps); requires eps < 1."""
    if bi.eps >= 1.0:
        raise ValueError("mse_high_delta_upper needs eps < 1")
    return bi.eps * (1.0 + bi.eps) / math.sqrt(1.0 - bi.eps)


def lower_bound(kind: str, bi: BoundInputs) -> float:
    """Error floor below which only exact recovery is possible.

    mse:    4 sqrt(1+delta) eps / (L - 2(1+delta)), requires L > 2(1+delta);
    kernel: 2 L (1+delta) e^{-eps^2} / ((1-delta) h^2).
    """
    if kind == "mse":
        gap = bi.l_smooth - 2.0 * (1.0 + bi.delta)
        if gap <= 0:
            raise ValueError("mse lower bound needs L > 2(1 + delta)")
        return 4.0 * math.sqrt(1.0 + bi.delta) * bi.eps / gap
    if kind == "kernel":
        return 2.0 * bi.l_smooth * (1.0 + bi.delta) * math.exp(-bi.eps ** 2) \
            / ((1.0 - bi.delta) * bi.h ** 2)
    raise ValueError(f"unknown kind {kind!r}")


def combined_bound(l_star: float, lambda_mix: float, bi: BoundInputs) -> float:
    """(1/sqrt(1-delta)) sqrt(L*/lambda + eps^2/m) for the mixed loss."""
    if l_star < 0:
        raise ValueError("l_star must be >= 0")
    if not 0.0 < lambda_mix <= 1.0:
        raise ValueError("lambda_mix must lie in (0, 1]")
    return math.sqrt(l_star / lambda_mix + bi.eps ** 2 / bi.n_meas) \
        / math.sqrt(1.0 - bi.delta)


def general_loss_bound(bi: BoundInputs) -> float:
    """2 zeta1 eps / (1 - 3(delta + zeta2 eps)); the small-isometry regime."""
    s = bi.delta + bi.zeta2 * bi.eps
    if s >= 1.0 / 3.0:
        raise ValueError("general_loss_bound needs delta + zeta2*eps < 1/3")
    return 2.0 * bi.zeta1 * bi.eps / (1.0 - 3.0 * s)


def noise_sensitivity_orders(kind: str, eps: float, h: float, m: int) -> float:
    """Gradient-vs-noise magnitude orders: eps/m (mse) or
    eps e^{-eps^2/h^2} / (m h^2) (kernel)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if kind == "mse":
        return eps / m
    if kind == "kernel":
        if not (h > 0 and math.isfinite(h)):
            raise ValueError("h must be finite and > 0 for the kernel order")
        return eps * math.exp(-(eps ** 2) / (h ** 2)) / (m * h * h)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """All calculator outputs for one set of inputs.

    values maps calculator name to a float; errors maps name to the
    precondition message for calculators that rejected the inputs.
    """

    inputs: BoundInputs
    values: dict
    errors: dict
    flags: dict

    def to_json(self) -> str:
        doc = {
            "inputs": {f.name: getattr(self.inputs, f.name)
                       for f in fields(self.inputs) if f.name != "l1"},
            "l1": self.inputs.l1_eff,
            "values": self.values,
            "errors": self.errors,
            "flags": self.flags,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render_comparison(self) -> str:
        """Two-column comparison of the kernel and MSE rows."""
        rows = [
            ("loss behavior (grad vs noise)",
             self.values.get("noise_sensitivity_kernel"),
             self.values.get("noise_sensitivity_mse")),
            ("optimization landscape",
             self.values.get("kernel_error_upper"),
             self.values.get("mse_error_upper")),
            ("continuity constant",
             self.values.get("lipschitz_lambda_kernel"),
             self.values.get("lipschitz_lambda_mse")),
            ("high-delta upper bound",
             self.values.get("high_delta_upper",
                             self.values.get("high_delta_order")),
             self.values.get("mse_high_delta_upper")),
            ("lower bound",
             self.values.get("lower_bound_kernel"),
             self.values.get("lower_bound_mse")),
            ("step-size rule",
             self.values.get("step_size_kernel"),
             self.values.get("step_size_mse")),
        ]
        out = [f"{'property':34s}  {'kernel':>14s}  {'mse':>14s}"]
        for name, k, m in rows:
            ks = f"{k:.6g}" if isinstance(k, float) else "-"
            ms = f"{m:.6g}" if isinstance(m, float) else "-"
            out.append(f"{name:34s}  {ks:>14s}  {ms:>14s}")
        return "\n".join(out)


def compute_report(bi: BoundInputs, hdi: Optional[HighDeltaInputs] = None,
                   l_star: float = 0.0, lambda_mix: float = 1.0,
                   rho: float = 1.0, rank: int = 1) -> BoundReport:
    """Evaluate every calculator, recording per-calculator precondition
    failures instead of aborting the report; a non-finite l_star,
    lambda_mix or rho raises ValueError (BoundInputs and HighDeltaInputs
    reject theirs)."""
    _check_finite(l_star=l_star, lambda_mix=lambda_mix, rho=rho)
    values, errors, flags = {}, {}, {}

    def attempt(name, fn):
        try:
            values[name] = float(fn())
        except ValueError as exc:
            errors[name] = str(exc)

    attempt("mse_error_upper", lambda: mse_error_upper(bi))
    attempt("kernel_lambda_min_floor", lambda: kernel_lambda_min_floor(bi))
    attempt("kernel_error_upper", lambda: kernel_error_upper(bi))
    tp = turning_point(bi.h)
    values["turning_point_eps_star"] = (float("nan") if tp.eps_star is None
                                        else tp.eps_star)
    values["turning_point_peak_eps"] = tp.peak_eps
    values["turning_point_peak_val"] = tp.peak_val
    if tp.eps_star is None:
        flags["turning_point"] = "no crossing: h^2 above the peak value"
    attempt("lipschitz_lambda_kernel", lambda: lipschitz_lambda("kernel", bi))
    attempt("lipschitz_lambda_mse", lambda: lipschitz_lambda("mse", bi))
    for mode in ("explicit", "conservative", "noise_aware"):
        name = f"delta_condition_{mode}"
        try:
            cond = delta_condition(bi, mode)
            values[name] = cond.value
            if not cond.feasible:
                flags[name] = "infeasible (no admissible delta)"
        except ValueError as exc:
            errors[name] = str(exc)
    if hdi is not None:
        attempt("high_delta_upper", lambda: high_delta_upper(hdi))
    else:
        values["high_delta_order"] = high_delta_order(bi.eps)
        flags["high_delta_order"] = "unit-coefficient order shape (no spectral inputs)"
    attempt("mse_high_delta_upper", lambda: mse_high_delta_upper(bi))
    attempt("lower_bound_mse", lambda: lower_bound("mse", bi))
    attempt("lower_bound_kernel", lambda: lower_bound("kernel", bi))
    attempt("combined_bound", lambda: combined_bound(l_star, lambda_mix, bi))
    attempt("general_loss_bound", lambda: general_loss_bound(bi))
    values["noise_sensitivity_kernel"] = noise_sensitivity_orders(
        "kernel", bi.eps, bi.h, bi.n_meas)
    values["noise_sensitivity_mse"] = noise_sensitivity_orders(
        "mse", bi.eps, bi.h, bi.n_meas)

    def steps():
        ci = ConvergenceBoundInputs(rho=rho, rank=rank, delta=bi.delta,
                                    zeta2=bi.zeta2, eps=bi.eps)
        values["step_size_mse"] = step_size_bound(LossSpec.mse(), ci)
        values["step_size_kernel"] = step_size_bound(LossSpec.kernel(bi.h), ci)
        return values["step_size_mse"]
    attempt("step_size_mse", steps)

    return BoundReport(inputs=bi, values=values, errors=errors, flags=flags)
