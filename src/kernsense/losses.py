# Loss values and derivatives for the three data-fidelity terms:
#
#   mse       0.5 * sum(r_i^2)            (mse_norm="half_sum")
#             (1/m) * sum(r_i^2)          (mse_norm="mean")
#   kernel    (1/m) sum_i -log( (1/m) sum_j exp(-(r_j - r_i)^2 / h^2) )
#   combined  lam * (1/m) sum(r_i^2) + (1 - lam) * kernel
#
# with residuals r_i = b_i - A(X X^T)_i.  The kernel term is the negative
# log of a kernel density estimate over pairwise residual differences; it
# is translation invariant (r -> r + c leaves it unchanged) and vanishes
# iff all residuals are equal.
#
# Gradients are exact derivatives of the implemented values and are
# validated against central finite differences; transcription quirks of
# published closed forms are deliberately not trusted.
#
# The kernel term has two evaluation paths, chosen by the residual count m
# alone.  Below _FGT_MIN_M residuals, dense m x m tables of pairwise
# differences and weights (O(m^2) time and memory) are the faster path, and
# they are the reference the tests hold the other path to.  From
# _FGT_MIN_M on, a box-wise fast Gauss transform (_kernel_fgt; Greengard &
# Strain 1991) evaluates the same sums in O(m p): boxes of width h/2,
# p = _FGT_TERMS = 24 Taylor terms per expansion, and pairs more than
# _FGT_REACH = 6 bandwidths apart dropped (each such weight is below
# exp(-36) = 2.3e-16).  The threshold is the measured crossover: on a
# 2-vCPU Xeon the fast path wins from m = 300 on normal and student-t
# residuals at h = 0.5 and 1 (about 0.5 ms per value and gradient), and at
# m = 4000 it takes ~2 ms where the dense path takes ~200 ms and 256 MB.
# Its accuracy contract, enforced by property tests against the dense
# path: relative error <= 1e-12 on the value and <= 1e-10 on the gradient
# norm, |sum(g)| < 1e-10, and translation invariance to 1e-12.  The exact
# zeros at constant residuals and the exponentially small gradients of
# widely spread, nearly flat residuals (criterion 3 checks norms down to
# 1e-111) are dense-path properties.  On the fast path the sums carry
# rounding noise of ~1e-16 relative to their largest terms, and clusters
# farther apart than the reach do not interact at all: criterion 3's
# pattern at spread 4h and 8h gives a gradient of exactly zero.
#
# One convention wart, kept on purpose: curvature-style quantities for the
# MSE (hessian_quadratic_form, the analytic Hessian-vector product, and the
# constant estimators built on them) use the sum-normalized square loss
# sum(r_i^2), whose Hessian is 2 A*A.  That is the normalization under
# which the standard landscape facts hold (smallest eigenvalue 2(1-delta),
# gradient-Lipschitz constant 2(1+delta)) and it is independent of
# mse_norm.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import SensingOperator, apply_op, adjoint_op

__all__ = [
    "MSE", "KERNEL", "COMBINED",
    "LossSpec",
    "residuals",
    "loss_value",
    "kernel_grad_residual",
    "weighted_residual_mean",
    "grad_residual",
    "loss_and_grad_residual",
    "grad_M", "grad_X", "grad_w",
    "hessian_quadratic_form",
    "hessian_vector_product",
    "lambda_min_hessian",
    "LambdaMinResult",
]

MSE = "mse"
KERNEL = "kernel"
COMBINED = "combined"

_EPS = np.finfo(float).eps

# Fast kernel path (see _kernel_fgt): residual count from which it replaces
# the dense tables, pairs dropped beyond _FGT_REACH * h, and Taylor terms
# per box expansion.
_FGT_MIN_M = 300
_FGT_REACH = 6.0
_FGT_TERMS = 24
# Boxes are h/2 wide: pairs within _FGT_REACH * h lie at most this many
# boxes apart.
_FGT_REACH_BOXES = int(2 * _FGT_REACH) + 1


@dataclass(frozen=True)
class LossSpec:
    """Tagged loss choice plus its parameters.

    h is the kernel bandwidth (kernel/combined), lambda_mix the combined
    mixing weight in [0, 1], mse_norm selects the MSE normalization.
    """

    kind: str
    h: Optional[float] = None
    lambda_mix: Optional[float] = None
    mse_norm: str = "half_sum"

    def __post_init__(self):
        if self.kind not in (MSE, KERNEL, COMBINED):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind in (KERNEL, COMBINED):
            if self.h is None or not (self.h > 0 and math.isfinite(self.h)):
                raise ValueError("kernel bandwidth h must be finite and > 0")
        if self.kind == COMBINED:
            # NaN fails both comparisons, so it is rejected here too.
            if self.lambda_mix is None or not 0.0 <= self.lambda_mix <= 1.0:
                raise ValueError("lambda_mix must lie in [0, 1]")
        if self.mse_norm not in ("half_sum", "mean"):
            raise ValueError(f"unknown mse_norm {self.mse_norm!r}")

    @classmethod
    def mse(cls, mse_norm: str = "half_sum") -> "LossSpec":
        return cls(MSE, mse_norm=mse_norm)

    @classmethod
    def kernel(cls, h: float) -> "LossSpec":
        return cls(KERNEL, h=float(h))

    @classmethod
    def combined(cls, lambda_mix: float, h: float) -> "LossSpec":
        return cls(COMBINED, h=float(h), lambda_mix=float(lambda_mix))


def residuals(op: SensingOperator, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """r = b - A(X X^T)."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != op.n:
        raise ValueError(f"X must be {op.n} x r, got {X.shape}")
    b = np.asarray(b)
    if b.shape != (op.m,):
        raise ValueError(f"b must have length {op.m}, got {b.shape}")
    M = X @ X.T
    return b - apply_op(op, 0.5 * (M + M.T))


# ---------------------------------------------------------------------------
# Values and residual-space gradients
# ---------------------------------------------------------------------------

def _kernel_tables(r: np.ndarray, h: float):
    """Pairwise differences d_ij = r_j - r_i, weights E_ij = exp(-d_ij^2/h^2),
    and row means Z_i: the small-m path and the fast path's reference.
    In-place where possible, since the m x m buffers dominate its cost."""
    d = np.subtract(r[None, :], r[:, None])
    e = np.square(d)
    e *= -1.0 / (h * h)
    np.exp(e, out=e)
    z = e.mean(axis=1)                   # z_i >= 1/m since E_ii = 1
    return d, e, z


def _kernel_grad(r: np.ndarray, h: float, tables=None) -> np.ndarray:
    # Weighted sums of pairwise *differences*, never of raw residuals:
    # equal residuals contribute exact zeros, so nearly-flat configurations
    # (spread far beyond h) keep their exponentially small gradients instead
    # of drowning in cancellation noise.  Consumes the weight table in
    # place; callers passing tables must not reuse them afterwards.
    m = r.size
    d, e, z = tables if tables is not None else _kernel_tables(r, h)
    wd = e
    wd /= z[:, None]                     # W_ij = E_ij / Z_i
    wd *= d                              # W_ij * (r_j - r_i)
    scale = 2.0 / (m * m * h * h)
    return scale * (wd.sum(axis=0) - wd.sum(axis=1))


@functools.cache
def _fgt_translations() -> np.ndarray:
    """Translation matrices of the fast kernel path, one per box offset k.

    For boxes of width h/2, a source at box-centred offset s (in box
    widths) and a target at offset t in a box k boxes away lie
    y = (k + s - t)/2 bandwidths apart.  exp(-y^2) and y exp(-y^2) are
    expanded in u = s - t around y0 = k/2 with the Hermite recursion
    c_(n+1) = -(y0 c_n + c_(n-1)/2)/(n+1), and (s - t)^n binomially, up to
    total degree p - 1 (p = _FGT_TERMS).  Row (k + _FGT_REACH_BOXES) p + a
    holds the coefficients of s^a t^b, for exp(-y^2) in column b and for
    y exp(-y^2) in column p + b.  Built on first use, not at import.
    """
    p = _FGT_TERMS
    y0 = 0.5 * np.arange(-_FGT_REACH_BOXES, _FGT_REACH_BOXES + 1)
    c = np.zeros((y0.size, p + 1))            # column n + 1 holds c_n
    c[:, 1] = np.exp(-y0 * y0)
    for n in range(p - 1):
        c[:, n + 2] = -(y0 * c[:, n + 1] + 0.5 * c[:, n]) / (n + 1)
    d = y0[:, None] * c[:, 1:] + 0.5 * c[:, :-1]   # coefficients of y exp(-y^2)
    a, b = np.indices((p, p))
    deg = np.minimum(a + b, p - 1)
    pascal = np.array([[math.comb(i + j, i) if i + j < p else 0
                        for j in range(p)] for i in range(p)], dtype=float)
    mix = pascal * (-1.0) ** b
    tr = np.concatenate([c[:, 1:][:, deg] * mix, d[:, deg] * mix], axis=2)
    tr = tr.reshape(-1, 2 * p)
    tr.flags.writeable = False           # shared by every caller
    return tr


def _kernel_fgt(r: np.ndarray, h: float, grad: bool = True):
    """Kernel value and (if grad) residual gradient in O(m), by a box-wise
    fast Gauss transform; the dense tables above are its reference.

    Sorted residuals are cut into clusters wherever a gap exceeds the
    reach, and each cluster into boxes of width h/2 anchored at its own
    minimum, so a far outlier neither blurs the offsets nor overflows the
    box numbers; only occupied boxes are kept.  Per box, the moments
    sum_j q_j s_j^a of the box-centred offsets s_j (in box widths) are
    carried to every box within the reach by the matrices of
    _fgt_translations, which depend on the box offset alone, and evaluated
    at the targets' own offsets.  One transform with weights q = 1 gives
    m z_i and the row sums of E_ij (r_j - r_i); a second with q = 1/z gives
    the column sums.  Non-finite residuals give a NaN value and gradient.
    """
    m = r.size
    if not np.all(np.isfinite(r)):
        return math.nan, (np.full(m, math.nan) if grad else None)
    p, reach = _FGT_TERMS, _FGT_REACH_BOXES
    tr = _fgt_translations()
    order = np.argsort(r)
    rs = r[order]
    new = np.concatenate(([True], np.diff(rs) > _FGT_REACH * h))
    cluster = np.cumsum(new) - 1
    x = (rs - rs[new][cluster]) / (0.5 * h)
    box = np.floor(x)
    s = x - box - 0.5                                   # in [-1/2, 1/2)
    box = box.astype(np.int64)
    # Shift each cluster's box numbers past the previous cluster's last box
    # by more than the reach, so no translation crosses a cluster gap.
    span = box[np.flatnonzero(np.append(new[1:], True))] + reach + 1
    box += (np.cumsum(span) - span)[cluster]
    first = np.concatenate(([True], box[1:] != box[:-1]))
    starts = np.flatnonzero(first)
    occupied = box[starts]
    of_point = np.cumsum(first) - 1
    # Source box of every (target box, offset) pair; missing boxes point at
    # a zero row appended to the moments.
    want = occupied[:, None] + np.arange(-reach, reach + 1)
    near = np.searchsorted(occupied, want)
    near[occupied[np.minimum(near, occupied.size - 1)] != want] = occupied.size
    powers = np.vander(s, p, increasing=True)
    moments = np.zeros((occupied.size + 1, p))

    def transform(q):
        """sum_j q_j E_ij and sum_j q_j E_ij (r_j - r_i), in sorted order."""
        moments[:-1] = np.add.reduceat(
            powers if q is None else q[:, None] * powers, starts, axis=0)
        local = (moments[near].reshape(occupied.size, -1) @ tr)[of_point]
        return (np.einsum("ij,ij->i", powers, local[:, :p]),
                h * np.einsum("ij,ij->i", powers, local[:, p:]))

    e_sum, row = transform(None)
    z = e_sum / m
    value = float(-np.log(z).mean())
    if not grad:
        return value, None
    q = 1.0 / z
    _, col = transform(q)
    g = np.empty(m)
    g[order] = (-2.0 / (m * m * h * h)) * (col + row * q)
    return value, g


def _kernel(r: np.ndarray, h: float, grad: bool):
    """Kernel value and, if grad, residual gradient: the dense tables below
    _FGT_MIN_M residuals, the fast Gauss transform from there on."""
    if r.size >= _FGT_MIN_M:
        return _kernel_fgt(r, h, grad)
    tables = _kernel_tables(r, h)
    value = float(-np.log(tables[2]).mean())
    return value, (_kernel_grad(r, h, tables=tables) if grad else None)


def _mse_value(r: np.ndarray, mse_norm: str) -> float:
    s = float(r @ r)
    return 0.5 * s if mse_norm == "half_sum" else s / r.size


def _mse_grad(r: np.ndarray, mse_norm: str) -> np.ndarray:
    return r.copy() if mse_norm == "half_sum" else (2.0 / r.size) * r


def loss_value(spec: LossSpec, r: np.ndarray) -> float:
    """Loss evaluated on a residual vector."""
    r = np.asarray(r, dtype=float)
    if spec.kind == MSE:
        return _mse_value(r, spec.mse_norm)
    kv, _ = _kernel(r, spec.h, grad=False)
    if spec.kind == KERNEL:
        return kv
    lam = spec.lambda_mix
    return lam * _mse_value(r, "mean") + (1.0 - lam) * kv


def kernel_grad_residual(r: np.ndarray, h: float) -> np.ndarray:
    """Exact gradient of the kernel loss with respect to the residuals.

    The components sum to zero because the loss depends only on pairwise
    differences (exactly up to rounding on the dense path, to the fast
    path's accuracy contract above _FGT_MIN_M residuals).
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("h must be finite and > 0")
    return _kernel(np.asarray(r, dtype=float), h, grad=True)[1]


def weighted_residual_mean(r: np.ndarray, h: float, i: int) -> float:
    """Kernel-weighted average of the residuals, centered at residual i.

    This is the value that makes the per-row derivative vanish: row i is
    stationary exactly when r_i equals this weighted mean.
    """
    r = np.asarray(r, dtype=float)
    if not 0 <= i < r.size:
        raise ValueError(f"index {i} out of range for m={r.size}")
    w = np.exp(-((r - r[i]) ** 2) / (h * h))
    return float((w @ r) / w.sum())


def grad_residual(spec: LossSpec, r: np.ndarray) -> np.ndarray:
    """dL/dr for the chosen loss."""
    r = np.asarray(r, dtype=float)
    if spec.kind == MSE:
        return _mse_grad(r, spec.mse_norm)
    _, kg = _kernel(r, spec.h, grad=True)
    if spec.kind == KERNEL:
        return kg
    lam = spec.lambda_mix
    return lam * _mse_grad(r, "mean") + (1.0 - lam) * kg


def loss_and_grad_residual(spec: LossSpec, r: np.ndarray):
    """Value and residual gradient from one kernel evaluation (hot path)."""
    r = np.asarray(r, dtype=float)
    if spec.kind == MSE:
        return _mse_value(r, spec.mse_norm), _mse_grad(r, spec.mse_norm)
    kv, kg = _kernel(r, spec.h, grad=True)
    if spec.kind == KERNEL:
        return kv, kg
    lam = spec.lambda_mix
    return (lam * _mse_value(r, "mean") + (1.0 - lam) * kv,
            lam * _mse_grad(r, "mean") + (1.0 - lam) * kg)


def grad_w(spec: LossSpec, r: np.ndarray) -> np.ndarray:
    """Gradient with respect to the noise vector.

    Since r = b - A(M) and b carries the noise additively, dL/dw_i equals
    dL/dr_i, so this is grad_residual evaluated at r.
    """
    return grad_residual(spec, r)


# ---------------------------------------------------------------------------
# Matrix-space derivatives
# ---------------------------------------------------------------------------

def grad_M(spec: LossSpec, op: SensingOperator, b: np.ndarray,
           M: np.ndarray) -> np.ndarray:
    """Gradient in the lifted variable: -A*(dL/dr) evaluated at r = b - A(M)."""
    M = np.asarray(M)
    if M.shape != (op.n, op.n):
        raise ValueError(f"M must be {op.n} x {op.n}, got {M.shape}")
    r = np.asarray(b) - apply_op(op, M)
    return -adjoint_op(op, grad_residual(spec, r))


def grad_X(spec: LossSpec, op: SensingOperator, b: np.ndarray,
           X: np.ndarray) -> np.ndarray:
    """Gradient in the factor: 2 * grad_M(X X^T) @ X."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != op.n:
        raise ValueError(f"X must be {op.n} x r, got {X.shape}")
    M = X @ X.T
    return 2.0 * grad_M(spec, op, b, 0.5 * (M + M.T)) @ X


def _loss_at(spec: LossSpec, op: SensingOperator, b, M) -> float:
    return loss_value(spec, np.asarray(b) - apply_op(op, M))


def hessian_quadratic_form(spec: LossSpec, op: SensingOperator, b: np.ndarray,
                           M: np.ndarray, K: np.ndarray) -> float:
    """<K, Hess L(M)[K]> along a symmetric direction K.

    MSE: analytic, 2 ||A(K)||^2 (sum normalization; independent of M and of
    the measurements).  Kernel/combined: second-order central difference of
    the loss along M + tK with step eps^(1/4) * (1 + ||M||_F) / ||K||_F.
    """
    K = np.asarray(K, dtype=float)
    nk = np.linalg.norm(K)
    if nk <= 0:
        raise ValueError("K must be nonzero")
    if spec.kind == MSE:
        ak = apply_op(op, K)
        return 2.0 * float(ak @ ak)
    M = np.asarray(M, dtype=float)
    t = _EPS ** 0.25 * (1.0 + np.linalg.norm(M)) / nk
    lp = _loss_at(spec, op, b, M + t * K)
    l0 = _loss_at(spec, op, b, M)
    lm = _loss_at(spec, op, b, M - t * K)
    return (lp - 2.0 * l0 + lm) / (t * t)


def hessian_vector_product(spec: LossSpec, op: SensingOperator, b: np.ndarray,
                           M: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Hess L(M)[K] for symmetric K.

    MSE: analytic 2 A*(A(K)).  Otherwise a central difference of grad_M
    with step eps^(1/3) * (1 + ||M||_F) / ||K||_F.
    """
    K = np.asarray(K, dtype=float)
    nk = np.linalg.norm(K)
    if nk <= 0:
        raise ValueError("K must be nonzero")
    if spec.kind == MSE:
        return 2.0 * adjoint_op(op, apply_op(op, K))
    M = np.asarray(M, dtype=float)
    t = _EPS ** (1.0 / 3.0) * (1.0 + np.linalg.norm(M)) / nk
    gp = grad_M(spec, op, b, M + t * K)
    gm = grad_M(spec, op, b, M - t * K)
    return (gp - gm) / (2.0 * t)


class LambdaMinResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


def lambda_min_hessian(spec: LossSpec, op: SensingOperator, b: np.ndarray,
                       M: np.ndarray, iters: int = 200,
                       seed: int = 0) -> LambdaMinResult:
    """Smallest Hessian eigenvalue over symmetric directions.

    Two power-iteration sweeps on Hessian-vector products: one for the top
    eigenvalue, then one on the shifted operator s*I - H whose top
    eigenvalue is s - lambda_min.  Converged when successive Rayleigh
    quotients differ by less than 1e-8; otherwise the best estimate is
    returned with converged=False.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    n = op.n

    def rand_sym():
        v = rng.standard_normal((n, n))
        v = 0.5 * (v + v.T)
        return v / np.linalg.norm(v)

    def hvp(v):
        return hessian_vector_product(spec, op, b, M, v)

    def top_eig(mv, v0):
        v, lam = v0, 0.0
        used = 0
        for k in range(iters):
            u = mv(v)
            lam_new = float(np.sum(v * u))
            nu = np.linalg.norm(u)
            used = k + 1
            if nu < 1e-14:
                return lam_new, v, True, used
            v = u / nu
            if k > 0 and abs(lam_new - lam) < 1e-8 * max(1.0, abs(lam_new)):
                return lam_new, v, True, used
            lam = lam_new
        return lam, v, False, used

    lam_dom, _, conv1, it1 = top_eig(hvp, rand_sym())
    # Phase 1 converges to the eigenvalue largest in magnitude; |lam_dom|
    # therefore upper-bounds lambda_max, so the shifted operator is PSD.
    shift = abs(lam_dom) + 0.5 * max(1.0, abs(lam_dom))
    lam_shift, _, conv2, it2 = top_eig(lambda v: shift * v - hvp(v), rand_sym())
    return LambdaMinResult(value=shift - lam_shift, converged=conv1 and conv2,
                           iterations=it1 + it2)
