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
# Each loss is defined once, in residual space, by its value, gradient g
# and Hessian-vector product H v (hvp_residual, which also states the MSE
# curvature convention H = 2I).  r = b - A(M) is affine in M, so matrix
# space composes with A and its adjoint A*: gradient -A*(g), Hessian
# A*(H A(K)), quadratic form <A(K), H A(K)>.  All derivatives are exact
# (the kernel HVP is the forward-mode derivative of its gradient, cf.
# Pearlmutter 1994); finite differences live only in the gradient oracle
# empirics.finite_diff_check and in the tests.
#
# The kernel algebra is written once over the weighted Gauss sums
# S_k[q]_i = sum_j q_j E_ij d_ij^k, with d_ij = r_j - r_i,
# E_ij = exp(-d_ij^2 / h^2) and k = 0, 1, 2.  Two providers evaluate them,
# chosen by the residual count m alone.  Below _FGT_MIN_M residuals, dense
# m x m tables (O(m^2) time and memory) are faster, and they are the
# reference the tests hold the other path to.  From _FGT_MIN_M on, a
# box-wise fast Gauss transform (_fgt_sums; Greengard & Strain 1991) gives
# the same sums in O(m p): boxes h/2 wide, p = _FGT_TERMS = 24 Taylor terms
# per expansion, pairs more than _FGT_REACH = 6 bandwidths apart dropped
# (each such weight is below exp(-36) = 2.3e-16).  The threshold is the
# measured crossover on a 2-vCPU Xeon; at m = 4000 the fast path takes ~2 ms
# per value and gradient, the dense one ~200 ms and 256 MB.  Property tests
# hold it to the dense path: relative error <= 1e-12 on the value, <= 1e-10
# on the gradient and HVP norms, zero-sum gradient and HVP.  The exact
# zeros at constant residuals and the exponentially small gradients of
# widely spread, nearly flat residuals (criterion 3 checks norms down to
# 1e-111) are dense-path properties, since every sum there is over pairwise
# differences.  On the fast path the sums carry rounding noise of ~1e-16
# relative to their largest terms, and clusters farther apart than the
# reach do not interact: criterion 3's pattern at spread 4h and 8h gives a
# gradient of exactly zero.

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
    "kernel_row_means",
    "weighted_residual_mean",
    "grad_residual",
    "loss_and_grad_residual",
    "hvp_residual",
    "grad_M", "grad_X", "grad_w",
    "hessian_quadratic_form",
    "hessian_vector_product",
    "lambda_min_hessian",
    "LambdaMinResult",
]

MSE = "mse"
KERNEL = "kernel"
COMBINED = "combined"

# Fast kernel path (see _fgt_sums): residual count from which it replaces
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
    return b - apply_op(op, X @ X.T)


# ---------------------------------------------------------------------------
# Kernel Gauss sums and the kernel derivatives built on them
# ---------------------------------------------------------------------------

def _dense_sums(r: np.ndarray, h: float):
    """sums(q, ks) -> [S_k[q] for k in ks] (q = None: unit weights) from
    dense m x m tables of E d^k, each built on first use: the small-m path
    and the fast path's reference.  Gaps beyond ~1e154 overflow d^2 to inf,
    so E = 0, and non-finite residuals give NaN; the values are right, so
    the warnings are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.subtract(r[None, :], r[:, None])
        e = np.square(d)
        e *= -1.0 / (h * h)
        np.exp(e, out=e)
    tables = [e]

    def sums(q, ks):
        while len(tables) <= max(ks):           # E d^2 reuses the buffer of d
            with np.errstate(over="ignore", invalid="ignore"):
                tables.append(np.multiply(tables[-1], d,
                                          out=d if len(tables) == 2 else None))
        return [tables[k].sum(axis=1) if q is None else tables[k] @ q
                for k in ks]

    return sums


@functools.cache
def _fgt_translations() -> np.ndarray:
    """Translation matrices of the fast Gauss sums, one per box offset k.

    For boxes of width h/2, a source at box-centred offset s (in box
    widths) and a target at offset t in a box k boxes away lie
    y = (k + s - t)/2 bandwidths apart.  exp(-y^2) is expanded in u = s - t
    around y0 = k/2 with the Hermite recursion
    c_(n+1) = -(y0 c_n + c_(n-1)/2)/(n+1); each multiplication by
    y = y0 + u/2 maps coefficients a_n to y0 a_n + a_(n-1)/2 (once for
    y exp(-y^2), twice for y^2 exp(-y^2)).  (s - t)^n is expanded
    binomially, up to total degree p - 1 (p = _FGT_TERMS).  Row
    (k + _FGT_REACH_BOXES) p + a holds the coefficients of s^a t^b, for
    y^j exp(-y^2) in column j p + b.  Built on first use, not at import.
    """
    p = _FGT_TERMS
    y0 = 0.5 * np.arange(-_FGT_REACH_BOXES, _FGT_REACH_BOXES + 1)
    c = np.zeros((y0.size, p + 1))            # column n + 1 holds c_n
    c[:, 1] = np.exp(-y0 * y0)
    for n in range(p - 1):
        c[:, n + 2] = -(y0 * c[:, n + 1] + 0.5 * c[:, n]) / (n + 1)
    blocks = [c]
    for _ in range(2):
        a = blocks[-1]
        blocks.append(np.zeros_like(c))
        blocks[-1][:, 1:] = y0[:, None] * a[:, 1:] + 0.5 * a[:, :-1]
    a, b = np.indices((p, p))
    deg = np.minimum(a + b, p - 1)
    pascal = np.array([[math.comb(i + j, i) if i + j < p else 0
                        for j in range(p)] for i in range(p)], dtype=float)
    mix = pascal * (-1.0) ** b
    tr = np.concatenate([blk[:, 1:][:, deg] * mix for blk in blocks], axis=2)
    tr = tr.reshape(-1, 3 * p)
    tr.flags.writeable = False           # shared by every caller
    return tr


def _fgt_sums(r: np.ndarray, h: float):
    """Gauss sums S_0, S_1, S_2 in O(m) by a box-wise fast Gauss transform,
    with the interface of _dense_sums (its reference).

    Sorted residuals are cut into clusters wherever a gap exceeds the
    reach, and each cluster into boxes of width h/2 anchored at its own
    minimum, so a far outlier neither blurs the offsets nor overflows the
    box numbers; only occupied boxes are kept.  Per box, the moments
    sum_j q_j s_j^a of the box-centred offsets s_j (in box widths) are
    carried to every box within the reach by the matrices of
    _fgt_translations, which depend on the box offset alone, and evaluated
    at the targets' own offsets.  Non-finite residuals give NaN sums.
    """
    m = r.size
    if not np.all(np.isfinite(r)):
        return lambda q, ks: np.full((len(ks), m), math.nan)
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

    def sums(q, ks):
        weighted = powers if q is None else q[order, None] * powers
        moments[:-1] = np.add.reduceat(weighted, starts, axis=0)
        # One product for the column blocks ks[0] .. ks[-1] (ks ascending).
        lo, hi = ks[0], ks[-1] + 1
        local = (moments[near].reshape(occupied.size, -1)
                 @ tr[:, lo * p:hi * p])[of_point].reshape(m, hi - lo, p)
        out = np.empty((len(ks), m))
        # d^k = (h y)^k, and the translations hold the coefficients in y.
        rows = np.einsum("jb,jkb->kj", powers, local)
        out[:, order] = rows[np.subtract(ks, lo)]
        out *= np.power(h, ks)[:, None]
        return out

    return sums


def _gauss_sums(r: np.ndarray, h: float):
    """Dense sums below _FGT_MIN_M residuals, the fast transform from there."""
    return (_fgt_sums if r.size >= _FGT_MIN_M else _dense_sums)(r, h)


def _kernel(r: np.ndarray, h: float, grad: bool, provider=_gauss_sums):
    """Kernel value and, if grad, residual gradient g = -c (S_1[q] + q S_1[1])
    with z = S_0[1]/m, q = 1/z and c = 2/(m^2 h^2)."""
    m = r.size
    sums = provider(r, h)
    s0, *s1 = sums(None, (0, 1) if grad else (0,))
    z = s0 / m                            # z_i >= 1/m since E_ii = 1
    value = float(-np.log(z).mean())
    if not grad:
        return value, None
    q = 1.0 / z
    return value, (-2.0 / (m * m * h * h)) * (sums(q, (1,))[0] + q * s1[0])


def _kernel_hessian(r: np.ndarray, h: float, provider=_gauss_sums):
    """v -> H v for the kernel loss at r, the derivative of _kernel's
    gradient along v.  With d'_ij = v_j - v_i, E'_ij = -(2/h^2) d_ij d'_ij E_ij:
      z'       = -(2/(m h^2)) (S_1[v] - v S_1[1]),   q' = -q^2 z'
      S_1[1]'  = S_0[v] - v S_0[1] - (2/h^2) (S_2[v] - v S_2[1])
      S_1[q]'  = S_1[q'] + S_0[qv] - v S_0[q] - (2/h^2) (S_2[qv] - v S_2[q])
      H v      = -c (S_1[q]' + q' S_1[1] + q S_1[1]')
    Sums with weights 1 and q are formed once per r; each product then
    needs weights v, qv and q' (q' after S_1[v]).
    """
    m = r.size
    sums = provider(r, h)
    one = sums(None, (0, 1, 2))
    q = m / one[0]
    sq0, sq2 = sums(q, (0, 2))
    c, k = 2.0 / (m * m * h * h), 2.0 / (h * h)

    def hvp(v):
        sv = sums(v, (0, 1, 2))
        qdot = (q * q) * (k / m) * (sv[1] - v * one[1])
        sqv0, sqv2 = sums(q * v, (0, 2))
        d_one = sv[0] - v * one[0] - k * (sv[2] - v * one[2])
        d_q = sums(qdot, (1,))[0] + sqv0 - v * sq0 - k * (sqv2 - v * sq2)
        return -c * (d_q + qdot * one[1] + q * d_one)

    return hvp


# ---------------------------------------------------------------------------
# Residual-space values, gradients and Hessian-vector products
# ---------------------------------------------------------------------------

def _mse_value(r: np.ndarray, mse_norm: str) -> float:
    s = float(r @ r)
    return 0.5 * s if mse_norm == "half_sum" else s / r.size


def _mse_grad(r: np.ndarray, mse_norm: str) -> np.ndarray:
    return r.copy() if mse_norm == "half_sum" else (2.0 / r.size) * r


def _value_and_grad(spec: LossSpec, r: np.ndarray, grad: bool):
    """Loss value and, if grad, residual gradient (else None)."""
    r = np.asarray(r, dtype=float)
    if spec.kind == MSE:
        return (_mse_value(r, spec.mse_norm),
                _mse_grad(r, spec.mse_norm) if grad else None)
    kv, kg = _kernel(r, spec.h, grad)
    if spec.kind == KERNEL:
        return kv, kg
    lam = spec.lambda_mix
    return (lam * _mse_value(r, "mean") + (1.0 - lam) * kv,
            lam * _mse_grad(r, "mean") + (1.0 - lam) * kg if grad else None)


def loss_value(spec: LossSpec, r: np.ndarray) -> float:
    """Loss evaluated on a residual vector."""
    return _value_and_grad(spec, r, grad=False)[0]


def kernel_grad_residual(r: np.ndarray, h: float) -> np.ndarray:
    """Exact gradient of the kernel loss with respect to the residuals.

    The components sum to zero because the loss depends only on pairwise
    differences (exactly up to rounding on the dense path, to the fast
    path's accuracy contract above _FGT_MIN_M residuals).
    """
    return grad_residual(LossSpec.kernel(h), r)


def kernel_row_means(r: np.ndarray, h: float) -> np.ndarray:
    """z_i = (1/m) sum_j exp(-(r_j - r_i)^2 / h^2), the kernel density
    estimate at each residual (O(m) from _FGT_MIN_M residuals on)."""
    h = LossSpec.kernel(h).h              # rejects h <= 0 and non-finite h
    r = np.asarray(r, dtype=float)
    return _gauss_sums(r, h)(None, (0,))[0] / r.size


def weighted_residual_mean(r: np.ndarray, h: float, i: int) -> float:
    """Kernel-weighted average of the residuals, centered at residual i.

    This is the value that makes the per-row derivative vanish: row i is
    stationary exactly when r_i equals this weighted mean.
    """
    h = LossSpec.kernel(h).h              # rejects h <= 0 and non-finite h
    r = np.asarray(r, dtype=float)
    if not 0 <= i < r.size:
        raise ValueError(f"index {i} out of range for m={r.size}")
    w = np.exp(-((r - r[i]) ** 2) / (h * h))
    return float((w @ r) / w.sum())


def grad_residual(spec: LossSpec, r: np.ndarray) -> np.ndarray:
    """dL/dr for the chosen loss."""
    return _value_and_grad(spec, r, grad=True)[1]


def loss_and_grad_residual(spec: LossSpec, r: np.ndarray):
    """Value and residual gradient from one kernel evaluation (hot path)."""
    return _value_and_grad(spec, r, grad=True)


def grad_w(spec: LossSpec, r: np.ndarray) -> np.ndarray:
    """Gradient with respect to the noise vector.

    Since r = b - A(M) and b carries the noise additively, dL/dw_i equals
    dL/dr_i, so this is grad_residual evaluated at r.
    """
    return grad_residual(spec, r)


def _residual_hessian(spec: LossSpec, r: np.ndarray):
    """v -> H v at r (see hvp_residual), v-independent sums formed once."""
    if spec.kind == MSE:
        return lambda v: 2.0 * v
    kernel = _kernel_hessian(r, spec.h)
    if spec.kind == KERNEL:
        return kernel
    lam = spec.lambda_mix
    return lambda v: (2.0 * lam / r.size) * v + (1.0 - lam) * kernel(v)


def hvp_residual(spec: LossSpec, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Residual-space Hessian-vector product H v at r.

    Kernel and combined (lam (2/m) I + (1 - lam) H_kernel): the exact
    directional derivative of grad_residual along v.  MSE: H = 2I for
    either mse_norm, the sum-normalized square loss sum(r_i^2), under which
    the landscape facts hold (smallest Hessian eigenvalue 2(1 - delta),
    gradient-Lipschitz constant 2(1 + delta)); every MSE curvature quantity
    inherits this convention.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.shape != r.shape:
        raise ValueError(f"v must have shape {r.shape}, got {v.shape}")
    return _residual_hessian(spec, r)(v)


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
    return 2.0 * grad_M(spec, op, b, X @ X.T) @ X


def _curvature(spec: LossSpec, op: SensingOperator, b, M, K):
    """A(K) and H A(K), H the residual-space Hessian at r = b - A(M)."""
    K = np.asarray(K, dtype=float)
    if not np.linalg.norm(K) > 0:
        raise ValueError("K must be nonzero")
    ak = apply_op(op, K)
    return ak, hvp_residual(spec, np.asarray(b) - apply_op(op, M), ak)


def hessian_quadratic_form(spec: LossSpec, op: SensingOperator, b: np.ndarray,
                           M: np.ndarray, K: np.ndarray) -> float:
    """<K, Hess L(M)[K]> = <A(K), H A(K)> along a symmetric direction K."""
    ak, hak = _curvature(spec, op, b, M, K)
    return float(ak @ hak)


def hessian_vector_product(spec: LossSpec, op: SensingOperator, b: np.ndarray,
                           M: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Hess L(M)[K] = A*(H A(K)) for symmetric K."""
    return adjoint_op(op, _curvature(spec, op, b, M, K)[1])


class LambdaMinResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


def lambda_min_hessian(spec: LossSpec, op: SensingOperator, b: np.ndarray,
                       M: np.ndarray, iters: int = 200,
                       seed: int = 0) -> LambdaMinResult:
    """Smallest Hessian eigenvalue over symmetric directions.

    Two power-iteration sweeps on Hessian-vector products A*(H A(v)), with
    H formed once at r = b - A(M): one for the top eigenvalue, then one on
    the shifted operator s*I - H whose top eigenvalue is s - lambda_min.
    Converged when successive Rayleigh quotients differ by less than 1e-8;
    otherwise the best estimate is returned with converged=False.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    n = op.n

    def rand_sym():
        v = rng.standard_normal((n, n))
        v = 0.5 * (v + v.T)
        return v / np.linalg.norm(v)

    hess = _residual_hessian(spec, np.asarray(b) - apply_op(op, M))

    def hvp(v):
        return adjoint_op(op, hess(apply_op(op, v)))

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
