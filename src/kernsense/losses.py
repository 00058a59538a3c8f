# Loss values and derivatives for the three data-fidelity terms:
#
#   mse       0.5 * sum(r_i^2)
#   kernel    (1/m) sum_i -log( (1/m) sum_j exp(-(r_j - r_i)^2 / h^2) )
#   combined  lam * (1/m) sum(r_i^2) + (1 - lam) * kernel
#
# with residuals r_i = b_i - A(X X^T)_i.  The kernel term is the negative
# log of a kernel density estimate over pairwise residual differences; it
# is translation invariant (r -> r + c leaves it unchanged) and vanishes
# iff all residuals are equal.
#
# Each loss is defined once, in residual space, by its value, gradient g
# and Hessian-vector product H v; _derivative alone assembles each kind's
# g and H v from its kernel work.  The MSE has one scale, 0.5 sum(r_i^2)
# with g = r and H = I, for values, solves, curvature and estimators; only
# the paper's constants in bounds (and empirics.ConstantEstimates.l1 =
# 2(1 + delta)) take it as sum(r_i^2).  r = b - A(M) is affine in M, so
# matrix space composes with A and its adjoint A*: gradient -A*(g),
# Hessian A*(H A(K)), quadratic form <A(K), H A(K)>.  All derivatives are
# exact (the kernel HVP is the forward-mode derivative of its gradient,
# cf. Pearlmutter 1994); finite differences live only in the gradient
# oracle empirics.finite_diff_check and in the tests.
#
# The MSE also has a normal-equations form, model.normal_products: its
# matrix-space gradient -A*(r) = A*A(M) - A*(b) is affine, so with G = A*A
# formed once the value is 0.5 ||b||^2 - <A*(b), M> + 0.5 ||A(M)||^2 and
# each evaluation costs one k x k product, k = n(n+1)/2, instead of a pass
# over the operator each way.  Its rounding error is absolute, of order
# u ||b||^2 with u = 2^-53 (the bound is in its docstring), not relative
# to the loss: near a noiseless fit the value reads ~1e-16 where the
# residual form reads ~1e-29, and may dip below 0.  Only bare MSE solves
# use it (optimize.gradient_descent); stacked solves, the estimators and
# lambda_min keep the residual form.
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
# (each such weight is below exp(-36) = 2.3e-16).  The threshold lies
# above the measured crossover, near m = 180 on a 2-vCPU Xeon.  Both
# providers take a stack of residual rows (s, m), or one row, each sorted
# ascending: _kernel, _kernel_hessian and kernel_row_means sort each row
# once, evaluate everything in that order and put the results back in
# input order once (each HVP permutes v in and H v out), so the results
# depend on the residuals' values, not on their order.  A one-row call is
# the stack of one.  The fast path lays a stack's rows end to end in one
# transform in which every row start is a forced cluster cut and tie-group
# boundary.  Each row's translation is its own product, as alone, every
# sparse point goes through one gathered layout and each dense box is one
# product, so each row gets the bits it gets alone, whatever its
# neighbours, position or stack height (_fgt_transform); the dense path
# builds each row's tables in turn.  A stack goes through in chunks of
# whole rows of at most _FGT_CHUNK = 4096 residuals, each chunk's tables
# freed before the next is built (a chunk's power table takes 0.75 MB).
# Measured on that Xeon (student-t residuals of norm 0.9, h = 0.5, best of
# 25 x 50 calls), the fast path takes ~0.24 ms per value and gradient at
# m = 1200 and ~0.45 ms at m = 4000 (value only ~0.16 / 0.24 ms, a Hessian
# build and one HVP ~0.4 / 0.75 ms), and a stack of 6 rows at m = 1200 (two
# chunks) takes ~0.7x the time of 6 one-row calls, for value and gradient
# as for a Hessian build and HVP; the dense path takes ~200 ms and
# 256 MB at m = 4000.  Property tests hold the fast path to the dense one: relative
# error <= 1e-12 on the value, <= 1e-10 on the gradient and HVP norms,
# zero-sum gradient and HVP.  The exponentially
# small gradients of widely spread, nearly flat residuals (criterion 3
# checks norms down to 1e-111) are a dense-path property, since every sum
# there is over pairwise differences.  On the fast path the sums carry
# rounding noise of ~1e-16 relative to their largest terms, and clusters
# farther apart than the reach do not interact.  A cluster of equal
# residuals sits at the centre of its box, where the expansions reduce to
# their constant terms, so constant residuals give an exactly zero value
# and gradient on both paths, and so do clusters of equal residuals
# farther apart than the reach, such as criterion 3's pattern at spread 4h
# and 8h.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import SensingOperator, _check_count, adjoint_op, apply_op

__all__ = [
    "MSE", "KERNEL", "COMBINED", "LOSS_KINDS",
    "LossSpec",
    "residuals",
    "loss_value",
    "kernel_row_means",
    "grad_residual",
    "loss_and_grad_residual",
    "hvp_residual",
    "grad_M", "grad_X",
    "hessian_quadratic_form",
    "hessian_vector_product",
    "lambda_min_hessian",
    "LambdaMinResult",
]

MSE = "mse"
KERNEL = "kernel"
COMBINED = "combined"
LOSS_KINDS = (MSE, KERNEL, COMBINED)

# Fast kernel path (see _fgt_sums): residual count from which it replaces
# the dense tables, pairs dropped beyond _FGT_REACH * h, and Taylor terms
# per box expansion.
_FGT_MIN_M = 300
_FGT_REACH = 6.0
_FGT_TERMS = 24
# Boxes are h/2 wide: pairs within _FGT_REACH * h lie at most this many
# boxes apart.
_FGT_REACH_BOXES = int(2 * _FGT_REACH) + 1
# Residuals per transform: a stack of rows is evaluated in chunks of whole
# rows holding at most this many (one row at least), which bounds a chunk's
# (p, points) power table to 0.75 MB.
_FGT_CHUNK = 1 << 12
# Points of sparse boxes per reduction and evaluation step of a transform.
_FGT_BLOCK = 1 << 11


@dataclass(frozen=True)
class LossSpec:
    """Tagged loss choice plus its parameters.

    h is the kernel bandwidth (kernel/combined), lambda_mix the combined
    mixing weight in [0, 1].
    """

    kind: str
    h: Optional[float] = None
    lambda_mix: Optional[float] = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind in (KERNEL, COMBINED):
            if self.h is None or not (self.h > 0 and math.isfinite(self.h)):
                raise ValueError("kernel bandwidth h must be finite and > 0")
        if self.kind == COMBINED:
            # NaN fails both comparisons, so it is rejected here too.
            if self.lambda_mix is None or not 0.0 <= self.lambda_mix <= 1.0:
                raise ValueError("lambda_mix must lie in [0, 1]")

    @classmethod
    def mse(cls) -> "LossSpec":
        return cls(MSE)

    @classmethod
    def kernel(cls, h: float) -> "LossSpec":
        return cls(KERNEL, h=float(h))

    @classmethod
    def combined(cls, lambda_mix: float, h: float) -> "LossSpec":
        return cls(COMBINED, h=float(h), lambda_mix=float(lambda_mix))


def _measurements(op: SensingOperator, b, stack: bool = False) -> np.ndarray:
    """b as an array: one length-m measurement vector or, with stack, also
    a non-empty (E, m) stack of them; ValueError otherwise, as numpy would
    broadcast a scalar or a length-1 b without a word."""
    b = np.asarray(b)
    if b.shape != (op.m,) and not (stack and b.ndim == 2 and len(b)
                                   and b.shape[1] == op.m):
        raise ValueError(f"b must have length {op.m}, got {b.shape}")
    return b


def residuals(op: SensingOperator, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """r = b - A(X X^T)."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != op.n:
        raise ValueError(f"X must be {op.n} x r, got {X.shape}")
    return _measurements(op, b) - apply_op(op, X @ X.T)


# ---------------------------------------------------------------------------
# Kernel Gauss sums and the kernel derivatives built on them
# ---------------------------------------------------------------------------

def _row_chunks(rows: int, m: int) -> list:
    """Slices of whole rows of a (rows, m) stack, each holding at most
    _FGT_CHUNK residuals (one row at least)."""
    step = max(1, _FGT_CHUNK // m)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _dense_sums(r: np.ndarray, h: float):
    """sums(q, ks) -> [S_k[q] for k in ks] (q = None: unit weights) from
    dense m x m tables of E d^k, each built on first use: the small-m path
    and the fast path's reference.  r is one row (m,) or a stack (s, m),
    evaluated row by row; q has r's shape, and the sums add a leading axis
    of len(ks).  Any order works; the kernel entry points pass each row
    sorted, as _fgt_sums requires.  Gaps beyond ~1e154 overflow d^2 to inf,
    so E = 0, and non-finite residuals give NaN; the values are right, so
    the warnings are silenced.
    """
    if r.ndim > 1:
        rows = [_dense_sums(row, h) for row in r]
        return lambda q, ks: np.stack(
            [row(qi, ks) for row, qi in
             zip(rows, [None] * len(rows) if q is None else q)], axis=1)
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
def _fgt_translations() -> tuple:
    """Translation matrices of the fast Gauss sums, one per box offset k,
    for y^j exp(-y^2), j = 0, 1, 2: (p, (2 _FGT_REACH_BOXES + 1) p) each.

    For boxes of width h/2, a source at box-centred offset s (in box
    widths) and a target at offset t in a box k boxes away lie
    y = (k + s - t)/2 bandwidths apart.  exp(-y^2) is expanded in u = s - t
    around y0 = k/2 with the Hermite recursion
    c_(n+1) = -(y0 c_n + c_(n-1)/2)/(n+1); each multiplication by
    y = y0 + u/2 maps coefficients a_n to y0 a_n + a_(n-1)/2 (once for
    y exp(-y^2), twice for y^2 exp(-y^2)).  (s - t)^n is expanded
    binomially, up to total degree p - 1 (p = _FGT_TERMS).  Matrix j holds
    the coefficient of s^a t^b in y^j exp(-y^2) at row b, column
    (k + _FGT_REACH_BOXES) p + a.  Built on first use, not at import.
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
    return tuple(tr.T[j * p:(j + 1) * p] for j in range(3))


def _fgt_sums(r: np.ndarray, h: float):
    """Gauss sums S_0, S_1, S_2 by a box-wise fast Gauss transform, in O(m)
    per row, with the interface of _dense_sums (its reference).

    Each row of r must be sorted ascending (NaN last, as np.sort leaves
    it).  A row holding a non-finite residual gets NaN sums; the other rows
    go end to end through one transform (_fgt_transform) in which every
    row start is a forced cluster start and tie-group boundary, so no
    translation and no tie collapse crosses rows, and each row's sums are
    the same bits whatever the rows beside it.
    """
    m = r.shape[-1]
    rows = r.reshape(-1, m)
    if all(map(math.isfinite, rows[:, ::max(m - 1, 1)].ravel().tolist())):
        return _fgt_transform(rows.reshape(-1), np.arange(0, rows.size, m), h,
                              r.shape)
    ok = np.isfinite(rows[:, 0]) & np.isfinite(rows[:, -1])
    inner = _fgt_sums(rows[ok], h) if ok.any() else None

    def sums(q, ks):
        out = np.full((len(ks),) + rows.shape, math.nan)
        if inner is not None:
            out[:, ok] = inner(None if q is None else q.reshape(rows.shape)[ok],
                               ks)
        return out.reshape((len(ks),) + r.shape)

    return sums


def _fgt_transform(x: np.ndarray, cuts: np.ndarray, h: float, shape):
    """sums(q, ks) of _fgt_sums for rows laid end to end in x, each sorted
    and finite, starting at the indices cuts; q has the given shape (of
    x.size entries), and the sums add a leading axis of len(ks).

    Ties are collapsed first: the transform runs on the distinct values of
    each row, each carrying the summed weights of its ties (unit weights
    become multiplicities), and every tie gets its value's sums.  BLAS may
    round two equal columns of a product differently at different
    positions, so this is what gives tied residuals equal sums whatever
    their order.  Each row is cut into clusters wherever a gap exceeds the
    reach, and each cluster into boxes of width h/2, the first centred on
    the cluster's minimum, so a far outlier neither blurs the offsets nor
    overflows the box numbers; only occupied boxes are kept, and the
    points of a box are contiguous.  Per box, the moments sum_j q_j s_j^a
    of the box-centred offsets s_j (in box widths) are carried to every box
    within the reach by the matrices of _fgt_translations, which depend on
    the box offset alone, and evaluated at the targets' own offsets; only
    the blocks k in ks are formed.  A cluster of equal residuals sits at
    offset 0, where the expansions reduce to their constant terms, so its
    odd sums are exactly 0.  The (p, m) table of powers s^a is built row by
    row, each row the previous one times s: np.vander's products, in its
    order.  A box of at least 2p points is dense: its moments are one
    matrix-vector product with the weights (with ones for unit weights),
    and its sums one (len(ks), p) x (p, points) matrix product.  The sparse
    boxes go together through np.add.reduceat and one einsum over their
    points (in groups, _fgt_groups), as a product per box costs more than
    it saves on small boxes.

    A row in a stack is rounded as it is alone, by construction: every
    step is elementwise, a reduction over one box or tie group, or a
    product the row makes alone.  Each row's translation is its own
    product with its own columns of the moments, the call it makes alone
    (a matrix-vector product for a row of one box), and each dense box is
    one product.  einsum's order of summation follows its operands'
    layout, so every sparse point is gathered (point-major), which lays
    each row's points out as alone.
    """
    n = x.size
    gap = np.diff(x)
    if not gap.all():
        distinct = np.append(True, gap != 0)
        distinct[cuts] = True
        if not distinct.all():
            first = np.flatnonzero(distinct)
            mult = np.diff(np.append(first, n)).astype(float)
            inner = _fgt_transform(x[first], np.searchsorted(first, cuts), h,
                                   first.shape)
            group = np.cumsum(distinct) - 1
            return lambda q, ks: inner(
                mult if q is None else np.add.reduceat(q.reshape(-1), first),
                ks)[:, group].reshape((len(ks),) + shape)
    p, reach = _FGT_TERMS, _FGT_REACH_BOXES
    trt = _fgt_translations()
    new = np.concatenate(([True], gap > _FGT_REACH * h))
    new[cuts] = True
    heads = np.flatnonzero(new)                         # cluster starts
    sizes = np.diff(np.append(heads, n))
    x = (x - np.repeat(x[heads], sizes)) / (0.5 * h)
    box = np.floor(x + 0.5)
    s = x - box                                         # in [-1/2, 1/2]
    box = box.astype(np.int64)
    # Shift each cluster's box numbers past the previous cluster's last box
    # by more than the reach, so no translation crosses a cluster gap.
    if heads.size > 1:
        span = box[heads[1:] - 1] + reach + 1
        box[heads[1]:] += np.repeat(np.cumsum(span), sizes[1:])
    starts = np.flatnonzero(np.concatenate(([True], box[1:] != box[:-1])))
    occupied = box[starts]
    counts = np.diff(np.append(starts, n))         # points per occupied box
    # Source box of every (target box, offset) pair; missing boxes point at
    # a zero row appended to the moments.
    want = occupied[:, None] + np.arange(-reach, reach + 1)
    near = np.searchsorted(occupied, want)
    near[occupied[np.minimum(near, occupied.size - 1)] != want] = occupied.size
    width = len(near)
    row_box = np.searchsorted(starts, cuts).tolist() + [width]
    powers = np.empty((p, n))
    powers[0] = 1.0
    for a in range(1, p):
        np.multiply(powers[a - 1], s, out=powers[a])
    sparse = counts < 2 * p
    dense = np.flatnonzero(~sparse)
    blocks = [(j, slice(a, a + c)) for j, a, c in zip(
        dense.tolist(), starts[dense].tolist(), counts[dense].tolist())]
    groups = _fgt_groups(sparse, counts, powers)
    moments = np.zeros((occupied.size + 1, p))
    ones = np.ones(n)
    h_powers = np.power(h, (0, 1, 2))

    def sums(q, ks):
        if q is not None:
            q = q.reshape(-1)
        for boxes, c, at, fp, _ in groups:
            weighted = fp if q is None else fp * q[c]
            moments[boxes] = np.add.reduceat(weighted, at, axis=1).T
        w = ones if q is None else q
        for j, c in blocks:
            moments[j] = powers[:, c] @ w[c]
        gathered = moments[near].reshape(width, -1).T
        local = np.empty((len(ks), p, width))
        for i, k in enumerate(ks):
            for b0, b1 in zip(row_box, row_box[1:]):    # each row alone
                np.matmul(trt[k], gathered[:, b0:b1], out=local[i, :, b0:b1])
            # d^k = (h y)^k, and the translations hold the coefficients in
            # y (h^0 = 1 needs no product).
            if k:
                local[i] *= h_powers[k]
        out = np.empty((len(ks), n))
        for _, c, _, fp, box in groups:
            out[:, c] = np.einsum("kbj,bj->kj", local[:, :, box], fp)
        for j, c in blocks:
            np.matmul(local[:, :, j], powers[:, c], out=out[:, c])
        return out.reshape((len(ks),) + shape)

    return sums


def _fgt_groups(sparse, counts, powers) -> list:
    """The sparse boxes of _fgt_transform (where sparse holds, of counts
    points each) in groups of whole boxes of about _FGT_BLOCK points, which
    bounds a sums call's per-point temporaries: (boxes, points, segment
    starts, powers, box of each point) per group, the points as indices of
    the transform and their columns of the power table gathered
    (point-major), in order."""
    boxes = np.flatnonzero(sparse)
    if not boxes.size:
        return []
    pts = np.flatnonzero(np.repeat(sparse, counts))
    fp = powers[:, pts]
    counts = counts[boxes]
    at = np.cumsum(counts) - counts
    box = np.repeat(boxes, counts)
    b_edges = [0] + (np.flatnonzero(np.diff(at // _FGT_BLOCK)) + 1).tolist()
    p_edges = at[b_edges].tolist() + [box.size]
    b_edges.append(boxes.size)
    return [(boxes[b0:b1], pts[p0:p1], at[b0:b1] - p0, fp[:, p0:p1],
             box[p0:p1]) for b0, b1, p0, p1 in zip(
                 b_edges, b_edges[1:], p_edges, p_edges[1:])]


def _gauss_sums(r: np.ndarray, h: float):
    """Dense sums below _FGT_MIN_M residuals per row, the fast transform
    from there."""
    return (_fgt_sums if r.shape[-1] >= _FGT_MIN_M else _dense_sums)(r, h)


def _sorted_rows(rows: np.ndarray):
    """(order, sorted): each row of a stack sorted, and the flat indices of
    rows.reshape(-1) that give it."""
    order = np.argsort(rows, axis=1)
    if len(rows) > 1:
        order += np.arange(0, rows.size, rows.shape[1])[:, None]
    return order, rows.reshape(-1)[order]


def _unsort(x: np.ndarray, order: np.ndarray, out=None) -> np.ndarray:
    """x computed on the sorted rows (_sorted_rows), put back in the input
    order, into out (contiguous, of x's shape) if given."""
    out = np.empty(x.shape) if out is None else out
    out.reshape(-1)[order] = x
    return out


def _kernel(r: np.ndarray, h: float, grad: bool, provider=None):
    """Kernel value and, if grad, residual gradient g = -c (S_1[q] + q S_1[1])
    with z = S_0[1]/m, q = 1/z and c = 2/(m^2 h^2).  r is one residual
    vector (the value a float) or a stack of them (..., m) (an array of
    values).  Each row is evaluated sorted (the providers' contract), one
    provider call per chunk of rows (_row_chunks), each chunk's tables freed
    before the next is built; the gradient is returned in input order.
    provider defaults to _gauss_sums.
    """
    m = r.shape[-1]
    rows = r.reshape(-1, m)
    values = np.empty(len(rows))
    grads = np.empty(rows.shape) if grad else None
    for chunk in _row_chunks(*rows.shape):
        values[chunk] = _kernel_chunk(rows[chunk], h, provider or _gauss_sums,
                                      grads[chunk] if grad else None)
    return (float(values[0]) if r.ndim == 1 else values.reshape(r.shape[:-1]),
            grads.reshape(r.shape) if grad else None)


def _kernel_chunk(rows: np.ndarray, h: float, provider, grads) -> np.ndarray:
    """_kernel's values of a stack of rows in one provider call, and their
    gradients into grads unless it is None."""
    m = rows.shape[1]
    if grads is None:                     # the value needs no order
        sums = provider(np.sort(rows, axis=1), h)
        s0, = sums(None, (0,))
    else:
        order, part = _sorted_rows(rows)
        sums = provider(part, h)
        s0, s1 = sums(None, (0, 1))
    z = s0 / m                            # z_i >= 1/m since E_ii = 1
    if grads is not None:
        q = 1.0 / z
        g = (-2.0 / (m * m * h * h)) * (sums(q, (1,))[0] + q * s1)
        _unsort(g, order, grads)
    return -np.log(z).sum(axis=1) / m               # the rows' means


def _kernel_hessian(r: np.ndarray, h: float, provider=None):
    """v -> H v for the kernel loss at r, the derivative of _kernel's
    gradient along v, for one residual vector or at each row of a stack
    (v of r's shape).  With d'_ij = v_j - v_i,
    E'_ij = -(2/h^2) d_ij d'_ij E_ij:
      z'       = -(2/(m h^2)) (S_1[v] - v S_1[1]),   q' = -q^2 z'
      S_1[1]'  = S_0[v] - v S_0[1] - (2/h^2) (S_2[v] - v S_2[1])
      S_1[q]'  = S_1[q'] + S_0[qv] - v S_0[q] - (2/h^2) (S_2[qv] - v S_2[q])
      H v      = -c (S_1[q]' + q' S_1[1] + q S_1[1]')
    Each row is sorted once, and sums with weights 1 and q are formed once
    per r, in one provider call for all rows (for bounded memory, products
    at a long stack go through hvp_residual, which builds by chunks).  Each
    product permutes v in and H v out once, and needs weights v, qv and q'
    (q' after S_1[v]).
    """
    m = r.shape[-1]
    order, rs = _sorted_rows(r.reshape(-1, m))
    sums = (provider or _gauss_sums)(rs, h)
    one = sums(None, (0, 1, 2))
    q = m / one[0]
    sq0, sq2 = sums(q, (0, 2))
    c, k = 2.0 / (m * m * h * h), 2.0 / (h * h)

    def hvp(v):
        v = v.reshape(-1)[order]
        sv = sums(v, (0, 1, 2))
        qdot = (q * q) * (k / m) * (sv[1] - v * one[1])
        sqv0, sqv2 = sums(q * v, (0, 2))
        d_one = sv[0] - v * one[0] - k * (sv[2] - v * one[2])
        d_q = sums(qdot, (1,))[0] + sqv0 - v * sq0 - k * (sqv2 - v * sq2)
        return _unsort(-c * (d_q + qdot * one[1] + q * d_one),
                       order).reshape(r.shape)

    return hvp


# ---------------------------------------------------------------------------
# Residual-space values, gradients and Hessian-vector products
# ---------------------------------------------------------------------------

def _derivative(spec: LossSpec, x: np.ndarray, kernel_part,
                hvp: bool = False) -> np.ndarray:
    """spec's residual gradient at x = r from the kernel gradient there, or
    with hvp its Hessian-vector product along x = v from H_kernel v: for
    the MSE a copy of x (of 0.5 sum(r_i^2), Hessian I; the kernel part is
    unused), for the kernel loss the kernel part, and for the combined loss
    lam (2/m) r, or (2 lam/m) v, from the mean square (1/m) sum(r_i^2),
    plus (1 - lam) times the kernel part.  Row by row of a stack too, with
    the same bits.  The two mean-square terms round in different orders;
    stored sweep results depend on both, bit for bit.
    """
    if spec.kind == MSE:
        return x.copy()
    if spec.kind == KERNEL:
        return kernel_part
    lam, m = spec.lambda_mix, x.shape[-1]
    mse = (2.0 * lam / m) * x if hvp else lam * ((2.0 / m) * x)
    return mse + (1.0 - lam) * kernel_part


def _kernel_work(specs, work) -> dict:
    """{h: work(LossSpec.kernel(h))} for each bandwidth h among specs."""
    return {h: work(LossSpec.kernel(h)) for h in dict.fromkeys(
        s.h for s in specs if s.kind != MSE)}


def _loss_rows(specs, R: np.ndarray, grad: bool):
    """Values (an array) and, if grad, residual gradients (_derivative's;
    a stack, else None) of specs[i] at row i of the stack R, the MSE's value
    at 0.5 sum(r_i^2), with one kernel evaluation per bandwidth for all the
    rows that need it (on R itself when one bandwidth serves every row)."""
    kernel_rows = {}
    for i, spec in enumerate(specs):
        if spec.kind != MSE:
            kernel_rows.setdefault(spec.h, []).append(i)
    if [len(rows) for rows in kernel_rows.values()] == [len(R)]:
        (h,) = kernel_rows
        values, G = _kernel(R, h, grad)
    else:
        values, G = np.empty(len(R)), np.empty(R.shape) if grad else None
        for h, rows in kernel_rows.items():
            values[rows], kg = _kernel(R[rows], h, grad)
            if grad:
                G[rows] = kg
    for i, (spec, r) in enumerate(zip(specs, R)):
        if spec.kind == MSE:
            values[i] = 0.5 * float(r @ r)
        elif spec.kind == COMBINED:
            lam = spec.lambda_mix
            values[i] = lam * (float(r @ r) / r.size) + (1.0 - lam) * values[i]
        if grad:
            G[i] = _derivative(spec, r, G[i])
    return values, G


def _value_and_grad(spec: LossSpec, r: np.ndarray, grad: bool):
    """Loss value and, if grad, residual gradient (else None), for one
    residual vector (the value a float) or each row of a stack (..., m)."""
    r = np.asarray(r, dtype=float)
    rows = r.reshape(-1, r.shape[-1])
    values, G = _loss_rows((spec,) * len(rows), rows, grad)
    if r.ndim == 1:
        return float(values[0]), G[0] if grad else None
    return values.reshape(r.shape[:-1]), G.reshape(r.shape) if grad else None


def loss_value(spec: LossSpec, r: np.ndarray):
    """Loss evaluated on a residual vector (a float), or on each row of a
    stack of them (an array)."""
    return _value_and_grad(spec, r, grad=False)[0]


def kernel_row_means(r: np.ndarray, h: float) -> np.ndarray:
    """z_i = (1/m) sum_j exp(-(r_j - r_i)^2 / h^2), the kernel density
    estimate at each residual (O(m) from _FGT_MIN_M residuals on)."""
    h = LossSpec.kernel(h).h              # rejects h <= 0 and non-finite h
    r = np.asarray(r, dtype=float)
    if r.ndim != 1:
        raise ValueError(f"r must be one residual vector, got shape {r.shape}")
    order, rs = _sorted_rows(r.reshape(1, -1))
    return _unsort(_gauss_sums(rs, h)(None, (0,))[0] / r.size,
                   order).reshape(r.shape)


def grad_residual(spec: LossSpec, r: np.ndarray) -> np.ndarray:
    """dL/dr for the chosen loss, at one residual vector or at each row of
    a stack of them.

    It is also the gradient with respect to the noise vector w: b carries
    w additively and r = b - A(M), so dL/dw = dL/dr.  The kernel gradient's
    components sum to zero because the kernel loss depends only on pairwise
    differences (exactly up to rounding on the dense path, to the fast
    path's accuracy contract from _FGT_MIN_M residuals on).
    """
    return _value_and_grad(spec, r, grad=True)[1]


def loss_and_grad_residual(spec: LossSpec, r: np.ndarray):
    """Value and residual gradient from one kernel evaluation."""
    return _value_and_grad(spec, r, grad=True)


def _residual_hessian(spec: LossSpec, r: np.ndarray):
    """v -> H v at r (see hvp_residual), v-independent sums formed once."""
    kernel = _kernel_hessian(r, spec.h) if spec.kind != MSE else None
    return lambda v: _derivative(spec, v, kernel(v) if kernel else None,
                                 hvp=True)


def hvp_residual(spec: LossSpec, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Residual-space Hessian-vector product H v at r, for one residual
    vector or at each row of a stack along the same row of v: one Hessian
    build and product per chunk of rows (_row_chunks): the exact
    directional derivative of grad_residual along v for every kind.  The
    MSE's is H = I (a copy of v), so its matrix-space Hessian A*A has
    restricted eigenvalues in [1 - delta, 1 + delta].
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.shape != r.shape:
        raise ValueError(f"v must have shape {r.shape}, got {v.shape}")
    rows, vs = r.reshape(-1, r.shape[-1]), v.reshape(-1, r.shape[-1])
    out = np.empty(rows.shape)
    for c in _row_chunks(*rows.shape):
        out[c] = _residual_hessian(spec, rows[c])(vs[c])
    return out.reshape(r.shape)


# ---------------------------------------------------------------------------
# Matrix-space derivatives
# ---------------------------------------------------------------------------

def grad_M(spec: LossSpec, op: SensingOperator, b: np.ndarray,
           M: np.ndarray) -> np.ndarray:
    """Gradient in the lifted variable: -A*(dL/dr) evaluated at r = b - A(M)."""
    M = np.asarray(M)
    if M.shape != (op.n, op.n):
        raise ValueError(f"M must be {op.n} x {op.n}, got {M.shape}")
    r = _measurements(op, b) - apply_op(op, M)
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
    return ak, hvp_residual(spec, _measurements(op, b) - apply_op(op, M), ak)


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

    Lanczos iteration (Lanczos 1950; Parlett, The Symmetric Eigenvalue
    Problem, 1998) with full reorthogonalization on the Hessian-vector
    products A*(H A(v)), H formed once at r = b - A(M), started from a
    random symmetric unit matrix drawn from seed.  iters is the budget of
    Hessian-vector products, one per Lanczos step; the Krylov space cannot
    outgrow the n(n+1)/2 symmetric directions, so no more are made.  Step k
    takes the smallest eigenvalue theta of the k x k tridiagonal T_k, with
    eigenvector s.  Converged when the Ritz residual beta_k |s_k| (s_k the
    last entry of s) is at most 1e-8 max(1, |theta|), or on breakdown
    (beta_k <= 1e-12 ||T_k||: the Krylov space is invariant and theta
    exact).  Otherwise the last theta is returned with converged=False; it
    is never below the true minimum (Cauchy interlacing), only above it.
    A non-finite product gives value NaN with converged=False.
    """
    _check_count("iters", iters)
    b = _measurements(op, b)
    rng = np.random.default_rng(seed)
    n = op.n
    v = rng.standard_normal((n, n))
    v = 0.5 * (v + v.T)

    hess = _residual_hessian(spec, b - apply_op(op, M))
    steps = min(iters, n * (n + 1) // 2)
    basis = np.empty((steps + 1, n * n))
    basis[0] = (v / np.linalg.norm(v)).ravel()
    tri = np.zeros((steps + 1, steps + 1))          # T_k is tri[:k+1, :k+1]
    for k in range(steps):
        u = adjoint_op(op, hess(apply_op(op, basis[k].reshape(n, n)))).ravel()
        alpha = float(basis[k] @ u)
        # Classical Gram-Schmidt twice against the whole basis; this also
        # removes the three-term recurrence's alpha and beta components.
        for _ in range(2):
            u -= basis[:k + 1].T @ (basis[:k + 1] @ u)
        beta = float(np.linalg.norm(u))
        if not math.isfinite(alpha + beta):                 # non-finite H
            return LambdaMinResult(value=math.nan, converged=False,
                                   iterations=k + 1)
        tri[k, k] = alpha
        tri[k, k + 1] = tri[k + 1, k] = beta
        theta, s = np.linalg.eigh(tri[:k + 1, :k + 1])
        value = float(theta[0])
        if (beta <= 1e-12 * max(abs(theta[0]), abs(theta[-1]))
                or beta * abs(s[-1, 0]) <= 1e-8 * max(1.0, abs(value))):
            return LambdaMinResult(value=value, converged=True,
                                   iterations=k + 1)
        basis[k + 1] = u / beta
    return LambdaMinResult(value=value, converged=False, iterations=steps)
