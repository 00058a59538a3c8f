# Sampling-based estimation of the scalar constants consumed by the bound
# calculators: noise/gradient coupling (zeta1, zeta2), restricted gradient
# Lipschitz constant (rho), noise-Lipschitz constants of gradient and
# Hessian (lambda1, lambda2), residual constants (G_min, B), and the
# finite-difference gradient oracle.
#
# All constants are defined as suprema over infinite sets; the estimators
# report sampled lower bounds, deterministic in the seed and monotone under
# nested sample counts (sample i always draws from child seed (seed, i)).
# model._draws writes that contract once, with its count check: every
# estimator here, and model.estimate_rip, draws its samples through it.
#
# Each estimator first draws all its samples, in order and with its guard
# skips, and stacks them.  The stack goes through one apply_op, and every
# gradient difference through one adjoint_op of stacked residual-gradient
# differences (A* is linear: grad(M) - grad(M') = A*(g(r') - g(r)) for
# grad(M) = -A*(g(r)), r = b - A(M)); the residual vectors' kernel
# gradients, Hessian builds and Hessian-vector products go through one
# stacked kernel call per bandwidth (one fast Gauss transform per chunk of
# rows).  Stacked operator calls give each item the same bits whatever else
# is in the stack (model._OP_BLOCK), and so do the stacked kernel calls, so
# a sample's value, and with it the monotonicity above, never depends on
# the sample count.
#
# The samples depend on the seed, not on the loss, so estimate_rho and
# estimate_lambda12 also take a tuple of LossSpecs and give one result per
# spec from one shared sample set: one draw and one stacked apply_op, the
# kernel work once per bandwidth (losses._kernel_work) and each spec's
# derivatives assembled from it as its one-loss functions do.  Each
# spec keeps its own stacked adjoint_op, so every result equals the spec's
# own call bit for bit.  rho's pairs do not depend on b either, so
# estimate_rho also takes a stack of measurement vectors (the sweep's
# epsilon grid) and draws and applies its pairs once for all of them.
#
# No loss formula is written here: the MSE, kernel and combined gradients
# -A*(g) and Hessian forms <A(K), H A(L)> are kernel work from losses
# assembled by losses._derivative.  The noise enters only through the
# residuals, so the Hessian's noise sensitivity is
# <A(K), (H(r + w1) - H(r + w2)) A(L)>.  The MSE is losses' 0.5 sum(r_i^2)
# (gradient -A*(r), Hessian A*A): rho equals ||A*A|| on the restricted set,
# the gradient-vs-noise coupling is A*(w), zeta2 = lambda2 = 0 exactly, and
# only ConstantEstimates.l1 = 2(1 + delta) keeps bounds' sum(r_i^2) scale.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SensingOperator, _derived_seeds, _draws, adjoint_op,
                    apply_op, estimate_rip, random_low_rank_symmetric)
from .losses import (LossSpec, _derivative, _kernel_work, _measurements,
                     grad_residual, grad_X, hvp_residual, kernel_row_means,
                     loss_value, residuals)

__all__ = [
    "ConstantEstimates",
    "estimate_zeta1",
    "estimate_zeta2",
    "estimate_rho",
    "estimate_lambda12",
    "residual_constants",
    "finite_diff_check",
    "FiniteDiffReport",
    "estimate_constants",
]

_GUARD = 1e-12


def _specs(spec) -> tuple:
    """The estimators take one LossSpec or a tuple of them."""
    return spec if isinstance(spec, tuple) else (spec,)


def _grad_gaps(specs, op: SensingOperator, r):
    """Per spec, in turn, grad at r1 minus grad at r2 for the residual
    pairs r[..., 0, :] = r1 and r[..., 1, :] = r2: by linearity of A*,
    -A*(g(r1)) + A*(g(r2)) = A*(g(r2) - g(r1)), one stacked adjoint per
    spec.  The kernel gradients of all rows are one evaluation per
    bandwidth."""
    kernel = _kernel_work(specs, lambda k: grad_residual(k, r))
    for s in specs:
        g = _derivative(s, r, kernel.get(s.h))
        yield adjoint_op(op, g[..., 1, :] - g[..., 0, :])


def _hess_gaps(specs, r1, r2, ak, al) -> list:
    """Per spec, [Hess L(r1) - Hess L(r2)](K, L) =
    <A(K), (H(r1) - H(r2)) A(L)>: a float for vectors r1, r2, ak, al, else a
    list, one per row of those stacks.  The kernel Hessian builds and
    products of all r1 and r2 rows are one hvp_residual call per
    bandwidth."""
    r, v = np.stack((r1, r2)), np.stack((al, al))
    kernel = _kernel_work(specs, lambda k: hvp_residual(k, r, v))
    ak = np.reshape(ak, (-1, ak.shape[-1]))

    def gaps(s):
        h12 = _derivative(s, v, kernel.get(s.h), hvp=True)
        diff = (h12[0] - h12[1]).reshape(ak.shape)
        out = [float(a @ d) for a, d in zip(ak, diff)]
        return out[0] if np.ndim(r1) == 1 else out

    return [gaps(s) for s in specs]


def _sample_noise_dir(rng, m: int, mag_range) -> np.ndarray:
    """Uniform direction on the sphere with log-uniform magnitude.

    The magnitude range spans perturbative through large-noise regimes,
    which the exponential kernel treats very differently.
    """
    lo, hi = mag_range
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    if hi <= 0:
        return 0.0 * v
    lo = max(lo, 1e-12)
    mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return mag * v


def _noise_samples(op: SensingOperator, b, M_base, samples: int, seed: int,
                   mag_range, scale: float, rank: int, dirs: int):
    """Stacks (matrices, w, ||w||) of the zeta estimators' kept samples:
    matrices[i] holds M and then `dirs` directions; samples with ||w|| below
    the guard are skipped.  None when every sample is skipped."""
    b = _measurements(op, b)
    if mag_range is None:
        mag_range = (1e-3, max(float(np.linalg.norm(b)), 1e-3))
    M_base = np.asarray(M_base, dtype=float)
    k = max(1, min(op.n, rank))

    def draw(rng):
        M = M_base + scale * rng.uniform(0.0, 1.0) * \
            random_low_rank_symmetric(op.n, k, rng)
        mats = [M] + [random_low_rank_symmetric(op.n, k, rng)
                      for _ in range(dirs)]
        w = _sample_noise_dir(rng, op.m, mag_range)
        nw = np.linalg.norm(w)
        return (mats, w, nw) if nw >= _GUARD else None

    return _draws("samples", samples, seed, draw)


def estimate_zeta1(spec: LossSpec, op: SensingOperator, b, M_base,
                   samples: int, seed: int, mag_range=None,
                   scale: float = 1.0, rank: int = 2) -> float:
    """Sampled sup of |<grad(M, w) - grad(M, 0), K>| / ||w||.

    grad(M, w) is the gradient with the measurements perturbed to b + w.
    M ranges over rank <= 2r-style perturbations of M_base, K over unit
    low-rank directions.  Samples with ||w|| below the guard are skipped;
    if everything is skipped the estimate is 0.
    """
    stacks = _noise_samples(op, b, M_base, samples, seed, mag_range, scale,
                            rank, 1)
    if stacks is None:
        return 0.0
    mats, w, nw = stacks
    r = np.asarray(b) - apply_op(op, mats[:, 0])
    gaps, = _grad_gaps((spec,), op, np.stack((r + w, r), axis=-2))
    return max(abs(float(np.sum(gap * K))) / norm
               for gap, K, norm in zip(gaps, mats[:, 1], nw))


def estimate_zeta2(spec: LossSpec, op: SensingOperator, b, M_base,
                   samples: int, seed: int, mag_range=None,
                   scale: float = 1.0, rank: int = 2) -> float:
    """Sampled sup of |[Hess(M, w) - Hess(M, 0)](K, L)| / ||w||, sampled as
    in estimate_zeta1.  For the MSE (0.5 sum(r_i^2)) the Hessian is A*A
    independent of the measurements, so the difference is exactly zero.
    """
    stacks = _noise_samples(op, b, M_base, samples, seed, mag_range, scale,
                            rank, 2)
    if stacks is None:
        return 0.0
    mats, w, nw = stacks
    a = apply_op(op, mats)                  # rows A(M), A(K), A(L)
    r = np.asarray(b) - a[:, 0]
    gaps, = _hess_gaps((spec,), r + w, r, a[:, 1], a[:, 2])
    return max(abs(gap) / norm for gap, norm in zip(gaps, nw))


def estimate_rho(spec, op: SensingOperator, b, samples: int, seed: int,
                 rank: int = 2, scale: float = 1.0):
    """Sampled sup of ||grad(M) - grad(M')||_F / ||M - M'||_F.

    Pairs are rank <= rank symmetric matrices at log-uniform magnitudes,
    separated by a unit-norm rank <= rank step of log-uniform length in
    [1e-3, 1], so no pair is degenerate.  spec is a LossSpec, or a tuple
    of them for one estimate per spec, in order, from one sample set: each
    gives what it gives alone.  b is one measurement vector, or an (E, m)
    stack of them for a tuple of E results, one per row, each what that row
    gives alone: the pairs depend on the seed, rank and scale, not on b, so
    they are drawn and applied once for all rows.
    """
    b = _measurements(op, b, stack=True)
    rank = max(1, min(rank, op.n))

    def draw(rng):
        s = math.exp(rng.uniform(math.log(1e-2), math.log(max(scale, 1e-2))))
        t = math.exp(rng.uniform(math.log(1e-3), math.log(1.0)))
        M = s * random_low_rank_symmetric(op.n, rank, rng)
        Mp = M + t * random_low_rank_symmetric(op.n, rank, rng)
        return (M, Mp), np.linalg.norm(M - Mp)

    mats, dn = _draws("samples", samples, seed, draw)
    r = b[..., None, None, :] - apply_op(op, mats)      # (E?, samples, 2, m)
    rho = [tuple(max(float(np.linalg.norm(gap)) / d for gap, d in zip(gaps, dn))
                 for gaps in _grad_gaps(_specs(spec), op, pairs))
           for pairs in r.reshape((-1,) + r.shape[-3:])]
    if not isinstance(spec, tuple):
        rho = [per_spec[0] for per_spec in rho]
    return tuple(rho) if b.ndim == 2 else rho[0]


def estimate_lambda12(spec, op: SensingOperator, b, M, samples: int,
                      seed: int, mag_range=None, rank: int = 2) -> tuple:
    """Sampled sups of the gradient and Hessian noise-Lipschitz ratios.

    Returns (lambda1, lambda2) over noise pairs (w1, w2); pairs closer than
    the guard are excluded.  spec is a LossSpec, or a tuple of them for one
    (lambda1, lambda2) per spec, in order, from one sample set: each gives
    what it gives alone.
    """
    b = _measurements(op, b)
    if mag_range is None:
        mag_range = (1e-3, max(float(np.linalg.norm(b)), 1e-3))
    specs = _specs(spec)
    M = np.asarray(M, dtype=float)
    r = b - apply_op(op, M)
    k = max(1, min(op.n, rank))

    def draw(rng):
        w1 = _sample_noise_dir(rng, op.m, mag_range)
        w2 = _sample_noise_dir(rng, op.m, mag_range)
        dw = np.linalg.norm(w1 - w2)
        if dw < _GUARD:
            return None
        KL = [random_low_rank_symmetric(op.n, k, rng) for _ in range(2)]
        return (r + w1, r + w2), KL, dw

    stacks = _draws("samples", samples, seed, draw)
    if stacks is None:
        lam = ((0.0, 0.0),) * len(specs)
    else:
        rw, dirs, dw = stacks
        grads = _grad_gaps(specs, op, rw)
        a = apply_op(op, dirs)                  # rows A(K), A(L)
        hess = _hess_gaps(specs, rw[:, 0], rw[:, 1], a[:, 0], a[:, 1])
        lam = tuple(
            (max(float(np.linalg.norm(g)) / d for g, d in zip(gaps, dw)),
             max(abs(h) / d for h, d in zip(hs, dw)))
            for gaps, hs in zip(grads, hess))
    return lam if isinstance(spec, tuple) else lam[0]


def residual_constants(r: np.ndarray, h: float) -> tuple:
    """(G_min, B): minimum kernel row average and residual diameter.

    B = max_{i,j} |r_j - r_i| and G_i = (1/m) sum_j exp(-(r_j-r_i)^2/h^2)
    (losses.kernel_row_means); termwise bounds give
    exp(-B^2/h^2) <= G_min <= 1.
    """
    r = np.asarray(r, dtype=float)
    g = kernel_row_means(r, h)
    return float(g.min()), float(r.max() - r.min())


@dataclass(frozen=True)
class FiniteDiffReport:
    max_rel_err: float
    passed: bool
    vacuous: bool
    grad_norm: float


def finite_diff_check(spec: LossSpec, op: SensingOperator, b, X,
                      tol: float = 1e-6, grad_fn=None) -> FiniteDiffReport:
    """Validate grad_X against entrywise central finite differences.

    Relative error is measured against the largest finite-difference entry.
    A zero-gradient point (both below 1e-10) passes vacuously.  grad_fn
    overrides the analytic gradient; it exists so verification suites can
    prove the check rejects a corrupted gradient.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    X = np.asarray(X, dtype=float)
    ga = grad_fn(spec, op, b, X) if grad_fn is not None else grad_X(spec, op, b, X)
    t = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + float(np.abs(X).max()))
    fd = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp = X.copy()
            Xp[i, j] += t
            Xm = X.copy()
            Xm[i, j] -= t
            fp = loss_value(spec, residuals(op, b, Xp))
            fm = loss_value(spec, residuals(op, b, Xm))
            fd[i, j] = (fp - fm) / (2.0 * t)
    scale = float(np.abs(fd).max())
    gnorm = float(np.linalg.norm(ga))
    # Central differences bottom out around eps^(2/3) even when the true
    # gradient vanishes; treat a zero analytic gradient with FD below that
    # floor as a vacuous pass.
    if gnorm < 1e-10 and scale < 1e-7:
        return FiniteDiffReport(0.0, True, True, gnorm)
    err = float(np.abs(ga - fd).max()) / max(scale, 1e-300)
    return FiniteDiffReport(err, err < tol, False, gnorm)


@dataclass(frozen=True)
class ConstantEstimates:
    """Bundle of estimated constants; suprema over samples, seeded.

    l1 is reported by formula as 2(1 + delta) and l2 as 0: both follow
    from linearity of the sensing map, not from sampling.
    """

    zeta1: float
    zeta2: float
    rho: float
    lambda1: float
    lambda2: float
    g_min: float
    b_max: float
    l1: float
    l2: float
    samples: int
    seed: int


def estimate_constants(spec: LossSpec, instance, samples: int,
                       seed: int) -> ConstantEstimates:
    """Run every estimator on one instance and bundle the results.

    Residual constants are evaluated at the ground truth (residuals equal
    the realized noise; the MSE uses bandwidth 1); delta for the L1 formula
    comes from a sampled isometry probe at rank 2r.
    """
    op, b = instance.op, instance.measurements
    M_star = instance.truth.matrix
    h_eff = spec.h if spec.h is not None else 1.0
    seeds = _derived_seeds(seed, 5)
    scale = max(1.0, float(np.linalg.norm(M_star)))

    rank2 = min(2 * instance.truth.r, op.n)
    z1 = estimate_zeta1(spec, op, b, M_star, samples, seeds[0],
                        scale=scale, rank=rank2)
    z2 = estimate_zeta2(spec, op, b, M_star, samples, seeds[1],
                        scale=scale, rank=rank2)
    rho = estimate_rho(spec, op, b, samples, seeds[2],
                       rank=instance.truth.r, scale=scale)
    lam1, lam2 = estimate_lambda12(spec, op, b, M_star, samples, seeds[3],
                                   rank=rank2)
    g_min, b_max = residual_constants(instance.noise, h_eff)
    delta = estimate_rip(op, min(2 * instance.truth.r, op.n), max(16, samples),
                         seeds[4]).delta_hat
    return ConstantEstimates(zeta1=z1, zeta2=z2, rho=rho, lambda1=lam1,
                             lambda2=lam2, g_min=g_min, b_max=b_max,
                             l1=2.0 * (1.0 + delta), l2=0.0,
                             samples=samples, seed=seed)
