# Sampling-based estimation of the scalar constants consumed by the bound
# calculators: noise/gradient coupling (zeta1, zeta2), restricted gradient
# Lipschitz constant (rho), noise-Lipschitz constants of gradient and
# Hessian (lambda1, lambda2), residual constants (G_min, B), and the
# finite-difference gradient oracle.
#
# All constants are defined as suprema over infinite sets; the estimators
# report sampled lower bounds, deterministic in the seed and monotone under
# nested sample counts (sample i always draws from child seed (seed, i)).
#
# Every derivative comes from the residual-space core in losses: exact
# gradients -A*(g) and Hessian forms <A(K), H A(L)> via hvp_residual.  The
# noise enters only through the residuals, so the Hessian's noise
# sensitivity is <A(K), (H(r + w1) - H(r + w2)) A(L)>.  The MSE follows
# the sum-normalized square loss (gradient -2 A*(r), Hessian 2 A*A): rho
# then equals 2 ||A*A|| on the restricted set, the gradient-vs-noise
# coupling is 2 A*(w), and zeta2 = lambda2 = 0 exactly.

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import SensingOperator, adjoint_op, apply_op, random_low_rank_symmetric
from .losses import (MSE, LossSpec, grad_M, grad_X, hvp_residual,
                     kernel_row_means, loss_value, residuals)

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


def _grad_for_constants(spec: LossSpec, op: SensingOperator, b, M) -> np.ndarray:
    if spec.kind == MSE:
        return -2.0 * adjoint_op(op, np.asarray(b) - apply_op(op, M))
    return grad_M(spec, op, b, M)


def _hess_gap(spec: LossSpec, op: SensingOperator, r1, r2, K, L) -> float:
    """[Hess L(r1) - Hess L(r2)](K, L) = <A(K), (H(r1) - H(r2)) A(L)>."""
    al = apply_op(op, L)
    return float(apply_op(op, K) @ (hvp_residual(spec, r1, al)
                                    - hvp_residual(spec, r2, al)))


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
    """(M, directions, w, ||w||) per sample of the zeta estimators; samples
    with ||w|| below the guard are skipped."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if mag_range is None:
        mag_range = (1e-3, max(float(np.linalg.norm(b)), 1e-3))
    M_base = np.asarray(M_base, dtype=float)
    k = max(1, min(op.n, rank))
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        M = M_base + scale * rng.uniform(0.0, 1.0) * \
            random_low_rank_symmetric(op.n, k, rng)
        directions = [random_low_rank_symmetric(op.n, k, rng)
                      for _ in range(dirs)]
        w = _sample_noise_dir(rng, op.m, mag_range)
        nw = np.linalg.norm(w)
        if nw >= _GUARD:
            yield M, directions, w, nw


def estimate_zeta1(spec: LossSpec, op: SensingOperator, b, M_base,
                   samples: int, seed: int, mag_range=None,
                   scale: float = 1.0, rank: int = 2) -> float:
    """Sampled sup of |<grad(M, w) - grad(M, 0), K>| / ||w||.

    grad(M, w) is the gradient with the measurements perturbed to b + w.
    M ranges over rank <= 2r-style perturbations of M_base, K over unit
    low-rank directions.  Samples with ||w|| below the guard are skipped;
    if everything is skipped the estimate is 0.
    """
    best = 0.0
    for M, (K,), w, nw in _noise_samples(op, b, M_base, samples, seed,
                                         mag_range, scale, rank, 1):
        diff = _grad_for_constants(spec, op, np.asarray(b) + w, M) \
            - _grad_for_constants(spec, op, b, M)
        best = max(best, abs(float(np.sum(diff * K))) / nw)
    return best


def estimate_zeta2(spec: LossSpec, op: SensingOperator, b, M_base,
                   samples: int, seed: int, mag_range=None,
                   scale: float = 1.0, rank: int = 2) -> float:
    """Sampled sup of |[Hess(M, w) - Hess(M, 0)](K, L)| / ||w||, sampled as
    in estimate_zeta1.  For the MSE the Hessian is 2 A*A independent of the
    measurements, so the difference is exactly zero.
    """
    best = 0.0
    for M, (K, L), w, nw in _noise_samples(op, b, M_base, samples, seed,
                                           mag_range, scale, rank, 2):
        r = np.asarray(b) - apply_op(op, M)
        best = max(best, abs(_hess_gap(spec, op, r + w, r, K, L)) / nw)
    return best


def estimate_rho(spec: LossSpec, op: SensingOperator, b, samples: int,
                 seed: int, rank: int = 2, scale: float = 1.0,
                 gap_range=(1e-3, 1.0)) -> float:
    """Sampled sup of ||grad(M) - grad(M')||_F / ||M - M'||_F.

    Pairs are rank <= rank symmetric matrices at log-uniform magnitudes,
    separated by a log-uniform gap from gap_range.  Degenerate pairs
    (denominator below the guard) are skipped; if every pair is degenerate
    a ValueError is raised.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rank = max(1, min(rank, op.n))
    best = 0.0
    used = 0
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        s = math.exp(rng.uniform(math.log(1e-2), math.log(max(scale, 1e-2))))
        if gap_range[1] <= 0:
            t = 0.0
        else:
            t = math.exp(rng.uniform(math.log(max(gap_range[0], 1e-12)),
                                     math.log(gap_range[1])))
        M = s * random_low_rank_symmetric(op.n, rank, rng)
        Mp = M + t * random_low_rank_symmetric(op.n, rank, rng)
        dn = np.linalg.norm(M - Mp)
        if dn < _GUARD:
            continue
        used += 1
        diff = _grad_for_constants(spec, op, b, M) \
            - _grad_for_constants(spec, op, b, Mp)
        best = max(best, float(np.linalg.norm(diff)) / dn)
    if used == 0:
        raise ValueError("all sampled pairs were degenerate (M' == M)")
    return best


def estimate_lambda12(spec: LossSpec, op: SensingOperator, b, M,
                      samples: int, seed: int, mag_range=None,
                      rank: int = 2) -> tuple:
    """Sampled sups of the gradient and Hessian noise-Lipschitz ratios.

    Returns (lambda1, lambda2) over noise pairs (w1, w2); pairs closer than
    the guard are excluded.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if mag_range is None:
        mag_range = (1e-3, max(float(np.linalg.norm(b)), 1e-3))
    M = np.asarray(M, dtype=float)
    r = np.asarray(b) - apply_op(op, M)
    lam1 = 0.0
    lam2 = 0.0
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        w1 = _sample_noise_dir(rng, op.m, mag_range)
        w2 = _sample_noise_dir(rng, op.m, mag_range)
        dw = np.linalg.norm(w1 - w2)
        if dw < _GUARD:
            continue
        b1 = np.asarray(b) + w1
        b2 = np.asarray(b) + w2
        g1 = _grad_for_constants(spec, op, b1, M)
        g2 = _grad_for_constants(spec, op, b2, M)
        lam1 = max(lam1, float(np.linalg.norm(g1 - g2)) / dw)
        k = max(1, min(op.n, rank))
        K = random_low_rank_symmetric(op.n, k, rng)
        L = random_low_rank_symmetric(op.n, k, rng)
        lam2 = max(lam2, abs(_hess_gap(spec, op, r + w1, r + w2, K, L)) / dw)
    return lam1, lam2


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

    def to_json(self) -> str:
        keys = ("zeta1", "zeta2", "rho", "lambda1", "lambda2", "g_min",
                "b_max", "l1", "l2", "samples", "seed")
        return json.dumps({k: getattr(self, k) for k in keys},
                          indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ConstantEstimates":
        return cls(**json.loads(text))


def estimate_constants(spec: LossSpec, instance, samples: int,
                       seed: int) -> ConstantEstimates:
    """Run every estimator on one instance and bundle the results.

    Residual constants are evaluated at the ground truth (residuals equal
    the realized noise; the MSE uses bandwidth 1); delta for the L1 formula
    comes from a sampled isometry probe at rank 2r.
    """
    from .model import estimate_rip

    op, b = instance.op, instance.measurements
    M_star = instance.truth.matrix
    h_eff = spec.h if spec.h is not None else 1.0
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(5)]
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
