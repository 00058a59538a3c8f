"""Output oracle: a dense reference for the three losses, written from the
paper's formulas and independent of kernsense.losses and kernsense.model.

    residuals  r = b - A(X X^T),  A(M)_i = <A_i, M>
    mse        0.5 * sum_i r_i^2
    kernel     (1/m) sum_i -log( (1/m) sum_j exp(-(r_j - r_i)^2 / h^2) )
    combined   lam * (1/m) sum_i r_i^2 + (1 - lam) * kernel

Each check returns a list of problems; an empty list means the output
passed.  Tolerances are relative and loose enough for any numerically
equivalent evaluation order or a faster path accurate to ~1e-10, and tight
enough to catch a wrong loss, gradient or error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALUE_RTOL = 1e-8
GRAD_RTOL = 1e-6
ERROR_RTOL = 1e-9
# Pairwise-kernel rows per block: bounds the reference's working set to a
# few MB so the benchmark's peak memory is the program's, not the oracle's.
_BLOCK_ELEMS = 1 << 20


@dataclass(frozen=True)
class Loss:
    kind: str            # "mse" | "kernel" | "combined"
    h: float = 1.0
    lam: float = 0.0


def measure(mats, M):
    """A(M): inner products <A_i, M> straight from the sensing matrices."""
    return np.tensordot(mats, M, axes=([1, 2], [0, 1]))


def kernel_value_grad(r, h):
    """Kernel loss and its residual gradient.

    With E_ij = exp(-(r_j - r_i)^2/h^2), z_i = (1/m) sum_j E_ij and
    W_ij = E_ij (r_j - r_i) / z_i, differentiating the definition gives
    dL/dr_k = 2/(m^2 h^2) * (sum_i W_ik - sum_j W_kj).
    """
    m = r.size
    rows = max(1, _BLOCK_ELEMS // m)
    log_z = np.empty(m)
    col = np.zeros(m)
    row = np.empty(m)
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        d = r[None, :] - r[lo:hi, None]
        w = np.exp(-(d / h) ** 2)
        z = w.sum(axis=1) / m
        log_z[lo:hi] = np.log(z)
        w *= d
        w /= z[:, None]
        row[lo:hi] = w.sum(axis=1)
        col += w.sum(axis=0)
    return -log_z.mean(), 2.0 / (m * m * h * h) * (col - row)


def loss_value_grad(loss: Loss, r):
    """(value, dL/dr) of the reference loss at residuals r."""
    if loss.kind == "mse":
        return 0.5 * float(r @ r), r.copy()
    kv, kg = kernel_value_grad(r, loss.h)
    if loss.kind == "kernel":
        return kv, kg
    m = r.size
    return (loss.lam * float(r @ r) / m + (1.0 - loss.lam) * kv,
            loss.lam * 2.0 / m * r + (1.0 - loss.lam) * kg)


def factor_value_grad(loss: Loss, mats, b, X):
    """(value, dL/dX); d<A_i, X X^T>/dX = 2 A_i X for symmetric A_i."""
    r = b - measure(mats, X @ X.T)
    val, g = loss_value_grad(loss, r)
    return val, -2.0 * np.tensordot(g, mats, axes=(0, 0)) @ X


def _close(got, want, rtol):
    return bool(np.isfinite(got)) and abs(got - want) <= rtol * abs(want)


@dataclass(frozen=True)
class SolveOutput:
    """What the program reported for one solve."""

    X_hat: np.ndarray
    first_loss: float         # reported loss at the start point
    final_loss: float
    final_error: float
    grad: np.ndarray          # the program's grad_X at X_hat
    iterations: int
    termination: str
    trace_len: int


def check_solve(loss: Loss, mats, b, M_star, iters, out: SolveOutput):
    """A fixed-length solve: finite, descended, and its reported loss,
    error and gradient at X_hat agree with the reference."""
    problems = []
    if out.termination == "non_finite" or not np.all(np.isfinite(out.X_hat)):
        return [f"non-finite solve ({out.termination})"]
    if out.iterations != iters or out.trace_len != iters + 1:
        problems.append(f"ran {out.iterations} iterations with a trace of "
                        f"{out.trace_len}, expected {iters}")
    val, grad = factor_value_grad(loss, mats, b, out.X_hat)
    if not _close(out.final_loss, val, VALUE_RTOL):
        problems.append(f"final loss {out.final_loss!r} vs reference {val!r}")
    if not out.final_loss < out.first_loss:
        problems.append(f"no descent: loss {out.final_loss!r} from "
                        f"{out.first_loss!r}")
    err = float(np.linalg.norm(out.X_hat @ out.X_hat.T - M_star))
    if not _close(out.final_error, err, ERROR_RTOL):
        problems.append(f"final error {out.final_error!r} vs reference {err!r}")
    gdiff = float(np.linalg.norm(out.grad - grad))
    if not gdiff <= GRAD_RTOL * float(np.linalg.norm(grad)):
        problems.append(f"gradient off the reference by {gdiff:.3e} "
                        f"(reference norm {np.linalg.norm(grad):.3e})")
    return problems


def check_sweep(rows, losses, eps_grid, norm_m_star):
    """Sweep rows: one per (loss, eps) in order, finite, real error below
    ||M*||_F, positive bound and Lipschitz estimate, no solver failure."""
    want = [(loss, eps) for loss in losses for eps in eps_grid]
    got = [(r.loss, r.epsilon) for r in rows]
    if got != want:
        return [f"rows {got} != expected {want}"]
    problems = []
    for r in rows:
        tag = f"{r.loss}@{r.epsilon:g}"
        nums = (r.real_error, r.bound_error, r.lipschitz_L, r.hessian_H)
        if not all(math.isfinite(x) for x in nums):
            problems.append(f"{tag}: non-finite field in {nums}")
            continue
        if not 0.0 <= r.real_error < norm_m_star:
            problems.append(f"{tag}: real_error {r.real_error!r} outside "
                            f"[0, ||M*||_F={norm_m_star:.4g})")
        if not (r.bound_error > 0 and r.lipschitz_L > 0 and r.hessian_H >= 0):
            problems.append(f"{tag}: non-positive bound or constant {nums}")
        if "non_finite" in r.flags or "bound_precondition" in r.flags:
            problems.append(f"{tag}: flags {r.flags}")
    return problems


def residual_constants(w, h):
    """(G_min, B) at the truth, where the residuals equal the noise w."""
    m = w.size
    rows = max(1, _BLOCK_ELEMS // m)
    g_min = math.inf
    for lo in range(0, m, rows):
        d = w[None, :] - w[lo:lo + rows, None]
        g_min = min(g_min, float(np.exp(-(d / h) ** 2).mean(axis=1).min()))
    return g_min, float(w.max() - w.min())


def check_constants(est, lam_min, noise, h):
    """Estimated constants finite and >= 0; residual constants match the
    reference; the smallest Hessian eigenvalue estimate is finite."""
    problems = []
    names = ("zeta1", "zeta2", "rho", "lambda1", "lambda2", "g_min", "b_max",
             "l1", "l2")
    for name in names:
        v = float(getattr(est, name))
        if not (math.isfinite(v) and v >= 0):
            problems.append(f"{name} = {v!r}")
    g_min, b_max = residual_constants(noise, h)
    if not _close(float(est.g_min), g_min, VALUE_RTOL):
        problems.append(f"g_min {est.g_min!r} vs reference {g_min!r}")
    if not _close(float(est.b_max), b_max, VALUE_RTOL):
        problems.append(f"b_max {est.b_max!r} vs reference {b_max!r}")
    if not float(est.l1) >= 2.0:
        problems.append(f"l1 = 2(1 + delta) below 2: {est.l1!r}")
    if not (math.isfinite(lam_min.value) and lam_min.iterations >= 1):
        problems.append(f"lambda_min {lam_min!r}")
    return problems
