# Problem generation: ground-truth low-rank PSD matrices, Gaussian sensing
# operators with measurable near-isometry constants, noise models, and the
# sub-Gaussian norm-probability formula.
#
# Conventions
# -----------
# - A ground truth is M* = X* X*^T with X* an n x r factor.
# - A sensing operator maps a symmetric n x n matrix M to the vector with
#   entries <A_i, M> = tr(A_i^T M); every A_i is symmetric.
# - Packed storage: since every A_i is symmetric, the operator stores only
#   its upper triangle.  Row i of the (m, n(n+1)/2) matrix P holds the
#   entries (A_i)_ab, a <= b, in np.triu_indices(n) order (LAPACK's packed
#   symmetric layout, row by row).  apply_op weights each off-diagonal
#   entry by M_ab + M_ba, adjoint_op writes each packed entry into both
#   triangles; op.mats unpacks the full (m, n, n) array on demand.
# - Measurements are b = A(M*) + w for a noise vector w of length m.
# - Every generator is a pure function of (parameters, seed).

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroundTruth",
    "SensingOperator",
    "RipEstimate",
    "NoiseModel",
    "ProblemInstance",
    "gen_ground_truth",
    "gen_gaussian_operator",
    "orthonormal_basis_operator",
    "apply_op",
    "adjoint_op",
    "estimate_rip",
    "sample_noise",
    "prob_norm_bound",
    "make_instance",
    "instance_to_json",
    "instance_from_json",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundTruth:
    """Rank-r PSD ground truth M* = X* X*^T with a prescribed spectrum."""

    n: int
    r: int
    factor: np.ndarray    # (n, r)
    matrix: np.ndarray    # (n, n), symmetric PSD
    spectrum: tuple       # r positive eigenvalues of M*


# Standard normals drawn per block by gen_gaussian_operator (512 KB), so
# the draw's working set stays small beside P.
_GEN_BLOCK_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=8)
def _packing(n: int):
    """Index arrays of the packed layout for dimension n (read-only).

    iu: the np.triu_indices(n) pair; diag: packed positions of the diagonal
    entries; full: (n, n) map from (a, b) to the packed position of
    (min(a, b), max(a, b)).
    """
    iu = np.triu_indices(n)
    diag = np.flatnonzero(iu[0] == iu[1])
    full = np.empty((n, n), dtype=np.intp)
    full[iu] = full[iu[::-1]] = np.arange(iu[0].size)
    for a in (*iu, diag, full):
        a.flags.writeable = False
    return iu, diag, full


@dataclass(frozen=True)
class SensingOperator:
    """Linear map from symmetric n x n matrices to R^m via <A_i, M>.

    P (m, n(n+1)/2) is the only storage: row i is the upper triangle of
    A_i in np.triu_indices(n) order.
    """

    n: int
    m: int
    P: np.ndarray

    def __post_init__(self):
        shape = (self.m, self.n * (self.n + 1) // 2)
        if self.P.shape != shape:
            raise ValueError(f"packed matrix for n={self.n}, m={self.m} must "
                             f"be {shape}, got {self.P.shape}")

    @classmethod
    def from_mats(cls, mats: np.ndarray) -> "SensingOperator":
        """Pack a full (m, n, n) array of exactly symmetric matrices."""
        mats = np.asarray(mats, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected an (m, n, n) array, got {mats.shape}")
        if not np.array_equal(mats, mats.transpose(0, 2, 1)):
            raise ValueError("sensing matrices must be symmetric")
        m, n = mats.shape[:2]
        iu = _packing(n)[0]
        return cls(n=n, m=m, P=mats[:, iu[0], iu[1]])

    @property
    def mats(self) -> np.ndarray:
        """The full (m, n, n) array, unpacked on every access (not cached)."""
        return np.take(self.P, _packing(self.n)[2], axis=1)


@dataclass(frozen=True)
class RipEstimate:
    """Sampled lower bound on the restricted-isometry constant.

    delta_hat is the max over sampled rank <= rank_tested symmetric X of
    |  ||A(X)||^2 / ||X||_F^2  - 1 |.  A certified constant would require a
    search over the whole manifold, so this is a lower bound on the true
    value, not a certificate.
    """

    delta_hat: float
    rank_tested: int
    trials: int
    seed: int


@dataclass(frozen=True)
class NoiseModel:
    """Noise distribution tag plus parameters.

    kind is one of {"gaussian", "sub_gaussian_scaled", "uniform", "laplace",
    "student_t"}.  With centered=True the empirical mean of each sample is
    subtracted, which matters for losses that are blind to a constant
    residual offset.
    """

    kind: str
    params: dict
    centered: bool = False

    # Parameters each kind requires.
    _PARAMS = {"gaussian": ("sigma",), "sub_gaussian_scaled": ("sigma0",),
               "uniform": ("a", "b"), "laplace": ("scale",),
               "student_t": ("dof", "scale")}

    def __post_init__(self):
        if self.kind not in self._PARAMS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        p = self.params
        for key in self._PARAMS[self.kind]:
            if key not in p:
                raise ValueError(f"{self.kind} noise needs parameter {key!r}")
            if not (isinstance(p[key], numbers.Real) and math.isfinite(p[key])):
                raise ValueError(f"noise parameter {key} must be a finite "
                                 f"number, got {p[key]!r}")
        if self.kind == "gaussian" and p["sigma"] < 0:
            raise ValueError("gaussian sigma must be >= 0")
        if self.kind == "sub_gaussian_scaled" and p["sigma0"] < 0:
            raise ValueError("sub_gaussian_scaled sigma0 must be >= 0")
        if self.kind == "uniform" and not p["a"] < p["b"]:
            raise ValueError("uniform requires a < b")
        if self.kind == "laplace" and p["scale"] <= 0:
            raise ValueError("laplace scale must be > 0")
        if self.kind == "student_t" and (p["dof"] <= 0 or p["scale"] <= 0):
            raise ValueError("student_t requires dof > 0 and scale > 0")

    @classmethod
    def gaussian(cls, sigma: float, centered: bool = False) -> "NoiseModel":
        return cls("gaussian", {"sigma": float(sigma)}, centered)

    @classmethod
    def sub_gaussian_scaled(cls, sigma0: float, centered: bool = False) -> "NoiseModel":
        """Per-entry scale sigma0 / sqrt(m): the vector norm stays O(sigma0)."""
        return cls("sub_gaussian_scaled", {"sigma0": float(sigma0)}, centered)

    @classmethod
    def uniform(cls, a: float, b: float, centered: bool = False) -> "NoiseModel":
        return cls("uniform", {"a": float(a), "b": float(b)}, centered)

    @classmethod
    def laplace(cls, scale: float, centered: bool = False) -> "NoiseModel":
        return cls("laplace", {"scale": float(scale)}, centered)

    @classmethod
    def student_t(cls, dof: float, scale: float, centered: bool = False) -> "NoiseModel":
        return cls("student_t", {"dof": float(dof), "scale": float(scale)}, centered)


@dataclass(frozen=True)
class ProblemInstance:
    """Ground truth, operator, noise and measurements bundled together.

    measurements = apply_op(op, truth.matrix) + noise, exactly by
    construction.  The instance regenerates bit-identically from
    (n, r, m, spectrum, noise_model, seed); see make_instance.
    """

    truth: GroundTruth
    op: SensingOperator
    noise: np.ndarray          # w, length m
    measurements: np.ndarray   # b = A(M*) + w
    noise_model: NoiseModel
    seed: int


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _derived_seeds(seed: int, k: int) -> list[int]:
    """k deterministic child seeds of a base seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def gen_ground_truth(n: int, r: int, spectrum, seed: int) -> GroundTruth:
    """
    Generate a rank-r PSD ground truth with the given eigenvalues.

    The factor is X* = Q diag(sqrt(spectrum)) with Q a Haar-random n x r
    orthonormal frame, so M* = X* X*^T has exactly the requested nonzero
    spectrum.

    Parameters
    ----------
    n, r : int
        Dimension and rank, 1 <= r <= n.
    spectrum : sequence of r positive floats
        Nonzero eigenvalues of M*.
    seed : int
        Deterministic seed.
    """
    spectrum = tuple(float(s) for s in np.atleast_1d(spectrum))
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if len(spectrum) != r:
        raise ValueError(f"spectrum must have r={r} entries, got {len(spectrum)}")
    if any(s <= 0 for s in spectrum):
        raise ValueError("spectrum entries must be > 0")

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, r))
    q, rr = np.linalg.qr(g)
    # Sign fix makes the distribution Haar and the output reproducible.
    q = q * np.sign(np.diag(rr))
    factor = q * np.sqrt(np.asarray(spectrum))
    matrix = factor @ factor.T
    matrix = 0.5 * (matrix + matrix.T)
    return GroundTruth(n=n, r=r, factor=factor, matrix=matrix, spectrum=spectrum)


def gen_gaussian_operator(n: int, m: int, seed: int) -> SensingOperator:
    """
    Gaussian sensing operator with A_i = sym(G_i) / sqrt(m).

    Each G_i has i.i.d. standard normal entries and sym(G) = (G + G^T)/2.
    For symmetric M, <sym(G), M> = <G, M>, so E ||A(M)||^2 = ||M||_F^2:
    the operator is an isometry in expectation and concentrates for large m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    iu = _packing(n)[0]
    P = np.empty((m, iu[0].size))
    # Row blocks read the same standard-normal stream as one (m, n, n) draw
    # and apply the same expression entrywise, so op.mats is bit-identical
    # to 0.5 * (g + g^T) / sqrt(m) of that draw without holding it.
    rows = max(1, _GEN_BLOCK_ENTRIES // (n * n))
    for i in range(0, m, rows):
        g = rng.standard_normal((min(rows, m - i), n, n))
        P[i:i + rows] = 0.5 * (g[:, iu[0], iu[1]] + g[:, iu[1], iu[0]]) / np.sqrt(m)
    return SensingOperator(n=n, m=m, P=P)


def orthonormal_basis_operator(n: int) -> SensingOperator:
    """
    Exact-isometry operator from the symmetrized elementary basis.

    Uses all n^2 matrices sym(e_a e_b^T); for symmetric X the measurement
    vector is just the entries X_ab, hence ||A(X)||^2 = ||X||_F^2 exactly
    and the restricted-isometry constant is 0.
    """
    eye = np.eye(n)
    mats = np.empty((n * n, n, n))
    k = 0
    for a in range(n):
        for b in range(n):
            e = np.outer(eye[a], eye[b])
            mats[k] = 0.5 * (e + e.T)
            k += 1
    return SensingOperator.from_mats(mats)


def apply_op(op: SensingOperator, M: np.ndarray) -> np.ndarray:
    """Apply the sensing map: component i is <A_i, M>."""
    M = np.asarray(M)
    if M.shape != (op.n, op.n):
        raise ValueError(f"expected {(op.n, op.n)} matrix, got {M.shape}")
    iu, diag, _ = _packing(op.n)
    x = (M + M.T)[iu]
    x[diag] = M.diagonal()
    return op.P @ x


def adjoint_op(op: SensingOperator, v: np.ndarray) -> np.ndarray:
    """Adjoint map: sum_i v_i A_i, an exactly symmetric n x n matrix."""
    v = np.asarray(v)
    if v.shape != (op.m,):
        raise ValueError(f"expected length-{op.m} vector, got {v.shape}")
    return (v @ op.P)[_packing(op.n)[2]]


def random_low_rank_symmetric(n: int, rank: int, rng) -> np.ndarray:
    """Random indefinite symmetric matrix of rank <= rank, unit Frobenius.

    Built as G G^T - H H^T with widths ceil(rank/2) and floor(rank/2), which
    spans rank <= rank symmetric matrices of either signature (for rank 1
    the negative block is empty, which covers rank-1 matrices up to sign).
    """
    kp = (rank + 1) // 2
    km = rank // 2
    g = rng.standard_normal((n, kp))
    x = g @ g.T
    if km > 0:
        h = rng.standard_normal((n, km))
        x -= h @ h.T
    nrm = np.linalg.norm(x)
    if nrm < 1e-14:  # essentially impossible, but keep the contract total
        x = np.eye(n)[:, :1] @ np.eye(n)[:1, :]
        nrm = 1.0
    return x / nrm


def estimate_rip(op: SensingOperator, rank: int, trials: int, seed: int) -> RipEstimate:
    """
    Monte-Carlo lower bound on the rank-`rank` isometry defect.

    Samples `trials` random rank <= rank symmetric test matrices X and
    records the worst |  ||A(X)||^2 / ||X||_F^2 - 1 |.  Trial t draws from a
    child seed (seed, t) so nested trial counts give nested sample sets.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rank > op.n:
        raise ValueError("rank must be <= n")
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x = random_low_rank_symmetric(op.n, rank, rng)
        ratio = float(np.sum(apply_op(op, x) ** 2))  # ||x||_F = 1
        worst = max(worst, abs(ratio - 1.0))
    return RipEstimate(delta_hat=worst, rank_tested=rank, trials=trials, seed=seed)


def full_rank_defect(op: SensingOperator) -> float:
    """Exact isometry defect over the whole symmetric space.

    Builds the operator's Gram matrix on an orthonormal basis of symmetric
    matrices and returns max |eig - 1|.  Unlike the rank-restricted constant
    (whose certification is NP-hard and which estimate_rip only samples),
    the unrestricted defect is a plain eigenvalue computation; it upper
    bounds every rank-restricted constant and is the right comparison point
    for curvature floors of quadratic losses, whose Hessian acts on the
    full symmetric space.
    """
    # On the basis e_aa and (e_ab + e_ba)/sqrt(2), a < b, the coordinates
    # of A_i are its packed entries with the off-diagonal ones times sqrt(2).
    w = np.full(op.P.shape[1], np.sqrt(2.0))
    w[_packing(op.n)[1]] = 1.0
    phi = op.P * w                           # (m, n(n+1)/2)
    eigs = np.linalg.eigvalsh(phi.T @ phi)
    return float(np.max(np.abs(eigs - 1.0)))


def sample_noise(model: NoiseModel, m: int, seed: int) -> np.ndarray:
    """Draw a length-m noise vector; applies the centered flag post-sampling."""
    rng = np.random.default_rng(seed)
    p = model.params
    if model.kind == "gaussian":
        w = p["sigma"] * rng.standard_normal(m)
    elif model.kind == "sub_gaussian_scaled":
        w = (p["sigma0"] / np.sqrt(m)) * rng.standard_normal(m)
    elif model.kind == "uniform":
        w = rng.uniform(p["a"], p["b"], m)
    elif model.kind == "laplace":
        w = rng.laplace(0.0, p["scale"], m)
    else:  # student_t
        w = p["scale"] * rng.standard_t(p["dof"], m)
    if model.centered:
        w = w - w.mean()
    return w


def prob_norm_bound(eps: float, m: int, sigma: float) -> float:
    """
    Lower bound on P(||w|| <= eps) for a sigma/sqrt(m)-sub-Gaussian vector.

    Evaluates 1 - 2 exp(-eps^2 / (16 m sigma^2)), clamped to [0, 1]: the raw
    expression goes negative for small eps, where the bound is vacuous.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    raw = 1.0 - 2.0 * np.exp(-(eps ** 2) / (16.0 * m * sigma ** 2))
    return float(min(1.0, max(0.0, raw)))


# ---------------------------------------------------------------------------
# Instances and serialization
# ---------------------------------------------------------------------------

def make_instance(n: int, r: int, m: int, spectrum, noise_model: NoiseModel,
                  seed: int) -> ProblemInstance:
    """
    Build a full problem instance from sizes and a single seed.

    Child seeds for (truth, operator, noise) derive deterministically from
    `seed`, so the instance is a pure function of its arguments.
    """
    t_seed, o_seed, w_seed = _derived_seeds(seed, 3)
    truth = gen_ground_truth(n, r, spectrum, t_seed)
    op = gen_gaussian_operator(n, m, o_seed)
    w = sample_noise(noise_model, m, w_seed)
    b = apply_op(op, truth.matrix) + w
    return ProblemInstance(truth=truth, op=op, noise=w, measurements=b,
                           noise_model=noise_model, seed=seed)


def _fingerprint(measurements: np.ndarray) -> str:
    """SHA-256 of the measurements as little-endian float64 bytes."""
    # Imported here: loading it (OpenSSL) adds ~4 ms to every import of
    # kernsense, and only instance files need it.
    import hashlib
    return hashlib.sha256(np.asarray(measurements, dtype="<f8").tobytes()).hexdigest()


def instance_to_json(inst: ProblemInstance) -> str:
    """Serialize the instance parameters (matrices regenerate from the seed).

    The document also carries the SHA-256 of the measurements, so a load
    that regenerates different data (say, after a change in numpy's random
    streams) fails instead of silently solving another instance.
    """
    doc = {
        "format": "kernsense-instance-v1",
        "measurements_sha256": _fingerprint(inst.measurements),
        "n": inst.truth.n,
        "r": inst.truth.r,
        "m": inst.op.m,
        "seed": inst.seed,
        "spectrum": list(inst.truth.spectrum),
        "noise": {
            "kind": inst.noise_model.kind,
            "params": inst.noise_model.params,
            "centered": inst.noise_model.centered,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def instance_from_json(text: str) -> ProblemInstance:
    """Regenerate an instance from its document; bit-exact round trip.

    Raises ValueError when the document holds a measurements fingerprint
    that the regenerated instance does not match; documents without one
    load unchecked.
    """
    doc = json.loads(text)
    if doc.get("format") != "kernsense-instance-v1":
        raise ValueError("not a kernsense instance document")
    noise = NoiseModel(doc["noise"]["kind"], doc["noise"]["params"],
                       doc["noise"]["centered"])
    inst = make_instance(doc["n"], doc["r"], doc["m"], doc["spectrum"],
                         noise, doc["seed"])
    expected = doc.get("measurements_sha256")
    if expected is not None and expected != _fingerprint(inst.measurements):
        raise ValueError("the instance regenerated from the seed does not "
                         "match the measurements fingerprint in its document")
    return inst
