import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernsense.losses import (LossSpec, loss_and_grad_residual, loss_value,
                              residuals)
from kernsense.model import NoiseModel, adjoint_op, apply_op, make_instance
from kernsense.optimize import (ConvergenceBoundInputs, SolverConfig,
                                SolveResults, auto_step_size, dist_factor,
                                error_frobenius, gradient_descent,
                                project_rank_r, step_size_bound, trace_csv)

SQRT2 = math.sqrt(2.0)
_SPECS = (LossSpec.mse(), LossSpec.kernel(0.3), LossSpec.combined(0.4, 0.3))


class TestStepSizeBound:
    def test_frozen_unit_case(self):
        ci = ConvergenceBoundInputs(rho=1.0, rank=1)
        val = step_size_bound(LossSpec.mse(), ci)
        assert val == pytest.approx(1.0 / (24.0 * (SQRT2 - 1.0)), rel=1e-14)
        assert abs(val - 0.100594) < 1e-5
        assert step_size_bound(LossSpec.kernel(1.0), ci) == val

    def test_kernel_is_h_squared_times_mse(self):
        ci = ConvergenceBoundInputs(rho=2.3, rank=3, delta=0.2, zeta2=0.1,
                                    eps=0.5, norm_Mw=1.4)
        ratio = step_size_bound(LossSpec.kernel(0.7), ci) \
            / step_size_bound(LossSpec.mse(), ci)
        assert ratio == pytest.approx(0.7 ** 2, rel=1e-14)

    def test_combined_takes_min(self):
        ci = ConvergenceBoundInputs(rho=1.0, rank=2, norm_Mw=0.5)
        mse = step_size_bound(LossSpec.mse(), ci)
        assert step_size_bound(LossSpec.combined(0.5, 0.5), ci) == 0.25 * mse
        assert step_size_bound(LossSpec.combined(0.5, 2.0), ci) == mse

    def test_monotone_in_rho_and_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            rho = rng.uniform(0.5, 5)
            nm = rng.uniform(0, 5)
            ci = ConvergenceBoundInputs(rho=rho, rank=2, norm_Mw=nm)
            up_rho = ConvergenceBoundInputs(rho=rho * 1.5, rank=2, norm_Mw=nm)
            up_nm = ConvergenceBoundInputs(rho=rho, rank=2, norm_Mw=nm + 1)
            base = step_size_bound(LossSpec.mse(), ci)
            assert step_size_bound(LossSpec.mse(), up_rho) < base
            assert step_size_bound(LossSpec.mse(), up_nm) < base

    def test_precondition(self):
        ci = ConvergenceBoundInputs(rho=1.0, rank=1, delta=0.5, zeta2=1.0,
                                    eps=0.6)
        with pytest.raises(ValueError):
            step_size_bound(LossSpec.mse(), ci)


class TestGradientDescent:
    def test_truth_init_terminates_immediately(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.0), seed=1)
        for spec in (LossSpec.mse(), LossSpec.kernel(1.0),
                     LossSpec.combined(0.5, 1.0)):
            res = gradient_descent(inst, spec, SolverConfig(
                eta=0.05, max_iters=50, grad_tol=1e-8,
                init="explicit", init_X0=inst.truth.factor))
            assert res.termination == "grad_tol"
            assert res.iterations_run == 0
            assert len(res.loss_trace) == 1

    def test_perturbed_zero_scale_is_truth(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.0), seed=2)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta=0.05, max_iters=50, grad_tol=1e-8,
            init="ground_truth_perturbed", init_scale=0.0))
        assert res.iterations_run == 0
        assert res.error_trace[0] < 1e-12

    def test_mse_noiseless_recovery(self):
        inst = make_instance(12, 2, 300, (2, 1), NoiseModel.gaussian(0.0), seed=21)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta="auto", max_iters=5000, grad_tol=1e-12, init="spectral"))
        rel = res.error_trace[-1] / np.linalg.norm(inst.truth.matrix)
        assert rel < 1e-3

    def test_trace_lengths(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=3)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta=0.01, max_iters=17, grad_tol=0.0))
        assert res.iterations_run == 17
        assert len(res.loss_trace) == 18
        assert len(res.error_trace) == 18
        assert res.termination == "max_iters"

    def test_divergence_flagged_non_finite(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=4)
        res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
            eta=1e6, max_iters=200, grad_tol=0.0))
        assert res.termination == "non_finite"
        assert res.iterations_run < 200
        assert len(res.loss_trace) == res.iterations_run + 1

    @pytest.mark.parametrize("max_iters", [3.5, 3.0, True, "3"])
    def test_max_iters_must_be_an_integer(self, max_iters):
        # 3.5 never equals the step count, so with grad_tol=0 the solve
        # never returned.
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(eta=0.01, max_iters=max_iters)
        assert SolverConfig(eta=0.01, max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("X0", [{"x": 1.0}, [[1.0, 2.0], [3.0]],
                                    np.ones(6), np.ones((6, 2, 1)),
                                    np.ones((6, 0)),
                                    np.full((6, 2), np.nan),
                                    np.full((6, 2), np.inf),
                                    np.ones((6, 2), dtype=complex),
                                    np.ones((6, 2), dtype=bool),
                                    [["a", "b"]] * 6])
    def test_config_rejects_bad_init_X0(self, X0):
        with pytest.raises(ValueError, match="init_X0"):
            SolverConfig(eta=0.01, init="explicit", init_X0=X0)

    @pytest.mark.parametrize("spec", _SPECS)
    def test_init_X0_needs_n_rows(self, spec):
        # The MSE packs X X^T itself, so no operator call would catch it.
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=3)
        for X0 in (np.ones((2, 2)), np.ones((7, 2))):
            with pytest.raises(ValueError, match="init_X0 must have n=6 rows"):
                gradient_descent(inst, spec, SolverConfig(
                    eta=0.01, max_iters=3, init="explicit", init_X0=X0))
        # An integer start is a real array.
        res = gradient_descent(inst, spec, SolverConfig(
            eta=0.01, max_iters=3, init="explicit",
            init_X0=np.ones((6, 2), dtype=int)))
        assert res.X_hat.dtype == float and res.iterations_run == 3

    def test_auto_kernel_equals_h2_times_auto_mse(self):
        inst = make_instance(8, 2, 120, (2, 1), NoiseModel.gaussian(0.1), seed=7)
        e_mse = auto_step_size(inst, LossSpec.mse(), "auto", seed=3)
        e_ker = auto_step_size(inst, LossSpec.kernel(0.7), "auto", seed=3)
        assert e_ker == pytest.approx(0.49 * e_mse, rel=1e-14)


@settings(max_examples=15, deadline=None, database=None)
@given(selector=st.sampled_from(["auto", "auto_rho"]),
       seed=st.integers(0, 2 ** 32 - 1), rho_samples=st.integers(1, 12),
       h=st.floats(0.2, 2.0), lam=st.floats(0.0, 1.0), own_h=st.booleans())
def test_auto_step_size_tuple_equals_one_spec_calls(selector, seed,
                                                    rho_samples, h, lam,
                                                    own_h):
    # One delta probe, spectral init and rho sample set serve every spec,
    # and each spec still gets exactly its own step.
    inst = make_instance(6, 2, 60, (2, 1), NoiseModel.student_t(2.0, 1.0),
                         seed=9)
    specs = (LossSpec.mse(), LossSpec.kernel(h),
             LossSpec.combined(lam, 1.7 * h if own_h else h))
    assert auto_step_size(inst, specs, selector, seed=seed,
                          rho_samples=rho_samples) == tuple(
        auto_step_size(inst, s, selector, seed=seed, rho_samples=rho_samples)
        for s in specs)


# Stacked solves.  Each drawn problem is (loss index, noise seed, noise
# scale, eta, grad_tol, max_iters) on one shared operator, so problems
# leave the stack at different iterations; the bandwidth sits at the
# residual scale so the kernel terms are not flat.
_problem = st.tuples(st.integers(0, 2), st.integers(0, 2 ** 16),
                     st.floats(0.05, 1.0), st.floats(0.005, 0.03),
                     st.sampled_from([0.0, 0.3]), st.integers(1, 25))


def _stack(n, r, m, draws):
    base = make_instance(n, r, m, (2.0, 1.0)[:r], NoiseModel.gaussian(0.0),
                         seed=m)
    insts, specs, configs = [], [], []
    for kind, seed, scale, eta, tol, max_iters in draws:
        w = np.random.default_rng(seed).standard_normal(m)
        w *= scale / np.linalg.norm(w)
        insts.append(replace(base, noise=w,
                             measurements=base.measurements + w))
        specs.append(_SPECS[kind])
        configs.append(SolverConfig(eta=eta, max_iters=max_iters,
                                    grad_tol=tol,
                                    init="ground_truth_perturbed",
                                    init_scale=0.3, seed=seed))
    return tuple(insts), tuple(specs), tuple(configs)


def _solve(problems, order):
    res = gradient_descent(*(tuple(p[i] for i in order) for p in problems))
    assert isinstance(res, SolveResults) and len(res) == len(order)
    return dict(zip(order, res))


def _same_bits(a, b):
    for name in ("X_hat", "loss_trace", "error_trace"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.grad_norm, a.iterations_run, a.termination, a.eta) == \
        (b.grad_norm, b.iterations_run, b.termination, b.eta)


_shapes = dict(n=st.integers(3, 6), r=st.integers(1, 2),
               m=st.integers(10, 90) | st.sampled_from([301, 320]))


@settings(max_examples=12, deadline=None, database=None)
@given(draws=st.lists(_problem, min_size=2, max_size=5), **_shapes)
def test_stacked_solve_bits_do_not_depend_on_the_tuple(n, r, m, draws):
    problems = _stack(n, r, m, draws)
    k = len(draws)
    together = _solve(problems, list(range(k)))
    reverse = _solve(problems, list(range(k))[::-1])
    for i in range(k):
        _same_bits(together[i], reverse[i])
        _same_bits(together[i], _solve(problems, [i])[i])
    res = gradient_descent(*problems)
    assert res.iterations_run == sum(x.iterations_run for x in res)
    reasons = {x.termination for x in res}
    assert res.termination == (reasons.pop() if len(reasons) == 1
                               else "mixed")


@settings(max_examples=12, deadline=None, database=None)
@given(draws=st.lists(_problem, min_size=1, max_size=4), **_shapes)
def test_stacked_solve_matches_bare_calls(n, r, m, draws):
    # Only the operator products' rounding differs: stacked rows go through
    # matrix-matrix blocks, a bare call through matrix-vector products.
    problems = _stack(n, r, m, draws)
    for p, res in zip(zip(*problems), gradient_descent(*problems)):
        bare = gradient_descent(*p)
        assert (res.iterations_run, res.termination, res.eta) == \
            (bare.iterations_run, bare.termination, bare.eta)
        for name in ("X_hat", "loss_trace", "error_trace"):
            a, b = getattr(res, name), getattr(bare, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
        assert res.grad_norm == pytest.approx(bare.grad_norm, rel=1e-12)


@settings(max_examples=8, deadline=None, database=None)
@given(draws=st.lists(_problem, min_size=1, max_size=3),
       diverging=st.sampled_from([0, 2]), at=st.integers(0, 3), **_shapes)
def test_stacked_solve_diverging_problem_leaves_the_rest(n, r, m, draws,
                                                         diverging, at):
    at = min(at, len(draws))
    bad = (diverging, 1, 0.5, 1e6, 0.0, 25)
    problems = _stack(n, r, m, draws[:at] + [bad] + draws[at:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gradient_descent(*problems)
    assert res[at].termination == "non_finite"
    assert res[at].iterations_run < 25
    assert len(res[at].loss_trace) == res[at].iterations_run + 1
    rest = [i for i in range(len(res)) if i != at]
    alone = _solve(problems, rest)
    for i in rest:
        _same_bits(res[i], alone[i])


def _normal_equations(op, b):
    """The textbook MSE on the normal equations in packed coordinates:
    M -> (0.5 ||b||^2 - <c, x> + 0.5 <x, G x>, unpacked G x - c), with
    G = P^T P, c = A*(b) packed and x = packed M (off-diagonals doubled)."""
    iu = np.triu_indices(op.n)
    diag = np.flatnonzero(iu[0] == iu[1])
    full = np.empty((op.n, op.n), dtype=int)
    full[iu] = full[iu[::-1]] = np.arange(iu[0].size)
    G = op.P.T @ op.P
    c = adjoint_op(op, b)[iu]
    half_bb = 0.5 * float(b @ b)

    def value_and_grad(M):
        x = (M + M.T)[iu]
        x[diag] = np.diag(M)
        y = G @ x
        return half_bb - float(c @ x) + 0.5 * float(x @ y), (y - c)[full]

    return value_and_grad


@settings(max_examples=8, deadline=None, database=None)
@given(draw=_problem, **_shapes)
def test_bare_solve_is_the_plain_loop(n, r, m, draw):
    # A bare call is the textbook loop bit for bit: the MSE descends on the
    # normal equations, the other losses make one matrix-vector product
    # per operator call.
    (inst,), (spec,), (config,) = _stack(n, r, m, [draw])
    res = gradient_descent(inst, spec, config)
    op, b = inst.op, inst.measurements
    normal = _normal_equations(op, b) if spec == LossSpec.mse() else None
    X = gradient_descent(inst, spec, replace(config, grad_tol=1e300)).X_hat
    losses = []
    for step in range(res.iterations_run + 1):
        if normal is not None:
            val, gM = normal(X @ X.T)
        else:
            val, g = loss_and_grad_residual(spec, b - apply_op(op, X @ X.T))
            gM = -adjoint_op(op, g)
        losses.append(val)
        gX = 2.0 * gM @ X
        if step < res.iterations_run:
            X = X - config.eta * gX
    assert X.tobytes() == res.X_hat.tobytes()
    assert np.array(losses).tobytes() == res.loss_trace.tobytes()
    assert float(np.linalg.norm(gX)) == res.grad_norm


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(2, 7), r=st.integers(1, 2), m=st.integers(3, 120),
       scale=st.sampled_from([0.0, 1e-8]) | st.floats(1e-3, 3.0),
       seed=st.integers(0, 2 ** 16), iters=st.integers(1, 40))
def test_bare_mse_value_within_its_bound(n, r, m, scale, seed, iters):
    # The normal-equations value carries an absolute rounding error that
    # model.normal_products bounds by
    # (m + 2k + 2) u (||b|| + || |A|(|M|) ||)^2; the draws reach noiseless
    # instances and m < k = n(n+1)/2.
    r = min(r, n)
    inst = make_instance(n, r, m, (2.0, 1.0)[:r], NoiseModel.gaussian(0.0),
                         seed=seed)
    w = np.random.default_rng(seed).standard_normal(m)
    b = inst.measurements + scale * w / np.linalg.norm(w)
    inst = replace(inst, measurements=b)
    res = gradient_descent(inst, LossSpec.mse(), SolverConfig(
        eta=0.01, max_iters=iters, grad_tol=0.0,
        init="ground_truth_perturbed", init_scale=0.3, seed=seed))
    assert res.termination == "max_iters"
    X = res.X_hat
    M = X @ X.T
    k = n * (n + 1) // 2
    abs_op = replace(inst.op, P=np.abs(inst.op.P))
    bound = (m + 2 * k + 2) * 2.0 ** -53 * (
        np.linalg.norm(b) + np.linalg.norm(apply_op(abs_op, np.abs(M)))) ** 2
    exact = loss_value(LossSpec.mse(), residuals(inst.op, b, X))
    assert abs(res.loss_trace[-1] - exact) <= bound


def test_stacked_solve_rejects_mismatched_problems():
    inst = make_instance(5, 2, 30, (2, 1), NoiseModel.gaussian(0.1), seed=1)
    other = make_instance(5, 2, 30, (2, 1), NoiseModel.gaussian(0.1), seed=2)
    spec, config = LossSpec.mse(), SolverConfig(eta=0.01, max_iters=3)
    with pytest.raises(ValueError, match="operator"):
        gradient_descent((inst, other), (spec, spec), (config, config))
    # An equal operator held in another object is the same operator.
    copy = replace(inst, op=replace(inst.op, P=inst.op.P.copy()))
    gradient_descent((inst, copy), (spec, spec), (config, config))
    for args in [((inst, inst), (spec,), (config, config)),
                 ((inst,), (spec, spec), (config,)),
                 ((inst,), spec, (config,)),
                 (inst, (spec,), config),
                 ((), (), ())]:
        with pytest.raises(ValueError):
            gradient_descent(*args)


class TestProjectRankR:
    def test_fixed_point(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((6, 2))
        M = Z @ Z.T
        assert np.linalg.norm(project_rank_r(M, 2) - M) < 1e-12

    def test_diagonal_truncation(self):
        P = project_rank_r(np.diag([3.0, 1.0]), 1)
        assert np.allclose(P, np.diag([3.0, 0.0]), atol=1e-14)

    def test_negative_eigenvalue_clamped(self):
        # Oracle: enumerate candidate eigenvalue subsets of size <= 1 and
        # clamp; keeping the +1 eigenvector is the unique nearest choice.
        P = project_rank_r(np.diag([1.0, -5.0]), 1)
        assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-14)


class TestDistFactor:
    def test_zero_for_own_factor(self):
        X = np.random.default_rng(10).standard_normal((5, 2))
        assert dist_factor(X, X @ X.T) < 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 2))
        Z = rng.standard_normal((5, 2))
        M = Z @ Z.T
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        assert abs(dist_factor(X @ q, M) - dist_factor(X, M)) < 1e-10

    def test_rank_one_sign_enumeration(self):
        # Oracle: rank-1 PSD M = lam u u^T admits exactly Z = +-sqrt(lam) u.
        rng = np.random.default_rng(12)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        lam = 2.7
        M = lam * np.outer(u, u)
        X = rng.standard_normal((4, 1))
        brute = min(np.linalg.norm(X - s * math.sqrt(lam) * u[:, None])
                    for s in (-1.0, 1.0))
        assert dist_factor(X, M) == pytest.approx(brute, abs=1e-10)

    def test_rejects_rank_excess(self):
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((5, 3))
        with pytest.raises(ValueError):
            dist_factor(rng.standard_normal((5, 2)), Z @ Z.T)


class TestErrorFrobenius:
    def test_known_values(self):
        inst = make_instance(5, 2, 20, (2, 1), NoiseModel.gaussian(0.0), seed=15)
        assert error_frobenius(inst.truth.factor, inst.truth.matrix) < 1e-12
        zero = np.zeros((5, 2))
        assert error_frobenius(zero, inst.truth.matrix) == pytest.approx(
            np.linalg.norm(inst.truth.matrix))

    def test_trace_expansion_identity(self):
        # Oracle: ||XX^T - M||_F^2 = tr((XX^T)^2) - 2 tr(XX^T M) + tr(M^2).
        rng = np.random.default_rng(16)
        X = rng.standard_normal((5, 2))
        M = rng.standard_normal((5, 5)); M = 0.5 * (M + M.T)
        G = X @ X.T
        expanded = math.sqrt(max(np.trace(G @ G) - 2 * np.trace(G @ M)
                                 + np.trace(M @ M), 0.0))
        assert error_frobenius(X, M) == pytest.approx(expanded, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            error_frobenius(np.zeros((5, 2)), np.zeros((4, 4)))


class TestTraceCsv:
    def test_format(self):
        text = trace_csv(np.array([1.0, 0.5]), "loss")
        lines = text.splitlines()
        assert lines[0] == "iteration,loss"
        assert lines[1] == "0,1"
        assert text.endswith("\n")
        assert "\r" not in text
