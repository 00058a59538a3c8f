import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernsense.model import (_OP_BLOCK, NoiseModel, SensingOperator,
                             adjoint_op, apply_op,
                             estimate_rip, full_rank_defect,
                             gen_gaussian_operator, gen_ground_truth,
                             instance_from_json, instance_to_json,
                             make_instance, orthonormal_basis_operator,
                             prob_norm_bound, sample_noise)


class TestGroundTruth:
    def test_identity_case(self):
        gt = gen_ground_truth(3, 3, (1, 1, 1), seed=0)
        assert np.allclose(gt.matrix, np.eye(3), atol=1e-12)

    def test_eigenvalues_match_spectrum(self):
        # Oracle: eigendecompose the constructed matrix directly.
        gt = gen_ground_truth(8, 2, (4, 1), seed=7)
        ev = np.sort(np.linalg.eigvalsh(gt.matrix))
        expected = np.array([0] * 6 + [1, 4], dtype=float)
        assert np.max(np.abs(ev - expected)) < 1e-10

    def test_factorization_invariant(self):
        gt = gen_ground_truth(10, 3, (5, 2, 0.5), seed=3)
        assert np.linalg.norm(gt.matrix - gt.factor @ gt.factor.T) < 1e-12
        assert np.linalg.matrix_rank(gt.matrix, tol=1e-8) == 3

    def test_deterministic(self):
        a = gen_ground_truth(8, 2, (4, 1), seed=7)
        b = gen_ground_truth(8, 2, (4, 1), seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("n,r,spec", [(3, 4, (1, 1, 1, 1)),
                                          (5, 2, (1, -1)),
                                          (5, 2, (1, 0))])
    def test_rejects_bad_inputs(self, n, r, spec):
        with pytest.raises(ValueError):
            gen_ground_truth(n, r, spec, seed=0)

    @pytest.mark.parametrize("spec", [(math.nan,), (math.inf,),
                                      (1.0, math.nan)])
    def test_rejects_non_finite_spectrum(self, spec):
        # NaN passed the s <= 0 test and gave a NaN ground truth.
        with pytest.raises(ValueError, match="spectrum entries must be finite"):
            make_instance(5, len(spec), 12, spec, NoiseModel.gaussian(0.1),
                          seed=0)


class TestSensingOperator:
    def test_matrices_symmetric(self):
        op = gen_gaussian_operator(2, 1, seed=0)
        assert np.linalg.norm(op.mats[0] - op.mats[0].T) < 1e-12

    def test_isometry_in_expectation(self):
        # Monte-Carlo oracle: mean energy ratio over random symmetric inputs.
        op = gen_gaussian_operator(6, 2000, seed=1)
        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(50):
            M = rng.standard_normal((6, 6))
            M = 0.5 * (M + M.T)
            ratios.append(np.sum(apply_op(op, M) ** 2) / np.sum(M * M))
        assert 0.9 < np.mean(ratios) < 1.1

    def test_dimension_mismatch(self):
        op = gen_gaussian_operator(4, 25, seed=3)
        with pytest.raises(ValueError):
            apply_op(op, np.zeros((5, 5)))
        with pytest.raises(ValueError):
            adjoint_op(op, np.zeros(24))


# (n, m) pairs; (40, 700) spans several row blocks of the generator, the last
# one partial.
PACKED_SIZES = [(1, 3), (2, 5), (7, 60), (40, 700)]


class TestPackedOperator:
    """The packed upper-triangle storage against the full (m, n, n) array."""

    @pytest.mark.parametrize("n,m", PACKED_SIZES)
    def test_mats_bit_identical_to_full_draw(self, n, m):
        op = gen_gaussian_operator(n, m, seed=21)
        g = np.random.default_rng(21).standard_normal((m, n, n))
        assert np.array_equal(op.mats, 0.5 * (g + g.transpose(0, 2, 1)) / np.sqrt(m))

    @pytest.mark.parametrize("n,m", PACKED_SIZES)
    def test_apply_and_adjoint_match_dense(self, n, m):
        op = gen_gaussian_operator(n, m, seed=22)
        mats = op.mats
        rng = np.random.default_rng(23)
        M = rng.standard_normal((n, n))               # not symmetric
        for X in (M, 0.5 * (M + M.T)):
            dense = np.tensordot(mats, X, axes=([1, 2], [0, 1]))
            got = apply_op(op, X)
            assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)
        # Callers need not symmetrize: A(M) and A(sym M) agree bit for bit.
        assert np.array_equal(apply_op(op, M), apply_op(op, 0.5 * (M + M.T)))
        v = rng.standard_normal(m)
        dense = np.tensordot(v, mats, axes=(0, 0))
        got = adjoint_op(op, v)
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("n,m", PACKED_SIZES)
    def test_adjoint_exactly_symmetric(self, n, m):
        op = gen_gaussian_operator(n, m, seed=24)
        S = adjoint_op(op, np.random.default_rng(25).standard_normal(m))
        assert np.array_equal(S, S.T)

    @pytest.mark.parametrize("n,m", PACKED_SIZES)
    def test_full_rank_defect_matches_explicit_basis(self, n, m):
        op = gen_gaussian_operator(n, m, seed=26)
        # Reference: the Gram matrix on an explicitly built orthonormal
        # basis of symmetric matrices, applied to the full matrices.
        eye = np.eye(n)
        basis = []
        for a in range(n):
            for b in range(a, n):
                e = np.outer(eye[a], eye[b])
                e = e if a == b else (e + e.T) / np.sqrt(2.0)
                basis.append(e.ravel())
        phi = op.mats.reshape(m, -1) @ np.array(basis).T
        ref = float(np.max(np.abs(np.linalg.eigvalsh(phi.T @ phi) - 1.0)))
        assert abs(full_rank_defect(op) - ref) <= 1e-12 * max(ref, 1.0)

    def test_mats_not_cached(self):
        op = gen_gaussian_operator(3, 4, seed=28)
        assert op.mats is not op.mats

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SensingOperator(n=3, m=4, P=np.zeros((4, 9)))  # unpacked width

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orthonormal_basis_is_symmetrized_elementary_basis(self, n):
        e = np.eye(n)
        ref = np.array([0.5 * (np.outer(e[a], e[b]) + np.outer(e[b], e[a]))
                        for a in range(n) for b in range(n)])
        assert np.array_equal(orthonormal_basis_operator(n).mats, ref)


def _packed(M):
    """M's upper triangle in np.triu_indices order, off-diagonals M_ab + M_ba."""
    iu = np.triu_indices(M.shape[0])
    x = (M + M.T)[iu]
    x[iu[0] == iu[1]] = M.diagonal()
    return x


# Batch shapes: none, one axis across several operator blocks (the last one
# partial), or two axes.
BATCHES = st.one_of(st.just(()),
                    st.tuples(st.integers(0, 2 * _OP_BLOCK + 1)),
                    st.tuples(st.integers(1, 5), st.integers(0, 4)))


class TestBatchAxis:
    """apply_op on (..., n, n) stacks and adjoint_op on (..., m) stacks.

    Tolerances are relative to ||P||_F times the input norm, which bounds
    every output entry, so they do not depend on cancellation in a result.
    """

    @staticmethod
    def _case(n, m, batch, seed):
        rng = np.random.default_rng(seed)
        op = gen_gaussian_operator(n, m, seed)
        Ms = rng.standard_normal(batch + (n, n))
        return op, Ms, rng.standard_normal(batch + (m,)), rng

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 7), m=st.integers(1, 40), batch=BATCHES,
           seed=st.integers(0, 2**32 - 1))
    def test_stack_matches_per_item_calls(self, n, m, batch, seed):
        op, Ms, vs, _ = self._case(n, m, batch, seed)
        am, av = apply_op(op, Ms), adjoint_op(op, vs)
        assert am.shape == batch + (m,) and av.shape == batch + (n, n)
        p = np.linalg.norm(op.P)
        for idx in np.ndindex(*batch):
            ref = apply_op(op, Ms[idx])
            assert (np.linalg.norm(am[idx] - ref)
                    <= 1e-13 * p * np.linalg.norm(Ms[idx]))
            ref = adjoint_op(op, vs[idx])
            assert (np.linalg.norm(av[idx] - ref)
                    <= 1e-13 * p * np.linalg.norm(vs[idx]))
            assert np.array_equal(av[idx], av[idx].T)

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 7), m=st.integers(1, 40), batch=BATCHES,
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity_and_linearity(self, n, m, batch, seed):
        op, Ms, vs, rng = self._case(n, m, batch, seed)
        p = np.linalg.norm(op.P)
        lhs = np.sum(apply_op(op, Ms) * vs, axis=-1)
        rhs = np.sum(Ms * adjoint_op(op, vs), axis=(-2, -1))
        scale = p * np.linalg.norm(Ms, axis=(-2, -1)) * np.linalg.norm(vs, axis=-1)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)
        a, c = rng.standard_normal(2)
        Ns, us = rng.standard_normal(Ms.shape), rng.standard_normal(vs.shape)
        both = apply_op(op, a * Ms + c * Ns)
        each = a * apply_op(op, Ms) + c * apply_op(op, Ns)
        norm = np.linalg.norm(np.abs(a) * np.abs(Ms) + np.abs(c) * np.abs(Ns))
        assert np.linalg.norm(both - each) <= 1e-13 * p * norm
        both = adjoint_op(op, a * vs + c * us)
        each = a * adjoint_op(op, vs) + c * adjoint_op(op, us)
        norm = np.linalg.norm(np.abs(a) * np.abs(vs) + np.abs(c) * np.abs(us))
        assert np.linalg.norm(both - each) <= 1e-13 * p * norm

    @pytest.mark.parametrize("n,m", PACKED_SIZES)
    def test_single_item_is_one_matrix_vector_product(self, n, m):
        op = gen_gaussian_operator(n, m, seed=30)
        rng = np.random.default_rng(31)
        M = rng.standard_normal((n, n))
        assert np.array_equal(apply_op(op, M), op.P @ _packed(M))
        v = rng.standard_normal(m)
        full = np.triu_indices(n)
        got = adjoint_op(op, v)
        assert np.array_equal(got[full], v @ op.P)
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("n,m", [(2, 5), (7, 60)])
    def test_item_bits_independent_of_stack(self, n, m):
        # BLAS rounds a row of a product differently depending on how many
        # rows share the call; blocking must hide that from the caller.
        op = gen_gaussian_operator(n, m, seed=32)
        rng = np.random.default_rng(33)
        k = 2 * _OP_BLOCK + 1
        Ms, vs = rng.standard_normal((k, n, n)), rng.standard_normal((k, m))
        am, av = apply_op(op, Ms), adjoint_op(op, vs)
        for h in range(1, k + 1):
            assert np.array_equal(apply_op(op, Ms[:h]), am[:h])
            assert np.array_equal(adjoint_op(op, vs[:h]), av[:h])
        junk_M = Ms.copy()
        junk_M[1:] = 1e6 * rng.standard_normal(junk_M[1:].shape)
        junk_v = vs.copy()
        junk_v[1:] = np.nan
        assert np.array_equal(apply_op(op, junk_M)[0], am[0])
        assert np.array_equal(adjoint_op(op, junk_v)[0], av[0])

    @pytest.mark.parametrize("shape", [(), (3,), (3, 4), (4, 3), (2, 3, 4),
                                       (2, 4, 3), (4,)])
    def test_wrong_trailing_shape_raises(self, shape):
        op = gen_gaussian_operator(3, 5, seed=34)
        with pytest.raises(ValueError):
            apply_op(op, np.zeros(shape))
        bad_v = shape if shape != (4,) else (2, 6)
        with pytest.raises(ValueError):
            adjoint_op(op, np.zeros(bad_v))


class TestRipEstimate:
    def test_gaussian_operator_moderate_delta(self):
        op = gen_gaussian_operator(8, 2000, seed=1)
        est = estimate_rip(op, rank=4, trials=200, seed=5)
        assert 0.0 <= est.delta_hat < 0.5

    def test_nested_monotone(self):
        op = gen_gaussian_operator(6, 100, seed=2)
        d1 = estimate_rip(op, rank=2, trials=1, seed=9).delta_hat
        d200 = estimate_rip(op, rank=2, trials=200, seed=9).delta_hat
        assert d1 <= d200

    def test_preconditions(self):
        op = gen_gaussian_operator(4, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_rip(op, rank=2, trials=0, seed=0)
        with pytest.raises(ValueError):
            estimate_rip(op, rank=5, trials=5, seed=0)

    @pytest.mark.parametrize("rank", [0, True, 2.5])
    def test_rejects_rank_that_is_not_a_count(self, rank):
        # rank 0 probed with an e1 e1^T fallback and reported rank_tested=0.
        op = gen_gaussian_operator(4, 10, seed=0)
        with pytest.raises(ValueError, match="rank must be"):
            estimate_rip(op, rank=rank, trials=3, seed=0)

    @pytest.mark.parametrize("trials", [2.5, True, np.float64(3.0), "4"])
    def test_rejects_trials_that_are_not_counts(self, trials):
        # A fraction raised TypeError from range(), and True ran one trial
        # and came back as trials=True.
        op = gen_gaussian_operator(4, 10, seed=0)
        with pytest.raises(ValueError, match="trials must be an integer"):
            estimate_rip(op, rank=2, trials=trials, seed=0)
        assert estimate_rip(op, rank=2, trials=np.int64(3), seed=0).trials == 3


class TestNoise:
    def test_zero_scale_gaussian(self):
        w = sample_noise(NoiseModel.gaussian(0.0), 32, seed=0)
        assert np.abs(w).max() == 0.0

    def test_gaussian_variance(self):
        w = sample_noise(NoiseModel.gaussian(1.0), 10000, seed=2)
        assert 0.9 < w.var() < 1.1

    def test_sub_gaussian_scaling(self):
        w = sample_noise(NoiseModel.sub_gaussian_scaled(0.05), 4000, seed=3)
        # norm concentrates near sigma0
        assert 0.02 < np.linalg.norm(w) < 0.1

    @pytest.mark.parametrize("bad", [
        lambda: NoiseModel.gaussian(-1.0),
        lambda: NoiseModel.uniform(1.0, 0.0),
        lambda: NoiseModel.laplace(0.0),
        lambda: NoiseModel.student_t(0.0, 1.0),
        lambda: NoiseModel("cauchy", {}),
        lambda: NoiseModel.gaussian(math.nan),
        lambda: NoiseModel.gaussian(math.inf),
        lambda: NoiseModel.sub_gaussian_scaled(math.nan),
        lambda: NoiseModel.uniform(-math.inf, 0.0),
        lambda: NoiseModel.uniform(0.0, math.inf),
        lambda: NoiseModel.uniform(math.nan, 1.0),
        lambda: NoiseModel.laplace(math.inf),
        lambda: NoiseModel.student_t(math.nan, 1.0),
        lambda: NoiseModel.student_t(2.0, -math.inf),
        lambda: NoiseModel("laplace", {"sigma": 0.1}),
        lambda: NoiseModel("uniform", {"a": 0.0}),
        lambda: NoiseModel("student_t", {"scale": 1.0}),
        lambda: NoiseModel("gaussian", {"sigma": "0.1"}),
        lambda: NoiseModel("gaussian", {"sigma": True}),
    ])
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestProbNormBound:
    def test_limit_case(self):
        assert prob_norm_bound(1e6, 1, 0.05) > 1 - 1e-12

    def test_frozen_value(self):
        assert abs(prob_norm_bound(4, 100, 0.05)
                   - (1 - 2 * np.exp(-4))) < 1e-12

    def test_clamped_to_zero(self):
        # raw value is about -0.8788 here
        assert prob_norm_bound(0.5, 100, 0.05) == 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            prob_norm_bound(0.0, 10, 0.05)
        with pytest.raises(ValueError):
            prob_norm_bound(1.0, 10, 0.0)


class TestInstance:
    def test_measurement_identity(self):
        inst = make_instance(6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=5)
        recon = apply_op(inst.op, inst.truth.matrix) + inst.noise
        assert np.array_equal(recon, inst.measurements)

    def test_json_round_trip_bit_exact(self):
        inst = make_instance(6, 2, 40, (2, 1),
                             NoiseModel.uniform(0, 1, centered=True), seed=5)
        doc = instance_to_json(inst)
        back = instance_from_json(doc)
        assert np.array_equal(back.truth.matrix, inst.truth.matrix)
        assert np.array_equal(back.op.mats, inst.op.mats)
        assert np.array_equal(back.noise, inst.noise)
        assert instance_to_json(back) == doc

    def test_fingerprint_checked_on_load(self):
        inst = make_instance(5, 1, 12, (1,), NoiseModel.gaussian(0.1), seed=2)
        doc = json.loads(instance_to_json(inst))
        digest = doc["measurements_sha256"]
        assert digest == hashlib.sha256(inst.measurements.tobytes()).hexdigest()
        doc["measurements_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        with pytest.raises(ValueError, match="fingerprint"):
            instance_from_json(json.dumps(doc))

    def test_document_without_fingerprint_loads(self):
        inst = make_instance(5, 1, 12, (1,), NoiseModel.gaussian(0.1), seed=2)
        doc = json.loads(instance_to_json(inst))
        del doc["measurements_sha256"]
        back = instance_from_json(json.dumps(doc))
        assert np.array_equal(back.measurements, inst.measurements)

    def test_doc_is_valid_json_without_matrices(self):
        inst = make_instance(4, 1, 10, (3,), NoiseModel.gaussian(0.2), seed=1)
        doc = json.loads(instance_to_json(inst))
        assert doc["n"] == 4 and doc["m"] == 10
        assert "matrices" not in doc and "mats" not in doc
