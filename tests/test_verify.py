"""Every `kernsense verify` invariant, one case per name and seed.

These checks are the single copy of the structural facts they sample
(adjoint and linearity of A, translation invariance and the zero-sum
gradient of the kernel loss, the constant MSE Hessian, monotone descent
at half the step bound, ...); the unit tests do not repeat them.
"""

from functools import cache

import pytest

from kernsense.verify import VERIFICATION_NAMES, run_verification


@cache
def _results(seed):
    return run_verification(seed)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", VERIFICATION_NAMES)
def test_invariant(name, seed):
    passed, detail = _results(seed)[name]
    assert passed, detail
