"""Matrix sensing with MSE, kernel-density and combined losses.

Subpackages by concern: model (problem generation), losses (values and
derivatives), optimize (gradient descent and step-size rules), empirics
(constant estimation), bounds (closed-form calculators), sweep (noise
sweep), verify (invariant suite); cli parses arguments and calls them.
"""

from .model import (GroundTruth, NoiseModel, ProblemInstance, RipEstimate,
                    SensingOperator, adjoint_op, apply_op, estimate_rip,
                    gen_gaussian_operator, gen_ground_truth,
                    instance_from_json, instance_to_json, make_instance,
                    orthonormal_basis_operator, prob_norm_bound, sample_noise)
from .losses import (LossSpec, grad_M, grad_X, grad_residual,
                     hessian_quadratic_form, hessian_vector_product,
                     lambda_min_hessian, loss_value, residuals)
from .optimize import (ConvergenceBoundInputs, SolveResult, SolveResults,
                       SolverConfig, auto_step_size, dist_factor,
                       error_frobenius, gradient_descent, project_rank_r,
                       spectral_init, step_size_bound)
from .empirics import (ConstantEstimates, estimate_constants,
                       estimate_lambda12, estimate_rho, estimate_zeta1,
                       estimate_zeta2, finite_diff_check, residual_constants)

__version__ = "0.1.0"
