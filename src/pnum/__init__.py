"""pnum: numerical integration, linear solves and ODE solving as Gaussian inference.

The library treats the result of a numerical routine as a latent quantity,
conditions a Gaussian prior on the finitely many numbers the routine actually
computes, and reports the posterior: the classic point estimate plus a
calibrated uncertainty.  Desk-scale benchmark drivers live behind the
``pnum`` command line tool.
"""

from .exceptions import (BeliefDimensionMismatch, Breakdown, ConfigError,
                         CovarianceBreakdown, DimensionMismatch,
                         InsufficientTrace, NoCandidates, NonFiniteField,
                         NonPositiveEvaluation, PnumError, SingularGram,
                         UnsortedNodes)
from .gp import (FitResult, Kernel, KernelFamily, exp_quadratic,
                 fit_hyperparameters, gram_matrix, kernel_eval, linear_spline,
                 log_marginal_likelihood, sample_path)
from .linalg import (LinearOperator, MatrixBelief, SolveReport, calibrate_scale,
                     classic_cg, condition_on_observations, identity_belief,
                     load_operator, posterior_mean_apply, random_spd,
                     solve_probabilistic, truncate_belief, warm_start_sequence)
from .mc import AISResult, EvidenceProblem, ais_evidence, make_evidence_problem, smc_integrate
from .odefilter import (FilterResult, IVProblem, OrderEstimate, RKMethod,
                        convergence_order_estimate, iwp_transition,
                        named_problem, rk_method, rk_reference,
                        solve_ivp_filter, trajectory)
from .quadrature import (BQState, QuadratureEstimate, bq_posterior,
                         kernel_embeddings, select_node_active,
                         select_nodes_grid, trapezoid, warped_bq_integrate)
from .records import ConvergenceRecord
from .deconv import (ConvolutionProblem, RecyclingReport, SequenceConfig,
                     generate_sequence, run_recycling_benchmark)

__version__ = "0.1.0"
