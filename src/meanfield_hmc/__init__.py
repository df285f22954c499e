"""Sampling mean-field probability measures with unadjusted HMC.

The package simulates N-particle mean-field systems with Hamiltonian
Monte Carlo kernels built on a randomized time integrator, provides the
couplings and distance estimators used to measure convergence, and
evaluates every contraction rate, bound constant, and admissibility
condition of the underlying theory in closed form.
"""

__version__ = "0.1.0"

from .couplings import (CoupleResult, CouplingParams, couple_velocities_batch,
                        coupled_uhmc_step, ell1_bar, metric_f, metric_f_prime,
                        rho_N)
from .integrators import (DIVERGENCE_LIMIT, IntegrationDivergedError,
                          exact_gaussian_flow_arrays, lockstep_flow_arrays,
                          randomized_step_arrays)
from .kernels import (draw_initial_positions, run_chain, uhmc_step_arrays,
                      xhmc_step_gaussian_arrays)
from .models import (AssumptionConstants, MeanFieldModel, ShallowNetDataset,
                     gaussian_model, mean_field_grad_all, multiwell_model,
                     shallow_net_model)
from .rng import RngStream, derive_stream_id
from .statistics import (gaussian_kde_on_grid, kde_relative_error,
                         silverman_bandwidth, wasserstein1_1d)
from .theory import (ConditionReport, TheoryConstants, check_conditions,
                     compute_constants, constants_table, max_admissible_T)

__all__ = [name for name in dir() if not name.startswith("_")]
