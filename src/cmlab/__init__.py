"""Numerical laboratory for consistency-model sampling on analytically
tractable Gaussian mixtures: schedules, probability-flow consistency maps,
samplers, distances, training objectives, and a scaling-law harness.
"""

from .distributions import MixtureParams, marginal_at
from .harness import (ConfigError, ExperimentConfig, emit, eps_sweep_one_step,
                      fit_loglog, gradcheck_experiment, h_sweep_one_step,
                      multistep_contraction, render_csv, render_json,
                      run_experiment, stationary_suite,
                      ulmc_correction_closed_form, ulmc_correction_experiment)
from .metrics import w2_gaussian_fit
from .models import discretized_cm, exact_score_model
from .samplers import one_step
from .schedule import GridRangeError, build_grid
from .acceptance import DEFAULT_SEED, run_all

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DEFAULT_SEED", "ExperimentConfig", "GridRangeError",
    "MixtureParams", "build_grid", "discretized_cm", "emit",
    "eps_sweep_one_step", "exact_score_model", "fit_loglog",
    "gradcheck_experiment", "h_sweep_one_step", "marginal_at",
    "multistep_contraction", "one_step", "render_csv", "render_json",
    "run_all", "run_experiment", "stationary_suite",
    "ulmc_correction_closed_form", "ulmc_correction_experiment",
    "w2_gaussian_fit",
]
