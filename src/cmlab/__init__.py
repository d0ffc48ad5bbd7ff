"""Numerical laboratory for consistency-model sampling on analytically
tractable Gaussian mixtures: schedules, probability-flow consistency maps,
samplers, distances, training objectives, and a scaling-law harness.
"""

__version__ = "0.1.0"
