"""Computational toolkit for interval exchange transformations.

Exact (rational / real-quadratic) and float arithmetic for IETs with flips,
Rauzy-Veech induction with multiplicity-matrix bookkeeping, dimension-group
state simplices and Perron-Frobenius ergodicity certificates, symbolic
coding indices, matrix continued fractions, and empirical-measure censuses.
"""

from .dimension_group import (CyclicStructure, ErgodicityCertificate,
                              ErgodicityVerdict, PFResult, StateSpaceApprox,
                              collatz_wielandt, cyclic_structure,
                              estimate_state_dim, is_primitive, k_groups,
                              measure_bounds, perron_frobenius,
                              simplex_diameters, state_simplex,
                              strict_ergodicity_verdict)
from .errors import IETLabError
from .iet import (IETSpec, KeaneStatus, KeaneVerdict, Orbit, evaluate,
                  interval_index, inverse, is_irreducible, keane_condition,
                  orbit, validate)
from .induction import (BratteliDiagram, MatrixSequence, StationarityWitness,
                        detect_stationarity, factor_zero_one, induce,
                        rauzy_step, simplicity_check, telescope, to_bratteli)
from .measures import (EmpiricalMeasure, MeasureCensus, birkhoff_average,
                       empirical_measure, estimate_ergodic_count)
from .numbers import Quadratic, golden_alpha, quad
from .rotation import (MoebiusMatrix, QuadraticSurd, RotationNumber,
                       detect_quadratic_surd, modular_equivalent,
                       rotation_number)
from .symbolic import (BlockStats, ForbiddenPairs, Ray, block_complexity,
                       block_stats, code_orbit, covering_index,
                       is_admissible, path_distance, surface_parameters,
                       transitivity_index, uniform_distribution_test,
                       uniformity_ratio)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
