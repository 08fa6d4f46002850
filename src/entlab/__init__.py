"""Entanglement evolution under separable operations.

SL-invariant measures with convex-roof extensions, separable Kraus channels
and their determinant decay law, the entanglement resilience factor, and
partial entanglement-breaking classification.
"""

__version__ = "0.1.0"

from .linalg import (DensityMatrix, LocalDims, PureState, SchmidtDecomposition,
                     determinant, kron, kron_all, partial_trace,
                     partial_transpose, schmidt_decompose)
from .sampling import (RandomStream, random_density, random_haar_unitary,
                       random_isometry, random_pure_state, random_sl)
from .measures import (Measure, concurrence, g_concurrence, measure_pure,
                       measure_unnormalized, polynomial_measure,
                       sl_invariance_deviation, sqrt_three_tangle,
                       wootters_concurrence)
from .roof import RoofOptions, RoofResult, convex_roof
from .channels import (ChannelDiagnostics, EvolutionReport, Outcome,
                       OutcomeEnsemble, SeparableChannel,
                       SeparableKrausOperator, apply, apply_kraus,
                       channel_from_json, channel_to_json, decay_factor,
                       det_weights, embed_one_sided, is_random_unitary,
                       outcomes, state_from_json, state_to_json,
                       tensor_channels, validate, verify_evolution)
from .erf import (ErfBounds, ErfEstimate, MixingSearchOptions,
                  TensorBoundReport, erf_bounds, erf_minimize,
                  tensor_bound_check)
from .breaking import (PebReport, SchmidtNumberCertificate,
                       SchmidtSearchOptions, ThresholdReport,
                       eb_threshold_scan, is_ppt, is_separable_small,
                       r_peb_test, schmidt_number_upper, schmidt_rank)
from . import families
