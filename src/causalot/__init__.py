"""Causal optimal transport on computable globally hyperbolic backends.

The package turns the equivalence between causal measure-valued
evolutions and single measures on spaces of causal curves into desk-scale
computations: causality queries and geodesics on two concrete backends,
time-affine curve parametrizations and their exact reparametrizations,
finitely supported measures with disintegration and concatenation,
coupling feasibility by exact max flow, and the slab-by-slab synthesis of
curve measures from causal evolutions.
"""

from .errors import CausalotError, InputError, PreconditionError, VerificationError
from .spacetime import Event, Spacetime, causal_geodesic, causal_lipschitz_constant
from .timefunc import TimeFunction, canonical_time, validate as validate_time_function
from .curves import (CausalCurve, Interval, RawPath, bilipschitz_report,
                     canonicalize_compact, canonicalize_noncompact, concat,
                     curves_close, is_time_parametrized, reparametrize,
                     verify_causal)
from .measures import (Coupling, CurveMeasure, SliceMeasure, concat_measures,
                       curve_measures_equal, disintegrate, marginal_at,
                       pushforward_reparametrize, slice_measures_equal,
                       transport_distance)
from .coupling import (Evolution, MeshSpec, check_evolution, compose_couplings,
                       cut_witness, dominates_on_upsets, dyadic_times,
                       find_causal_coupling)
from .synthesis import (NonCausalEvolutionError, extract_coupling, geometric_times,
                        lift_coupling, observer_invariance_report, synthesize_compact,
                        synthesize_open, synthesize_slabs, to_time_parametrized)

__version__ = "0.1.0"

__all__ = [
    "CausalotError", "InputError", "PreconditionError", "VerificationError",
    "Event", "Spacetime", "causal_geodesic", "causal_lipschitz_constant",
    "TimeFunction", "canonical_time", "validate_time_function",
    "CausalCurve", "Interval", "RawPath", "bilipschitz_report",
    "canonicalize_compact", "canonicalize_noncompact", "concat", "curves_close",
    "is_time_parametrized", "reparametrize", "verify_causal",
    "Coupling", "CurveMeasure", "SliceMeasure", "concat_measures",
    "curve_measures_equal", "disintegrate", "marginal_at",
    "pushforward_reparametrize", "slice_measures_equal", "transport_distance",
    "Evolution", "MeshSpec", "check_evolution", "compose_couplings",
    "cut_witness", "dominates_on_upsets", "dyadic_times", "find_causal_coupling",
    "NonCausalEvolutionError", "extract_coupling", "geometric_times",
    "lift_coupling", "observer_invariance_report", "synthesize_compact",
    "synthesize_open", "synthesize_slabs", "to_time_parametrized",
]
