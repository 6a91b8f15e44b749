"""Coset nonlocal games at small block length: construction, classical and
quantum values, copy-activation bound chains, and local-polytope LP tools."""

from .errors import GuardError, KvBellError, NumericalError, ValidationError
from .kvgame import (
    BOUND_CONSTANTS,
    BellFunctional,
    BoundConstants,
    CosetTable,
    Measurement,
    RefereeSamples,
    asymptotic_eta,
    build_hadamard_subgroup,
    entangled_lower_bound_asymptotic,
    kv_classical_upper_bound,
    kv_functional,
    kv_question_marginal,
    noise_weights,
    referee_sample,
)
from .localpolytope import (
    LinearProgram,
    LocalContentResult,
    LPResult,
    local_content,
    lv_from_pi,
    solve_lp,
    vertex_matrix,
)
from .states import (
    DensityMatrix,
    locality_threshold,
)
from .values import (
    ProbDist,
    almost_activation_exponent,
    almost_activation_lower_factor,
    almost_activation_mix_weight,
    almost_activation_upper_formula,
    assignment_table,
    classical_value_exact,
    classical_value_heuristic,
    isotropic_power_value,
    mes_pairing,
    pr_box_dist,
    quantum_value_kv_closed_form,
    superactivation_crossing,
    superactivation_monotone_from,
    superactivation_ratio_bound,
    tsirelson_box_dist,
)

# The dense MES machinery: no command runs it, so it is left out of __all__,
# but it stays importable here because perfbench/gen.py imports
# kv_measurements, make_mes and quantum_prob from kvbell by name.
from .kvgame import kv_measurements  # noqa: F401
from .states import make_mes, mes_vector  # noqa: F401
from .values import pair, quantum_prob  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "BOUND_CONSTANTS",
    "BellFunctional",
    "BoundConstants",
    "CosetTable",
    "DensityMatrix",
    "GuardError",
    "KvBellError",
    "LPResult",
    "LinearProgram",
    "LocalContentResult",
    "Measurement",
    "NumericalError",
    "ProbDist",
    "RefereeSamples",
    "ValidationError",
    "almost_activation_exponent",
    "almost_activation_lower_factor",
    "almost_activation_mix_weight",
    "almost_activation_upper_formula",
    "assignment_table",
    "asymptotic_eta",
    "build_hadamard_subgroup",
    "classical_value_exact",
    "classical_value_heuristic",
    "entangled_lower_bound_asymptotic",
    "isotropic_power_value",
    "kv_classical_upper_bound",
    "kv_functional",
    "kv_question_marginal",
    "local_content",
    "locality_threshold",
    "lv_from_pi",
    "mes_pairing",
    "noise_weights",
    "pr_box_dist",
    "quantum_value_kv_closed_form",
    "referee_sample",
    "solve_lp",
    "superactivation_crossing",
    "superactivation_monotone_from",
    "superactivation_ratio_bound",
    "tsirelson_box_dist",
    "vertex_matrix",
    "__version__",
]
