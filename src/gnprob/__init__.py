"""Exact reasoning with imprecise conditional probabilities on finite spaces.

The package decides Goodman-Nguyen relatedness of conditional events and
gambles, checks consistency of precise and imprecise assessments through
exact-rational linear programs, and computes natural, convex natural and
upper extensions in closed form through inner and outer conditional
events.
"""

from .algebra import (
    ConditionalEvent,
    ConditionalGamble,
    Event,
    Gamble,
    Partition,
    Universe,
    as_fraction,
    generated_partition,
    inf_over,
    inner_event,
    is_logically_dependent,
    outer_event,
    product_partition,
    sup_over,
)
from .assessments import (
    Assessment,
    CredalSet,
    LayeredProbability,
    normalize_class,
    random_credal,
    random_layered,
)
from .coherence import (
    GainSpec,
    GainTerm,
    Verdict,
    asl_monotonicity_counterexample,
    check,
    check_avoiding_sure_loss,
    conditioned_max,
    conjugate,
    evaluate_gain,
)
from .errors import (
    EmptyConditioningError,
    EnumerationLimitError,
    GnprobError,
    TrivialTargetError,
    UniverseMismatchError,
    UnsupportedOperationError,
    ValidationError,
)
from .extension import (
    ExtensionInterval,
    conditional_inner,
    conditional_outer,
    df_to_imprecise,
    extension_interval,
    natural_extension,
    upper_extension,
)
from .gn import (
    ConditionalImplication,
    GnVerdict,
    ce_and,
    ce_or,
    conditional_implications,
    gn_compare,
    gn_compare_gambles,
    gn_leq_events,
    gn_leq_gambles,
    gn_leq_via_algebra,
)
from .inequalities import (
    BoundReport,
    MonotonicityViolation,
    SignRelationReport,
    finite_values_lower_bound,
    inner_event_lower_bound,
    monotonicity_audit,
    nested_conditioning_report,
    product_rule_report,
    sign_relation,
)
from .simplex import LpResult, solve_lp

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
