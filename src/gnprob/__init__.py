"""Exact reasoning with imprecise conditional probabilities on finite spaces.

The package decides Goodman-Nguyen relatedness of conditional events and
gambles, checks consistency of precise and imprecise assessments through
exact-rational linear programs, and computes natural, convex natural and
upper extensions in closed form through inner and outer conditional
events.

``import gnprob`` loads no submodule: a submodule is imported the first
time one of its names is read from the package (PEP 562), so a program
loads only the modules it uses. Each read looks the name up in its
submodule and the package keeps no copy, so a name replaced in the
submodule is what the package gives.
"""

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "algebra": """ConditionalEvent ConditionalGamble Event Gamble Partition Universe as_fraction
        generated_partition inf_over inner_event is_logically_dependent outer_event
        product_partition sup_over""",
    "assessments": """Assessment CredalSet LayeredProbability normalize_class random_credal
        random_layered""",
    "coherence": """GainSpec GainTerm Verdict check check_avoiding_sure_loss conditioned_max
        conjugate evaluate_gain""",
    "errors": """EmptyConditioningError EnumerationLimitError GnprobError TrivialTargetError
        UniverseMismatchError UnsupportedOperationError ValidationError""",
    "extension": """ExtensionInterval conditional_inner conditional_outer df_to_imprecise
        extension_interval natural_extension upper_extension""",
    "gn": """ConditionalImplication GnVerdict ce_and ce_or conditional_implications gn_compare
        gn_compare_gambles gn_leq_events gn_leq_gambles gn_leq_via_algebra""",
    "inequalities": """BoundReport MonotonicityViolation SignRelationReport
        finite_values_lower_bound inner_event_lower_bound monotonicity_audit
        nested_conditioning_report product_rule_report sign_relation""",
    "simplex": "LpResult solve_lp",
}
# The submodule that serves each public name; a submodule serves itself.
_HOME = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names.split())
}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(home, globals(), None, (), 1)
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
