"""Source-level guards on the library package."""

import ast
from pathlib import Path

import gnprob

SRC = Path(gnprob.__file__).parent


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so invariants in the library
    # are explicit raises.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_hand_written_value_semantics():
    # Immutable values are frozen dataclasses: equality, hashing, slots
    # and the refusal to assign come from ``dataclass``, never by hand.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names = [item.target.id]
                else:
                    names = []
                found += [
                    f"{path.name}:{item.lineno} {node.name}.{name}"
                    for name in names
                    if name in ("__eq__", "__hash__", "__setattr__", "__slots__")
                ]
    assert not found, found


def test_no_named_tuple_values():
    # One value idiom: a NamedTuple would also be a tuple, indexable and
    # unpackable, where every other value is a frozen dataclass.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any("NamedTuple" in ast.unparse(b) for b in node.bases):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, found


PUBLIC_NAMES = """
    Assessment BoundReport ConditionalEvent ConditionalGamble ConditionalImplication
    CredalSet EmptyConditioningError EnumerationLimitError Event ExtensionInterval
    GainSpec GainTerm Gamble GnVerdict GnprobError LayeredProbability LpResult
    MonotonicityViolation Partition SignRelationReport TrivialTargetError Universe
    UniverseMismatchError UnsupportedOperationError ValidationError Verdict
    algebra as_fraction asl_monotonicity_counterexample assessments ce_and ce_or
    check check_avoiding_sure_loss coherence conditional_implications
    conditional_inner conditional_outer conditioned_max conjugate df_to_imprecise
    errors evaluate_gain extension extension_interval finite_values_lower_bound
    generated_partition gn gn_compare gn_compare_gambles gn_leq_events
    gn_leq_gambles gn_leq_via_algebra inequalities inf_over inner_event
    inner_event_lower_bound is_logically_dependent monotonicity_audit
    natural_extension nested_conditioning_report normalize_class outer_event
    product_partition product_rule_report random_credal random_layered
    sign_relation simplex solve_lp sup_over upper_extension
""".split()


def test_public_surface_snapshot():
    # A name enters or leaves the package's public API only on purpose:
    # update this list in the same change.
    assert sorted(gnprob.__all__) == sorted(PUBLIC_NAMES)


# The standard library modules the package imports. The library has no
# third-party dependencies, and a new import adds to the start-up time of
# every command, so the set changes only on purpose.
STDLIB_IMPORTS = {
    "__future__", "argparse", "dataclasses", "enum", "fractions", "json",
    "math", "random", "sys", "typing",
}


def test_imports_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found == STDLIB_IMPORTS


def test_commands_neither_load_nor_write():
    # ``main`` alone loads the problem file and writes the output, so that
    # every command shares one frame: each ``cmd_*`` returns what it found.
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("cmd_")]
    found = [
        f"{command.name}:{call.lineno} {ast.unparse(call.func)}"
        for command in commands
        for call in ast.walk(command)
        if isinstance(call, ast.Call)
        and ast.unparse(call.func) in ("print", "load_problem", "json.dumps")
    ]
    assert len(commands) == 6 and not found, found


def test_no_module_assigns_into_another():
    # Each module owns its state: no module sets or deletes an attribute of
    # another package module, so no decision is split across two modules
    # through a global that one writes and the other reads.
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {"gnprob"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (None, "gnprob"):
                bound.update(alias.asname or alias.name for alias in node.names if alias.name in modules)
            elif isinstance(node, ast.Import):
                bound.update(alias.asname or "gnprob" for alias in node.names if alias.name.split(".")[0] == "gnprob")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                root = node.value
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("setattr", "delattr"):
                root = node.args[0]
            else:
                continue
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
