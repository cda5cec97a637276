import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bridgelab"


def test_runtime_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_the_kernel_module_imports_only_the_errors_of_the_package():
    # potential.py imports the Newton loop from _integrate, so _integrate must
    # not import anything that imports potential.py
    tree = ast.parse((SRC / "_integrate.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    local = [node.module for node in imports if isinstance(node, ast.ImportFrom) and node.level]
    assert local == ["errors"]
    absolute = [alias.name for node in imports if isinstance(node, ast.Import)
                for alias in node.names]
    absolute += [node.module for node in imports
                 if isinstance(node, ast.ImportFrom) and not node.level]
    assert not [name for name in absolute if name.split(".")[0] == "bridgelab"]


def test_every_error_type_is_raised_somewhere():
    # an exception class that nothing raises is dead API
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)
                and any(isinstance(base, ast.Name) and base.id == "BridgeLabError"
                        for base in node.bases)}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert declared and not declared - raised, sorted(declared - raised)


KIND_CONSTANTS = ("QUADRATIC_ISOTROPIC", "QUADRATIC_MATRIX", "NEG_LOG", "CUSTOM")


def _names_a_kind(node) -> bool:
    """Whether an operand is ``kind``, ``P.kind``, a kind constant, or a
    tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_kind(item) for item in node.elts)
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            or isinstance(node, ast.Name) and node.id in {"kind", *KIND_CONSTANTS})


def test_only_the_closed_forms_and_the_config_reader_branch_on_a_potential_kind():
    # potentials supply their derivatives; code does not branch on the kind
    # string except to pick an exact formula or to build a builtin from JSON
    allowed = {"_closed_form", "closed_form_flow", "potential_from_config"}
    constants = ast.parse((SRC / "potential.py").read_text(encoding="utf-8"))
    assert set(KIND_CONSTANTS) <= {target.id for node in constants.body
                                   if isinstance(node, ast.Assign) for target in node.targets}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(_names_a_kind(op) for op in [node.left, *node.comparators]):
                continue
            # the innermost function whose lines hold the comparison
            owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            owner = max(owners, key=lambda f: f.lineno).name if owners else "<module>"
            found.append(owner)
            assert owner in allowed, f"{path.name}:{node.lineno} compares a kind in {owner}"
    assert set(found) == allowed


def test_every_private_top_level_name_is_used_in_the_package():
    # a helper that a refactor leaves behind is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}:{d}" for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in used]
    assert not unused, unused


def test_the_command_line_imports_no_numerical_flow_or_unit_horizon_solve():
    # a config names a builtin only, whose flow and unit-horizon cost are
    # exact: cli.py reads them through flows_on_grid and verify_bounds
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"gradient_flow", "unit_horizon_cost"}


def test_the_bound_catalogue_copies_no_case_fact_into_its_reports():
    # a report holds its own labels; the case's kind and solver diagnostics
    # are written once per case, by the caller
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & {"solver", "boundary_error", "energy_maxdev", "kind"}
