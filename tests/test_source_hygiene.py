"""Source hygiene lint: logging discipline and one home for session tunables.

Three rules, enforced over the modules under ``src/repro/`` by walking the
AST (so docstrings and comments never false-positive):

* no ``print(...)`` calls — CLI entry points are the only place the library
  writes to stdout, everything else goes through the logging satellite;
* no bare ``logging.getLogger(...)`` — loggers must come from
  :func:`repro.utils.logging.get_logger` so they nest under the library
  namespace and pick up the trace-id filter;
* no class under ``repro.api``, ``repro.network`` or ``repro.runtime``
  declares a field named after one of the five session tunables — they live
  on :class:`repro.protocol.config.SessionParameters`, so a new tunable is
  added in one place.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

# Modules allowed to print (user-facing CLIs) or to call logging.getLogger
# (the logging helper itself).
PRINT_ALLOWED = ("cli.py", "__main__.py")
GETLOGGER_ALLOWED = (str(Path("utils") / "logging.py"),)


def _module_paths() -> list[Path]:
    return sorted(SRC_ROOT.rglob("*.py"))


def _call_violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = str(path.relative_to(SRC_ROOT))
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "print"
            and not relative.endswith(PRINT_ALLOWED)
        ):
            violations.append(f"{relative}:{node.lineno}: print() call")
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "getLogger"
            and isinstance(func.value, ast.Name)
            and func.value.id == "logging"
            and relative not in GETLOGGER_ALLOWED
        ):
            violations.append(
                f"{relative}:{node.lineno}: bare logging.getLogger() "
                "(use repro.utils.logging.get_logger)"
            )
    return violations


def test_source_tree_is_nontrivial():
    assert len(_module_paths()) > 25


def test_no_print_calls_and_no_bare_getlogger_in_library_code():
    violations = [
        violation
        for path in _module_paths()
        for violation in _call_violations(path)
    ]
    assert not violations, "\n".join(violations)


#: The five session tunables, held only by repro.protocol.config.
SESSION_TUNABLES = frozenset(
    {
        "identity_pairs",
        "check_pairs_per_round",
        "num_check_bits",
        "authentication_tolerance",
        "check_bit_tolerance",
    }
)
#: Packages whose classes must hold the tunables through SessionParameters.
TUNABLE_FREE_PACKAGES = ("api", "network", "runtime")


def _declared_fields(cls: ast.ClassDef) -> list[tuple[int, str]]:
    """Class-body names and ``self.<name>`` assignments in the class's methods."""
    declared = []
    for statement in cls.body:
        if isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        elif isinstance(statement, ast.Assign):
            targets = statement.targets
        else:
            targets = []
        declared += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                declared.append((node.lineno, node.attr))
    return declared


def _tunable_field_violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = path.relative_to(SRC_ROOT)
    return [
        f"{relative}:{line}: {cls.name} declares the session tunable {name!r} "
        "(hold a repro.protocol.config.SessionParameters instead)"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for line, name in _declared_fields(cls)
        if name in SESSION_TUNABLES
    ]


def test_session_tunables_live_only_in_protocol_config():
    paths = [
        path
        for path in _module_paths()
        if path.relative_to(SRC_ROOT).parts[0] in TUNABLE_FREE_PACKAGES
    ]
    assert len(paths) > 10
    violations = [
        violation for path in paths for violation in _tunable_field_violations(path)
    ]
    assert not violations, "\n".join(violations)


def test_tunable_check_sees_dataclass_fields_and_self_attributes(tmp_path):
    module = tmp_path / "example.py"
    module.write_text(
        "class Config:\n"
        "    identity_pairs: int = 8\n"
        "    name = 'x'\n"
        "class Holder:\n"
        "    def __init__(self):\n"
        "        self.check_bit_tolerance = 0.1\n"
    )
    found = [
        name
        for tree_class in ast.walk(ast.parse(module.read_text()))
        if isinstance(tree_class, ast.ClassDef)
        for _, name in _declared_fields(tree_class)
    ]
    assert found == ["identity_pairs", "name", "check_bit_tolerance"]
