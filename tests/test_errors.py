import ast
from pathlib import Path

import pytest

import freqgcn
from freqgcn.errors import ContractViolationError, FreqGcnError, NonFiniteError

PACKAGE = Path(freqgcn.__file__).parent


def raised_names(tree: ast.AST):
    """(line, name) of every ``raise Name`` and ``raise Name(...)`` in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_contract_violation_is_the_package_value_error():
    assert issubclass(ContractViolationError, FreqGcnError)
    assert issubclass(ContractViolationError, ValueError)
    assert issubclass(NonFiniteError, ValueError)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_raises_no_bare_value_error(module):
    # A value type rejects a value with ContractViolationError, which every caller
    # can tell from Python's own ValueError; a bare one would need translating again.
    tree = ast.parse((PACKAGE / module).read_text("utf-8"), filename=module)
    bare = [line for line, name in raised_names(tree) if name == "ValueError"]
    assert bare == [], f"{module} raises ValueError on lines {bare}"
