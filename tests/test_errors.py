import ast
import errno
import importlib
import re
from pathlib import Path

import pytest

import freqgcn
from freqgcn import errors
from freqgcn.cli import guarded
from freqgcn.errors import (
    ContractViolationError,
    DegenerateDatasetError,
    EmptyInputError,
    FreqGcnError,
    InsufficientLengthError,
    ModelMismatchError,
    NonFiniteError,
)

PACKAGE = Path(freqgcn.__file__).parent
README = Path(__file__).parents[1] / "README.md"
ERROR_TYPES = sorted((c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, FreqGcnError)),
                     key=lambda c: c.__name__)
# The README's exit-code table: how each row begins, and the error types it names.
EXIT_ROWS = {1: "any package error not listed below", 2: "missing input", 3: "sequence too short",
             4: "degenerate (single-class) dataset", 5: "model/version/shape mismatch"}
LISTED = {EmptyInputError: 2, InsufficientLengthError: 3, DegenerateDatasetError: 4, ModelMismatchError: 5}


def raised_names(tree: ast.AST):
    """(line, name) of every ``raise Name`` and ``raise Name(...)`` in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_oracles_are_not_package_api(module):
    # They live in tests/oracles.py; no command runs them.
    loaded = importlib.import_module("freqgcn" if module == "__init__" else f"freqgcn.{module}")
    moved = {"dft_naive", "normalize_adjacency", "spectral_radius", "POWER_ITERATIONS", "AttentionParams",
             "attention_weights", "attention_aggregate", "_frozen"}
    assert sorted(moved & set(dir(loaded))) == []
    assert sorted(moved & set(freqgcn.__all__)) == []


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


def caught_names():
    """Every name in an ``except`` clause of the package's modules."""
    for module in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text("utf-8"), filename=module.name)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                yield from (name.id for name in ast.walk(node.type) if isinstance(name, ast.Name))


def test_each_error_type_is_handled_its_own_way():
    # A type earns its place by its own exit status, its own message form, or a caller that catches
    # it by name; any other failure raises the type it is handled as.
    tree = ast.parse((PACKAGE / "errors.py").read_text("utf-8"))
    caught = set(caught_names())
    bare = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and issubclass(getattr(errors, node.name), FreqGcnError):
            defined = {target.id for stmt in node.body if isinstance(stmt, ast.Assign) for target in stmt.targets}
            defined |= {stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
            if not ("exit_code" in defined or "__str__" in defined or node.name in caught):
                bare.append(node.name)
    assert bare == []


def readme_exit_rows():
    section = README.read_text("utf-8").split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    return {int(code): meaning for code, meaning in re.findall(r"^\| `(\d+)` \| (.*) \|$", section, re.M)}


def test_readme_table_holds_the_exit_codes():
    rows = readme_exit_rows()
    assert sorted(rows) == [0, 1, 2, 3, 4, 5]
    for code, start in EXIT_ROWS.items():
        assert rows[code].startswith(start), (code, rows[code])


def raised(cls):
    """An instance of ``cls``, made with the arguments its constructor takes."""
    if issubclass(cls, OSError):
        return cls(errno.EACCES, "Permission denied", "out.csv")
    return cls("something went wrong")


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_exit_code_is_the_readme_row(cls):
    assert cls.exit_code == LISTED.get(cls, 1)


@pytest.mark.parametrize("exc", [*map(raised, ERROR_TYPES), FileNotFoundError("no such input: x")],
                         ids=lambda exc: type(exc).__name__)
def test_guarded_ends_in_the_exit_code_and_one_line(exc, capsys):
    @guarded
    def command():
        raise exc

    with pytest.raises(SystemExit) as ended:
        command()
    assert ended.value.code == getattr(exc, "exit_code", 2)
    assert capsys.readouterr() == ("", f"error: {exc}\n")
