"""Module boundaries that the design relies on, checked on the source."""

import ast
from pathlib import Path

import resfluor

SRC = Path(resfluor.__file__).resolve().parent
EIGEN_FORM = {"lam", "U", "Uinv", "_diagonalizable"}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_only_semigroup_reads_the_eigen_form():
    # every other module goes through SemigroupCache.at or .component
    for path in sorted(SRC.glob("*.py")):
        if path.name == "semigroup.py":
            continue
        names = {
            node.attr
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and node.attr in EIGEN_FORM
        }
        assert not names, f"{path.name} reads {sorted(names)}"


def test_oracle_shares_no_code_with_the_analytic_pipeline():
    # the kernel oracle must stay an independent second route
    imported = set()
    for node in ast.walk(_tree(SRC / "guichardet.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").lstrip("."))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for banned in ("davies", "semigroup"):
        assert not any(
            name == banned or name.endswith("." + banned) for name in imported
        ), banned
