"""The test-only oracle stays out of the product code.

:mod:`repro.oracle` holds the from-scratch twins of the scheduling kernel
and the runtime. Product code must never run them, so no module under
``src/repro`` may import it, except the ``repro bench`` harness, which
times the fast code against them.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ALLOWED = {"experiments/bench.py", "oracle.py"}


def _imported_modules(source: str, package: str) -> set[str]:
    """Absolute names a module in ``package`` may import (relative resolved).

    ``from X import y`` contributes both ``X`` and ``X.y``, since ``y`` may
    be a submodule (``from repro import oracle``).
    """
    pkg = package.split(".")
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = pkg[: len(pkg) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _imports_oracle(names: set[str]) -> bool:
    return any(n == "repro.oracle" or n.startswith("repro.oracle.") for n in names)


def test_only_the_bench_imports_the_oracle():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.as_posix() in ALLOWED:
            continue
        package = ".".join(("repro",) + rel.parts[:-1])
        if _imports_oracle(_imported_modules(path.read_text(), package)):
            offenders.append(rel.as_posix())
    assert offenders == []


@pytest.mark.parametrize(
    "source",
    [
        "import repro.oracle",
        "from repro import oracle",
        "from repro.oracle import reference_run_batch",
        "from .. import oracle",
        "from ..oracle import ReferenceRuntime",
        "def f():\n    from ..oracle import reference_mct_map\n",
    ],
)
def test_scanner_catches_every_import_form(source):
    assert _imports_oracle(_imported_modules(source, "repro.core"))


def test_scanner_ignores_lookalikes():
    source = "from .. import oracle_notes\nfrom ..core import oracle\n"
    assert not _imports_oracle(_imported_modules(source, "repro.core"))
