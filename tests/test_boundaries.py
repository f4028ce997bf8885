"""Module boundaries.

The independent routes that check the production kernels (the form
calculus, the commutator formula for the curvature, the dense window)
live in `repro`.  No production module may import `repro`; only the
front door `cli` and `repro` itself do.
"""

import ast
from pathlib import Path

import pytest

import pdocycles
from pdocycles import forms, repro

SRC = Path(pdocycles.__file__).parent
ORACLES = ("smoothing_part", "theta_form", "curvature_form", "form_wedge",
           "form_bracket", "form_differential")


def imported_modules(path: Path) -> set[str]:
    """The package modules a source file imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name.startswith("pdocycles.")]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("pdocycles")):
            base = (node.module or "").removeprefix("pdocycles").lstrip(".")
            # `from . import repro` names the module among the imported names
            names = [base] if base else [alias.name for alias in node.names]
        else:
            continue
        found.update(name.removeprefix("pdocycles.").split(".")[0]
                     for name in names)
    return found


# Every module except the two that may import `repro`.
PRODUCTION = sorted(p.stem for p in SRC.glob("*.py")
                    if p.stem not in ("cli", "repro"))


def test_import_reader_finds_known_imports():
    assert "repro" in imported_modules(SRC / "cli.py")
    assert {"forms", "lattice"} <= imported_modules(SRC / "repro.py")


@pytest.mark.parametrize("module", PRODUCTION)
def test_only_the_front_door_imports_repro(module):
    assert "repro" not in imported_modules(SRC / f"{module}.py")


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_live_in_repro_only(name):
    assert callable(getattr(repro, name))
    assert not hasattr(forms, name)
    assert not hasattr(pdocycles, name)
