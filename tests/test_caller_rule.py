"""The caller rule: every public module-level function or class of the
package is named somewhere in `src/` or `perfbench/` outside its own
definition, so code that nothing calls does not stay.

A name counts where it is read (`name`, `module.name`) or where a string
names it exactly, as `perfbench/tracer.py` names the callables it hooks
("quadrature.integrate_1d_line").  An import alone, such as a re-export
in `__init__`, is not a caller, and neither is the body of the definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bergman_orlicz"

# "module.name" -> why it stays with no caller in src/ or perfbench/
ALLOWED = {
    "lattice.cells": "tests/test_lattice.py::test_covered_mask_matches_cells "
                     "uses it as the reference for the sampled zone",
}


def _public_definitions():
    """(module, name) -> (path, first line, last line) of each public
    module-level def or class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out[(path.stem, node.name)] = (path, node.lineno,
                                               node.end_lineno)
    return out


def _references():
    """name -> [(path, line)] of every read of a name or attribute, and
    every string that is a dotted name, under its last component."""
    out = {}
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and all(p.isidentifier() for p in node.value.split("."))):
                name = node.value.split(".")[-1]
            else:
                continue
            out.setdefault(name, []).append((path, node.lineno))
    return out


def _uncalled():
    refs = _references()
    return sorted(
        f"{module}.{name}"
        for (module, name), (path, lo, hi) in _public_definitions().items()
        if not any(p != path or not lo <= line <= hi
                   for p, line in refs.get(name, ())))


def test_every_public_name_has_a_caller():
    extra = [name for name in _uncalled() if name not in ALLOWED]
    assert not extra, (
        f"public names that nothing in src/ or perfbench/ calls: {extra}; "
        f"delete them, or add each to ALLOWED with its reason")


def test_allowlist_is_current():
    # an entry that gained a caller, or whose name is gone, leaves the list
    assert sorted(ALLOWED) == [n for n in _uncalled() if n in ALLOWED]
