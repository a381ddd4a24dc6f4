"""Every module-level function and class in the package has a caller in
the package, or a reason to stay that is written down here.

A definition counts as referenced when some other top-level statement of
some module names it: as a name, as an attribute, or in an import.  The
re-exports in ``__init__.py`` do not count, and neither does a
definition's use of itself."""
import ast
from pathlib import Path

import firecontain

PACKAGE = Path(firecontain.__file__).resolve().parent

# module.name -> why it stays without a caller in the package
ALLOWED = {
    "augment.insert_vertex_in_face": "README: vertex insertion",
    "augment.augment_maximal_planar": "README: maximal-planar completion",
    "augment.augment_maximal_triangle_free":
        "README: triangle-free completion",
    "classify.verify_structural_claims":
        "README: structural claim verification",
    "discharge.replay_transfers": "README: replayable transfer ledgers",
    "randgen.random_tf_maximal": "README: seeded quadrangulations",
    "randgen.random_girth5_planar": "README: girth-5 instances",
    "engine._contain_by_region_enum":
        "perfbench's engine.containment.region_enum span looks it up",
}


def _names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def unreferenced() -> list[str]:
    defs, refs = [], []  # (module, name, statement); names per statement
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((module, stmt.name, stmt))
            if module == "__init__" and isinstance(
                    stmt, (ast.Import, ast.ImportFrom)):
                continue  # a re-export is not a use
            refs.append((stmt, _names(stmt)))
    return sorted(f"{module}.{name}" for module, name, stmt in defs
                  if not any(name in names
                             for other, names in refs if other is not stmt))


def test_every_definition_has_a_caller():
    assert unreferenced() == sorted(ALLOWED)
