"""The library holds no code that only tests call.

Every module-level public function or class in `src/voxelcodec/` must be
referenced, as a name, an attribute, an import or a string constant, by the
library itself (outside `__init__.py`, whose exports do not count), the
demos, the benchmark, the acceptance suite or the README's Python examples.
String constants count because the benchmark tracer wraps library functions
by name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voxelcodec"

# Public names kept only as test oracles, each with its reason.
ORACLES = {
    "refine_offsets": "per-crop refinement offsets, the oracle of refine_apply's level pass",
}


def _public_definitions():
    """(module file name, name) of every module-level public def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.name, node.name


def _referenced(tree):
    """Every identifier a module refers to, and every string constant in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _users():
    """The parsed modules that count as callers."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    trees = [ast.parse(p.read_text()) for p in files]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return trees


def test_every_public_definition_has_a_caller():
    used = set().union(*map(_referenced, _users()))
    unused = sorted(f"{module}:{name}" for module, name in _public_definitions()
                    if name not in used and name not in ORACLES)
    assert not unused, f"public definitions nothing outside the tests calls: {unused}"


def test_oracles_are_still_defined_and_unused():
    defined = {name for _, name in _public_definitions()}
    used = set().union(*map(_referenced, _users()))
    assert set(ORACLES) <= defined
    assert not set(ORACLES) & used, "an allowlisted oracle now has a caller; drop it from ORACLES"
