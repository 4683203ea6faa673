"""The library holds no code that only tests call.

Every module-level public function or class in `src/voxelcodec/`, and every
public method of those classes, must be referenced, as a name, an attribute,
an import or a string constant, by the library itself (outside
`__init__.py`, whose exports do not count), the demos, the benchmark, the
acceptance suite or the README's Python examples. String constants count
because the benchmark tracer wraps library functions and methods by name. A
method counts as referenced when its name is, whatever the object.
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

# Public names kept only because the benchmark tracer wraps them by name; they
# go when the tracer stops patching the library (ROADMAP item 1).
TRACER_ONLY = ("quantize_level", "quantize_distribution", "level_probabilities",
               "node_probability", "observe")


def _public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def _bare(name):
    """A definition's name as a reference reads it: a method without its class."""
    return name.rsplit(".", 1)[-1]


def _public_definitions():
    """(module file name, name) of every module-level public def and class,
    and (module file name, Class.method) of every public method of those
    classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text()).body, (ast.FunctionDef, ast.ClassDef)):
            yield path.name, node.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body, ast.FunctionDef):
                    yield path.name, f"{node.name}.{method.name}"


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
                    if _bare(name) not in used and name not in ORACLES)
    assert not unused, f"public definitions nothing outside the tests calls: {unused}"


def test_oracles_are_still_defined_and_unused():
    defined = {name for _, name in _public_definitions()}
    used = set().union(*map(_referenced, _users()))
    assert set(ORACLES) <= defined
    assert not set(ORACLES) & used, "an allowlisted oracle now has a caller; drop it from ORACLES"


def test_tracer_only_names_have_no_library_caller():
    spans = _referenced(ast.parse((ROOT / "perfbench" / "spans.py").read_text()))
    library = set().union(*(_referenced(ast.parse(p.read_text()))
                            for p in sorted(PACKAGE.glob("*.py"))))
    defined = {_bare(name) for _, name in _public_definitions()}
    for name in TRACER_ONLY:
        assert name in defined and name in spans, name
        assert name not in library, f"{name} has a caller in src/; drop it from TRACER_ONLY"
