"""The library holds no code that only tests call, no private helper that
nothing reads, and no parameter default that no call overrides.

Every module-level public function, class or constant in `src/voxelcodec/`,
and every public method of those classes, must be referenced, as a name or
an attribute that is read, an import or a string constant, by the library
itself (outside `__init__.py`, whose exports do not count), the demos, the
benchmark, the acceptance suite or the README's Python examples. Only reads
(`ast.Load`) count, so a constant's assignment is not its own reference.
String constants count because the benchmark tracer wraps library functions
and methods by name. A method counts as referenced when its name is,
whatever the object. Every module-level private function, class or constant
must be referenced in the same way by the library, the tests or the
benchmark, so a helper left behind by a change fails here. Every defaulted
parameter of a library function or method other than `__init__` must be
passed by some call in the library, the tests, the benchmark, the demos or
the README, so a setting that nothing sets fails here too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voxelcodec"

# Public names kept only as test oracles, each with its reason. The per-crop
# oracle of the level pass lives in tests/oracles.py, so none is left.
ORACLES = {}

# Public names kept only because the benchmark tracer wraps them by name; they
# go when the tracer stops patching the library (ROADMAP item 1).
TRACER_ONLY = ("quantize_level", "quantize_distribution", "level_probabilities",
               "node_probability", "observe")


def _public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def _bare(name):
    """A definition's name as a reference reads it: a method without its class."""
    return name.rsplit(".", 1)[-1]


def _constants(body):
    """The names a module's top-level assignments bind."""
    for node in body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id


def _public_definitions():
    """(module file name, name) of every module-level public def, class and
    constant, and (module file name, Class.method) of every public method of
    those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        for node in _public(body, (ast.FunctionDef, ast.ClassDef)):
            yield path.name, node.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body, ast.FunctionDef):
                    yield path.name, f"{node.name}.{method.name}"
        for name in _constants(body):
            if not name.startswith("_"):
                yield path.name, name


def _private_definitions():
    """(module file name, name) of every module-level private def, class and
    constant; dunder names are not private."""
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        names = [node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for name in names + list(_constants(body)):
            if name.startswith("_") and not name.startswith("__"):
                yield path.name, name


def _referenced(tree):
    """Every identifier a module reads, and every string constant in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def test_every_private_definition_is_read():
    files = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*(_referenced(ast.parse(p.read_text())) for p in files))
    private = list(_private_definitions())
    assert any(name == "_add_count" for _, name in private)
    unused = sorted(f"{module}:{name}" for module, name in private if name not in used)
    assert not unused, f"private definitions nothing reads: {unused}"


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


def _defaulted_parameters():
    """(module file name, function, parameter, position) of every defaulted
    parameter of a library function or method other than `__init__`. The
    position counts the positional arguments a call passes, so a method's
    starts after self or cls; a keyword-only parameter's is None."""
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        functions = [(node, 0) for node in body if isinstance(node, ast.FunctionDef)]
        functions += [(method, 1) for node in body if isinstance(node, ast.ClassDef)
                      for method in node.body if isinstance(method, ast.FunctionDef)
                      and method.name != "__init__"]
        for fn, bound in functions:
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield path.name, fn.name, arg.arg, i - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield path.name, fn.name, arg.arg, None


def _calls(trees):
    """{bare function name: (most positional arguments of a call, every
    keyword a call names)} over every call in the trees; a call that
    unpacks *args or **kwargs names the keyword None."""
    calls = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            n, keywords = calls.get(name, (0, set()))
            unpacks = any(isinstance(a, ast.Starred) for a in node.args)
            calls[name] = (max(n, len(node.args)),
                           keywords | {k.arg for k in node.keywords} | ({None} if unpacks else set()))
    return calls


def test_every_default_is_passed_somewhere():
    """A defaulted parameter that no call in the library, the tests, the
    benchmark, the demos or the README passes, by keyword or by position,
    is a setting nothing sets. Calls match on the bare function name."""
    files = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    trees = [ast.parse(p.read_text()) for p in files]
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    calls = _calls(trees)
    defaulted = list(_defaulted_parameters())
    assert any(param == "want_cache" for _, _, param, _ in defaulted)
    unpassed = []
    for module, fn, param, pos in defaulted:
        n, keywords = calls.get(fn, (0, set()))
        if not ({param, None} & keywords or (pos is not None and pos < n)):
            unpassed.append(f"{module}:{fn}({param})")
    assert not unpassed, f"defaulted parameters no call ever passes: {unpassed}"
