"""Every public top-level function and class of modemb, and every public
method of a public class, has a consumer.

A public name must be read somewhere in ``src/modemb`` or in the benchmark
program (``bench/*.py``), outside its own definition and outside the
package's ``__init__.py``. A method counts as read when its name is read
anywhere there, as a name or an attribute, outside its own body. A name that
only the tests reach is dead weight: give it a consumer in the program or
delete it. The tests' own full-grid references live in ``tests/dense.py``.
"""
import ast
import importlib
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modemb"
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
MODULE_NAMES = {path.stem for path in MODULES}
CONSUMERS = MODULES + sorted((ROOT / "bench").glob("*.py"))

# Public names that only tests reach, on purpose.
EXEMPT = {
    **dict.fromkeys(
        ("tau", "sigma", "tau_region", "sigma_region"),
        "exact index function exported in modemb.__all__; the oracle computes "
        "it through exponents._extremum"),
}
# Public methods, as Class.method, that only tests reach, on purpose.
EXEMPT_METHODS = {
    **dict.fromkeys(
        (f"SpaceSpec.{name}" for name in ("modulation", "besov", "triebel", "sobolev",
                                           "fourier_l")),
        "constructors of a class exported in modemb.__all__"),
    "GridFunction.in_space": "the public way to read a member's space samples, the "
                             "counterpart of in_frequency; no norm needs them",
}


def _identifiers(node):
    """Every identifier read under ``node``: names, and the attribute names
    read off a modemb module (``oracle.decide``). A method of the same name,
    such as ``p.dual()``, is not a read of a module-level ``dual``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in MODULE_NAMES):
            yield sub.attr


def _public_definitions():
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.name, node


def test_every_public_name_has_a_consumer():
    named = Counter()
    for path in CONSUMERS:
        named.update(_identifiers(ast.parse(path.read_text())))
    unused = [f"{module}:{node.name}" for module, node in _public_definitions()
              if node.name not in EXEMPT
              and named[node.name] <= Counter(_identifiers(node))[node.name]]
    assert not unused, f"public names that only tests reach: {', '.join(unused)}"


def _public_methods():
    """(module file, ``Class.method``, method node) for every public method of
    a public class."""
    for module, node in _public_definitions():
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield module, f"{node.name}.{item.name}", item


def _read_names(node):
    """Every name read under ``node``, as a name or as any attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_method_has_a_consumer():
    named = Counter()
    for path in CONSUMERS:
        named.update(_read_names(ast.parse(path.read_text())))
    unused = [f"{module}:{name}" for module, name, node in _public_methods()
              if name not in EXEMPT_METHODS
              and named[node.name] <= Counter(_read_names(node))[node.name]]
    assert not unused, f"public methods that only tests reach: {', '.join(unused)}"


def test_exemptions_name_public_definitions():
    defined = {node.name for _, node in _public_definitions()}
    assert set(EXEMPT) <= defined
    assert set(EXEMPT_METHODS) <= {name for _, name, _ in _public_methods()}


def _traced_layers() -> tuple:
    """``LAYERS`` of bench/tracing.py: the modules whose public functions the
    tracer and the step clock wrap."""
    for node in ast.parse((ROOT / "bench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS")


def test_public_callables_of_traced_layers_are_plain_functions():
    """The tracer and the step clock wrap only plain functions. A public name
    bound to a decorator's wrapper object (``functools.lru_cache``, say)
    would drop out of every trace and step count without an error."""
    hidden = []
    for layer in _traced_layers():
        module = importlib.import_module(f"modemb.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__
                    and not isinstance(obj, (types.FunctionType, type))):
                hidden.append(f"{layer}.{name}: {type(obj).__name__}")
    assert not hidden, f"public callables the tracer cannot wrap: {', '.join(hidden)}"
