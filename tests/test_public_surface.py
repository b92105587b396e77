"""Every public top-level function and class of modemb has a consumer.

A public name must be read somewhere in ``src/modemb`` or in the benchmark
program (``bench/*.py``), outside its own definition and outside the
package's ``__init__.py``. A name that only the tests reach is dead weight:
give it a consumer in the program or delete it.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modemb"
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
MODULE_NAMES = {path.stem for path in MODULES}
CONSUMERS = MODULES + sorted((ROOT / "bench").glob("*.py"))

# Public names that only tests reach, on purpose.
EXEMPT = {
    "box_apply": "dense reference that the pruned box pieces are tested against",
    "delta_apply": "dense reference that the dyadic pieces are tested against",
    **dict.fromkeys(
        ("tau", "sigma", "tau_region", "sigma_region"),
        "exact index function exported in modemb.__all__; the oracle computes "
        "it through tau_with_region / sigma_with_region"),
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


def test_exemptions_name_public_definitions():
    defined = {node.name for _, node in _public_definitions()}
    assert set(EXEMPT) <= defined
