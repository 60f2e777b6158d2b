import ast
import doctest
import importlib
import sys
import tokenize
from pathlib import Path

import pytest

import weylknots

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


@pytest.mark.xfail(strict=True, reason="weylknots.cli lands with ROADMAP item 1")
def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "weylknots").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_runtime_dependencies(path):
    # every import of the package is relative or from the standard library
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        for module in modules:
            assert module.partition(".")[0] in sys.stdlib_module_names, module


# CPython's parser doubles its token array when a module passes this many
# tokens, comments and blank lines not counted.
PARSER_TOKEN_STEP = 8192


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "weylknots").glob("*.py")),
                         ids=lambda path: path.name)
def test_modules_stay_under_the_parser_token_step(path):
    """Compiling a module past the step costs about 0.5 MB more peak memory,
    which the benchmark's ``peak_rss_mb`` reads on every workload, since it
    runs without cached bytecode.  This check can go once the benchmark
    times compilation apart from the library's work (ROADMAP item 3)."""
    with path.open("rb") as source:
        tokens = [tok for tok in tokenize.tokenize(source.readline) if tok.type not in
                  (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)]
    assert len(tokens) < PARSER_TOKEN_STEP, len(tokens)


def test_package_docstring_runs():
    result = doctest.testmod(weylknots)
    assert result.attempted and not result.failed, result


def test_exports_resolve():
    assert weylknots.__all__
    for name in weylknots.__all__:
        assert getattr(weylknots, name, None) is not None, name


def _classes_defining(method):
    """Names of the classes in the package whose body defines method."""
    found = set()
    for path in sorted((ROOT / "src" / "weylknots").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                found.update(node.name for item in node.body
                             if isinstance(item, ast.FunctionDef) and item.name == method)
    return found


def test_one_coercion():
    # ring(x) is the one conversion: only RingElement defines _coerce
    found = _classes_defining("_coerce")
    assert found == {"RingElement"}, sorted(found)


def test_no_ring_has_dot():
    # a matrix product sums its entries in linalg._row_times alone
    found = _classes_defining("dot")
    assert not found, sorted(found)


# The underscore names one module of the package may import from another.
PRIVATE_IMPORTS = {("braids", "linalg", "_row_times")}


def test_private_names_stay_in_their_module():
    found = set()
    for path in sorted((ROOT / "src" / "weylknots").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            if node.level or node.module.startswith("weylknots."):
                module = node.module.rpartition(".")[2]
                found.update((path.stem, module, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    assert found <= PRIVATE_IMPORTS, sorted(found - PRIVATE_IMPORTS)


def test_one_product_path_in_represent():
    # braids.represent hands its running product to linalg in the form of
    # Matrix.kernel_rows and takes it back by from_kernel_rows; it names no
    # ring class and reads no scalar's value, so no ring kind gets a fork
    rings = ast.parse((ROOT / "src" / "weylknots" / "rings.py").read_text(encoding="utf-8"))
    ring_classes = {node.name for node in rings.body if isinstance(node, ast.ClassDef)}
    assert {"FieldScalar", "PrimeField", "LaurentRing"} <= ring_classes
    path = ROOT / "src" / "weylknots" / "braids.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name) and node.id in ring_classes | {"type"}:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ("value", "p", "__class__"):
            found.add("." + node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names if alias.name in ring_classes)
    assert not found, sorted(found)
