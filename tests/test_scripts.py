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


def test_one_coercion():
    # ring(x) is the one conversion: only RingElement defines _coerce
    found = set()
    for path in sorted((ROOT / "src" / "weylknots").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                found.update(node.name for item in node.body
                             if isinstance(item, ast.FunctionDef) and item.name == "_coerce")
    assert found == {"RingElement"}, sorted(found)


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
