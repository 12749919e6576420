"""The public names and the README's library examples stay in step with
the code."""

import ast
from pathlib import Path

import lambdafield


def test_star_import_binds_every_public_name():
    """A name in ``__all__`` that the package lacks raises AttributeError."""
    namespace = {}
    exec("from lambdafield import *", namespace)
    assert set(lambdafield.__all__) <= set(namespace)


def test_readme_python_blocks_run():
    """The README's python blocks run in order in one namespace."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0]
              for part in readme.split("```python\n")[1:]]
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_module_globals_are_the_two_caches():
    """The package rebinds no module-global name but the last-call caches
    of ``raycast`` and ``path``; a new one fails here."""
    src = Path(__file__).parents[1] / "src" / "lambdafield"
    rebound = sorted((module.stem, name)
                     for module in src.glob("*.py")
                     for node in ast.walk(ast.parse(module.read_text()))
                     if isinstance(node, ast.Global) for name in node.names)
    assert rebound == [("path", "_last"), ("raycast", "_last")]
