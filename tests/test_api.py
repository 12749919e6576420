"""The public names and the README's library examples stay in step with
the code."""

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
