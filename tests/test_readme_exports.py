"""Tooling check: the package's top level exports exactly the names
that README's "Library" section lists.

The list is the backticked names of the paragraph that follows the
line starting "`bgmu` exports": the lines after the blank lines there,
up to the next blank line. An export is a name in ``vars(bgmu)`` that
is not a module and does not start with an underscore.
"""

import itertools
import re
import types
from pathlib import Path

import bgmu

ROOT = Path(__file__).resolve().parent.parent


def listed_names(readme: str) -> list[str]:
    """The names of README's export list, in its order."""
    lines = readme.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("`bgmu` exports"))
    rest = itertools.dropwhile(lambda line: not line.strip(), lines[start + 1 :])
    block = itertools.takewhile(lambda line: line.strip(), rest)
    return [name for line in block for name in re.findall(r"`(\w+)`", line)]


def test_listed_names_are_found():
    readme = "`y` before\n`bgmu` exports these names:\n\n- a: `f`, `G`;\n  `h`.\n\n`x` later\n"
    assert listed_names(readme) == ["f", "G", "h"]
    assert listed_names(readme.replace(":\n\n", ":\n")) == ["f", "G", "h"]


def test_readme_lists_the_exports():
    readme = (ROOT / "README.md").read_text()
    listed = listed_names(readme)
    # the count README states, each name once
    assert f"`bgmu` exports these {len(set(listed))} names" in readme
    assert len(listed) == len(set(listed))
    exported = [name for name, value in vars(bgmu).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(listed) == sorted(exported)
