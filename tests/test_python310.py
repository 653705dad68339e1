"""confsets stays importable on Python 3.10, the oldest that pyproject.toml allows.

No 3.10 interpreter need be at hand: the source must parse under 3.10's
grammar, and no module-level compiled regex may use a construct that 3.10's
`re` cannot compile (possessive repeats and atomic groups came in 3.11).
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import confsets

# re's parser is public enough to walk a pattern's opcodes from 3.11 on; on
# 3.10 the regexes below would already fail to compile when confsets imports
_parser = getattr(re, "_parser", None)
_NEW_IN_3_11 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def test_every_module_parses_with_the_python_3_10_grammar():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = sorted(Path(confsets.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _opcodes(node):
    """Every opcode of a parsed pattern, nested groups and repeats included."""
    if isinstance(node, _parser.SubPattern):
        for op, av in node.data:
            yield op
            yield from _opcodes(av)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item)


def _constructs_new_in_3_11(pattern: re.Pattern) -> set[str]:
    ops = _opcodes(_parser.parse(pattern.pattern, pattern.flags))
    return {str(op) for op in ops} & _NEW_IN_3_11


@pytest.mark.skipif(_parser is None, reason="re._parser is new in Python 3.11")
def test_no_module_regex_needs_python_3_11():
    assert _constructs_new_in_3_11(re.compile("(?:a[0-9]*+)+")) == {"POSSESSIVE_REPEAT"}
    assert _constructs_new_in_3_11(re.compile("x(?>a|b)")) == {"ATOMIC_GROUP"}
    found = {}
    for info in pkgutil.iter_modules(confsets.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"confsets.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                found[f"{info.name}.{name}"] = _constructs_new_in_3_11(value)
    assert "engine._WRITTEN" in found
    assert not any(found.values()), found
