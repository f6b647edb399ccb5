"""The number of values a caller of rowloc can set.

A settable value is one of:
- a field with a default of a public dataclass (a `@dataclass` class whose
  name has no leading underscore, defined at the top level of a module);
- a parameter with a default of a public function (a top-level `def` whose
  name has no leading underscore) or of a method of a public class (a
  `def` in its body named without a leading underscore, or `__init__`).

Only modules of `src/rowloc` whose names have no leading underscore count.
Functions nested in other functions are private helpers and do not count.
A change that adds or deletes a knob changes TOTAL here, so the count is
reviewed with it.
"""

import ast
from pathlib import Path

import rowloc

TOTAL = 108


def _public(name: str) -> bool:
    return not name.startswith("_")


def _n_defaults(fn: ast.FunctionDef) -> int:
    a = fn.args
    return len(a.defaults) + sum(d is not None for d in a.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    n = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            n += _n_defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (_public(item.name) or item.name == "__init__"):
                    n += _n_defaults(item)
                elif (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                        and item.value is not None and _public(item.target.id)):
                    n += 1
    return n


def test_settable_value_count():
    package = Path(rowloc.__file__).parent
    counts = {p.stem: settable_values(p.read_text()) for p in sorted(package.glob("*.py"))
              if _public(p.stem)}
    assert sum(counts.values()) == TOTAL, f"{sum(counts.values())} settable values: {counts}"


def test_count_definition():
    src = '''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class A:
    x: int
    y: int = 1
    z: list = field(default_factory=list)
    _hidden: int = 2

    def f(self, a, b=1, *, c=2, d):
        def nested(e=3):
            pass

    def _g(self, a=1):
        pass

class B:
    k: int = 1

    def __init__(self, a, b=2):
        pass

def public(a, b=1):
    pass

def _private(a=1):
    pass
'''
    # y, z, f's b and c, B.__init__'s b, public's b
    assert settable_values(src) == 6
