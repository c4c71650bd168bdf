import ast
import pathlib
from collections import Counter

import pytest

import frobdet
from frobdet import errors

PACKAGE = pathlib.Path(frobdet.__file__).resolve().parent


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]
    assert unused_imports("from a.b import c as d\nd()\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def names_read(tree):
    """Every name the tree reads: plain names, attributes, imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unused_private_functions(sources):
    """(module, name) of module-level _private functions that no module
    reads, counting no read from inside the function's own body."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    reads = Counter(n for tree in trees.values() for n in names_read(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                own = sum(1 for n in names_read(node) if n == node.name)
                if reads[node.name] == own:
                    unused.append((module, node.name))
    return sorted(unused)


def test_finds_an_unused_private_function():
    sources = {
        "a": "def _used():\n    pass\n"
             "def _self_only(k):\n    return _self_only(k - 1)\n"
             "def _dead():\n    pass\n"
             "def __dunder__():\n    pass\n",
        "b": "from .a import _used\n",
    }
    assert unused_private_functions(sources) == [("a", "_dead"),
                                                 ("a", "_self_only")]


def test_no_unused_private_functions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_functions(sources) == []


def calls_of(source, name):
    """Line numbers of the calls to `name` in the source, as a plain name
    or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == name
                       or getattr(node.func, "attr", None) == name))


def test_finds_calls_by_name():
    source = "from m import f\nf(1)\nm.f(2)\ng(f)\n"
    assert calls_of(source, "f") == [2, 3]


def test_only_the_cli_verifies_a_factorization():
    # route functions return unchecked answers; each factor request
    # checks its printed answer once, in cli.py
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {name for name, src in sources.items()
               if calls_of(src, "verify_against")}
    assert callers == {"cli.py"}
    assert "def verify_against(" in sources["determinant.py"]


def test_one_randomized_path():
    # every random point comes from factorization.random_points, and the
    # randomized checks there compare modulo a prime, never exactly
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {name for name, src in sources.items()
               if calls_of(src, "randint")}
    assert callers == {"factorization.py"}
    assert "def random_points(" in sources["factorization.py"]
    for name in ("int_det", "cyc_det"):
        assert calls_of(sources["factorization.py"], name) == []


def handled_errors(source):
    """(innermost enclosing function, exception name) for each name in an
    except clause of the source, in source order."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) \
                    else [child.type]
                out.extend((function, getattr(t, "id", None) or t.attr)
                           for t in types)
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else function)

    visit(ast.parse(source), None)
    return out


def test_finds_handled_errors():
    source = ("def f():\n    try:\n        g()\n"
              "    except (A, m.B):\n        pass\n"
              "    def h():\n        try:\n            pass\n"
              "        except C as e:\n            pass\n"
              "try:\n    pass\nexcept D:\n    pass\n")
    assert handled_errors(source) == [("f", "A"), ("f", "B"), ("h", "C"),
                                      (None, "D")]


def test_the_cli_catches_only_skipped_routes():
    # a check error can never be read as a skipped route: the only frobdet
    # errors cli.py catches are NotApplicable, around the factorizer call
    # of the route loop, and whatever reaches run()
    source = (PACKAGE / "cli.py").read_text()
    caught = [(function, name) for function, name in handled_errors(source)
              if issubclass(getattr(errors, name, Exception),
                            errors.FrobdetError)]
    assert caught == [("cmd_factor", "NotApplicable"), ("run", "FrobdetError")]
    loop, = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Try)
             and any(getattr(h.type, "id", None) == "NotApplicable"
                     for h in node.handlers)]
    assert [ast.unparse(s) for s in loop.body] == ["answer = factorize(S)"]


def calling_functions(source, name):
    """Module-level functions (or '<module>' and class names) whose bodies
    call `name` as a plain name or as an attribute."""
    return {getattr(node, "name", "<module>")
            for node in ast.parse(source).body
            if calls_of(ast.unparse(node), name)}


def test_finds_calling_functions():
    source = "def f():\n    g()\ndef h():\n    m.g(1)\ndef k():\n    f()\ng()\n"
    assert calling_functions(source, "g") == {"f", "h", "<module>"}


def test_only_outside_input_is_validated():
    # tables cut from or built on a checked table inherit its
    # associativity, so only input, the families, the rings and the two
    # quotient tables of the commutative pipeline go through validate_table
    from frobdet.semigroups import FAMILIES
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {(name, fn) for name, src in sources.items()
               for fn in calling_functions(src, "validate_table")}
    families = {fn.__name__ for fn in FAMILIES.values()} \
        - {"adjoin_zero", "adjoin_identity"}
    assert callers == {
        *(("semigroups.py", fn) for fn in families),
        ("semigroups.py", "parse_sgp"),
        ("semigroups.py", "enumerate_commutative"),
        ("rings.py", "zmod_monoid"), ("rings.py", "matrix_monoid"),
        ("commutative.py", "splus_decompose"),
        ("commutative.py", "local_spectrum")}
    for derived in ("subsemigroup", "adjoin_zero", "adjoin_identity",
                    "direct_product"):
        assert ("semigroups.py", derived) not in callers


def test_route_guards_are_plain_values():
    # every guard of cli.factor_routes is read off S before the loop, and
    # cmd_factor never calls one
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    routes = [elt for node in ast.walk(functions["factor_routes"])
              if isinstance(node, ast.Return)
              for elt in node.value.elts]
    assert len(routes) == 9
    assert all(isinstance(route, ast.Tuple) for route in routes)
    assert not any(isinstance(route.elts[0], ast.Lambda) for route in routes)
    assert calls_of(ast.unparse(functions["cmd_factor"]), "callable") == []
