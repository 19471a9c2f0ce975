"""The library keeps its exactness contract in its source.

No ``assert`` statement (``python -O`` would strip a check), no float literal,
no call of ``float`` and nothing from ``math`` beyond the integer functions:
no floating-point value may decide anything.  No bare ``except:`` and no
handler of ``Exception`` or ``BaseException``, which would swallow a
``CertificateFailure``, and outside the front ends no handler of
``ImapkError``.  No call of ``json.dumps`` with ``indent``, which runs
CPython's pure-Python encoder (``report.to_json`` writes the indented
report).  No module-level function of ``random``, whose shared state would
make a result depend on what ran before: only a ``Random(seed)`` instance.
Only the orbit layer reads the map's table of images.  And no helper, class
or module-level constant that nothing in the library reads.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "imapk"
MATH_ALLOWED = {"gcd", "lcm", "isqrt", "comb"}
BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def violations(tree):
    """(line, reason) for each breach of the contract in a parsed module."""
    found = []
    math_modules, random_modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_modules.update(a.asname or a.name for a in node.names if a.name == "math")
            random_modules.update(a.asname or a.name for a in node.names if a.name == "random")
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal %r" % node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "call of float"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, "math.%s imported" % a.name)
                      for a in node.names if a.name not in MATH_ALLOWED]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_modules and node.attr not in MATH_ALLOWED):
            found.append((node.lineno, "math.%s used" % node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [(node.lineno, "random.%s imported" % a.name) for a in node.names if a.name != "Random"]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in random_modules and node.attr != "Random"):
            found.append((node.lineno, "random.%s used" % node.attr))
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Random"
              and not node.args and not node.keywords):
            found.append((node.lineno, "unseeded Random"))
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found += [(node.lineno, "bare except") for t in caught if t is None]
            found += [(node.lineno, "%s caught" % t.id) for t in caught
                      if isinstance(t, ast.Name) and t.id in BROAD_EXCEPTIONS]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
              and any(k.arg == "indent" for k in node.keywords)):
            found.append((node.lineno, "json.dumps with indent"))
    return sorted(found)


MODULES = sorted(SOURCE.rglob("*.py"))


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"scalar.py", "markov.py", "report.py", "orbit.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_the_exactness_contract(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert violations(tree) == []


@pytest.mark.parametrize("source, reason", [
    ("assert x > 0", "assert statement"),
    ("y = 0.5", "float literal 0.5"),
    ("y = float(x)", "call of float"),
    ("from math import floor", "math.floor imported"),
    ("import math\ny = math.sqrt(2)", "math.sqrt used"),
    ("try:\n    f()\nexcept:\n    pass", "bare except"),
    ("try:\n    f()\nexcept Exception:\n    pass", "Exception caught"),
    ("try:\n    f()\nexcept (ValueError, BaseException) as exc:\n    pass", "BaseException caught"),
    ("text = json.dumps(report, indent=2, ensure_ascii=True)", "json.dumps with indent"),
    ("from json import dumps\ntext = dumps(report, indent=4)", "json.dumps with indent"),
    ("import random\nk = random.randrange(10)", "random.randrange used"),
    ("import random as rnd\nrnd.seed(1)", "random.seed used"),
    ("from random import choice", "random.choice imported"),
    ("from random import Random\nrng = Random()", "unseeded Random"),
    ("import random\nrng = random.Random()", "unseeded Random"),
])
def test_each_breach_is_caught(source, reason):
    assert [r for _, r in violations(ast.parse(source))] == [reason]
    assert violations(ast.parse("from math import gcd, lcm\nimport math\nn = math.isqrt(8) + 1")) == []
    assert violations(ast.parse("try:\n    f()\nexcept (KeyError, ValueError):\n    pass")) == []
    assert violations(ast.parse("text = json.dumps(value)")) == []
    assert violations(ast.parse("from random import Random\nrng = Random(p)")) == []
    assert violations(ast.parse("import random\nk = random.Random(7).randrange(9)")) == []


# Only the front ends catch ImapkError itself: the CLI turns it into an error
# message and the spec reader into an error at a line and column.  Anywhere
# else such a handler would turn a CertificateFailure, which subclasses it,
# into a refusal or a note.
MAY_CATCH_IMAPK_ERROR = {"cli.py", "specfile.py"}


def imapk_error_handlers(tree):
    """Lines of the handlers in a parsed module that catch ImapkError itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(t, "id", getattr(t, "attr", None)) == "ImapkError" for t in caught):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in MAY_CATCH_IMAPK_ERROR], ids=lambda p: p.name
)
def test_no_handler_catches_every_imapk_error(path):
    assert imapk_error_handlers(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("handler, caught", [
    ("except ImapkError:", True),
    ("except (ValueError, ImapkError) as exc:", True),
    ("except errors.ImapkError:", True),
    ("except CyclicityNotEstablished:", False),
    ("except (KeyError, errors.HypothesisViolatedWithinCap):", False),
    ("except:", False),  # a bare except is the exactness contract's own breach
])
def test_an_imapk_error_handler_is_caught(handler, caught):
    tree = ast.parse("try:\n    f()\n%s\n    pass" % handler)
    assert imapk_error_handlers(tree) == ([3] if caught else [])


# The map's table of images is read through eval_multivalued by the orbit
# searches and the Markov check alone, and only report.run empties it besides
# interval_map itself.  A transfer step, a branch-end image or a re-check that
# read it would give the image of a point a second source (the interval_map
# docstring names the one source of each).
MAY_READ_THE_TABLE = {"interval_map.py", "orbit.py", "markov.py", "__init__.py"}
MAY_TOUCH_IMAGES = {"interval_map.py", "report.py"}


def table_references(tree):
    """(line, name) of each reference in a parsed module to
    ``eval_multivalued`` (imported, or loaded as a name or an attribute) and
    to the attribute ``images``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name == "eval_multivalued"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id == "eval_multivalued":
                found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            if node.attr == "images" or (node.attr == "eval_multivalued" and isinstance(node.ctx, ast.Load)):
                found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_orbit_layer_reads_the_table_of_images(path):
    allowed = set()
    if path.name in MAY_READ_THE_TABLE:
        allowed.add("eval_multivalued")
    if path.name in MAY_TOUCH_IMAGES:
        allowed.add("images")
    found = table_references(ast.parse(path.read_text(), filename=str(path)))
    assert [(line, name) for line, name in found if name not in allowed] == []


@pytest.mark.parametrize("source, found", [
    ("from .interval_map import PLUS, eval_multivalued", [(1, "eval_multivalued")]),
    ("y = eval_multivalued(m, x)[0]", [(1, "eval_multivalued")]),
    ("y = imap.eval_multivalued(m, x)[0]", [(1, "eval_multivalued")]),
    ("values = m.images.get(x)", [(1, "images")]),
    ("m.images = {}", [(1, "images")]),
    ("def eval_multivalued(m, x):\n    images = limits(m, x)", []),
])
def test_a_reader_of_the_table_of_images_is_caught(source, found):
    assert table_references(ast.parse(source)) == found


# Defined but called or read by no stage, each for a reason of its own:
UNCALLED_ON_PURPOSE = {
    # the references that the counting-law tests compare transfer against
    "value_at",
    "preimages",
    # rebuilds a map from its report echo: the round-trip check of the
    # benchmark's correctness gate and of the CLI tests
    "map_from_echo",
    # the package version, read by whoever imports the package
    "__version__",
}


def _assigned(node):
    """Names bound by a module-level assignment statement."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        names += [t.id for t in elts if isinstance(t, ast.Name)]
    return names


def uncalled(sources):
    """Names of the module-level functions, classes and assignments, and of
    the methods, defined in ``sources`` (a dict: file name -> source text)
    that no module refers to, besides its own definition and the package's
    ``__init__`` export.

    A reference is a loaded name or attribute of that name, so this matches
    by name: a method whose name another class's method or a call elsewhere
    also uses (such as ``as_dict``) is never caught.  Dunder methods are
    called by the interpreter and are skipped."""
    defined, referred = set(), set()
    for name, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined.add(node.name)
            defined.update(_assigned(node))
            for item in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        defined.add(item.name)
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referred.add(node.attr)
    return sorted(defined - referred)


def test_every_helper_has_a_caller_in_the_library():
    sources = {path.name: path.read_text() for path in MODULES}
    assert uncalled(sources) == sorted(UNCALLED_ON_PURPOSE)


def test_an_uncalled_helper_is_caught():
    sources = {
        "a.py": "def used():\n    pass\n\nclass C:\n    def dead(self):\n        return used()\n"
                "    def __repr__(self):\n        return ''\n",
        "b.py": "from .a import C\n\ndef export():\n    return C()\n",
        "__init__.py": "from .a import C\nfrom .b import export\nexport()\n",
    }
    assert uncalled(sources) == ["dead", "export"]


def test_an_unread_constant_or_class_is_caught():
    sources = {
        "a.py": "import sys\n_LIMIT = 8\n_INF = sys.hash_info.inf\nLO, HI = 0, 1\nn: int = 2\n"
                "class _Unused:\n    size = _LIMIT\n\nclass Used:\n    pass\n",
        "b.py": "from .a import Used, LO\n\ndef make():\n    return Used(), LO + n\n\nmake()\n",
        "__init__.py": "from .a import HI\n__version__ = '1'\n",
    }
    assert uncalled(sources) == ["HI", "_INF", "_Unused", "__version__"]
