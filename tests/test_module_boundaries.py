"""No betacover module reaches into another module's private names.

Each module under ``src/betacover`` is read with ``ast``.  A module may not
import a ``_``-prefixed name from another betacover module, nor read a
``_``-prefixed attribute of one it imported.  Dunder names such as
``__version__`` are public.

Nor may a module read or write a ``_``-prefixed attribute of an object
other than ``self`` or ``cls``, unless the module itself assigns that
attribute on ``self`` or through ``object.__setattr__`` (or its local
alias ``_setattr``): a class's private fields are for the module that
defines it.  So ``Codes.widen`` may read another table's ``_index``, but
``approximations`` may not stash a memo in a ``NeighborhoodSystem``'s
private fields.

Nor may a module read an interval's endpoints (an ``.lo`` or ``.hi``
attribute), so that how endpoints are stored and compared is decided in
``intervals.py`` alone, and there in one place: a comparison between two
products (a cross-multiplied endpoint compare) appears only inside ``_le``.
``generate.py`` is exempt from the endpoint rule: its grid samplers and
``snap_candidates`` work on the endpoint grid.

In ``serialize.py``, ``IntervalValue.parse`` is read inside ``_parse_interval``
alone, so the space, CSV and set documents read a literal the same way.
A ``Codes`` table is built only by ``SoftMapping`` in ``space.py`` and by
``Codes.widen``, so each mapping has one table that its neighborhood
systems share.

The oracle is the independent check on the fast path, so it takes only
``Kind`` from ``approximations``, nothing from ``neighborhoods``, and of
``intervals`` only ``IntervalValue`` and the ``scaled_endpoints`` helper.  The operators in ``approximations`` work on
endpoint codes, so they import none of the per-entry interval operations.

Every public module-level function and class has a user outside the tests:
its own module, another package module, ``perfbench``, a demo,
``pyproject.toml`` or README's API notes name it.
"""

import ast
import re
from pathlib import Path

import pytest

import betacover

PACKAGE = Path(betacover.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imported_module(node: ast.ImportFrom) -> str:
    """Dotted name a `from ... import` reads from, relative to the package."""
    if node.level:
        return "betacover" + (f".{node.module}" if node.module else "")
    return node.module or ""


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def private_reaches(path: Path) -> list:
    """(line, text) for each private name the module takes from a sibling."""
    own = f"betacover.{path.stem}"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> betacover module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_module(node)
            if source != "betacover" and not source.startswith("betacover."):
                continue
            for alias in node.names:
                if source == "betacover" and (PACKAGE / f"{alias.name}.py").exists():
                    modules[alias.asname or alias.name] = f"betacover.{alias.name}"
                elif source != own and _private(alias.name):
                    found.append((node.lineno, f"from {source} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("betacover."):
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            target = modules.get(base, base)
            if target.startswith("betacover.") and target != own:
                found.append((node.lineno, f"{base}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_names_from_sibling_modules(path):
    assert private_reaches(path) == []


def test_the_guard_sees_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .intervals import _unchecked, meet\n"
        "from . import neighborhoods as nb, __version__\n"
        "import betacover.space\n"
        "nb._selected(None, None, 0)\n"
        "betacover.space._x\n"
    )
    assert [text for _, text in private_reaches(sample)] == [
        "from betacover.intervals import _unchecked",
        "nb._selected",
        "betacover.space._x",
    ]


SETATTR_CALLS = {"object.__setattr__", "_setattr"}


def owned_fields(tree) -> set:
    """The private attributes a module assigns on ``self`` or through ``object.__setattr__``."""
    owned = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and _dotted(node.value) == "self"
        ):
            owned.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and _dotted(node.func) in SETATTR_CALLS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            owned.add(node.args[1].value)
    return {name for name in owned if isinstance(name, str) and _private(name)}


def foreign_fields(path: Path) -> list:
    """(line, text) for each private attribute of another object that the module does not own."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owned = owned_fields(tree)
    return sorted(
        (node.lineno, f"{_dotted(node.value) or '<expr>'}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and _private(node.attr)
        and _dotted(node.value) not in ("self", "cls")
        and node.attr not in owned
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_fields_are_touched_only_by_their_own_module(path):
    assert foreign_fields(path) == []


def test_the_field_guard_sees_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class Table:\n"
        "    def __init__(self):\n"
        "        self._index = {}\n"
        "        object.__setattr__(self, '_frozen', 1)\n"
        "        _setattr(self, '_aliased', 2)\n"
        "        self._count += 1\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls._default, self._unset\n"
        "    def widen(self, other):\n"
        "        return other._index, other._frozen, other._aliased, other._count\n"
        "def stash(ns, target):\n"
        "    ns._target = target\n"
        "    return ns._codes, ns.space._beta, make()._x, ns.__dict__, ns.codes\n"
        "del ns._kernels\n"
        "value = object.__setattr__(ns, 'plain', 3)\n"
        "elsewhere._setup(self._index)\n"
    )
    assert foreign_fields(sample) == [
        (13, "ns._target"),
        (14, "<expr>._x"),
        (14, "ns._codes"),
        (14, "ns.space._beta"),
        (15, "ns._kernels"),
        (17, "elsewhere._setup"),
    ]


ENDPOINT_READERS = {"intervals.py", "generate.py"}


def endpoint_reads(path: Path) -> list:
    """(line, attribute) for each ``.lo`` or ``.hi`` the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("lo", "hi")
    )


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name not in ENDPOINT_READERS],
    ids=[p.name for p in MODULES if p.name not in ENDPOINT_READERS],
)
def test_endpoints_are_read_only_by_the_interval_layer(path):
    assert endpoint_reads(path) == []


def test_the_endpoint_guard_sees_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("a = g.lo\nb = [x.hi for x in xs]\nc = g.low\n")
    assert endpoint_reads(sample) == [(1, "lo"), (2, "hi")]


def _product(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def sites(tree, match) -> list:
    """(line, function) for each node ``match`` accepts, by the innermost enclosing def.

    ``function`` is None at module level.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return sorted(found, key=lambda site: site[0])


def _product_compare(node) -> bool:
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(_product(a) and _product(b) for a, b in zip(operands, operands[1:]))


def product_compares(path: Path) -> list:
    """(line, function) for each comparison between two products."""
    return sites(ast.parse(path.read_text(), filename=str(path)), _product_compare)


def test_endpoints_are_compared_only_in_le():
    assert [function for _, function in product_compares(PACKAGE / "intervals.py")] == ["_le"]


def test_the_compare_guard_sees_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "top = a * b < c * d\n"
        "def _le(a, b):\n"
        "    def inner():\n"
        "        return a.n * b.d > b.n * a.d\n"
        "    return a.n * b.d <= b.n * a.d\n"
        "class C:\n"
        "    def pick(self, x, y):\n"
        "        return x if x.n * y.d >= y.n * x.d else y\n"
        "async def chained(a, b):\n"
        "    return 0 <= a * b == b * a\n"
        "def untouched(a, b):\n"
        "    return a * b <= 1 and a + b < b + a and key(lambda: a < b)\n"
    )
    assert product_compares(sample) == [
        (1, None), (4, "inner"), (5, "_le"), (8, "pick"), (10, "chained"),
    ]


def interval_parses(path: Path) -> list:
    """(line, function) for each read of ``IntervalValue.parse``, under any import alias."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"IntervalValue"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "IntervalValue" and alias.asname
    }
    return sites(
        tree,
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "parse"
        and _dotted(node.value).rpartition(".")[2] in names,
    )


def test_serialize_parses_interval_literals_in_one_function():
    # The space, CSV and set documents all read their literals through it.
    assert [function for _, function in interval_parses(PACKAGE / "serialize.py")] == [
        "_parse_interval"
    ]


def test_the_parse_guard_sees_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .intervals import IntervalValue as IV\n"
        "top = IntervalValue.parse('[0,1]')\n"
        "def _parse_interval(text):\n"
        "    return IntervalValue.parse(text)\n"
        "def reader():\n"
        "    def read(cell):\n"
        "        return IV.parse(cell)\n"
        "    parse = intervals.IntervalValue.parse\n"
        "    return read, parse\n"
        "class Doc:\n"
        "    async def load(self, text):\n"
        "        return betacover.IntervalValue.parse(text)\n"
        "def untouched(text):\n"
        "    return json.parse(text), parse_endpoint(text), IntervalValue.text\n"
    )
    assert interval_parses(sample) == [
        (2, None), (4, "_parse_interval"), (7, "read"), (8, "reader"), (12, "load"),
    ]


def codes_constructions(path: Path) -> list:
    """(line, function) for each call of ``Codes``, under any import alias."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"Codes"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "Codes" and alias.asname
    }
    return sites(
        tree,
        lambda node: isinstance(node, ast.Call)
        and _dotted(node.func).rpartition(".")[2] in names,
    )


def test_a_code_table_is_built_only_for_a_mapping_and_by_widen():
    # One table per mapping: the neighborhood system and fuzzy_matrix reuse
    # the mapping's, and a target off its points widens a copy.
    built = [
        (path.name, function) for path in MODULES for _, function in codes_constructions(path)
    ]
    assert built == [("intervals.py", "widen"), ("space.py", "__post_init__")]


def test_the_codes_guard_sees_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .intervals import Codes as Table\n"
        "top = Codes([])\n"
        "def _code_rows(mapping):\n"
        "    return Table(mapping.grades)\n"
        "class System:\n"
        "    def __init__(self, space):\n"
        "        self.codes = intervals.Codes(space.grades, ())\n"
        "    async def load(self, values):\n"
        "        return betacover.intervals.Codes(values)\n"
        "def untouched(codes: Codes, values):\n"
        "    return Codes.widen, codes.encode(values), Codes, isinstance(codes, Codes)\n"
    )
    assert codes_constructions(sample) == [
        (2, None), (4, "_code_rows"), (7, "__init__"), (9, "load"),
    ]


def imports_from(path: Path, watched) -> list:
    """(line, text, module, name) for each import from a module in ``watched``.

    ``name`` is None where the whole module is imported.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_module(node)
            for alias in node.names:
                if source == "betacover" and f"{source}.{alias.name}" in watched:
                    text = f"from {source} import {alias.name}"
                    found.append((node.lineno, text, f"{source}.{alias.name}", None))
                elif source in watched:
                    text = f"from {source} import {alias.name}"
                    found.append((node.lineno, text, source, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in watched:
                    found.append((node.lineno, f"import {alias.name}", alias.name, None))
    return sorted(found)


# What the oracle may take from the fast path's modules.
ORACLE_ALLOWED = {"betacover.approximations": {"Kind"}, "betacover.neighborhoods": set()}


def fast_path_imports(path: Path) -> list:
    """(line, text) for each name the module takes from the fast path beyond ORACLE_ALLOWED."""
    return [
        (line, text)
        for line, text, module, name in imports_from(path, ORACLE_ALLOWED)
        if name not in ORACLE_ALLOWED[module]
    ]


def test_the_oracle_takes_nothing_else_from_the_fast_path():
    assert fast_path_imports(PACKAGE / "oracle.py") == []


def test_the_oracle_guard_sees_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .approximations import Kind, fuzzy_lower\n"
        "from .neighborhoods import NeighborhoodSystem, crisp_of\n"
        "from . import approximations\n"
        "import betacover.neighborhoods\n"
        "def f():\n"
        "    from betacover.approximations import crisp_upper\n"
    )
    assert [text for _, text in fast_path_imports(sample)] == [
        "from betacover.approximations import fuzzy_lower",
        "from betacover.neighborhoods import NeighborhoodSystem",
        "from betacover.neighborhoods import crisp_of",
        "from betacover import approximations",
        "import betacover.neighborhoods",
        "from betacover.approximations import crisp_upper",
    ]


# The operators work on endpoint codes; these would bring back a per-entry
# Fraction path beside them.
PER_ENTRY_OPERATIONS = {"meet", "join", "complement", "leq_bool", "family_meet", "family_join"}


def per_entry_imports(path: Path) -> list:
    """(line, text) for each per-entry interval operation the module imports, or the whole layer."""
    return [
        (line, text)
        for line, text, _, name in imports_from(path, {"betacover.intervals"})
        if name is None or name in PER_ENTRY_OPERATIONS
    ]


def test_the_operators_take_no_per_entry_interval_operation():
    assert per_entry_imports(PACKAGE / "approximations.py") == []


def test_the_operator_guard_sees_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .intervals import Codes, meet\n"
        "from .intervals import leq_bool as le, TOP\n"
        "from . import intervals\n"
        "import betacover.intervals\n"
        "def f():\n"
        "    from betacover.intervals import family_join\n"
    )
    assert [text for _, text in per_entry_imports(sample)] == [
        "from betacover.intervals import meet",
        "from betacover.intervals import leq_bool",
        "from betacover import intervals",
        "import betacover.intervals",
        "from betacover.intervals import family_join",
    ]


# The audit's set statements work on endpoint codes and bitmasks; of the
# interval layer it takes only what the interval-family lemma and the
# neighborhood laws read.
AUDIT_INTERVAL_IMPORTS = {"IntervalValue", "leq_bool", "family_meet", "family_join"}


def audit_interval_imports(path: Path) -> list:
    """(line, text) for each interval-layer import beyond AUDIT_INTERVAL_IMPORTS."""
    return [
        (line, text)
        for line, text, _, name in imports_from(path, {"betacover.intervals"})
        if name not in AUDIT_INTERVAL_IMPORTS
    ]


def test_the_audit_takes_only_the_laws_interval_operations():
    assert audit_interval_imports(PACKAGE / "audit.py") == []


def test_the_audit_guard_sees_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .intervals import IntervalValue, family_meet, join\n"
        "from .intervals import leq_bool as le, complement\n"
        "from . import intervals\n"
        "import betacover.intervals\n"
        "def f():\n"
        "    from betacover.intervals import Codes, meet\n"
    )
    assert [text for _, text in audit_interval_imports(sample)] == [
        "from betacover.intervals import join",
        "from betacover.intervals import complement",
        "from betacover import intervals",
        "import betacover.intervals",
        "from betacover.intervals import Codes",
        "from betacover.intervals import meet",
    ]


# The oracle computes on its own scaled ints; of the interval layer it takes
# the checked value type and the scaling helper, none of the lattice code
# the fast path encodes from and decodes to.
ORACLE_INTERVAL_IMPORTS = {"IntervalValue", "scaled_endpoints"}


def oracle_interval_imports(path: Path) -> list:
    """(line, text) for each interval-layer import beyond ORACLE_INTERVAL_IMPORTS."""
    return [
        (line, text)
        for line, text, _, name in imports_from(path, {"betacover.intervals"})
        if name not in ORACLE_INTERVAL_IMPORTS
    ]


def test_the_oracle_takes_only_the_value_type_and_the_scaling_from_intervals():
    assert oracle_interval_imports(PACKAGE / "oracle.py") == []


def test_the_oracle_interval_guard_sees_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .intervals import IntervalValue, scaled_endpoints, meet\n"
        "from .intervals import leq_bool as le, Codes\n"
        "from . import intervals\n"
        "import betacover.intervals\n"
        "def f():\n"
        "    from betacover.intervals import complement, family_meet\n"
    )
    assert [text for _, text in oracle_interval_imports(sample)] == [
        "from betacover.intervals import meet",
        "from betacover.intervals import Codes",
        "from betacover.intervals import leq_bool",
        "from betacover import intervals",
        "import betacover.intervals",
        "from betacover.intervals import complement",
        "from betacover.intervals import family_meet",
    ]


# Every public module-level def or class has a user outside the tests: a
# line of its own module outside its definition, another package module,
# perfbench, a demo, pyproject.toml or README's API notes.  ``__init__``
# only re-exports, so it is no user; the oracle is the tests' reference
# implementation, so its names are exempt.
REPO = Path(__file__).resolve().parent.parent
SURFACE_EXEMPT = {"__init__.py", "oracle.py"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# A code span opens and closes with one run of backticks of the same length.
CODE_SPAN = re.compile(r"(`+)(.+?)\1", re.S)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(function) -> set:
    """The function's parameters and the names assigned or defined in its body, not in nested ones."""
    a = function.args
    found = {arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if arg}
    nodes = list(ast.iter_child_nodes(function))
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.add(node.id)
        elif isinstance(node, DEFINITIONS):
            found.add(node.name)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            nodes.extend(ast.iter_child_nodes(node))
    return found


def identifiers(tree, skip=range(0)) -> set:
    """The names, attribute names and imported names the tree reads outside the lines ``skip``.

    A ``Name`` in the body of a function that has it as a parameter or
    assigns it is that function's own and reads no module-level name; its
    defaults, annotations and decorators are read outside it.
    """
    found = set()
    todo = [(tree, frozenset())]
    while todo:
        node, local = todo.pop()
        inner = local | local_names(node) if isinstance(node, SCOPES) else local
        for field, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    todo.append((child, inner if field == "body" else local))
        if getattr(node, "lineno", None) not in skip:
            if isinstance(node, ast.Name):
                if node.id not in local:
                    found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name.rpartition(".")[2] for alias in node.names)
    return found


def unused_public_names(modules, outside) -> list:
    """(module, name) for each public def or class in ``modules`` that nothing uses.

    ``outside`` are the other files a use may sit in: Python files are read
    with ``ast``, Markdown files for the words of their backtick code spans
    and any other file for its words.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    used = set()
    for path in outside:
        text = path.read_text()
        if path.suffix == ".py":
            used |= identifiers(ast.parse(text))
        elif path.suffix == ".md":
            used.update(re.findall(r"\w+", " ".join(m[1] for m in CODE_SPAN.findall(text))))
        else:
            used.update(re.findall(r"\w+", text))
    unused = []
    for path, tree in trees.items():
        if path.name in SURFACE_EXEMPT:
            continue
        others = [other for p, other in trees.items() if p != path and p.name != "__init__.py"]
        elsewhere = used.union(*map(identifiers, others))
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                own = identifiers(tree, range(node.lineno, node.end_lineno + 1))
                if node.name not in elsewhere | own:
                    unused.append((path.name, node.name))
    return unused


def surface_users() -> list:
    return [
        *sorted((REPO / "perfbench").rglob("*.py")),
        *sorted((REPO / "demos").glob("*.py")),
        REPO / "pyproject.toml",
        REPO / "README.md",
    ]


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names(MODULES, surface_users()) == []


def test_the_surface_guard_sees_an_unused_name(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "def caller():\n"
        "    return called_earlier()\n"
        "def recursive():\n"
        "    return recursive()\n"
        "class Used:\n"
        "    pass\n"
        "def called_earlier():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "async def by_other():\n"
        "    pass\n"
        "def by_demo():\n"
        "    pass\n"
        "def by_readme():\n"
        "    pass\n"
        "def by_init():\n"
        "    pass\n"
        "def by_fence():\n"
        "    pass\n"
        "def a_parameter():\n"
        "    pass\n"
        "def a_local():\n"
        "    pass\n"
        "def a_word():\n"
        "    pass\n"
        "def by_default():\n"
        "    pass\n"
        "x = caller()\n"
    )
    (tmp_path / "pkg" / "other.py").write_text(
        "from .mod import Used\n"
        "value = mod.by_other\n"
        "def _takes(a_parameter):\n"
        "    return a_parameter\n"
        "def _keeps():\n"
        "    a_local = 1\n"
        "    return lambda: a_local\n"
        "def _passes(by_default=by_default):\n"
        "    return by_default\n"
    )
    (tmp_path / "pkg" / "__init__.py").write_text("from .mod import by_init\n")
    (tmp_path / "demo.py").write_text("import pkg\npkg.by_demo()\n")
    (tmp_path / "README.md").write_text(
        "`by_readme(x)` is for library users, and a_word is only prose.\n"
        "```python\nby_fence()\n```\n"
    )
    modules = sorted((tmp_path / "pkg").glob("*.py"))
    assert unused_public_names(modules, [tmp_path / "demo.py", tmp_path / "README.md"]) == [
        ("mod.py", "recursive"),
        ("mod.py", "unused"),
        ("mod.py", "by_init"),
        ("mod.py", "a_parameter"),
        ("mod.py", "a_local"),
        ("mod.py", "a_word"),
    ]
