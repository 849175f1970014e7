"""Every public name and every option in ``src/repro`` has a caller.

Callers are the code in ``src/``, ``bench/``, ``benchmarks/`` and
``examples/``, read as syntax trees.  Tests do not count: a function or
an option only its own test uses is dead code, so it goes with its test.

* A public ``def`` or ``class`` counts as called only through a code
  reference outside its own definition: a name, an attribute, or a
  string constant (so ``bench/``'s wrap-by-method-name maps count).
  Imports, ``__all__`` entries, docstrings and comments do not.
* A defaulted parameter counts as set only when some call that can
  reach its function passes it by keyword, by position or through a
  ``*``/``**`` splat.  Calls resolve by name; the aliases a name lookup
  cannot see (``Fabric``'s ``NetCls``, ``network_class(engine)(...)``)
  resolve through ``FACTORIES``.  An option nothing sets is the
  constant it always was.
* A defaulted field of a ``src/repro`` dataclass counts as set when a
  construction passes it by keyword, by position or through a ``**``
  splat, or through a ``*`` splat that can reach its position (a
  module-level tuple literal fills as many positions as it holds); when
  ``replace(x, field=...)`` passes it; or when code stores to it as an
  attribute (``x.field = ...``, ``object.__setattr__(x, "field", ...)``;
  a store to ``self.field`` sets only the enclosing class's field).
  Fields declared ``init=False`` are run state, not options, and are
  skipped.

The exceptions are test oracles, safety counters and seams that
substitute a fake, each named with the reason it stays.
"""

import ast
import math
import re
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

ALLOWED = {
    "same_row": "test oracle: placements never put two CBs on a row",
    "same_col": "test oracle: placements never put two CBs on a column",
    "same_diagonal": "test oracle: placements never put two CBs on a "
                     "diagonal",
    "is_valid_solution": "test oracle: an N-Queen checker independent of "
                         "the solver",
    "eir_nodes": "test oracle: no EIR sits on a CB or on another group",
    "hot_zone": "test oracle: the union of a CB's two access zones",
    "corrupt_evictions": "safety counter: corrupt design-cache entries "
                         "evicted since the last clear",
    "faulted": "test oracle: whether a verify case's fault plan can fire "
               "inside its window",
    "quiescent": "test oracle: a network holds no flit, credit or event "
                 "in flight (zero-load and engine-parity drains)",
    "verify_loop_cover": "test oracle: a loop set covers every ordered "
                         "node pair (routerless and ring schemes)",
}

# ``function:parameter`` (``Class.method:parameter`` for methods).
ALLOWED_PARAMS = {
    "main:argv": "seam: tests drive the CLI in-process with an argument "
                 "list instead of sys.argv",
    "MemoryBus.__init__:clock": "seam: tests substitute a fake clock to "
                                "expire leases without sleeping",
    "HbmStack.__init__:timing": "seam: tests substitute a one-channel "
                                "HbmTiming to observe FR-FCFS order",
    "run_sweep:backoff_s": "seam: retry tests substitute a zero backoff "
                           "instead of sleeping",
    "sample_solutions:seed": "seam: property tests vary the random draw",
    "prune_to_k:seed": "seam: property tests vary the random draw",
}

# ``Class.field``.  The Table-1 records keep their values as named
# fields of one default instance, so each field is its own constant.
ALLOWED_FIELDS = {
    **{
        f"EnergyParams.{name}": "Table-1 record: a named per-event "
                                "energy of the default EnergyParams"
        for name in (
            "reference_flit_bytes", "buffer_write_pj", "buffer_read_pj",
            "xbar_pj", "alloc_pj", "link_onchip_pj",
            "link_interposer_pj_per_tile", "router_leak_mw_per_port",
            "ni_buffer_leak_mw", "frequency_ghz",
        )
    },
    **{
        f"AreaParams.{name}": "Table-1 record: a named component area "
                              "of the default AreaParams"
        for name in (
            "buffer_mm2_per_byte", "xbar_mm2_per_port2_byte",
            "alloc_mm2_per_port", "ni_core_mm2",
        )
    },
    **{
        f"HbmTiming.{name}": "Table-1 record: a named HBM2 timing of the "
                             "default HbmTiming"
        for name in (
            "bytes_per_cycle_per_channel", "t_cas", "t_row_miss",
            "queue_depth",
        )
    },
    "HbmTiming.channels": "seam: tests build a one-channel HbmTiming and "
                          "pass it through HbmStack(timing) to observe "
                          "FR-FCFS order",
    "SearchConfig.weights": "seam: the evaluation-weight override kept "
                            "for the per-metric weight ablation of the "
                            "score-vs-simulator rank study",
}

# Calls that return a class: a call of the returned value, or of a name
# bound to it, constructs one of these classes.
FACTORIES = {
    "network_class": ("Network", "VectorNetwork"),
}


@lru_cache(maxsize=None)
def _files():
    """Every caller-side file's syntax tree, by path."""
    return {
        path: ast.parse(path.read_text())
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def _import_aliases(tree):
    """``{local name: imported name}`` for ``import x as y`` forms."""
    return {
        alias.asname: alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }


def _prose(tree):
    """``id()`` of every string constant that is not code: docstrings
    and other bare string statements, and the entries of ``__all__``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value,
                                                     ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                skip.update(id(n) for n in ast.walk(node.value))
    return skip


_DOTTED = re.compile(r"[A-Za-z_][\w.:]*")


def _references(files):
    """``{name: [(path, line), ...]}`` of every code reference."""
    refs = defaultdict(list)
    for path, tree in files.items():
        aliases = _import_aliases(tree)
        prose = _prose(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [aliases.get(node.id, node.id)]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in prose
                  and _DOTTED.fullmatch(node.value)):
                names = re.split(r"[.:]", node.value)
            else:
                continue
            for name in names:
                refs[name].append((path, node.lineno))
    return refs


def _definitions_in(files, package):
    """Every ``def``/``class`` of ``files`` under ``package``, with its
    class (for methods), its path and its line span."""
    defs = []
    for path, tree in files.items():
        if package not in path.parents:
            continue
        stack = [(tree, None)]
        while stack:
            parent, owner = stack.pop()
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.ClassDef):
                    defs.append((node, None, path))
                    stack.append((node, node))
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    defs.append((node, owner, path))
                    stack.append((node, None))
                else:
                    stack.append((node, owner))
    return defs


@lru_cache(maxsize=None)
def _definitions():
    """Every ``def``/``class`` under ``src/repro``."""
    return _definitions_in(_files(), ROOT / "src" / "repro")


@lru_cache(maxsize=None)
def _uncalled():
    """Public names in ``src/repro`` with no code reference outside
    their own definition, as ``{name: "path:line"}``."""
    refs = _references(_files())
    uncalled = {}
    for node, _owner, path in _definitions():
        if node.name.startswith("_"):
            continue
        outside = [
            (where, line) for where, line in refs.get(node.name, ())
            if where != path or not node.lineno <= line <= node.end_lineno
        ]
        if not outside:
            uncalled[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return uncalled


def _defaulted(node):
    """``(positional index or None, name)`` of each defaulted parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i, positional[i].arg) for i in range(first, len(positional))]
    out += [
        (None, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def _tables(files):
    """``{name: [function or class name, ...]}`` of every dict literal
    bound to a name whose values are all names: a call of one of its
    entries (``STRATEGIES[name](...)``) calls one of those."""
    tables = defaultdict(list)
    for tree in files.values():
        for node in ast.walk(tree):
            value = getattr(node, "value", None)
            if not (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(value, ast.Dict) and value.values
                    and all(isinstance(v, (ast.Name, ast.Attribute))
                            for v in value.values)):
                continue
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    tables[target.id] += [
                        v.id if isinstance(v, ast.Name) else v.attr
                        for v in value.values
                    ]
    return tables


def _tuples(files):
    """``{name: length}`` of every module-level tuple literal bound to a
    name: a ``*name`` splat fills that many positions.  A name bound to
    tuples of different lengths maps to ``None`` (unknown)."""
    lengths = {}
    for tree in files.values():
        for node in tree.body:
            value = getattr(node, "value", None)
            if not (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(value, ast.Tuple)
                    and not any(isinstance(e, ast.Starred)
                                for e in value.elts)):
                continue
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Name):
                    known = lengths.setdefault(target.id, len(value.elts))
                    if known != len(value.elts):
                        lengths[target.id] = None
    return lengths


class _Call(NamedTuple):
    """One call: what it can call and what it passes."""

    targets: list
    positional: int  # arguments that are not splats
    keywords: set
    splat: bool  # any ``*`` or ``**`` argument
    reach: float  # positions filled, ``*`` splats included (inf: unknown)
    mapping: bool  # a ``**`` argument


class _Calls(ast.NodeVisitor):
    """Every call in one caller file, as :class:`_Call` records, and
    every attribute store, as ``(class or None, name)``.  A target is ``(name, True)`` for
    a resolved construction of class ``name``, else ``(name, None)``:
    whatever function or class is called ``name``."""

    def __init__(self, aliases, bases, tables, tuples):
        self.aliases = aliases
        self.bases = bases
        self.tables = tables
        self.tuples = tuples
        self.calls = []
        self.stored = set()
        self.classes = []
        self.scopes = [{}]

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        scope = {}
        if self.classes and node.args.args and (
                node.args.args[0].arg == "cls"):
            scope["cls"] = [(self.classes[-1], True)]
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        targets = self._resolve(node.value)
        if targets:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.scopes[-1][target.id] = targets
        self.generic_visit(node)

    def _store(self, receiver, name):
        """Record a store to attribute ``name`` of ``receiver``: as
        ``(class, name)`` when the receiver is ``self`` inside a class,
        else as ``(None, name)``, which any class's field may be."""
        owner = None
        if (self.classes and isinstance(receiver, ast.Name)
                and receiver.id == "self"):
            owner = self.classes[-1]
        self.stored.add((owner, name))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):
            self._store(node.value, node.attr)
        self.generic_visit(node)

    def _resolve(self, value):
        """What calling ``value`` can call, when a name lookup would
        miss it: a factory's class, a table entry, or a local bound to
        either."""
        if isinstance(value, ast.Call):
            return [(cls, True)
                    for cls in FACTORIES.get(self._name(value.func), ())]
        if isinstance(value, ast.Subscript) and isinstance(value.value,
                                                           ast.Name):
            return [(f, None) for f in self.tables.get(value.value.id, ())]
        if isinstance(value, ast.Name):
            for scope in reversed(self.scopes):
                if value.id in scope:
                    return scope[value.id]
        return []

    def _name(self, func):
        if isinstance(func, ast.Name):
            return self.aliases.get(func.id, func.id)
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _reach(self, args):
        """How many leading positions ``args`` fill: a ``*`` splat of a
        module-level tuple literal fills its length, any other one every
        position from where it stands."""
        reach = 0
        for arg in args:
            if not isinstance(arg, ast.Starred):
                reach += 1
                continue
            length = (self.tuples.get(self._name(arg.value))
                      if isinstance(arg.value, ast.Name) else None)
            if length is None:
                return math.inf
            reach += length
        return reach

    def visit_Call(self, node):
        func = node.func
        name = self._name(func)
        keywords = {k.arg for k in node.keywords if k.arg}
        if name == "replace":
            self.stored.update((None, k) for k in keywords)
        elif (name in ("setattr", "__setattr__") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            self._store(node.args[0], node.args[1].value)
        targets = self._resolve(func)
        if not targets and (
                isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and self._name(func.value.func) == "super"):
            # super().__init__(...) inside a method constructs the base.
            owner = self.classes[-1] if self.classes else None
            targets = [(b, True) for b in self.bases.get(owner, ())]
        if not targets and name:
            targets = [(name, None)]
        mapping = any(k.arg is None for k in node.keywords)
        self.calls.append(_Call(
            targets,
            sum(not isinstance(a, ast.Starred) for a in node.args),
            keywords,
            mapping or any(isinstance(a, ast.Starred) for a in node.args),
            self._reach(node.args),
            mapping,
        ))
        self.generic_visit(node)


def _index(files, definitions):
    """Index the calls of ``files`` against ``definitions``: returns
    ``(calls by target, attribute stores, constructors)``,
    where ``constructors(cls)`` names the classes whose construction
    runs ``cls.__init__``."""
    classes = {node.name: node for node, _o, _p in definitions
               if isinstance(node, ast.ClassDef)}
    bases = {
        name: [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
        for name, node in classes.items()
    }
    tables = _tables(files)
    tuples = _tuples(files)
    by_target = defaultdict(list)
    stored = set()
    for tree in files.values():
        visitor = _Calls(_import_aliases(tree), bases, tables, tuples)
        visitor.visit(tree)
        stored |= visitor.stored
        for call in visitor.calls:
            for target in call.targets:
                by_target[target].append(call)

    def constructors(cls, seen=()):
        """``cls`` and every subclass that does not define its own
        ``__init__``."""
        out = [cls]
        for name, node in classes.items():
            if cls in bases.get(name, ()) and name not in seen:
                own = any(isinstance(s, ast.FunctionDef)
                          and s.name == "__init__" for s in node.body)
                if not own:
                    out += constructors(name, seen + (cls,))
        return out

    return by_target, stored, constructors


def _constructions(by_target, constructors, cls):
    """Every call that constructs ``cls`` or a subclass sharing its
    ``__init__``."""
    return [
        call for name in constructors(cls)
        for key in ((name, None), (name, True))
        for call in by_target[key]
    ]


@lru_cache(maxsize=None)
def _unset_parameters():
    """Defaulted parameters of ``src/repro`` functions that no call in a
    caller file passes, as ``{"func:param": "path:line"}``."""
    definitions = _definitions()
    by_target, _stored, constructors = _index(_files(), definitions)
    unset = {}
    for node, owner, path in definitions:
        if isinstance(node, ast.ClassDef):
            continue
        params = _defaulted(node)
        if not params:
            continue
        if node.name == "__init__" and owner is not None:
            sites = _constructions(by_target, constructors, owner.name)
            offset = 1
        else:
            sites = by_target[(node.name, None)]
            static = any(ast.unparse(d) == "staticmethod"
                         for d in node.decorator_list)
            offset = 1 if owner is not None and not static else 0
        label = f"{owner.name}.{node.name}" if owner else node.name
        for index, param in params:
            passed = any(
                call.splat or param in call.keywords
                or (index is not None and index < call.positional + offset)
                for call in sites
            )
            if not passed:
                unset[f"{label}:{param}"] = (
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    return unset


def _fields(node):
    """``(position or None, name, defaulted, line)`` of each ``__init__``
    field of class ``node``, or ``[]`` if it is no dataclass.  Fields
    declared ``init=False`` are not ``__init__`` fields."""
    if not any(ast.unparse(d).split("(")[0].rsplit(".", 1)[-1]
               == "dataclass" for d in node.decorator_list):
        return []
    fields = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)) or (
                "ClassVar" in ast.unparse(stmt.annotation)):
            continue
        value = stmt.value
        defaulted = value is not None
        if isinstance(value, ast.Call) and (
                ast.unparse(value.func).rsplit(".", 1)[-1] == "field"):
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = bool({"default", "default_factory"} & set(options))
        fields.append((len(fields), stmt.target.id, defaulted, stmt.lineno))
    return fields


def _unset_fields_in(files, root):
    """Defaulted fields of the dataclasses under ``root/src/repro`` that
    nothing in ``files`` sets, as ``{"Class.field": "path:line"}``."""
    definitions = _definitions_in(files, root / "src" / "repro")
    by_target, stored, constructors = _index(files, definitions)
    unset = {}
    for node, _owner, path in definitions:
        if not isinstance(node, ast.ClassDef):
            continue
        sites = _constructions(by_target, constructors, node.name)
        for position, name, defaulted, line in _fields(node):
            if not defaulted or {(None, name), (node.name, name)} & stored:
                continue
            if not any(call.mapping or name in call.keywords
                       or position < call.reach for call in sites):
                unset[f"{node.name}.{name}"] = (
                    f"{path.relative_to(root)}:{line}")
    return unset


@lru_cache(maxsize=None)
def _unset_fields():
    """Defaulted ``src/repro`` dataclass fields nothing sets."""
    return _unset_fields_in(_files(), ROOT)


def test_every_public_symbol_has_a_caller():
    dead = {
        name: where for name, where in _uncalled().items()
        if name not in ALLOWED
    }
    assert dead == {}, (
        "no caller in src/, bench/, benchmarks/ or examples/; delete "
        "these (and their tests) or add them to ALLOWED with a reason"
    )


def test_every_option_is_set_by_a_caller():
    unset = {
        param: where for param, where in _unset_parameters().items()
        if param not in ALLOWED_PARAMS
    }
    assert unset == {}, (
        "no call in src/, bench/, benchmarks/ or examples/ passes these; "
        "make each the constant it always is, or add it to "
        "ALLOWED_PARAMS with a reason"
    )


def test_every_field_is_set_by_a_caller():
    unset = {
        name: where for name, where in _unset_fields().items()
        if name not in ALLOWED_FIELDS
    }
    assert unset == {}, (
        "nothing in src/, bench/, benchmarks/ or examples/ sets these; "
        "make each a module constant, declare run state init=False, or "
        "add it to ALLOWED_FIELDS with a reason"
    )


_RECORD = """
from dataclasses import dataclass, field


@dataclass
class Rec:
    name: str
    opt: int = 0
    state: int = field(default=0, init=False)
{method}
"""


@pytest.mark.parametrize("method, caller, unset", [
    ("", "Rec('a', opt=1)", set()),
    ("", "Rec('a', 1)", set()),
    ("", "Rec(**options)", set()),
    ("", "Rec(*args)", set()),
    ("", "PAIR = ('a', 1)\nRec(*PAIR)", set()),
    ("", "NAMES = ('a',)\nRec(*NAMES)", {"Rec.opt"}),
    ("", "replace(rec, opt=1)", set()),
    ("", "rec.opt = 1", set()),
    ("", "object.__setattr__(rec, 'opt', 1)", set()),
    ("    def reset(self):\n        self.opt = 0", "Rec('a')", set()),
    ("", "class Other:\n    def f(self):\n        self.opt = 1",
     {"Rec.opt"}),
    ("    @classmethod\n    def make(cls):\n        return cls('a', 1)",
     "Rec.make()", set()),
    ("", "Rec('a')", {"Rec.opt"}),
], ids=["keyword", "position", "mapping", "unknown-splat", "tuple-splat",
        "short-tuple-splat", "replace", "store", "setattr", "self-store",
        "other-self-store", "classmethod", "unset"])
def test_field_rule_resolves_each_setter(tmp_path, method, caller, unset):
    # ``Rec.state`` is init=False, so no case reports it.
    files = {
        tmp_path / "src" / "repro" / "rec.py":
            ast.parse(_RECORD.format(method=method)),
        tmp_path / "bench" / "use.py": ast.parse(caller),
    }
    assert set(_unset_fields_in(files, tmp_path)) == unset


def test_field_rule_reports_a_planted_field():
    planted = ROOT / "src" / "repro" / "planted.py"
    files = dict(_files())
    files[planted] = ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Planted:\n    name: str\n    opt: int = 0\n"
        "\nPlanted('a')\n"
    )
    assert _unset_fields_in(files, ROOT) == {
        **_unset_fields(), "Planted.opt": "src/repro/planted.py:6"}


def test_allowed_oracles_serve_other_tests():
    # An oracle only its own module's unit test uses is dead code with
    # a test, not an oracle.
    tests = {
        path: ast.parse(path.read_text())
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        if path.name != Path(__file__).name
    }
    refs = _references(tests)
    home = {node.name: path for node, _o, path in _definitions()}
    lonely = {
        name for name in ALLOWED
        if not {path.name for path, _line in refs.get(name, ())}
        - {f"test_{home[name].stem}.py"}
    }
    assert lonely == set()
    assert all(ALLOWED.values()) and all(ALLOWED_PARAMS.values())
    assert all(ALLOWED_FIELDS.values())


def test_allowed_names_are_still_uncalled():
    # An entry whose name gained a caller, or lost its definition, is
    # stale: drop it so the lists stay the real exceptions.
    assert sorted(_uncalled()) == sorted(ALLOWED)
    assert sorted(_unset_parameters()) == sorted(ALLOWED_PARAMS)
    assert sorted(_unset_fields()) == sorted(ALLOWED_FIELDS)
