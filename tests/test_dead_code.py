"""Every function, class, method, property and module-level name in the package is used.

The program is the package, the benchmark harness and the acceptance
tests.  A module-level definition, or a name a module-level assignment
binds (a constant, a type alias), counts as used when some name elsewhere
in the program refers to it, or an attribute of a name bound to a routeloc
module (``rbench.run_experiment``, ``bench_mod.METHODS``).  Attributes of
anything else (``text.encode()``) do not count.  A method or property
counts as used when any program file uses its name as an attribute
(``store.rows_of``, ``cls._load_binary``), whatever the object; special
methods (``__len__``) count as used.  Re-exports in ``__init__.py`` and
unit tests do not count, so code that only unit tests call shows up here.

The method check matches by name only: a method whose name some other
object's attribute shares counts as used even when nothing calls it.
``Encoder.latent_dim`` (read by ``encode_batch``) would still pass if only
``WorldViews.latent_dim`` were read, so such a method has to be found by
hand.

Every dataclass field and every ``self.<name>`` attribute in the package is
read by the program: some program file loads an attribute of that name, or
holds it as a string constant (``getattr(rep, "localized_top1")``).  And
every defaulted parameter of a public function or method, and every
defaulted dataclass field, is set by at least one program call, by keyword
or by position; a ``**mapping`` sets nothing.  Calls match by name, as
methods do above: ``f(...)`` and ``obj.f(...)`` both call every ``f``, and
a class name or ``cls`` calls the dataclass or ``__init__``.  A call through
a name bound to another package's module (``pytest.main([...])``) calls
none of them.  A default no
call sets is a fixed value, not an option; ``UNSET_ALLOWED`` lists the few
kept anyway, each with its reason.

No module reads another module's private names either: ``x._name`` in the
package is flagged when ``_name`` is defined or assigned only in some other
module, so each module reaches another only through its public names.
"""
import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "routeloc"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _module_aliases(tree: ast.AST) -> set:
    """Names that ``tree`` binds to routeloc modules."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] == "routeloc")
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "routeloc"):
            aliases.update(a.asname or a.name for a in node.names if a.name in MODULES)
    return aliases


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names, and attributes of routeloc modules, that ``tree`` refers to outside ``skip``."""
    modules = _module_aliases(tree)
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _program() -> tuple:
    """Parsed package modules by file name, and the other program files' trees."""
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    others = {str(p): ast.parse(p.read_text(encoding="utf-8"))
              for p in [ROOT / "tests" / "test_acceptance.py",
                        *sorted((ROOT / "perfbench").glob("*.py"))]}
    return modules, others


def _bound_names(node: ast.AST) -> list:
    """Names a module-level statement binds: a definition's, or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def test_no_definition_is_unused():
    modules, others = _program()
    refs = {name: _referenced_names(tree) for name, tree in {**modules, **others}.items()}
    unused = []
    for name, tree in modules.items():
        elsewhere = set().union(*(r for other, r in refs.items() if other != name))
        for node in tree.body:
            unused += [f"{name}:{node.lineno} {bound}" for bound in _bound_names(node)
                       if bound not in elsewhere
                       and bound not in _referenced_names(tree, skip=node)]
    assert not unused, "defined but never used outside unit tests: " + ", ".join(unused)


def test_no_method_or_property_is_unused():
    modules, others = _program()
    attrs = {node.attr for tree in [*modules.values(), *others.values()]
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = [f"{name}:{node.lineno} {cls.name}.{node.name}"
              for name, tree in modules.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in attrs]
    assert not unused, "methods never used outside unit tests: " + ", ".join(unused)


def _private_names(tree: ast.AST) -> set:
    """Private names ``tree`` defines or assigns: functions, classes, variables, attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_no_module_reads_another_modules_private_names():
    modules, _ = _program()
    own = {name: _private_names(tree) for name, tree in modules.items()}
    reads = [f"{name}:{node.lineno} .{node.attr}"
             for name, tree in modules.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr not in own[name]
             and any(node.attr in names for other, names in own.items() if other != name)]
    assert not reads, "private names read from another module: " + ", ".join(reads)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _fields(cls: ast.ClassDef) -> list:
    """A dataclass's field statements, in order."""
    return [node for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def test_no_field_or_attribute_is_unread():
    modules, others = _program()
    trees = [*modules.values(), *others.values()]
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    reads |= {node.value for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += [f"{name}:{f.lineno} {node.name}.{f.target.id}"
                           for f in _fields(node) if f.target.id not in reads]
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"
                  and node.attr not in reads):
                unread.append(f"{name}:{node.lineno} self.{node.attr}")
    assert not unread, "fields and attributes nothing reads: " + ", ".join(unread)


# Defaulted parameters the program need not set, each with its reason.
UNSET_ALLOWED = {
    "enumerate_routes(exclusions)": "the reference enumerator; unit tests compare excluded "
                                    "searches against it",
    "main(argv)": "the CLI tests drive every command through argv, and the console script "
                  "passes none",
}


def _defaulted(modules: dict) -> list:
    """(where, callee name, positional names, defaulted names) of every public callable.

    A public function is called by its name, a public method by its name
    after ``self`` or ``cls``, and a dataclass or an ``__init__`` by the
    class name.
    """
    out = []

    def add(where, callee, fn, skip):
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        out.append((where, callee, positional[skip:], defaulted))

    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                add(f"{name}:{node.lineno}", node.name, node, 0)
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = _fields(node)
                    out.append((f"{name}:{node.lineno}", node.name,
                                [f.target.id for f in fields],
                                [f.target.id for f in fields if f.value is not None]))
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    if fn.name == "__init__":
                        add(f"{name}:{fn.lineno}", node.name, fn, 1)
                    elif not fn.name.startswith("_"):
                        add(f"{name}:{fn.lineno}", fn.name, fn, 0 if static else 1)
    return out


def _foreign_modules(tree: ast.AST) -> set:
    """Names that ``tree`` binds to modules of other packages (``np``, ``pytest``)."""
    return {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for a in node.names
            if a.name.split(".")[0] != "routeloc"}


def _calls(trees) -> dict:
    """Every call by callee name: (positional arguments, keyword names).

    A ``*args`` argument counts as setting every position.  A call through
    ``cls`` inside a class counts as a call of that class.  A call through
    another package's module counts as none.
    """
    calls = {}

    def visit(node, cls, foreign):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == "cls" and cls is not None:
                callee = cls
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            if getattr(getattr(func, "value", None), "id", None) not in foreign:
                calls.setdefault(callee, []).append((
                    math.inf if starred else len(node.args),
                    {k.arg for k in node.keywords if k.arg is not None}))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, foreign)

    for tree in trees:
        visit(tree, None, _foreign_modules(tree))
    return calls


def test_every_default_is_set_by_some_call():
    modules, others = _program()
    calls = _calls([*modules.values(), *others.values()])
    unset = []
    for where, callee, positional, defaulted in _defaulted(modules):
        for param in defaulted:
            at = positional.index(param) if param in positional else math.inf
            if f"{callee}({param})" not in UNSET_ALLOWED and not any(
                    param in kws or at < n for n, kws in calls.get(callee, ())):
                unset.append(f"{where} {callee}({param})")
    assert not unset, "defaults no program call sets: " + ", ".join(unset)
