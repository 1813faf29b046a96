"""Per-module AST model extraction for the repro static analyzer.

One :class:`ModuleModel` per scanned file, capturing exactly the facts the
rules (:mod:`repro.analysis.rules`) reason over:

* **lock declarations** — ``make_lock``/``make_rlock``/``make_condition``
  calls bound to ``self._x`` attributes or module-level names, plus raw
  ``threading.Lock()``-family constructor calls (an undeclared-lock finding);
* **acquisition sites** — ``with <lockref>:`` statements and bare
  ``<lockref>.acquire()`` calls, each with the set of locks lexically held
  at that point;
* **call sites** — every call, as a receiver path (``self._store.add`` →
  ``("self", "_store")`` + method ``add``) with the lexically held locks,
  feeding the intra-package call graph;
* **attribute types** — a best-effort ``self._x`` → class-name map from
  ``__init__`` assignments (constructor calls, annotated parameters,
  ``a if c else b`` / ``a or b`` branches, annotated factory returns), so
  the rules can resolve cross-object dispatch;
* **view bindings** — variables pinned to ``IndexView`` snapshots
  (``with idx.view() as v`` / ``v = idx.view()`` / parameters
  annotated ``IndexView``) for the immutability rule;
* **comment annotations** — ``# repro: lock[NAME]`` (names a dynamic lock
  expression), ``# repro: holds[NAME]`` (function runs with NAME held), and
  ``# repro: allow[RULE] justification`` (suppression), parsed from source
  lines because the AST drops comments.

The model is purely syntactic: scanned code is never imported.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Acquisition",
    "CallSite",
    "ClassModel",
    "FunctionModel",
    "LockDecl",
    "ModuleModel",
    "extract_module",
]

FACTORY_NAMES = {"make_lock", "make_rlock", "make_condition"}
RAW_LOCK_CTORS = {"Lock", "RLock", "Condition"}

_ANNOTATION_RE = re.compile(
    r"#\s*repro:\s*(?P<kind>allow|lock|holds)\[(?P<args>[^\]]+)\]"
)


@dataclass
class LockDecl:
    """One named lock created through the factory."""

    name: str
    reentrant: bool
    line: int


@dataclass
class Acquisition:
    """One ``with <lock>:`` (or ``.acquire()``) site."""

    lock: str  # resolved lock name, or "?" when unresolvable
    line: int
    held: Tuple[str, ...]  # lock names held when this acquisition happens


@dataclass
class CallSite:
    """One call expression, normalised to a receiver path + method name."""

    recv: Tuple[str, ...]  # ("self",), ("self","_attr"), ("name","x"), ("global",)
    method: str
    line: int
    held: Tuple[str, ...]


@dataclass
class AttrWrite:
    """``recv.attr = ...`` or ``recv[k] = ...`` / ``del recv.attr``."""

    recv: Tuple[str, ...]
    attr: str  # "[]" for subscript writes
    line: int


@dataclass
class FunctionModel:
    name: str
    qualname: str
    line: int
    param_types: Dict[str, Set[str]] = field(default_factory=dict)
    return_types: Set[str] = field(default_factory=set)
    #: Element classes of a container return annotation (``Tuple[X, ...]``).
    element_types: Set[str] = field(default_factory=set)
    local_types: Dict[str, Set[str]] = field(default_factory=dict)
    acquisitions: List[Acquisition] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    attr_writes: List[AttrWrite] = field(default_factory=list)
    view_vars: Dict[str, int] = field(default_factory=dict)
    packed_vars: Dict[str, int] = field(default_factory=dict)
    holds: Set[str] = field(default_factory=set)
    raw_lock_lines: List[int] = field(default_factory=list)


@dataclass
class ClassModel:
    name: str
    line: int
    bases: List[str]
    methods: Dict[str, FunctionModel] = field(default_factory=dict)
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    attr_locks: Dict[str, LockDecl] = field(default_factory=dict)
    attr_names: Set[str] = field(default_factory=set)


@dataclass
class ModuleModel:
    module: str  # dotted name, e.g. "repro.core.stores"
    path: Path
    classes: Dict[str, ClassModel] = field(default_factory=dict)
    functions: Dict[str, FunctionModel] = field(default_factory=dict)
    module_locks: Dict[str, LockDecl] = field(default_factory=dict)
    imported_names: Dict[str, str] = field(default_factory=dict)  # local -> dotted
    allows: Dict[int, Set[str]] = field(default_factory=dict)  # line -> rule ids
    lock_hints: Dict[int, str] = field(default_factory=dict)  # line -> lock name
    holds_hints: Dict[int, Set[str]] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# comment annotations
# --------------------------------------------------------------------------- #
def _parse_annotations(source: str, model: ModuleModel) -> None:
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        for match in _ANNOTATION_RE.finditer(text):
            kind = match.group("kind")
            args = [a.strip() for a in match.group("args").split(",") if a.strip()]
            if kind == "allow":
                target = lineno
                # A comment-only line suppresses the next code line.
                if text.strip().startswith("#"):
                    target = lineno + 1
                model.allows.setdefault(target, set()).update(args)
            elif kind == "lock":
                model.lock_hints[lineno] = args[0]
            elif kind == "holds":
                model.holds_hints.setdefault(lineno, set()).update(args)


# --------------------------------------------------------------------------- #
# small AST helpers
# --------------------------------------------------------------------------- #
def _attr_path(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``self._a.b`` → ("self", "_a", "b"); ``x.y`` → ("x", "y"); else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _annotation_types(node: Optional[ast.expr]) -> Set[str]:
    """Class names out of an annotation, unwrapping Optional/Union/strings."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Subscript):
        base = _annotation_types(node.value)
        if base & {"Optional", "Union"}:
            inner = node.slice
            elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            out: Set[str] = set()
            for elt in elts:
                out |= _annotation_types(elt)
            return out - {"None"}
        return base
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # X | None
        return (_annotation_types(node.left) | _annotation_types(node.right)) - {"None"}
    return set()


_CONTAINERS = {"List", "Tuple", "Sequence", "Iterable", "Iterator", "FrozenSet", "Set"}


def _element_types(node: Optional[ast.expr]) -> Set[str]:
    """Element classes of a container annotation (``Tuple[X, ...]``, ``List[X]``)."""
    if not isinstance(node, ast.Subscript) or not _annotation_types(node.value) & _CONTAINERS:
        return set()
    return set().union(*map(_annotation_types, getattr(node.slice, "elts", [node.slice])))


def _member_tags(node: ast.expr) -> Set[str]:
    """``self.a.b`` → ``{"@self:a.b"}``, ``self.a.b[i]`` → ``{"@elem:a.b"}``: a
    local bound to a member of ``self`` or an element of one, typed later."""
    kind = "@elem:" if isinstance(node, ast.Subscript) else "@self:"
    path = _attr_path(node.value if isinstance(node, ast.Subscript) else node)
    if path is None or len(path) < 2 or path[0] != "self":
        return set()
    return {kind + ".".join(path[1:])}


def _factory_lock(node: ast.expr) -> Optional[Tuple[str, bool]]:
    """``make_lock("x")``-family call → (name, reentrant), else None.

    Sees through ``a if c else b`` / ``a or b`` so the common
    ``self._lock = passed_lock if passed_lock is not None else make_rlock(...)``
    pattern still declares the lock.
    """
    if isinstance(node, ast.IfExp):
        return _factory_lock(node.body) or _factory_lock(node.orelse)
    if isinstance(node, ast.BoolOp):
        for value in node.values:
            found = _factory_lock(value)
            if found is not None:
                return found
        return None
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    fname = None
    if isinstance(func, ast.Name):
        fname = func.id
    elif isinstance(func, ast.Attribute):
        fname = func.attr
    if fname not in FACTORY_NAMES:
        return None
    if node.args and isinstance(node.args[0], ast.Constant):
        name = str(node.args[0].value)
    else:
        name = "?"
    return name, fname == "make_rlock"


def _is_raw_lock_ctor(node: ast.expr) -> bool:
    """``threading.Lock()`` / ``Lock()`` family constructor call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in RAW_LOCK_CTORS:
        base = func.value
        return isinstance(base, ast.Name) and base.id == "threading"
    if isinstance(func, ast.Name) and func.id in RAW_LOCK_CTORS:
        return True
    return False


def _constructed_types(node: ast.expr, param_types: Dict[str, Set[str]]) -> Set[str]:
    """Best-effort types of an assigned expression (for attr/local type maps)."""
    if isinstance(node, ast.IfExp):
        return _constructed_types(node.body, param_types) | _constructed_types(
            node.orelse, param_types
        )
    if isinstance(node, ast.BoolOp):
        out: Set[str] = set()
        for value in node.values:
            out |= _constructed_types(value, param_types)
        return out
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id[:1].isupper():
                return {func.id}
            return set()  # lowercase factory: resolved later via return annotation
        if isinstance(func, ast.Attribute) and func.attr[:1].isupper():
            return {func.attr}
        return set()
    if isinstance(node, ast.Name):
        return set(param_types.get(node.id, set()))
    return set()


def _called_factories(node: ast.expr) -> Set[str]:
    """Names of lowercase factory functions called in an assigned expression."""
    out: Set[str] = set()
    if isinstance(node, ast.IfExp):
        return _called_factories(node.body) | _called_factories(node.orelse)
    if isinstance(node, ast.BoolOp):
        for value in node.values:
            out |= _called_factories(value)
        return out
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and not func.id[:1].isupper():
            out.add(func.id)
        elif isinstance(func, ast.Attribute) and not func.attr[:1].isupper():
            out.add(func.attr)
    return out


# --------------------------------------------------------------------------- #
# function body walker
# --------------------------------------------------------------------------- #
class _FunctionWalker(ast.NodeVisitor):
    """Walks one function body tracking lexically held locks."""

    def __init__(
        self,
        model: ModuleModel,
        cls: Optional[ClassModel],
        fn: FunctionModel,
    ) -> None:
        self.model = model
        self.cls = cls
        self.fn = fn
        self.held: List[str] = sorted(fn.holds)

    # -- lock-reference resolution -------------------------------------- #
    def _lock_name_of(self, node: ast.expr) -> Optional[str]:
        hint = self.model.lock_hints.get(node.lineno)
        if hint is not None:
            return hint
        path = _attr_path(node)
        if path is None:
            return None
        if len(path) == 2 and path[0] == "self" and self.cls is not None:
            decl = self.cls.attr_locks.get(path[1])
            if decl is not None:
                return decl.name
        if len(path) == 1:
            decl = self.model.module_locks.get(path[0])
            if decl is not None:
                return decl.name
        return None

    # -- statements ------------------------------------------------------ #
    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            ctx = item.context_expr
            lock = self._lock_name_of(ctx)
            if lock is not None:
                self.fn.acquisitions.append(
                    Acquisition(lock=lock, line=ctx.lineno, held=tuple(self.held))
                )
                acquired.append(lock)
                self.held.append(lock)
            else:
                self.visit(ctx)
                self._bind_view_from_with(item)
            if item.optional_vars is not None and lock is None:
                pass  # view binding handled above; other aliases untyped
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    visit_AsyncWith = visit_With

    def _bind_view_from_with(self, item: ast.withitem) -> None:
        ctx = item.context_expr
        var = item.optional_vars
        if not (isinstance(var, ast.Name) and isinstance(ctx, ast.Call)):
            return
        func = ctx.func
        if isinstance(func, ast.Attribute) and func.attr == "view":
            self.fn.view_vars.setdefault(var.id, ctx.lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assignment([node.target], node.value)
        if isinstance(node.target, ast.Name):
            self.fn.local_types.setdefault(node.target.id, set()).update(
                _annotation_types(node.annotation)
            )
        self.generic_visit(node)

    def _record_assignment(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        lock = _factory_lock(value)
        for target in targets:
            path = _attr_path(target)
            if path is None:
                if isinstance(target, ast.Subscript):
                    base = _attr_path(target.value)
                    if base is not None:
                        self.fn.attr_writes.append(
                            AttrWrite(recv=base, attr="[]", line=target.lineno)
                        )
                continue
            # lock declarations
            if lock is not None:
                decl = LockDecl(name=lock[0], reentrant=lock[1], line=value.lineno)
                if len(path) == 2 and path[0] == "self" and self.cls is not None:
                    self.cls.attr_locks[path[1]] = decl
                elif len(path) == 1 and self.cls is None:
                    self.model.module_locks[path[0]] = decl
            # attribute types (self._x = ...) and writes
            if len(path) >= 2 and path[0] == "self" and self.cls is not None:
                self.cls.attr_names.add(path[1])
                if len(path) == 2:
                    types = _constructed_types(value, self.fn.param_types)
                    if types:
                        self.cls.attr_types.setdefault(path[1], set()).update(types)
                    for factory in _called_factories(value):
                        self.cls.attr_types.setdefault(path[1], set()).add(
                            f"@call:{factory}"
                        )
            if len(path) >= 2 and path[0] != "self":
                self.fn.attr_writes.append(
                    AttrWrite(recv=path[:-1], attr=path[-1], line=target.lineno)
                )
            # local variable types + view/packed bindings
            if len(path) == 1:
                types = _constructed_types(value, self.fn.param_types) | _member_tags(value)
                if types:
                    self.fn.local_types.setdefault(path[0], set()).update(types)
                if "PackedGraph" in types or "PackedGraphView" in types:
                    self.fn.packed_vars.setdefault(path[0], value.lineno)
                if isinstance(value, ast.Call):
                    func = value.func
                    if isinstance(func, ast.Attribute) and func.attr == "view":
                        self.fn.view_vars.setdefault(path[0], value.lineno)
                    if isinstance(func, ast.Attribute) and (
                        func.attr in ("to_packed", "packed_at", "view_at")
                        or (
                            isinstance(func.value, ast.Name)
                            and func.value.id in ("PackedGraph", "PackedGraphView")
                        )
                    ):
                        self.fn.packed_vars.setdefault(path[0], value.lineno)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            path = _attr_path(target)
            if path is not None and len(path) >= 2 and path[0] != "self":
                self.fn.attr_writes.append(
                    AttrWrite(recv=path[:-1], attr=path[-1], line=node.lineno)
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        path = _attr_path(node.target)
        if path is not None and len(path) >= 2 and path[0] != "self":
            self.fn.attr_writes.append(
                AttrWrite(recv=path[:-1], attr=path[-1], line=node.lineno)
            )
        self.generic_visit(node)

    # -- calls ------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        if _is_raw_lock_ctor(node):
            self.fn.raw_lock_lines.append(node.lineno)
        func = node.func
        path = _attr_path(func)
        if path is not None:
            if len(path) >= 2:
                method = path[-1]
                recv = path[:-1]
                # bare .acquire() on a known lock is an acquisition site
                if method == "acquire":
                    lock = self._lock_name_of(func.value)  # type: ignore[union-attr]
                    if lock is not None:
                        self.fn.acquisitions.append(
                            Acquisition(
                                lock=lock, line=node.lineno, held=tuple(self.held)
                            )
                        )
                        for arg in node.args:
                            self.visit(arg)
                        return
                self.fn.calls.append(
                    CallSite(
                        recv=recv, method=method, line=node.lineno,
                        held=tuple(self.held),
                    )
                )
            else:
                self.fn.calls.append(
                    CallSite(
                        recv=("global",), method=path[0], line=node.lineno,
                        held=tuple(self.held),
                    )
                )
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        if path is None:
            self.visit(func)

    # don't descend into nested defs/lambdas with this walker's held state
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


# --------------------------------------------------------------------------- #
# module extraction
# --------------------------------------------------------------------------- #
def _extract_function(
    model: ModuleModel,
    cls: Optional[ClassModel],
    node: ast.FunctionDef,
) -> FunctionModel:
    qual = f"{cls.name}.{node.name}" if cls is not None else node.name
    fn = FunctionModel(name=node.name, qualname=qual, line=node.lineno)
    for arg in list(node.args.args) + list(node.args.kwonlyargs):
        types = _annotation_types(arg.annotation)
        if types:
            fn.param_types[arg.arg] = types
            if "IndexView" in types:
                fn.view_vars.setdefault(arg.arg, node.lineno)
            if "PackedGraph" in types or "PackedGraphView" in types:
                fn.packed_vars.setdefault(arg.arg, node.lineno)
    fn.return_types = _annotation_types(node.returns)
    fn.element_types = _element_types(node.returns)
    for line in (node.lineno, node.lineno - 1):
        fn.holds |= model.holds_hints.get(line, set())
    walker = _FunctionWalker(model, cls, fn)
    for stmt in node.body:
        walker.visit(stmt)
    return fn


def _resolve_import_from(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute dotted target of a ``from X import Y`` statement."""
    if node.level == 0:
        return node.module
    # level 1 = the containing package: the module itself when it is a
    # package __init__, else its parent; each extra level drops one more.
    package = module.split(".") if is_package else module.split(".")[:-1]
    base = package[: len(package) - (node.level - 1)]
    if not base and node.module is None:
        return None
    return ".".join(base + ([node.module] if node.module else []))


def extract_module(path: Path, module: str) -> ModuleModel:
    """Parse one file into its :class:`ModuleModel` (no imports executed)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    model = ModuleModel(module=module, path=path)
    _parse_annotations(source, model)

    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                model.imported_names[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_import_from(module, path.name == "__init__.py", node)
            if target is not None:
                for alias in node.names:
                    model.imported_names[alias.asname or alias.name] = (
                        f"{target}.{alias.name}"
                    )
        elif isinstance(node, ast.ClassDef):
            bases = []
            for base in node.bases:
                base_path = _attr_path(base)
                if base_path is not None:
                    bases.append(base_path[-1])
            cls = ClassModel(name=node.name, line=node.lineno, bases=bases)
            model.classes[node.name] = cls
            # two passes: __init__ first so attr_locks/attr_types exist when
            # the other methods' lock references are resolved.
            methods = [
                child
                for child in node.body
                if isinstance(child, ast.FunctionDef)
            ]
            for child in sorted(methods, key=lambda m: m.name != "__init__"):
                cls.methods[child.name] = _extract_function(model, cls, child)
        elif isinstance(node, ast.FunctionDef):
            model.functions[node.name] = _extract_function(model, None, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            lock = _factory_lock(value)
            for target in targets:
                if isinstance(target, ast.Name) and lock is not None:
                    model.module_locks[target.id] = LockDecl(
                        name=lock[0], reentrant=lock[1], line=value.lineno
                    )
            if _is_raw_lock_ctor(value):
                # module-level raw lock constructor
                pseudo = model.functions.setdefault(
                    "<module>",
                    FunctionModel(name="<module>", qualname="<module>", line=1),
                )
                pseudo.raw_lock_lines.append(value.lineno)
    return model
