"""The REPRO rule checks over a program of extracted module models.

Rule catalog (see README "Static analysis & lock discipline"):

========  ==================================================================
REPRO001  lock-hierarchy violation: an acquisition edge ``A -> B`` whose
          declared ranks are not strictly increasing, a cycle in the
          acquisition-order graph, or a raw ``threading.Lock()``-family
          constructor bypassing the ``make_lock`` factory.
REPRO002  a blocking operation (file I/O, ``time.sleep``, ``Thread.join``,
          ``queue.get``, ``Future.result``)
          performed while the GC lock is held.  Traversal is deliberately
          narrow — lexical regions plus same-class ``self.`` calls — so
          every finding is a hard fact; the runtime sanitizer covers the
          cross-object dynamic paths.
REPRO003  mutation of stores / the GCindex / the statistics rows
          reachable from a ``decide()`` method on a class that also defines
          ``apply()`` (the PR-4 decide/apply purity split).
REPRO004  a mutating call or attribute write on a pinned ``IndexView``
          snapshot (bound by ``with idx.view() as v``, ``v = idx.view()``,
          or an ``IndexView``-annotated parameter).
REPRO006  a method call on ``self._backend`` outside the owning store's
          ``self._lock`` — compound store reads must happen under the store
          lock.
REPRO007  mutation of a ``PackedGraph`` (bound by a ``PackedGraph``
          annotation, ``graph.to_packed()``, ``arena.packed_at()`` or a
          ``PackedGraph.*`` constructor) — an attribute write, an element
          write through one of its numpy views, or an in-place numpy
          mutator call.  Packed graphs may alias a read-only arena mmap
          shared across processes, so *any* write is a violation (the
          arena-backed twin of REPRO004).
REPRO008  cache mutation reachable from a replica apply path (an ``apply*``
          method on a ``*Replica*`` class) outside the sanctioned delta
          machinery.  A replica must change state only by replaying frames
          through ``GraphCache.replay_frames`` /
          ``MaintenanceEngine.replay`` — any other route to the stores, the
          GCindex or the statistics rows diverges it from the primary.
========  ==================================================================

Resolution is best-effort and *sound-where-it-claims*: a call that cannot
be resolved is dropped, never guessed, so every reported finding is backed
by an explicit chain the message names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .locks import GC_LOCK_NAME, rank_of
from .model import CallSite, ClassModel, FunctionModel, ModuleModel

__all__ = ["Finding", "Program", "run_rules"]

#: Mutating methods per tracked shared-state type (REPRO003 / REPRO008).
#: Every name is a method of its class (``tests/analysis`` checks it).  The
#: GCindex's feature memo writes (``query_features``/``adopt_features``)
#: are left out: they change no cached entry.
TRACKED_MUTATORS: Dict[str, Set[str]] = {
    "CacheStore": {"add", "evict", "apply_delta", "replace_contents", "close"},
    "WindowStore": {"add", "drain", "close"},
    "QueryGraphIndex": {"add", "remove", "rebuild", "batch"},
    "StatisticsManager": {"add", "remove", "rebuild", "record_hit"},
    "InMemoryBackend": {"put", "delete", "clear", "replace_all", "apply_delta", "close"},
    "MmapBackend": {
        "put",
        "delete",
        "clear",
        "replace_all",
        "apply_delta",
        "seal",
        "seal_delta",
        "compact",
        "close",
    },
}

#: The sanctioned replica delta path (REPRO008): the only methods through
#: which a replica apply path may reach tracked shared state.  The traversal
#: does not descend into them — everything they mutate is, by construction,
#: exactly what the primary's round mutated.
REPLICA_DELTA_PATH: Set[Tuple[str, str]] = {
    ("GraphCache", "replay_frames"),
    ("MaintenanceEngine", "replay"),
}

#: Mutating surface of a pinned IndexView (REPRO004): a snapshot is
#: read-only, so *any* of these is a violation.
VIEW_MUTATORS = {
    "add",
    "remove",
    "rebuild",
    "clear",
    "update",
    "publish",
    "register",
    "apply_delta",
}

#: In-place numpy mutators (REPRO007): calling any of these on a
#: ``PackedGraph`` or one of its array views writes through storage that may
#: be a read-only arena mmap shared across processes.
PACKED_MUTATORS = {
    "fill",
    "sort",
    "put",
    "itemset",
    "setflags",
    "resize",
    "partition",
    "byteswap",
}

_THREADISH = re.compile(r"thread|worker|proc", re.IGNORECASE)
_QUEUEISH = re.compile(r"queue", re.IGNORECASE)
_FUTUREISH = re.compile(r"fut", re.IGNORECASE)

_BLOCKING_METHODS_ANY = {
    "read_text": "file I/O",
    "write_text": "file I/O",
    "read_bytes": "file I/O",
    "write_bytes": "file I/O",
}


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    symbol: str

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        return f"{self.rule}::{self.path}::{self.symbol}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class _Func:
    """A function in program context."""

    module: ModuleModel
    cls: Optional[ClassModel]
    fn: FunctionModel

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module.module, self.fn.qualname)


@dataclass
class Program:
    """All scanned modules plus the resolution indexes the rules share."""

    modules: List[ModuleModel]
    classes: Dict[str, List[Tuple[ModuleModel, ClassModel]]] = field(
        default_factory=dict
    )
    subclasses: Dict[str, Set[str]] = field(default_factory=dict)
    funcs: Dict[Tuple[str, str], _Func] = field(default_factory=dict)
    lock_reentrant: Dict[str, bool] = field(default_factory=dict)

    @classmethod
    def build(cls, modules: Iterable[ModuleModel]) -> "Program":
        prog = cls(modules=list(modules))
        for module in prog.modules:
            for klass in module.classes.values():
                prog.classes.setdefault(klass.name, []).append((module, klass))
                for base in klass.bases:
                    prog.subclasses.setdefault(base, set()).add(klass.name)
                for method in klass.methods.values():
                    prog.funcs[(module.module, method.qualname)] = _Func(
                        module, klass, method
                    )
                for decl in klass.attr_locks.values():
                    prog._register_lock(decl.name, decl.reentrant)
            for fn in module.functions.values():
                prog.funcs[(module.module, fn.qualname)] = _Func(module, None, fn)
            for decl in module.module_locks.values():
                prog._register_lock(decl.name, decl.reentrant)
        return prog

    def _register_lock(self, name: str, reentrant: bool) -> None:
        self.lock_reentrant[name] = self.lock_reentrant.get(name, False) or reentrant

    # -- resolution ------------------------------------------------------- #
    def all_subclasses(self, name: str) -> Set[str]:
        out: Set[str] = set()
        frontier = [name]
        while frontier:
            node = frontier.pop()
            for sub in self.subclasses.get(node, ()):
                if sub not in out:
                    out.add(sub)
                    frontier.append(sub)
        return out

    def _method_in_class(self, class_name: str, method: str) -> List[_Func]:
        """Look up ``method`` on ``class_name`` (its MRO) and its overrides."""
        out: List[_Func] = []
        seen: Set[str] = set()
        frontier = [class_name]
        while frontier:  # walk up the bases until found
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            for module, klass in self.classes.get(node, ()):
                if method in klass.methods:
                    out.append(self.funcs[(module.module, klass.methods[method].qualname)])
                else:
                    frontier.extend(klass.bases)
        # CHA: overrides in subclasses (the attr may hold any concrete impl)
        for sub in self.all_subclasses(class_name):
            for module, klass in self.classes.get(sub, ()):
                if method in klass.methods:
                    out.append(self.funcs[(module.module, klass.methods[method].qualname)])
        return out

    def receiver_types(self, ctx: _Func, recv: Tuple[str, ...]) -> Set[str]:
        """Possible class names of a call receiver path, "" when unknown."""
        if recv == ("self",) and ctx.cls is not None:
            return {ctx.cls.name}
        if len(recv) == 2 and recv[0] == "self" and ctx.cls is not None:
            raw = ctx.cls.attr_types.get(recv[1], set())
            out = {t for t in raw if not t.startswith("@call:")}
            # factory-call assignments: resolve through the factory's
            # return annotation if the factory is in the program.
            for tag in raw:
                if tag.startswith("@call:"):
                    out |= self._factory_return_types(tag[len("@call:"):])
            return out
        if len(recv) == 1 and recv[0] != "self":
            name = recv[0]
            types = set(ctx.fn.local_types.get(name, set()))
            types |= ctx.fn.param_types.get(name, set())
            return types
        return set()

    def _factory_return_types(self, factory: str) -> Set[str]:
        out: Set[str] = set()
        for func in self.funcs.values():
            if func.cls is None and func.fn.name == factory:
                out |= func.fn.return_types
        return out

    def resolve_call(self, ctx: _Func, call: CallSite) -> List[_Func]:
        """Callee candidates of one call site (empty when unresolvable)."""
        out: List[_Func] = []
        if call.recv == ("global",):
            # module-level function in the same module, else via import
            fn = ctx.module.functions.get(call.method)
            if fn is not None:
                return [self.funcs[(ctx.module.module, fn.qualname)]]
            # constructor call: ClassName(...) -> __init__
            if call.method[:1].isupper():
                for module, klass in self.classes.get(call.method, ()):
                    init = klass.methods.get("__init__")
                    if init is not None:
                        out.append(self.funcs[(module.module, init.qualname)])
            return out
        for type_name in self.receiver_types(ctx, call.recv):
            out.extend(self._method_in_class(type_name, call.method))
        return out


# --------------------------------------------------------------------------- #
# fixpoints
# --------------------------------------------------------------------------- #
def _acquires_star(prog: Program) -> Dict[Tuple[str, str], Set[str]]:
    """Transitive lock-name acquisition set of every function."""
    acq: Dict[Tuple[str, str], Set[str]] = {
        key: {a.lock for a in func.fn.acquisitions if a.lock != "?"}
        for key, func in prog.funcs.items()
    }
    changed = True
    while changed:
        changed = False
        for key, func in prog.funcs.items():
            for call in func.fn.calls:
                for callee in prog.resolve_call(func, call):
                    extra = acq.get(callee.key, set()) - acq[key]
                    if extra:
                        acq[key] |= extra
                        changed = True
    return acq


def _classify_blocking(call: CallSite) -> Optional[str]:
    """Human-readable reason when a call site is a blocking operation."""
    recv_tail = call.recv[-1] if call.recv else ""
    if call.recv == ("global",) and call.method == "open":
        return "open() file I/O"
    if call.method == "open" and call.recv != ("global",):
        return f"{recv_tail}.open() file I/O"
    if call.method in _BLOCKING_METHODS_ANY:
        return f".{call.method}() {_BLOCKING_METHODS_ANY[call.method]}"
    if call.method == "sleep" and recv_tail == "time":
        return "time.sleep()"
    if call.method == "join" and _THREADISH.search(recv_tail):
        return f"{recv_tail}.join() (thread join)"
    if call.method == "get" and _QUEUEISH.search(recv_tail):
        return f"{recv_tail}.get() (queue wait)"
    if call.method == "result" and _FUTUREISH.search(recv_tail):
        return f"{recv_tail}.result() (future wait)"
    return None


def _may_block(prog: Program) -> Dict[Tuple[str, str], Optional[str]]:
    """First blocking reason reachable via same-class ``self.`` calls."""
    reason: Dict[Tuple[str, str], Optional[str]] = {}
    for key, func in prog.funcs.items():
        direct = None
        for call in func.fn.calls:
            direct = _classify_blocking(call)
            if direct:
                break
        reason[key] = direct
    changed = True
    while changed:
        changed = False
        for key, func in prog.funcs.items():
            if reason[key] or func.cls is None:
                continue
            for call in func.fn.calls:
                if call.recv != ("self",):
                    continue
                callee = func.cls.methods.get(call.method)
                if callee is None:
                    continue
                sub = reason.get((func.module.module, callee.qualname))
                if sub:
                    reason[key] = f"{call.method}() -> {sub}"
                    changed = True
                    break
    return reason


# --------------------------------------------------------------------------- #
# rules
# --------------------------------------------------------------------------- #
def _rule_locks(prog: Program, findings: List[Finding]) -> None:
    """REPRO001: rank violations, order cycles, undeclared locks."""
    edges: Dict[Tuple[str, str], Tuple[_Func, int]] = {}
    acq = _acquires_star(prog)
    for func in prog.funcs.values():
        for site in func.fn.acquisitions:
            for held in site.held:
                edges.setdefault((held, site.lock), (func, site.line))
        for call in func.fn.calls:
            if not call.held:
                continue
            for callee in prog.resolve_call(func, call):
                for lock in acq.get(callee.key, ()):
                    for held in call.held:
                        edges.setdefault((held, lock), (func, call.line))

    for (src, dst), (func, line) in sorted(
        edges.items(), key=lambda kv: (kv[1][0].module.module, kv[1][1])
    ):
        if "?" in (src, dst):
            continue
        if src == dst:
            if not prog.lock_reentrant.get(src, False):
                findings.append(
                    Finding(
                        rule="REPRO001",
                        path=str(func.module.path),
                        line=line,
                        symbol=f"{func.fn.qualname}:reacquire:{src}",
                        message=(
                            f"non-reentrant lock '{src}' re-acquired while "
                            f"already held in {func.fn.qualname}"
                        ),
                    )
                )
            continue
        src_rank, dst_rank = rank_of(src), rank_of(dst)
        if src_rank is not None and dst_rank is not None and dst_rank <= src_rank:
            findings.append(
                Finding(
                    rule="REPRO001",
                    path=str(func.module.path),
                    line=line,
                    symbol=f"{func.fn.qualname}:{src}->{dst}",
                    message=(
                        f"lock hierarchy violation in {func.fn.qualname}: "
                        f"acquires '{dst}' (rank {dst_rank}) while holding "
                        f"'{src}' (rank {src_rank}); ranks must strictly "
                        f"increase (repro.analysis.locks.LOCK_RANKS)"
                    ),
                )
            )

    # cycles among distinct named locks (rank table aside)
    graph: Dict[str, Set[str]] = {}
    for (src, dst) in edges:
        if "?" not in (src, dst) and src != dst:
            graph.setdefault(src, set()).add(dst)
    for cycle in _find_cycles(graph):
        src, dst = cycle[0], cycle[1 % len(cycle)]
        func, line = edges[(src, dst)]
        findings.append(
            Finding(
                rule="REPRO001",
                path=str(func.module.path),
                line=line,
                symbol="cycle:" + "->".join(cycle),
                message=(
                    "acquisition-order cycle: " + " -> ".join(cycle + [cycle[0]])
                ),
            )
        )

    for func in prog.funcs.values():
        for line in func.fn.raw_lock_lines:
            findings.append(
                Finding(
                    rule="REPRO001",
                    path=str(func.module.path),
                    line=line,
                    symbol=f"{func.fn.qualname}:raw-lock:{line}",
                    message=(
                        "raw threading.Lock()/RLock()/Condition() bypasses the "
                        "named-lock factory; use repro.analysis.runtime."
                        "make_lock(name) so the rank table and sanitizer see it"
                    ),
                )
            )


def _find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Cycles in the order graph, one representative per strongly
    connected component of size > 1 (Tarjan)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]

    def strongconnect(node: str) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in graph.get(node, ()):
            if succ not in index:
                strongconnect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component: List[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                out.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return out


def _rule_blocking(prog: Program, findings: List[Finding]) -> None:
    """REPRO002: blocking operations while the GC lock is held."""
    may_block = _may_block(prog)
    for func in prog.funcs.values():
        for call in func.fn.calls:
            if GC_LOCK_NAME not in call.held:
                continue
            reason = _classify_blocking(call)
            if reason is None and call.recv == ("self",) and func.cls is not None:
                callee = func.cls.methods.get(call.method)
                if callee is not None:
                    sub = may_block.get((func.module.module, callee.qualname))
                    if sub:
                        reason = f"{call.method}() -> {sub}"
            if reason:
                findings.append(
                    Finding(
                        rule="REPRO002",
                        path=str(func.module.path),
                        line=call.line,
                        symbol=f"{func.fn.qualname}:{call.method}",
                        message=(
                            f"blocking operation under the GC lock in "
                            f"{func.fn.qualname}: {reason}"
                        ),
                    )
                )


def _rule_decide_purity(prog: Program, findings: List[Finding]) -> None:
    """REPRO003: mutation of tracked shared state reachable from decide()."""
    for func in list(prog.funcs.values()):
        if func.cls is None or func.fn.name != "decide":
            continue
        if "apply" not in func.cls.methods:
            continue
        visited: Set[Tuple[str, str]] = set()
        frontier: List[Tuple[_Func, List[str]]] = [(func, [func.fn.qualname])]
        while frontier:
            current, trail = frontier.pop()
            if current.key in visited:
                continue
            visited.add(current.key)
            for call in current.fn.calls:
                types = prog.receiver_types(current, call.recv)
                for type_name in sorted(types):
                    mutators = TRACKED_MUTATORS.get(type_name)
                    if mutators and call.method in mutators:
                        findings.append(
                            Finding(
                                rule="REPRO003",
                                path=str(current.module.path),
                                line=call.line,
                                symbol=(
                                    f"{func.fn.qualname}:"
                                    f"{type_name}.{call.method}"
                                ),
                                message=(
                                    f"decide() must not mutate shared state: "
                                    f"{' -> '.join(trail)} calls "
                                    f"{type_name}.{call.method}() "
                                    f"(move it into apply())"
                                ),
                            )
                        )
                for callee in prog.resolve_call(current, call):
                    if callee.key not in visited:
                        frontier.append(
                            (callee, trail + [callee.fn.qualname])
                        )


def _rule_replica_delta_path(prog: Program, findings: List[Finding]) -> None:
    """REPRO008: replica apply paths must mutate only via the delta path.

    Entry points are ``apply*`` methods on classes whose name contains
    ``Replica``.  The traversal mirrors REPRO003's reachability walk but
    refuses to descend into :data:`REPLICA_DELTA_PATH` — replaying a frame
    through the sanctioned machinery is the *point*; any other reachable
    mutation of tracked shared state diverges the replica from the primary.
    """
    for func in list(prog.funcs.values()):
        if func.cls is None or "Replica" not in func.cls.name:
            continue
        if not func.fn.name.startswith("apply"):
            continue
        visited: Set[Tuple[str, str]] = set()
        frontier: List[Tuple[_Func, List[str]]] = [(func, [func.fn.qualname])]
        while frontier:
            current, trail = frontier.pop()
            if current.key in visited:
                continue
            visited.add(current.key)
            for call in current.fn.calls:
                types = prog.receiver_types(current, call.recv)
                for type_name in sorted(types):
                    mutators = TRACKED_MUTATORS.get(type_name)
                    if mutators and call.method in mutators:
                        findings.append(
                            Finding(
                                rule="REPRO008",
                                path=str(current.module.path),
                                line=call.line,
                                symbol=(
                                    f"{func.fn.qualname}:"
                                    f"{type_name}.{call.method}"
                                ),
                                message=(
                                    f"replica apply path mutates cache state "
                                    f"outside the delta path: "
                                    f"{' -> '.join(trail)} calls "
                                    f"{type_name}.{call.method}() "
                                    f"(replicas may only replay frames via "
                                    f"GraphCache.replay_frames / "
                                    f"MaintenanceEngine.replay)"
                                ),
                            )
                        )
                for callee in prog.resolve_call(current, call):
                    if callee.cls is not None and (
                        (callee.cls.name, callee.fn.name) in REPLICA_DELTA_PATH
                    ):
                        continue  # the sanctioned delta machinery
                    if callee.key not in visited:
                        frontier.append(
                            (callee, trail + [callee.fn.qualname])
                        )


def _rule_view_immutability(prog: Program, findings: List[Finding]) -> None:
    """REPRO004: mutating a pinned IndexView snapshot."""
    for func in prog.funcs.values():
        views = func.fn.view_vars
        if not views:
            continue
        for call in func.fn.calls:
            if (
                len(call.recv) == 1
                and call.recv[0] in views
                and call.method in VIEW_MUTATORS
            ):
                findings.append(
                    Finding(
                        rule="REPRO004",
                        path=str(func.module.path),
                        line=call.line,
                        symbol=f"{func.fn.qualname}:{call.recv[0]}.{call.method}",
                        message=(
                            f"mutating call {call.recv[0]}.{call.method}() on a "
                            f"pinned IndexView snapshot in {func.fn.qualname}; "
                            f"views are immutable — mutate through "
                            f"QueryGraphIndex.batch()"
                        ),
                    )
                )
        for write in func.fn.attr_writes:
            if write.recv and write.recv[0] in views:
                findings.append(
                    Finding(
                        rule="REPRO004",
                        path=str(func.module.path),
                        line=write.line,
                        symbol=f"{func.fn.qualname}:{write.recv[0]}.{write.attr}=",
                        message=(
                            f"attribute write {'.'.join(write.recv)}."
                            f"{write.attr} on a pinned IndexView snapshot in "
                            f"{func.fn.qualname}; views are immutable"
                        ),
                    )
                )


def _rule_packed_immutability(prog: Program, findings: List[Finding]) -> None:
    """REPRO007: mutating a PackedGraph or writing through its arena views."""
    for func in prog.funcs.values():
        packed = func.fn.packed_vars
        if not packed:
            continue
        for call in func.fn.calls:
            if (
                call.recv
                and call.recv[0] in packed
                and call.method in PACKED_MUTATORS
            ):
                findings.append(
                    Finding(
                        rule="REPRO007",
                        path=str(func.module.path),
                        line=call.line,
                        symbol=f"{func.fn.qualname}:{'.'.join(call.recv)}.{call.method}",
                        message=(
                            f"in-place numpy mutator {'.'.join(call.recv)}."
                            f"{call.method}() on a PackedGraph in "
                            f"{func.fn.qualname}; packed graphs may alias a "
                            f"read-only arena mmap — rebuild via "
                            f"Graph.to_packed() instead"
                        ),
                    )
                )
        for write in func.fn.attr_writes:
            if write.recv and write.recv[0] in packed:
                findings.append(
                    Finding(
                        rule="REPRO007",
                        path=str(func.module.path),
                        line=write.line,
                        symbol=f"{func.fn.qualname}:{'.'.join(write.recv)}.{write.attr}=",
                        message=(
                            f"write {'.'.join(write.recv)}.{write.attr} on a "
                            f"PackedGraph in {func.fn.qualname}; packed graphs "
                            f"are frozen and may alias a read-only arena mmap "
                            f"shared across processes"
                        ),
                    )
                )


def _rule_store_lock(prog: Program, findings: List[Finding]) -> None:
    """REPRO006: self._backend calls outside the owning store's lock."""
    for func in prog.funcs.values():
        cls = func.cls
        if cls is None:
            continue
        decl = cls.attr_locks.get("_lock")
        if decl is None or "_backend" not in cls.attr_names:
            continue
        if func.fn.name == "__init__":
            continue  # construction is single-threaded by contract
        for call in func.fn.calls:
            if call.recv != ("self", "_backend"):
                continue
            if decl.name in call.held or decl.name in func.fn.holds:
                continue
            findings.append(
                Finding(
                    rule="REPRO006",
                    path=str(func.module.path),
                    line=call.line,
                    symbol=f"{func.fn.qualname}:_backend.{call.method}",
                    message=(
                        f"self._backend.{call.method}() outside the store lock "
                        f"'{decl.name}' in {func.fn.qualname}; compound store "
                        f"access must run under self._lock"
                    ),
                )
            )


def run_rules(modules: Iterable[ModuleModel]) -> List[Finding]:
    """All REPRO findings over the given modules (unsuppressed, unsorted)."""
    prog = Program.build(modules)
    findings: List[Finding] = []
    _rule_locks(prog, findings)
    _rule_blocking(prog, findings)
    _rule_decide_purity(prog, findings)
    _rule_replica_delta_path(prog, findings)
    _rule_view_immutability(prog, findings)
    _rule_packed_immutability(prog, findings)
    _rule_store_lock(prog, findings)
    return findings
