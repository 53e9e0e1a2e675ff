#!/usr/bin/env python3
"""Project-specific AST lint for the repro package (stdlib-only).

Rules (each failure prints ``path:line: RULE message`` and exits 1):

* **OBS-IMPORT** — observability modules must not import engine, planner
  or evaluation modules (``repro.engine``, ``repro.planner``,
  ``repro.pgq``, ``repro.matching``).  The observability layer is a leaf:
  engines import it, never the reverse, so tracing can never deadlock or
  recurse into the machinery it instruments.
* **SNAPSHOT-MUTATION** — no attribute assignment on a ``Snapshot``
  object outside ``engine/database.py``.  Snapshots are immutable by
  contract (their fingerprint is computed once); only the module that
  defines them may touch their internals.
* **ALL-EXPORTS** — every name in a module's ``__all__`` must be defined
  (or imported) at the module's top level.
* **UNDEFINED-NAME** — a name read somewhere in a module that the module
  binds nowhere (no assignment, definition, parameter, import, ``for`` /
  ``with`` / ``except`` / comprehension target, ``global`` or
  ``nonlocal``, in any scope) and that is not a builtin: a ``NameError``
  waiting for the line to run, typically left behind when code moves
  between modules.  Conservative — a name bound in *some* scope passes —
  and off in a module with a star import.
* **UNUSED-IMPORT** — a module-level import never referenced in the file
  (``__init__.py`` re-export surfaces and ``if TYPE_CHECKING:`` blocks
  are exempt; names listed in ``__all__`` count as used).
* **IS-LITERAL** (ruff F632) — ``is`` / ``is not`` against a literal
  (a number, string, bytes or a tuple of them): identity of a literal is
  an interpreter accident, so the comparison meant ``==`` / ``!=``.
  ``None``, ``True``, ``False`` and ``...`` are singletons and pass.
* **REDEFINED-UNUSED** (ruff F811) — an import, ``def`` or ``class``
  rebound by another import, ``def`` or ``class`` in the same block of
  the same scope with no read of the name in between: the first one is
  dead, typically a duplicated method or a shadowed import.  A
  ``typing.overload`` stub and the name ``_`` are exempt; a read
  anywhere in between, even inside a function body, counts.
* **READ-BEFORE-ASSIGNMENT** (ruff F823) — inside a function, a read of
  a name that the module binds at top level, before the function's own
  first binding of it: the binding makes the name local throughout the
  function, so the read raises ``UnboundLocalError`` instead of seeing
  the module's value.  Nested function, lambda and class bodies are left
  to their own scopes.
* **MUTABLE-DEFAULT** — a function parameter default that is a list,
  dict or set literal (shared across calls; use ``None`` + guard).
* **PRINT-CALL** — ``print()`` inside ``src/repro`` (library code
  reports through return values, exceptions, logging or the tracer).
* **BARE-BROAD-EXCEPT** — inside ``src/repro/engine``, an ``except:``,
  ``except Exception:`` or ``except BaseException:`` handler that does
  not re-raise.  The engine layer hosts the governance machinery; a
  handler that swallows everything also swallows deadline/cancellation
  errors and turns a stopped query into a silently wrong one.  Catch
  the narrow exception (``sqlite3.Error``, ``GovernanceError``, ...) or
  re-raise after cleanup.
* **FACTORY-CATCH-ALL** — inside ``src/repro/engine``, a
  ``make_*_engine`` factory that declares a ``**`` catch-all parameter.
  ``create_engine`` rejects options a factory's signature does not name;
  a catch-all opts out of that check, so a removed or misspelled engine
  option would silently do nothing again.
* **RESULT-ORDER** — inside ``src/repro/engine`` and
  ``src/repro/planner``, a ``sorted(..., key=repr)`` / ``.sort(key=repr)``
  anywhere but ``result_order`` in ``engine/result.py``.  The result
  order (ascending ``repr(row)``) is owned by that one function; the
  planned engine produces it structurally, so a second repr sort on the
  way to a cursor is a per-result cost the hot path was rid of.
* **SERVICE-LAYERING** — no module inside ``src/repro`` outside
  ``src/repro/service`` may import ``repro.service``.  The service is
  the topmost layer: it may import engine, governance and observability,
  but the library underneath must stay servable without it (and the
  top-level ``repro`` package must not re-export it), so an inverted
  import can never make a query path depend on the HTTP stack.
* **LAYERING** — a package of ``_LAYERS`` must not import the packages
  built on top of it, lazily or not.  ``repro.logic`` is listed so the
  FO[TC] oracle stays independent of the translations and engines whose
  answers it checks.
* **LOCK-DISCIPLINE** — inside ``src/repro``, (a) a module-level mutable
  container (list/dict/set/OrderedDict/...) mutated from inside a
  function outside a ``with <...lock...>:`` block, and (b) in
  ``engine/snapshot_cache.py``, the snapshot-cache internals
  (``self._entries`` / ``self._building`` / ``self._pins``)
  touched outside the cache lock.  Module globals
  are process-shared: connections run queries from arbitrary threads, so
  an unguarded ``G[k] = v`` is a data race even when every current
  caller happens to hold a lock upstream.  Functions whose name ends in
  ``_locked`` are exempt (the suffix is the project's caller-holds-the-
  lock convention), as is module top-level code (imports run once under
  the import lock).
* **SIZE-BUDGET** — the line counts (``wc -l``) of ``src/`` against the
  checked-in ``tools/size_budget.json``: its ``total`` for all of
  ``src/**/*.py`` and a ceiling in ``modules`` for every module of 500 lines
  or more.  A module (or the total) over its ceiling is a finding, as is a
  module of 500 lines or more without one; so is a ceiling more than 20
  lines above what it bounds, or one whose module is gone — a stale budget,
  lowered by hand in the change that shrank the code.  Code may move
  between modules as long as each stays within its ceiling (or under 500
  lines) and the total holds.

Run as ``python tools/lint_repro.py`` (lints ``src/repro`` and ``tests``
and checks the size budget) or with explicit file/directory arguments
(lints those only).
"""

from __future__ import annotations

import ast
import builtins
import json
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Module prefixes the observability layer must not import.
_ENGINE_PREFIXES = ("repro.engine", "repro.planner", "repro.pgq", "repro.matching")

#: LAYERING: package -> the packages built on top of it, which it must not import.
_LAYERS = {
    "repro.graph": (
        "repro.pgq", "repro.planner", "repro.engine", "repro.matching", "repro.sqlpgq"
    ),
    "repro.pgq": ("repro.planner", "repro.engine"),
    # The FO[TC] oracle stays independent of everything it judges.
    "repro.logic": (
        "repro.pgq", "repro.planner", "repro.engine", "repro.matching", "repro.sqlpgq",
        "repro.translations", "repro.graph",
    ),
}

#: SIZE-BUDGET: modules from this many lines up need a ceiling, and a
#: ceiling (or the total) may sit at most ``_BUDGET_SLACK`` lines above.
_BUDGET_FLOOR = 500
_BUDGET_SLACK = 20

#: The only module allowed to mutate Snapshot internals.
_SNAPSHOT_OWNER = "database.py"

#: UNDEFINED-NAME: what a module may read without binding it.
_PREDEFINED = frozenset(dir(builtins)) | {"__file__", "__path__", "__builtins__", "__class__"}

Finding = Tuple[Path, int, str, str]


def _module_names(node: ast.stmt) -> Iterator[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        yield node.module


def _is_type_checking_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _terminal_name(expr: ast.expr) -> str:
    """The trailing identifier of a Name/Attribute chain (else '')."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _all_entries(tree: ast.Module) -> List[Tuple[str, int]]:
    entries: List[Tuple[str, int]] = []
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            entries.append((element.value, element.lineno))
    return entries


def _top_level_definitions(tree: ast.Module) -> set:
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            defined.add(element.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                defined.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    return set()  # star import: cannot check statically
                defined.add(alias.asname or alias.name)
        elif isinstance(node, ast.If):  # TYPE_CHECKING / version guards
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        defined.add((alias.asname or alias.name).split(".")[0])
    return defined


def _bound_names(tree: ast.Module) -> set:
    """Every name the module binds, in any scope (``"*"`` for a star import)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            bound.add(node.rest)
    return bound


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # "repro.engine.connection" used as an attribute chain roots at
            # the Name node, already collected above.
            pass
    return used


#: Attribute method calls that mutate their receiver in place.
_MUTATING_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

#: Constructors whose result is a shared mutable container.
_MUTABLE_FACTORIES = {
    "OrderedDict",
    "Counter",
    "WeakKeyDictionary",
    "WeakSet",
    "WeakValueDictionary",
    "defaultdict",
    "deque",
    "dict",
    "list",
    "set",
}

#: SnapshotCache internals: cross-connection shared state that must only
#: be touched under the cache lock (``self._stats`` reads ride along with
#: entry bookkeeping, so it is held to the same discipline).
_CACHE_INTERNALS = {"_entries", "_building", "_pins"}


def _module_mutable_globals(tree: ast.Module) -> set:
    """Module-level names bound to a mutable container literal/factory."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if not isinstance(target, ast.Name) or target.id.startswith("__"):
            continue
        if isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            names.add(target.id)
        elif isinstance(value, ast.Call) and _terminal_name(value.func) in (
            _MUTABLE_FACTORIES
        ):
            names.add(target.id)
    return names


def _lock_guarded_with(node: ast.With) -> bool:
    """True when any context manager of the ``with`` looks like a lock."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        if "lock" in _terminal_name(expr).lower():
            return True
    return False


def _local_bindings(function: ast.AST) -> set:
    """Names the function binds locally (params, assignments, loops)."""
    bound = set()
    args = function.args
    for arg in (
        args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    ):
        if arg is not None:
            bound.add(arg.arg)
    for node in ast.walk(function):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets = [node.optional_vars]
        for target in targets:
            bound.update(_binding_names(target))
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.difference_update(node.names)
    return bound


def _binding_names(target: ast.expr) -> Iterator[str]:
    """Plain names a target binds — ``x``, ``(x, y)``; NOT the receiver
    of a subscript/attribute target (``G[k] = v`` binds nothing)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _binding_names(element)


def _mutated_receiver(node: ast.AST) -> Tuple[str, ast.expr]:
    """``(verb, receiver expr)`` when ``node`` mutates a container in
    place, else ``("", node)``: subscript assignment/deletion, augmented
    subscript assignment, or a mutating method call."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = node.targets
    for target in targets:
        if isinstance(target, ast.Subscript):
            return "assigns into", target.value
    if (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in _MUTATING_METHODS
    ):
        return f"calls .{node.value.func.attr}() on", node.value.func.value
    return "", ast.Constant(value=None)


def _check_lock_discipline(path: Path, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    mutable_globals = _module_mutable_globals(tree)
    # The snapshot cache lives in engine/snapshot_cache.py; ``_entries``
    # etc. elsewhere (e.g. per-run profile collectors) are private state.
    cache_owner = path.resolve().as_posix().endswith("/engine/snapshot_cache.py")

    def scan(body: List[ast.stmt], locals_: set, guarded: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.endswith("_locked"):
                    scan(node.body, locals_ | _local_bindings(node), guarded=False)
                continue
            if isinstance(node, ast.With):
                scan(node.body, locals_, guarded or _lock_guarded_with(node))
                continue
            verb, receiver = _mutated_receiver(node)
            if verb and not guarded:
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in mutable_globals
                    and receiver.id not in locals_
                ):
                    findings.append(
                        (
                            path,
                            node.lineno,
                            "LOCK-DISCIPLINE",
                            f"{verb} module-level mutable {receiver.id!r} "
                            "outside a lock-guarded with block (module "
                            "globals are process-shared across query "
                            "threads)",
                        )
                    )
                elif (
                    cache_owner
                    and isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                    and receiver.attr in _CACHE_INTERNALS
                ):
                    findings.append(
                        (
                            path,
                            node.lineno,
                            "LOCK-DISCIPLINE",
                            f"{verb} snapshot-cache internal "
                            f"self.{receiver.attr} outside the cache lock",
                        )
                    )
            # Recurse into nested compound statements (if/for/try/...):
            # the guard state carries through — a lock taken outside a
            # loop still guards the loop body.
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(node, field, None)
                if nested:
                    scan(nested, locals_, guarded)
            for handler in getattr(node, "handlers", []) or []:
                scan(handler.body, locals_, guarded)

    # Only function bodies race: module top-level runs once, under the
    # import lock.  Class bodies are walked to reach their methods.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.endswith("_locked"):
                scan(node.body, _local_bindings(node), guarded=False)
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not member.name.endswith("_locked"):
                        scan(member.body, _local_bindings(member), guarded=False)
    return findings


def _is_repr_sort(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and (_terminal_name(node.func) in ("sorted", "sort"))
        and any(
            keyword.arg == "key"
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id == "repr"
            for keyword in node.keywords
        )
    )


def _is_literal(node: ast.expr) -> bool:
    """A literal whose identity is not guaranteed (IS-LITERAL)."""
    if isinstance(node, ast.Tuple):
        return all(_is_literal(element) for element in node.elts)
    return isinstance(node, ast.Constant) and not any(
        node.value is singleton for singleton in (None, True, False, ...)
    )


def _check_is_literal(path: Path, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for left, op, right in zip(operands, node.ops, operands[1:]):
            if isinstance(op, (ast.Is, ast.IsNot)) and (_is_literal(left) or _is_literal(right)):
                verb = "is" if isinstance(op, ast.Is) else "is not"
                message = f"'{verb}' compares identity with a literal; use '==' / '!='"
                findings.append((path, node.lineno, "IS-LITERAL", message))
    return findings


def _definition_names(node: ast.AST) -> List[str]:
    """The names an import, ``def`` or ``class`` statement binds, else []."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [
            (alias.asname or alias.name).split(".")[0] for alias in node.names if alias.name != "*"
        ]
    return []


def _is_overload(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        _terminal_name(decorator) == "overload" for decorator in node.decorator_list
    )


def _check_redefinitions(path: Path, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        unused = {}  # name -> the definition statement nothing has read since
        for statement in scope.body:
            for sub in ast.walk(statement):
                if isinstance(sub, ast.Name):
                    unused.pop(sub.id, None)  # a read, or a plain rebinding
            for name in _definition_names(statement):
                earlier = unused.get(name)
                if earlier is not None and name != "_" and not _is_overload(earlier):
                    message = (
                        f"{name!r} redefines the unused one of line {earlier.lineno}; "
                        "delete the dead definition or rename one"
                    )
                    findings.append((path, statement.lineno, "REDEFINED-UNUSED", message))
                unused[name] = statement
    return findings


def _scope_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """The nodes under ``node`` that run in its scope: nested function,
    lambda and class bodies are skipped (their defining statement kept),
    and so are the names a comprehension binds for itself."""
    for child in ast.iter_child_nodes(node):
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        nodes = _scope_nodes(child)
        if isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            own = {
                name.id
                for generator in child.generators
                for name in ast.walk(generator.target)
                if isinstance(name, ast.Name)
            }
            nodes = (sub for sub in nodes if not (isinstance(sub, ast.Name) and sub.id in own))
        yield from nodes


def _check_read_before_assignment(path: Path, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    module_names = _top_level_definitions(tree)
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = [sub for statement in function.body for sub in (statement, *_scope_nodes(statement))]
        # Parameters are bound on entry; global / nonlocal names are not local.
        exempt = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
        bound_at = {}  # id(Name) -> where it binds, for targets bound after their value
        first_binding = {}
        reads = []
        for node in nodes:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                end = (node.end_lineno, node.end_col_offset)
                for target in targets:
                    bound_at.update((id(name), end) for name in ast.walk(target))
                if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                    reads.append(node.target)  # ``x += 1`` reads ``x`` first
            names = _definition_names(node)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append(node)
            for name in names:
                at = bound_at.get(id(node), (node.lineno, node.col_offset))
                first_binding[name] = min(first_binding.get(name, at), at)
        reported = set()
        for read in reads:
            name = read.id
            at = first_binding.get(name)
            if (
                at is not None
                and (read.lineno, read.col_offset) < at
                and name in module_names
                and name not in exempt
                and name not in reported
            ):
                reported.add(name)
                message = (
                    f"{name!r} is read before {function.name}() assigns it (line {at[0]}), "
                    "which makes it local: the read raises UnboundLocalError"
                )
                findings.append((path, read.lineno, "READ-BEFORE-ASSIGNMENT", message))
    return findings


def check_file(
    path: Path,
    *,
    observability: bool,
    in_src: bool,
    in_engine: bool = False,
    in_service: bool = False,
    in_planner: bool = False,
    package: str = "",
) -> List[Finding]:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:  # pragma: no cover - lint target must parse
        return [(path, error.lineno or 0, "PARSE", str(error))]

    findings: List[Finding] = []

    # OBS-IMPORT: the observability layer never imports the machinery it
    # instruments (lazy imports inside functions are violations too).
    if observability:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _module_names(node):
                    if name.startswith(_ENGINE_PREFIXES):
                        findings.append(
                            (
                                path,
                                node.lineno,
                                "OBS-IMPORT",
                                f"observability module imports {name}; the "
                                "observability layer must stay a leaf",
                            )
                        )

    # SERVICE-LAYERING: the service is the top of the stack; the library
    # underneath never imports it (lazy imports inside functions are
    # violations too).
    if in_src and not in_service:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _module_names(node):
                    if name == "repro.service" or name.startswith("repro.service."):
                        findings.append(
                            (
                                path,
                                node.lineno,
                                "SERVICE-LAYERING",
                                f"library module imports {name}; repro.service "
                                "is the topmost layer — nothing inside repro "
                                "may import it back",
                            )
                        )

    # LAYERING: a package never imports the packages built on top of it.
    above = _LAYERS.get(package, ())
    for node in ast.walk(tree) if above else ():
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _module_names(node):
                if any(name == layer or name.startswith(layer + ".") for layer in above):
                    findings.append(
                        (
                            path,
                            node.lineno,
                            "LAYERING",
                            f"{package} module imports {name}; {package} sits "
                            "below it and must not depend on it",
                        )
                    )

    # SNAPSHOT-MUTATION: snapshots are immutable outside their module.
    if in_src and path.name != _SNAPSHOT_OWNER:
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and _terminal_name(
                    target.value
                ) in ("snapshot", "_snapshot", "_snapshot_obj"):
                    findings.append(
                        (
                            path,
                            node.lineno,
                            "SNAPSHOT-MUTATION",
                            f"assignment to {ast.unparse(target)}: snapshots "
                            "are immutable outside engine/database.py",
                        )
                    )

    # ALL-EXPORTS: __all__ names must exist.
    entries = _all_entries(tree)
    if entries:
        defined = _top_level_definitions(tree)
        if defined:  # empty set signals a star import; skip the check
            for name, lineno in entries:
                if name not in defined:
                    findings.append(
                        (
                            path,
                            lineno,
                            "ALL-EXPORTS",
                            f"__all__ lists {name!r} which the module does "
                            "not define or import",
                        )
                    )

    # UNDEFINED-NAME: every name read is bound somewhere in the module.
    bound = _bound_names(tree)
    if "*" not in bound:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in bound
                and node.id not in _PREDEFINED
            ):
                findings.append(
                    (
                        path,
                        node.lineno,
                        "UNDEFINED-NAME",
                        f"{node.id!r} is bound nowhere in the module and is not "
                        "a builtin",
                    )
                )

    # UNUSED-IMPORT: module-level imports must be referenced somewhere.
    if path.name != "__init__.py":
        used = _used_names(tree)
        exported = {name for name, _ in entries}
        for node in tree.body:
            if isinstance(node, ast.Import):
                aliases = [
                    (alias.asname or alias.name.split(".")[0], alias.name)
                    for alias in node.names
                ]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                aliases = [
                    (alias.asname or alias.name, alias.name)
                    for alias in node.names
                    if alias.name != "*"
                ]
            else:
                continue
            for bound, original in aliases:
                if bound not in used and bound not in exported:
                    findings.append(
                        (
                            path,
                            node.lineno,
                            "UNUSED-IMPORT",
                            f"{original!r} is imported but never used",
                        )
                    )

    # IS-LITERAL, REDEFINED-UNUSED, READ-BEFORE-ASSIGNMENT: the pyflakes
    # rules of CI's ruff selection, checked here too.
    findings.extend(_check_is_literal(path, tree))
    findings.extend(_check_redefinitions(path, tree))
    findings.extend(_check_read_before_assignment(path, tree))

    # MUTABLE-DEFAULT: shared mutable default arguments.
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                ):
                    findings.append(
                        (
                            path,
                            default.lineno,
                            "MUTABLE-DEFAULT",
                            f"function {node.name!r} has a mutable default "
                            "argument (shared across calls)",
                        )
                    )

    # BARE-BROAD-EXCEPT: the engine layer must not swallow arbitrary
    # exceptions — that also swallows governance aborts.  A broad handler
    # that re-raises (cleanup-then-propagate) is fine.
    if in_engine:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")
            )
            if not broad:
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue
            caught = "bare except" if node.type is None else f"except {node.type.id}"
            findings.append(
                (
                    path,
                    node.lineno,
                    "BARE-BROAD-EXCEPT",
                    f"{caught} without re-raise in the engine layer; this "
                    "swallows governance aborts — catch the narrow "
                    "exception or re-raise after cleanup",
                )
            )

    # RESULT-ORDER: one function sorts rows into the result order.
    if in_engine or in_planner:
        owned = set()
        if path.resolve().as_posix().endswith("/engine/result.py"):
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "result_order":
                    owned = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if _is_repr_sort(node) and id(node) not in owned:
                findings.append(
                    (
                        path,
                        node.lineno,
                        "RESULT-ORDER",
                        "key=repr sort outside engine/result.py::result_order; "
                        "hand rows to the cursor unordered (it sorts once) or "
                        "produce the order structurally",
                    )
                )

    # FACTORY-CATCH-ALL: built-in engine factories name every option.
    if in_engine:
        for node in tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("make_")
                and node.name.endswith("_engine")
                and node.args.kwarg is not None
            ):
                findings.append(
                    (
                        path,
                        node.lineno,
                        "FACTORY-CATCH-ALL",
                        f"engine factory {node.name!r} takes **{node.args.kwarg.arg}; "
                        "name each accepted option so create_engine can "
                        "reject unknown ones",
                    )
                )

    # LOCK-DISCIPLINE: shared mutable state is mutated under a lock.
    if in_src:
        findings.extend(_check_lock_discipline(path, tree))

    # PRINT-CALL: no print() in library code.
    if in_src:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                findings.append(
                    (
                        path,
                        node.lineno,
                        "PRINT-CALL",
                        "print() in library code; report through return "
                        "values, exceptions, logging or the tracer",
                    )
                )

    return findings


def lint_paths(paths: List[Path], root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for base in paths:
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for file in files:
            relative = file.resolve().as_posix()
            findings.extend(
                check_file(
                    file,
                    observability="/observability/" in relative,
                    in_src="/src/repro/" in relative,
                    in_engine="/src/repro/engine/" in relative,
                    in_service="/src/repro/service/" in relative,
                    in_planner="/src/repro/planner/" in relative,
                    package=_package_of(relative),
                )
            )
    return findings


def check_size_budget(src: Path, budget_file: Path) -> List[Finding]:
    """SIZE-BUDGET findings of the ``*.py`` files under ``src`` against
    ``budget_file``, whose module keys are paths relative to ``src``'s
    parent (``src/repro/...``)."""
    budget = json.loads(budget_file.read_text())
    ceilings = dict(budget["modules"])
    findings: List[Finding] = []

    def judge(path: Path, what: str, lines: int, ceiling: int) -> None:
        if lines > ceiling:
            message = f"{what} has {lines} lines, over its ceiling of {ceiling}"
        elif ceiling - lines > _BUDGET_SLACK:
            message = (
                f"{what} has {lines} lines, {ceiling - lines} under its ceiling of "
                f"{ceiling}: lower the stale ceiling in {budget_file.name}"
            )
        else:
            return
        findings.append((path, 1, "SIZE-BUDGET", message))

    total = 0
    for file in sorted(src.rglob("*.py")):
        lines = file.read_text().count("\n")
        total += lines
        key = file.relative_to(src.parent).as_posix()
        if key in ceilings:
            judge(file, key, lines, ceilings.pop(key))
        elif lines >= _BUDGET_FLOOR:
            message = f"{key} has {lines} lines and no ceiling in {budget_file.name}"
            findings.append((file, 1, "SIZE-BUDGET", message))
    for key in ceilings:
        message = f"{budget_file.name} has a ceiling for {key}, which does not exist"
        findings.append((budget_file, 1, "SIZE-BUDGET", message))
    judge(budget_file, f"{src.name}/", total, budget["total"])
    return findings


def _package_of(relative: str) -> str:
    """``repro.<subpackage>`` of a file inside one under ``src/repro``, else ''."""
    _, inside, rest = relative.partition("/src/repro/")
    head, nested, _ = rest.partition("/")
    return f"repro.{head}" if inside and nested else ""


def main(argv: List[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    targets = [Path(arg) for arg in argv] if argv else [root / "src" / "repro", root / "tests"]
    findings = lint_paths(targets, root)
    if not argv:
        findings += check_size_budget(root / "src", root / "tools" / "size_budget.json")
    for path, lineno, rule, message in findings:
        try:
            shown = path.resolve().relative_to(root)
        except ValueError:
            shown = path
        print(f"{shown}:{lineno}: {rule} {message}")
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
