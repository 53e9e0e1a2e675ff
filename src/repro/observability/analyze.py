"""EXPLAIN ANALYZE support: per-operator execution profiles.

An :class:`ExecutionProfiler` is installed for the duration of one
statement execution (via :func:`activate_profiler`, a contextvar like the
tracer's) and the physical executor reports into it from
``PlanExecutor.execute``: inclusive wall time, rows produced and memo
hits per plan node.  After the run,
:meth:`ExecutionProfiler.plan_trees` reassembles the recorded figures
into :class:`OperatorStats` trees by walking the plan's own
``children()`` structure — the profiler never imports the planner, so
the observability package stays dependency-free.

Engines without a physical plan (the naive oracle, the SQLite
translation) still produce a profile: the connection adds lifecycle
*stage* operators (parse, compile, execute, decode) around whatever the
engine reports, so ``Connection.explain_analyze`` renders a tree with
wall times and row counts on every backend.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional


@dataclass
class OperatorStats:
    """Execution figures for one operator (or lifecycle stage).

    ``wall_s`` is inclusive (children's time counted in the parent's),
    matching how nested operators actually spend their caller's budget;
    ``rows_out`` is ``None`` when the operator produced no row set this
    run (e.g. it was served from the executor memo).
    """

    label: str
    wall_s: float = 0.0
    calls: int = 0
    rows_out: Optional[int] = None
    memo_hits: int = 0
    children: List["OperatorStats"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        """The profile subtree as indented text, one operator per line."""
        parts = [f"{'  ' * indent}{self.label}  ({self._figures()})"]
        parts.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(parts)

    def _figures(self) -> str:
        figures = [f"wall={self.wall_s * 1000:.3f}ms"]
        if self.rows_out is not None:
            figures.append(f"rows={self.rows_out}")
        if self.memo_hits:
            figures.append(f"memo_hits={self.memo_hits}")
        if self.calls != 1:
            figures.append(f"calls={self.calls}")
        return " ".join(figures)

    def find(self, label_part: str) -> Optional["OperatorStats"]:
        """Depth-first search for the first operator whose label contains
        ``label_part`` (test/assertion convenience)."""
        if label_part in self.label:
            return self
        for child in self.children:
            found = child.find(label_part)
            if found is not None:
                return found
        return None

    def __str__(self) -> str:
        return self.render()


class ExecutionProfiler:
    """Collects per-plan-node execution figures during one statement run.

    The executor calls :meth:`record` / :meth:`memo_hit` with the plan
    node itself; nodes are keyed by equality (plan nodes are frozen
    dataclasses over atomic constants, and repeated executions of one
    node must accumulate).  :meth:`add_root` marks the bound root plan(s)
    the run executed so :meth:`plan_trees` knows where to start walking.
    """

    def __init__(self):
        self._entries: Dict[Hashable, OperatorStats] = {}
        self._roots: List[Any] = []
        self._labeler: Optional[Any] = None

    def use_labeler(self, label_fn: Any) -> None:
        """Install a fallback ``node -> label`` renderer for plan nodes the
        run never executed (subtrees behind a memo hit still render with
        their operator labels instead of bare class names)."""
        self._labeler = label_fn

    def _entry(self, node: Any, label: str) -> OperatorStats:
        entry = self._entries.get(node)
        if entry is None:
            entry = self._entries[node] = OperatorStats(label=label)
        return entry

    def record(self, node: Any, label: str, wall_s: float, rows_out: int) -> None:
        """One execution of ``node``: inclusive wall time and rows produced."""
        entry = self._entry(node, label)
        entry.calls += 1
        entry.wall_s += wall_s
        entry.rows_out = rows_out if entry.rows_out is None else entry.rows_out + rows_out

    def memo_hit(self, node: Any, label: str) -> None:
        """The executor served ``node`` from its per-run memo."""
        self._entry(node, label).memo_hits += 1

    def add_root(self, node: Any) -> None:
        """Mark a bound root plan executed by this run."""
        if all(existing is not node for existing in self._roots):
            self._roots.append(node)

    def plan_trees(self) -> List[OperatorStats]:
        """The recorded figures as operator trees, one per executed root.

        Walks each root plan's ``children()`` structure (duck-typed; any
        object without ``children`` is a leaf) and deep-copies the
        recorded stats into a detached tree, so the profile survives the
        profiler's reuse.
        """
        return [self._subtree(root) for root in self._roots]

    def _subtree(self, node: Any) -> OperatorStats:
        entry = self._entries.get(node)
        if entry is None:
            label = None
            if self._labeler is not None:
                try:
                    label = self._labeler(node)
                except Exception:
                    label = None
            stats = OperatorStats(label=label or type(node).__name__)
        else:
            stats = OperatorStats(
                label=entry.label,
                wall_s=entry.wall_s,
                calls=entry.calls,
                rows_out=entry.rows_out,
                memo_hits=entry.memo_hits,
            )
        children = getattr(node, "children", None)
        if children is not None:
            stats.children = [self._subtree(child) for child in children()]
        return stats


#: The ambient profiler the physical executor reports into (None = off).
_ACTIVE_PROFILER: "ContextVar[Optional[ExecutionProfiler]]" = ContextVar(
    "repro_active_profiler", default=None
)


def active_profiler() -> Optional[ExecutionProfiler]:
    """The profiler installed for the current context, if any."""
    return _ACTIVE_PROFILER.get()


def activate_profiler(profiler: ExecutionProfiler):
    """Install ``profiler`` as the ambient profiler; returns a reset token."""
    return _ACTIVE_PROFILER.set(profiler)


def deactivate_profiler(token) -> None:
    """Restore the ambient profiler saved in ``token``."""
    _ACTIVE_PROFILER.reset(token)
