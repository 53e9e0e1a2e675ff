"""Query parameters: the :class:`Parameter` slot sentinel and binding helpers.

A :class:`Parameter` stands for a literal that is supplied at *execution*
time rather than at *preparation* time.  It can appear anywhere a constant
may: in pattern conditions (``PropertyCompare(x, "amount", ">",
Parameter("minimum"))``), in relational selection conditions
(``ColumnCompareConstant(3, ">", Parameter("minimum"))``) and in
``Constant`` query nodes.  Condition trees built over parameter slots are
*parameterized shapes*: they hash and compare structurally, so a plan
compiled (and cached) for one shape serves every binding of that shape —
this is what lets ``prepare(q).execute(a)`` and ``.execute(b)`` share one
plan compilation.

Bindings are plain ``{name: value}`` mappings.  Binding is performed by
the ``bind``/``bind_*`` family on conditions, patterns and queries (all
identity-preserving: a tree without slots is returned unchanged), and the
engines check for missing bindings up front so an unbound slot raises
:class:`~repro.errors.BindingError` instead of silently matching nothing.
As a second line of defence, *ordered* comparisons against an unbound
``Parameter`` raise :class:`BindingError` through the reflected operators
(equality stays structural — it is what makes parameterized shapes
hashable plan-cache keys).

Constants are atomic (:func:`is_atomic`): domain elements are not tuples,
lists, sets or dicts, and they hash.  Every constructor that holds a
constant checks it, and binding checks each bound value, so a tree that
was built or bound holds only atomic constants and hashes — every cache
keyed on query structure can take any tree as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Type

from repro.errors import BindingError

#: A parameter binding set: slot name -> literal value.
Bindings = Mapping[str, Any]

#: Types whose values are never domain elements, whether or not they hash.
_CONTAINERS = (tuple, list, set, dict)


def is_atomic(kind: type) -> bool:
    """Whether values of type ``kind`` are atomic domain elements: not a
    container, and hashable (a :class:`Parameter` slot is both)."""
    return not issubclass(kind, _CONTAINERS) and kind.__hash__ is not None


def require_atomic(value: Any, error: Type[Exception], what: str) -> None:
    """Raise ``error`` naming ``what`` unless ``value`` is atomic."""
    if not is_atomic(type(value)):
        raise error(f"{what} must be an atomic value, got {value!r}")


@dataclass(frozen=True)
class Parameter:
    """A named parameter slot standing in for a literal (``:name`` in SQL).

    Frozen and hashable so parameterized condition trees keep working as
    plan-cache keys; two occurrences of ``:minimum`` are equal, so the
    same statement re-prepared yields the same cached shape.
    """

    name: str

    def __repr__(self) -> str:
        return f":{self.name}"

    # Ordered comparisons must never silently succeed against an unbound
    # slot.  ``value < Parameter`` dispatches here through the reflected
    # operator, so the guard costs nothing on bound (concrete) constants.
    def _unbound(self, _other: Any):
        raise BindingError(
            f"parameter :{self.name} is unbound; bind it before evaluation "
            f"(e.g. prepared.execute({self.name}=...))"
        )

    __lt__ = __le__ = __gt__ = __ge__ = _unbound


def bind_value(value: Any, bindings: Bindings) -> Any:
    """Resolve ``value`` against ``bindings`` when it is a parameter slot;
    a bound value that is not atomic raises :class:`BindingError`."""
    if isinstance(value, Parameter):
        try:
            bound = bindings[value.name]
        except KeyError:
            raise BindingError(f"no binding supplied for parameter :{value.name}") from None
        require_atomic(bound, BindingError, f"parameter :{value.name}")
        return bound
    return value


def merge_bindings(bindings: "Bindings | None", named: Bindings) -> dict:
    """Merge a bindings mapping with keyword bindings (keywords win).

    The single precedence rule shared by every ``execute`` surface
    (prepared statements, compiled queries, the SQLite backend).
    """
    merged = dict(bindings) if bindings else {}
    if named:
        merged.update(named)
    return merged


def missing_parameters(names: Iterable[str], bindings: Bindings) -> List[str]:
    """Parameter names without a binding, sorted (empty when fully bound)."""
    return sorted(name for name in names if name not in bindings)


def require_bindings(names: Iterable[str], bindings: Bindings) -> None:
    """Raise :class:`BindingError` naming every missing parameter, or the
    first one bound to a value that is not atomic."""
    names = tuple(names)
    missing = missing_parameters(names, bindings)
    if missing:
        slots = ", ".join(f":{name}" for name in missing)
        raise BindingError(f"missing bindings for parameters {slots}")
    _require_atomic_bindings(names, bindings)


def _require_atomic_bindings(names: Iterable[str], bindings: Bindings) -> None:
    for name in names:
        require_atomic(bindings[name], BindingError, f"parameter :{name}")


def unknown_bindings(names: Iterable[str], bindings: Bindings) -> List[str]:
    """Binding names the statement declares no slot for, sorted."""
    declared = set(names)
    return sorted(name for name in bindings if name not in declared)


def check_bindings(names: Iterable[str], bindings: Bindings) -> None:
    """Validate a binding set against a statement's declared slots.

    Raises a single :class:`BindingError` that lists *every* problem at
    once — all missing slots and all unknown extras — so a caller fixing
    their bindings sees the complete picture in one round trip instead of
    one name per attempt.  A complete binding set then has each value
    checked atomic, so every engine refuses a container (or any unhashable
    value) before it evaluates anything.
    """
    names = tuple(names)
    missing = missing_parameters(names, bindings)
    unknown = unknown_bindings(names, bindings)
    if not missing and not unknown:
        _require_atomic_bindings(names, bindings)
        return
    problems = []
    if missing:
        slots = ", ".join(f":{name}" for name in missing)
        problems.append(f"missing bindings for parameters {slots}")
    if unknown:
        slots = ", ".join(f":{name}" for name in unknown)
        declared = ", ".join(f":{name}" for name in sorted(names)) or "none"
        problems.append(f"unknown parameters {slots} (declared: {declared})")
    raise BindingError("; ".join(problems))
