"""Structured pass/fail reports for identity checks.

Every check produces a CheckReport: a list of items, one per verified law,
each carrying the symbolic defect that was tested for vanishing.  A report
passes exactly when every item does, so a report is a certificate that can be
rendered for humans or inspected programmatically.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .forms import _sort_tuple

__all__ = ["CheckItem", "CheckReport"]


@dataclass
class CheckItem:
    """One verified identity: the law name and its computed defect."""

    law: str
    passed: bool
    defect: Any = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] {self.law}"
        if self.detail:
            out += f"  ({self.detail})"
        if not self.passed and self.defect is not None:
            out += f"\n       defect: {self.defect}"
        return out


@dataclass
class CheckReport:
    """Aggregate of check items for one structure."""

    title: str
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, law: str, passed: bool, defect: Any = None, detail: str = "") -> None:
        self.items.append(CheckItem(law, passed, defect, detail))

    def add_zero(self, law: str, obj: Any, detail: str = "") -> None:
        """Record that obj must vanish; passes iff obj.is_zero."""
        self.add(law, bool(obj.is_zero), None if obj.is_zero else obj, detail)

    def extend(self, other: "CheckReport", prefix: str = "") -> None:
        """Append other's items, renamed with ``prefix`` if given and shared
        as they are otherwise (no CheckItem is modified), and its notes."""
        if prefix:
            self.items += [CheckItem(prefix + i.law, i.passed, i.defect, i.detail)
                           for i in other.items]
        else:
            self.items += other.items
        self.notes.extend(other.notes)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def failures(self) -> list[CheckItem]:
        return [i for i in self.items if not i.passed]

    def render_text(self) -> str:
        lines = [f"{self.title}: {self.verdict}"]
        lines += [item.line() for item in self.items]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)

    def render_table(self) -> str:
        width = max([len(i.law) for i in self.items] + [3])
        lines = [f"{self.title}: {self.verdict}",
                 f"{'law'.ljust(width)} | status | detail",
                 f"{'-' * width}-+--------+-------"]
        for i in self.items:
            status = "pass" if i.passed else "FAIL"
            lines.append(f"{i.law.ljust(width)} | {status.ljust(6)} | {i.detail}")
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render_text()


# Verdicts of the current scene run, keyed by the function and the identities
# of its arguments; None outside a run.
_verdicts: ContextVar[dict | None] = ContextVar("lnlab_verdicts", default=None)


@contextmanager
def _verification_run() -> Iterator[None]:
    """Open an empty store of verdicts for the enclosed checks, and drop it
    on every exit path, together with the index merges cached in
    ``forms._sort_tuple``, so that no entry outlives the run.  Library calls
    outside a run keep that cache: it is pure, and its size is bounded by
    the chart dimension (see the ``forms`` module docstring)."""
    token = _verdicts.set({})
    try:
        yield
    finally:
        _verdicts.reset(token)
        _sort_tuple.cache_clear()


def _once(fn: Callable, *args: Any) -> Any:
    """``fn(*args)``, computed at most once per function and argument objects
    within a scene run, and afresh outside one.  An exception is not stored,
    so the next call raises it again.  The value is shared: callers must not
    modify it."""
    store = _verdicts.get()
    if store is None:
        return fn(*args)
    key = (fn, *map(id, args))
    entry = store.get(key)
    if entry is None:
        # the entry keeps the arguments alive, so no id is reused in the run
        entry = store[key] = (args, fn(*args))
    return entry[1]
