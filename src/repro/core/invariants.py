"""Runtime invariant checking hooks.

Besides refinement, VYRD verified structural invariants at runtime (paper
section 7.2.1 checks two invariants of the Boxwood cache, e.g. "if a clean
cache entry exists for a handle, Cache and Chunk Manager must contain the
same byte-array").  Two kinds of invariant are evaluated at each commit
action:

* :class:`Invariant` -- a named predicate over the whole replayed
  implementation state and the current spec, re-evaluated at every commit.
* :class:`UnitInvariant` -- a conjunction of per-unit predicates (one per
  cache handle, array slot, ...).  Like an incremental view (paper section
  6.4), only the units written since the last commit, plus those shadowed by
  open commit blocks, are re-evaluated; the checker keeps the set of failing
  units, and the invariant fails iff that set is non-empty.

Invariant objects are immutable code shared by every checker built from the
same program; all incremental state lives in a :class:`UnitInvariantCache`
owned by one checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple

from .view import take_dirty


@dataclass(frozen=True)
class Invariant:
    """A named predicate ``check(state, spec) -> bool`` evaluated at commits.

    ``state`` is the effective (rollback-applied) replayed implementation
    state; ``spec`` is the specification instance at the same witness point.
    Returning ``False`` produces an INVARIANT violation.
    """

    name: str
    check: Callable[[Any, Any], bool]

    def holds(self, state, spec) -> bool:
        return bool(self.check(state, spec))


@dataclass(frozen=True)
class UnitInvariant:
    """An invariant that holds iff ``holds_unit`` holds for every unit.

    ``unit_of(loc)`` maps a location to its unit (``None``: outside every
    unit).  ``holds_unit(state, unit, locs)`` decides one unit; ``locs`` are
    the unit's locations (every one ever written, some possibly absent from
    ``state`` now).  Contract: ``unit_of`` must map every location the
    predicate reads for a unit to that unit, or a write to it would not make
    the unit be re-evaluated (the checker's end-of-log drift guard reports
    such a gap).
    """

    name: str
    unit_of: Callable[[str], Optional[Hashable]]
    holds_unit: Callable[[Any, Hashable, Iterable[str]], bool]

    def failing_units(self, state) -> set:
        """From-scratch evaluation of every unit present in ``state``."""
        locs_of: Dict[Hashable, set] = {}
        for loc in state:
            unit = self.unit_of(loc)
            if unit is not None:
                locs_of.setdefault(unit, set()).add(loc)
        return {
            unit for unit, locs in locs_of.items()
            if not self.holds_unit(state, unit, locs)
        }


_UNSEEN = object()


class UnitInvariantCache:
    """One checker's incremental state for the unit invariants of one ``unit_of``.

    Keeps the dirty units (by :func:`~repro.core.view.take_dirty`, the rule
    :class:`~repro.core.view.ContributionView` uses), a unit -> locations index
    filled from :meth:`on_write`, and one set of failing units per invariant.
    """

    def __init__(self, unit_of: Callable[[str], Optional[Hashable]],
                 invariants: Sequence[Tuple[UnitInvariant, set]]):
        #: (invariant, its failing units) pairs; the sets are updated in place
        self.invariants = tuple(invariants)
        self._unit_of = unit_of
        self._dirty: set = set()
        self._unit_at: Dict[str, Optional[Hashable]] = {}  # memo of unit_of
        self._locs: Dict[Hashable, set] = {}
        #: units re-evaluated by the most recent refresh (observability)
        self.last_rechecked = 0

    def on_write(self, loc: str) -> None:
        unit = self._unit_at.get(loc, _UNSEEN)
        if unit is _UNSEEN:
            unit = self._unit_at[loc] = self._unit_of(loc)
            if unit is not None:
                self._locs.setdefault(unit, set()).add(loc)
        if unit is not None:
            self._dirty.add(unit)

    def refresh(self, state, shadowed_locs: Iterable[str]) -> None:
        """Re-evaluate the dirty and shadowed units against ``state``."""
        todo, self._dirty = take_dirty(self._dirty, self._unit_of, shadowed_locs)
        self.last_rechecked = len(todo)
        locs = self._locs
        for invariant, failing in self.invariants:
            holds_unit = invariant.holds_unit
            for unit in todo:
                if holds_unit(state, unit, locs.get(unit, ())):
                    failing.discard(unit)
                else:
                    failing.add(unit)

    def reset(self, locs: Iterable[str]) -> None:
        """Rebuild from a restored replay state's locations, every unit dirty."""
        self._unit_at = {}
        self._locs = {}
        self._dirty = set()
        for loc in locs:
            self.on_write(loc)
        for _, failing in self.invariants:
            failing.clear()

    def drift(self, state) -> Dict[str, Dict[str, list]]:
        """Invariants whose cached failing units differ from a from-scratch
        evaluation of ``state`` (call after :meth:`refresh` on it)."""
        report = {}
        for invariant, failing in self.invariants:
            full = invariant.failing_units(state)
            if full != failing:
                report[invariant.name] = {
                    "incremental": sorted(map(repr, failing)),
                    "full": sorted(map(repr, full)),
                }
        return report
