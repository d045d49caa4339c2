"""Optimize once, re-cost many: cost programs as interned tapes.

Design search evaluates the same workload under dozens of calibrated
parameter sets ``P`` — one per candidate allocation — and the planner
re-derives the *same* candidate plan shapes every time, because
everything structural (access-path candidates, the dpsize join lattice,
row and selectivity estimates) depends only on the catalog, never on
``P``. Only the cost arithmetic and the argmin decisions vary.

A :class:`CostProgram` captures that split as a flat *tape*. While the
planner builds a plan it hands every costing site to a
:class:`PlanCostRecorder`, which appends one instruction and returns
an opaque :class:`Slot` — the position of the instruction's result in
the replay's value array. Later sites pass those slots as arguments.
Instructions come in three shapes:

* a cost-formula call, ``fn(P, *args)``, whose arguments are slots of
  earlier instructions or ``P``-independent quantities; quantities go
  into the same value array as pooled constants;
* a predicate price (:func:`repro.optimizer.cost.predicate_cost`) and
  ordered sums of them (``sum`` from ``0``, as the planner sums), both
  calls of this kind;
* one planner decision, builtin ``min`` over the candidates' slots in
  the order the planner compared them — first minimum under strict
  ``<``, the planner's own tie-break.

The recorder *interns* every instruction by its structure (function
plus argument slots) and every constant by type and value (so ``1``
and ``1.0``, or ``0.0`` and ``-0.0``, stay apart). Equal instructions
compute equal values under any ``P``, so the dynamic-programming join
order's repeated sorts and identical predicates collapse into one
slot each, and a one-candidate decision is its candidate's slot.

Replaying the program under a new ``P`` is one loop over the tape with
no recursion and no memo dictionary: each instruction reads its
argument slots and stores its result. The same cost functions get the
same arguments in the same order, so the result is bit-identical to
re-running the planner under that ``P``, at a fraction of the work.

A program is only valid for the catalog state it was recorded
against; :mod:`repro.optimizer.whatif` keeps each catalog's programs
in a table for one :meth:`repro.engine.catalog.Catalog.fingerprint`
at a time and empties it when the fingerprint moves, so a program is
never replayed after DDL, a load or ``analyze``. Queries whose structure
*does* depend on ``P`` (join regions past the DP limit use greedy
ordering, which prunes by cost) are flagged non-compilable at recording
time and keep the full re-planning path.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.optimizer.params import OptimizerParameters


class Slot(int):
    """A recorded value's position in the replay array (opaque to callers)."""

    __slots__ = ()


def plan_total(params: OptimizerParameters, base: float,
               *subqueries: float) -> float:
    """Plan cost plus its scalar subqueries' costs, as the planner adds."""
    return base + sum(subqueries)


def _sum(params: OptimizerParameters, *parts: float) -> float:
    return sum(parts)


#: One instruction: result slot, function, getter of its argument slots.
Instruction = Tuple[int, Callable[..., float], Callable[[list], tuple]]


class CostProgram:
    """A compiled query: the replay tape, its value array and root slot."""

    __slots__ = ("tape", "values", "root")

    def __init__(self, tape: Tuple[Instruction, ...], values: list,
                 root: Slot):
        self.tape = tape
        #: Slot 0 holds ``P`` during a replay; constants fill their slots.
        self.values = values
        self.root = root

    def cost(self, params: OptimizerParameters) -> float:
        """Total plan cost under *params* — bit-identical to replanning."""
        values = self.values.copy()
        values[0] = params
        for slot, fn, args in self.tape:
            values[slot] = fn(*args(values))
        return values[self.root]


class PlanCostRecorder:
    """Builds the cost tape while :class:`~repro.optimizer.planner.Planner` runs.

    One recorder accompanies one top-level ``plan_query`` call,
    including its nested calls for derived tables and scalar
    subqueries, which share its tape (and its interning): each nested
    build deposits its root slot here and the caller claims it
    immediately with :meth:`take_root`. If any build hits a
    structurally ``P``-dependent path it calls :meth:`mark_uncompilable`
    and the whole query keeps full re-planning.
    """

    __slots__ = ("compilable", "reason", "_root", "_values", "_tape",
                 "_interned")

    def __init__(self):
        self.compilable = True
        self.reason: Optional[str] = None
        self._root: Optional[Slot] = None
        self._values: list = [None]
        self._tape: List[Instruction] = []
        #: Constant keys and instruction keys -> their slot.
        self._interned: Dict[tuple, Slot] = {}

    def mark_uncompilable(self, reason: str) -> None:
        self.compilable = False
        self.reason = reason

    # -- emission ----------------------------------------------------------

    def call(self, fn: Callable[..., float], *args) -> Slot:
        """Record ``fn(P, *args)``; *args* are slots or constants."""
        key = [fn, 0]  # slot 0 holds P
        for arg in args:
            key.append(arg if arg.__class__ is Slot else self._constant(arg))
        return self._emit(tuple(key))

    def total(self, parts: Sequence[Slot]) -> Slot:
        """Record ``sum(parts)`` — from ``0``, in the given order."""
        if not parts:
            return self._constant(0)
        return self.call(_sum, *parts)

    def minimum(self, candidates: Sequence[Slot]) -> Slot:
        """Record one planner decision over *candidates*, in order."""
        if not candidates:
            raise ValueError("a decision needs at least one candidate")
        if len(candidates) == 1:
            return candidates[0]
        return self._emit((min, *candidates))

    def _constant(self, value) -> Slot:
        # The type and, for zeros, the sign keep 1 / 1.0 / True and
        # 0.0 / -0.0 apart: equal keys must mean identical arguments.
        key = ((value.__class__, value, math.copysign(1.0, value))
               if value == 0 else (value.__class__, value))
        slot = self._interned.get(key)
        if slot is None:
            slot = self._interned[key] = Slot(len(self._values))
            self._values.append(value)
        return slot

    def _emit(self, key: tuple) -> Slot:
        """Intern the instruction ``key = (fn, *argument slots)``."""
        slot = self._interned.get(key)
        if slot is None:
            index = len(self._values)  # a plain int stores fastest
            slot = self._interned[key] = Slot(index)
            self._values.append(None)
            self._tape.append((index, key[0], itemgetter(*key[1:])))
        return slot

    # -- roots -------------------------------------------------------------

    def deposit_root(self, slot: Optional[Slot]) -> None:
        self._root = slot

    def take_root(self) -> Optional[Slot]:
        slot, self._root = self._root, None
        return slot

    def program(self) -> Optional[CostProgram]:
        """The compiled program, or ``None`` if recording bailed out."""
        root = self.take_root()
        if not self.compilable or root is None:
            return None
        return CostProgram(tuple(self._tape), self._values, root)
