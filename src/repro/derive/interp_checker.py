"""Checker backend: the ``option bool`` instantiation of a derived
program (the paper's Figure 1).

This module is the *public surface* only — :class:`DerivedChecker`
lowers its schedule to a :class:`~repro.derive.plan.Plan` once and
delegates every call to the shared executor
(:func:`repro.derive.exec_core.run_checker`); the step semantics live
there, shared with the enumerator/generator backends and mirrored by
the compiled backend, so the four cannot drift.

Semantics (unchanged from the paper): the top level is a fixpoint over
``size`` with a separate ``top_size`` threaded to external calls; at
``size = 0`` only base-constructor handlers run, plus a ``None``
option when recursive handlers were skipped; handlers combine with
backtracking, premise chains with ``.&&``, existential premises with
``bindEC`` over a (derived) enumerator.
"""

from __future__ import annotations

from ..core.context import Context
from ..core.errors import ArityError
from ..core.values import Value
from ..producers.option_bool import OptionBool
from .exec_core import run_checker
from .memo import checker_memo_call, decide_fuel_doubling
from .plan import Plan, lower_schedule
from .schedule import Schedule


class DerivedChecker:
    """A derived semi-decision procedure for ``P e1 .. en``.

    Calling convention: ``checker(fuel, *args) -> OptionBool`` — the
    paper's ``fun size in1 .. => rec size size in1 ..`` wrapper.
    """

    def __init__(
        self,
        ctx: Context,
        schedule: Schedule,
        group: "dict[str, Schedule] | None" = None,
    ) -> None:
        if not schedule.mode.is_checker:
            raise ValueError("DerivedChecker needs a checker-mode schedule")
        self.ctx = ctx
        self.schedule = schedule
        # Mutual-recursion extension: all schedules sharing this
        # fixpoint, keyed by relation name (always includes our own).
        self.group: dict[str, Schedule] = {schedule.rel: schedule}
        if group:
            self.group.update(group)
        self._plans: dict[str, Plan] = {
            rel: lower_schedule(ctx, sched) for rel, sched in self.group.items()
        }
        self._plan = self._plans[schedule.rel]

    @property
    def plan(self) -> Plan:
        """The lowered program this checker executes."""
        return self._plan

    def __call__(self, fuel: int, *args: Value) -> OptionBool:
        return self.check(fuel, tuple(args))

    def check(self, fuel: int, args: tuple[Value, ...]) -> OptionBool:
        """Internal calling convention (used by instance resolution).

        Top-level calls (``size == top_size``) route through the
        per-context memo table when memoization is enabled; the memo
        layer knows not to wrap this method again at the instance
        registry.  A vector of the wrong length raises
        :class:`~repro.core.errors.ArityError`.
        """
        arity = self.schedule.mode.arity
        if len(args) != arity:
            raise ArityError(self.schedule.rel, arity, len(args))
        if self.ctx.caches.get("memo_enabled"):
            return checker_memo_call(
                self.ctx,
                self.schedule.rel,
                args,
                fuel,
                lambda: run_checker(
                    self.ctx, self._plans, self._plan, fuel, fuel, args
                ),
            )
        return run_checker(self.ctx, self._plans, self._plan, fuel, fuel, args)

    def check_batch(self, fuel: int, argses) -> list:
        """Check a vector of argument tuples at one fuel.

        Interface parity with the compiled backend's ``__batch__``
        entry point; each element is a full top-level :meth:`check`
        call, so memoization and instrumentation see the same events
        as a caller-side loop.
        """
        return [self.check(fuel, args) for args in argses]

    def decide(
        self, args: tuple[Value, ...], max_fuel: int = 64, start_fuel: int = 2
    ) -> OptionBool:
        """Run with doubling fuel until a definite answer (or give up
        with ``None`` at *max_fuel*).

        With memoization enabled the loop is incremental: a cached
        definite answer (at any fuel) returns immediately, and probes
        at or below the recorded ``None`` frontier short-circuit.
        """
        return decide_fuel_doubling(
            self.ctx, self.schedule.rel, self.check, args, max_fuel, start_fuel
        )

    def rec(
        self,
        size: int,
        top_size: int,
        args: tuple[Value, ...],
        rel: str | None = None,
    ) -> OptionBool:
        """One level of the derived fixpoint (*rel* selects a group
        sibling in mutual-recursion groups)."""
        plan = self._plans[rel] if rel is not None else self._plan
        return run_checker(self.ctx, self._plans, plan, size, top_size, args)


class HandwrittenChecker:
    """Public wrapper around a registered handwritten checker instance.

    ``derive_checker`` hands this back when the registry resolves to a
    user-supplied ``DecOpt`` instance: calls delegate to the *live*
    ``instance.fn`` (so replacements via ``register(...,
    replace=True)`` and memo wrapping both take effect), while the
    object still offers the :class:`DerivedChecker` public surface
    (``__call__``, ``check``, ``decide``).
    """

    def __init__(self, ctx: Context, instance) -> None:
        self.ctx = ctx
        self.instance = instance
        self.rel = instance.rel
        # Registry key (interp backend): re-read per call so that
        # register(..., replace=True) takes effect on live wrappers.
        self._key = (instance.kind, instance.rel, str(instance.mode))

    def _fn(self):
        live = self.ctx.instances.get(self._key)
        return (live or self.instance).fn

    def __call__(self, fuel: int, *args: Value) -> OptionBool:
        return self._fn()(fuel, tuple(args))

    def check(self, fuel: int, args: tuple[Value, ...]) -> OptionBool:
        return self._fn()(fuel, tuple(args))

    def decide(
        self, args: tuple[Value, ...], max_fuel: int = 64, start_fuel: int = 2
    ) -> OptionBool:
        return decide_fuel_doubling(
            self.ctx, self.rel, self.check, args, max_fuel, start_fuel
        )

    def __repr__(self) -> str:
        return f"HandwrittenChecker({self.rel!r})"


def make_checker(ctx: Context, schedule: Schedule):
    """Build the internal-convention callable for the registry."""
    checker = DerivedChecker(ctx, schedule)
    return checker.check
