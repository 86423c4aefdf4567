"""Generator backend: the ``G (option A)`` instantiation of a derived
program.

Public surface only — :class:`DerivedGenerator` lowers its schedule to
a :class:`~repro.derive.plan.Plan` once and delegates to the shared
executor (:func:`repro.derive.exec_core.run_gen`).  Compared to the
enumerator instantiation:

* ``enumerating``  →  QuickChick-style ``backtrack`` over handlers
  (weighted random choice, discarding failed options);
* recursive calls and premises draw one random sample instead of
  enumerating — except a premise whose plan is linear
  (:func:`~repro.derive.plan.linear_premise`), which is enumerated at
  the same fuel and one of its answers chosen uniformly;
* existential instantiation uses the unconstrained random generator.

A run returns one output tuple, or :data:`FAIL` (no derivation found
down the sampled path and every alternative definitively failed), or
:data:`OUT_OF_FUEL` (some alternative ran out of fuel — retrying with
a larger size may succeed).
"""

from __future__ import annotations

import random
from typing import Any

from ..core.context import Context
from ..core.values import Value
from ..producers.outcome import is_value
from .exec_core import run_gen
from .plan import Plan, lower_schedule
from .schedule import Schedule


class DerivedGenerator:
    """A derived constrained generator for ``(rel, mode)``.

    Calling convention: ``gen(fuel, *in_args, rng=...)`` returns one
    output tuple, or ``FAIL`` / ``OUT_OF_FUEL``.
    """

    def __init__(
        self, ctx: Context, schedule: Schedule, retries_per_handler: int = 2
    ) -> None:
        if schedule.mode.is_checker:
            raise ValueError("DerivedGenerator needs a producer-mode schedule")
        self.ctx = ctx
        self.schedule = schedule
        self.retries = retries_per_handler
        self._plan = lower_schedule(ctx, schedule)

    @property
    def plan(self) -> Plan:
        """The lowered program this generator executes."""
        return self._plan

    def __call__(
        self, fuel: int, *ins: Value, rng: random.Random | None = None
    ) -> Any:
        return run_gen(
            self.ctx, self._plan, fuel, fuel, tuple(ins),
            rng or random.Random(), self.retries,
        )

    def gen_st(
        self, fuel: int, ins: tuple[Value, ...], rng: random.Random
    ) -> Any:
        """Internal calling convention (used by instance resolution)."""
        return run_gen(self.ctx, self._plan, fuel, fuel, ins, rng, self.retries)

    def rec(
        self,
        size: int,
        top_size: int,
        ins: tuple[Value, ...],
        rng: random.Random,
    ) -> Any:
        """One level of the derived fixpoint."""
        return run_gen(
            self.ctx, self._plan, size, top_size, ins, rng, self.retries
        )

    def samples(
        self,
        fuel: int,
        *ins: Value,
        count: int = 100,
        seed: int | None = None,
    ) -> list[tuple[Value, ...]]:
        """Draw until *count* proper outputs were produced (markers
        dropped); gives up after ``20 * count`` attempts."""
        rng = random.Random(seed)
        ins = tuple(ins)
        out: list[tuple[Value, ...]] = []
        attempts = 0
        while len(out) < count and attempts < 20 * count:
            attempts += 1
            x = run_gen(
                self.ctx, self._plan, fuel, fuel, ins, rng, self.retries
            )
            if is_value(x):
                out.append(x)
        return out


class HandwrittenGenerator:
    """Public wrapper around a registered handwritten generator.

    ``derive_generator`` hands this back when resolution finds a
    user-supplied ``GenSizedSuchThat`` instance: all calls delegate to
    the live ``instance.fn`` while presenting the
    :class:`DerivedGenerator` public surface.
    """

    def __init__(self, ctx: Context, instance) -> None:
        self.ctx = ctx
        self.instance = instance
        self.rel = instance.rel
        self.mode = instance.mode
        # Registry key (interp backend): re-read per call so that
        # register(..., replace=True) takes effect on live wrappers.
        self._key = (instance.kind, instance.rel, str(instance.mode))

    def _fn(self):
        live = self.ctx.instances.get(self._key)
        return (live or self.instance).fn

    def __call__(
        self, fuel: int, *ins: Value, rng: random.Random | None = None
    ) -> Any:
        return self._fn()(fuel, tuple(ins), rng or random.Random())

    def gen_st(
        self, fuel: int, ins: tuple[Value, ...], rng: random.Random
    ) -> Any:
        return self._fn()(fuel, tuple(ins), rng)

    def samples(
        self,
        fuel: int,
        *ins: Value,
        count: int = 100,
        seed: int | None = None,
    ) -> list[tuple[Value, ...]]:
        rng = random.Random(seed)
        fn = self._fn()
        out: list[tuple[Value, ...]] = []
        attempts = 0
        while len(out) < count and attempts < 20 * count:
            attempts += 1
            x = fn(fuel, tuple(ins), rng)
            if is_value(x):
                out.append(x)
        return out

    def __repr__(self) -> str:
        return f"HandwrittenGenerator({self.rel!r}, {self.mode})"


def make_generator(ctx: Context, schedule: Schedule):
    """Build the internal-convention callable for the registry."""
    gen = DerivedGenerator(ctx, schedule)
    return gen.gen_st
