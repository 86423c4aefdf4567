"""Code generation: compile lowered plans to Python source.

The paper's plugin emits Gallina *code* for each derived computation;
the interpreters in this package execute the lowered Plan IR instead.
This module closes the loop: it compiles a :class:`~repro.derive.plan.
Plan` into a dedicated Python function (built with ``compile``/
``exec``), eliminating the remaining interpretive overhead — the
backend used by the Figure 3 benchmarks, with the interpreter kept as
the ablation baseline.

The compiler consumes the *same* lowering as the interpreters
(:func:`~repro.derive.plan.lower_schedule` — slot environments,
flattened pattern ops, dispatch index), so interpreted and compiled
backends cannot drift: slots become Python locals, ops become
statements, and the dispatch tables are emitted as module-level dict
literals keyed by head constructor.

Compilation scheme (checker):

* the fixpoint becomes a Python function ``rec(size, top_size, *ins)``
  that looks up candidate handlers in the dispatch table;
* each handler becomes a flat function: ``testctor``/``testconst``/
  ``testeq`` ops compile to early returns, ``.&&`` chains likewise,
  and each ``bindEC`` producer op to a ``for`` loop;
* one ``_inc`` flag per handler reproduces the nested-``bindEC`` fuel
  accounting exactly (a branch that ends without success inside a loop
  ``continue``\\ s; the handler returns ``Some false`` only when the
  flag stayed clear).

One compiler class, :class:`_PlanCompiler`, emits every fixpoint, and
one op walker (:meth:`_PlanCompiler._emit_ops`) emits every
fixpoint of the checker protocol family.  The walker is configured by
three things:

* the *repr policy*: a plan's :class:`~repro.derive.specialize.SpecInfo`
  (native ``nat``/``list`` slots, eager unboxing at projections,
  premises bound to their specialized twins), or *pinned-boxed*
  (``info=None``: every slot stays a ``Value``, no partial coercion is
  emitted, and premises are called through their public entry so memo
  wrappers stay in the path);
* *instrumented or fast*: the fast twin omits every trace/observe/
  budget site instead of guarding it;
* the *outcome protocol and frame*: checker verdicts (``SOME_TRUE`` /
  ``SOME_FALSE`` / ``NONE_OB``) or eval answers (tuple / ``None`` /
  ``OUT_OF_FUEL``); handler bodies either sit in their own function or
  are inlined into a fixpoint body, and that body is either the fast
  twin's own ``rec`` or a premise spliced into its caller with
  prefixed locals and rebound exits.

The configurations in use are the boxed ``rec`` (pinned-boxed,
instrumented; total, so it is the ``SpecCoercionError`` fallback),
``__spec_rec__`` (spec, instrumented), ``__spec_fast__`` (spec, fast,
straight-line handlers inlined, ``det`` premises spliced) and the eval
twin ``__spec_eval_rec__`` (pinned-boxed, fast, eval protocol).

Enumerators compile to Python generator functions (``yield`` /
``yield from``), generators to single-sample recursive functions with
the weighted-backtrack loop at the top.  Those two walkers stay
separate from the checker walker: their control protocols differ, and
folding them in would make the walker branch on its caller.  External
instances are resolved at compile time through the registry (with the
``compiled`` backend preferred, so whole dependency trees compile
together).

Profiling, observation, and budget hooks are threaded through the
emitted ``rec``: one ``caches.get('derive_trace')`` plus one
``caches.get('derive_observe')`` plus one
``caches.get('derive_budget')`` per call and ``is not None`` guards —
matching the interpreters' zero-overhead-off contract.  Dispatch
entries carry the pre-merged ``(kind, rel, mode, rule)`` trace key and
the handler's static charge cost; span begin/end sites and budget
charge sites (one ``charge_entry`` per level, one ``charge(cost)`` per
handler attempt, one ``charge(1)`` per producer-loop item) mirror
:mod:`~repro.derive.exec_core` construct-by-construct, so mixed
interpreted/compiled runs aggregate into one trace, produce identical
span trees, and replay a deterministic fault schedule identically.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from ..core.context import Context
from ..core.errors import ReproError, UnknownNameError
from ..core.types import Ty, TypeExpr, is_ground, mangle
from ..core.values import Value
from ..producers.combinators import _enum_values, _gen_value, slice_exhaustive
from ..producers.option_bool import NONE_OB, SOME_FALSE, SOME_TRUE, negate
from ..producers.outcome import FAIL, OUT_OF_FUEL
from . import specialize
from .plan import (
    OP_CHECK,
    OP_EVAL,
    OP_EVALREL,
    OP_INSTANTIATE,
    OP_PRODUCE,
    OP_RECCHECK,
    OP_TESTCONST,
    OP_TESTCTOR,
    OP_TESTEQ,
    X_CONST,
    X_CTOR,
    X_SLOT,
    Plan,
    PlanHandler,
    lower_schedule,
)
from .schedule import Schedule


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Protocol(NamedTuple):
    """The outcomes the checker walker reports: a handler's indefinite
    and definite-miss results, and the whole fixpoint's definite miss.
    A handler's success is ``SOME_TRUE``, or its answer tuple when
    *answers* is set."""

    indef: str
    miss: str
    top_miss: str
    answers: bool


_CHECKER = _Protocol("NONE_OB", "SOME_FALSE", "SOME_FALSE", False)
_EVAL = _Protocol("OUT_OF_FUEL", "None", "FAIL", True)


class _SpecUnsupported(Exception):
    """Raised during specialized emission when the plan does something
    the pass cannot represent; ``compile_checker`` falls back to the
    boxed-only artifact."""


class _PlanCompiler:
    """Compiles one plan to one fixpoint.

    *kind* is ``'checker'``, ``'eval'`` (the direct-eval twin of an enum
    plan), ``'enum'`` or ``'gen'``; the first two share the checker
    walker.  *info* is the repr policy (``None`` pins every slot boxed),
    *fast* omits the trace/observe/budget sites, and *rbox* is the boxed
    checker fixpoint a specialized one hands repr-mismatched self-calls
    to.  A compiler built with *host* emits a premise spliced into the
    host's function body: its locals carry *prefix*, and its names bind
    in the host's namespace.

    Under a spec policy, reprs are tracked per slot during emission;
    every specialized/boxed boundary (external calls into unspecialized
    siblings, function impls, producer loops) boxes with total
    coercions, so the only partial coercions are the statically
    type-directed eager unboxes at ``TESTCTOR`` projections — those
    raise :class:`~repro.derive.specialize.SpecCoercionError`, which
    the entry wrapper catches by re-running the boxed twin.
    """

    def __init__(
        self,
        ctx: Context,
        plan: Plan,
        kind: str,
        fast: bool = False,
        info=None,
        rbox=None,
        host: "_PlanCompiler | None" = None,
        prefix: str = "",
    ) -> None:
        self.ctx = ctx
        self.plan = plan
        self.kind = kind
        self.fast = fast
        self.info = info
        self.proto = {"checker": _CHECKER, "eval": _EVAL}.get(kind)
        self.reprs = (
            info.entry_reprs
            if info is not None
            else (specialize.BOX,) * plan.n_ins
        )
        self.pfx = prefix
        self.rec_name = "rec"
        if host is None:
            self.globals: dict[str, Any] = {
                "Value": Value,
                "SOME_TRUE": SOME_TRUE,
                "SOME_FALSE": SOME_FALSE,
                "NONE_OB": NONE_OB,
                "OUT_OF_FUEL": OUT_OF_FUEL,
                "FAIL": FAIL,
                "_negate": negate,
                "_ctx": ctx,
                "_rbox": rbox,
                "_box_nat": specialize.box_nat,
                "_unbox_nat": specialize.unbox_nat,
            }
            self._const_cache: dict[Value, str] = {}
            self._fn_cache: dict[int, str] = {}
            self._coercers: dict = {}
            self._counter = 0
        else:
            self.globals = host.globals
            self._const_cache = host._const_cache
            self._fn_cache = host._fn_cache
            self._coercers = host._coercers
            self._bind_global = host._bind_global  # shares name uniquing
        self._srepr: dict[int, Any] = {}
        self._stype: dict[int, "TypeExpr | None"] = {}
        # The inline frame (fast checkers): whether handler ops sit in
        # the fixpoint body, where a failed handler goes, whether a
        # final self-call may become a tail jump, the head constructor
        # the current dispatch arm has established, and the frame's
        # success, exhaustion and next-handler-guard statements.
        self._inline = False
        self._inline_fail = "break"
        self._tail_ok = False
        self._branch_key = None
        self._success: tuple = ()
        self._exhausted = ""
        self._guard: "str | None" = None
        # Cross-relation splicing (fast twin only): per-site prefix
        # counter and a per-relation eligibility cache (None = not
        # spliceable, else (plan, info, fast_fn) of the premise).
        self._inline_n = 0
        self._inline_cache: dict[str, Any] = {}

    # -- helpers -----------------------------------------------------------------

    def _bind_global(self, stem: str, obj: Any) -> str:
        self._counter += 1
        name = f"{stem}_{self._counter}"
        self.globals[name] = obj
        return name

    def _bind_fn(self, stem: str, fn: Any) -> str:
        cached = self._fn_cache.get(id(fn))
        if cached is None:
            cached = self._fn_cache[id(fn)] = self._bind_global(stem, fn)
        return cached

    def constant(self, value: Value) -> str:
        value = specialize.intern_value(value)
        if value not in self._const_cache:
            self._const_cache[value] = self._bind_global("_const", value)
        return self._const_cache[value]

    def slot(self, i: int) -> str:
        base = f"_in{i}" if i < self.plan.n_ins else f"_s{i}"
        return self.pfx + base

    def expr(self, e: tuple) -> str:
        """Compile a lowered expression to a boxed Python expression."""
        tag = e[0]
        if tag == X_SLOT:
            return self.slot(e[1])
        if tag == X_CONST:
            return self.constant(e[1])
        args = ", ".join(self.expr(a) for a in e[2])
        if tag == X_CTOR:
            trailing = "," if len(e[2]) == 1 else ""
            return f"Value({e[1]!r}, ({args}{trailing}))"
        fn_name = self._bind_fn(f"_f_{e[3]}", e[1])
        return f"{fn_name}({args})"

    def args_tuple(self, exprs: tuple) -> str:
        inner = ", ".join(self.boxed(e) for e in exprs)
        trailing = "," if len(exprs) == 1 else ""
        return f"({inner}{trailing})"

    def _emit_instr_locals(self, em: _Emitter) -> None:
        if self.fast:
            em.emit("_tr = _ob = None")
            return
        em.emit("_caches = _ctx.caches")
        em.emit("_tr = _caches.get('derive_trace')")
        em.emit("_ob = _caches.get('derive_observe')")
        em.emit("_bud = _caches.get('derive_budget')")

    def _emit_if(self, em: _Emitter, cond: str, *stmts: str) -> None:
        em.emit(f"if {cond}:")
        em.indent += 1
        for stmt in stmts:
            em.emit(stmt)
        em.indent -= 1

    # -- instance resolution at compile time -----------------------------------------

    def checker_fn(self, rel: str):
        from .instances import resolve_compiled_checker

        return resolve_compiled_checker(self.ctx, rel)

    def producer_fn(self, rel: str, mode) -> Any:
        from .instances import ENUM, GEN, resolve_compiled

        kind = GEN if self.kind == "gen" else ENUM
        return resolve_compiled(self.ctx, kind, rel, mode)

    def eval_twin(self, rel: str, mode) -> Any:
        """The premise's direct-eval artifact, when its enum instance
        carries one (attached by :func:`compile_enumerator` for plans
        whose determinacy verdict licenses single-answer evaluation).
        Fast twins call it at :data:`OP_EVALREL` sites in place of the
        first-definite-item loop; slow twins keep the loop so the
        per-item budget charges stay site-for-site with the
        interpreter."""
        if self.kind == "gen":
            return None
        return getattr(
            self.producer_fn(rel, mode), "__spec_eval_rec__", None
        )

    def eval_call(self, fn: str, args: str) -> str:
        """A direct call of a premise eval fixpoint — raw ``rec``
        convention ``(size, top, *ins)`` with the caller's remaining
        fuel as both, and no argument tuple."""
        sep = ", " if args else ""
        return f"{fn}(_top, _top{sep}{args})"

    # -- compilation ------------------------------------------------------------------

    def compile(self):
        em = _Emitter()
        inline = self.kind == "checker" and self.fast
        for h in self.plan.handlers:
            if self.kind == "enum":
                self._emit_enum_handler(em, h)
            elif self.kind == "gen":
                self._emit_gen_handler(em, h)
            elif inline and not _has_loop_ops(h):
                continue  # emitted inline in the fixpoint body
            else:
                self._emit_checker_handler(em, h)
            em.emit()
        if inline:
            self._emit_inline_top(em)
        else:
            self._emit_dispatch(em)
            if self.proto is not None:
                self._emit_checker_top(em)
            else:
                self._emit_top(em)
        source = em.source()
        code = compile(source, f"<derived {self.kind} {self.plan.rel}>", "exec")
        namespace = dict(self.globals)
        exec(code, namespace)
        rec = namespace["rec"]
        rec.__derived_source__ = source
        return rec

    def _ins_params(self) -> list[str]:
        return [f"_in{i}" for i in range(self.plan.n_ins)]

    def _handler_params(self) -> str:
        ins = self._ins_params()
        if self.kind == "gen":
            extra = f", {', '.join(ins)}" if ins else ""
            return f"_size1, _top, _rng{extra}"
        return f"_size1, _top, {', '.join(ins) or '*_'}"

    def _call_handler(self, fn: str) -> str:
        ins = self._ins_params()
        params = ", ".join(ins)
        if self.kind == "gen":
            extra = f", {params}" if params else ""
            return f"{fn}(_sz1, _top, _rng{extra})"
        sep = ", " if params else ""
        return f"{fn}(_sz1, _top{sep}{params})"

    # .. dispatch tables .............................................................

    def _entry(self, h: PlanHandler) -> str:
        key4 = (self.kind,) + h.key3
        return f"(_h_{h.index}, {h.recursive!r}, {key4!r}, {h.cost!r})"

    def _entries(self, handlers: tuple) -> str:
        inner = ", ".join(self._entry(h) for h in handlers)
        trailing = "," if len(handlers) == 1 else ""
        return f"({inner}{trailing})"

    def _emit_dispatch(self, em: _Emitter) -> None:
        """Dispatch tables as module-level literals.  Entries are
        ``(handler_fn, recursive, key4, cost)`` so one shape serves all
        three backends (weights need ``recursive``, profiling needs the
        pre-merged trace key — the compiled twin of
        :attr:`~repro.derive.plan.PlanHandler.key_checker` and friends —
        and budget charges need the static per-attempt
        :attr:`~repro.derive.plan.PlanHandler.cost`)."""
        plan = self.plan
        if plan.dispatch_pos < 0:
            em.emit(f"_all_full = {self._entries(plan.handlers)}")
            em.emit(f"_all_base = {self._entries(plan.base)}")
            em.emit()
            return
        for name, table, default in (
            ("full", plan.full_table, plan.full_default),
            ("base", plan.base_table, plan.base_default),
        ):
            items = ", ".join(
                f"{ctor!r}: {self._entries(hs)}" for ctor, hs in table.items()
            )
            em.emit(f"_disp_{name} = {{{items}}}")
            em.emit(f"_disp_{name}_d = {self._entries(default)}")
        em.emit()

    def _emit_candidates(self, em: _Emitter, which: str) -> None:
        """Emit ``_hs = <candidates>`` for the current size branch,
        reading the scrutinee's head in its entry repr."""
        plan = self.plan
        if plan.dispatch_pos < 0:
            em.emit(f"_hs = _all_{which}")
            return
        p = plan.dispatch_pos
        r = self.reprs[p]
        scrut = f"_in{p}"
        if r == specialize.NAT:
            key = f"('S' if {scrut} > 0 else 'O')"
        elif type(r) is tuple:
            key = f"('cons' if {scrut} else 'nil')"
        else:
            key = f"{scrut}.ctor"
        em.emit(f"_hs = _disp_{which}.get({key}, _disp_{which}_d)")

    def _emit_size_branch(self, em: _Emitter, flag: "str | None") -> None:
        """Pick the base (size 0) or full candidates and the callee
        size; *flag*, when given, starts out as "out of fuel" exactly
        when size 0 skips recursive handlers."""
        plan = self.plan
        for head, which, sz1, init in (
            ("if _size == 0:", "base", "None", repr(plan.has_recursive)),
            ("else:", "full", "_size - 1", "False"),
        ):
            em.emit(head)
            em.indent += 1
            self._emit_candidates(em, which)
            em.emit(f"_sz1 = {sz1}")
            if flag is not None:
                em.emit(f"{flag} = {init}")
            em.indent -= 1

    # .. budget charge sites (omitted in fast twins) ................................

    def _emit_site_charge(self, em: _Emitter, charge: str, *stmts: str) -> None:
        """A fixpoint-level charge — ``charge_entry`` per level or
        ``charge(cost)`` per handler attempt, before the call — the
        compiled twin of the interpreters' site, same order.  *stmts*
        unwind to the backend's indefinite outcome."""
        if self.fast:
            return
        plan = self.plan
        self._emit_if(
            em,
            f"_bud is not None and _bud.{charge}",
            f"_bud.record_site({self.kind!r}, {plan.rel!r}, "
            f"{plan.mode_str!r})",
            *stmts,
        )

    def _emit_loop_charge(self, em: _Emitter, *stmts: str) -> None:
        """One ``charge(1)`` at a producer-loop top — the compiled twin
        of the interpreters' per-item charge, same site, same order."""
        if not self.fast:
            self._emit_if(em, "_bud is not None and _bud.charge(1)", *stmts)

    def _emit_prologue(self, em: _Emitter, *unwind: str) -> None:
        """An instrumented fixpoint's entry: hook locals, span begin,
        and the per-level ``charge_entry``."""
        plan = self.plan
        self._emit_instr_locals(em)
        em.emit(
            f"if _ob is not None: _sp = _ob.spans.begin({self.kind!r}, "
            f"{plan.rel!r}, {plan.mode_str!r}, _size, _top)"
        )
        self._emit_site_charge(em, "charge_entry(_top - _size)", *unwind)

    # -- the repr policy ----------------------------------------------------------

    def _boxer(self, r) -> str:
        if r == specialize.NAT:
            return "_box_nat"
        key = ("box", r)
        name = self._coercers.get(key)
        if name is None:
            name = self._coercers[key] = self._bind_global(
                "_boxr", specialize.boxer(r)
            )
        return name

    def _unboxer(self, r) -> str:
        if r == specialize.NAT:
            return "_unbox_nat"
        key = ("unbox", r)
        name = self._coercers.get(key)
        if name is None:
            name = self._coercers[key] = self._bind_global(
                "_unboxr", specialize.unboxer(r)
            )
        return name

    def _lit(self, x, r) -> str:
        """A Python literal for compile-time-converted constant *x* in
        repr *r* (boxed parts bind as interned const globals)."""
        if r == specialize.NAT:
            return repr(x)
        if r == specialize.BOX:
            return self.constant(x)
        if x == ():
            return "()"
        return f"({self._lit(x[0], r[1])}, {self._lit(x[1], r)})"

    def _const_in(self, value: Value, r) -> str:
        return self._lit(specialize.value_in_repr(value, r), r)

    def _ctor_owner(self, name: str) -> str | None:
        try:
            return self.ctx.datatypes.owner_of(name).name
        except UnknownNameError:
            return None

    def sexpr(self, e: tuple, hint=None) -> tuple[str, Any]:
        """Compile an expression; returns ``(code, repr)``.  Constants
        (and nat/list constructor applications) adapt to *hint* when
        they can; everything else reports its natural repr and the
        caller coerces with a total boxer if needed.  Pinned-boxed
        compilers keep every expression boxed."""
        if self.info is None:
            return self.expr(e), specialize.BOX
        tag = e[0]
        if tag == X_SLOT:
            return self.slot(e[1]), self._srepr.get(e[1], specialize.BOX)
        if tag == X_CONST:
            want = hint if hint is not None else specialize.BOX
            try:
                return self._const_in(e[1], want), want
            except specialize.SpecCoercionError:
                return self.constant(e[1]), specialize.BOX
        if tag == X_CTOR:
            return self._ctor_expr(e, hint)
        # X_FUN: declared impls take and return boxed values.
        args = ", ".join(self.boxed(a) for a in e[2])
        fn_name = self._bind_fn(f"_f_{e[3]}", e[1])
        return f"{fn_name}({args})", specialize.BOX

    def _ctor_expr(self, e: tuple, hint) -> tuple[str, Any]:
        name = e[1]
        owner = self._ctor_owner(name)
        if owner == "nat" and hint in (None, specialize.NAT):
            if name == "O":
                return "0", specialize.NAT
            code, r = self.sexpr(e[2][0], hint=specialize.NAT)
            if r == specialize.NAT:
                return f"({code} + 1)", specialize.NAT
        elif owner == "list" and type(hint) is tuple:
            if name == "nil":
                return "()", hint
            hd, rh = self.sexpr(e[2][0], hint=hint[1])
            tl, rt = self.sexpr(e[2][1], hint=hint)
            if rh == hint[1] and rt == hint:
                return f"({hd}, {tl})", hint
        args = ", ".join(self.boxed(a) for a in e[2])
        trailing = "," if len(e[2]) == 1 else ""
        return f"Value({name!r}, ({args}{trailing}))", specialize.BOX

    def boxed(self, e: tuple) -> str:
        """Compile an expression to its boxed form (total coercion)."""
        code, r = self.sexpr(e, hint=specialize.BOX)
        if r == specialize.BOX:
            return code
        return f"{self._boxer(r)}({code})"

    def _in_reprs(self, exprs: tuple, wanted: tuple) -> "list[str] | None":
        """Code for *exprs* already sitting in the reprs *wanted*, or
        ``None`` when one does not (callers then take a boxed path
        instead of coercing at run time)."""
        parts = []
        for e, w in zip(exprs, wanted):
            code, r = self.sexpr(e, hint=w)
            if r != w:
                return None
            parts.append(code)
        return parts

    def _reset_slots(self) -> None:
        """Slot reprs and types at a handler's entry."""
        self._srepr = dict(enumerate(self.reprs))
        self._stype = (
            dict(enumerate(self.info.entry_types))
            if self.info is not None
            else {}
        )

    # .. slot typing (drives eager unboxing at projections) ......................

    def _expr_type(self, e: tuple) -> "TypeExpr | None":
        tag = e[0]
        if tag == X_SLOT:
            return self._stype.get(e[1])
        if tag == X_CONST:
            return self._value_type(e[1])
        if tag == X_CTOR:
            owner = self._ctor_owner(e[1])
            if owner is not None and not self.ctx.datatypes.get(owner).params:
                return Ty(owner)
            return None
        decl = self.ctx.functions.get(e[3])
        if decl is not None and is_ground(decl.result_type):
            return decl.result_type
        return None

    def _value_type(self, v: Value) -> "TypeExpr | None":
        owner = self._ctor_owner(v.ctor)
        if owner is not None and not self.ctx.datatypes.get(owner).params:
            return Ty(owner)
        return None

    def _component_types(self, src: int, ctor: str):
        if self.info is None:
            return None  # pinned-boxed: no eager unboxing
        ty = self._stype.get(src)
        if not isinstance(ty, Ty) or ty.name not in self.ctx.datatypes:
            return None
        dt = self.ctx.datatypes.get(ty.name)
        if not dt.has_constructor(ctor) or len(dt.params) != len(ty.args):
            return None
        return dt.constructor_arg_types(ctor, ty.args)

    def _produce_out_types(self, op: tuple):
        """Output types of a producer call (for downstream projection
        typing); ``None`` when they cannot be read off the relation."""
        try:
            relation = self.ctx.relations.get(op[6])
        except UnknownNameError:
            return None
        outs = op[7].out_list
        if len(outs) != len(op[4]):
            return None
        return tuple(relation.arg_types[j] for j in outs)

    # .. tests ...................................................................

    def _emit_test(self, em: _Emitter, op: tuple, fail: str) -> None:
        """The deterministic test ops, identical in every backend."""
        tag = op[0]
        if tag == OP_TESTCTOR:
            self._emit_testctor(em, op, fail)
        elif tag == OP_TESTCONST:
            src, r = op[1], self._srepr.get(op[1], specialize.BOX)
            try:
                lit = self._const_in(op[2], r)
            except specialize.SpecCoercionError:
                # The constant does not inhabit the slot's repr (an
                # ill-typed rule would be rejected earlier; this guards
                # the emission): compare boxed.
                code = self.slot(src)
                if r != specialize.BOX:
                    code = f"{self._boxer(r)}({code})"
                self._emit_if(em, f"{code} != {self.constant(op[2])}", fail)
                return
            self._emit_if(em, f"{self.slot(src)} != {lit}", fail)
        else:  # OP_TESTEQ
            cmp = "==" if op[3] else "!="
            a, ra = self.sexpr(op[1])
            b, rb = self.sexpr(op[2], hint=ra)
            if rb != ra:
                a2, ra2 = self.sexpr(op[1], hint=rb)
                if ra2 == rb:
                    a, ra = a2, ra2
                else:
                    if ra != specialize.BOX:
                        a = f"{self._boxer(ra)}({a})"
                    if rb != specialize.BOX:
                        b = f"{self._boxer(rb)}({b})"
            self._emit_if(em, f"{a} {cmp} {b}", fail)

    def _emit_testctor(self, em: _Emitter, op: tuple, fail: str) -> None:
        src, ctor, dsts = op[1], op[2], op[3]
        r = self._srepr.get(src, specialize.BOX)
        sname = self.slot(src)
        # Inside an inlined dispatch branch the scrutinee's head is
        # already established — skip the re-test, keep projections.
        known = (
            self._inline
            and src == self.plan.dispatch_pos
            and ctor == self._branch_key
        )
        if r == specialize.NAT:
            if ctor == "S":
                if not known:
                    self._emit_if(em, f"{sname} <= 0", fail)
                em.emit(f"{self.slot(dsts[0])} = {sname} - 1")
                self._srepr[dsts[0]] = specialize.NAT
                self._stype[dsts[0]] = Ty("nat")
            elif ctor == "O":
                if not known:
                    self._emit_if(em, f"{sname} != 0", fail)
            else:
                raise _SpecUnsupported(f"constructor {ctor!r} on a nat slot")
            return
        if type(r) is tuple:
            if ctor == "cons":
                if not known:
                    self._emit_if(em, f"not {sname}", fail)
                hd, tl = dsts
                em.emit(f"{self.slot(hd)} = {sname}[0]")
                em.emit(f"{self.slot(tl)} = {sname}[1]")
                self._srepr[hd] = r[1]
                self._srepr[tl] = r
                ty = self._stype.get(src)
                if isinstance(ty, Ty) and ty.name == "list":
                    self._stype[hd] = ty.args[0]
                    self._stype[tl] = ty
            elif ctor == "nil":
                if not known:
                    self._emit_if(em, f"{sname}", fail)
            else:
                raise _SpecUnsupported(f"constructor {ctor!r} on a list slot")
            return
        # Boxed source: the standard head test, plus eager unboxing of
        # nat components (the handwritten checkers' ``to_int`` move —
        # partial, but statically type-directed, and any failure on an
        # ill-typed value unwinds to the entry's boxed fallback).
        if not known:
            self._emit_if(em, f"{sname}.ctor != {ctor!r}", fail)
        comp_types = self._component_types(src, ctor)
        for k, dst in enumerate(dsts):
            ty = comp_types[k] if comp_types is not None else None
            if isinstance(ty, Ty) and ty.name == "nat":
                em.emit(f"{self.slot(dst)} = _unbox_nat({sname}.args[{k}])")
                self._srepr[dst] = specialize.NAT
            else:
                em.emit(f"{self.slot(dst)} = {sname}.args[{k}]")
                self._srepr[dst] = specialize.BOX
            self._stype[dst] = ty

    # .. calls ...................................................................

    def _rec_call(self, exprs: tuple) -> str:
        parts = self._in_reprs(exprs, self.reprs)
        if parts is not None:
            return f"{self.rec_name}({self.pfx}_size1, _top, {', '.join(parts)})"
        if self.pfx:
            raise _SpecUnsupported("spliced self-call off its entry reprs")
        # Repr mismatch: hand the call to the boxed twin (same charge
        # sites, same verdicts) instead of unboxing at runtime.
        boxed = ", ".join(self.boxed(e) for e in exprs)
        return f"_rbox(_size1, _top, {boxed})"

    def _check_call(self, op: tuple) -> str:
        fn = self.checker_fn(op[4])
        if self.info is not None:
            # Bind the callee's matching twin directly when the
            # arguments already sit in its entry reprs.
            attr = "__spec_fast__" if self.fast else "__spec_rec__"
            srec = getattr(fn, attr, None)
            wanted = getattr(fn, "__spec_reprs__", None)
            if srec is not None and wanted is not None and len(op[2]) == len(wanted):
                parts = self._in_reprs(op[2], wanted)
                if parts is not None:
                    f = self._bind_fn(f"_spchk_{op[4]}", srec)
                    return f"{f}(_top, _top, {', '.join(parts)})"
        f = self._bind_fn(f"_chk_{op[4]}", fn)
        return f"{f}(_top, {self.args_tuple(op[2])})"

    def _emit_tail_jump(self, em: _Emitter, exprs: tuple) -> bool:
        """Try to emit a final-position RECCHECK as a loop iteration
        (``_size/_in* = ...; continue``).  Only legal when every
        argument already sits in its entry repr; returns False (and
        emits nothing) otherwise, leaving the caller to emit a call."""
        parts = self._in_reprs(exprs, self.reprs)
        if parts is None:
            return False
        em.emit(f"{self.pfx}_size = {self.pfx}_size1")
        if parts:
            targets = ", ".join(self.slot(i) for i in range(self.plan.n_ins))
            em.emit(f"{targets} = {', '.join(parts)}")
        em.emit("continue")
        return True

    # .. the checker walker ......................................................

    def _emit_checker_handler(self, em: _Emitter, h: PlanHandler) -> None:
        em.emit(f"def _h_{h.index}({self._handler_params()}):")
        em.indent += 1
        if not self.fast and _has_loop_ops(h):
            # Only handlers with producer loops charge per item; the
            # budget probe is scoped to them so straightline handlers
            # stay probe-free.
            em.emit("_bud = _ctx.caches.get('derive_budget')")
        em.emit("_inc = False")
        self._reset_slots()
        self._emit_ops(em, h, 0, depth=0)
        em.emit(f"return {self.proto.indef} if _inc else {self.proto.miss}")
        em.indent -= 1

    def _exit_unless(
        self, em: _Emitter, bad: str, indef: str, fail: str, flag
    ) -> None:
        """Leave the op sequence when *bad* holds; *indef* tells an
        indefinite miss from a definite one.  A handler function at
        depth 0 returns that outcome.  Elsewhere *flag* records the
        indefiniteness and *fail* moves on: to the next loop item, the
        next handler, or the fixpoint's verdict."""
        em.emit(f"if {bad}:")
        em.indent += 1
        if flag is None:
            em.emit(
                f"return {self.proto.indef} if {indef} else {self.proto.miss}"
            )
        else:
            em.emit(f"if {indef}: {flag} = True")
            em.emit(fail)
        em.indent -= 1

    def _bind_outs(self, em: _Emitter, op: tuple, src: str) -> None:
        """Project a producer answer's outputs into their (boxed) slots."""
        out_types = self._produce_out_types(op)
        for k, dst in enumerate(op[4]):
            em.emit(f"{self.slot(dst)} = {src}[{k}]")
            self._srepr[dst] = specialize.BOX
            self._stype[dst] = out_types[k] if out_types is not None else None

    def _emit_ops(
        self, em: _Emitter, h: PlanHandler, i: int, depth: int
    ) -> None:
        """The one op walker of the checker protocol family.  Inside a
        producer loop (depth > 0) a failure moves to the next item and
        a ``None`` taints the search (bindEC accounting, ``_inc``).  At
        depth 0 a handler function returns its outcome, while an
        inlined handler (loop-free, so always depth 0) records ``None``
        in the frame's ``_none`` and leaves by the frame's fail exit."""
        ops = h.ops
        if depth:
            fail, flag = "continue", "_inc"
        elif self._inline:
            fail, flag = self._inline_fail, f"{self.pfx}_none"
        else:
            fail, flag = f"return {self.proto.miss}", None
        n = len(ops)
        while i < n:
            op = ops[i]
            tag = op[0]
            if tag == OP_EVAL:
                code, r = self.sexpr(op[2])
                em.emit(f"{self.slot(op[1])} = {code}")
                self._srepr[op[1]] = r
                self._stype[op[1]] = self._expr_type(op[2])
            elif tag in (OP_TESTCTOR, OP_TESTCONST, OP_TESTEQ):
                self._emit_test(em, op, fail)
            elif tag in (OP_CHECK, OP_RECCHECK):
                if (
                    tag == OP_RECCHECK
                    and self._tail_ok
                    and i == n - 1
                    and self._emit_tail_jump(em, op[1])
                ):
                    return
                r = f"{self.pfx}_r{i}"
                if tag == OP_RECCHECK:
                    em.emit(f"{r} = {self._rec_call(op[1])}")
                elif not (self.fast and self._try_inline_check(em, op, r)):
                    em.emit(f"{r} = {self._check_call(op)}")
                    if op[3]:
                        em.emit(f"{r} = _negate({r})")
                self._exit_unless(
                    em, f"{r} is not SOME_TRUE", f"{r} is NONE_OB", fail, flag
                )
            elif tag == OP_EVALREL or (tag == OP_PRODUCE and op[5]):
                self._emit_commit(em, op, i, fail, flag)
            elif tag == OP_PRODUCE:
                item = f"{self.pfx}_it{i}"
                fn = self._bind_fn(
                    f"_enum_{op[6]}", self.producer_fn(op[6], op[7])
                )
                em.emit(f"for {item} in {fn}(_top, {self.args_tuple(op[3])}):")
                em.indent += 1
                self._emit_loop_charge(em, "_inc = True", "break")
                self._emit_if(
                    em,
                    f"{item} is OUT_OF_FUEL or {item} is FAIL",
                    "_inc = True",
                    "continue",
                )
                self._bind_outs(em, op, item)
                self._emit_ops(em, h, i + 1, depth + 1)
                em.indent -= 1
                return
            else:  # OP_INSTANTIATE
                item = self.slot(op[1])
                self._srepr[op[1]] = specialize.BOX
                self._stype[op[1]] = op[2]
                enum_fn = self._bind_global(
                    "_arb", _make_arbitrary_enum(self.ctx, op[2])
                )
                em.emit(f"for {item} in {enum_fn}(_top):")
                em.indent += 1
                self._emit_if(em, f"{item} is OUT_OF_FUEL", "_inc = True", "continue")
                # Charge after the marker test: the interpreter's
                # instantiate loop sees raw values only (the fuel
                # marker lives outside its stream), so charging the
                # marker here would desynchronize the op streams.
                self._emit_loop_charge(em, "_inc = True", "break")
                self._emit_ops(em, h, i + 1, depth + 1)
                em.indent -= 1
                return
            i += 1
        if self._inline:
            for stmt in self._success:
                em.emit(stmt)
        elif self.proto.answers:
            em.emit(f"return {self.args_tuple(h.out_exprs)}")
        else:
            em.emit("return SOME_TRUE")

    def _emit_commit(
        self, em: _Emitter, op: tuple, i: int, fail: str, flag
    ) -> None:
        """A single-answer premise: an OP_EVALREL site (functionalized
        by :mod:`repro.analysis.determinacy`), or an eval twin's
        recursive produce (its own ``(rel, mode)``, functional by the
        twin's precondition).  At most one answer exists, so the first
        definite one commits and the handler continues straightline.
        Markers are moot once the answer is found; without one they
        decide indefinite vs definite miss for this op only."""
        pfx = self.pfx
        got = f"{pfx}_g{i}"
        ev = None if op[5] or not self.fast else self.eval_twin(op[6], op[7])
        if op[5] or ev is not None:
            # One direct call, no producer loop: the fixpoint's own
            # recursion, or the premise's eval twin.  OUT_OF_FUEL
            # absorbs every marker the loop form would have tallied;
            # FAIL is the loop's complete-and-empty exit.
            if op[5]:
                assert self.proto.answers  # checkers recurse by OP_RECCHECK
                call = self._rec_call(op[3])
            else:
                fn = self._bind_fn(f"_ev_{op[6]}", ev)
                call = self.eval_call(fn, ", ".join(self.boxed(e) for e in op[3]))
            em.emit(f"{got} = {call}")
            self._exit_unless(
                em,
                f"{got} is OUT_OF_FUEL or {got} is FAIL",
                f"{got} is OUT_OF_FUEL",
                fail,
                flag,
            )
        else:
            item, inc = f"{pfx}_it{i}", f"{pfx}_ic{i}"
            fn = self._bind_fn(f"_enum_{op[6]}", self.producer_fn(op[6], op[7]))
            em.emit(f"{got} = None")
            em.emit(f"{inc} = False")
            em.emit(f"for {item} in {fn}(_top, {self.args_tuple(op[3])}):")
            em.indent += 1
            self._emit_loop_charge(em, f"{inc} = True", "break")
            self._emit_if(
                em,
                f"{item} is OUT_OF_FUEL or {item} is FAIL",
                f"{inc} = True",
                "continue",
            )
            em.emit(f"{got} = {item}")
            em.emit("break")
            em.indent -= 1
            self._exit_unless(em, f"{got} is None", inc, fail, flag)
            if not self.fast:
                em.emit("_st = _ctx.caches.get('derive_stats')")
                em.emit("if _st is not None: _st.functionalized_calls += 1")
        self._bind_outs(em, op, got)

    # .. checker-protocol fixpoints ..............................................

    def _emit_checker_top(self, em: _Emitter) -> None:
        """The looping fixpoint: try the dispatched handlers in order
        until one answers.  Instrumented checkers and eval twins use it;
        fast checkers inline their handlers instead."""
        P = self.proto
        instr = not self.fast
        em.emit(f"def rec(_size, _top, {', '.join(self._ins_params()) or '*_'}):")
        em.indent += 1
        if instr:
            self._emit_prologue(
                em,
                "if _ob is not None: _ob.end_checker(_sp, NONE_OB)",
                "return NONE_OB",
            )
        self._emit_size_branch(em, "_none")
        em.emit("for _h in _hs:")
        em.indent += 1
        self._emit_site_charge(em, "charge(_h[3])", "_none = True", "break")
        em.emit(f"_r = {self._call_handler('_h[0]')}")
        if instr:
            em.emit(
                "if _tr is not None:"
                " _tr.record4(_h[2], _r is SOME_TRUE, _r is NONE_OB)"
            )
        em.emit(f"if _r is {P.miss}: continue")
        self._emit_if(em, f"_r is {P.indef}", "_none = True", "continue")
        if instr:
            em.emit("if _ob is not None: _ob.end_checker(_sp, _r)")
        em.emit("return _r")
        em.indent -= 1
        if instr:
            em.emit(f"_r = {P.indef} if _none else {P.top_miss}")
            em.emit("if _ob is not None: _ob.end_checker(_sp, _r)")
            em.emit("return _r")
        else:
            em.emit(f"return {P.indef} if _none else {P.top_miss}")
        em.indent -= 1

    def _emit_inline_top(self, em: _Emitter) -> None:
        # The fast twin's fixpoint: no trace/observe/budget sites, and
        # straight-line handlers are inlined into the dispatch (the
        # single-iteration ``while`` supplies the "next handler" jump),
        # so a recursion level costs one Python call instead of one per
        # handler attempt.  Handlers with producer loops keep their
        # function form and are called like the instrumented top does.
        # The whole body sits in a ``while True`` so that a RECCHECK in
        # final position of a branch's final handler becomes a
        # ``continue`` (tail recursion as iteration); ``_none`` then
        # accumulates across iterations, which is exactly the OR the
        # per-level return mapping computes (a level's ``None`` answer
        # turns every enclosing level's answer into ``None``).
        params = ", ".join(self._ins_params())
        em.emit(f"def rec(_size, _top, {params or '*_'}):")
        em.indent += 1
        em.emit("_none = False")
        self._success = ("return SOME_TRUE",)
        self._exhausted = "return NONE_OB if _none else SOME_FALSE"
        self._emit_inline_fixpoint(em)
        em.indent -= 1

    def _emit_inline_fixpoint(self, em: _Emitter) -> None:
        """The size branch and inlined dispatch of a fast checker, in
        the ``while True`` that a tail jump continues; falling out of
        the dispatch takes the frame's exhaustion exit."""
        pfx, plan = self.pfx, self.plan
        em.emit("while True:")
        em.indent += 1
        em.emit(f"if {pfx}_size == 0:")
        em.indent += 1
        em.emit(f"{pfx}_size1 = None")
        if plan.has_recursive:
            em.emit(f"{pfx}_none = True")
        self._emit_inline_dispatch(
            em, plan.base, plan.base_table, plan.base_default
        )
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        em.emit(f"{pfx}_size1 = {pfx}_size - 1")
        self._emit_inline_dispatch(
            em, plan.handlers, plan.full_table, plan.full_default
        )
        em.indent -= 1
        em.emit(self._exhausted)
        em.indent -= 1

    def _emit_inline_dispatch(
        self, em: _Emitter, handlers: tuple, table, default
    ) -> None:
        plan = self.plan
        if plan.dispatch_pos < 0:
            self._emit_inline_handlers(em, handlers)
            return
        p = plan.dispatch_pos
        r = self.reprs[p]
        scrut = self.slot(p)
        if r == specialize.NAT:
            arms = [(f"if {scrut} > 0:", "S"), ("else:", "O")]
        elif type(r) is tuple:
            arms = [(f"if {scrut}:", "cons"), ("else:", "nil")]
        else:
            em.emit(f"{self.pfx}_c = {scrut}.ctor")
            arms = [
                (f"{'el' if k else ''}if {self.pfx}_c == {ctor!r}:", ctor)
                for k, ctor in enumerate(table)
            ]
            arms.append(("else:", None))
        for head, key in arms:
            em.emit(head)
            em.indent += 1
            # The key is established only when the arm's handlers came
            # from the table (the default pool mixes heads).
            self._branch_key = key if key in table else None
            self._emit_inline_handlers(em, table.get(key, default))
            em.indent -= 1
        self._branch_key = None

    def _emit_inline_handlers(self, em: _Emitter, handlers: tuple) -> None:
        if not handlers:
            em.emit("pass")
            return
        for h in handlers:
            last = h is handlers[-1]
            guarded = self._guard is not None and h is not handlers[0]
            if guarded:
                em.emit(self._guard)
                em.indent += 1
            if _has_loop_ops(h):
                # Function form (never spliced: splice-eligible
                # premises are loop-free).
                ins = ", ".join(self._ins_params())
                sep = ", " if ins else ""
                em.emit(f"_r = _h_{h.index}(_size1, _top{sep}{ins})")
                self._emit_if(em, "_r is SOME_TRUE", *self._success)
                em.emit("if _r is NONE_OB: _none = True")
            else:
                self._reset_slots()
                self._inline = True
                # The last handler of a branch needs no "next handler"
                # jump: a failure IS the branch verdict, so it emits
                # bare (no single-iteration while) with the frame's
                # exhaustion exit as its fail target — which also
                # legalizes the tail-``continue``.
                self._inline_fail = self._exhausted if last else "break"
                self._tail_ok = last
                if not last:
                    em.emit("while True:")
                    em.indent += 1
                self._emit_ops(em, h, 0, depth=0)
                if not last:
                    em.indent -= 1
                self._inline = False
                self._tail_ok = False
            if guarded:
                em.indent -= 1

    # .. cross-relation splicing (fast twin) .....................................

    def _premise_plan(self, rel: str):
        """Eligibility of *rel* for inline splicing: its checker must
        be a compiled specialized artifact, the determinacy analysis
        must prove its checker mode ``det`` (every rule loop-free, so
        the whole fixpoint is a straightline tail loop), and every
        lowered op must be in the subset a splice emits.  Returns
        ``(plan, info, fast_fn)`` or ``None``; memoized per relation."""
        cached = self._inline_cache.get(rel, False)
        if cached is not False:
            return cached
        self._inline_cache[rel] = None
        from .plan import functionalization_enabled

        if rel == self.plan.rel or not functionalization_enabled(self.ctx):
            return None
        fn = self.checker_fn(rel)
        pplan = getattr(fn, "__spec_plan__", None)
        pinfo = getattr(fn, "__spec_info__", None)
        pfast = getattr(fn, "__spec_fast__", None)
        if pplan is None or pinfo is None or pfast is None:
            return None
        from ..analysis.determinacy import Verdict, relation_verdict
        from .modes import Mode

        try:
            arity = self.ctx.relations.get(rel).arity
            verdict = relation_verdict(self.ctx, rel, Mode.checker(arity))
        except ReproError:
            return None
        if verdict is not Verdict.DET:
            return None
        for h in pplan.handlers:
            for o in h.ops:
                t = o[0]
                if t in (OP_EVAL, OP_TESTCTOR, OP_TESTCONST, OP_TESTEQ,
                         OP_CHECK):
                    continue
                if t == OP_RECCHECK and o[2] is None:
                    continue
                return None  # group recursion / producer loops: call
        out = (pplan, pinfo, pfast)
        self._inline_cache[rel] = out
        return out

    def _try_inline_check(self, em: _Emitter, op: tuple, res: str) -> bool:
        """Splice a ``det`` premise checker's fast fixpoint into the
        current (fast-twin) function body, eliminating the per-call
        frame: a premise compiler with prefixed locals emits it through
        the same walker, leaving the three-valued verdict in *res*.
        Legal only in the fast twin: that twin runs exactly when no
        budget/trace/observe is installed, so the premise's (omitted)
        charge and span sites are no-ops there by construction.

        Returns False (emitting nothing) on any unsupported feature;
        the caller then falls back to :meth:`_check_call`."""
        if op[3] or self.pfx:  # negated, or already spliced: call form
            return False
        found = self._premise_plan(op[4])
        if found is None:
            return False
        pplan, pinfo, pfast = found
        if len(op[2]) != len(pinfo.entry_reprs):
            return False
        # Caller-side argument expressions, required to already sit in
        # the premise's entry reprs (same precondition as the direct
        # specialized call in _check_call).
        seeds = self._in_reprs(op[2], pinfo.entry_reprs)
        if seeds is None:
            return False
        self._inline_n += 1
        inner = _PlanCompiler(
            self.ctx, pplan, "checker", fast=True, info=pinfo,
            host=self, prefix=f"_p{self._inline_n}",
        )
        # Non-tail self-recursion calls the premise's own fast twin.
        inner.rec_name = self._bind_fn(f"_spchk_{pplan.rel}", pfast)
        tmp = _Emitter()
        tmp.indent = em.indent
        try:
            inner._emit_splice(tmp, seeds, res)
        except _SpecUnsupported:
            return False
        em.lines.extend(tmp.lines)
        st = self.ctx.caches.get("derive_stats")
        if st is not None:
            st.inlined_frames += 1
        return True

    def _emit_splice(self, em: _Emitter, seeds: list, res: str) -> None:
        """This premise's fast fixpoint as a loop in the host's body:
        the fast ``rec``'s frame with its exits rebound.  Success sets
        *res* and breaks, a failed handler falls through to the next
        one (each guarded on *res* still unset), a tail jump continues
        the loop, and exhaustion breaks out to compute the ``None`` /
        ``False`` verdict from the ``_none`` accumulator."""
        pfx = self.pfx
        if seeds:
            targets = ", ".join(self.slot(i) for i in range(self.plan.n_ins))
            em.emit(f"{targets} = {', '.join(seeds)}")
        em.emit(f"{pfx}_size = _top")
        em.emit(f"{pfx}_none = False")
        em.emit(f"{res} = None")
        self._success = (f"{res} = SOME_TRUE", "break")
        self._exhausted = "break"
        self._guard = f"if {res} is None:"
        self._emit_inline_fixpoint(em)
        self._emit_if(
            em, f"{res} is None", f"{res} = NONE_OB if {pfx}_none else SOME_FALSE"
        )

    # .. enumerator ..............................................................

    def _emit_enum_handler(self, em: _Emitter, h: PlanHandler) -> None:
        em.emit(f"def _h_{h.index}({self._handler_params()}):")
        em.indent += 1
        if not self.fast and _has_loop_ops(h):
            em.emit("_bud = _ctx.caches.get('derive_budget')")
        self._emit_enum_ops(em, h, h.ops, 0, depth=0)
        em.indent -= 1

    def _emit_enum_ops(
        self, em: _Emitter, h: PlanHandler, ops: tuple, i: int, depth: int
    ) -> None:
        fail = "return" if depth == 0 else "continue"
        n = len(ops)
        while i < n:
            op = ops[i]
            tag = op[0]
            if tag == OP_EVAL:
                em.emit(f"{self.slot(op[1])} = {self.expr(op[2])}")
            elif tag in (OP_TESTCTOR, OP_TESTCONST, OP_TESTEQ):
                self._emit_test(em, op, fail)
            elif tag == OP_CHECK:
                r = f"_r{i}"
                fn = self._bind_fn(f"_chk_{op[4]}", self.checker_fn(op[4]))
                em.emit(f"{r} = {fn}(_top, {self.args_tuple(op[2])})")
                if op[3]:
                    em.emit(f"{r} = _negate({r})")
                em.emit(f"if {r} is not SOME_TRUE:")
                em.indent += 1
                self._emit_if(em, f"{r} is NONE_OB", "yield OUT_OF_FUEL")
                em.emit(fail)
                em.indent -= 1
            elif tag == OP_RECCHECK:
                raise AssertionError(
                    "producer schedules never contain recursive checker calls"
                )
            elif tag == OP_EVALREL:
                # Functionalized premise: first definite item commits
                # (nothing else exists behind later markers), then the
                # handler continues straightline — no nested loop.
                item, got = f"_it{i}", f"_g{i}"
                ev = self.eval_twin(op[6], op[7]) if self.fast else None
                if ev is not None:
                    fn = self._bind_fn(f"_ev_{op[6]}", ev)
                    args = ", ".join(self.expr(e) for e in op[3])
                    em.emit(f"{got} = {self.eval_call(fn, args)}")
                    em.emit(f"if {got} is OUT_OF_FUEL or {got} is FAIL:")
                    em.indent += 1
                    self._emit_if(
                        em, f"{got} is OUT_OF_FUEL", "yield OUT_OF_FUEL"
                    )
                    em.emit(fail)
                    em.indent -= 1
                    for k, dst in enumerate(op[4]):
                        em.emit(f"{self.slot(dst)} = {got}[{k}]")
                    i += 1
                    continue
                fn = self._bind_fn(
                    f"_enum_{op[6]}", self.producer_fn(op[6], op[7])
                )
                em.emit(f"{got} = None")
                em.emit(f"for {item} in {fn}(_top, {self.args_tuple(op[3])}):")
                em.indent += 1
                self._emit_loop_charge(em, "yield OUT_OF_FUEL", "break")
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("yield OUT_OF_FUEL")
                em.emit("continue")
                em.indent -= 1
                em.emit(f"{got} = {item}")
                em.emit("break")
                em.indent -= 1
                em.emit(f"if {got} is None:")
                em.indent += 1
                em.emit(fail)
                em.indent -= 1
                if not self.fast:
                    em.emit("_st = _ctx.caches.get('derive_stats')")
                    em.emit("if _st is not None:")
                    em.indent += 1
                    em.emit("_st.functionalized_calls += 1")
                    em.indent -= 1
                for k, dst in enumerate(op[4]):
                    em.emit(f"{self.slot(dst)} = {got}[{k}]")
            elif tag == OP_PRODUCE:
                item = f"_it{i}"
                ins = ", ".join(self.expr(e) for e in op[3])
                if op[5]:  # recursive self-call, one level down
                    source = f"rec(_size1, _top, {ins})"
                else:
                    fn = self._bind_fn(
                        f"_enum_{op[6]}", self.producer_fn(op[6], op[7])
                    )
                    source = f"{fn}(_top, {self.args_tuple(op[3])})"
                em.emit(f"for {item} in {source}:")
                em.indent += 1
                # ``break``, not ``return``: the interpreter's charge
                # trip returns from the innermost ``_enum_ops`` frame
                # only, so outer produce loops resume with their next
                # item — exiting the whole flattened handler here would
                # drop those items and diverge under one-shot faults.
                self._emit_loop_charge(em, "yield OUT_OF_FUEL", "break")
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("yield OUT_OF_FUEL")
                em.emit("continue")
                em.indent -= 1
                for k, dst in enumerate(op[4]):
                    em.emit(f"{self.slot(dst)} = {item}[{k}]")
                self._emit_enum_ops(em, h, ops, i + 1, depth + 1)
                em.indent -= 1
                return
            else:  # OP_INSTANTIATE
                item = self.slot(op[1])
                enum_fn = self._bind_global(
                    "_arb", _make_arbitrary_enum(self.ctx, op[2])
                )
                em.emit(f"for {item} in {enum_fn}(_top):")
                em.indent += 1
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("yield OUT_OF_FUEL")
                em.emit("continue")
                em.indent -= 1
                # After the marker test — see the checker walker — and
                # ``break`` for the same reason as OP_PRODUCE.
                self._emit_loop_charge(em, "yield OUT_OF_FUEL", "break")
                self._emit_enum_ops(em, h, ops, i + 1, depth + 1)
                em.indent -= 1
                return
            i += 1
        outs = ", ".join(self.expr(e) for e in h.out_exprs)
        trailing = "," if len(h.out_exprs) == 1 else ""
        em.emit(f"yield ({outs}{trailing})")

    # .. generator ...............................................................

    def _emit_gen_handler(self, em: _Emitter, h: PlanHandler) -> None:
        em.emit(f"def _h_{h.index}({self._handler_params()}):")
        em.indent += 1
        for i, op in enumerate(h.ops):
            tag = op[0]
            if tag == OP_EVAL:
                em.emit(f"{self.slot(op[1])} = {self.expr(op[2])}")
            elif tag in (OP_TESTCTOR, OP_TESTCONST, OP_TESTEQ):
                self._emit_test(em, op, "return FAIL")
            elif tag == OP_CHECK:
                r = f"_r{i}"
                fn = self._bind_fn(f"_chk_{op[4]}", self.checker_fn(op[4]))
                em.emit(f"{r} = {fn}(_top, {self.args_tuple(op[2])})")
                if op[3]:
                    em.emit(f"{r} = _negate({r})")
                em.emit(f"if {r} is not SOME_TRUE:")
                em.indent += 1
                em.emit(f"return OUT_OF_FUEL if {r} is NONE_OB else FAIL")
                em.indent -= 1
            elif tag == OP_RECCHECK:
                raise AssertionError(
                    "producer schedules never contain recursive checker calls"
                )
            elif tag in (OP_PRODUCE, OP_EVALREL):
                # OP_EVALREL degenerates to OP_PRODUCE here: the
                # generator monad draws a single sample per producer op
                # already (same RNG stream with the pass on or off).
                item = f"_it{i}"
                if op[5]:  # recursive self-call, one level down
                    em.emit(
                        f"{item} = rec(_size1, _top, "
                        f"{self.args_tuple(op[3])}, _rng)"
                    )
                else:
                    fn = self._bind_fn(
                        f"_gen_{op[6]}", self.producer_fn(op[6], op[7])
                    )
                    em.emit(
                        f"{item} = {fn}(_top, {self.args_tuple(op[3])}, _rng)"
                    )
                em.emit(f"if {item} is FAIL or {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit(f"return {item}")
                em.indent -= 1
                for k, dst in enumerate(op[4]):
                    em.emit(f"{self.slot(dst)} = {item}[{k}]")
            else:  # OP_INSTANTIATE
                gen_fn = self._bind_global(
                    "_arbg", _make_arbitrary_gen(self.ctx, op[2])
                )
                item = self.slot(op[1])
                em.emit(f"{item} = {gen_fn}(_top, _rng)")
                em.emit(f"if {item} is FAIL or {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit(f"return {item}")
                em.indent -= 1
        outs = ", ".join(self.expr(e) for e in h.out_exprs)
        trailing = "," if len(h.out_exprs) == 1 else ""
        em.emit(f"return ({outs}{trailing})")
        em.indent -= 1

    # .. the enumerator and generator fixpoints ..................................

    def _emit_top(self, em: _Emitter) -> None:
        ins = self._ins_params()
        params = ", ".join(ins)
        if self.kind == "enum":
            em.emit(f"def rec(_size, _top, {params or '*_'}):")
            em.indent += 1
            self._emit_prologue(
                em,
                "yield OUT_OF_FUEL",
                "if _ob is not None: _ob.end_enum(_sp, 0, True)",
                "return",
            )
            em.emit("_fuel = False")
            em.emit("_nv = 0")
            self._emit_size_branch(em, None)
            em.emit("if _tr is None:")
            em.indent += 1
            em.emit("for _h in _hs:")
            em.indent += 1
            self._emit_site_charge(em, "charge(_h[3])", "_fuel = True", "break")
            em.emit(f"for _x in {self._call_handler('_h[0]')}:")
            em.indent += 1
            em.emit("if _x is OUT_OF_FUEL: _fuel = True")
            em.emit("else: yield _x")
            em.indent -= 3
            em.emit("else:")
            em.indent += 1
            em.emit("for _h in _hs:")
            em.indent += 1
            self._emit_site_charge(em, "charge(_h[3])", "_fuel = True", "break")
            em.emit("_sv = _sf = False")
            em.emit(f"for _x in {self._call_handler('_h[0]')}:")
            em.indent += 1
            em.emit("if _x is OUT_OF_FUEL: _fuel = _sf = True")
            em.emit("else:")
            em.indent += 1
            em.emit("_sv = True")
            em.emit("_nv += 1")
            em.emit("yield _x")
            em.indent -= 2
            em.emit("_tr.record4(_h[2], _sv, _sf)")
            em.indent -= 2
            if self.plan.has_recursive:
                em.emit("if _size == 0: _fuel = True")
            em.emit("if _fuel: yield OUT_OF_FUEL")
            em.emit("if _ob is not None: _ob.end_enum(_sp, _nv, _fuel)")
            em.indent -= 1
        else:  # gen
            em.emit("def rec(_size, _top, _ins, _rng):")
            em.indent += 1
            if params:
                comma = "," if len(ins) == 1 else ""
                em.emit(f"{params}{comma} = _ins")
            self._emit_prologue(
                em,
                "if _ob is not None: _ob.end_gen(_sp, OUT_OF_FUEL, 0)",
                "return OUT_OF_FUEL",
            )
            em.emit("_na = 0")
            self._emit_size_branch(em, "_fuel")
            em.emit(
                "_live = [[_h, 2, ((_size if _h[1] else 1) or 1)]"
                " for _h in _hs]"
            )
            em.emit("while _live:")
            em.indent += 1
            em.emit("_total = 0")
            em.emit("for _e in _live: _total += _e[2]")
            em.emit("_pick = _rng.randrange(_total)")
            em.emit("for _e in _live:")
            em.indent += 1
            em.emit("if _pick < _e[2]: break")
            em.emit("_pick -= _e[2]")
            em.indent -= 1
            em.emit("_h = _e[0]")
            self._emit_site_charge(em, "charge(_h[3])", "_fuel = True", "break")
            em.emit("_na += 1")
            args = f", {params}" if params else ""
            em.emit(f"_res = _h[0](_sz1, _top, _rng{args})")
            em.emit("if _res is FAIL:")
            em.indent += 1
            em.emit("if _tr is not None:"
                    " _tr.record4(_h[2], False, False)")
            em.indent -= 1
            em.emit("elif _res is OUT_OF_FUEL:")
            em.indent += 1
            em.emit("_fuel = True")
            em.emit("if _tr is not None:"
                    " _tr.record4(_h[2], False, True)")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            em.emit("if _tr is not None:"
                    " _tr.record4(_h[2], True, False)")
            em.emit("if _ob is not None: _ob.end_gen(_sp, _res, _na)")
            em.emit("return _res")
            em.indent -= 1
            em.emit("_e[1] -= 1")
            em.emit("if _e[1] <= 0: _live.remove(_e)")
            em.indent -= 1
            em.emit("_res = OUT_OF_FUEL if _fuel else FAIL")
            em.emit("if _ob is not None: _ob.end_gen(_sp, _res, _na)")
            em.emit("return _res")
            em.indent -= 1


def _has_loop_ops(h: PlanHandler) -> bool:
    """Whether the handler contains producer loops (and so needs the
    per-item budget charge and its ``_bud`` probe)."""
    return any(
        op[0] in (OP_PRODUCE, OP_INSTANTIATE, OP_EVALREL) for op in h.ops
    )


def _make_arbitrary_enum(ctx: Context, ty: TypeExpr):
    def arbitrary(fuel: int):
        yield from _enum_values(ctx, ty, fuel)
        if not slice_exhaustive(ctx, ty, fuel):
            yield OUT_OF_FUEL

    arbitrary.__name__ = f"arbitrary_{mangle(ty)}"
    return arbitrary


def _make_arbitrary_gen(ctx: Context, ty: TypeExpr):
    def arbitrary(fuel: int, rng):
        return _gen_value(ctx, ty, fuel, rng)

    arbitrary.__name__ = f"arbitrary_gen_{mangle(ty)}"
    return arbitrary


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------

def _uninstrumented(caches) -> bool:
    """Whether no trace/observe/budget is installed — the state in
    which every site the fast twins omit is a no-op."""
    return (
        caches.get("derive_budget") is None
        and caches.get("derive_trace") is None
        and caches.get("derive_observe") is None
    )


def compile_checker(ctx: Context, schedule: Schedule):
    """Compile a checker schedule to ``fn(fuel, args) -> OptionBool``
    (the internal instance convention).

    When :func:`repro.derive.specialize.spec_info` approves the plan, a
    second, representation-specialized fixpoint is compiled alongside
    the boxed one and fronted by unboxing coercions at the entry; an
    ill-typed argument (``SpecCoercionError``) falls back to the boxed
    twin, so the public behaviour is representation-independent.  The
    returned callable always carries ``__batch__`` — the amortized
    entry point that coerces/dispatches once per argument vector.
    """
    plan = lower_schedule(ctx, schedule)
    rec = _PlanCompiler(ctx, plan, "checker").compile()
    info = specialize.spec_info(ctx, plan)
    spec = fast = None
    if info is not None:
        try:
            spec = _PlanCompiler(
                ctx, plan, "checker", info=info, rbox=rec
            ).compile()
            fast = _PlanCompiler(
                ctx, plan, "checker", fast=True, info=info, rbox=rec
            ).compile()
        except _SpecUnsupported:
            spec = fast = None
    if spec is None:
        # No representation change — but an eligible checker still gets
        # the instrumentation-free fast twin (all-boxed, handlers
        # inlined), with the instrumented rec as both the instrumented
        # path and the coercion fallback.
        binfo = specialize.boxed_info(ctx, plan)
        if binfo is not None:
            try:
                fastb = _PlanCompiler(
                    ctx, plan, "checker", fast=True, info=binfo, rbox=rec
                ).compile()
            except _SpecUnsupported:
                fastb = None
            if fastb is not None:
                info, spec, fast = binfo, rec, fastb

    if spec is None:

        def check(fuel: int, args: tuple) -> Any:
            return rec(fuel, fuel, *args)

        def check_batch(fuel: int, argses) -> list:
            return [rec(fuel, fuel, *args) for args in argses]

    else:
        unbox = specialize.entry_unboxers(info.entry_reprs)
        CoercionError = specialize.SpecCoercionError

        def _spec_rec():
            # The fast twin omits trace/observe/budget sites, which are
            # all no-ops when the caches are empty — select it exactly
            # then; any installed instrumentation keeps the full twin.
            # ``ctx.caches`` resolves per call to the *current
            # session's* state, so the selection is session-correct.
            return fast if _uninstrumented(ctx.caches) else spec

        if unbox is None:

            def check(fuel: int, args: tuple) -> Any:
                try:
                    return _spec_rec()(fuel, fuel, *args)
                except CoercionError:
                    return rec(fuel, fuel, *args)

            def check_batch(fuel: int, argses) -> list:
                out = []
                s = _spec_rec()
                for args in argses:
                    try:
                        out.append(s(fuel, fuel, *args))
                    except CoercionError:
                        out.append(rec(fuel, fuel, *args))
                return out

        else:

            def check(fuel: int, args: tuple) -> Any:
                try:
                    sargs = [f(a) for f, a in zip(unbox, args)]
                except CoercionError:
                    return rec(fuel, fuel, *args)
                try:
                    return _spec_rec()(fuel, fuel, *sargs)
                except CoercionError:
                    return rec(fuel, fuel, *args)

            def check_batch(fuel: int, argses) -> list:
                out = []
                s = _spec_rec()
                for args in argses:
                    try:
                        sargs = [f(a) for f, a in zip(unbox, args)]
                        out.append(s(fuel, fuel, *sargs))
                    except CoercionError:
                        out.append(rec(fuel, fuel, *args))
                return out

        check.__spec_rec__ = spec
        check.__spec_fast__ = fast
        check.__spec_reprs__ = info.entry_reprs
        check.__spec_plan__ = plan
        check.__spec_info__ = info
        check.__spec_source__ = spec.__derived_source__
        check.__spec_fast_source__ = fast.__derived_source__
        check_batch.__spec_rec__ = spec
        check_batch.__spec_fast__ = fast
        check_batch.__spec_reprs__ = info.entry_reprs

    check.__wrapped_rec__ = rec
    check.__derived_source__ = rec.__derived_source__
    check.__batch__ = check_batch
    return check


def compile_enumerator(ctx: Context, schedule: Schedule):
    """Compile an enum schedule to ``fn(fuel, ins) -> iterator``.

    An instrumentation-free fast twin is compiled alongside and
    selected per call whenever no trace/observe/budget is installed
    (all the omitted sites are no-ops in that state).
    """
    plan = lower_schedule(ctx, schedule)
    rec = _PlanCompiler(ctx, plan, "enum").compile()
    if not specialize.specialization_enabled(ctx):

        def enum_st(fuel: int, ins: tuple):
            return rec(fuel, fuel, *ins)

    else:
        fast = _PlanCompiler(ctx, plan, "enum", fast=True).compile()

        def enum_st(fuel: int, ins: tuple):
            if _uninstrumented(ctx.caches):
                return fast(fuel, fuel, *ins)
            return rec(fuel, fuel, *ins)

        enum_st.__fast_rec__ = fast

    enum_st.__wrapped_rec__ = rec
    enum_st.__derived_source__ = rec.__derived_source__
    _attach_eval_twin(ctx, plan, enum_st)
    return enum_st


def _attach_eval_twin(ctx: Context, plan, enum_st) -> None:
    """Compile and attach the direct-eval twin (``__spec_eval__``) for
    an enum plan whose determinacy verdict is functional or better
    (``repro.analysis.determinacy``): at most one answer exists, so
    enumeration collapses to computation.  Fast twins consume it at
    OP_EVALREL sites; nothing else does, so a plan that cannot take one
    simply keeps the loop form.

    The twin is the checker walker under the eval protocol:
    ``rec(_size, _top, *ins)`` returns the unique answer tuple,
    ``OUT_OF_FUEL`` when the search was incomplete without finding it,
    or ``FAIL`` when it is definitely absent.  Recursive premises
    become direct recursive calls and functional external premises
    chain through their own eval twins — no generator frames on the
    hot path.  Soundness is the OP_EVALREL commit argument one level
    deeper: a definite answer found at any fuel is the unique semantic
    answer, so committing to it (and reporting definite failure when a
    later test rejects it) loses nothing, and markers seen before the
    commit are moot.  The twin is instrumentation-free and only reached
    from fast twins, which entry wrappers select exactly when no
    trace/observe/budget cache is installed, so every charge site it
    omits is a no-op in any state in which it runs.
    """
    from .plan import functionalization_enabled

    if not functionalization_enabled(ctx):
        return
    if not specialize.specialization_enabled(ctx):
        return  # no fast twins exist to call it
    from ..analysis.determinacy import relation_verdict

    try:
        if not relation_verdict(ctx, plan.rel, plan.mode_str).at_most_one:
            return
        ev_rec = _PlanCompiler(ctx, plan, "eval", fast=True).compile()
    except ReproError:
        return

    def enum_ev(fuel: int, ins: tuple):
        return ev_rec(fuel, fuel, *ins)

    enum_ev.__derived_source__ = ev_rec.__derived_source__
    enum_st.__spec_eval__ = enum_ev
    # Codegen consumers bypass the wrapper and call the fixpoint with
    # splatted arguments — no tuple, no extra frame per premise.
    enum_st.__spec_eval_rec__ = ev_rec


def compile_generator(ctx: Context, schedule: Schedule):
    """Compile a gen schedule to ``fn(fuel, ins, rng) -> tuple|marker``
    (with the same fast-twin selection as :func:`compile_enumerator`)."""
    plan = lower_schedule(ctx, schedule)
    rec = _PlanCompiler(ctx, plan, "gen").compile()
    if not specialize.specialization_enabled(ctx):

        def gen_st(fuel: int, ins: tuple, rng):
            return rec(fuel, fuel, ins, rng)

    else:
        fast = _PlanCompiler(ctx, plan, "gen", fast=True).compile()

        def gen_st(fuel: int, ins: tuple, rng):
            if _uninstrumented(ctx.caches):
                return fast(fuel, fuel, ins, rng)
            return rec(fuel, fuel, ins, rng)

        gen_st.__fast_rec__ = fast

    gen_st.__wrapped_rec__ = rec
    gen_st.__derived_source__ = rec.__derived_source__
    return gen_st
