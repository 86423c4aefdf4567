"""Test-domain construction for validation.

Obligations are universally quantified over relation arguments; we
discharge them on a *bounded-exhaustive core* (every argument tuple up
to a constructor depth, capped), topped up with:

* reference-derived **positives** — for sparse relations (e.g. STLC
  typing) random or small tuples rarely satisfy the relation, so we ask
  the reference search to solve the fully open goal and include its
  witnesses; and
* **random tuples** from the unconstrained generator, for spot
  coverage beyond the exhaustive depth.
"""

from __future__ import annotations

import itertools
import random

from ..core.context import Context
from ..core.relations import Relation
from ..core.terms import Var
from ..core.values import Value
from ..producers.combinators import _enum_values, datatype_sampler
from ..producers.outcome import is_value
from ..semantics.proof_search import FlounderError, SearchConfig, solutions
from .obligations import ValidationConfig


def exhaustive_tuples(
    ctx: Context, rel: Relation, cfg: ValidationConfig
) -> list[tuple[Value, ...]]:
    """Bounded-exhaustive argument tuples (capped at ``max_tuples``)."""
    per_arg = [
        list(itertools.islice(_enum_values(ctx, t, cfg.domain_depth), 64))
        for t in rel.arg_types
    ]
    product = itertools.product(*per_arg)
    return list(itertools.islice(product, cfg.max_tuples))


def positive_tuples(
    ctx: Context, rel: Relation, cfg: ValidationConfig, limit: int = 60
) -> list[tuple[Value, ...]]:
    """Argument tuples known-derivable, via the reference search."""
    goal = tuple(Var(f"__a{i}") for i in range(rel.arity))
    search_cfg = SearchConfig(enum_depth=cfg.domain_depth + 1)
    try:
        witnesses = solutions(
            ctx, rel.name, goal, depth=min(cfg.ref_depth, 8),
            cfg=search_cfg, limit=limit,
        )
    except FlounderError:
        return []
    return [
        tuple(w[f"__a{i}"] for i in range(rel.arity)) for w in witnesses
    ]


def random_tuples(
    ctx: Context, rel: Relation, cfg: ValidationConfig, count: int = 60
) -> list[tuple[Value, ...]]:
    rng = random.Random(cfg.seed)
    out: list[tuple[Value, ...]] = []
    for _ in range(count):
        args = []
        for t in rel.arg_types:
            v = datatype_sampler(ctx, t)(cfg.domain_depth + 2, rng)
            if not is_value(v):
                break
            args.append(v)
        else:
            out.append(tuple(args))
    return out


def argument_tuples(
    ctx: Context, rel: Relation, cfg: ValidationConfig
) -> list[tuple[Value, ...]]:
    """The validation domain: exhaustive core + positives + random."""
    seen: set[tuple[Value, ...]] = set()
    out: list[tuple[Value, ...]] = []
    for source in (
        exhaustive_tuples(ctx, rel, cfg),
        positive_tuples(ctx, rel, cfg),
        random_tuples(ctx, rel, cfg),
    ):
        for args in source:
            if args not in seen:
                seen.add(args)
                out.append(args)
    return out


def input_tuples(
    ctx: Context,
    rel: Relation,
    in_positions: tuple[int, ...],
    cfg: ValidationConfig,
) -> list[tuple[Value, ...]]:
    """Domain for producer inputs: projections of the full domain (so
    positives are well represented) plus the exhaustive product over
    the input types."""
    seen: set[tuple[Value, ...]] = set()
    out: list[tuple[Value, ...]] = []
    for args in argument_tuples(ctx, rel, cfg):
        ins = tuple(args[i] for i in in_positions)
        if ins not in seen:
            seen.add(ins)
            out.append(ins)
    cap = max(1, cfg.max_tuples // 4)
    return out[:cap]
