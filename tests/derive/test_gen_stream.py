"""The Figure-3 derived generators draw a pinned RNG stream.

A generator is a function of its choice sequence ("Parsing
Randomness", PAPERS.md): with the seed fixed, the values it returns and
the random state it leaves behind are fixed too.  For each Figure-3
derived generator — BST ``bst``@iio, STLC ``typing``@ioi at fuel 4,
IFC ``indist_list``@io — this draws 300 seeded property inputs through
the case study's own Figure-3 generator and hashes every value together
with the final ``rng.getstate()``.  The compiled fast twin, the
compiled instrumented twin (selected under
:func:`~repro.derive.trace.profile`) and the plan interpreter must give
the same digest, and that digest is pinned: an executor change that
alters which numbers a generator draws, or how it uses them, shows up
here, and a change that means to alter the stream must say so by
updating :data:`DIGESTS`.
"""

from __future__ import annotations

import hashlib
import importlib
import random

import pytest

from repro.derive import Mode
from repro.derive.instances import GEN, resolve, resolve_compiled
from repro.derive.trace import profile

#: (case study, relation, mode, workload, handwritten checker,
#: implementation, property_fn keywords) — the ``fig3_gen`` cells.
CASES = {
    "bst": ("bst", "bst", "iio", "BstWorkload", "handwritten_bst_check",
            "insert", {}),
    "stlc": ("stlc", "typing", "ioi", "StlcWorkload",
             "handwritten_typing_check", "subst", {"fuel": 4}),
    "ifc": ("ifc", "indist_list", "io", "IfcWorkload",
            "handwritten_indist_check", "CORRECT_STEP", {}),
}

SEEDS = range(300)
BACKENDS = ("fast", "instrumented", "interp")

#: SHA-1 of the 300 draws per case, identical on every backend.
DIGESTS = {
    "bst": "ce5523c9f5e9a28c8f60c55e81b663cfe0f2e255",
    "stlc": "9266f50f29c5ef71ea085fe34b110673106ec7c8",
    "ifc": "cd5ac7f848b2c10cf91721907ac717e86e4e9667",
}


def stream_digest(case: str, backend: str) -> str:
    study, rel, mode, workload, check, impl, kwargs = CASES[case]
    mod = importlib.import_module(f"repro.casestudies.{study}")
    ctx = mod.make_context()
    if backend == "interp":
        derived = resolve(ctx, GEN, rel, Mode.from_string(mode)).fn
    else:
        derived = resolve_compiled(ctx, GEN, rel, Mode.from_string(mode))
    gen, _ = getattr(mod, workload)(ctx).property_fn(
        derived, getattr(mod, check), getattr(mod, impl), **kwargs
    )
    digest = hashlib.sha1()

    def draw_all():
        for seed in SEEDS:
            rng = random.Random(seed)
            out = gen(5, rng)
            digest.update(repr(out).encode())
            digest.update(repr(rng.getstate()).encode())

    if backend == "instrumented":
        with profile(ctx) as trace:
            draw_all()
        assert trace.total_attempts  # the instrumented twin ran
    else:
        draw_all()
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_backends_draw_the_pinned_stream(case):
    digests = {b: stream_digest(case, b) for b in BACKENDS}
    assert digests == dict.fromkeys(BACKENDS, DIGESTS[case])
