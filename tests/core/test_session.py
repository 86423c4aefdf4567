"""Session-scoped execution state: isolation, concurrency, fork.

The satellite suites for the derivation-as-a-service PR:

* two sessions on one shared context see disjoint stats / memo tables /
  budget trips, while derived artifacts (instances, plans, schedules)
  stay shared;
* ``Context.fork()`` gives workers fully private state — no cross-talk
  through instances, artifacts, or sessions;
* concurrent ``resolve`` from many threads is safe (the per-session
  ``resolve_stack`` fix) and derives each instance exactly once;
* ``box_nat``'s shared cache grows thread-safely and stays capped.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.session import (
    Session,
    activate_session,
    current_session,
    deactivate_session,
    use_session,
)
from repro.core.values import Value, to_int
from repro.derive import Mode, derive_checker
from repro.derive.instances import CHECKER, ENUM, resolve
from repro.derive.memo import CHECKER_MEMO, enable_memoization
from repro.derive.stats import install_stats, stats_of
from repro.producers.option_bool import SOME_TRUE
from repro.resilience import budget_scope


def nat(n):
    v = Value("O", ())
    for _ in range(n):
        v = Value("S", (v,))
    return v


# -- session plumbing --------------------------------------------------------


class TestSessionBasics:
    def test_default_session_is_ambient(self, nat_ctx):
        s = nat_ctx.session
        assert s.name == "default"
        nat_ctx.caches["k"] = 1
        assert s.state["k"] == 1

    def test_use_session_scopes_caches(self, nat_ctx):
        nat_ctx.caches["who"] = "default"
        with nat_ctx.use_session() as s:
            assert nat_ctx.session is s
            assert "who" not in nat_ctx.caches
            nat_ctx.caches["who"] = s.name
        assert nat_ctx.caches["who"] == "default"

    def test_activate_deactivate_token(self, nat_ctx):
        s = nat_ctx.new_session("manual")
        token = activate_session(nat_ctx, s)
        try:
            assert current_session(nat_ctx) is s
        finally:
            deactivate_session(nat_ctx, token)
        assert current_session(nat_ctx) is nat_ctx._default_session

    def test_session_rejects_foreign_context(self, nat_ctx, zero_ctx):
        s = zero_ctx.new_session("alien")
        with pytest.raises(ValueError):
            activate_session(nat_ctx, s)

    def test_sessions_named_and_counted(self, nat_ctx):
        a = nat_ctx.new_session()
        b = nat_ctx.new_session()
        assert a.name != b.name
        assert isinstance(a, Session)

    def test_use_session_helper_matches_method(self, nat_ctx):
        s = nat_ctx.new_session("x")
        with use_session(nat_ctx, s):
            assert nat_ctx.session is s


# -- satellite 4: isolation --------------------------------------------------


class TestSessionIsolation:
    def test_disjoint_stats(self, nat_ctx):
        """Two sessions tally their own DeriveStats; the work one
        session does never shows up in the other's counters."""
        # The public object reads the instance's (memo-wrapped) fn on
        # every call; a raw fn held from before enable_memoization
        # would bypass the table.
        chk = derive_checker(nat_ctx, "le").check
        s1, s2 = nat_ctx.new_session("s1"), nat_ctx.new_session("s2")
        with use_session(nat_ctx, s1):
            enable_memoization(nat_ctx)
            chk(20, (nat(3), nat(9)))
            calls_1 = stats_of(nat_ctx).checker_calls
        with use_session(nat_ctx, s2):
            enable_memoization(nat_ctx)
            calls_2 = stats_of(nat_ctx).checker_calls
        assert calls_1 > 0
        assert calls_2 == 0
        assert stats_of(nat_ctx) is None  # default session untouched

    def test_disjoint_memo_tables(self, nat_ctx):
        chk = derive_checker(nat_ctx, "le").check
        s1, s2 = nat_ctx.new_session("m1"), nat_ctx.new_session("m2")
        with use_session(nat_ctx, s1):
            enable_memoization(nat_ctx)
            chk(20, (nat(2), nat(5)))
            assert len(nat_ctx.caches[CHECKER_MEMO]) > 0
        with use_session(nat_ctx, s2):
            enable_memoization(nat_ctx)
            assert len(nat_ctx.caches[CHECKER_MEMO]) == 0

    def test_disjoint_budget_trips(self, nat_ctx):
        """A budget installed in one session governs only that
        session: the other session's identical call runs unbudgeted."""
        chk = resolve(nat_ctx, CHECKER, "le", Mode.checker(2)).fn
        args = (nat(8), nat(25))
        s1, s2 = nat_ctx.new_session("b1"), nat_ctx.new_session("b2")
        with use_session(nat_ctx, s1):
            with budget_scope(nat_ctx, max_ops=3) as bud:
                chk(40, args)
            assert bud.exhausted is not None
            assert bud.exhausted.limit == "ops"
        with use_session(nat_ctx, s2):
            assert nat_ctx.caches.get("derive_budget") is None
            assert chk(40, args) is SOME_TRUE

    def test_artifacts_shared_across_sessions(self, nat_ctx):
        """Derived instances and plan/schedule artifacts are per
        *context*: deriving in one session makes the instance visible
        to every other session (no re-derivation)."""
        with use_session(nat_ctx):
            inst = resolve(nat_ctx, CHECKER, "le", Mode.checker(2))
        with use_session(nat_ctx):
            assert resolve(nat_ctx, CHECKER, "le", Mode.checker(2)) is inst
        assert resolve(nat_ctx, CHECKER, "le", Mode.checker(2)) is inst

    def test_threads_have_independent_ambient_sessions(self, nat_ctx):
        """Each thread starts in the default session but an
        activate_session in one thread never leaks into another."""
        seen = {}
        barrier = threading.Barrier(2)

        def worker(name):
            with use_session(nat_ctx, nat_ctx.new_session(name)):
                barrier.wait()
                nat_ctx.caches["owner"] = name
                barrier.wait()
                seen[name] = nat_ctx.caches["owner"]

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"t0": "t0", "t1": "t1"}
        assert "owner" not in nat_ctx.caches


class TestForkIsolation:
    def test_fork_no_crosstalk(self, nat_ctx):
        """Forked contexts re-derive privately: instance, artifact,
        and session state never flow between parent and fork."""
        parent_inst = resolve(nat_ctx, CHECKER, "le", Mode.checker(2))
        nat_ctx.caches["parent_only"] = True
        fork = nat_ctx.fork()
        assert not fork.instances
        assert not fork.artifacts
        assert "parent_only" not in fork.caches
        fork_inst = resolve(fork, CHECKER, "le", Mode.checker(2))
        assert fork_inst is not parent_inst
        fork.caches["fork_only"] = True
        assert "fork_only" not in nat_ctx.caches
        assert fork_inst.fn(20, (nat(1), nat(4))) is SOME_TRUE
        assert parent_inst.fn(20, (nat(1), nat(4))) is SOME_TRUE

    def test_fork_stats_do_not_leak(self, nat_ctx):
        install_stats(nat_ctx)
        fork = nat_ctx.fork()
        chk = resolve(fork, CHECKER, "le", Mode.checker(2)).fn
        chk(20, (nat(2), nat(6)))
        assert stats_of(nat_ctx).checker_calls == 0


# -- satellite 2: concurrent resolve -----------------------------------------


class TestConcurrentResolve:
    def test_parallel_resolve_derives_once(self, list_ctx):
        """Many threads racing to resolve the same cold key all get
        the one instance the derive lock admits."""
        results = []
        errors = []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait()
                inst = resolve(list_ctx, CHECKER, "Sorted", Mode.checker(1))
                results.append(inst)
            except Exception as e:  # pragma: no cover - failure detail
                errors.append(e)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 8
        assert all(r is results[0] for r in results)

    def test_parallel_resolve_distinct_keys(self, nat_ctx):
        """Concurrent derivations of *different* instances do not
        corrupt each other's resolve stacks (the shared-stack bug)."""
        keys = [
            (CHECKER, "le", Mode.checker(2)),
            (ENUM, "le", Mode.from_string("oo")),
            (CHECKER, "ev", Mode.checker(1)),
            (ENUM, "ev", Mode.from_string("o")),
        ]
        errors = []
        barrier = threading.Barrier(len(keys))

        def worker(key):
            try:
                barrier.wait()
                resolve(nat_ctx, *key)
            except Exception as e:  # pragma: no cover - failure detail
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        chk = resolve(nat_ctx, CHECKER, "le", Mode.checker(2)).fn
        assert chk(20, (nat(3), nat(7))) is SOME_TRUE

    def test_resolve_stack_is_per_session(self, nat_ctx):
        """The cycle-detection stack lives in session state, so a
        resolve in one session never sees another session's frames."""
        with use_session(nat_ctx):
            resolve(nat_ctx, CHECKER, "le", Mode.checker(2))
            assert nat_ctx.caches.get("resolve_stack") in ([], None)
        assert nat_ctx.caches.get("resolve_stack") in ([], None)

    def test_concurrent_checker_runs_with_memo(self, nat_ctx):
        """Full end-to-end race: per-thread sessions each memoizing
        their own shard, answers all correct."""
        chk = resolve(nat_ctx, CHECKER, "le", Mode.checker(2)).fn
        wrong = []
        barrier = threading.Barrier(4)

        def worker(i):
            with use_session(nat_ctx, nat_ctx.new_session(f"w{i}")):
                enable_memoization(nat_ctx)
                barrier.wait()
                for a in range(12):
                    for b in range(12):
                        got = chk(40, (nat(a), nat(b))) is SOME_TRUE
                        if got != (a <= b):
                            wrong.append((i, a, b, got))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not wrong


# -- satellite 1: box_nat cache ----------------------------------------------


class TestBoxNatCache:
    def test_values_correct_and_interned_below_cap(self):
        from repro.derive.specialize import _NAT_CACHE_MAX, box_nat

        for n in (0, 1, 2, 40, 1000):
            assert to_int(box_nat(n)) == n
        assert box_nat(17) is box_nat(17)
        assert len(__import__("repro.derive.specialize", fromlist=["x"])
                   ._NAT_CACHE) <= _NAT_CACHE_MAX

    def test_cache_is_capped(self):
        from repro.derive import specialize

        big = specialize._NAT_CACHE_MAX + 123
        v = specialize.box_nat(big)
        assert to_int(v) == big
        assert len(specialize._NAT_CACHE) <= specialize._NAT_CACHE_MAX

    def test_concurrent_growth_is_safe(self):
        from repro.derive import specialize

        errors = []
        barrier = threading.Barrier(8)

        def worker(seedling):
            try:
                barrier.wait()
                for n in range(seedling, 2000, 7):
                    if to_int(specialize.box_nat(n)) != n:
                        errors.append(n)
            except Exception as e:  # pragma: no cover - failure detail
                errors.append(e)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        cache = specialize._NAT_CACHE
        assert len(cache) <= specialize._NAT_CACHE_MAX
        # The cache remains a dense prefix: index n holds the nat n.
        for i in range(0, len(cache), 97):
            assert to_int(cache[i]) == i
