"""Each rule catches its seeded-violation fixture (and only that)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_file

FIXTURES = Path(__file__).parent / "fixtures"


def run(fixture: str, rel: str):
    return analyze_file(FIXTURES / fixture, rel=rel)


class TestPortableMath:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_portable_math.py", rel="core/quantizers/bad.py")

    def test_catches_seeded_violations(self, findings):
        mine = [f for f in findings if f.rule == "portable-math"]
        lines = {f.line for f in mine}
        # math import, math.log2, np.exp2, float **; the allow[...] line
        # and the integer power must NOT appear.
        assert len(mine) == 4, mine
        assert all(line < 21 for line in lines), mine

    def test_messages_point_at_portable_math(self, findings):
        assert any("portable_math" in f.message for f in findings)


class TestDtypeDiscipline:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_dtype.py", rel="core/lossless/bad.py")

    def test_catches_seeded_violations(self, findings):
        mine = [f for f in findings if f.rule == "dtype-discipline"]
        assert len(mine) == 3, mine
        texts = " ".join(f.message for f in mine)
        assert "np.arange" in texts
        assert "sum()" in texts
        assert "'int'" in texts

    def test_explicit_dtypes_pass(self, findings):
        mine = [f for f in findings if f.rule == "dtype-discipline"]
        # Everything in the explicit_is_fine / *_like functions is clean.
        assert all(f.line < 17 for f in mine), mine


class TestDeterminism:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_determinism.py", rel="core/kernel.py")

    def test_catches_seeded_violations(self, findings):
        mine = [f for f in findings if f.rule == "determinism"]
        texts = " ".join(f.message for f in mine)
        assert "'random'" in texts          # import random
        assert "np.random" in texts
        assert "hash()" in texts
        assert "set" in texts               # set iteration
        assert len(mine) >= 6, mine

    def test_membership_and_sorted_pass(self, findings):
        mine = [f for f in findings if f.rule == "determinism"]
        assert all(f.line < 25 for f in mine), mine


class TestErrorDiscipline:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_error.py", rel="io.py")

    def test_catches_seeded_violations(self, findings):
        mine = [f for f in findings if f.rule == "error-discipline"]
        assert len(mine) == 3, mine
        texts = " ".join(f.message for f in mine)
        assert "ValueError" in texts
        assert "struct.error" in texts

    def test_guarded_and_class_unpack_pass(self, findings):
        mine = [f for f in findings if f.rule == "error-discipline"]
        # guarded_unpack_is_fine / class_unpack_is_fine start at line 21.
        assert all(f.line < 21 for f in mine), mine


class TestTelemetryDiscipline:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_telemetry.py", rel="core/kernel.py")

    def test_catches_seeded_violations(self, findings):
        # if/else twin, early-exit twin, *_traced helper, expression twin.
        mine = [f for f in findings if f.rule == "telemetry-discipline"]
        assert len(mine) == 4, mine
        assert {f.line for f in mine} == {5, 13, 19, 25}

    def test_guarded_idioms_pass(self, findings):
        mine = [f for f in findings if f.rule == "telemetry-discipline"]
        # One always-instrumented path, a guard around telemetry-only
        # work, and an early exit sharing no call with the rest are clean.
        assert all(f.line < 28 for f in mine), mine

    @pytest.mark.parametrize("rel", ["service/server.py", "device/procpool.py"])
    def test_service_and_procpool_paths_in_scope(self, rel):
        # The serving layer and the process-pool backend must not grow
        # twins either; a violation placed under either rel is reported.
        mine = [f for f in run("bad_telemetry.py", rel=rel)
                if f.rule == "telemetry-discipline"]
        assert {f.line for f in mine} == {5, 13, 19, 25}


class TestBufferEscape:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_buffer_escape.py", rel="device/bad.py")

    def test_catches_seeded_violations(self, findings):
        mine = [f for f in findings if f.rule == "buffer-escape"]
        assert {f.line for f in mine} == {14, 18, 22, 27, 35}, mine

    def test_pr7_arena_return_is_flagged(self, findings):
        # The exact PR 7 race: an ndarray over shm.buf handed to the caller.
        pr7 = [f for f in findings if f.rule == "buffer-escape" and f.line == 14]
        assert len(pr7) == 1
        assert "returned to the caller" in pr7[0].message

    def test_each_escape_kind_is_distinguished(self, findings):
        texts = " ".join(
            f.message for f in findings if f.rule == "buffer-escape"
        )
        assert "submit() boundary" in texts
        assert "outlives the frame" in texts
        assert "nested function" in texts

    def test_copies_and_scratch_returns_pass(self, findings):
        mine = [f for f in findings if f.rule == "buffer-escape"]
        # tobytes/bytes copies, same-thread scratch returns, fancy-index
        # stores and metadata-only submits are all clean (lines >= 40).
        assert all(f.line < 40 for f in mine), mine


class TestAsyncBlocking:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_async_blocking.py", rel="service/bad.py")

    def test_catches_seeded_violations(self, findings):
        mine = [f for f in findings if f.rule == "async-blocking"]
        assert {f.line for f in mine} == {19, 25, 33, 37}, mine

    def test_pr7_transitive_chain_is_reported(self, findings):
        # The PR 7 coroutine bug: fut.result() two frames below async def,
        # with the concrete call chain embedded in the message.
        deep = [f for f in findings if f.rule == "async-blocking" and f.line == 25]
        assert len(deep) == 1
        assert "transitive_block -> _prepare -> _flush" in deep[0].message

    def test_codec_entry_counts_as_blocking(self, findings):
        codec = [f for f in findings if f.rule == "async-blocking" and f.line == 33]
        assert len(codec) == 1
        assert "encode_array" in codec[0].message

    def test_offload_allowlist_passes(self, findings):
        mine = [f for f in findings if f.rule == "async-blocking"]
        # run_in_executor references, asyncio.sleep and awaited project
        # coroutines (lines >= 40) must not fire.
        assert all(f.line < 40 for f in mine), mine

    def test_out_of_scope_rel_is_silent(self):
        mine = [f for f in run("bad_async_blocking.py", rel="device/bad.py")
                if f.rule == "async-blocking"]
        assert mine == []


class TestLockOrder:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_lock_order.py", rel="device/bad.py")

    def test_cycle_edges_flagged_at_both_sites(self, findings):
        cyc = [f for f in findings if f.rule == "lock-order"
               and "cycle" in f.message]
        assert {f.line for f in cyc} == {16, 21}, cyc

    def test_await_under_lock_flagged(self, findings):
        held = [f for f in findings if f.rule == "lock-order"
                and "awaits while holding" in f.message]
        assert len(held) == 1 and held[0].line == 26, held

    def test_consistent_order_and_named_locks_pass(self, findings):
        mine = [f for f in findings if f.rule == "lock-order"]
        assert all(f.line < 40 for f in mine), mine

    def test_static_lock_graph_export_shape(self):
        import ast as ast_mod

        from repro.analysis.callgraph import build_project
        from repro.analysis.engine import _link_parents
        from repro.analysis.rules import static_lock_graph

        text = (FIXTURES / "bad_lock_order.py").read_text()
        tree = ast_mod.parse(text)
        _link_parents(tree)
        graph = static_lock_graph(build_project([("device/bad.py", tree)]))
        assert set(graph) == {"nodes", "edges"}
        # Sanitizer-named locks surface under their runtime names.
        assert "carry_publish" in graph["nodes"]
        named = [e for e in graph["edges"]
                 if e["from"] == "carry_publish"
                 and e["to"] == "lookback_status"]
        assert len(named) == 1
        assert named[0]["site"].startswith("device/bad.py:")


class TestResourceLifecycle:
    @pytest.fixture(scope="class")
    def findings(self):
        return run("bad_resource_lifecycle.py", rel="device/bad.py")

    def test_catches_seeded_violations(self, findings):
        mine = [f for f in findings if f.rule == "resource-lifecycle"]
        assert {f.line for f in mine} == {11, 17, 24, 32}, mine

    def test_leak_vs_happy_path_messages_differ(self, findings):
        mine = {f.line: f.message for f in findings
                if f.rule == "resource-lifecycle"}
        assert "never released" in mine[11]
        assert "happy path" in mine[17]
        assert "happy path" in mine[24]
        # close() without unlink() still leaks the segment itself.
        assert "unlink" in mine[32]

    def test_with_finally_and_transfer_pass(self, findings):
        mine = [f for f in findings if f.rule == "resource-lifecycle"]
        assert all(f.line < 40 for f in mine), mine
