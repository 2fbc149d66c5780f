"""Tests of the benchmark itself, on reduced workload sizes.

    python3 perfbench/check_bench.py        (from the root of a checkout)

Checks that the tracer replaces every alias of every wrapped function,
that traced and untraced runs compute the same outputs (and prints the
tracing overhead per workload), that corrupted expectations show up as
failed operations, that the cold-cache rule and seed handling hold, and
that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import b1algebra  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few seconds."""
    monkeypatch.setattr(W, "CENSUS_SIZES", (2, 3, 4))
    for name, top in (("LATTICE_COUNTS", 5), ("MODULAR_COUNTS", 5),
                      ("DISTRIBUTIVE_COUNTS", 5), ("POSET_COUNTS", 4),
                      ("MONOID_COUNTS", 3), ("ABELIAN_GROUP_COUNTS", 3)):
        full = getattr(W, name)
        monkeypatch.setattr(W, name, {k: v for k, v in full.items() if k <= top})
    monkeypatch.setattr(W, "GROUPS", ((1,), (2,), (3,)))
    monkeypatch.setattr(W, "FREE_AUT_SIZES", (1, 2, 3))
    monkeypatch.setattr(W, "FREE_BRUTE_SIZES", (1, 2))
    monkeypatch.setattr(W, "QUERY_MIX", {k: max(1, v // 25) for k, v in W.QUERY_MIX.items()})
    W.clear_caches()
    yield
    W.clear_caches()


def _once(name, seed, tmp_path, tracer=None):
    W.clear_caches()
    wl = W.build(name, seed, str(tmp_path))
    if tracer is not None:
        tracer.install()
    try:
        return run.run_workload(W, wl, 0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_tracer_replaces_every_alias():
    canonical_tables = b1algebra.canonical.canonical_tables
    close = b1algebra.monogenic.close_presentation
    tracer = tracing.Tracer().install()
    try:
        assert tracer.uncovered() == []
        # a name imported by value into several modules
        for mod in (b1algebra.canonical, b1algebra.core_lattice, b1algebra.algebra,
                    b1algebra.monoid_functor):
            assert mod.canonical_tables.__wrapped__ is canonical_tables
        # called through another module's globals, and re-exported
        assert b1algebra.monogenic.close_presentation.__wrapped__ is close
        assert b1algebra.close_presentation is b1algebra.monogenic.close_presentation
    finally:
        tracer.uninstall()
    assert b1algebra.core_lattice.canonical_tables is canonical_tables
    assert b1algebra.close_presentation is close


def test_uncovered_reports_a_missed_alias():
    original = b1algebra.canonical.canonical_tables
    tracer = tracing.Tracer().install()
    stray = types.ModuleType("b1algebra._stray")
    stray.canonical_tables = original
    sys.modules["b1algebra._stray"] = stray
    try:
        assert tracer.uncovered() == [("b1algebra._stray", "canonical_tables")]
    finally:
        del sys.modules["b1algebra._stray"]
        tracer.uninstall()


def test_workload_names_match(small, tmp_path):
    for name in run.WORKLOAD_NAMES:
        assert W.build(name, 1, str(tmp_path)).repetition


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_matches_untraced(name, small, tmp_path, capsys):
    rec, reps, digest = _once(name, 7, tmp_path)
    tracer = tracing.Tracer()
    t_rec, t_reps, t_digest = _once(name, 7, tmp_path, tracer)
    run_s, traced_s = sum(reps[0]), sum(t_reps[0])
    assert rec.failed == 0 and t_rec.failed == 0, rec.failures + t_rec.failures
    assert t_digest == digest
    assert rec.attempted == t_rec.attempted
    calls = sum(stat[0] for stat in tracer.stats.values())
    assert calls > 0
    with capsys.disabled():
        print(f"\n{name}: untraced run_s {run_s:.4f}, traced {traced_s:.4f}, "
              f"overhead {traced_s - run_s:+.4f}s over {calls} traced calls")


def test_corrupted_expectations_fail(small, tmp_path, monkeypatch):
    monkeypatch.setitem(W.MONOGENIC_COUNTS, 3, 4)
    rec, _, _ = _once("census", 1, tmp_path)
    assert rec.failed == 1 and rec.attempted == 3
    monkeypatch.setitem(W.LATTICE_COUNTS, 5, 6)
    rec, _, _ = _once("sweep", 1, tmp_path)
    assert rec.failed / rec.attempted > 0
    evaluate = W._evaluate
    monkeypatch.setattr(W, "_evaluate", lambda alg, *args: alg.bottom)
    rec, _, _ = _once("queries", 1, tmp_path)
    assert rec.failed / rec.attempted > 0
    monkeypatch.setattr(W, "_evaluate", evaluate)
    monkeypatch.setattr(W, "NotCommutative", W.NoUnit)
    rec, _, _ = _once("queries", 1, tmp_path)
    assert rec.failed / rec.attempted > 0


def test_cold_cache_rule(small, tmp_path):
    W.assert_cold()
    _once("census", 1, tmp_path)
    with pytest.raises(W.BenchError):
        W.assert_cold()
    W.clear_caches()
    W.assert_cold()


def test_environment_seed_does_not_change_the_work(small, tmp_path, monkeypatch):
    digests = set()
    for env in ("1", "999"):
        monkeypatch.setenv("B1_SEED", env)
        digests.add(_once("queries", 5, tmp_path)[2])
    assert len(digests) == 1
    assert _once("queries", 6, tmp_path)[2] not in digests


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
