"""The split state sum of ``bracket_parallel``: its shares, its helper
processes and what happens when one of them fails.

``bracket`` sums serially and is the oracle throughout.  Where a test
needs helpers whatever the host, ``_cpu_limit`` is patched to report four
CPUs, so that worker counts 2, 3 and 8 fork one, two and three helpers;
every such test releases its helpers when it ends.
"""

import importlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from vknots.ald import build_ald
from vknots.diagram import make_diagram, random_diagram
from vknots.laurent import LaurentPoly

B = importlib.import_module("vknots.bracket")  # the package's ``bracket`` is the function
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(B, "_cpu_limit", lambda: 4)
    yield
    B._release_helpers()


def _diagrams(seed: int, crossings, per_size: int):
    """Random diagrams with 1-3 components, every other one with an extra
    crossing-free component."""
    rng = random.Random(seed)
    out = []
    for c in crossings:
        for i in range(per_size):
            d = random_diagram(rng, c, components=1 + i % 3)
            if i % 2:
                d = make_diagram([list(comp) for comp in d.components] + [[]])
            out.append(d)
    return out


def _helper_pids() -> list[int]:
    return [h.pid for h in B._helpers]


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_split_matches_bracket(four_cpus):
    for d in _diagrams(31, range(B._SPLIT_MIN_CROSSINGS, 15), 3):
        expected = B.bracket(d)
        for workers in (1, 2, 3, 8):
            assert B.bracket_parallel(d, workers=workers) == expected
    assert len(B._helpers) == 3


def test_below_threshold_forks_nothing(four_cpus):
    for d in _diagrams(32, range(B._SPLIT_MIN_CROSSINGS), 2):
        assert B.bracket_parallel(d, workers=4) == B.bracket(d)
    assert B._helpers == []


def test_worker_count_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setattr(B, "_cpu_limit", lambda: 2)
    try:
        d = random_diagram(random.Random(33), 11)
        assert B.bracket_parallel(d, workers=8) == B.bracket(d)
        assert len(B._helpers) == 1
    finally:
        B._release_helpers()


@pytest.mark.parametrize("workers", [1.5, 2.5])
def test_non_int_worker_count_rejected(four_cpus, workers):
    """A worker count that is not an int is refused before the size check
    and before any helper is forked."""
    d = random_diagram(random.Random(41), 10)
    helpers = list(B._helpers)
    for max_crossings in (None, 1):
        with pytest.raises(TypeError, match="workers"):
            B.bracket_parallel(d, workers=workers, max_crossings=max_crossings)
    assert B._helpers == helpers


def test_prefix_shares_sum_to_state_histogram():
    """For every prefix length k, the histograms of the 2^k subtrees under
    the splice prefixes of the first k rows add up to the whole sum, both
    one prefix per walk and all prefixes in one walk."""
    checked = 0
    for d in _diagrams(34, range(1, 9), 4):
        g = build_ald(d)
        c = g.vertex_count
        task = B._open_task(g, c - 1)
        expected = B._state_histogram(g)
        for k in range(c):
            total_a, total_b = {}, {}
            for prefix in range(1 << k):
                hist_a, hist_b = B._walk(*task, k, [prefix])
                B._add(total_a, hist_a)
                B._add(total_b, hist_b)
            assert (total_a, total_b) == B._walk(*task, k, range(1 << k))
            merged = dict(total_a)
            B._add(merged, {(n_b + 1, loops): count for (n_b, loops), count in total_b.items()})
            assert merged == expected
            checked += 1
    assert checked > 100


def test_concurrent_callers_get_bracket(four_cpus):
    """Four threads call at once, sharing the helpers forked before they
    started, with a short switch interval so that they interleave often;
    with no helper running, a thread forks none and sums alone."""
    diagrams = _diagrams(35, (11, 12), 2)
    expected = [B.bracket(d) for d in diagrams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for warm in (True, False):
            B._release_helpers()
            if warm:
                B.bracket_parallel(diagrams[0], workers=2)
            pids = _helper_pids()
            results = [None] * len(diagrams)

            def work(i):
                results[i] = B.bracket_parallel(diagrams[i], workers=2)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(diagrams))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert results == expected
            assert _helper_pids() == pids
    finally:
        sys.setswitchinterval(interval)


def test_helpers_end_with_their_process():
    script = (
        "import importlib, json, random\n"
        "from vknots import random_diagram\n"
        "B = importlib.import_module('vknots.bracket')\n"
        "B._cpu_limit = lambda: 2\n"
        "B.bracket_parallel(random_diagram(random.Random(36), 12), workers=2)\n"
        "print(json.dumps([h.pid for h in B._helpers]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    pids = json.loads(proc.stdout)
    assert len(pids) == 1
    # reaped by the exit hook before the process ended, not later by the
    # system once the helper has seen its pipe close
    assert [pid for pid in pids if _exists(pid)] == []


def test_forked_child_leaves_parent_helpers_alone(four_cpus):
    """A process forked from one with helpers starts with none of them: it
    forks its own, and the parent's keep serving the parent."""
    first, second = _diagrams(40, (12,), 2)
    B.bracket_parallel(first, workers=2)
    pids = _helper_pids()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if not pid:
        ok = False
        try:
            ok = B._helpers == [] and B.bracket_parallel(second, workers=2) == B.bracket(second)
            ok = ok and len(B._helpers) == 1 and set(_helper_pids()).isdisjoint(pids)
            B._release_helpers()
        finally:
            os.write(write_end, b"1" if ok else b"0")
            os._exit(0)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 120)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        assert ready and os.read(read_end, 1) == b"1"
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    assert _helper_pids() == pids
    assert B.bracket_parallel(second, workers=2) == B.bracket(second)


def test_killed_helper_share_summed_by_caller(four_cpus):
    first, second, third = _diagrams(37, (12,), 3)
    assert B.bracket_parallel(first, workers=2) == B.bracket(first)
    (pid,) = _helper_pids()
    os.kill(pid, signal.SIGKILL)
    assert B.bracket_parallel(second, workers=2) == B.bracket(second)
    assert pid not in _helper_pids()
    # the next call forks a replacement and uses it
    assert B.bracket_parallel(third, workers=2) == B.bracket(third)
    assert len(_helper_pids()) == 1


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_interrupted_call_leaves_no_stale_result(four_cpus, monkeypatch, error):
    """An exception while the helpers sum discards them: a later call on
    another diagram forks fresh helpers and never reads a histogram that
    was computed for the interrupted call."""
    interrupted, later = _diagrams(38, (12,), 2)
    B.bracket_parallel(interrupted, workers=3)
    pids = _helper_pids()
    assert len(pids) == 2
    walk, caller = B._walk, os.getpid()

    def failing_walk(*args):
        if os.getpid() == caller:
            raise error("interrupted")
        return walk(*args)

    monkeypatch.setattr(B, "_walk", failing_walk)
    with pytest.raises(error):
        B.bracket_parallel(interrupted, workers=3)
    assert B._helpers == []
    monkeypatch.setattr(B, "_walk", walk)
    assert B.bracket_parallel(later, workers=3) == B.bracket(later)
    assert set(_helper_pids()).isdisjoint(pids)
    for pid in pids:
        assert not _exists(pid)


def test_skein_checks_raise_on_a_failed_identity(monkeypatch):
    """Both checks raise IdentityViolation rather than report a failure,
    which is why ``holds`` and ``difference_identity_holds`` are True in
    every report returned."""
    open_crossing = B._open_crossing

    def perturbed(*args):
        ctx, f, f_changed, f0, finf = open_crossing(*args)
        return ctx, f + LaurentPoly.one(), f_changed, f0, finf

    d = random_diagram(random.Random(39), 4)
    assert B.skein_identity_check(d, 1).holds
    assert B.finite_type_recursion_check(d, 1, order=2).difference_identity_holds
    monkeypatch.setattr(B, "_open_crossing", perturbed)
    with pytest.raises(B.IdentityViolation):
        B.skein_identity_check(d, 1)
    with pytest.raises(B.IdentityViolation):
        B.finite_type_recursion_check(d, 1, order=2)
