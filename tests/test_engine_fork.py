"""The forward pass forked over two source halves: the same totals as one
pass and the oracle, no child left behind, and every serial fallback."""

import contextlib
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sweep_fork import assert_no_children, sigchld_ignored, wait_for_one_thread

from mret import forks, reachability
from mret.cli import main
from mret.errors import ScaleLimitError
from mret.generators import gen_random_sc
from mret.graphs import Digraph, Schedule, Temporalisation, format_digraph
from mret.reachability import evaluate_schedule, evaluate_temporalisation, total_reachability
from oracle import naive_reach_pairs


@contextlib.contextmanager
def forking(on: bool, cpus: int = 2):
    """Force the forward pass to fork with `cpus` CPUs in the affinity set
    (`on`) or to stay in this process; yields the list that counts the
    forks made."""
    made = []
    fork = os.fork

    def counted_fork():
        made.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reachability, "FORK_BITS_THRESHOLD", 0 if on else 10**18)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mp.setattr(os, "fork", counted_fork)
        yield made
    assert_no_children()


@st.composite
def timed_graphs(draw):
    """(graph, schedule or temporalisation with tied labels, labels): up
    to 9 nodes and 9 edges, self-loops and parallel edges included."""
    n = draw(st.integers(0, 9))
    node = st.integers(0, max(n - 1, 0))
    edges = tuple(draw(st.lists(st.tuples(node, node), max_size=9 if n else 0)))
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(edges))))
        times = [0] * len(edges)
        for position, ei in enumerate(order):
            times[ei] = position + 1
        return Digraph(n, edges), Schedule(tuple(order)), times
    times = draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    return Digraph(n, edges), Temporalisation(tuple(times)), times


@settings(max_examples=80, deadline=None)
@given(timed_graphs())
def test_forked_pass_equals_the_serial_pass_and_the_oracle(case):
    g, timing, times = case
    with forking(True) as made:
        forked = total_reachability(g, timing)
    assert len(made) == (g.node_count > 1)
    with forking(False) as made:
        serial = total_reachability(g, timing)
    assert not made
    assert forked == serial == len(naive_reach_pairs(g.node_count, g.edges, times))


def test_odd_halves_on_a_larger_graph():
    # 301 nodes: the caller's half holds sources 0-149, the child's 150-300
    g = gen_random_sc(301, 900, seed=4)
    schedule = Schedule(tuple(reversed(range(g.edge_count))))
    ties = Temporalisation(tuple(1 + i % 7 for i in range(g.edge_count)))
    for timing, evaluate in ((schedule, evaluate_schedule), (ties, evaluate_temporalisation)):
        with forking(True) as made:
            assert total_reachability(g, timing) == evaluate(g, timing).total
        assert made


def test_the_halves_count_their_own_sources(monkeypatch):
    g = Digraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    seen = []
    propagate = reachability._propagate

    def recorded(n, edges, order, ends=None, reach=None):
        seen.append((os.getpid(), list(reach)))
        return propagate(n, edges, order, ends, reach)

    def no_process():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(reachability, "_propagate", recorded)
    with forking(True):
        assert total_reachability(g, Schedule((0, 1, 2, 3))) == 15
    # the child's record stays in the child; the caller ran sources 0-1 at bits 0-1
    assert seen == [(os.getpid(), [1, 2, 0, 0, 0])]
    with forking(True), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_process)  # both halves run here: sources 2-4 at bits 0-2
        assert total_reachability(g, Schedule((0, 1, 2, 3))) == 15
    assert seen[1:] == [(os.getpid(), [1, 2, 0, 0, 0]), (os.getpid(), [0, 0, 1, 2, 4])]
    with forking(False):
        total_reachability(g, Schedule((0, 1, 2, 3)))
    assert seen[3:] == [(os.getpid(), [1, 2, 4, 8, 16])]


def planted(fails_in_child: bool, error=ValueError, sleep_in_child: float = 0):
    """A `_propagate` that raises `error` in the child's half (source 0
    is the caller's) or in the caller's, the other half sleeping first."""
    propagate = reachability._propagate

    def kernel(n, edges, order, ends=None, reach=None):
        in_child = reach[0] == 0
        if in_child == fails_in_child:
            raise error("planted failure")
        if in_child:
            time.sleep(sleep_in_child)
        return propagate(n, edges, order, ends, reach)

    return kernel


def test_failing_child_raises_and_is_reaped(monkeypatch):
    g = gen_random_sc(6, 4, seed=1)
    monkeypatch.setattr(reachability, "_propagate", planted(fails_in_child=True))
    with forking(True) as made:
        with pytest.raises(RuntimeError, match=r"^forward pass of sources 3-5 failed in a forked "
                                               r"process \(exit status 1\): .*planted failure"):
            total_reachability(g, Schedule(tuple(range(g.edge_count))))
    assert made
    with sigchld_ignored(), forking(True) as made:
        with pytest.raises(RuntimeError, match="exit status unknown.*planted failure"):
            total_reachability(g, Schedule(tuple(range(g.edge_count))))
    assert made


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_failing_caller_kills_its_child(monkeypatch, error):
    # the child's half outlasts the test's time limit unless it is killed
    g = gen_random_sc(6, 4, seed=1)
    monkeypatch.setattr(reachability, "_propagate",
                        planted(fails_in_child=False, error=error, sleep_in_child=30))
    started = time.monotonic()
    with forking(True) as made:
        with pytest.raises(error, match="planted failure"):
            total_reachability(g, Schedule(tuple(range(g.edge_count))))
    assert len(made) == 1 and time.monotonic() - started < 20


def test_serial_fallbacks():
    g = gen_random_sc(12, 12, seed=2)
    schedule = Schedule(tuple(range(g.edge_count)))
    want = evaluate_schedule(g, schedule).total
    work = g.node_count * (g.node_count + g.edge_count)
    fallbacks = {
        "one CPU": lambda mp: mp.setattr(os, "sched_getaffinity", lambda pid: {0}),
        "no os.fork": lambda mp: mp.delattr(os, "fork"),
        "no os.sched_getaffinity": lambda mp: mp.delattr(os, "sched_getaffinity"),
        "below the threshold": lambda mp: mp.setattr(reachability, "FORK_BITS_THRESHOLD",
                                                     work + 1),
    }
    for name, fallback in fallbacks.items():
        with forking(True) as made, pytest.MonkeyPatch.context() as mp:
            fallback(mp)
            assert total_reachability(g, schedule) == want, name
        assert not made, name
    with forking(True) as made, pytest.MonkeyPatch.context() as mp:
        mp.setattr(reachability, "FORK_BITS_THRESHOLD", work)
        assert total_reachability(g, schedule) == want
    assert made


def test_no_fork_while_other_threads_run():
    g = gen_random_sc(12, 12, seed=2)
    schedule = Schedule(tuple(range(g.edge_count)))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    with forking(True) as made:
        waiter.start()
        try:
            want = total_reachability(g, schedule)
        finally:
            release.set()
            waiter.join()
        assert not made
        wait_for_one_thread()
        assert total_reachability(g, schedule) == want
    assert made


def test_a_failed_fork_runs_both_halves_in_the_caller():
    g = gen_random_sc(12, 12, seed=2)
    schedule = Schedule(tuple(range(g.edge_count)))
    want = evaluate_schedule(g, schedule).total

    def no_process():
        raise BlockingIOError("Resource temporarily unavailable")

    with forking(True), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_process)
        assert total_reachability(g, schedule) == want


def test_full_evaluations_and_refusals_never_fork(monkeypatch):
    # --counts needs the full-width reach sets: it keeps one process
    g = gen_random_sc(12, 12, seed=2)
    asked = []
    may_fork = forks.may_fork
    monkeypatch.setattr(forks, "may_fork", lambda: asked.append(1) or may_fork())
    with forking(True) as made:
        evaluate_schedule(g, Schedule(tuple(range(g.edge_count))))
        evaluate_temporalisation(g, Temporalisation((1,) * g.edge_count))
        with pytest.raises(ValueError, match="not a permutation"):
            total_reachability(g, Schedule((0,)))
        monkeypatch.setattr(reachability, "REACH_BITS_LIMIT", 143)
        with pytest.raises(ScaleLimitError):
            total_reachability(g, Schedule(tuple(range(g.edge_count))))
    assert not made and not asked


def test_eval_leaves_no_child_on_any_path(tmp_path, monkeypatch, capsys):
    g = gen_random_sc(8, 6, seed=3)
    (tmp_path / "g.digraph").write_text(format_digraph(g))
    (tmp_path / "g.schedule").write_text(" ".join(map(str, range(g.edge_count))) + "\n")
    argv = ["eval", str(tmp_path / "g.digraph"), str(tmp_path / "g.schedule")]
    with forking(True) as made:
        assert main(argv) == 0
    assert made
    for kernel, error in [(planted(True), RuntimeError),
                          (planted(False, KeyboardInterrupt, 30), KeyboardInterrupt)]:
        with forking(True) as made, pytest.MonkeyPatch.context() as mp:
            mp.setattr(reachability, "_propagate", kernel)
            with pytest.raises(error):
                main(argv)
        assert made
