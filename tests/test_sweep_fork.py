"""The forked greedy root sweep: the same results as one process, no
child left behind, and every serial fallback."""

import _thread
import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mret.forks
from mret import astra
from mret.astra import best_root, exact_pair, greedy_pair, sweep_blocks
from mret.errors import ScaleLimitError
from mret.generators import gen_fig3, gen_random_sc
from mret.solvers import solve_arborescence


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for_one_thread():
    """Wait until a finished thread has left the OS's thread list too."""
    deadline = time.monotonic() + 10
    while len(os.listdir("/proc/self/task")) > 1:
        assert time.monotonic() < deadline
        time.sleep(0.01)


@contextlib.contextmanager
def forking(on: bool, cpus: int = 2):
    """Force the greedy sweep to fork with `cpus` CPUs in the affinity set
    (`on`) or to stay in this process; yields the list that counts the
    forks made."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(astra, "FORK_WORK_THRESHOLD", 0 if on else 10**18)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mp.setattr(os, "fork", counted_fork)
        yield forks
    assert_no_children()


def both_ways(sweep):
    """`sweep()` forced to fork and forced serial; both results."""
    with forking(True) as forks:
        forked = sweep()
    assert forks
    with forking(False) as forks:
        serial = sweep()
    assert not forks
    return forked, serial


def arb_and_greedy(g, seed=0):
    return solve_arborescence(g, seed=seed).to_json(), best_root(g, "greedy", seed).to_json()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_forked_sweeps_equal_the_serial_ones(data):
    n = data.draw(st.integers(2, 14))
    extra = data.draw(st.integers(0, min(40, n * (n - 2))))
    g = gen_random_sc(n, extra, seed=data.draw(st.integers(0, 2**16)))
    seed = data.draw(st.integers(0, 3))
    forked, serial = both_ways(lambda: arb_and_greedy(g, seed))
    assert forked == serial


def test_bench_graphs_forked_equal_serial():
    for g in (gen_random_sc(200, 600, seed=1), gen_fig3(100)[0]):
        forked, serial = both_ways(lambda: arb_and_greedy(g))
        assert forked == serial


def test_fixed_corpus_forked_equals_serial():
    graphs = [gen_fig3(k)[0] for k in range(1, 21)]
    graphs += [gen_random_sc(30, 60, seed=s) for s in range(10)]
    forked, serial = both_ways(lambda: [arb_and_greedy(g) for g in graphs])
    assert forked == serial


def test_blocks_partition_the_roots_in_order():
    g = gen_fig3(3)[0]
    roots = [5, 0, 7, 3, 9, 1, 2]
    for cpus, blocks in [(1, 1), (2, 2)]:
        with forking(True, cpus) as forks:
            out = sweep_blocks(g, roots, lambda pairs: [pair.root for pair in pairs])
        assert len(out) == blocks and len(forks) == blocks - 1
        assert [root for block in out for root in block] == roots


def test_a_wide_host_forks_one_child_for_the_second_half():
    g = gen_fig3(3)[0]
    with forking(True, cpus=64) as forks:
        out = sweep_blocks(g, [5, 0, 7, 3, 9, 1, 2],
                           lambda pairs: (os.getpid(), [pair.root for pair in pairs]))
    assert len(forks) == 1
    (caller, first), (child, second) = out
    assert caller == os.getpid() != child
    assert (first, second) == ([5, 0, 7], [3, 9, 1, 2])


def test_failing_child_block_raises_and_is_reaped(monkeypatch):
    g = gen_fig3(3)[0]
    greedy_best = astra._greedy_best

    def fails_late(root, orders, bounds):
        if root == g.node_count - 1:  # in the child's block
            raise ValueError("planted failure")
        return greedy_best(root, orders, bounds)

    monkeypatch.setattr(astra, "_greedy_best", fails_late)
    for sweep in (lambda: best_root(g, "greedy"), lambda: solve_arborescence(g)):
        with forking(True) as forks:
            with pytest.raises(RuntimeError, match="exit status 1.*planted failure"):
                sweep()
        assert forks


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_failing_parent_block_kills_its_children(monkeypatch, error):
    # the child's block outlasts the test's time limit unless it is killed
    g = gen_fig3(3)[0]
    greedy_best = astra._greedy_best

    def parent_fails(root, orders, bounds):
        if root == 0:
            raise error("parent fails")
        if root == g.node_count - 1:
            time.sleep(30)
        return greedy_best(root, orders, bounds)

    monkeypatch.setattr(astra, "_greedy_best", parent_fails)
    started = time.monotonic()
    with forking(True) as forks:
        with pytest.raises(error):
            best_root(g, "greedy")
    assert len(forks) == 1 and time.monotonic() - started < 20


def test_serial_fallbacks():
    g = gen_fig3(3)[0]
    want = arb_and_greedy(g)
    work = g.node_count * (g.node_count + g.edge_count)
    fallbacks = {
        "one CPU": lambda mp: mp.setattr(os, "sched_getaffinity", lambda pid: {0}),
        "no os.fork": lambda mp: mp.delattr(os, "fork"),
        "no os.sched_getaffinity": lambda mp: mp.delattr(os, "sched_getaffinity"),
        "below the threshold": lambda mp: mp.setattr(astra, "FORK_WORK_THRESHOLD", work + 1),
    }
    for name, fallback in fallbacks.items():
        with forking(True) as forks, pytest.MonkeyPatch.context() as mp:
            fallback(mp)
            assert arb_and_greedy(g) == want, name
        assert not forks, name
    with forking(True) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(astra, "FORK_WORK_THRESHOLD", work)
        assert arb_and_greedy(g) == want
    assert forks


def test_no_fork_while_other_threads_run():
    g = gen_fig3(3)[0]
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    with forking(True) as forks:
        waiter.start()
        try:
            assert threading.active_count() > 1
            assert arb_and_greedy(g) == arb_and_greedy(g)
        finally:
            release.set()
            waiter.join()
        assert not forks
        wait_for_one_thread()
        arb_and_greedy(g)
    assert forks


def test_no_fork_while_threads_unknown_to_threading_run():
    g = gen_fig3(3)[0]
    lock = _thread.allocate_lock()
    lock.acquire()
    done = _thread.allocate_lock()
    done.acquire()

    def wait():
        lock.acquire()
        done.release()

    _thread.start_new_thread(wait, ())
    try:
        assert threading.active_count() == 1
        with forking(True) as forks:
            arb_and_greedy(g)
        assert not forks
    finally:
        lock.release()
        assert done.acquire(timeout=10)
        wait_for_one_thread()


def test_single_roots_and_exact_sweeps_stay_serial(monkeypatch):
    g = gen_fig3(2)[0]
    asked = []
    may_fork = mret.forks.may_fork
    monkeypatch.setattr(mret.forks, "may_fork", lambda: asked.append(1) or may_fork())
    with forking(True) as forks:
        solve_arborescence(g, root=3)
        best_root(g, "exact", limit=g.edge_count)
        sweep_blocks(g, [4], lambda pairs: [pair.root for pair in pairs])
        greedy_pair(g, 3)
        exact_pair(g, 3, limit=g.edge_count)
    assert not forks and not asked
    with forking(False) as forks:  # below the work threshold: no thread check either
        arb_and_greedy(g)
    assert not forks and not asked


def test_a_failed_fork_runs_the_block_in_the_caller():
    g = gen_fig3(3)[0]
    want = arb_and_greedy(g)

    def no_process():
        raise BlockingIOError("Resource temporarily unavailable")

    with forking(True), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_process)
        assert arb_and_greedy(g) == want


def test_checks_run_once_before_any_fork(monkeypatch):
    # the work limit counts the whole sweep, not a block: two blocks of
    # three roots would each pass a limit of five roots' work
    g = gen_random_sc(6, 4, seed=1)
    monkeypatch.setattr(astra, "GREEDY_SWEEP_WORK_LIMIT", 5 * (6 + 10))
    for sweep in (lambda: best_root(g, "greedy"), lambda: solve_arborescence(g)):
        with forking(True) as forks:
            with pytest.raises(ScaleLimitError, match="6 roots over 6 nodes and 10 edges"):
                sweep()
        assert not forks
    monkeypatch.undo()
    calls = []
    connected = astra.is_strongly_connected
    monkeypatch.setattr(astra, "is_strongly_connected", lambda g: calls.append(1) or connected(g))
    with forking(True) as forks:
        best_root(g, "greedy")
        solve_arborescence(g)
    assert len(forks) == 2 and len(calls) == 2


@contextlib.contextmanager
def sigchld_ignored():
    """SIGCHLD set to SIG_IGN, as many daemons run: the kernel reaps every
    child itself, so the caller can never read an exit status."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


def test_forked_sweeps_work_while_sigchld_is_ignored(monkeypatch):
    g = gen_fig3(3)[0]
    with sigchld_ignored():
        forked, serial = both_ways(lambda: arb_and_greedy(g))
        assert forked == serial
        greedy_best = astra._greedy_best

        def fails(root, orders, bounds):
            if root == g.node_count - 1:  # in the child's block
                raise ValueError("planted failure")
            if root == 0:  # the caller's block ends after the child's
                time.sleep(0.2)
            return greedy_best(root, orders, bounds)

        monkeypatch.setattr(astra, "_greedy_best", fails)
        with forking(True) as forks:
            with pytest.raises(RuntimeError, match="exit status unknown.*planted failure"):
                best_root(g, "greedy")
        assert forks

        def caller_fails(root, orders, bounds):
            if root == 0:
                raise ValueError("caller fails")
            if root == g.node_count - 1:
                time.sleep(30)
            return greedy_best(root, orders, bounds)

        monkeypatch.setattr(astra, "_greedy_best", caller_fails)
        started = time.monotonic()
        with forking(True) as forks:
            with pytest.raises(ValueError, match="caller fails"):
                best_root(g, "greedy")
        assert forks and time.monotonic() - started < 20


def gone(pid: int) -> bool:
    """Whether process `pid` has ended (a zombie left to an adopter counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in "ZX"


def test_children_leave_when_their_caller_is_killed(tmp_path):
    # SIGKILL runs no cleanup in the caller: the child must notice on its own
    script = f"""
import os, time
import mret.forks
from mret import astra
from mret.generators import gen_fig3
astra.FORK_WORK_THRESHOLD = 0
os.sched_getaffinity = lambda pid: {{0, 1}}
caller, greedy_best = os.getpid(), astra._greedy_best
def slow(root, orders, bounds):
    if os.getpid() != caller:  # written whole, then renamed: a poll never reads it half done
        with open({str(tmp_path / "child.tmp")!r}, "w") as f:
            f.write(f"{{os.getpid()}}\\n")
        os.replace({str(tmp_path / "child.tmp")!r}, {str(tmp_path / "child")!r})
    time.sleep(0.1)
    return greedy_best(root, orders, bounds)
astra._greedy_best = slow
astra.best_root(gen_fig3(30)[0], "greedy")
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(astra.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    caller = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 20
        while not (tmp_path / "child").exists():
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child = int((tmp_path / "child").read_text().split()[0])
    finally:
        caller.kill()
        caller.wait()
    # the child's block of 49 roots would take about 5 s more
    deadline = time.monotonic() + 2
    while not gone(child):
        assert time.monotonic() < deadline, "the child outlived its killed caller"
        time.sleep(0.01)
