"""The fork protocol of `mret.forks`, through each of its callers, the
greedy and exact root sweeps, the engine's forward pass and its forward
and backward passes for per-source counts: forked, each answers as in
one process, names a failing child's items, leaves no child behind, and
stays in one process on every serial fallback.  A forked exact sweep
also keeps the serial sweep's work budget: it refuses exactly when the
serial sweep does, with the same message."""

import _thread
import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from operator import length_hint
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mret import astra, forks, reachability
from mret.astra import best_root, exact_pair, greedy_pair, sweep_blocks
from mret.cli import main
from mret.errors import ScaleLimitError
from mret.generators import gen_fig3, gen_random_sc
from mret.graphs import Digraph, Schedule, Temporalisation, format_digraph
from mret.reachability import (
    evaluate_schedule,
    reachability_counts,
    total_reachability,
)
from mret.solvers import solve_arborescence
from oracle import naive_reach_pairs


@contextlib.contextmanager
def forking(on: bool, cpus: int = 2):
    """Force both callers to fork with `cpus` CPUs in the affinity set
    (`on`), both thresholds at 0 as in `tests/corpus.py`, or to stay in
    this process; yields the list that counts the forks made."""
    made = []
    fork = os.fork

    def counted_fork():
        made.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(astra, "FORK_WORK_THRESHOLD", 0 if on else 10**18)
        mp.setattr(reachability, "FORK_BITS_THRESHOLD", 0 if on else 10**18)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mp.setattr(os, "fork", counted_fork)
        yield made
    with pytest.raises(ChildProcessError):  # no child left behind
        os.waitpid(-1, os.WNOHANG)


def both_ways(job):
    """`job()` forced to fork and forced serial; both results."""
    with forking(True) as made:
        forked = job()
    assert made
    with forking(False) as made:
        serial = job()
    assert not made
    return forked, serial


@contextlib.contextmanager
def sigchld_ignored(ignored: bool = True):
    """SIGCHLD set to SIG_IGN (if `ignored`), as many daemons run: the kernel
    reaps every child itself, so the caller can never read an exit status."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN) if ignored else None
    try:
        yield
    finally:
        if ignored:
            signal.signal(signal.SIGCHLD, previous)


def arb_and_greedy(g, seed=0):
    return solve_arborescence(g, seed=seed).to_json(), best_root(g, "greedy", seed).to_json()


def visits(g: Digraph, root: int) -> int:
    """The out-trees that the exact pair search from `root` visits."""
    budget = iter(range(10**9))
    astra._exact_best(g, root, budget)
    return 10**9 - length_hint(budget)


@dataclass(frozen=True)
class Caller:
    """A caller of `forks.fork_join`: `run()` does its job, whose
    per-item kernel is `module.<kernel>`, at `work` against
    `module.<threshold>`; `child` names the child's items, and `pilot`
    tells the kernel call that this process makes before the fork
    decision, if any, by its arguments."""

    module: object
    kernel: str
    threshold: str
    work: int
    child: str
    run: Callable[[], object]
    pilot: Callable[..., bool] = lambda *args: False


FIG3 = gen_fig3(3)[0]  # 17 nodes, 22 edges
SIZE = FIG3.node_count + FIG3.edge_count
# the exact search's visited out-trees from each root of FIG3: 99 for the
# pilot (root 0), 530 for the caller's half (roots 1-8) and 208 for the child's (9-16)
FIG3_VISITS = [visits(FIG3, root) for root in range(FIG3.node_count)]
RSC = gen_random_sc(12, 12, seed=2)
SWEEP = Caller(astra, "_greedy_best", "FORK_WORK_THRESHOLD", FIG3.node_count * SIZE,
               "greedy sweep of roots 8-16", lambda: arb_and_greedy(FIG3))
EXACT = Caller(astra, "_exact_best", "FORK_WORK_THRESHOLD",
               FIG3_VISITS[0] * FIG3.node_count * SIZE,  # the estimate from the pilot
               "exact sweep of roots 9-16",
               lambda: best_root(FIG3, "exact", limit=FIG3.edge_count).to_json(),
               lambda g, root, visits: root == 0)
ENGINE = Caller(reachability, "_propagate", "FORK_BITS_THRESHOLD",
                RSC.node_count * (RSC.node_count + RSC.edge_count), "forward pass of sources 6-11",
                lambda: total_reachability(RSC, Schedule(tuple(range(RSC.edge_count)))))
COUNTS = Caller(reachability, "_propagate", "FORK_BITS_THRESHOLD",
                2 * RSC.node_count * (RSC.node_count + RSC.edge_count),
                "forward and backward passes of sources 6-11",
                lambda: reachability_counts(RSC, Temporalisation(
                    tuple(1 + i % 3 for i in range(RSC.edge_count)))))


@pytest.fixture(params=[SWEEP, EXACT, ENGINE, COUNTS], ids=["sweep", "exact", "engine", "counts"])
def caller(request):
    return request.param


def plant(mp, caller: Caller, in_child=None, in_caller=None):
    """Call `in_child()` before each call of `caller`'s kernel in a forked
    child, and `in_caller()` before each one in this process but the pilot."""
    kernel, pid = getattr(caller.module, caller.kernel), os.getpid()

    def planted(*args):
        hook = in_caller if os.getpid() == pid else in_child
        if hook is not None and not (hook is in_caller and caller.pilot(*args)):
            hook()
        return kernel(*args)

    mp.setattr(caller.module, caller.kernel, planted)


def fail(error=ValueError):
    def fails():
        raise error("planted failure")
    return fails


def no_process():
    raise BlockingIOError("Resource temporarily unavailable")


# -- the protocol, through each caller

def test_forked_equals_serial_while_sigchld_is_ignored(caller):
    with sigchld_ignored():
        forked, serial = both_ways(caller.run)
    assert forked == serial


def test_a_failing_child_raises_naming_its_items(caller, monkeypatch):
    plant(monkeypatch, caller, in_child=fail())
    for ignored, status in ((False, "1"), (True, "unknown")):
        message = (f"{caller.child} failed in a forked process (exit status {status}): "
                   f"ValueError('planted failure')")
        with sigchld_ignored(ignored), forking(True) as made:
            with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
                caller.run()
        assert made


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_failing_caller_kills_its_child(caller, monkeypatch, error):
    # the child's half outlasts the test's time limit unless it is killed
    plant(monkeypatch, caller, in_child=lambda: time.sleep(30), in_caller=fail(error))
    for ignored in (False, True):
        started = time.monotonic()
        with sigchld_ignored(ignored), forking(True) as made:
            with pytest.raises(error, match="planted failure"):
                caller.run()
        assert len(made) == 1 and time.monotonic() - started < 20


LISTDIR = os.listdir  # reads the thread list while a case hides /proc from `os.listdir`


def no_proc(path):
    raise FileNotFoundError(2, "No such file or directory", path)


@contextlib.contextmanager
def other_thread(known: bool):
    """Another thread, started through `threading` (`known`) or through
    `_thread` alone, waits while the body runs."""
    release, done = threading.Event(), threading.Event()

    def wait():
        release.wait()
        done.set()

    if known:
        threading.Thread(target=wait).start()
    else:
        _thread.start_new_thread(wait, ())
    try:
        assert threading.active_count() == 1 + known
        yield
    finally:
        release.set()
        assert done.wait(10)
        deadline = time.monotonic() + 10  # until the OS's thread list drops it too
        while len(LISTDIR("/proc/self/task")) > 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)


FALLBACKS = {
    "one_cpu": lambda mp, caller: mp.setattr(os, "sched_getaffinity", lambda pid: {0}),
    "no_fork": lambda mp, caller: mp.delattr(os, "fork"),
    "no_sched_getaffinity": lambda mp, caller: mp.delattr(os, "sched_getaffinity"),
    "threads_known_to_threading": lambda mp, caller: other_thread(known=True),
    "threads_unknown_to_threading": lambda mp, caller: other_thread(known=False),
    # where the OS's thread list cannot be read, `threading` alone sees the thread
    "threads_known_to_threading_without_proc":
        lambda mp, caller: mp.setattr(os, "listdir", no_proc) or other_thread(known=True),
    "below_the_threshold":
        lambda mp, caller: mp.setattr(caller.module, caller.threshold, caller.work + 1),
}


@pytest.mark.parametrize("fallback", FALLBACKS)
def test_serial_fallbacks(caller, fallback):
    with forking(False):
        want = caller.run()
    with forking(True) as made, pytest.MonkeyPatch.context() as mp:
        with FALLBACKS[fallback](mp, caller) or contextlib.nullcontext():
            assert caller.run() == want
    assert not made


def test_forks_at_the_threshold_and_a_failed_fork_runs_in_the_caller(caller):
    with forking(False):
        want = caller.run()
    with forking(True) as made, pytest.MonkeyPatch.context() as mp:
        mp.setattr(caller.module, caller.threshold, caller.work)
        assert caller.run() == want and made
        mp.setattr(os, "fork", no_process)  # both halves run here
        assert caller.run() == want


# -- the greedy sweep

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
    graphs = [gen_random_sc(200, 600, seed=1), gen_fig3(100)[0]]
    forked, serial = both_ways(lambda: [arb_and_greedy(g) for g in graphs])
    assert forked == serial


def test_fixed_corpus_forked_equals_serial():
    graphs = [gen_fig3(k)[0] for k in range(1, 21)]
    graphs += [gen_random_sc(30, 60, seed=s) for s in range(10)]
    forked, serial = both_ways(lambda: [arb_and_greedy(g) for g in graphs])
    assert forked == serial


ROOTS, HALVES = [5, 0, 7, 3, 9, 1, 2], [[5, 0, 7], [3, 9, 1, 2]]


def check_blocks(cpus, blocks):
    with forking(True, cpus) as made:
        out = sweep_blocks(FIG3, ROOTS,
                           lambda pairs: (os.getpid(), [pair.root for pair in pairs]))
    assert [block for _, block in out] == blocks and len(made) == len(blocks) - 1
    assert out[0][0] == os.getpid() and all(pid != os.getpid() for pid, _ in out[1:])


def test_blocks_partition_the_roots_in_order():
    for cpus, blocks in [(1, [ROOTS]), (2, HALVES)]:
        check_blocks(cpus, blocks)


def test_a_wide_host_forks_one_child_for_the_second_half():
    check_blocks(64, HALVES)


def test_a_failing_child_names_a_half_out_of_order(monkeypatch):
    plant(monkeypatch, SWEEP, in_child=fail())
    with forking(True):
        with pytest.raises(RuntimeError, match=r"^greedy sweep of roots 3, 9, 1, 2 failed in a "
                                               r"forked process \(exit status 1\)"):
            sweep_blocks(FIG3, [5, 0, 7, 3, 9, 1, 2], list)


THRESHOLD = astra.FORK_WORK_THRESHOLD


def test_single_roots_and_small_exact_sweeps_stay_serial(monkeypatch):
    g = gen_fig3(2)[0]
    asked = []
    may_fork = forks.may_fork
    monkeypatch.setattr(forks, "may_fork", lambda: asked.append(1) or may_fork())
    with forking(True) as made:
        solve_arborescence(g, root=3)
        sweep_blocks(g, [4], lambda pairs: [pair.root for pair in pairs])
        sweep_blocks(g, [4], lambda pairs: [pair.root for pair in pairs], "exact", limit=19)
        greedy_pair(g, 3)
        exact_pair(g, 3, limit=g.edge_count)
    assert not made and not asked
    with forking(False) as made:  # below the work threshold: no thread check either
        arb_and_greedy(g)
    assert not made and not asked
    # an exact sweep forks from its estimate, the pilot's visits * roots *
    # (nodes + edges), at the threshold in force: fig3 k = 1 and random-sc
    # n = 5 + 4 estimate 13,365 and 350 units, fig3 k = 5 198,237
    with forking(True) as made, pytest.MonkeyPatch.context() as mp:
        mp.setattr(astra, "FORK_WORK_THRESHOLD", THRESHOLD)
        for small in (gen_fig3(1)[0], gen_random_sc(5, 4, seed=1)):
            best_root(small, "exact", limit=small.edge_count)
        assert not made and not asked
        best_root(gen_fig3(5)[0], "exact", limit=28)
        assert len(made) == 1 and asked


def test_checks_run_once_before_any_fork(monkeypatch):
    # the work limit counts the whole sweep, not a block: two blocks of
    # three roots would each pass a limit of five roots' work
    g = gen_random_sc(6, 4, seed=1)
    monkeypatch.setattr(astra, "GREEDY_SWEEP_WORK_LIMIT", 5 * (6 + 10))
    for sweep in (lambda: best_root(g, "greedy"), lambda: solve_arborescence(g)):
        with forking(True) as made:
            with pytest.raises(ScaleLimitError, match="6 roots over 6 nodes and 10 edges"):
                sweep()
        assert not made
    monkeypatch.undo()
    calls = []
    connected = astra.is_strongly_connected
    monkeypatch.setattr(astra, "is_strongly_connected", lambda g: calls.append(1) or connected(g))
    with forking(True) as made:
        best_root(g, "greedy")
        solve_arborescence(g)
    assert len(made) == 2 and len(calls) == 2


def gone(pid: int) -> bool:
    """Whether process `pid` has ended (a zombie left to an adopter counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in "ZX"


# what a killed caller runs, one kernel call per root or per source: the
# child's half of 49 roots of fig3 k = 30 (the greedy sweep's or the exact
# one's), or of 50 sources, each tile holding one source, would take about
# 5 s more at 0.1 s a call
KILLED_JOBS = {
    "sweep": ("astra", "_greedy_best", 'astra.best_root(gen_fig3(30)[0], "greedy")'),
    "exact": ("astra", "_exact_best", "g = gen_fig3(30)[0]\n"
              'astra.best_root(g, "exact", limit=g.edge_count)'),
    "engine": ("reachability", "_propagate", "g = gen_random_sc(100, 100, seed=1)\n"
               "reachability.total_reachability(g, Schedule(tuple(range(g.edge_count))))"),
}


def test_children_leave_when_their_caller_is_killed(tmp_path):
    # SIGKILL runs no cleanup in the caller: the child must notice on its
    # own, before its next root or its next tile of sources
    for job, (module, kernel, call) in KILLED_JOBS.items():
        check_child_leaves(tmp_path / job, module, kernel, call)


def check_child_leaves(tmp_path: Path, module: str, kernel: str, call: str):
    """Run `call` with `module.kernel` slowed, forked, in a caller that is
    SIGKILLed once the child has called the kernel; the child must end
    within 2 s."""
    tmp_path.mkdir()
    script = f"""
import os, time
from mret import astra, reachability
from mret.generators import gen_fig3, gen_random_sc
from mret.graphs import Schedule
astra.FORK_WORK_THRESHOLD = reachability.FORK_BITS_THRESHOLD = 0
reachability.TILE_BITS = 1
os.sched_getaffinity = lambda pid: {{0, 1}}
caller, kernel = os.getpid(), {module}.{kernel}
def slow(*args):
    if os.getpid() != caller:  # written whole, then renamed: a poll never reads it half done
        with open({str(tmp_path / "child.tmp")!r}, "w") as f:
            f.write(f"{{os.getpid()}}\\n")
        os.replace({str(tmp_path / "child.tmp")!r}, {str(tmp_path / "child")!r})
    time.sleep(0.1)
    return kernel(*args)
{module}.{kernel} = slow
{call}
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
    deadline = time.monotonic() + 2
    while not gone(child):
        assert time.monotonic() < deadline, "the child outlived its killed caller"
        time.sleep(0.01)


# -- the exact sweep

def exact_outcome(g: Digraph, roots=None) -> object:
    """The exact sweep's per-root min-sizes, or its refusal's message."""
    roots = range(g.node_count) if roots is None else roots
    try:
        return sum(sweep_blocks(g, roots, lambda pairs: [pair.min_size for pair in pairs],
                                "exact", limit=g.edge_count), [])
    except ScaleLimitError as exc:
        return str(exc)


def out_of_work(g: Digraph) -> str:
    return (f"exact pair search infeasible at this scale: its out-trees over {g.node_count} "
            f"nodes and {g.edge_count} edges pass the work limit of "
            f"{astra.EXACT_PAIR_WORK_LIMIT} units")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_forked_exact_sweeps_equal_the_serial_ones(data):
    # the reports, and under a budget drawn up to twice the sweep's visits
    # the verdicts and messages too
    n = data.draw(st.integers(3, 10))
    extra = data.draw(st.integers(0, min(12, n * (n - 2))))
    g = gen_random_sc(n, extra, seed=data.draw(st.integers(0, 2**16)))
    forked, serial = both_ways(lambda: best_root(g, "exact", limit=g.edge_count).to_json())
    assert forked == serial
    total = sum(visits(g, root) for root in range(n))
    budget = data.draw(st.integers(1, 2 * total))
    with pytest.MonkeyPatch.context() as mp:
        size = n + g.edge_count
        units = budget * size + data.draw(st.integers(0, size - 1))  # the visits are units // size
        mp.setattr(astra, "EXACT_PAIR_WORK_LIMIT", units)
        with forking(True):
            forked = exact_outcome(g)
        with forking(False):
            serial = exact_outcome(g)
        assert forked == serial == (out_of_work(g) if budget < total else
                                    list(best_root(g, "exact", limit=g.edge_count).per_root))


def test_forked_exact_sweeps_give_the_single_root_pairs():
    def pairs(block):
        return [(p.root, sorted(p.out_edges), sorted(p.in_edges), p.out_depths, p.in_depths)
                for p in block]

    for g in (FIG3, RSC):
        roots = range(g.node_count)
        forked, serial = both_ways(lambda: sweep_blocks(g, roots, pairs, "exact",
                                                        limit=g.edge_count))
        # the pilot, root 0, is a block of its own, before the halves of the other roots
        assert len(forked) == 3 and len(serial) == 2 and forked[0] == serial[0] == pairs(
            [exact_pair(g, 0, limit=g.edge_count)])
        assert sum(forked, []) == sum(serial, []) == pairs(
            exact_pair(g, root, limit=g.edge_count) for root in roots)


def test_an_exact_sweep_whose_halves_fit_but_not_their_sum_refuses(monkeypatch, tmp_path, capsys):
    # one visit fewer than the sweep's 837: 737 are left after the pilot, in
    # which each half fits (530 and 208 visits) but not the two together
    total, left = sum(FIG3_VISITS), sum(FIG3_VISITS) - 1 - FIG3_VISITS[0]
    halves = sum(FIG3_VISITS[1:9]), sum(FIG3_VISITS[9:])
    assert max(halves) <= left < sum(halves)
    monkeypatch.setattr(astra, "EXACT_PAIR_WORK_LIMIT", (total - 1) * SIZE)
    message = out_of_work(FIG3)
    for on in (True, False):
        with forking(on) as made:
            assert exact_outcome(FIG3) == message
        assert len(made) == on
    (tmp_path / "fig3.digraph").write_text(format_digraph(FIG3))
    with forking(True) as made:
        assert main(["astra", str(tmp_path / "fig3.digraph"), "--limit", "22"]) == 2
    assert made and capsys.readouterr().err == f"error: {message}\n"


def test_an_exact_sweep_at_its_exact_budget_equals_the_serial_one(monkeypatch):
    want = best_root(FIG3, "exact", limit=FIG3.edge_count).to_json()
    monkeypatch.setattr(astra, "EXACT_PAIR_WORK_LIMIT", sum(FIG3_VISITS) * SIZE)
    assert both_ways(EXACT.run) == (want, want)


def test_a_child_out_of_visits_refuses_as_the_serial_sweep(monkeypatch):
    # roots 0, then 9, 10 in this process and 1, 2 in the child: the child's
    # 232 visits alone pass the 231 left after the pilot, the caller's 47 do not
    roots = [0, 9, 10, 1, 2]
    monkeypatch.setattr(astra, "EXACT_PAIR_WORK_LIMIT", (FIG3_VISITS[0] + 231) * SIZE)
    assert FIG3_VISITS[9] + FIG3_VISITS[10] <= 231 < FIG3_VISITS[1] + FIG3_VISITS[2]
    for on in (True, False):
        with forking(on) as made:
            assert exact_outcome(FIG3, roots) == out_of_work(FIG3)
        assert len(made) == on


# -- the engine's forward pass

@st.composite
def timed_graphs(draw, least: int = 0):
    """(graph, schedule or temporalisation with tied labels, labels): at
    least `least` and up to 9 nodes and 9 edges, self-loops and parallel
    edges included."""
    n = draw(st.integers(least, 9))
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


@settings(max_examples=40, deadline=None)
@given(timed_graphs(least=2))
@example((Digraph(4, ((0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 0))),
          Temporalisation((2,) * 7), [2] * 7))  # one run of equal times
def test_every_tile_width_equals_the_full_evaluation_and_the_oracle(case):
    # the forward tiles give the total and the backward ones each source's count
    g, timing, times = case
    n = g.node_count
    pairs = naive_reach_pairs(n, g.edges, times)
    want = len(pairs), tuple(sum(u == s for u, _ in pairs) for s in range(n))
    full = evaluate_schedule(g, timing)
    assert (full.total, full.per_source_counts) == want
    for tiles in range(1, n + 1):  # from full width to one source per tile
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reachability, "TILE_BITS", -(-n * n // tiles))
            assert reachability._tile_width(n) == -(-n // tiles)
            forked, serial = both_ways(lambda: (total_reachability(g, timing),
                                                reachability_counts(g, timing)))
        assert forked == serial == (want[0], want)


def test_odd_halves_on_a_larger_graph():
    # 301 nodes: the caller's half holds sources 0-149, the child's 150-300
    g = gen_random_sc(301, 900, seed=4)
    schedule = Schedule(tuple(reversed(range(g.edge_count))))
    ties = Temporalisation(tuple(1 + i % 7 for i in range(g.edge_count)))
    for timing in (schedule, ties):
        with forking(True) as made:
            assert total_reachability(g, timing) == evaluate_schedule(g, timing).total
        assert made


def test_the_halves_count_their_own_sources(monkeypatch):
    g = Digraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    seen = []
    propagate = reachability._propagate

    def recorded(reach, pairs, ends=None):
        seen.append((os.getpid(), list(reach)))
        return propagate(reach, pairs, ends)

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
    # two sources per tile: each tile starts its sources at bits 0-1
    monkeypatch.setattr(reachability, "TILE_BITS", 10)
    assert reachability._tile_width(5) == 2
    with forking(True):
        assert total_reachability(g, Schedule((0, 1, 2, 3))) == 15
    assert seen[4:] == [(os.getpid(), [1, 2, 0, 0, 0])]
    with forking(False):
        total_reachability(g, Schedule((0, 1, 2, 3)))
    assert seen[5:] == [(os.getpid(), reach) for reach in
                        ([1, 2, 0, 0, 0], [0, 0, 1, 2, 0], [0, 0, 0, 0, 1])]


def test_full_evaluations_and_refusals_never_fork(monkeypatch):
    # the library's full-width evaluations keep one process, and the tiled
    # passes refuse a timing that does not fit, or too much work, before
    # the fork decision
    asked = []
    may_fork = forks.may_fork
    monkeypatch.setattr(forks, "may_fork", lambda: asked.append(1) or may_fork())
    with forking(True) as made:
        evaluate_schedule(RSC, Schedule(tuple(range(RSC.edge_count))))
        evaluate_schedule(RSC, Temporalisation((1,) * RSC.edge_count))
        for evaluate in (total_reachability, reachability_counts):
            with pytest.raises(ValueError, match="not a permutation"):
                evaluate(RSC, Schedule((0,)))
        # one tile of sources: n + m units of work a pass
        monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT", RSC.node_count + RSC.edge_count - 1)
        with pytest.raises(ScaleLimitError):
            total_reachability(RSC, Schedule(tuple(range(RSC.edge_count))))
        monkeypatch.setattr(reachability, "EVAL_WORK_LIMIT",
                            2 * (RSC.node_count + RSC.edge_count) - 1)
        with pytest.raises(ScaleLimitError):
            reachability_counts(RSC, Schedule(tuple(range(RSC.edge_count))))
    assert not made and not asked


def test_eval_leaves_no_child_on_any_path(tmp_path):
    g = gen_random_sc(8, 6, seed=3)
    (tmp_path / "g.digraph").write_text(format_digraph(g))
    (tmp_path / "g.schedule").write_text(" ".join(map(str, range(g.edge_count))) + "\n")
    for flags in ([], ["--counts"]):
        argv = ["eval", str(tmp_path / "g.digraph"), str(tmp_path / "g.schedule"), *flags]
        with forking(True) as made:
            assert main(argv) == 0
        assert made
        for hooks, error in [({"in_child": fail()}, RuntimeError),
                             ({"in_child": lambda: time.sleep(30),
                               "in_caller": fail(KeyboardInterrupt)}, KeyboardInterrupt)]:
            with forking(True) as made, pytest.MonkeyPatch.context() as mp:
                plant(mp, ENGINE, **hooks)
                with pytest.raises(error):
                    main(argv)
            assert made
