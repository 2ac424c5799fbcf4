"""The one fork decision and one-child fork of the greedy and exact root sweeps
and the engine's forward pass: the child runs the second half of the roots or
sources."""

import marshal
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

# POSIX's number for SIGKILL; `import signal` would add about 1 ms to start-up
_SIGKILL = 9


def may_fork() -> bool:
    """Whether a job may fork: the platform has `os.fork` and
    `os.sched_getaffinity`, the affinity set holds two or more CPUs, and
    the process runs no other thread, which a forked child would not have."""
    threading = sys.modules.get("threading")  # loaded by someone else, if at all
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading is not None and threading.active_count() > 1):
        return False
    try:  # threads started outside `threading`, as Python 3.12's fork warning counts them
        if len(os.listdir("/proc/self/task")) > 1:
            return False
    except OSError:  # no /proc: the `threading` check stands alone
        pass
    return len(os.sched_getaffinity(0)) > 1


def fork_join(run: Callable[[Iterable[int]], object], items: Sequence[int], what: str,
              work: int, threshold: int) -> list:
    """`[run(items)]`, or `[run(first half), run(second half)]` of `items`
    if there are two or more, `work` is at least `threshold` and `may_fork`
    allows (asked last: a job below its threshold never lists the threads),
    the second half run in a forked child that writes its marshalled result.

    The caller runs the first half (and the second too if the fork
    failed) while the child runs its half, then reads the pipe to its
    end and reaps the child.  The pipe starts with a status byte: 0 and
    the marshalled result, or 1 and the repr of the child's error, after
    which the caller raises RuntimeError naming `what` and the child's
    items; the exit status is only checked when the caller can still see
    it (not when it ignores SIGCHLD or reaps with `waitpid(-1)`).  A
    caller that fails or is interrupted kills and reaps the child first;
    a child whose caller was killed by a signal leaves before its next item.
    The child's `run` gets its items as an iterator that makes this check
    as each item is drawn, so a `run` should draw them as it goes: the
    sweep takes one root at a time, the engine one tile of sources.
    """
    if len(items) < 2 or work < threshold or not may_fork():
        return [run(items)]
    first, second = items[:len(items) // 2], items[len(items) // 2:]
    caller = os.getpid()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: both halves run here
        os.close(read)
        os.close(write)
        return [run(first), run(second)]
    if pid == 0:
        code = 1
        try:
            try:
                summary = run(_orphan_guard(second, caller))
                payload, status = b"\0" + marshal.dumps(summary), 0
            except BaseException as exc:  # the child's boundary: report, then exit
                payload, status = b"\1" + repr(exc).encode(), 1
            view = memoryview(payload)
            while view:
                view = view[os.write(write, view):]
            code = status
        finally:
            os._exit(code)  # never return into the caller's frames
    os.close(write)
    reaped = False
    try:
        results = [run(first)]
        chunks = []
        while chunk := os.read(read, 1 << 16):
            chunks.append(chunk)
        try:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except ChildProcessError:  # SIGCHLD ignored, or another reaper came first
            code = None
        reaped = True
        data = b"".join(chunks)
        if data[:1] != b"\0" or code:
            message = data[1:].decode(errors="replace") if data[:1] == b"\1" else "no message"
            ascending = list(second) == list(range(second[0], second[-1] + 1))
            named = f"{second[0]}-{second[-1]}" if ascending else ", ".join(map(str, second))
            raise RuntimeError(
                f"{what} {named} failed in a forked "
                f"process (exit status {'unknown' if code is None else code}): {message}")
        results.append(marshal.loads(memoryview(data)[1:]))
    finally:
        if not reaped:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:  # still running, so still ours
                    os.kill(pid, _SIGKILL)
                    os.waitpid(pid, 0)
            except OSError:  # reaped elsewhere meanwhile: its pid may name another process now
                pass
        os.close(read)
    return results


def _orphan_guard(items: Sequence[int], caller: int) -> Iterator[int]:
    """`items`, leaving the process at once when `caller` is no longer
    its parent: a caller killed by a signal cannot kill its children."""
    for item in items:
        if os.getppid() != caller:
            os._exit(1)
        yield item
