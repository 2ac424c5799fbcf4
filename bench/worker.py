"""The process that runs the timed operations.

Usage: python3 bench/worker.py SPEC.json

SPEC names the `mret` source directory, the operations of one round
(label, argv), the seconds to measure, whether to trace, and where to
write the result.  Each operation is an in-process `mret.cli.main(argv)`
call with stdout captured and the JSON `result` parsed: one client, a
closed loop, no threads.  One warm-up round comes first and gives the
reference answers; every later round must reproduce them.  In a traced
run, rounds alternate untraced and traced, so the tracing overhead is
measured in the same process.

Host normalisation: the host's speed swings by a third within seconds
and between runs, far beyond any bound a change could be judged by.  So
in timed rounds a fixed pure-Python loop (`calibrate`) is timed before
the first operation and after every operation, and each operation time
is also reported scaled by CALIB_REF_S over the mean of the two
calibration times around it: seconds on a host where the loop takes
CALIB_REF_S.  Raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, wrap_targets  # noqa: E402

CALIB_REF_S = 0.025


def calibrate() -> float:
    """Time a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


def call(main, argv):
    """Run one `mret` invocation; returns (seconds, result or None)."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        return 0.0, None
    if code != 0:
        print(f"mret {' '.join(argv)} exited {code}", file=sys.stderr)
        return elapsed, None
    return elapsed, json.loads(buf.getvalue())["result"]


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import mret
    import mret.cli

    ops = spec["ops"]
    tracer = Tracer()
    targets = wrap_targets(mret)
    traced_main = tracer.wrap(mret.cli.main, "cli.main")
    reference: dict[str, str | None] = {}
    results: dict[str, dict] = {}
    samples: dict[str, list[float]] = {label: [] for label, _ in ops}
    scaled: dict[str, list[float]] = {label: [] for label, _ in ops}
    calib: list[float] = []
    failed: dict[str, int] = {label: 0 for label, _ in ops}
    rounds = {"untraced": [], "traced": []}
    attempted = 0

    def one_round(timed: bool, traced: bool) -> None:
        nonlocal attempted
        main = traced_main if traced else mret.cli.main
        if timed:
            calib.append(calibrate())
        if traced:
            tracer.install(targets)
        total = 0.0
        try:
            for label, argv in ops:
                tracer.op += 1
                raw, result = call(main, argv)
                attempted += 1
                key = None if result is None else json.dumps(result, sort_keys=True)
                if label not in reference:
                    reference[label] = key
                    if result is not None:
                        results[label] = result
                if key is None or key != reference[label]:
                    failed[label] += 1
                if not timed:
                    continue
                calib.append(calibrate())
                host_s = raw * 2 * CALIB_REF_S / (calib[-2] + calib[-1])
                total += host_s
                if not traced:
                    samples[label].append(raw)
                    scaled[label].append(host_s)
        finally:
            tracer.uninstall()
        if timed:
            rounds["traced" if traced else "untraced"].append(total)
        tracer.round += 1

    one_round(timed=False, traced=False)
    begin = time.perf_counter()
    count = 0
    while True:
        one_round(timed=True, traced=bool(spec["trace"]) and count % 2 == 1)
        count += 1
        if time.perf_counter() - begin >= spec["seconds"] and (not spec["trace"] or count >= 2):
            break

    out = {
        "samples": samples,
        "scaled": scaled,
        "calib": calib,
        "rounds": rounds,
        "results": results,
        "attempted": attempted,
        "failed": failed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spec["trace"]:
        out["layers"] = tracer.layer_metrics()
        out["unwrapped"] = sorted(set(tracer.missing))
        tracer.write(spec["spans"])
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    out = run(spec)
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
