"""Seeded benchmark of the `mret` command line.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: eval-large, search-small, arb-sweep, reduce-certify (see
bench/workloads.py for why each was chosen).  The run generates its
inputs from --seed into files and times a fresh `import mret.cli` (set-up,
repeated at least SETUP_MIN_REPS times and for SETUP_MIN_S seconds), starts
one worker process that runs the workload's `mret` invocations in a
closed loop for --seconds, checks every answer, and prints one line per
metric followed, as the last line, by a JSON object with the keys
correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:
set-up time, round time (the sum of the per-operation medians) and the
worker's peak RSS.  Both times are host-normalised (see bench/worker.py);
the raw medians are printed beside them.  With --trace 1 they are the per-layer ones, taken
from spans recorded around calls into each module (bench/tracing.py);
that run also states the tracing overhead.  Spans are written to
bench/.work/trace-<workload>-s<seed>.jsonl.

The program under test is imported from src/.  Without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from worker import CALIB_REF_S, calibrate, call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up of the small workloads takes tens of milliseconds, so it is
# repeated until SETUP_MIN_S have passed to give a steady median
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 15
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mret.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import mret.cli in a fresh interpreter (start-up excluded)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}, no percentile has ten samples beyond it"
    pct = math.floor(100 * (n - 10) / n)
    return f"n={n}, p{pct}={sorted(samples)[n - 11]:.6f}"


def cli_call(main, argv):
    _, result = call(main, argv)
    if result is None:
        raise RuntimeError(f"mret {' '.join(argv)} failed")
    return result


def derived_layers(results: dict, workdir: Path) -> dict[str, float]:
    """Per-layer values read off the answers: counts and solution quality."""
    out = {}
    if "exact" in results:
        out["solvers.exact_explored"] = results["exact"]["explored"]
    if "local" in results:
        out["solvers.local_explored"] = results["local"]["explored"]
        out["solvers.local_total"] = results["local"]["total"]
    if "arb" in results:
        arb = results["arb"]
        out["solvers.arb_roots_tried"] = arb["explored"]
        out["solvers.arb_total"] = arb["total"]
        out["solvers.arb_certificate_slack"] = arb["total"] / math.prod(arb["certificate"])
    if "astra_exact" in results:
        out["astra.exact_min_size"] = results["astra_exact"]["best_min"]
    if "astra_greedy" in results:
        out["astra.greedy_min_size"] = results["astra_greedy"]["best_min"]
        out["astra.greedy_ratio"] = results["astra_greedy"]["ratio"]
    if "reduce" in results:
        out["reduction.node_count"] = results["reduce"]["node_count"]
        out["reduction.edge_count"] = results["reduce"]["edge_count"]
        out["reduction.bytes_written"] = sum(
            p.stat().st_size for p in workdir.glob("inst.*"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mret" / "cli.py").is_file():
        print(f"error: no mret sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mret
    import mret.cli

    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    calib_start = calibrate()
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_tracer = Tracer()
        setup_times, setup_scaled = [], []
        while len(setup_times) < SETUP_MIN_REPS or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
            setup_tracer.round = len(setup_times)
            scale = CALIB_REF_S / calibrate()
            started = time.perf_counter()
            state = workload.generate(mret, args.seed, workdir, setup_tracer)
            setup_times.append(time.perf_counter() - started + import_seconds())
            setup_scaled.append(setup_times[-1] * scale)
        ops = workload.ops(state)
        spec = {
            "src": str(SRC),
            "ops": ops,
            "seconds": args.seconds,
            "trace": args.trace,
            "out": str(workdir / "worker.json"),
            "spans": str(WORK / f"trace-{workload.name}-s{args.seed}.jsonl"),
        }
        (workdir / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               str(workdir / "spec.json")], timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        out = json.loads((workdir / "worker.json").read_text())
        results = out["results"]

        check_tracer = Tracer()
        check_tracer.install([(mret, "check_pair", "astra.check_pair", None)])
        labels = [label for label, _ in ops]
        try:
            if set(results) != set(labels):
                # a workload's checks read all of its answers, so with one
                # missing none is checked
                problems = {label: ["no answer" if label not in results else "not checked"]
                            for label in labels}
            else:
                problems = workload.check(mret, state, results,
                                          lambda argv: cli_call(mret.cli.main, argv))
        except Exception as exc:
            problems = {label: [f"check raised {exc!r}"] for label in labels}
        finally:
            check_tracer.uninstall()
        failed = dict(out["failed"])
        executions = out["attempted"] // len(ops)
        for label, found in problems.items():
            for problem in found:
                print(f"check failed: {label}: {problem}", file=sys.stderr)
            if found:
                failed[label] = executions
        attempted = out["attempted"]
        n_failed = sum(failed.values())
        calib_end = calibrate()

        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "sizes": workload.sizes,
            "host.calib_s": [calib_start, calib_end],
            "calib_median_s": median(out["calib"]),
            "setup_raw_median_s": median(setup_times),
            "setup_reps": len(setup_times),
            "fail_ratio": n_failed / attempted,
        }
        print("record " + json.dumps(record))
        samples, scaled = out["samples"], out["scaled"]
        for name, (unit, label, key) in workload.report.items():
            if label not in results:
                continue
            if key is None:
                print(f"{name} {median(samples[label]):.6f} {unit} (raw median; "
                      f"host-normalised {median(scaled[label]):.6f}; {tail(samples[label])})")
            else:
                print(f"{name} {results[label][key]} {unit}")
        print(f"fail_ratio {n_failed / attempted:.6f} ratio ({n_failed}/{attempted})")

        if args.trace:
            layers = {}
            layers.update(setup_tracer.layer_metrics())
            layers.update(check_tracer.layer_metrics())
            layers.update(out["layers"])
            layers.update(derived_layers(results, workdir))
            layers["cli.self_s"] = layers.get("cli.main_s", 0.0)
            exact_s = layers.get("solvers.solve_exact_s", 0.0)
            if exact_s > 0:
                layers["solvers.evals_per_s"] = layers["solvers.exact_explored"] / exact_s
            traced, untraced = out["rounds"]["traced"], out["rounds"]["untraced"]
            layers["trace.overhead_ratio"] = median(traced) / median(untraced) - 1
            layers["host.calib_s"] = max(calib_start, calib_end)
            if out["unwrapped"]:
                print("unwrapped call sites: " + " ".join(out["unwrapped"]))
            wanted = spec_file["per_layer"]
        else:
            print(f"raw round_s {sum(median(samples[label]) for label in labels):.6f} s")
            layers = {
                "setup_s": median(setup_scaled),
                "round_s": sum(median(scaled[label]) for label in labels),
                "peak_rss_mb": out["maxrss_kb"] / 1024,
            }
            wanted = spec_file["end_to_end"]
        metrics = {}
        for m in wanted:
            value = layers.get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']} {value} {m['unit']}")
        print(json.dumps({
            "correct": n_failed == 0,
            "attempted": attempted,
            "failed": n_failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
