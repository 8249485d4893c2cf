"""brauercat benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sieve --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the ``src/`` tree next to this
directory.  One run repeats passes of the workload, each in a fresh
interpreter (so the package's memo caches start empty, as for every CLI
call), until ``--seconds`` of passes are measured; it reports medians over
the passes.  A closed loop with one client: one single-threaded process at
a time, one operation after another.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead.  The first
pass of every run checks each output by an independent route; later passes
must reproduce its output byte for byte.  A line with the run's stamp
(Python version, git SHA, core count, seed, output digests, tracing
overhead, failures) precedes the result, which is the last line:

    {"correct": true, "attempted": 68, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5       # set-up is timed at least this often per run
PASS_TIMEOUT_S = 150    # one pass may not take longer than this
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class PassFailed(RuntimeError):
    """A worker process exited abnormally or printed no report."""


def run_pass(workload: str, seed: int, size: str, *, trace: bool = False,
             check: bool = False, setup_only: bool = False, spans: Path | None = None) -> dict:
    """Start one worker; returns its report with the set-up and total times added."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(int(trace)), "--check", str(int(check))]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT_DIR) as errors:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errors, text=True,
                                cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PASS_TIMEOUT_S)
            first = proc.stdout.readline() if ready else ""
            raw_setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(1.0, PASS_TIMEOUT_S - raw_setup_s))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise PassFailed(f"{workload} pass timed out after {PASS_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        total_s = time.perf_counter() - t0
        errors.seek(0)
        err = errors.read()
    tag, *probe = first.split() or [""]
    if tag != "ready" or proc.returncode != 0:
        raise PassFailed(f"{workload} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    report = {} if setup_only else json.loads(out.strip().splitlines()[-1])
    probe_spent, scale = map(float, probe)
    report["raw_setup_s"] = raw_setup_s
    report["setup_s"] = (raw_setup_s - probe_spent) * scale
    report["total_s"] = total_s
    return report


def failed_ops(report: dict, reference: dict) -> dict[str, str]:
    """Failures of one pass: its own, plus outputs that differ from the checked pass."""
    failures = dict(report["failures"])
    for label, digest, want in zip(report["labels"], report["op_sha256"],
                                   reference["op_sha256"]):
        if digest != want and label not in failures:
            failures[label] = "output differs from the checked pass"
    return failures


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str):
    """Run passes for ``seconds``; returns (result line, stamp)."""
    first = run_pass(workload, seed, size, check=True)
    untraced, traced = [first], []
    failures = dict(first["failures"])
    attempted, failed = first["ops"], len(first["failures"])
    spans_file = OUT_DIR / f"spans-{workload}.tsv"
    used = first["total_s"] - first["check_s"]
    while True:
        want_traced = trace and len(traced) < len(untraced)
        if traced or not want_traced:
            # Stop before a pass that would overrun the measuring time,
            # estimated from the last pass of the same kind.
            last = (traced if want_traced else untraced)[-1]
            if used + last["total_s"] - last["check_s"] > seconds:
                break
        report = run_pass(workload, seed, size, trace=want_traced,
                          spans=spans_file if want_traced and not traced else None)
        (traced if want_traced else untraced).append(report)
        problems = failed_ops(report, first)
        for label, why in problems.items():
            failures.setdefault(label, why)
        attempted += report["ops"]
        failed += len(problems)
        used += report["total_s"] - report["check_s"]

    starts = untraced + traced
    while len(starts) < SETUP_SAMPLES:
        starts.append(run_pass(workload, seed, size, setup_only=True))
    setups = [r["setup_s"] for r in starts]
    raw_setups = [r["raw_setup_s"] for r in starts]

    wall = median(r["wall_s"] for r in untraced)
    if trace:
        values = {key: median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        values["cli.output_bytes"] = traced[0]["output_bytes"]
        values["trace.overhead_s"] = median(r["wall_s"] for r in traced) - wall
    else:
        values = {
            "wall_s": wall,
            "largest_op_s": median(max(r["op_s"]) for r in untraced),
            "setup_s": median(setups),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in untraced),
            "ops_total": first["ops"],
        }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    stamp = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "stdout_sha256": first["stdout_sha256"],
        "ops_failed": failed,
        "failures": failures,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "untraced_wall_s": [r["wall_s"] for r in untraced],
        "untraced_raw_wall_s": [r["raw_wall_s"] for r in untraced],
        "speed_scale": [r["speed_scale"] for r in untraced + traced],
        "trace_overhead_s": None,   # measured by --trace 1 runs only
    }
    if trace:
        stamp.update({
            "traced_stdout_sha256": traced[0]["stdout_sha256"],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "traced_span_wall_s": traced[0]["raw_wall_s"] + traced[0]["probe_s"],
            "trace_overhead_s": values["trace.overhead_s"],
            "self_s_sum": sum(g["self_s"] for g in traced[0]["groups"].values()),
            "self_s_min": min(g["self_s"] for g in traced[0]["groups"].values()),
            "spans": traced[0]["spans"],
            "spans_file": str(spans_file.relative_to(ROOT)),
            "dropped": traced[0]["dropped"],
        })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small operations, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "brauercat" / "__init__.py").is_file():
        print(f"error: no brauercat source under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        result, stamp = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.size)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
