"""One pass of one workload in a fresh interpreter.

Started by ``run.py``.  It imports brauercat from the checkout's ``src``,
builds the seeded inputs, prints ``ready`` (the parent times set-up up to
that line), runs every operation with its stdout captured, optionally under
the span tracer, then checks the outputs outside the timed region and
prints one JSON report line.

    python3 perfbench/worker.py --workload sieve --seed 1 --trace 0 --check 1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def _calibration_chunk() -> int:
    """A fixed slice of interpreter-bound work: tuple keys, dict updates, int products."""
    table: dict = {}
    for i in range(4000):
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + i * i
    return sum(table.values())


class SpeedProbe:
    """Samples the interpreter's speed while a pass runs.

    The hosts this runs on share cores, and the speed of the same code
    varies by up to 2x within seconds.  Every ``interval`` seconds a timer
    signal runs one calibration chunk and records its duration; the probe's
    own time is excluded from every operation time, and a pass is scaled to
    the speed at which the chunk takes ``REFERENCE_CHUNK_S``.
    """

    REFERENCE_CHUNK_S = 0.0016   # about the chunk's time on a 2-vCPU x86-64 host, Python 3.11
    MIN_WINDOW = 10

    def __init__(self, interval: float = 0.04):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _calibration_chunk()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def scale(self, first: int, last: int) -> float:
        """Factor turning seconds measured while samples first..last-1 were
        taken into seconds at the reference speed.  A stretch with too few
        samples of its own is scaled by the whole pass's mean speed."""
        window = self.samples[first:last]
        if len(window) < self.MIN_WINDOW:
            window = self.samples
        if not window:
            return 1.0
        return self.REFERENCE_CHUNK_S * len(window) / sum(window)


def _run_op(op, cli_main) -> tuple[int, str, str]:
    """Run one operation; returns (exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(op.run) if isinstance(op.run, list) else (op.run() or 0)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that raises is a failed operation
            code = -1
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spans", help="write the traced spans to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (for timing set-up alone)")
    args = parser.parse_args(argv)

    # Set-up is short, so it is sampled more often than the operations.
    setup_probe = SpeedProbe(interval=0.01).start()
    sys.path.insert(0, str(ROOT / "src"))
    import brauercat
    import brauercat.cli
    import brauercat.expr  # noqa: F401  (used by the normal-form checks)
    if not Path(brauercat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"brauercat imported from {brauercat.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing
    import workloads

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, args.size, workdir)
        setup_probe.stop()
        # The parent times set-up up to this line; it removes the probe's
        # own time and scales the rest to the reference speed.
        print("ready", setup_probe.spent, setup_probe.scale(0, len(setup_probe.samples)),
              flush=True)
        if args.setup_only:
            return 0

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        cli_main = brauercat.cli.main
        raw_s, codes, outs, errs, windows = [], [], [], [], []
        with SpeedProbe() as probe:
            t_start = time.perf_counter()
            for i, op in enumerate(ops):
                if tracer:
                    tracer.op_id = i
                t0, spent0, n0 = time.perf_counter(), probe.spent, len(probe.samples)
                code, out, err = _run_op(op, cli_main)
                raw_s.append(time.perf_counter() - t0 - (probe.spent - spent0))
                codes.append(code)
                outs.append(out)
                errs.append(err)
                windows.append((n0, len(probe.samples)))
            raw_wall = time.perf_counter() - t_start - probe.spent
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
        op_s = [t * probe.scale(*window) for t, window in zip(raw_s, windows)]

        report = {
            "wall_s": sum(op_s),
            "op_s": op_s,
            "raw_wall_s": raw_wall,
            "probe_s": probe.spent,
            "speed_scale": probe.scale(0, len(probe.samples)),
            "peak_rss_mib": peak_rss_mib,
            "ops": len(ops),
            "labels": [op.label for op in ops],
            "op_sha256": [hashlib.sha256(out.encode()).hexdigest() for out in outs],
            "stdout_sha256": hashlib.sha256("".join(outs).encode()).hexdigest(),
            "output_bytes": sum(len(out.encode()) for out in outs),
            "failures": {op.label: f"exit {code}: {err.strip()[-300:]}"
                         for op, code, err in zip(ops, codes, errs) if code != 0},
        }
        t_check = time.perf_counter()
        if args.check:
            outputs = {op.label: out for op, out in zip(ops, outs)}
            for op, out in zip(ops, outs):
                if op.label in report["failures"]:
                    continue
                try:
                    problem = op.check(out, outputs)
                except Exception as exc:  # a check that cannot read the output fails it
                    problem = f"check raised {type(exc).__name__}: {exc}"
                if problem:
                    report["failures"][op.label] = problem
        report["check_s"] = time.perf_counter() - t_check
        if tracer:
            report["dropped"] = tracing.DROPPED
            report["layers"] = tracer.layer_metrics()
            report["groups"] = tracer.group_totals()
            report["spans"] = len(tracer.span_start)
            if args.spans:
                tracer.write_spans(args.spans)
        print(json.dumps(report), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
