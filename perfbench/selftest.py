"""The benchmark's own test, on tiny inputs (about 15 s).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

It checks that a traced run emits every per-layer metric of BENCHMARK.json
(or names it as dropped, with a reason), that tracing leaves every output
byte-identical, that self times are non-negative and fit inside the traced
wall time, that an untraced run emits every end-to-end metric, that the
output checks reject wrong outputs, and that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import brauercat as bc  # noqa: E402
import brauercat.expr  # noqa: E402,F401
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _scratch() -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    return out


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def test_traced_runs_emit_every_layer_metric_and_change_no_output():
    wanted = {m["name"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        stamp, result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", "1", "--size", "tiny"))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, stamp["failures"]
        dropped = stamp["dropped"]
        assert all(reason.strip() for reason in dropped.values())
        assert set(result["metrics"]) | set(dropped) == wanted, workload
        assert not set(result["metrics"]) & set(dropped)
        assert stamp["traced_stdout_sha256"] == stamp["stdout_sha256"], workload
        assert stamp["self_s_min"] >= -1e-9, workload
        assert stamp["self_s_sum"] <= stamp["traced_span_wall_s"] + 1e-6, workload
        assert (ROOT / stamp["spans_file"]).is_file()


def test_untraced_run_emits_every_end_to_end_metric():
    stamp, result = _result(_run("--workload", "sieve", "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--size", "tiny"))
    assert result["correct"] and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0, spec["name"]
    for key in ("python", "git_sha", "nproc", "seed", "stdout_sha256"):
        assert key in stamp


def test_same_seed_same_output_other_seed_other_input():
    a, _ = _result(_run("--workload", "algebra", "--seed", "5", "--seconds", "1",
                        "--size", "tiny"))
    b, _ = _result(_run("--workload", "algebra", "--seed", "5", "--seconds", "1",
                        "--size", "tiny"))
    c, _ = _result(_run("--workload", "algebra", "--seed", "6", "--seconds", "1",
                        "--size", "tiny"))
    assert a["stdout_sha256"] == b["stdout_sha256"] != c["stdout_sha256"]


def test_checks_reject_wrong_outputs():
    with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
        ops = {op.label: op for op in workloads.build("sieve", 1, "tiny", Path(tmp))}
        op = ops["csp-verify X(3,2)"]
        good = "instance: X(3,2)\n  result: PASS\n  size: 14\n"
        assert op.check(good, {}) is None
        assert op.check(good.replace("size: 14", "size: 15"), {})
        assert op.check(good.replace("PASS", "FAIL"), {})

        ops = workloads.build("algebra", 1, "tiny", Path(tmp))
        nf = next(op for op in ops if op.label.startswith("normal-form narrow"))
        n = int(nf.run[-1])
        source = Path(nf.run[1]).read_text().strip()
        m = bc.expr.parse_morphism(source, Fraction(-2 * n))
        right = str(bc.normal_form(m, n))
        assert nf.check(right, {}) is None
        first, _, rest = right.partition(" + ")
        assert nf.check(rest or "0", {}), "a dropped term must fail the check"


def test_closed_form_evaluation_matches_ev_diagram():
    rng = random.Random(11)
    for n, points in ((1, 6), (2, 6), (2, 8)):
        for pairs in rng.sample(list(workloads._matchings_of(tuple(range(1, points + 1)))), 4):
            vectors = [[rng.randint(-50, 50) for _ in range(2 * n)] for _ in range(points)]
            tensor = bc.ev_diagram(workloads._diagram(pairs), n)
            contracted = 0
            for key, value in tensor.data.items():
                term = value
                for slot, index in enumerate(key):
                    term *= vectors[slot][index]
                contracted += term
            assert contracted == workloads.strand_pairing_value(pairs, n, vectors)
    g = bc.PfGenerator(1, 6, (1, 2, 4, 6), ((3, 5),))
    kernel = bc.pfaffian(g, Fraction(-2))
    assert bc.ev_morphism(kernel, 1).is_zero()
    assert workloads.evaluation_vanishes(kernel, 1, rng)
    single = bc.Morphism.from_diagram(workloads._diagram(((1, 2), (3, 4))), Fraction(-2))
    assert not workloads.evaluation_vanishes(single, 1, rng)


def test_refuses_to_run_without_the_source():
    with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("--workload", "sieve", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
