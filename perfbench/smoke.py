"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and checks that each
run prints every metric of ``BENCHMARK.json`` and every metric reported
only (the raw times, ``host.kernel_ms``, ``error_rate``) with its unit,
ends with a well-formed correct result and exits 0.  Then it checks that
the benchmark fails loudly: a statesum run against a reference with
corrupted digests must report failed ops and exit 1, and a copy of the
benchmark without the program beside it must exit nonzero without
printing a result.  Scratch files go under ``.bench_out/smoke``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "smoke"

sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, REFERENCE, REPORTED_ONLY  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=cwd)


def result_of(proc) -> dict:
    lines = proc.stdout.splitlines()
    assert lines, f"no output; stderr: {proc.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_declared_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END, (declared, END_TO_END)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == PER_LAYER, (declared, PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def check_run(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert result["correct"] and result["failed"] == 0, result
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, _value, unit = line.split()
            printed[name] = unit
    also = REPORTED_ONLY if trace == 0 else {"error_rate": REPORTED_ONLY["error_rate"]}
    assert printed == dict(expected, **also), printed
    assert any(line.startswith("env ") for line in proc.stdout.splitlines())
    print(f"ok  {workload} trace={trace}: {result['attempted']} ops")


def check_corrupted_reference() -> None:
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for pool in data["pools"].values():
        for entry in pool:
            entry[1] = entry[1][::-1]
    corrupt = SCRATCH / "statesum-corrupt.json"
    corrupt.write_text(json.dumps(data), encoding="utf-8")
    proc = bench("--workload", "statesum", "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--reference", str(corrupt))
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    result = result_of(proc)
    assert not result["correct"] and result["failed"] == result["attempted"], result
    print(f"ok  corrupted digests: {result['failed']} of {result['attempted']} ops failed")


def check_missing_program() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    shutil.rmtree(bare)
    print(f"ok  without the program: exit {proc.returncode}, no result")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    check_declared_metrics()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_corrupted_reference()
    check_missing_program()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
