"""vknots benchmark runner.

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload statesum --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout and nowhere else.  With ``--workload`` one workload runs
in this process and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs in a fresh
process, once untraced and once traced.  The exit code is 1 when any
output was wrong and 2 when the program cannot be found.

Load is closed-loop from one client: the next op starts when the previous
one has returned and been checked.  The only other threads are the
``workers=nproc`` threads of ``bracket_parallel``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference" / "statesum.json"

sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed, NOMINAL_KERNEL_S, kernel_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> unit.  These are the metrics of the result and of BENCHMARK.json.
# Their times are nominal seconds (see hostspeed.py): raw times of the
# same code move by a fifth from minute to minute on a shared host.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed as metric lines but left out of the result: the raw times, the
# reference kernel's time that converts them, and error_rate, which is 0
# on every correct run (the result carries it as failed/attempted) while
# the result's metrics must never be 0.
REPORTED_ONLY = {
    "raw.setup_s": "s",
    "raw.ops_per_s": "1/s",
    "raw.latency_p50_ms": "ms",
    "raw.latency_p90_ms": "ms",
    "host.kernel_ms": "ms",
    "error_rate": "ratio",
}
PER_LAYER = {
    "bracket.calls": "count",
    "bracket.self_s": "s",
    "bracket.states": "count",
    "bracket.states_per_s": "1/s",
    "bracket.parallel_speedup": "ratio",
    "bracket.repeat_share": "ratio",
    "laurent.mul_calls": "count",
    "laurent.self_s": "s",
    "laurent.f_terms": "terms",
    "ald.calls": "count",
    "ald.self_s": "s",
    "ald.colorable_share": "ratio",
    "diagram.calls": "count",
    "diagram.self_s": "s",
    "verify.diagrams": "count",
    "verify.enumerate_s": "s",
    "verify.self_s": "s",
    "bench.self_s": "s",
    "trace.self_s": "s",
    "trace.accounted_share": "ratio",
    "trace.overhead_share": "ratio",
}

SPAN_FILE_LIMIT = 100_000  # spans written per traced run; all are aggregated
# Fresh processes per run, half before and half after the measured loop
# so that they sample the host at different times; setup_s is their median.
SETUP_PROBES = 10


class ProgramMissing(Exception):
    pass


def load_vknots():
    """Import vknots from this checkout's ``src`` and nowhere else."""
    if not (SRC / "vknots" / "__init__.py").is_file():
        raise ProgramMissing(f"no vknots package under {SRC}")
    sys.path.insert(0, str(SRC))
    import vknots

    if Path(vknots.__file__).resolve().parent != SRC / "vknots":
        raise ProgramMissing(f"vknots imported from {vknots.__file__}, not {SRC}")
    return vknots


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def environment() -> dict:
    """What decides the numbers: the state-sum engine is numba's compiled
    kernel when numba is importable, else the pure Python loop, and the
    two are never comparable."""
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": have_numba,
        "engine": "numba" if have_numba else "python",
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement


class Phase:
    def __init__(self):
        self.latencies: list[float] = []
        self.elapsed: list[float] = []  # per iteration
        self.midpoints: list[float] = []  # per iteration
        self.failed = 0
        self.errors: list[str] = []
        self.nominal_latencies: list[float] = []
        self.nominal_wall = 0.0
        self.kernel: list[float] = []  # reference kernel probes

    @property
    def wall(self) -> float:
        return sum(self.elapsed)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.wall

    @property
    def nominal_ops_per_s(self) -> float:
        return self.attempted / self.nominal_wall


def measure(workload, seconds: float, tracer=None) -> Phase:
    """Closed loop: run ops until the workload is done, which is when
    ``seconds`` have passed (a sweep ends at a pass boundary).

    ``wall`` sums the loop iterations: making the input, the op and the
    check.  The reference kernel runs between iterations, outside
    ``wall``, and every time is also converted to nominal seconds at the
    iteration's midpoint.  Traced, each iteration is one root span;
    making the input and checking the output are the benchmark's own
    time."""
    if tracer is None:
        iteration = paused = nullcontext
    else:
        iteration = lambda: tracer.span("bench", "bench.op")  # noqa: E731
        paused = tracer.paused
    clock = time.perf_counter
    host = HostSpeed()
    phase = Phase()
    workload.start_phase()
    start = clock()
    while not workload.done(clock() - start, seconds):
        host.probe()
        begin = clock()
        with iteration():
            with paused():
                inp = workload.next_input()
            if inp is None:
                break
            t0 = clock()
            try:
                out, exc = workload.run(inp), None
            except Exception as e:  # a raised op is a failed op, not a crash
                out, exc = None, e
            latency = clock() - t0
            with paused():
                errors = [f"{type(exc).__name__}: {exc}"] if exc else workload.check(inp, out)
        elapsed = clock() - begin
        phase.latencies.append(latency)
        phase.elapsed.append(elapsed)
        phase.midpoints.append(begin + elapsed / 2)
        if errors:
            phase.failed += 1
            phase.errors.extend(errors)
    host.probe(force=True)
    factors = host.factors(phase.midpoints)
    phase.nominal_latencies = [x * f for x, f in zip(phase.latencies, factors)]
    phase.nominal_wall = sum(x * f for x, f in zip(phase.elapsed, factors))
    phase.kernel = host.kernel
    return phase


def probe_setup(name: str, seed: int, reference: Path) -> dict:
    """Import of vknots plus one warm-up op, timed in this fresh process,
    with the nominal seconds per raw second around it."""
    kernel = [kernel_seconds() for _ in range(3)]
    t0 = time.perf_counter()
    vk = load_vknots()
    import_s = time.perf_counter() - t0
    workload = WORKLOADS[name](vk, seed, nproc(), reference)
    t1 = time.perf_counter()
    workload.warmup()
    setup = import_s + time.perf_counter() - t1
    kernel += [kernel_seconds() for _ in range(2)]
    return {"setup_s": setup, "factor": NOMINAL_KERNEL_S / statistics.median(kernel)}


def probe_setup_times(name: str, seed: int, reference: Path, count: int) -> list[dict]:
    samples = []
    cmd = [sys.executable, __file__, "--probe-setup", "--workload", name,
           "--seed", str(seed), "--reference", str(reference)]
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def parallel_speedup(vk, diagrams, workers: int) -> tuple[float, int]:
    """Time of bracket(d) over time of bracket_parallel(d, workers) on the
    same inputs, alternating which runs first; also the number of inputs
    on which the two results differ."""
    clock = time.perf_counter
    single = parallel = 0.0
    mismatches = 0
    for i, d in enumerate(diagrams):
        runs = [(False, vk.bracket), (True, lambda x: vk.bracket_parallel(x, workers=workers))]
        results = {}
        for is_parallel, fn in runs if i % 2 == 0 else runs[::-1]:
            t0 = clock()
            results[is_parallel] = fn(d)
            dt = clock() - t0
            if is_parallel:
                parallel += dt
            else:
                single += dt
        mismatches += results[False] != results[True]
    return single / parallel, mismatches


def p90(sorted_values: list[float]) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10, method="inclusive")[-1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced: Phase, untraced: Phase, speedup: float) -> dict:
    self_s = tracer.self_s
    calls = tracer.calls
    values = {
        "bracket.calls": tracer.entries["bracket"],
        "bracket.self_s": self_s["bracket"],
        "bracket.states": tracer.states,
        "bracket.states_per_s": ratio(tracer.states, self_s["bracket"]),
        "bracket.parallel_speedup": speedup,
        "bracket.repeat_share": ratio(tracer.repeats, tracer.state_sum_calls),
        "laurent.mul_calls": calls["laurent.LaurentPoly.__mul__"],
        "laurent.self_s": self_s["laurent"],
        "laurent.f_terms": ratio(tracer.result_terms, tracer.state_sum_calls),
        "ald.calls": tracer.entries["ald"],
        "ald.self_s": self_s["ald"],
        "ald.colorable_share": ratio(tracer.colorable, calls["ald.checkerboard_colorable"]),
        "diagram.calls": tracer.entries["diagram"],
        "diagram.self_s": self_s["diagram"],
        "verify.diagrams": calls["verify.verify_diagram"],
        "verify.enumerate_s": tracer.inclusive_s["verify.enumerate_diagrams"],
        "verify.self_s": self_s["verify"],
        "bench.self_s": self_s["bench"],
        "trace.self_s": self_s["trace"],
        "trace.accounted_share": sum(self_s.values()) / traced.wall,
        "trace.overhead_share": 1.0 - traced.nominal_ops_per_s / untraced.nominal_ops_per_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")


def run_workload(args) -> int:
    vk = load_vknots()
    env = environment()
    print("env " + json.dumps(env))
    workers = env["nproc"]
    workload = WORKLOADS[args.workload](vk, args.seed, workers, args.reference)
    phases = []
    reported = {}
    if args.trace == 0:
        probe = (args.workload, args.seed, args.reference, SETUP_PROBES // 2)
        setup = probe_setup_times(*probe)
        workload.warmup()
        phase = measure(workload, args.seconds)
        phases.append(phase)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup += probe_setup_times(*probe)
        lat = sorted(phase.nominal_latencies)
        raw = sorted(phase.latencies)
        values = {
            "setup_s": statistics.median(p["setup_s"] * p["factor"] for p in setup),
            "ops_per_s": phase.nominal_ops_per_s,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": p90(lat) * 1e3,
            "peak_rss_mb": rss_kb / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        reported.update({
            "raw.setup_s": statistics.median(p["setup_s"] for p in setup),
            "raw.ops_per_s": phase.ops_per_s,
            "raw.latency_p50_ms": statistics.median(raw) * 1e3,
            "raw.latency_p90_ms": p90(raw) * 1e3,
            "host.kernel_ms": statistics.median(phase.kernel) * 1e3,
        })
        beyond = sum(1 for x in lat if x > p90(lat))
        print(f"latency samples {len(lat)}, {beyond} beyond p90; "
              f"{len(phase.kernel)} reference kernel probes")
    else:
        from tracer import Tracer

        workload.warmup()
        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer(vk)
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases += [untraced, traced]
        speedup, mismatches = parallel_speedup(vk, workload.state_sum_inputs(), workers)
        if mismatches:
            untraced.failed += mismatches
            untraced.errors.append(f"bracket and bracket_parallel differ on {mismatches} inputs")
        metrics = layer_metrics(tracer, traced, untraced, speedup)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        written = tracer.write_spans(spans_path, SPAN_FILE_LIMIT)
        print(f"spans {len(tracer.span_end)} recorded, the first {written} written to "
              f"{spans_path.relative_to(ROOT)}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for error in [e for p in phases for e in p.errors][:20]:
        print("error " + error, file=sys.stderr)
    reported["error_rate"] = failed / attempted
    print_metrics(metrics)
    print_metrics({name: {"value": reported[name], "unit": REPORTED_ONLY[name]} for name in reported})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--reference", str(args.reference)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print("   " + line)
            if proc.returncode == 2 or not lines:
                print(f"   {name} did not run (exit {proc.returncode})")
                return 2
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = m
    combined["correct"] = ok
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vknots benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload in this process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="statesum pool and digests (the smoke test passes a corrupted copy)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe_setup:
            print(json.dumps(probe_setup(args.workload, args.seed, args.reference)))
            return 0
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except ProgramMissing as e:
        print(f"vknots benchmark: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
