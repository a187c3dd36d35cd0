"""spslab benchmark: time to a checked answer, per workload.

One workload:

    python3 perfbench/run.py --workload certify --seed 3 --seconds 30 --trace 0

Every workload, untraced then traced, with a summary written to
``perfbench/out/results.json``:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Re-record the answer references (at a commit whose answers are trusted),
for every workload or for one:

    python3 perfbench/run.py --record-refs [--workload W]

Each run generates its inputs from the seed in one process, then runs the
workload's ops in rounds in one single-threaded process for ``--seconds``.
That process and ``SETUP_SAMPLES - 1`` fresh ones spawned during the run
are timed up to their first op; ``setup_s`` is the median.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import spawn_until_ready
from workloads import GRIDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
DEADLINE_S = 170.0
WORKLOADS = tuple(GRIDS)
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = {**os.environ, **SINGLE_THREAD}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(mode: str, workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), mode, "--workload", workload, *extra]


def _call(argv: list[str], timeout: float) -> None:
    proc = subprocess.run(argv, env=_env(), stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}")


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("deadline passed")
    return left


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Rest of a worker's output; the worker is killed if the deadline passes."""
    try:
        return proc.communicate(timeout=_remaining(deadline))[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the worker's report plus ``setup_s``."""
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        _call(_worker("generate", workload, "--seed", str(seed), "--dir", str(work)),
              _remaining(deadline))
        argv = _worker("run", workload, "--seed", str(seed), "--dir", str(work),
                       "--seconds", str(seconds), "--trace", str(int(trace)))
        proc, ready = spawn_until_ready(argv, _remaining(deadline), env=_env())
        report_line = _finish(proc, deadline)
        if proc.returncode != 0 or not report_line.strip():
            raise BenchError(f"{workload} worker exited {proc.returncode}")
        report = json.loads(report_line.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["setup_samples"] = [ready, *report["setup_s"]]
    return report


def end_to_end(report: dict) -> dict:
    return {
        "round_ref_p50": {"value": statistics.median(report["round_ref"]), "unit": "ref"},
        "setup_s": {"value": statistics.median(report["setup_samples"]), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
    }


def per_layer(report: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in report["layers"].items()}


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine(report: dict | None = None) -> dict:
    """The machine, the threads used and each workload's working set."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = (
            _read(index / "size"))
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "working_set_mib": {w: 16 * n**3 / 2**20 for w, (n, _) in GRIDS.items()},
        "working_set_note": "one complex128 field of the workload's grid",
        "fft_bytes_note": "fft.bytes_computed is input plus output array bytes, "
                          "computed from array sizes, not measured traffic",
        "fft_workers": "scipy.fft default (1)",
    }
    if report is not None:
        info.update(report["versions"])
        info["worker_threads"] = report["threads"]
    return info


def result_line(report: dict, trace: bool) -> dict:
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": per_layer(report) if trace else end_to_end(report),
    }


def describe(workload: str, report: dict, trace: bool) -> None:
    """Human-readable lines before the result line."""
    rounds = report["rounds"]
    print(f"# {workload}: {rounds} rounds, {report['attempted']} ops attempted, "
          f"{report['failed']} failed (fail_ratio "
          f"{report['failed'] / report['attempted']:.4g}), traced={int(trace)}")
    for problem in report["problems"]:
        print(f"#   FAIL {problem}")
    for op_id, times in report["op_s"].items():
        print(f"#   op {op_id}: p50 {statistics.median(times):.4f} s over {len(times)}, "
              f"answer {json.dumps(report['answers'].get(op_id, {}))[:160]}")
    print(f"#   round times (s): {', '.join(f'{s:.3f}' for s in report['round_s'])}; "
          f"p50 {statistics.median(report['round_s']):.4f} s")
    print(f"#   round / reference: {', '.join(f'{r:.2f}' for r in report['round_ref'])}; "
          f"reference p50 {statistics.median(report['reference_s']) * 1e3:.2f} ms "
          f"over {len(report['reference_s'])}")
    print(f"#   setup samples (s): {', '.join(f'{s:.3f}' for s in report['setup_samples'])}")
    metrics = per_layer(report) if trace else end_to_end(report)
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print("# machine " + json.dumps(machine(report)))


def run_all(seed: int, seconds: float) -> int:
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        describe(workload, plain, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        describe(workload, traced, trace=True)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        # in reference units, so a change of machine phase between the two
        # runs does not read as tracing cost
        overhead = statistics.median(traced["round_ref"]) / statistics.median(plain["round_ref"]) - 1
        print(f"# {workload}: fail_ratio {failed}/{attempted}, "
              f"tracing overhead {overhead:+.1%} of round_ref_p50")
        results["workloads"][workload] = {
            "end_to_end": end_to_end(plain),
            "round_s_p50": statistics.median(plain["round_s"]),
            "per_layer": per_layer(traced),
            "rounds": {"untraced": plain["rounds"], "traced": traced["rounds"]},
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "trace_overhead_share": overhead,
        }
        results["machine"] = machine(traced)
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {OUT / 'results.json'}")
    return 0 if all(w["failed"] == 0 for w in results["workloads"].values()) else 1


def record_refs(workloads: tuple[str, ...]) -> int:
    for workload in workloads:
        work = HERE / "work" / f"record-{workload}"
        try:
            _call(_worker("record", workload, "--dir", str(work)), timeout=3600)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"# recorded {workload}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--record-refs", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "spslab" / "__init__.py").is_file():
        print(f"spslab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_refs:
            return record_refs((args.workload,) if args.workload else WORKLOADS)
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload, --all or --record-refs is required")
        trace = bool(args.trace)
        report = run_workload(args.workload, args.seed, args.seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    describe(args.workload, report, trace)
    print(json.dumps(result_line(report, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
