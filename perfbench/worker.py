"""One benchmark process: generate inputs, set up, or run one workload.

    worker.py generate --workload W --seed N --dir D
    worker.py setup    --workload W
    worker.py run      --workload W --seed N --dir D --seconds S --trace 0|1
    worker.py record   --workload W --dir D

``setup`` and ``run`` print a ``ready`` line once the process has imported
spslab, built the workload's grid and Coulomb kernel and done one warm-up
transform; a fresh process is timed up to that line.  ``run`` then calls
the CLI entry point in-process, one op at a time, in rounds, and prints one
JSON line with the timings, the answer checks and (traced) the per-layer
metrics.  Between ops, outside every timed op, it times the reference
kernel and, spread over the run, fresh ``setup`` processes.  ``record``
writes the answer references for every seed slot.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from answers import compare, fingerprint
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
MIN_ROUNDS = 2
SETUP_SAMPLES = 9
REFERENCE_LOOP = 500_000
REFERENCE_POINTS = 2**19


def emit(document: dict) -> None:
    sys.__stdout__.write(json.dumps(document) + "\n")
    sys.__stdout__.flush()


def set_up(workload: str):
    import numpy as np
    from scipy import fft

    import spslab.cli
    from spslab.coulomb import coulomb_kernel
    from spslab.grid import make_grid

    grid = make_grid(*workloads.GRIDS[workload])
    coulomb_kernel(grid)
    fft.fftn(np.ones(grid.shape, dtype=np.complex128))
    emit({"ready": True})
    return spslab.cli


def spawn_until_ready(argv: list[str], timeout: float, env: dict | None = None):
    """Start a worker and return (process, seconds until its ready line).

    The process is killed if no line arrives within ``timeout``."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    ready = time.perf_counter() - started
    if not line.startswith('{"ready"'):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{' '.join(argv[1:5])}: worker died during set-up")
    return proc, ready


def time_setup(workload: str) -> float:
    """Seconds from spawning a fresh ``setup`` worker to its ready line."""
    proc, ready = spawn_until_ready(
        [sys.executable, __file__, "setup", "--workload", workload], timeout=120.0)
    try:
        proc.communicate(timeout=60.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"setup worker exited {proc.returncode}")
    return ready


def time_reference(workload: str) -> float:
    """Seconds of the reference kernel, which touches no spslab code.

    A fixed pure-Python loop, then forward transforms of a constant field
    of the workload's grid (``REFERENCE_POINTS`` points in all), so it slows
    with the machine both in the interpreter and in memory, as the ops do.
    Timed next to the ops, it tracks how fast this machine runs at that
    moment; ``round_ref`` divides round time by it.  The field is built
    before the clock starts and dropped after, so it adds to no op's memory.
    """
    import numpy as np
    from scipy import fft

    n = workloads.GRIDS[workload][0]
    field = np.full((n, n, n), 1.0 + 1.0j)
    started = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i % 7
    for _ in range(max(1, REFERENCE_POINTS // n**3)):
        np.abs(fft.fftn(field)) ** 2
    return time.perf_counter() - started


def run_op(cli, op: dict, tracer=None) -> tuple[int | None, float, str]:
    """Time one CLI op; returns (exit code or None if it raised, seconds, error)."""
    argv = [op["command"], "--config", op["config"], "--out", op["out"]]
    call = lambda: cli.run(argv)  # noqa: E731
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.op(op["id"], op["command"], call) if tracer else call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, error


def check(op: dict, code: int | None, error: str, refs: dict) -> tuple[dict, list[str]]:
    if code is None:
        return {}, [error]
    try:
        fp = fingerprint(op["command"], Path(op["out"]), code)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return {"exit": code}, [f"unreadable answer: {exc}"]
    return fp, compare(op["command"], refs[op["id"]], fp)


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def cmd_run(args, workload: str) -> None:
    cli = set_up(workload)
    work = Path(args.dir)
    ops = json.loads((work / "ops.json").read_text())
    refs = json.loads((REFS / f"{workload}.json").read_text())["slots"]
    refs = refs[str(workloads.slot_of(args.seed))]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    round_s: list[float] = []
    round_ref: list[float] = []
    reference_s: list[float] = []
    setup_s: list[float] = []
    op_s: dict[str, list[float]] = {op["id"]: [] for op in ops}
    attempted = failed = 0
    problems: list[str] = []
    answers: dict[str, dict] = {}
    start = time.perf_counter()
    while True:
        outcomes, references = [], []
        for op in ops:
            # one fresh set-up every seconds / SETUP_SAMPLES, so the samples
            # spread over the run like the rounds do; this process's own
            # set-up, timed by the parent, is the first
            due = (len(setup_s) + 1) * args.seconds / SETUP_SAMPLES
            if len(setup_s) < SETUP_SAMPLES - 1 and time.perf_counter() - start > due:
                setup_s.append(time_setup(workload))
            references.append(time_reference(workload))
            outcomes.append((op, *run_op(cli, op, tracer)))
        references.append(time_reference(workload))
        round_s.append(sum(seconds for _, _, seconds, _ in outcomes))
        round_ref.append(round_s[-1] / statistics.fmean(references))
        reference_s += references
        for op, code, seconds, error in outcomes:
            op_s[op["id"]].append(seconds)
            attempted += 1
            fp, bad = check(op, code, error, refs)
            answers[op["id"]] = fp
            if bad:
                failed += 1
                problems.append(f"{op['id']} round {len(round_s)}: {'; '.join(bad)}")
        elapsed = time.perf_counter() - start
        # start another round only if it should end within half a round of
        # the budget, so every workload's run lasts about --seconds
        if len(round_s) >= MIN_ROUNDS and elapsed + statistics.median(round_s) / 2 > args.seconds:
            break
    while len(setup_s) < SETUP_SAMPLES - 1:
        setup_s.append(time_setup(workload))

    import numpy
    import scipy

    result = {
        "rounds": len(round_s),
        "round_s": round_s,
        "round_ref": round_ref,
        "reference_s": reference_s,
        "setup_s": setup_s,
        "op_s": op_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "answers": answers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(HERE / "out" / f"spans-{workload}.json")
        minimize_fps = [answers[op["id"]] for op in ops
                        if op["command"] == "minimize" and answers[op["id"]]]
        certified = sum(
            sum(1 for s in fp.get("certified_steps", []) if s > 0)
            for fp in answers.values()
        )
        rounds = len(round_s)
        result["layers"] = layer_metrics(
            tracer.spans,
            rounds,
            iterations=rounds * sum(fp["iterations"] for fp in minimize_fps),
            solves=rounds * len(minimize_fps),
            certified_after_0=rounds * certified,
            round_s=statistics.median(round_s),
        )
    emit(result)


def cmd_record(args, workload: str) -> None:
    """Run one round per seed slot and store every op's answer."""
    cli = set_up(workload)
    slots = {}
    for slot in range(workloads.SLOTS):
        work = Path(args.dir) / f"slot{slot}"
        ops = workloads.generate(workload, slot, work)
        answers = {}
        for op in ops:
            code, seconds, error = run_op(cli, op)
            if code is None:
                raise RuntimeError(f"{op['id']} raised while recording: {error}")
            answers[op["id"]] = fingerprint(op["command"], Path(op["out"]), code)
            print(f"slot {slot} {op['id']} {seconds:.2f}s exit {code}", file=sys.stderr)
        slots[str(slot)] = answers
    REFS.mkdir(exist_ok=True)
    (REFS / f"{workload}.json").write_text(
        json.dumps({"workload": workload, "slots": slots}, indent=1, sort_keys=True)
        + "\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("generate", "setup", "run", "record"))
    parser.add_argument("--workload", required=True, choices=list(workloads.GRIDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = args.workload
    if args.mode == "generate":
        work = Path(args.dir)
        ops = workloads.generate(workload, workloads.slot_of(args.seed), work)
        (work / "ops.json").write_text(json.dumps(ops, indent=1) + "\n")
    elif args.mode == "setup":
        set_up(workload)
    elif args.mode == "run":
        cmd_run(args, workload)
    else:
        cmd_record(args, workload)


if __name__ == "__main__":
    main()
