"""Outside-in tracing of spslab: spans recorded by wrappers installed from
the benchmark, at the module that makes each call.

Wrapping happens at the caller because ``from .energy import evaluate``
binds a local name: replacing ``spslab.energy.evaluate`` alone would miss
the calls that ``spslab.minimize`` makes.  Each module's ``_fft`` alias of
``scipy.fft`` is replaced by a proxy whose ``fftn``/``ifftn`` record one
span per transform, so only transforms called from spslab modules count.

A span is ``[name, start, end, parent index, op id, bytes]``.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

# (module, attribute, span name) for every wrapped call site; the wrapper
# of a module's own global also catches that module's internal calls
CALL_SITES = [
    ("cli", "minimize", "minimize.minimize"),
    ("cli", "identity_report", "identities.identity_report"),
    ("cli", "energy_of", "energy.energy"),
    ("cli", "estimate_best_constant", "bestconst.estimate_best_constant"),
    ("cli", "blowdown_experiment", "experiments.blowdown_experiment"),
    ("cli", "project_mass", "minimize.project_mass"),
    ("cli", "make_grid", "grid.make_grid"),
    ("cli", "load_snapshot", "fields.load_snapshot"),
    ("cli", "save_snapshot", "fields.save_snapshot"),
    ("cli", "export_abs_slice", "fields.export_abs_slice"),
    ("cli", "boundary_mass_fraction", "fields.boundary_mass_fraction"),
    ("cli", "write_json", "reporting.write_json"),
    ("cli", "write_table", "reporting.write_table"),
    ("minimize", "evaluate", "energy.evaluate"),
    ("minimize", "identity_report", "identities.identity_report"),
    ("minimize", "coulomb_kernel", "coulomb.coulomb_kernel"),
    ("identities", "evaluate", "energy.evaluate"),
    ("identities", "coulomb_kernel", "coulomb.coulomb_kernel"),
    ("identities", "hartree_double_integral", "coulomb.hartree_double_integral"),
    ("energy", "evaluate", "energy.evaluate"),
    ("energy", "coulomb_kernel", "coulomb.coulomb_kernel"),
    ("energy", "_double_integral_from_density_fft", "coulomb.double_integral"),
    ("bestconst", "coulomb_kernel", "coulomb.coulomb_kernel"),
    ("bestconst", "hartree_double_integral", "coulomb.hartree_double_integral"),
    ("bestconst", "_log_quotient_gradient", "bestconst.log_quotient_gradient"),
    ("experiments", "energy", "energy.energy"),
    ("experiments", "scale_mass_preserving", "rescale.scale_mass_preserving"),
    ("experiments", "_evaluate_row", "experiments.evaluate_row"),
    ("fields", "make_grid", "grid.make_grid"),
]
FFT_MODULES = ("energy", "coulomb", "identities", "bestconst")
FFT_FUNCTIONS = ("fftn", "ifftn")
FILE_LAYERS = {
    "fields.load_snapshot": 0,
    "fields.save_snapshot": 1,
    "fields.export_abs_slice": 1,
    "reporting.write_json": 0,
    "reporting.write_table": 0,
}

NAME, START, END, PARENT, OP, BYTES = range(6)


class _FftProxy:
    """Stands in for a module's ``scipy.fft`` alias."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        for fn in FFT_FUNCTIONS:
            setattr(self, fn, tracer.wrap(f"fft.{fn}", getattr(real, fn), _fft_bytes))

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _fft_bytes(args, kwargs, result) -> int:
    """Bytes a transform reads and writes, computed from the array sizes."""
    return int(args[0].nbytes + result.nbytes)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, size_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span_name = name
            if name == "energy.evaluate" and kwargs.get(
                "with_gradient", args[4] if len(args) > 4 else False
            ):
                span_name = "energy.evaluate_grad"
            span = [span_name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self._op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if size_of is not None:
                span[BYTES] = size_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, span_name in CALL_SITES:
            module = importlib.import_module(f"spslab.{mod_name}")
            fn = getattr(module, attr)
            size_of = None
            if span_name in FILE_LAYERS:
                arg = FILE_LAYERS[span_name]
                size_of = lambda a, k, r, arg=arg: _file_bytes(a[arg])  # noqa: E731
            self._set(module, attr, self.wrap(span_name, fn, size_of))
        for mod_name in FFT_MODULES:
            module = importlib.import_module(f"spslab.{mod_name}")
            self._set(module, "_fft", _FftProxy(module._fft, self))

    def _set(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def op(self, op_id: str, command: str, call):
        """Run ``call`` as op ``op_id``, recorded as span ``cli.<command>``."""
        self._op = op_id
        try:
            return self.wrap(f"cli.{command}", call)()
        finally:
            self._op = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "bytes"],
                       "spans": self.spans}, fh)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], rounds: int, iterations: int, solves: int,
                  certified_after_0: int, round_s: float) -> dict:
    """Per-layer metrics of one traced run, per round unless named p50.

    ``iterations``/``solves`` come from the minimize answers,
    ``certified_after_0`` from the ascent traces; everything else is read
    off the spans.
    """
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        children.setdefault(s[PARENT], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def named(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def under(i, prefix):
        """Whether span ``i`` has an ancestor whose name starts with prefix."""
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME].startswith(prefix):
                return True
            p = spans[p][PARENT]
        return False

    def is_fft(i):
        return spans[i][NAME].startswith("fft.")

    def per_round(x):
        return x / rounds

    ffts = [i for i, s in enumerate(spans) if is_fft(i)]
    evals = named("energy.evaluate", "energy.evaluate_grad")
    solves_ = named("minimize.minimize")
    reports = named("identities.identity_report")
    estimates = named("bestconst.estimate_best_constant")
    coulomb = [i for i, s in enumerate(spans)
               if s[NAME].startswith("coulomb.") and not under(i, "coulomb.")]
    ops = [i for i, s in enumerate(spans) if s[PARENT] == -1]

    solve_set = set(solves_)
    solve_evals = sum(1 for i in evals if spans[i][PARENT] in solve_set)
    eval_set = set(evals)
    eval_ffts = [i for i in ffts if spans[i][PARENT] in eval_set]
    eval_fft_s = sum(dur(i) for i in eval_ffts)

    # ascent steps: each loop turn starts with one log-quotient gradient
    step_s, step_ffts, steps = [], 0, 0
    for e in estimates:
        starts = sorted(spans[i][START] for i in children.get(e, [])
                        if spans[i][NAME] == "bestconst.log_quotient_gradient")
        if not starts:
            continue
        steps += len(starts)
        bounds = starts + [spans[e][END]]
        step_s += [b - a for a, b in zip(bounds, bounds[1:])]
        step_ffts += sum(1 for i in ffts if spans[i][START] >= starts[0]
                         and spans[i][END] <= spans[e][END])

    fft_s = sum(dur(i) for i in ffts)
    traced_child_s = sum(dur(c) for o in ops for c in children.get(o, []))
    metrics = {
        "minimize.iterations": (per_round(iterations), "count"),
        "minimize.evaluations": (per_round(solve_evals), "count"),
        "minimize.evals_per_iter": (solve_evals / iterations if iterations else 0.0, "ratio"),
        "minimize.backtracks": (per_round(solve_evals - iterations - 2 * solves), "count"),
        "minimize.s_per_iter": (
            sum(dur(i) for i in solves_) / iterations if iterations else 0.0, "s"),
        "energy.evaluate_calls": (per_round(len(evals)), "count"),
        "energy.evaluate_grad_s_p50": (_p50([dur(i) for i in named("energy.evaluate_grad")]), "s"),
        "energy.evaluate_nograd_s_p50": (_p50([dur(i) for i in named("energy.evaluate")]), "s"),
        "energy.transforms_per_eval": (len(eval_ffts) / len(evals) if evals else 0.0, "count"),
        "energy.elementwise_s": (
            per_round(sum(dur(i) for i in evals) - eval_fft_s), "s"),
        "coulomb.calls": (per_round(len(coulomb)), "count"),
        "coulomb.s": (per_round(sum(dur(i) for i in coulomb)), "s"),
        "identities.report_calls": (per_round(len(reports)), "count"),
        "identities.report_s_p50": (_p50([dur(i) for i in reports]), "s"),
        "identities.transforms_per_report": (
            sum(1 for i in ffts if under(i, "identities.identity_report")) / len(reports)
            if reports else 0.0, "count"),
        "bestconst.steps": (per_round(steps), "count"),
        "bestconst.step_s_p50": (_p50(step_s), "s"),
        "bestconst.transforms_per_step": (step_ffts / steps if steps else 0.0, "count"),
        "bestconst.certified_ratio": (certified_after_0 / steps if steps else 0.0, "ratio"),
        "experiments.row_s_p50": (_p50([dur(i) for i in named("experiments.evaluate_row")]), "s"),
        "rescale.calls": (per_round(len(named("rescale.scale_mass_preserving"))), "count"),
        "rescale.s_p50": (_p50([dur(i) for i in named("rescale.scale_mass_preserving")]), "s"),
        "grid.make_grid_calls": (per_round(len(named("grid.make_grid"))), "count"),
        "grid.make_grid_s": (per_round(sum(dur(i) for i in named("grid.make_grid"))), "s"),
    }
    io = named("fields.load_snapshot", "fields.save_snapshot", "fields.export_abs_slice")
    writes = named("reporting.write_json", "reporting.write_table")
    metrics.update({
        "fields.snapshot_io_s": (per_round(sum(dur(i) for i in io)), "s"),
        "fields.snapshot_bytes": (per_round(sum(spans[i][BYTES] for i in io)), "bytes"),
        "reporting.write_s": (per_round(sum(dur(i) for i in writes)), "s"),
        "reporting.bytes": (per_round(sum(spans[i][BYTES] for i in writes)), "bytes"),
    })
    for command in ("minimize", "best-constant", "energy", "verify", "scaling"):
        metrics[f"cli.{command}_s_p50"] = (_p50([dur(i) for i in named(f"cli.{command}")]), "s")
    metrics.update({
        "cli.overhead_s": (per_round(sum(dur(i) for i in ops) - traced_child_s), "s"),
        "fft.calls": (per_round(len(ffts)), "count"),
        "fft.s": (per_round(fft_s), "s"),
        "fft.share": (per_round(fft_s) / round_s, "ratio"),
        "fft.bytes_computed": (per_round(sum(spans[i][BYTES] for i in ffts)), "bytes"),
        "trace.round_s_p50": (round_s, "s"),
    })
    return metrics
