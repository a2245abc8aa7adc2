"""Traced in-process run of a workload's focus commands.

Usage (the benchmark starts it with the package on PYTHONPATH):

    python tracer.py <plan.json> <result.json> <spans.json>

The plan lists the focus commands as CLI argument lists.  Each round runs
them once through ``dressedprobe.cli.main`` untraced, then once with every
public function of the instrumented modules replaced by a recording
wrapper, in every ``dressedprobe`` namespace that binds it.  Rounds repeat
until the plan's time is up.  The wrappers live only in this process; no
file of the package changes.

A span is (id, parent id, name, start, end, run id).  Spans stay in memory;
the first traced round's spans are written out at the end, and every
round's per-layer calls, total time and self time (span minus the time its
child spans cover) go to the result file together with the round's counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from checks import file_digest

MODULES = ("config", "modulation", "dispersion", "pulsetrain", "characteristics", "validation", "cli")

#: Classes whose construction is a layer of its own.
CLASS_SPANS = (("pulsetrain", "TimeSeries"),)

#: A ResonancePole leaving one of these calls is a pole row's worth of work.
POLE_LAYERS = frozenset({"modulation.exponent_grid", "dispersion.refractive_index"})


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _size(value) -> int:
    return getattr(value, "size", None) or len(value)


#: Work counted from a wrapped call's arguments.
COUNTERS = {
    "modulation.exponent_grid": lambda a, k: {
        "modulation.exponent_grid.points": _size(_arg(a, k, 4, "z")) * _size(_arg(a, k, 5, "t"))
    },
    "characteristics.integrate_characteristic": lambda a, k: {
        "characteristics.integrate_characteristic.steps": _arg(a, k, 3, "steps")
    },
    "pulsetrain.analyze_train": lambda a, k: {
        "pulsetrain.samples": len(_arg(a, k, 0, "series").gains)
    },
    "cli.read_evolve_csv": lambda a, k: {"cli.bytes_read": os.path.getsize(_arg(a, k, 0, "path"))},
    "config.load_config": lambda a, k: {"cli.bytes_read": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Recorder:
    """Spans and counts of one traced round."""

    def __init__(self, pole_error: type):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._pole_error = pole_error

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        pole_layer = name in POLE_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            if count is not None:
                self.counts.update(count(args, kwargs))
            self._stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except self._pole_error as exc:
                # Count each pole once, however many pole layers it leaves.
                if pole_layer and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.counts["errors.ResonancePole.raised"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.run_id))

        return traced


def install(recorder: Recorder) -> list[tuple]:
    """Wrap the instrumented functions everywhere they are bound.

    Returns the (object, attribute, original) patches for ``restore``.
    """
    wrappers = {}
    for short in MODULES:
        module = importlib.import_module(f"dressedprobe.{short}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                wrappers[value] = recorder.wrap(f"{short}.{attr}", value)
    patches = []
    for name, module in list(sys.modules.items()):
        if name != "dressedprobe" and not name.startswith("dressedprobe."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                replacement = wrappers[value]
            elif isinstance(value, tuple) and any(
                inspect.isfunction(v) and v in wrappers for v in value
            ):  # registries such as validation.ALL_CHECKS
                replacement = tuple(wrappers.get(v, v) for v in value)
            else:
                continue
            patches.append((module, attr, value))
            setattr(module, attr, replacement)
    for short, cls_name in CLASS_SPANS:
        cls = getattr(importlib.import_module(f"dressedprobe.{short}"), cls_name)
        patches.append((cls, "__init__", cls.__init__))
        cls.__init__ = recorder.wrap(f"{short}.{cls_name}", cls.__init__)
    return patches


def restore(patches: list[tuple]) -> None:
    for obj, attr, original in reversed(patches):
        setattr(obj, attr, original)


def layer_totals(spans: list[tuple]) -> dict[str, list]:
    """name -> [calls, total seconds, self seconds]."""
    covered = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for span_id, _, name, start, end, _ in spans:
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered[span_id]
    return totals


def _output_counts(step: dict) -> Counter:
    """Rows, POLE rows and bytes the command wrote."""
    counts = Counter()
    for path in map(Path, step["outputs"]):
        counts["cli.bytes_written"] += path.stat().st_size
        if path.suffix == ".csv":
            lines = path.read_text().splitlines()[1:]
            counts["cli.rows_written"] += len(lines)
            if step["command"] in ("sweep-frequency", "dispersion-scan"):
                counts["cli.table_rows"] += len(lines)
                counts["cli.pole_rows"] += sum(line.endswith(",POLE") for line in lines)
    return counts


def _run_steps(cli, steps: list[dict], recorder: Recorder | None, round_no: int) -> dict:
    walls, codes, digests = {}, {}, {}
    for step in steps:
        if recorder is not None:
            recorder.run_id = f"{round_no}:{step['id']}"
        start = perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                codes[step["id"]] = cli.main(step["argv"])
        except Exception as exc:  # a crash is a failed command, reported
            codes[step["id"]] = repr(exc)
        walls[step["id"]] = perf_counter() - start
        if codes[step["id"]] == 0:
            digests[step["id"]] = [file_digest(Path(p)) for p in step["outputs"]]
            if recorder is not None:
                recorder.counts.update(_output_counts(step))
    return {"walls": walls, "codes": codes, "digests": digests}


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    from dressedprobe import cli
    from dressedprobe.errors import ResonancePole

    _run_steps(cli, plan["steps"], None, -1)  # warm-up, so rounds compare like with like
    deadline = perf_counter() + plan["seconds"]
    rounds, first_spans = [], None
    for round_no in itertools.count():
        untraced = _run_steps(cli, plan["steps"], None, round_no)
        recorder = Recorder(ResonancePole)
        patches = install(recorder)
        try:
            traced = _run_steps(cli, plan["steps"], recorder, round_no)
        finally:
            restore(patches)
        rounds.append(
            {
                "untraced": untraced,
                "traced": traced,
                "layers": layer_totals(recorder.spans),
                "counts": dict(recorder.counts),
            }
        )
        if first_spans is None:
            first_spans = recorder.spans
        if perf_counter() >= deadline:
            break
    Path(argv[2]).write_text(json.dumps({"rounds": rounds}))
    with open(argv[3], "w") as out:
        out.write('{"fields": ["id", "parent", "name", "start_s", "end_s", "run"], "spans": [\n')
        out.write(",\n".join(json.dumps(span) for span in first_spans))
        out.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
