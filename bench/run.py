"""Benchmark of the dressedprobe command-line interface.

Usage, from the root of a checkout that holds ``src/dressedprobe``:

    python3 bench/run.py --workload spectral_scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` it runs the workload's pass of CLI commands (see
``workloads.py``) as a user would, ``python -m dressedprobe <subcommand>``
in a fresh interpreter, one child at a time (a closed loop with one
client), until ``--seconds`` have passed, and reports the end-to-end
metrics.  Each pass also times the set-up of one fresh interpreter (import
plus ``load_config``) and runs the fixed reference job of
``reference.py``; every time is reported scaled to the reference machine
speed, i.e. times ``REFERENCE_S`` over the run's median reference time.

With ``--trace 1`` it runs the workload's focus commands in-process under
the span recorder of ``tracer.py`` for ``--seconds`` and reports the
per-layer metrics.

Either way every output is checked (``checks.py``) and every output
file's sha256 is recorded; repeats of one command must be byte-identical.
A summary goes to standard output, a full record including spans to
``.bench_results/``, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` runs every workload once at a tiny size in both modes and
checks the result against the schema in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import mpmath

import checks
from reference import REFERENCE_S
from workloads import END_TO_END, PER_LAYER, POLE_SHARE, WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "dressedprobe"
# Relative to ROOT, the working directory of the benchmark and its children,
# so that outputs naming their inputs (pulse-stats records its --series
# path) have the same digest in every checkout.
WORK = Path(".bench_work")
RESULTS = Path(".bench_results")

#: Set-ups timed before a traced run (after one untimed warm-up).
SETUPS = 9
#: A command that runs longer than this is killed and counted as failed.
COMMAND_LIMIT_S = 120.0


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(argv: list[str], env: dict, stderr: Path) -> tuple[float, int, int]:
    """Run one child; return (wall seconds, exit code, ru_maxrss in KiB)."""
    with open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _probe(config: Path, env: dict) -> tuple[float, dict | None]:
    """Time one fresh interpreter from spawn until the config is loaded."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(config)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(COMMAND_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.close()
        proc.wait()
    finally:
        watchdog.cancel()
    try:
        return ready, (json.loads(line) if proc.returncode == 0 else None)
    except ValueError:
        return ready, None


def _reference(work: Path, env: dict) -> float:
    """Wall time of one run of the reference job (see ``reference.py``)."""
    argv = [sys.executable, str(HERE / "reference.py"), str(work / "reference.txt")]
    wall, code, _ = _spawn(argv, env, work / "reference.err")
    if code != 0:
        raise RuntimeError(f"reference job failed: {(work / 'reference.err').read_text()[-500:]}")
    return wall


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit or "unknown"


def _machine(probe: dict | None) -> dict:
    """Machine and software the run measured (read-only system files)."""
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max")
        or (f"{quota} {period} (cgroup v1 quota, period)" if quota else None),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": (probe or {}).get("numpy"),
        "mpmath": mpmath.__version__,
        "dressedprobe": (probe or {}).get("dressedprobe"),
        "git_commit": _git_commit(),
    }


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _check_outputs(plan, work: Path, steps) -> dict[str, list[str]]:
    """Content problems of each step's current output files."""
    problems = {}
    for step in steps:
        config = plan.configs[step.config]
        rng = random.Random(f"{plan.workload}:{step.id}")
        out = step.out(work)
        try:
            if step.command == "sweep-frequency":
                found = checks.check_sweep(out, config, rng)
            elif step.command == "dispersion-scan":
                found = checks.check_dispersion(out, config, rng)
            elif step.command == "evolve":
                found = checks.check_evolve(out, config, rng)
            elif step.command == "pulse-stats":
                found = checks.check_pulse_stats(out, work / f"{step.series}.csv")
            else:
                found = checks.check_validate(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"{out.name}: unreadable output: {exc!r}"]
        problems[step.id] = found
    return problems


def _judge(tally: Tally, step, runs: list[tuple], content: list[str]) -> list[str] | None:
    """Count each run of a step as passed or failed; return the digests of
    its first successful run.

    A run fails when it exits non-zero, when its output differs from the
    first successful run's (reruns must be byte-identical), or when the
    output fails its content check.
    """
    first = next((digests for code, digests, _ in runs if code == 0), None)
    for code, digests, label in runs:
        if code != 0:
            tally.record(False, f"{step.id} ({label}): exit {code}")
        elif digests != first:
            tally.record(False, f"{step.id} ({label}): output differs from the first run")
        elif content:
            tally.record(False, f"{step.id}: {content[0]}")
        else:
            tally.record(True)
    return first


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _measure(plan, work: Path, env: dict, seconds: float, tally: Tally) -> dict:
    """Closed loop over the pass until the time is up; end-to-end metrics.

    Each pass starts with the reference job and one set-up probe, so that
    set-up time is sampled across the whole run like every command.  A
    metric's sample is the mean wall time of its commands in one pass; the
    metric is the median over passes, scaled by the run's median reference
    job time.
    """
    setup_config = work / f"{plan.setup_config}.json"
    raw: dict[str, list[float]] = defaultdict(list)
    runs: dict[str, list] = defaultdict(list)  # step id -> [(code, digests, label)]
    references, setups, peak_kib = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        references.append(_reference(work, env))
        walls: dict[str, list[float]] = defaultdict(list)
        wall, report = _probe(setup_config, env)
        tally.record(report is not None, "set-up probe failed")
        if report is not None:
            walls["setup_s"].append(wall)
            setups.append(report)
        for step in plan.steps:
            argv = [sys.executable, "-m", "dressedprobe", *step.argv(work)]
            wall, code, rss = _spawn(argv, env, work / f"{step.id}.err")
            peak_kib = max(peak_kib, rss)
            walls[step.metric].append(wall)
            digests = [checks.file_digest(p) for p in step.outputs(work)] if code == 0 else None
            runs[step.id].append((code, digests, f"pass {len(references)}"))
        for metric, values in walls.items():
            raw[metric].append(statistics.mean(values))
        if time.perf_counter() >= deadline:
            break
    factor = REFERENCE_S / _median(references)
    steps = list(dict.fromkeys(plan.steps))  # shipped-size steps repeat in a pass
    content = _check_outputs(plan, work, steps)
    digests = {}
    for step in steps:
        first = _judge(tally, step, runs[step.id], content[step.id])
        digests.update(zip((p.name for p in step.outputs(work)), first or []))
    metrics = {
        metric: {"value": _median(values) * factor, "samples": len(values)}
        for metric, values in raw.items()
    }
    metrics["peak_rss_mb"] = {
        "value": peak_kib / 1024.0,
        "samples": len(references) * len(plan.steps),
    }
    return {
        "metrics": metrics,
        "digests": digests,
        "setups": setups,
        "raw_median_s": {metric: _median(values) for metric, values in raw.items()},
        "reference_s": references,
    }


def _trace(plan, work: Path, env: dict, seconds: float, tally: Tally, smoke: bool) -> dict:
    """Traced in-process rounds of the focus commands; per-layer metrics.

    Per-layer times are scaled like the end-to-end ones, by the median
    time of the reference jobs run between the set-up probes.
    """
    setup_config = work / f"{plan.setup_config}.json"
    setups, references = [], []
    for _ in range(3 if smoke else SETUPS):
        references.append(_reference(work, env))
        _, report = _probe(setup_config, env)
        tally.record(report is not None, "set-up probe failed")
        if report is not None:
            setups.append(report)
    factor = REFERENCE_S / _median(references)

    focus = [step for step in plan.steps if step.focus]
    plan_file = work / "trace_plan.json"
    plan_file.write_text(json.dumps({
        "seconds": seconds,
        "steps": [
            {
                "id": step.id,
                "command": step.command,
                "argv": step.argv(work),
                "outputs": [str(p) for p in step.outputs(work)],
            }
            for step in focus
        ],
    }))
    result_file = work / "trace_result.json"
    spans_file = RESULTS / f"spans-{work.name}.json"
    with open(work / "tracer.err", "wb") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "tracer.py"), str(plan_file), str(result_file), str(spans_file)],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
            timeout=seconds + COMMAND_LIMIT_S,
        )
    if proc.returncode != 0:
        tail = (work / "tracer.err").read_text().strip().splitlines()[-1:]
        raise RuntimeError(f"traced run failed: {tail}")
    rounds = json.loads(result_file.read_text())["rounds"]

    content = _check_outputs(plan, work, focus)
    digests = {}
    for step in focus:
        runs = [
            (rnd[mode]["codes"][step.id], rnd[mode]["digests"].get(step.id), f"round {i} {mode}")
            for i, rnd in enumerate(rounds)
            for mode in ("untraced", "traced")
        ]
        first = _judge(tally, step, runs, content[step.id])
        digests.update(zip((p.name for p in step.outputs(work)), first or []))

    def work_counts(rnd: dict) -> dict:
        # The validate report holds its own elapsed time, so its size in
        # bytes may differ between rounds; every other count must repeat.
        counts = {k: v for k, v in rnd["counts"].items() if k != "cli.bytes_written"}
        return {**counts, **{name: entry[0] for name, entry in rnd["layers"].items()}}

    counts = rounds[0]["counts"]
    if any(work_counts(rnd) != work_counts(rounds[0]) for rnd in rounds):
        tally.record(False, "per-layer counts differ between traced rounds")

    def layer(name: str, field: int) -> float:
        values = [rnd["layers"].get(name, [0, 0.0, 0.0])[field] for rnd in rounds]
        if field == 0:  # calls: the same in every round (checked with the counts)
            return values[0]
        return _median(values) * factor

    def overhead(commands: set) -> float:
        ids = [step.id for step in focus if step.command in commands]
        if not ids:
            return 0.0
        return _median([
            sum(rnd["traced"]["walls"][i] for i in ids)
            / sum(rnd["untraced"]["walls"][i] for i in ids) - 1.0
            for rnd in rounds
        ])

    values = {}
    for name in PER_LAYER:
        if name == "process.import_s":
            values[name] = _median([s["import_s"] for s in setups]) * factor
        elif name == "config.load_config.s":
            values[name] = _median([s["load_config_s"] for s in setups]) * factor
        elif name == "trace.overhead_frac":
            values[name] = overhead({step.command for step in focus})
        elif name.startswith("trace.overhead_frac."):
            values[name] = overhead({name.rsplit(".", 1)[1].replace("_", "-")})
        elif name == "cli.useful_row_ratio":
            rows = counts.get("cli.table_rows", 0)
            values[name] = (rows - counts.get("cli.pole_rows", 0)) / rows if rows else 0.0
        elif name.endswith(".calls"):
            values[name] = layer(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = layer(name[: -len(".self_s")], 2)
        elif name.endswith(".s"):
            values[name] = layer(name[: -len(".s")], 1)
        else:
            values[name] = counts.get(name, 0)
    from_setups = ("process.import_s", "config.load_config.s")
    return {
        "metrics": {
            name: {"value": v, "samples": len(setups) if name in from_setups else len(rounds)}
            for name, v in values.items()
        },
        "digests": digests,
        "setups": setups,
        "counts": counts,
        "rounds": len(rounds),
        "reference_s": references,
        "spans_file": str(spans_file),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {PACKAGE}; run from a dressedprobe checkout")
    os.chdir(ROOT)
    plan = make_plan(workload, seed, smoke)
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    for name, config in plan.configs.items():
        (work / f"{name}.json").write_text(json.dumps(config, indent=1))
    env = _child_env()
    _probe(work / f"{plan.setup_config}.json", env)  # warm-up: byte-compiles the package
    tally = Tally()
    if trace:
        outcome = _trace(plan, work, env, seconds, tally, smoke)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        outcome = _measure(plan, work, env, seconds, tally)
        units = END_TO_END
    missing = [name for name in units if name not in outcome["metrics"]]
    if missing:  # e.g. every set-up probe failed: nothing to report
        raise SystemExit(f"error: {missing} not measured; {tally.problems[:3]}")
    metrics = {name: {**outcome["metrics"][name], "unit": unit} for name, unit in units.items()}
    correct = tally.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    setups = outcome.pop("setups")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "why": next(w["why"] for w in _spec()["workloads"] if w["name"] == workload),
        "sizes": plan.sizes,
        "pole_share": POLE_SHARE if workload == "spectral_scan" else None,
        "steps": [
            {"id": s.id, "command": s.command, "config": s.config, "focus": s.focus}
            for s in plan.steps
        ],
        "machine": _machine(setups[0] if setups else None),
        "reference_job_s_at_reference_speed": REFERENCE_S,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ops_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "layer_map": {
            name: {"moves": spec[1], "workloads": spec[2]} for name, spec in PER_LAYER.items()
        },
        **outcome,
        "metrics": metrics,
    }
    record_file = RESULTS / f"{work.name}.json"
    record_file.write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{tally.failed} of {tally.attempted} operations failed "
          f"(failed_ops_frac {tally.failed / tally.attempted:.4g})")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    for name, metric in metrics.items():
        how = "largest of" if name == "peak_rss_mb" else "median of"
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']:6s} "
              f"({how} {metric['samples']})")
    for name, digest in sorted(outcome["digests"].items()):
        print(f"  sha256 {digest}  {name}")
    print(f"  record: {record_file}")
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke() -> int:
    """Every workload once at a tiny size, in both modes, against the schema."""
    spec = _spec()
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, seed=1, seconds=0, trace=bool(trace), smoke=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"{workload}/{trace}: result keys {sorted(result)}")
            if got != wanted[trace]:
                bad.append(f"{workload}/{trace}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                bad.append(f"{workload}/{trace}: not correct")
    for line in bad:
        print(f"smoke: {line}")
    print("smoke: ok" if not bad else "smoke: FAILED")
    return 0 if not bad else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
