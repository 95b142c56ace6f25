"""orbitcalc benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload {presentation,elimination,calculus}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The program under test is ``src/orbitcalc``
of that checkout.  One caller calls the library's public API on one thread;
each task starts when the previous one returns.  Tasks run in passes over
the workload's fixed task list until ``--seconds`` of task time is measured
(at least one full pass).  Every output is checked exactly, outside the
timed region.

Times are reported in reference seconds: a fixed reference kernel is timed
every quarter second (see ``reference.py``), and each task's wall time is
divided by the mean kernel time around it and multiplied by the kernel's
nominal time.  That takes out the host's own swings in speed; raw wall
times are in the report.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end;
with ``--trace 1`` a traced pass follows a shorter untraced phase and the
metrics are per layer.  The line before it is a report with the
environment, the output digest and figures that are not metrics.  Both are
also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# Cold set-ups per run, each in a fresh interpreter; setup_s is their median.
SETUPS = 3

# Child program for one cold set-up: import, then build the workload.  It
# prints the set-up's wall time and its time in reference seconds, both
# without the time of the kernel readings.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[2])
import reference
with reference.Sampler() as sampler:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import workloads
    workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
    end = time.perf_counter()
wall = end - start - sampler.handler_seconds(start, end)
print(wall, sampler.reference_seconds(wall, start, end))
"""


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cold_setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Wall seconds and reference seconds of one cold set-up in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, SRC, HERE, workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    wall, scaled = map(float, proc.stdout.split()[-2:])
    return wall, scaled


class Loop:
    """Closed-loop execution of a task list.

    Output checks run between tasks, outside the timed region; under a
    tracer they run with tracing paused, so they add nothing to the layer
    counts.  With a sampler, a task's time leaves out the kernel readings
    that landed in it, and :meth:`scaled` gives the times in reference
    seconds once the sampler has stopped.
    """

    def __init__(self, tasks, tracer=None, sampler=None):
        self.tasks = tasks
        self.tracer = tracer
        self.sampler = sampler
        self.multiplicity = Counter(task.kind for task in tasks)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.first_lines: dict[int, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, index: int, message: str):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{self.tasks[index].kind}: {message}")

    def step(self, index: int) -> float:
        """Runs task ``index``, checks its output, returns the timed part."""
        task = self.tasks[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = task.run()
        except Exception as exc:  # a failing task is counted, not fatal
            elapsed = time.perf_counter() - start
            self._fail(index, f"{type(exc).__name__}: {exc}")
            return elapsed
        end = time.perf_counter()
        elapsed = end - start
        if self.sampler is not None:
            elapsed -= self.sampler.handler_seconds(start, end)
        self.samples[task.kind].append(elapsed)
        self.intervals[task.kind].append((start, end))
        # The identities are verified on a task's first output; a repeat
        # must print the same canonical lines.
        try:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                lines = task.lines(output)
                if index not in self.first_lines and task.verify is not None:
                    task.verify(output)
        except Exception as exc:
            self._fail(index, f"check failed: {type(exc).__name__}: {exc}")
            return elapsed
        if self.first_lines.setdefault(index, lines) != lines:
            self._fail(index, "output differs from the first pass")
        return elapsed

    def run_for(self, seconds: float):
        """Passes until ``seconds`` of task time, at least one full pass."""
        measured, index, passes = 0.0, 0, 0
        while passes == 0 or measured < seconds:
            measured += self.step(index)
            index += 1
            if index == len(self.tasks):
                index, passes = 0, passes + 1

    def scaled(self) -> dict[str, list[float]]:
        """The task times in reference seconds."""
        return {
            kind: [self.sampler.reference_seconds(x, *span) for x, span in zip(times, self.intervals[kind])]
            for kind, times in self.samples.items()
        }

    def pass_seconds(self, samples: dict[str, list[float]]) -> float:
        """Time of one pass: per-kind mean times the kind's count.

        Means, not medians: a kind has few samples in a rung workload, and
        its mean is what a pass's time is made of."""
        return sum(n * statistics.fmean(samples[k]) for k, n in self.multiplicity.items() if samples.get(k))

    def digest(self, setup_lines: list[str]) -> str:
        h = hashlib.sha256()
        for line in setup_lines + [line for i in sorted(self.first_lines) for line in self.first_lines[i]]:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()


def per_layer_metrics(tracer, overhead_s: float) -> dict:
    metrics = {}
    for prefix, fields in PER_LAYER:
        stat = tracer.stat(prefix)
        ratio = stat.hits / stat.calls if stat.calls else 0.0
        values = {
            "calls": stat.calls,
            "s": stat.inclusive,
            "self_s": stat.self_time,
            "cells": stat.work,
            "term_products": stat.work,
            "hit_ratio": ratio,
            "member_ratio": ratio,
        }
        for field in fields:
            metrics[f"{prefix}.{field}"] = {"value": values[field], "unit": UNITS[field]}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


# Per-layer metric prefixes and the fields reported for each.
PER_LAYER = (
    ("group_action.reynolds", ("calls", "s", "self_s")),
    ("group_action.act_poly", ("calls", "self_s")),
    ("group_action.mat_inverse", ("calls",)),
    ("group_action.act_form", ("calls",)),
    ("group_action.is_invariant", ("calls",)),
    ("group_action.closure", ("s",)),
    ("invariants.invariant_basis", ("calls", "self_s")),
    ("invariants.invariant_combination", ("calls", "self_s", "hit_ratio")),
    ("invariants.subduct", ("calls", "self_s")),
    ("invariants.invariant_generators", ("s",)),
    ("invariants.relations", ("s",)),
    ("invariants.equivariant_generators", ("s",)),
    ("linalg.echelon", ("calls", "s", "cells")),
    ("linalg.solve", ("calls",)),
    ("groebner.buchberger", ("calls", "self_s")),
    ("groebner.divide", ("calls", "s")),
    ("groebner.normal_form", ("calls",)),
    ("groebner.eliminate", ("s",)),
    ("groebner.module_solve", ("calls", "self_s", "member_ratio")),
    ("groebner.syzygies", ("calls", "self_s")),
    ("exterior.evaluate", ("calls", "s")),
    ("exterior.d", ("calls",)),
    ("exterior.wedge", ("calls",)),
    ("exterior.interior", ("calls",)),
    ("exterior.semibasic_check", ("calls",)),
    ("quotient.push_vf", ("calls", "s")),
    ("quotient.lift_vf", ("calls", "s")),
    ("quotient.orbit_bracket", ("calls", "s")),
    ("quotient.push_form", ("calls", "s")),
    ("quotient.pull_form", ("calls", "s")),
    ("quotient.orbit_d", ("calls", "s")),
    ("quotient.orbit_wedge", ("calls", "s")),
    ("quotient.extend_check", ("calls", "s")),
    ("quotient.pushed_generators", ("s",)),
    ("quotient.generator_syzygies", ("s",)),
    ("algebra.poly_mul", ("calls", "term_products")),
    ("algebra.substitute", ("calls",)),
)
UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "cells": "count",
    "term_products": "count",
    "hit_ratio": "ratio",
    "member_ratio": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orbitcalc", "__init__.py")):
        print(f"orbitcalc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()[0]
    setups = [cold_setup_seconds(args.workload, args.seed) for _ in range(SETUPS)]

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_failed = 0
    try:
        setup_lines = workload.check_setup()
    except workloads.CheckFailed as exc:
        setup_failed, setup_lines = 1, [f"set-up check failed: {exc}"]

    with reference.Sampler() as sampler:
        loop = Loop(workload.tasks(), sampler=sampler)
        started = time.perf_counter()
        loop.run_for(args.seconds / 2 if args.trace else args.seconds)
        timed_wall = time.perf_counter() - started
    scaled = loop.scaled()
    run_s = loop.pass_seconds(scaled)
    run_wall_s = loop.pass_seconds(loop.samples)
    pooled = sorted(x for v in scaled.values() for x in v)

    report = {
        "workload": args.workload,
        "environment": {
            "python": platform.python_version(),
            "nproc": nproc,
            "seed": args.seed,
            "commit": git_commit(),
            "trace": bool(args.trace),
            "load_1min_before": load_before,
        },
        "digest": loop.digest(setup_lines),
        "timed_wall_s": timed_wall,
        "run_wall_s": run_wall_s,
        "setup_wall_s": statistics.median(wall for wall, _ in setups),
        "kernel_ms": {
            "nominal": 1000 * reference.NOMINAL_S,
            "readings": len(sampler.kernel),
            "median": 1000 * statistics.median(sampler.kernel),
            "min": 1000 * min(sampler.kernel),
            "max": 1000 * max(sampler.kernel),
        },
        "kind_mean_ms": {k: 1000 * statistics.fmean(v) for k, v in scaled.items()},
        "errors": loop.errors,
    }
    if pooled:
        report["op_ms_p50"] = {"value": 1000 * statistics.median(pooled), "unit": "ms", "samples": len(pooled)}
    # The 90th percentile is reported only when at least ten samples lie
    # beyond it.
    if len(pooled) >= 100:
        p90 = statistics.quantiles(pooled, n=10)[-1]
        beyond = sum(x > p90 for x in pooled)
        if beyond >= 10:
            report["op_ms_p90"] = {"value": 1000 * p90, "unit": "ms", "samples": len(pooled), "beyond": beyond}

    attempted, failed = loop.attempted + setup_failed, loop.failed + setup_failed
    if args.trace:
        tracer = Tracer()
        traced = Loop(workload.tasks(tracer), tracer)
        twin = Loop(workload.tasks())
        if args.workload == "calculus":
            with tracer.installed():
                workloads.build_calculus_spaces()  # the set-up's space builds, traced
        # Each task runs untraced and then traced, back to back, so that both
        # meet the host at the same speed and their difference is the
        # tracing's own cost.
        traced_s = twin_s = 0.0
        for index in range(len(traced.tasks)):
            twin_s += twin.step(index)
            with tracer.installed():
                traced_s += traced.step(index)
        attempted += traced.attempted + twin.attempted
        failed += traced.failed + twin.failed
        report["errors"] += traced.errors + twin.errors
        if traced.digest(setup_lines) != report["digest"]:
            failed += 1
            report["errors"].append("traced outputs differ from untraced outputs")
        report["stages_s"] = {
            name: tracer.stat(name).inclusive for name in tracer.stats if name.startswith("stage.")
        }
        metrics = per_layer_metrics(tracer, traced_s - twin_s)
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(scaled for _, scaled in setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    load_after = os.getloadavg()[0]
    report["environment"]["load_1min_after"] = load_after
    if max(load_before, load_after) > nproc:
        report["environment"]["warning"] = f"1-minute load average exceeded nproc={nproc}; timings are suspect"
    report["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        samples_ms = {k: [1000 * x for x in v] for k, v in loop.samples.items()}
        scaled_ms = {k: [1000 * x for x in v] for k, v in scaled.items()}
        kernel_ms = [(round(t - started, 4), 1000 * x) for t, x in zip(sampler.starts, sampler.kernel)]
        json.dump(
            {"report": report, "result": result, "samples_ms": samples_ms, "scaled_ms": scaled_ms, "kernel_ms": kernel_ms},
            fh,
            indent=1,
        )
    if args.trace:
        tracer.write_spans(stem + "-spans.json")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
