"""Workload child process: runs one workload's ops through ``hinfkit.cli.main``.

Usage: python worker.py SPEC.json  (run by run.py with the BLAS thread
count pinned and ``src`` on PYTHONPATH; writes the file named in the spec).

The loop is closed: an op starts when the previous one returns. Whole
rounds of the schedule run until another round would overrun the time
budget, always at least one. Each op is timed around ``cli.main`` alone,
and the machine-speed kernel (speed.py) is timed right before it; the
report check happens after the clock stops. With tracing on, every op
runs twice back to back, untraced and then traced, so the pair gives the
tracing overhead on identical work. The workload's known-defect probes run
once after the rounds, untimed and untraced, and are reported apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import checker
import speed


def _env():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    schedule = spec["schedule"]
    trace = bool(spec["trace"])

    import hinfkit.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    digests = {}
    records = []  # (schedule index, cmd, seconds, failed, traced, start)
    kernels = []  # (time, kernel seconds), one before every op and one at the end
    origin = time.perf_counter()
    failures = []
    grid = [0, 0]  # certificates on the grid route, all certificates
    op_walls, op_labels = {}, []

    def run(i, traced):
        op = schedule[i]
        report = Path(op["report"])
        report.unlink(missing_ok=True)
        kernels.append((time.perf_counter() - origin, speed.kernel_s()))
        span = None
        if traced:
            tracer.install()
            span = tracer.begin_op(len(op_labels))
        t0 = time.perf_counter()
        try:
            code, error = cli.main(op["argv"]), None
        except Exception as exc:  # the op failed; the run goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if traced:
            tracer.end_op(span)
            tracer.uninstall()
            op_walls[len(op_labels)] = dt
            op_labels.append(op["label"])
        if error is not None:
            problems = [error]
        elif not report.exists():
            problems = [f"no report (exit code {code})"]
        else:
            data = report.read_bytes()
            problems = checker.check(op["expect"], code, data.decode())
            digest = hashlib.sha256(data).hexdigest()
            if digests.setdefault(tuple(op["argv"]), digest) != digest:
                problems.append("report differs from an earlier report of the same op")
            if traced == trace and code != 7:
                for cert in checker.certificates(op["cmd"], data.decode()):
                    grid[0] += cert["details"]["method"] == "grid"
                    grid[1] += 1
        if problems:
            failures.append(f"{op['label']} ({' '.join(op['argv'][:1] + op['argv'][4:])}): {'; '.join(problems)}")
        records.append((i, op["cmd"], dt, bool(problems), traced, t0 - origin))

    # Lazy imports and first-call set-up inside numpy/scipy are paid once
    # per process, not per op: run the cheapest op of each command untimed.
    for i in spec["warmup"]:
        cli.main(schedule[i]["argv"])
    speed.kernel_s()

    start = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for i in range(len(schedule)):
            run(i, False)
            if trace:
                run(i, True)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - r0) > spec["seconds"]:
            break

    kernels.append((time.perf_counter() - origin, speed.kernel_s()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probes = []  # (label, problems)
    for op in spec["probes"]:
        try:
            code = cli.main(op["argv"])
            problems = checker.check(op["expect"], code, Path(op["report"]).read_text())
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        probes.append((op["label"] + ("" if op["cmd"] == "verify" else f" ({op['cmd']})"), problems))

    result = {
        "rounds": rounds,
        "records": records,
        "kernels": kernels,
        "failures": failures,
        "probes": probes,
        "grid_certificates": grid,
        "peak_rss_mb": peak_rss_mb,
        "env": _env(),
    }
    if trace:
        summary = tracer.summary(op_walls, op_labels)
        summary["metrics"]["verify.grid_route_share"] = grid[0] / max(grid[1], 1)
        tracer.save(spec["spans"], op_labels)
        result["trace"] = summary
    Path(spec["results"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
