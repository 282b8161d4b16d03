"""hinfkit certificate benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from the repository root. Generates the workload's model and gain files
from the seed under .perfbench_out/, computes reference values for every
op without hinfkit, measures interpreter set-up, then runs the workload in
a fresh child process (worker.py) with one BLAS thread. Prints a readable
report, then as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from the outside-in tracer (tracer.py). --tiny shrinks
every workload to a few small plants; selftest.py uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
SETUP_SAMPLES = 11
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env):
    """Median wall time of a fresh interpreter importing hinfkit.cli (one warm-up first)."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hinfkit.cli"], env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def warmup_ops(schedule):
    """The first op of each command in the round; every workload lists a small plant first."""
    first = {}
    for i, op in enumerate(schedule):
        first.setdefault(op["cmd"], i)
    return sorted(first.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few small plants per workload")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "hinfkit" / "cli.py").is_file():
        print(f"perfbench: no hinfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = workloads.build(args.workload, args.seed, out, tiny=args.tiny)
    spec.update(
        seconds=args.seconds,
        trace=args.trace,
        warmup=warmup_ops(spec["schedule"]),
        results=str(out / "results.json"),
        spans=str(out / "spans.npz"),
    )
    (out / "spec.json").write_text(json.dumps(spec))

    env = child_env()
    setup_s = measure_setup(env) if args.trace == 0 else None
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(out / "spec.json")],
            env=env, cwd=ROOT, check=True,
            timeout=max(DEADLINE_S - (time.perf_counter() - started), 1.0),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: workload child failed: {exc}", file=sys.stderr)
        return 1
    res = json.loads((out / "results.json").read_text())
    return report(args, spec, res, setup_s)


def declared_units():
    """name -> unit of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer"))


def report(args, spec, res, setup_s):
    end_to_end_units, per_layer_units = declared_units()
    records = res["records"]
    attempted = len(records)
    failed = sum(1 for r in records if r[3])
    # Each untraced op time is scaled to the reference machine speed
    # (speed.py); then each op of the round is summarised by its median
    # over rounds.
    kernels = res["kernels"]
    plain = []  # (schedule index, cmd, scaled seconds, raw seconds)
    for i, cmd, dt, _, traced, start in records:
        if not traced:
            plain.append((i, cmd, dt * speed.scale(start, dt, kernels), dt))
    verify = [r[2] for r in plain if r[1] == "verify"]
    compare = [r[2] for r in plain if r[1] == "compare"]
    per_op, per_op_raw = {}, {}
    for i, _, scaled, raw in plain:
        per_op.setdefault(i, []).append(scaled)
        per_op_raw.setdefault(i, []).append(raw)
    op_med = {i: statistics.median(v) for i, v in per_op.items()}
    raw_med = {i: statistics.median(v) for i, v in per_op_raw.items()}
    schedule = spec["schedule"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {res['rounds']}",
        f"mix: {spec['mix']}; {len(spec['schedule'])} ops per round; closed loop, one client",
        "env: " + ", ".join(f"{k}={v}" for k, v in res["env"].items()),
    ]
    e2e = {
        "ops_per_s": len(schedule) / sum(op_med.values()),
        "verify_p50_s": statistics.median(op_med[i] for i in op_med if schedule[i]["cmd"] == "verify"),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if setup_s is not None:
        e2e["setup_s"] = setup_s
    lines.append(
        f"speed kernel: median {statistics.median(k for _, k in kernels):.6g} s over {len(kernels)} "
        f"timings (reference {speed.REFERENCE_S} s); op times below are scaled to the reference speed"
    )
    lines.append(
        f"ops_per_s = {e2e['ops_per_s']:.6g} 1/s  ({len(plain)} ops in {res['rounds']} rounds; "
        f"round size / sum of per-op medians, time inside cli.main only; unscaled "
        f"{len(schedule) / sum(raw_med.values()):.6g})"
    )
    lines.append(
        f"verify_p50_s = {e2e['verify_p50_s']:.6g} s  (median over the round's verify ops of their "
        f"per-op medians; {len(verify)} samples; unscaled "
        f"{statistics.median(raw_med[i] for i in raw_med if schedule[i]['cmd'] == 'verify'):.6g})"
    )
    if len(verify) >= 100:
        p90 = statistics.quantiles(verify, n=10)[8]
        lines.append(f"verify_p90_s = {p90:.6g} s  ({len(verify)} samples)")
    else:
        lines.append(f"verify_p90_s: not reported, {len(verify)} samples leave fewer than 10 beyond p90")
    if compare:
        p50 = statistics.median(op_med[i] for i in op_med if schedule[i]["cmd"] == "compare")
        lines.append(f"compare_p50_s = {p50:.6g} s  ({len(compare)} samples, per-op medians as above)")
    lines.append(f"peak_rss_mb = {e2e['peak_rss_mb']:.6g} MB  (worker process high-water mark)")
    if setup_s is not None:
        lines.append(f"setup_s = {setup_s:.6g} s  (median of {SETUP_SAMPLES} fresh `import hinfkit.cli`)")
    lines.append(f"fail_ratio = {failed / attempted:.6g}  ({failed} of {attempted} timed ops)")
    for msg in sorted(set(res["failures"])):
        lines.append(f"  failed: {msg}")
    probes = res["probes"]
    if probes:
        bad = [(label, problems) for label, problems in probes if problems]
        lines.append(
            f"known-defect probes: {len(bad)} of {len(probes)} fail  (run once, untimed, outside "
            f"attempted/failed; fail_ratio with them {(failed + len(bad)) / (attempted + len(probes)):.6g})"
        )
        lines += [f"  probe failed: {label}: {'; '.join(problems)}" for label, problems in bad]
        lines += [f"  probe passed: {label}" for label, problems in probes if not problems]

    trace_ok = True
    if args.trace:
        t = res["trace"]
        traced = [r[2] for r in records if r[4]]
        overhead = sum(traced) / sum(r[3] for r in plain) - 1.0
        trace_ok = not t["problems"]
        lines.append(
            f"tracing overhead = {overhead:+.2%}  (traced ops_per_s {len(traced) / sum(traced):.6g} "
            f"vs untraced {len(plain) / sum(r[3] for r in plain):.6g} on the same ops, unscaled)"
        )
        lines.append(
            f"self-time check: {'ok' if trace_ok else 'FAILED'}; {t['spans']} spans, "
            f"worst |sum(self) - wall| / wall = {t['self_sum_worst_rel_error']:.2e}"
        )
        lines += [f"  {p}" for p in t["problems"]]
        lines.append(f"kernel share of op time = {t['kernel_share']:.2%}")
        lines.append("self time per op by stage (top 15):")
        lines += [f"  {k:<48} {v:.6f} s" for k, v in list(t["self_s_per_op"].items())[:15]]
        lines.append("LAPACK calls by calling stage:")
        lines += [f"  {k:<48} {v}" for k, v in t["kernel_calls_by_stage"].items()]
        lines.append("inclusive stage time per op, by op label:")
        for label, stages in sorted(t["stage_s_by_label"].items()):
            lines.append(f"  {label}: " + ", ".join(f"{k.split('.')[-1]} {v:.4f} s" for k, v in stages.items()))
        for name, unit in per_layer_units.items():
            lines.append(f"{name} = {t['metrics'][name]:.6g} {unit}")
        metrics = {k: {"value": t["metrics"][k], "unit": u} for k, u in per_layer_units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in end_to_end_units.items()}
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
