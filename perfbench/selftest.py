"""The benchmark's own test: every workload at tiny size, the checker and the tracer.

    python3 perfbench/selftest.py

Runs run.py --tiny on each workload with and without tracing, checks that
the last output line follows the result format with exactly the metrics
BENCHMARK.json declares, that the tracer's self-time check passed, that
the known-defect probes ran, that the checker rejects wrong reports, and
that the benchmark refuses to run without the program's sources. Takes
well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cert(verdict="optimal", stable=True, norm=1.0):
    return {"stable": stable, "verdict": verdict, "hinf_norm": norm, "details": {"method": "grid"}}


def check_checker():
    expect = {"type": "cert", "stable": True, "norm": 1.0, "verdict": "optimal", "rtol": 1e-6}
    good = json.dumps({"certificate": _cert()})
    cases = {
        "correct report": (0, good, False),
        "wrong norm": (0, json.dumps({"certificate": _cert(norm=1.01)}), True),
        "wrong verdict": (4, json.dumps({"certificate": _cert("stable-but-suboptimal")}), True),
        "unstable verdict on a stable loop": (5, json.dumps({"certificate": _cert("unstable", False, math.inf)}), True),
        "exit code 7": (7, "", True),
        "exit code off its verdict": (4, good, True),
    }
    errors = []
    for name, (code, text, should_fail) in cases.items():
        if bool(checker.check(expect, code, text)) != should_fail:
            errors.append(f"checker: {name}: expected {'a problem' if should_fail else 'no problem'}")
    return errors


def run_bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_workloads(spec):
    errors = []
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            tag = f"{name} --trace {trace}"
            proc = run_bench(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"], ROOT)
            if proc.returncode != 0:
                errors.append(f"{tag}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                errors.append(f"{tag}: attempted = {result['attempted']!r}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                errors.append(f"{tag}: metrics {units} differ from BENCHMARK.json {declared[trace]}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                errors.append(f"{tag}: non-finite metric")
            if trace and "self-time check: ok" not in proc.stdout:
                errors.append(f"{tag}: tracer self-time check did not pass")
            if name != "buffer-ladder" and "known-defect probes:" not in proc.stdout:
                errors.append(f"{tag}: no known-defect probe results")
            print(f"ok  {tag}: attempted {result['attempted']}, failed {result['failed']}")
    return errors


def check_refuses_without_sources():
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_checker() + check_workloads(spec) + check_refuses_without_sources()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
