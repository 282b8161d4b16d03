"""Checks one CLI report against the reference values its op carries.

An op fails on exit code 7 (or any code that does not match the verdict),
an exception, a wrong stability flag or verdict, a norm off its reference,
or a report that differs byte-for-byte from an earlier report of the same
op in the same run. The last check lives in the worker, which sees repeats.
"""

from __future__ import annotations

import json

EXIT_FOR_VERDICT = {"optimal": 0, "stable-but-suboptimal": 4, "unstable": 5}


def _check_cert(cert, exp, where):
    problems = []
    if cert["stable"] != exp["stable"]:
        problems.append(f"{where}stable={cert['stable']}, reference says {exp['stable']}")
    if exp["verdict"] is not None and cert["verdict"] != exp["verdict"]:
        problems.append(f"{where}verdict {cert['verdict']!r}, expected {exp['verdict']!r}")
    if not exp["stable"] and cert["verdict"] != "unstable":
        problems.append(f"{where}verdict {cert['verdict']!r} for an unstable loop")
    if exp["stable"] and cert["stable"] and exp["norm"] is not None:
        norm, want = cert["hinf_norm"], exp["norm"]
        if not abs(norm - want) <= exp["rtol"] * (1.0 + want):
            problems.append(f"{where}norm {norm!r}, reference {want!r}")
    return problems


def check(expect: dict, code: int, text: str) -> list:
    """Problems found in one op's exit code and report text; empty when correct."""
    if code == 7:
        return ["exit code 7 (internal error)"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    kind = expect["type"]
    if kind == "compare":
        cert = doc["closed_form"]["certificate"]
        problems = _check_cert(cert, expect["cert"], "closed form: ")
        gamma = doc["baseline"]["gamma_star"]
        if not expect["gamma_lo"] <= gamma <= expect["gamma_hi"]:
            problems.append(
                f"gamma_star {gamma!r} outside [{expect['gamma_lo']!r}, {expect['gamma_hi']!r}]"
            )
        if code != 0:
            problems.append(f"exit code {code} from compare")
        return problems
    cert = doc["certificate"]
    if kind == "machine":
        modes = doc.get("modes", [])
        problems = []
        if len(modes) != expect["modes"]:
            problems.append(f"{len(modes)} modal certificates, expected {expect['modes']}")
        mode_exp = {"stable": True, "norm": expect["norm"], "verdict": "optimal", "rtol": expect["rtol"]}
        for i, mode in enumerate(modes):
            problems += _check_cert(mode, mode_exp, f"mode {i}: ")
    else:
        problems = _check_cert(cert, expect, "")
    want_code = EXIT_FOR_VERDICT.get(cert["verdict"])
    if code != want_code:
        problems.append(f"exit code {code} for verdict {cert['verdict']!r}")
    return problems


def certificates(cmd: str, text: str) -> list:
    """Every certificate a report holds: modal ones for machine networks."""
    try:
        doc = json.loads(text)
    except ValueError:
        return []
    if cmd == "compare":
        return [doc["closed_form"]["certificate"]]
    return doc.get("modes") or [doc["certificate"]]
