"""The level tests at w = 0 agree with the sweeps they stand in for.

``lower_bound`` and ``zero_peak_inequality`` first try one Hamiltonian level test
that proves the peak lies at w = 0. Patched to return None, each sweeps as it
always did, which is the reference here: the bound must equal the sweep's, the
zero-peak check must never hold where the sweep does not, and the CLI's verify
and compare reports must not change by a byte.
"""

import json
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinfkit import (
    DescriptorPlant,
    NetworkModel,
    compile_network,
    lower_bound,
    verify,
    zero_peak_inequality,
)
from hinfkit.cli import main

LEVEL_TESTS = ("_bound_peaks_at_zero", "_descriptor_loop_below")


@contextmanager
def sweeps_only():
    """Both level tests patched off: the sweep decides."""
    with mock.patch.object(verify, LEVEL_TESTS[0], lambda *args: None), \
            mock.patch.object(verify, LEVEL_TESTS[1], lambda *args: None):
        yield


@contextmanager
def recorded(seen):
    """Both level tests as they are, each result appended to ``seen`` as (name, result)."""
    def spy(name):
        real = getattr(verify, name)

        def wrapper(*args):
            seen.append((name, real(*args)))
            return seen[-1][1]

        return wrapper

    with mock.patch.object(verify, LEVEL_TESTS[0], spy(LEVEL_TESTS[0])), \
            mock.patch.object(verify, LEVEL_TESTS[1], spy(LEVEL_TESTS[1])):
        yield


def network_doc(kind: str, rng, size: int) -> dict:
    """A small-batch network: a cascade with one (alpha, beta, tau) for all pools, rooms of
    unequal mass on a chain plus one chord, or a ring with unequal left and right coupling."""
    if kind == "irrigation":
        alpha, beta, tau = rng.uniform(0.1, 10.0, 3).tolist()
        params = {"alpha": [alpha] * size, "beta": [beta] * size, "tau": [tau] * size}
    elif kind == "thermal":
        links = [[i, i + 1, float(rng.uniform(0.5, 2.0))] for i in range(size - 1)]
        links.append([0, size - 1, float(rng.uniform(0.5, 2.0))])
        params = {"masses": rng.uniform(0.5, 3.0, size).tolist(), "heat_capacity": 1.0,
                  "leak": rng.uniform(0.2, 1.0, size).tolist(), "conduction": links, "outdoor": 0.0}
    else:
        left, right = rng.uniform(0.2, 1.5, 2)
        row = np.zeros(size)
        row[0], row[1], row[-1] = -(left + right + rng.uniform(0.5, 2.0)), left, right
        params, size = {"row": row.tolist()}, 0
    return {"format": 1, "kind": "network", "network_kind": kind, "nodes": size, "edges": [],
            "params": params}


def family_plant(kind: str, rng, n: int) -> DescriptorPlant:
    """One plant of a family: five matrix families, then the small-batch network kinds."""
    if kind in ("irrigation3", "irrigation10", "thermal", "circulant"):
        size = {"irrigation3": 3, "irrigation10": 10}.get(kind, n + 3)
        doc = network_doc(kind.rstrip("0123456789"), rng, size)
        return compile_network(NetworkModel(doc["network_kind"], doc["nodes"], [], doc["params"]))
    R = rng.standard_normal((n, n))
    B = rng.standard_normal((n, int(rng.integers(1, n + 1)))) * rng.choice([1e-2, 1.0, 3.0])
    shift = np.abs(np.linalg.eigvals(R).real).max() + rng.uniform(0.1, 2.0)
    if kind == "identity":
        return DescriptorPlant(np.eye(n), R - shift * np.eye(n), B)
    if kind == "diagonal":  # a near-symmetric A
        A = -(R @ R.T) - 0.1 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
        return DescriptorPlant(np.diag(rng.uniform(0.5, 3.0, n)), A, B)
    if kind == "dense":
        return DescriptorPlant(np.eye(n) + 0.3 * rng.standard_normal((n, n)), R - shift * np.eye(n), B)
    if kind == "spd":  # with a symmetric A
        Q = rng.standard_normal((n, n))
        return DescriptorPlant(Q @ Q.T + n * np.eye(n), -(R @ R.T) - 0.5 * np.eye(n), B)
    A = -np.eye(n)  # lightly damped rotations
    for i in range(n // 2):
        w, d = rng.uniform(0.5, 10.0), rng.uniform(1e-3, 0.5)
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[-d, w], [-w, -d]]
    return DescriptorPlant(np.eye(n), A, B)


FAMILIES = ("identity", "diagonal", "dense", "spd", "rotations",
            "irrigation3", "irrigation10", "thermal", "circulant")


@st.composite
def family_plants(draw):
    kind = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return family_plant(kind, rng, draw(st.integers(1, 6)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(family_plants())
def test_level_tests_agree_with_the_sweeps(plant):
    with sweeps_only():
        bound, peak = lower_bound(plant.to_rational()), zero_peak_inequality(plant)
    seen = []
    with recorded(seen):
        fast_bound, fast_peak = lower_bound(plant.to_rational()), zero_peak_inequality(plant)
    held = dict(seen)
    if not held.get(LEVEL_TESTS[0]):
        assert fast_bound == bound
    elif fast_bound != bound:
        # The sweep's best sample lies within TIE_RTOL of f(0), so it reports w = 0
        # too; it differs from f(0) only by rounding in lambda_min(S) near w = 0.
        G = plant.A @ plant.A.T + plant.B @ plant.B.T
        allowed = 4.0 * np.finfo(float).eps * np.linalg.cond(G) * bound.value
        assert fast_bound.omega == bound.omega == 0.0
        assert abs(fast_bound.value - bound.value) <= allowed
    if held.get(LEVEL_TESTS[1]):
        assert fast_peak.holds and peak.holds
        assert (fast_peak.checked_up_to, fast_peak.tail_rule) == (peak.checked_up_to, peak.tail_rule)
    else:
        assert fast_peak == peak


@pytest.mark.parametrize("kind, size", [
    ("irrigation", 3), ("irrigation", 10), ("thermal", 5), ("circulant", 6),
])
def test_reports_do_not_change(kind, size, tmp_path):
    model = tmp_path / "plant.model"
    model.write_text(json.dumps(network_doc(kind, np.random.default_rng(7), size)))
    seen = []
    for command in ("verify", "compare"):
        fast, swept = tmp_path / f"{command}.fast.json", tmp_path / f"{command}.swept.json"
        with recorded(seen):
            code = main([command, str(model), "--out", str(fast)])
        with sweeps_only():
            assert main([command, str(model), "--out", str(swept)]) == code
        assert fast.read_bytes() == swept.read_bytes()
    assert set(seen) == {(LEVEL_TESTS[0], True), (LEVEL_TESTS[1], True)}
