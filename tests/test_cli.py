import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hinfkit.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_SUBOPTIMAL,
    EXIT_UNSTABLE,
    _text,
    build_parser,
    load_model,
    main,
)
from hinfkit import DescriptorPlant, HinfkitError, NetworkModel, RationalPlant, SchemaError, cli
from conftest import random_buffer
from test_golden import MODELS
from test_verify import SLOW_POLE_K, SLOW_POLE_M, SLOW_POLE_N, slow_pole_norm_at_zero


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def lag_model(tmp_path):
    return write(tmp_path / "lag.model", {"format": 1, "kind": "descriptor", "A": [[-1.0]], "B": [[1.0]]})


@pytest.fixture
def buffer_model(tmp_path):
    return write(
        tmp_path / "buf.model",
        {
            "format": 1,
            "kind": "network",
            "network_kind": "buffer",
            "nodes": 3,
            "edges": [[0, 1], [1, 2]],
            "params": {"a": [1.0, 2.0, 3.0]},
        },
    )


@pytest.fixture
def droop_model(tmp_path):
    return write(
        tmp_path / "droop.model",
        {
            "format": 1,
            "kind": "rational",
            "M": [[{"num": [1.0, 0.5, 0.25], "den": [0.0, 1.0]}]],
            "N": [[{"num": [1.0]}]],
        },
    )


class TestLoadModel:
    def test_descriptor(self, lag_model):
        model = load_model(lag_model)
        assert isinstance(model, DescriptorPlant)

    def test_network(self, buffer_model):
        model = load_model(buffer_model)
        assert isinstance(model, NetworkModel) and model.kind == "buffer"

    def test_rational(self, droop_model):
        assert isinstance(load_model(droop_model), RationalPlant)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_model(str(tmp_path / "nope.model"))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.model"
        p.write_text("")
        with pytest.raises(SchemaError):
            load_model(str(p))

    def test_missing_field_reports_path(self, tmp_path):
        p = write(tmp_path / "no_b.model", {"format": 1, "kind": "descriptor", "A": [[-1.0]]})
        with pytest.raises(SchemaError) as err:
            load_model(p)
        assert err.value.field == "B"


class TestExitCodes:
    def test_verify_optimal(self, lag_model, tmp_path, capsys):
        assert main(["verify", lag_model]) == EXIT_OK

    def test_verify_suboptimal_gain(self, lag_model, tmp_path, capsys):
        gain = write(tmp_path / "zero.json", {"K": [[0.0]]})
        assert main(["verify", lag_model, "--gain", gain]) == EXIT_SUBOPTIMAL

    def test_verify_destabilizing_gain(self, lag_model, tmp_path, capsys):
        gain = write(tmp_path / "bad.json", {"K": [[5.0]]})
        assert main(["verify", lag_model, "--gain", gain]) == EXIT_UNSTABLE

    def test_verify_omega0_at_entry_pole(self, droop_model, tmp_path, capsys):
        # M has a pole at w0 = 0, so sigma_max(T(j w0)) cannot be evaluated:
        # the value test fails instead of the command crashing.
        gain = write(tmp_path / "droop_gain.json", {"K": [[-2.0]]})
        out = tmp_path / "report.json"
        args = ["verify", droop_model, "--gain", gain, "--omega0", "0", "--out", str(out)]
        assert main(args) == EXIT_SUBOPTIMAL
        details = json.loads(out.read_text())["certificate"]["details"]
        assert math.isnan(details["omega0_sigma_max"])
        assert math.isnan(details["omega0_margin"])

    def test_schema_error(self, tmp_path, capsys):
        p = tmp_path / "broken.model"
        p.write_text("{not json")
        assert main(["verify", str(p)]) == EXIT_SCHEMA

    def test_invariant_error_nonpositive_rate(self, tmp_path, capsys):
        p = write(
            tmp_path / "bad_rate.model",
            {
                "format": 1,
                "kind": "network",
                "network_kind": "buffer",
                "nodes": 2,
                "edges": [[0, 1]],
                "params": {"a": [1.0, -1.0]},
            },
        )
        assert main(["verify", p]) == EXIT_INVARIANT
        assert "positive" in capsys.readouterr().err

    def test_invariant_error_singular_A(self, tmp_path, capsys):
        p = write(tmp_path / "singular.model", {"format": 1, "kind": "descriptor", "A": [[0.0]], "B": [[1.0]]})
        assert main(["verify", p]) == EXIT_INVARIANT
        assert "invertible" in capsys.readouterr().err


class TestReports:
    def test_verify_report_content(self, lag_model, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", lag_model, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["certificate"]["verdict"] == "optimal"
        assert doc["certificate"]["hinf_norm"] == pytest.approx(2**-0.5, abs=1e-7)
        assert doc["gain"]["K"] == [[-1.0]]
        assert doc["checks"]["symmetric_commuting"]["holds"] is True
        assert len(doc["model"]["digest"]) == 64

    def test_report_round_trips(self, buffer_model, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", buffer_model, "--out", str(out)])
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_deterministic_output(self, buffer_model, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", buffer_model, "--out", str(out1)])
        main(["verify", buffer_model, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_synth_weighted(self, lag_model, tmp_path):
        qfile = write(tmp_path / "q.json", {"Q": [[2.0]]})
        out = tmp_path / "synth.json"
        assert main(["synth", lag_model, "--weighted", qfile, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["gain"]["K"] == [[-4.0]]
        assert doc["gain"]["formula"] == "weighted"

    def test_lower_bound_command(self, lag_model, tmp_path):
        out = tmp_path / "lb.json"
        assert main(["lower-bound", lag_model, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["lower_bound"]["value"] == pytest.approx(2**-0.5, rel=1e-9)
        assert doc["lower_bound"]["omega"] == 0.0

    def test_compare_three_state(self, tmp_path):
        model = write(
            tmp_path / "demo.model",
            {
                "format": 1,
                "kind": "descriptor",
                "A": [[-1.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, -2.0]],
                "B": [[-1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]],
            },
        )
        out = tmp_path / "cmp.json"
        assert main(["compare", model, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["closed_form"]["certificate"]["verdict"] == "optimal"
        assert doc["sparsity_contrast"]["closed_form_zeros"] == 4
        assert doc["sparsity_contrast"]["baseline_zeros"] == 0
        assert doc["norm_ratio"] == pytest.approx(1.0, abs=1e-4)

    def test_verify_reports_fallback_checks(self, tmp_path):
        # thermal rooms with unequal masses: commutation flag drops, the
        # report falls back to the dominance and pencil tests
        model = write(
            tmp_path / "rooms.model",
            {
                "format": 1,
                "kind": "network",
                "network_kind": "thermal",
                "nodes": 2,
                "edges": [],
                "params": {
                    "masses": [2.0, 1.0],
                    "heat_capacity": 1.0,
                    "leak": [1.0, 1.0],
                    "conduction": [[0, 1, 1.0]],
                },
            },
        )
        out = tmp_path / "rooms.json"
        code = main(["verify", model, "--out", str(out)])
        doc = json.loads(out.read_text())
        checks = doc["checks"]
        assert checks["symmetric_commuting"]["holds"] is False
        assert checks["symmetric_commuting"]["commuting"] is False
        assert "fallback" in checks
        assert checks["fallback"]["pencil_stability"]["stable"] is True
        assert code in (EXIT_OK, EXIT_SUBOPTIMAL)


class TestFreqresp:
    def test_droop_peak_row(self, droop_model, tmp_path):
        out = tmp_path / "resp.csv"
        assert main(
            ["freqresp", droop_model, "--omega0", "2", "--points", "400", "--out", str(out)]
        ) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,sigma_max,is_peak"
        peaks = [l for l in lines[1:] if l.endswith(",1")]
        assert len(peaks) == 1
        omega_peak = float(peaks[0].split(",")[0])
        assert abs(omega_peak - 2.0) / 2.0 < 0.05  # within the 400-point grid spacing

    def test_float_round_trip(self, lag_model, tmp_path):
        out = tmp_path / "resp.csv"
        main(["freqresp", lag_model, "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:3]:
            w, v, _ = line.split(",")
            assert repr(float(w)) == w and repr(float(v)) == v


class TestGenerate:
    def test_buffer_round_trip(self, tmp_path):
        out = tmp_path / "gen.model"
        assert main(
            ["generate", "buffer", "--rates", "1,2,3", "--edges", "0-1,1-2", "--out", str(out)]
        ) == EXIT_OK
        model = load_model(str(out))
        assert model.kind == "buffer" and model.nodes == 3
        assert main(["verify", str(out), "--out", str(tmp_path / "v.json")]) == EXIT_OK

    def test_irrigation_broadcast(self, tmp_path):
        out = tmp_path / "irr.model"
        assert main(
            ["generate", "irrigation", "--nodes", "3", "--alpha", "1", "--beta", "2", "--tau", "0.5",
             "--out", str(out)]
        ) == EXIT_OK
        model = load_model(str(out))
        assert model.params["alpha"] == [1.0, 1.0, 1.0]

    def test_circulant(self, tmp_path):
        # note the --row= form: a leading minus sign would otherwise read as an option
        out = tmp_path / "ring.model"
        assert main(["generate", "circulant", "--row=-3,1,0,1", "--out", str(out)]) == EXIT_OK
        assert main(["verify", str(out), "--out", str(tmp_path / "v.json")]) == EXIT_OK

    def test_machine(self, tmp_path):
        out = tmp_path / "grid.model"
        assert main(
            ["generate", "machine", "--nodes", "3", "--mass", "1", "--damping", "2",
             "--edges", "0-1:1,1-2:1", "--out", str(out)]
        ) == EXIT_OK
        assert main(["verify", str(out), "--out", str(tmp_path / "v.json")]) == EXIT_OK

    def test_invalid_rates_rejected_before_writing(self, tmp_path):
        out = tmp_path / "bad.model"
        assert main(
            ["generate", "buffer", "--rates", "1,-2", "--edges", "0-1", "--out", str(out)]
        ) == EXIT_INVARIANT
        assert not out.exists()


@pytest.fixture
def singular_e_model(tmp_path):
    """E = diag(1, 0), A = -I, B = I: an algebraic second state."""
    return write(
        tmp_path / "singular_e.model",
        {"format": 1, "kind": "descriptor", "E": [[1.0, 0.0], [0.0, 0.0]],
         "A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
    )


class TestSingularDescriptor:
    def test_library_certifies_on_grid(self):
        from hinfkit import certify_optimality, descriptor_gain

        plant = DescriptorPlant(np.diag([1.0, 0.0]), -np.eye(2), np.eye(2))
        cert = certify_optimality(plant.to_rational(), descriptor_gain(plant))
        assert cert.verdict == "optimal"
        assert cert.details["method"] == "grid"

    def test_verify_emits_certificate(self, singular_e_model, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", singular_e_model, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["certificate"]["verdict"] == "optimal"
        assert doc["certificate"]["details"]["method"] == "grid"
        pencil = doc["checks"]["fallback"]["pencil_stability"]
        assert pencil["applicable"] is False
        assert "zero_peak_inequality" in doc["checks"]["fallback"]

    def test_freqresp_tabulates(self, singular_e_model, tmp_path):
        from hinfkit import Gain, eval_closed_rational

        out = tmp_path / "r.csv"
        assert main(["freqresp", singular_e_model, "--points", "20", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 21
        plant = DescriptorPlant(np.diag([1.0, 0.0]), -np.eye(2), np.eye(2)).to_rational()
        w, v, _ = rows[5].split(",")
        expect = np.linalg.norm(eval_closed_rational(plant, Gain(-np.eye(2)), float(w)), 2)
        assert float(v) == expect

    def test_compare_refuses_singular_E(self, singular_e_model, capsys):
        assert main(["compare", singular_e_model]) == EXIT_INVARIANT
        assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["verify", "lower-bound", "compare", "freqresp"])
def test_weighted_only_on_synth(cmd, lag_model, tmp_path, capsys):
    qfile = write(tmp_path / "q.json", {"Q": [[2.0]]})
    with pytest.raises(SystemExit) as err:
        main([cmd, lag_model, "--weighted", qfile])
    assert err.value.code == 2
    assert "--weighted" in capsys.readouterr().err


def test_rational_model_with_nan_coefficient(tmp_path, capsys):
    p = tmp_path / "nan.model"
    p.write_text('{"format": 1, "kind": "rational", "M": [[[1.0, NaN]]], "N": [[[1.0]]]}')
    assert main(["verify", str(p)]) == EXIT_INVARIANT
    assert "finite" in capsys.readouterr().err


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16, 0.1, 1e-300]),
    st.text(),
    st.sampled_from(["", "\u00e9\u03c9\u2208", "\"quoted\"", "back\\slash", "tab\tnew\nline\x00", "\U0001f600"]),
    st.just([]),
    st.just({}),
)

DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=5), st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS)
def test_report_text_matches_indented_json(doc):
    assert _text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _plain(x):
    """``x`` with ndarrays, numpy scalars and tuples as the JSON values they stand for."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


NUMPY_VALUES = {
    "empty": np.zeros(0),
    "vector": np.array([0.1, -2.5, 1e-300]),
    "matrix": np.arange(6.0).reshape(2, 3) / 7.0,
    "no_columns": np.zeros((3, 0)),
    "float64": np.float64(0.1),
    "int64": np.int64(-7),
    "true": np.bool_(True),
    "false": np.bool_(False),
    "tuple": (1, "a", None, np.float64(2.5)),
    "nested_tuple": ({"k": (np.int64(3),)}, [np.zeros((1, 2))]),
}


@pytest.mark.parametrize("name", NUMPY_VALUES)
@pytest.mark.parametrize(
    "shape",
    [lambda v: v, lambda v: {"v": v, "x": 1.5}, lambda v: [v, "x"],
     lambda v: {"a": {"b": [v, {"c": v}]}, "d": [[v]]}],
    ids=["bare", "flat-dict", "flat-list", "nested"],
)
def test_report_text_converts_numpy_values(name, shape):
    doc = shape(NUMPY_VALUES[name])
    assert _text(doc) == json.dumps(_plain(doc), indent=2, sort_keys=True)


def test_report_text_converts_a_whole_numpy_document():
    doc = {**NUMPY_VALUES, "list": list(NUMPY_VALUES.values())}
    assert _text(doc) == json.dumps(_plain(doc), indent=2, sort_keys=True)


# Cells a report matrix can hold: mostly exact zeros, as in a sparse gain.
FLOAT_CELLS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e16, 0.1, -1.5]),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
    st.floats(),
)
MATRIX_SHAPES = st.one_of(
    st.sampled_from([(0, 3), (3, 0), (1, 1), (7, 5)]), hnp.array_shapes(min_dims=2, max_dims=2)
)
MATRICES = st.one_of(
    hnp.arrays(np.float64, MATRIX_SHAPES, elements=FLOAT_CELLS, fill=st.just(0.0)),
    hnp.arrays(np.float64, MATRIX_SHAPES, elements=FLOAT_CELLS),
    hnp.arrays(np.int64, MATRIX_SHAPES),
    hnp.arrays(np.bool_, MATRIX_SHAPES),
)
NESTINGS = [lambda m: m, lambda m: {"K": m, "omega0": 0.0},
            lambda m: {"gain": {"K": m, "v": [m, {"w": m}]}}, lambda m: [[m, "x"], m]]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(MATRICES, st.sampled_from(NESTINGS))
def test_report_text_writes_matrices_as_json_does(matrix, nest):
    doc = nest(matrix)
    assert _text(doc) == json.dumps(_plain(doc), indent=2, sort_keys=True)


def test_buffer_verify_report_is_what_json_writes(tmp_path, monkeypatch):
    net = random_buffer(np.random.default_rng(1), 200)
    model = write(tmp_path / "buffer200.model", {
        "format": 1, "kind": "network", "network_kind": "buffer", "nodes": 200,
        "edges": [list(e) for e in net.edges], "params": {"a": net.params["a"].tolist()}})
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, out: emit(docs.append(doc) or doc, out))
    out = tmp_path / "report.json"
    assert main(["verify", model, "--out", str(out)]) == EXIT_OK
    K = docs[0]["gain"]["K"]
    assert isinstance(K, np.ndarray) and K.shape == (598, 200)
    assert out.read_text() == json.dumps(_plain(docs[0]), indent=2, sort_keys=True) + "\n"


def _reduced_abscissa(E, A, B, K):
    """Largest real part of the finite poles of E xdot = (A + B K) x, E = diag(I, 0).

    The last state is algebraic: eliminating it leaves an ordinary matrix.
    """
    Acl = A + B @ K
    reduced = Acl[:-1, :-1] - np.outer(Acl[:-1, -1], Acl[-1, :-1]) / Acl[-1, -1]
    return float(np.linalg.eigvals(reduced).real.max())


def test_verify_singular_descriptor_beyond_eight_states(tmp_path):
    n = 10
    E = np.diag([1.0] * (n - 1) + [0.0])
    A = -np.diag(np.arange(1.0, n + 1))
    A[0, 1] = 0.3
    B = np.eye(n)[:, :3] + 0.1
    model = write(tmp_path / "singular10.model",
                  {"format": 1, "kind": "descriptor", "E": E.tolist(), "A": A.tolist(), "B": B.tolist()})
    out = tmp_path / "v.json"
    assert main(["verify", model, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    cert = doc["certificate"]
    assert cert["verdict"] == "optimal"
    expect = _reduced_abscissa(E, A, B, np.array(doc["gain"]["K"]))
    assert cert["details"]["abscissa"] == pytest.approx(expect, rel=1e-9)


def test_verify_dense_rational_beyond_eight_outputs(tmp_path):
    # M(s) = E s^2 + F s + L, N = B: a dense plant with no descriptor form
    k, m = 12, 2
    rng = np.random.default_rng(12)
    X = rng.standard_normal((k, k))
    L = X @ X.T / k + np.eye(k)
    F = 2.0 * np.eye(k) + 0.3 * rng.standard_normal((k, k)) / math.sqrt(k)
    E = np.eye(k) + 0.1 * rng.standard_normal((k, k)) / math.sqrt(k)
    B = rng.standard_normal((k, m))
    M = [[[L[i, j], F[i, j], E[i, j]] for j in range(k)] for i in range(k)]
    N = [[[B[i, j]] for j in range(m)] for i in range(k)]
    model = write(tmp_path / "dense12.model", {"format": 1, "kind": "rational", "M": M, "N": N})
    out = tmp_path / "v.json"
    assert main(["verify", model, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    cert = doc["certificate"]
    assert cert["verdict"] == "optimal"
    K = np.array(doc["gain"]["K"])
    companion = np.block([[np.zeros((k, k)), np.eye(k)],
                          [-np.linalg.solve(E, L - B @ K), -np.linalg.solve(E, F)]])
    expect = float(np.linalg.eigvals(companion).real.max())
    assert cert["details"]["abscissa"] == pytest.approx(expect, rel=1e-9)


@pytest.fixture
def slow_pole_args(tmp_path):
    """Model and --gain arguments for the loop diag(s + 1e-8, 2e5 (s + 1))."""
    model = write(tmp_path / "slow.model",
                  {"format": 1, "kind": "rational", "M": SLOW_POLE_M, "N": SLOW_POLE_N})
    return [model, "--gain", write(tmp_path / "k.json", {"K": SLOW_POLE_K})]


def test_verify_slow_stable_pole_reads_stable(slow_pole_args, tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", *slow_pole_args, "--out", str(out)]) == EXIT_SUBOPTIMAL
    cert = json.loads(out.read_text())["certificate"]
    assert cert["stable"] is True
    assert cert["details"]["method"] == "grid"
    assert cert["hinf_norm"] == pytest.approx(slow_pole_norm_at_zero(), rel=1e-6)


def test_freqresp_slow_stable_pole_tabulates(slow_pole_args, tmp_path):
    out = tmp_path / "r.csv"
    assert main(["freqresp", *slow_pole_args, "--out", str(out)]) == EXIT_OK
    w, v, _ = out.read_text().splitlines()[1].split(",")
    assert float(w) == 0.0
    assert float(v) == pytest.approx(slow_pole_norm_at_zero(), rel=1e-6)


@pytest.mark.parametrize(
    "cmd, option",
    [("synth", ["--tol", "1e-3"]), ("lower-bound", ["--tol", "1e-3"]),
     ("freqresp", ["--tol", "1e-3"]), ("generate", ["--unit-h"])],
    ids=["synth-tol", "lower-bound-tol", "freqresp-tol", "generate-unit-h"],
)
def test_unread_options_rejected(cmd, option, lag_model, tmp_path, capsys):
    if cmd == "generate":
        target = ["irrigation", "--alpha", "1", "--beta", "2", "--tau", "0.5"]
    else:
        target = [lag_model]
    with pytest.raises(SystemExit) as err:
        main([cmd, *target, *option, "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert option[0] in capsys.readouterr().err


@pytest.mark.parametrize("unit_h, entries", [(False, [-0.5, -0.25]), (True, [1.0, 1.0])])
def test_synth_irrigation_disturbance_map(unit_h, entries, tmp_path):
    model = write(tmp_path / "irr.model",
                  {"format": 1, "kind": "network", "network_kind": "irrigation", "nodes": 2,
                   "edges": [], "params": {"alpha": [2.0, 4.0], "beta": [1.0, 1.0], "tau": [1.0, 1.0]}})
    out = tmp_path / "s.json"
    assert main(["synth", model, "--out", str(out)] + ["--unit-h"] * unit_h) == EXIT_OK
    H = np.array(json.loads(out.read_text())["disturbance_map"])
    assert H.shape == (4, 2)
    expect = np.zeros((4, 2))
    expect[0, 0], expect[2, 1] = entries
    assert np.array_equal(H, expect)


def test_generate_thermal_matches_golden_rooms(tmp_path):
    out = tmp_path / "rooms.model"
    assert main(["generate", "thermal", "--masses", "2,1", "--leak", "1,1",
                 "--conduction", "0-1:1", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["params"] == {**MODELS["rooms"]["params"], "outdoor": 0.0}
    assert {k: doc[k] for k in ("kind", "network_kind", "nodes")} == {
        "kind": "network", "network_kind": "thermal", "nodes": 2}


def test_verify_machines_at_zero_tolerance_is_suboptimal(tmp_path):
    model = write(tmp_path / "machines.model", MODELS["machines"])
    out = tmp_path / "v.json"
    assert main(["verify", model, "--tol", "0", "--out", str(out)]) == EXIT_SUBOPTIMAL
    modes = json.loads(out.read_text())["modes"]
    assert len(modes) == 3
    assert all(m["stable"] and m["verdict"] == "stable-but-suboptimal" for m in modes)


# cond(E) = 9.2e11: the certificate reads this plant on the grid route.
ILL_CONDITIONED_E = {
    "format": 1, "kind": "descriptor",
    "E": [[0.7163649183095087, -0.697555537697393], [-0.011042994637825512, 0.010753042013336357]],
    "A": [[-0.8070980949995156, 0.3102226496911968], [1.3848721089235345, -2.1982667325451164]],
    "B": [[1.328379816412535], [-0.2895516615857001]],
}


def _zero_row(args, tmp_path):
    """The sigma_max cell of freqresp's w = 0 row, as printed."""
    out = tmp_path / "r.csv"
    assert main(["freqresp", *args, "--out", str(out)]) == EXIT_OK
    w, v, _ = out.read_text().splitlines()[1].split(",")
    assert w == "0.0"
    return v


def _certificate(args, tmp_path):
    out = tmp_path / "v.json"
    main(["verify", *args, "--out", str(out)])
    return json.loads(out.read_text())["certificate"]


def test_freqresp_ill_conditioned_E_follows_the_certificate(tmp_path):
    args = [write(tmp_path / "ill.model", ILL_CONDITIONED_E),
            "--gain", write(tmp_path / "k.json", {"K": [[0.0, 0.0]]})]
    cert = _certificate(args, tmp_path)
    assert cert["hinf_norm"] == cert["details"]["omega0_sigma_max"] == 2.002306712234053
    assert _zero_row(args, tmp_path) == "2.002306712234053"


@pytest.mark.parametrize("name, method", [("rooms", "state-space"), ("double_pole", "grid")])
def test_freqresp_zero_row_is_the_certificate_sigma0(name, method, tmp_path):
    args = [write(tmp_path / f"{name}.model", MODELS[name])]
    cert = _certificate(args, tmp_path)
    assert cert["details"]["method"] == method and cert["details"]["omega0"] == 0.0
    assert _zero_row(args, tmp_path) == repr(cert["details"]["omega0_sigma_max"])


@pytest.mark.parametrize(
    "cmd, option, value",
    [("verify", "--tol", "inf"), ("verify", "--tol", "nan"), ("verify", "--tol", "-1"),
     ("compare", "--tol", "nan"), ("verify", "--omega0", "nan"), ("verify", "--omega0", "inf"),
     ("synth", "--omega0", "nan"), ("freqresp", "--omega0", "-inf"), ("verify", "--grid-max", "inf"),
     ("lower-bound", "--grid-min", "nan")],
)
def test_unusable_numbers_rejected(cmd, option, value, droop_model, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main([cmd, droop_model, f"{option}={value}", "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert option in capsys.readouterr().err


def test_negative_omega0_is_accepted(droop_model, tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", droop_model, "--omega0", "-2", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["certificate"]["details"]["omega0"] == -2.0


@pytest.mark.parametrize(
    "options",
    [["--points=0"], ["--points=-3"], ["--points=1"], ["--grid-min=-1"], ["--grid-min=0"],
     ["--grid-max=1e-5"], ["--grid-min=2", "--grid-max=2"]],
)
@pytest.mark.parametrize("cmd", ["verify", "lower-bound", "freqresp"])
def test_unusable_grid_rejected(cmd, options, lag_model, tmp_path, capsys):
    # A grid the options cannot describe is a malformed option, not an invalid model.
    with pytest.raises(SystemExit) as err:
        main([cmd, lag_model, *options, "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert options[-1].split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["buffer", "--edges", "0-1-2"], ["buffer", "--rates", "1,x"], ["buffer", "--edges", "0-1:3"],
     ["machine", "--nodes", "2", "--edges", "0-1:w"], ["thermal", "--masses", "1,1", "--conduction", "0-1:x"],
     ["circulant", "--row=-2,x"], ["irrigation", "--alpha", "1", "--beta", "y", "--tau", "1"]],
    ids=["buffer-edge-triple", "buffer-rates", "buffer-weight", "machine-weight", "thermal-weight",
         "circulant-row", "irrigation-beta"],
)
def test_generate_malformed_list_is_a_usage_error(argv, tmp_path, capsys):
    # A malformed list option is a usage error naming the option, like --tol and --points.
    out = tmp_path / "gen.model"
    with pytest.raises(SystemExit) as err:
        main(["generate", *argv, "--out", str(out)])
    assert err.value.code == 2
    option = next(a for a in argv[::-1] if a.startswith("--")).split("=")[0]
    assert option in capsys.readouterr().err
    assert not out.exists()


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call; a usage error counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


IRRIGATION = {"format": 1, "kind": "network", "network_kind": "irrigation", "nodes": 2, "edges": [],
              "params": {"alpha": [2.0, 4.0], "beta": [1.0, 1.0], "tau": [1.0, 1.0]}}


@pytest.mark.parametrize(
    "first, second",
    [(["verify", "{lag}", "--gain", "{gain}"], ["verify", "{lag}"]),
     (["synth", "{irrigation}", "--unit-h"], ["synth", "{irrigation}"]),
     (["verify", "{lag}", "--points=1"], ["lower-bound", "{lag}"]),
     (["generate", "buffer", "--edges", "0-1-2"], ["verify", "{lag}"])],
    ids=["gain-then-none", "unit-h-then-none", "grid-usage-error", "list-usage-error"],
)
def test_reused_parser_leaks_no_state(first, second, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    paths = {"lag": write(Path("lag.model"), MODELS["lag"]),
             "irrigation": write(Path("irr.model"), IRRIGATION),
             "gain": write(Path("k.json"), {"K": [[0.0]]})}
    first, second = ([a.format(**paths) for a in argv] for argv in (first, second))
    build_parser.cache_clear()
    alone = _run(second)
    build_parser.cache_clear()
    before = _run(first)
    assert before[0] != EXIT_OK or before[1] != alone[1]  # the first command differs from the second
    assert _run(second) == alone
    assert build_parser.cache_info().misses == 1  # one parser served both commands


@pytest.mark.parametrize("cmd", ["verify", "synth", "lower-bound", "compare", "freqresp"])
def test_model_file_is_read_once(cmd, lag_model, tmp_path, monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    out = tmp_path / "report"
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main([cmd, lag_model, "--out", str(out)]) == EXIT_OK
    monkeypatch.undo()
    assert opened.count(lag_model) == 1
    if cmd != "freqresp":
        digest = json.loads(out.read_text())["model"]["digest"]
        assert digest == hashlib.sha256(Path(lag_model).read_bytes()).hexdigest()


def test_module_entry_point_matches_golden(tmp_path):
    # The real entry point in a fresh interpreter: imports, argv and the exit status.
    src = Path(__file__).resolve().parent.parent / "src"
    (tmp_path / "lag.model").write_text(json.dumps(MODELS["lag"]))
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "hinfkit.cli", "verify", "lag.model"],
                         cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (Path(__file__).parent / "golden" / "lag.verify.out").read_bytes()



# A = diag(-1, -2), B = [10; 0]: K = [1e308, 0] makes B K overflow. With cond(E) = 1e9
# the pencil takes QZ and the norm the grid; with E = I, the reduction and level sets.
TWO_STATE_E = {"level-set": [[1.0, 0.0], [0.0, 1.0]], "qz": [[1.0, 0.0], [0.0, 1e-9]]}


def _two_state_verify(route, K, tmp_path):
    model = write(tmp_path / "m.model", {"format": 1, "kind": "descriptor", "E": TWO_STATE_E[route],
                                         "A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[10.0], [0.0]]})
    return main(["verify", model, "--gain", write(tmp_path / "k.json", {"K": K})])


@pytest.mark.parametrize("route", TWO_STATE_E)
def test_gain_that_overflows_the_loop_is_invalid_input(route, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _two_state_verify(route, [[1e308, 0.0]], tmp_path)
    assert [str(w.message) for w in caught] == []
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("hinfkit: invalid model:") and "gain" in err


@pytest.mark.parametrize("route", TWO_STATE_E)
def test_gain_of_the_wrong_shape_is_invalid_input(route, tmp_path, capsys):
    assert _two_state_verify(route, [[1.0, 0.0, 3.0]], tmp_path) == EXIT_INVARIANT
    assert "gain must be 1 x 2" in capsys.readouterr().err


# M - N K overflows on both rational routes: the companion pencil (E singular)
# in verify, and the grid (cond(E) = 1e9) in freqresp.
RATIONAL_ROUTE_E = {"companion": ([[1.0, 0.0], [0.0, 0.0]], "verify"),
                    "grid": ([[1.0, 0.0], [0.0, 1e-9]], "freqresp")}


@pytest.mark.parametrize("route", RATIONAL_ROUTE_E)
def test_gain_that_overflows_m_minus_nk_is_invalid_input(route, tmp_path):
    E, cmd = RATIONAL_ROUTE_E[route]
    model = write(tmp_path / "m.model", {"format": 1, "kind": "descriptor", "E": E,
                                         "A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[10.0], [0.0]]})
    gain = write(tmp_path / "k.json", {"K": [[1e308, 0.0]]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run([cmd, model, "--gain", gain])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.startswith("hinfkit: invalid model: gain overflows")


# Input files that are not JSON objects in UTF-8: every case is a schema error.
def _bad_file_cases():
    lag = json.dumps(MODELS["lag"]).encode()
    return {
        "model-bytes": (b"\xff" + lag, None, []),
        "gain-bytes": (lag, b"\xff", ["verify", "--gain"]),
        "weighted-bytes": (lag, b"\xff", ["synth", "--weighted"]),
        "weighted-number": (lag, b"5", ["synth", "--weighted"]),
        "format-string": (json.dumps({**MODELS["lag"], "format": "x"}).encode(), None, []),
    }


@pytest.mark.parametrize("case", _bad_file_cases())
def test_unreadable_input_file_is_a_schema_error(case, tmp_path):
    model_bytes, extra_bytes, argv = _bad_file_cases()[case]
    model, extra = tmp_path / "m.model", tmp_path / "x.json"
    model.write_bytes(model_bytes)
    if extra_bytes is None:
        argv = ["verify", str(model)]
    else:
        extra.write_bytes(extra_bytes)
        argv = [argv[0], str(model), argv[1], str(extra)]
    code, out, err = _run(argv)
    assert (code, out) == (EXIT_SCHEMA, "")
    assert err.startswith("hinfkit: schema error:")


def _network_field_cases():
    """Each network field and each param of the regression networks, set to each bad value."""
    docs = {name: MODELS[name] for name in ("line_buffer", "buffer20", "rooms", "machines", "ring")}
    docs["irrigation"] = IRRIGATION
    bad = {"str": "x", "null": None, "object": {}, "nested": [[]], "negative": -1, "fraction": 2.5}
    cases = {}
    for name, doc in docs.items():
        fields = [(f, None) for f in ("nodes", "edges", "params")] + [("params", p) for p in doc["params"]]
        for field, param in fields:
            for label, value in bad.items():
                broken = json.loads(json.dumps(doc))
                if param is None:
                    broken[field] = value
                else:
                    broken["params"][param] = value
                cases[f"{name}-{field if param is None else 'params.' + param}-{label}"] = broken
    return cases


NETWORK_FIELD_CASES = _network_field_cases()


def test_malformed_network_fields_are_schema_or_model_errors(tmp_path, monkeypatch):
    # A wrong JSON type is a schema error and a wrong value an invalid model; no case is internal.
    monkeypatch.chdir(tmp_path)
    assert len(NETWORK_FIELD_CASES) == 186  # 31 fields, 6 values each
    codes, internal = {}, {}
    for case, doc in NETWORK_FIELD_CASES.items():
        codes[case], _, err = _run(["verify", write(Path("net.model"), doc)])
        if codes[case] not in (0, 2, 3, 4, 5):
            internal[case] = err
    assert internal == {}
    assert codes["line_buffer-nodes-str"] == codes["line_buffer-params-str"] == EXIT_SCHEMA
    names = ("line_buffer", "buffer20", "rooms", "machines", "ring", "irrigation")
    assert {codes[f"{name}-nodes-negative"] for name in names} == {EXIT_INVARIANT}


# Exit code and stderr prefix of every HinfkitError class raised inside a command.
EXIT_BY_ERROR = {
    "HinfkitError": (7, "internal error"),
    "ModelError": (EXIT_INVARIANT, "invalid model"),
    "InvalidInputError": (EXIT_INVARIANT, "invalid model"),
    "HypothesisViolationError": (EXIT_INVARIANT, "invalid model"),
    "SingularMatrixError": (EXIT_INVARIANT, "invalid model"),
    "StandingAssumptionError": (EXIT_INVARIANT, "invalid model"),
    "DimensionError": (EXIT_INVARIANT, "invalid model"),
    "NotRealGainError": (EXIT_INVARIANT, "invalid model"),
    "UnstabilizableError": (EXIT_INVARIANT, "invalid model"),
    "PoleAtEvaluationError": (EXIT_INVARIANT, "invalid model"),
    "PoleOnAxisError": (EXIT_INVARIANT, "invalid model"),
    "SchemaError": (EXIT_SCHEMA, "schema error"),
    "NumericalError": (7, "internal error"),
    "UnstableSystemError": (7, "internal error"),
}


def _error_classes(cls=HinfkitError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_has_its_exit_code(lag_model, monkeypatch):
    classes = {cls.__name__: cls for cls in _error_classes()}
    assert set(classes) <= set(EXIT_BY_ERROR), "list each new error class in EXIT_BY_ERROR"
    assert len(classes) >= 13  # the base class and at least its twelve named subclasses
    for name, cls in classes.items():
        def fail(*args, cls=cls, **kwargs):
            raise cls("boom")

        monkeypatch.setattr(cli.verify, "certify_optimality", fail)
        code, prefix = EXIT_BY_ERROR[name]
        assert _run(["verify", lag_model]) == (code, "", f"hinfkit: {prefix}: boom\n"), name


def _refusal_cases():
    rational = {"format": 1, "kind": "rational", "M": [[[1.0, 1.0]]], "N": [[[1.0]]]}
    machines = MODELS["machines"]
    return {
        "machine-weighted": (machines, ["synth", "--weighted", {"Q": [[1.0]]}], EXIT_INVARIANT,
                             "invalid model: weighted synthesis is not defined for machine networks"),
        "machine-gain": (machines, ["verify", "--gain", {"K": [[1.0]]}], EXIT_INVARIANT,
                         "invalid model: machine networks certify their own modal law only"),
        "kind": ({"format": 1, "kind": "foo"}, ["verify"], EXIT_SCHEMA,
                 "schema error: unknown model kind 'foo' (field: kind)"),
        "A-object": ({**MODELS["lag"], "A": [[{}]]}, ["verify"], EXIT_SCHEMA,
                     "schema error: field 'A' is not a numeric matrix (field: A)"),
        "A-vector": ({**MODELS["lag"], "A": [-1.0]}, ["verify"], EXIT_SCHEMA,
                     "schema error: field 'A' must be a 2-d array (field: A)"),
        "no-N": ({"format": 1, "kind": "rational", "M": [[[1.0, 1.0]]]}, ["verify"], EXIT_SCHEMA,
                 "schema error: missing required field 'N' (field: N)"),
        "M-empty": ({**rational, "M": []}, ["verify"], EXIT_SCHEMA,
                    "schema error: field 'M' must be a nonempty array of rows (field: M)"),
        "num-null": ({**rational, "M": [[{"num": None}]]}, ["verify"], EXIT_SCHEMA,
                     "schema error: entry 'M[0][0]' must hold numeric coefficient arrays (field: M[0][0])"),
        "no-pools": ({**IRRIGATION, "nodes": 0}, ["verify"], EXIT_INVARIANT,
                     "invalid model: irrigation cascade needs at least one pool"),
    }


def _run_case(doc, argv):
    """Run command argv[0] on a model file holding doc, with options argv[1:]; a dict is a file."""
    files = [write(Path(f"file{i}.json"), a) if isinstance(a, dict) else a for i, a in enumerate(argv)]
    return _run([files[0], write(Path("case.model"), doc), *files[1:]])


@pytest.mark.parametrize("case", _refusal_cases())
def test_refusal_paths(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc, argv, code, message = _refusal_cases()[case]
    assert _run_case(doc, argv) == (code, "", f"hinfkit: {message}\n")


def _wrong_type_cases():
    lag, buffer, rooms, machines = (MODELS[k] for k in ("lag", "line_buffer", "rooms", "machines"))
    rational = {"format": 1, "kind": "rational", "N": [[[1.0]]]}
    big = 10**400
    cases = {
        "A-string": ({**lag, "A": [["-1"]]}, ["verify"], "A"),
        "B-bool": ({**lag, "B": [[True]]}, ["verify"], "B"),
        "A-null": ({**lag, "A": [[None]]}, ["verify"], "A"),
        "A-huge": ({**lag, "A": [[-big]]}, ["verify"], "A"),
        "K-string": (lag, ["verify", "--gain", {"K": [["1"]]}], "K"),
        "Q-bool": (lag, ["synth", "--weighted", {"Q": [[True]]}], "Q"),
        "num-string": ({**rational, "M": [[{"num": "12", "den": [1]}]]}, ["synth"], "M[0][0]"),
        "coefficient-bool": ({**rational, "M": [[[True, 1]]]}, ["verify"], "M[0][0]"),
        "coefficient-huge": ({**rational, "M": [[[big, 1]]]}, ["verify"], "M[0][0]"),
        "format-bool": ({**lag, "format": True}, ["verify"], "format"),
        "nodes-bool": ({**buffer, "nodes": True}, ["verify"], "nodes"),
        "edge-fraction": ({**buffer, "edges": [[0.5, 1], [1, 2]]}, ["verify"], "edges"),
        "rates-strings": ({**buffer, "params": {"a": ["1", "2", "3"]}}, ["verify"], "params.a"),
        "rate-huge": ({**buffer, "params": {"a": [big, 2, 3]}}, ["verify"], None),
        "conduction-fraction": (
            {**rooms, "params": {**rooms["params"], "conduction": [[0.0, 1, 1.0]]}}, ["verify"],
            "params.conduction",
        ),
        "machine-edge-fraction": (
            {**machines, "params": {**machines["params"], "edges": [[0, 1.5, 1.0], [1, 2, 1.0]]}},
            ["verify"], "params.edges",
        ),
    }
    for case in WRONG_TYPE_SWEEP_CASES:
        cases[case] = (NETWORK_FIELD_CASES[case], ["verify"], case.split("-")[1])
    return cases


# The sweep cases above that set a field to a JSON value of the wrong type and that
# the CLI once read as a valid model.
WRONG_TYPE_SWEEP_CASES = (
    "line_buffer-edges-object", "buffer20-edges-object", "rooms-nodes-fraction", "rooms-edges-object",
    "rooms-params.conduction-object", "machines-edges-object", "machines-params.edges-object",
    "ring-nodes-fraction", "ring-edges-object", "irrigation-nodes-fraction", "irrigation-edges-object",
)


@pytest.mark.parametrize("case", _wrong_type_cases())
def test_json_value_of_the_wrong_type_is_a_schema_error(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc, argv, field = _wrong_type_cases()[case]
    code, out, err = _run_case(doc, argv)
    assert (code, out) == (EXIT_SCHEMA, "")
    assert err.startswith("hinfkit: schema error: ")
    assert field is None or err.endswith(f" (field: {field})\n")


@pytest.mark.parametrize("case", ["rooms-params.heat_capacity-fraction", "machines-params.mass-fraction",
                                  "machines-params.damping-fraction"])
def test_sweep_values_of_the_right_type_still_verify(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_case(NETWORK_FIELD_CASES[case], ["verify"])[0] == EXIT_OK
