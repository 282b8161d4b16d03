import json

import numpy as np
import pytest

from hinfkit.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_SUBOPTIMAL,
    EXIT_UNSTABLE,
    load_model,
    main,
)
from hinfkit import DescriptorPlant, NetworkModel, RationalPlant, SchemaError


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
