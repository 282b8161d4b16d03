"""Byte-for-byte CLI output on the regression models.

``tests/golden/`` holds, for every model and command below, the exit code,
the stderr text and the stdout bytes the CLI produced. Model files are
written under fixed relative names, so the ``model.path`` field inside a
report does not depend on where the test runs. Regenerate the files only
when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from hinfkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
INDEX = GOLDEN / "index.json"


def _descriptor(A, B, E=None):
    doc = {"format": 1, "kind": "descriptor", "A": A, "B": B}
    if E is not None:
        doc["E"] = E
    return doc


def _network(kind, nodes, params, edges=()):
    return {"format": 1, "kind": "network", "network_kind": kind, "nodes": nodes,
            "edges": [list(e) for e in edges], "params": params}


MODELS = {
    "lag": _descriptor([[-1.0]], [[1.0]]),
    "double_pole": {"format": 1, "kind": "rational", "M": [[[4.0, 4.0, 1.0]]], "N": [[[1.0, 1.0]]]},
    "three_state": _descriptor(
        [[-1.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, -2.0]],
        [[-1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]],
    ),
    "asym_chain": _descriptor([[-1.0, 1.0], [0.0, -1.0]], [[1.0], [0.0]]),
    "line_buffer": _network("buffer", 3, {"a": [1.0, 2.0, 3.0]}, [(0, 1), (1, 2)]),
    # droop_plant(2, 0.5): M(s) = s/4 + 1/2 + 1/s, N(s) = 1
    "droop": {"format": 1, "kind": "rational",
              "M": [[{"num": [1.0, 0.5, 0.25], "den": [0.0, 1.0]}]], "N": [[{"num": [1.0]}]]},
    "rooms": _network("thermal", 2, {"masses": [2.0, 1.0], "heat_capacity": 1.0,
                                     "leak": [1.0, 1.0], "conduction": [[0, 1, 1.0]]}),
    "machines": _network("machine", 3, {"mass": 1.0, "damping": 2.0,
                                        "edges": [[0, 1, 1.0], [1, 2, 1.0]]}),
    "ring": _network("circulant", 0, {"row": [-3.0, 1.0, 0.0, 1.0]}),
}

# The droop gain is sampled at the plant's resonance.
EXTRA = {"droop": ["--omega0", "2"]}

COMMANDS = ("verify", "synth", "lower-bound", "compare", "freqresp")

CASES = [f"{name}.{cmd}" for name in MODELS for cmd in COMMANDS]


def run_case(case):
    """(exit code, stderr, stdout) of one case, run in the current directory."""
    name, cmd = case.split(".")
    path = f"{name}.model"
    Path(path).write_text(json.dumps(MODELS[name]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cmd, path, *EXTRA.get(name, [])])
    return code, err.getvalue(), out.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(INDEX.read_text())[case]
    code, stderr, stdout = run_case(case)
    assert (code, stderr) == (expected["exit"], expected["stderr"])
    want = (GOLDEN / expected["stdout"]).read_bytes() if expected["stdout"] else b""
    assert stdout.encode() == want


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for case in CASES:
                code, stderr, stdout = run_case(case)
                name = f"{case}.out" if stdout else None
                if name:
                    (GOLDEN / name).write_bytes(stdout.encode())
                index[case] = {"exit": code, "stderr": stderr, "stdout": name}
        finally:
            os.chdir(cwd)
    INDEX.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
