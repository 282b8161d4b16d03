"""Byte-for-byte CLI output on the regression models.

``tests/golden/`` holds, for every model and command below, the exit code,
the stderr text and the stdout bytes the CLI produced. Model files are
written under fixed relative names, so the ``model.path`` field inside a
report does not depend on where the test runs. Regenerate the files only
when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py

Regeneration prints every field it rewrites, with its path, old value, new
value and relative change, so a moved digit is visible in review. A gain ``K``
is compared cell by cell in either form, dense rows or the sparse block, so a
change of form alone prints nothing.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import random_buffer
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

# A 20-node buffer with 10 chords: the reports pin a 58 x 20 gain.
_buffer20 = random_buffer(np.random.default_rng(20), 20)
MODELS["buffer20"] = _network("buffer", 20, {"a": _buffer20.params["a"].tolist()}, _buffer20.edges)

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


def dense_cells(K):
    """A report's K as nested rows: a sparse block {shape, rows, cols, values} is filled in."""
    if not isinstance(K, dict):
        return K
    cells = np.zeros(K["shape"])
    cells[K["rows"], K["cols"]] = K["values"]
    return cells.tolist()


def _fields(text):
    """{path: value} for every leaf of a JSON report or every cell of a CSV table; each gain
    ``K`` is walked as its dense cells, whichever form the report writes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        rows = [line.split(",") for line in text.splitlines()]
        header = rows[0] if rows else []
        return {f"[{i}].{name}": cell for i, row in enumerate(rows[1:])
                for name, cell in zip(header, row)}
    out = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(dense_cells(item) if key == "K" else item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        else:
            out[path] = value

    walk(doc, "")
    return out


def _relative(old, new):
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return "-"
    return f"{(b - a) / abs(a):+.3e}" if a else "-"


def field_diff(case, old, new):
    """One line per field that differs: case, path, old value, new value, relative change."""
    before, after = _fields(old), _fields(new)
    lines = []
    for path in sorted(before.keys() | after.keys()):
        a, b = before.get(path, "<absent>"), after.get(path, "<absent>")
        if a != b:
            lines.append(f"{case}  {path}  {a!r} -> {b!r}  rel {_relative(a, b)}")
    return lines


def test_field_diff_names_each_changed_field():
    old = '{"a": {"x": 1.0, "y": "s"}, "b": [1, 2]}'
    new = '{"a": {"x": 1.5, "y": "s"}, "b": [1, 3], "c": true}'
    assert field_diff("m.verify", old, new) == [
        "m.verify  a.x  1.0 -> 1.5  rel +5.000e-01",
        "m.verify  b[1]  2 -> 3  rel +5.000e-01",
        "m.verify  c  '<absent>' -> True  rel -",
    ]
    dense = '{"gain": {"K": [[0.0, -0.0], [2.5, 0.0]]}, "baseline": {"K": [[1.0]]}}'
    sparse = ('{"gain": {"K": {"shape": [2, 2], "rows": [0, 1], "cols": [1, 0], '
              '"values": [-0.0, 2.5]}}, "baseline": {"K": {"shape": [1, 1], "rows": [0], '
              '"cols": [0], "values": [1.0]}}}')
    assert field_diff("m.verify", dense, sparse) == []
    assert field_diff("m.verify", dense, sparse.replace("2.5", "3.0")) == [
        "m.verify  gain.K[1][0]  2.5 -> 3.0  rel +2.000e-01",
    ]
    table = "omega,sigma_max\n0.0,1.0\n1.0,0.5\n"
    assert field_diff("m.freqresp", table, table.replace("0.5", "0.25")) == [
        "m.freqresp  [1].sigma_max  '0.5' -> '0.25'  rel -5.000e-01",
    ]


def regenerate():
    """Rewrite tests/golden/ and print every field that changed."""
    GOLDEN.mkdir(exist_ok=True)
    previous = json.loads(INDEX.read_text()) if INDEX.exists() else {}
    index = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for case in CASES:
                code, stderr, stdout = run_case(case)
                name = f"{case}.out" if stdout else None
                old = previous.get(case, {})
                old_out = (GOLDEN / old["stdout"]).read_text() if old.get("stdout") else ""
                for key, value in (("exit", code), ("stderr", stderr)):
                    if key in old and old[key] != value:
                        print(f"{case}  {key}  {old[key]!r} -> {value!r}")
                for line in field_diff(case, old_out, stdout):
                    print(line)
                if name:
                    (GOLDEN / name).write_bytes(stdout.encode())
                index[case] = {"exit": code, "stderr": stderr, "stdout": name}
        finally:
            os.chdir(cwd)
    INDEX.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
