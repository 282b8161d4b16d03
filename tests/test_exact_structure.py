"""Shortcuts taken on exact structure give the dense path's answers, bit for bit.

An exactly diagonal E or A has its rcond, spectral norm and definiteness read
from its diagonal, and an E that is exactly I closes the loop with no LU.
Each shortcut is checked here against the factorization it skips, and whole
``verify`` and ``compare`` reports are checked byte for byte with the
structure predicate switched off, on the paper's network families.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hinfkit.linalg
import hinfkit.sysmodel
from hinfkit import DescriptorPlant, Gain, descriptor_gain, spectral_norm, symmetric_commuting_check
from hinfkit.cli import _parse, _resolve, main
from hinfkit.linalg import rcond
from hinfkit.sysmodel import close_loop, closed_state_matrix
from hinfkit.verify import _GramSigma
from conftest import random_buffer

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def entries(lo, hi):
    """Diagonal entries: +-10^e with e in [lo, hi], or a signed zero."""
    power = st.builds(lambda s, e: s * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(lo, hi))
    return st.one_of(power, st.sampled_from([0.0, -0.0]))


def diagonals(lo, hi):
    return st.lists(entries(lo, hi), min_size=1, max_size=6).map(np.diag)


@SETTINGS
@given(diagonals(-100, 100))
@example(np.zeros((1, 1))).via("the 1 x 1 zero matrix")
@example(np.diag([-0.0, -0.0, 0.0])).via("signed zeros only")
def test_diagonal_rcond_and_norm_equal_the_svd_bitwise(D):
    d = np.abs(np.diag(D))
    sv = np.linalg.svd(D, compute_uv=False)
    assert rcond(D) == (d.min() / d.max() if d.max() else 0.0)
    assert rcond(D) == (sv[-1] / sv[0] if sv[0] else 0.0)
    assert spectral_norm(D) == d.max() == sv[0]


@SETTINGS
@given(diagonals(-300, 300))
def test_diagonal_rcond_and_norm_stay_exact_where_lapack_rescales(D):
    # Outside [1e-100, 1e100] the SVD may move by ulps; the diagonal reading does not.
    d = np.abs(np.diag(D))
    assert rcond(D) == (d.min() / d.max() if d.max() else 0.0)
    assert spectral_norm(D) == d.max()


def test_structure_predicate_reads_bits_only():
    exactly_diagonal = hinfkit.linalg._exactly_diagonal
    assert exactly_diagonal(np.diag([1.0, -0.0]))
    assert exactly_diagonal(np.array([[2.0, -0.0], [0.0, 3.0]]))
    assert not exactly_diagonal(np.array([[2.0, 5e-324], [0.0, 3.0]]))
    assert not exactly_diagonal(np.array([[2.0, np.nan], [0.0, 3.0]]))
    assert not exactly_diagonal(np.diag([1.0, np.inf]))
    assert not exactly_diagonal(np.diag([1.0, 2.0]).astype(complex))
    assert not exactly_diagonal(np.zeros((0, 0)))
    assert not exactly_diagonal(np.zeros((2, 3)))
    assert not exactly_diagonal(np.ones((2, 2, 2)))


def unchecked_plant(E, A):
    """A DescriptorPlant built with no validation, so that A may be singular."""
    plant = object.__new__(DescriptorPlant)
    plant.E, plant.A, plant.B = E, A, np.ones((len(A), 1))
    return plant


@st.composite
def diagonal_pairs(draw):
    n = draw(st.integers(1, 5))
    diag = st.lists(entries(-100, 100), min_size=n, max_size=n).map(np.diag)
    return draw(diag), draw(diag)


@SETTINGS
@given(diagonal_pairs())
@example((np.zeros((1, 1)), np.zeros((1, 1)))).via("zero matrices")
@example((np.diag([-0.0, 1.0]), np.diag([-1.0, -0.0]))).via("negative zeros")
@example((np.array([[2.0]]), np.array([[-3.0]]))).via("1 x 1")
def test_diagonal_definiteness_flags_equal_eigvalsh(pair):
    E, A = pair
    report = symmetric_commuting_check(unchecked_plant(E, A))
    assert report.symmetric_E and report.symmetric_A and report.commuting
    assert report.positive_definite_E == bool(np.linalg.eigvalsh(0.5 * (E + E.T))[0] > 0)
    assert report.negative_definite_A == bool(np.linalg.eigvalsh(0.5 * (A + A.T))[-1] < 0)


@st.composite
def identity_loops(draw):
    """(A, B, K) with E = I; off-diagonal zeros of A and zeros of B and K carry either sign."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
    B, K = rng.standard_normal((n, m)), rng.standard_normal((m, n))
    share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    for M in (A, B, K):
        zero = rng.random(M.shape) < share
        if M is A:
            zero &= ~np.eye(n, dtype=bool)
        M[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return A, B, K


@SETTINGS
@given(identity_loops())
def test_identity_E_loop_equals_the_solve_path_bitwise(case):
    A, B, K = case
    plant, gain = DescriptorPlant(np.eye(len(A)), A, B), Gain(K)
    loop = close_loop(plant, gain)
    AK, eye = closed_state_matrix(plant, gain), np.eye(len(A))
    assert loop.A.tobytes() == np.linalg.solve(eye, AK).tobytes()
    assert loop.B.tobytes() == np.linalg.solve(eye, eye).tobytes()


def test_identity_E_loop_with_a_negative_zero_takes_the_solve(monkeypatch):
    # LU turns this -0.0 at (0, 0) into 0.0, so the loop must come from the solve.
    AK = np.array([[-0.0, 1.0], [-1.0, -0.0]])
    monkeypatch.setattr(hinfkit.sysmodel, "closed_state_matrix", lambda plant, gain: AK.copy())
    loop = close_loop(DescriptorPlant(np.eye(2), -np.eye(2), np.eye(2)), Gain(np.zeros((2, 2))))
    assert loop.A.tobytes() == np.linalg.solve(np.eye(2), AK).tobytes() != AK.tobytes()


def network(kind, nodes, params, edges=()):
    return {"format": 1, "kind": "network", "network_kind": kind, "nodes": nodes,
            "edges": [list(e) for e in edges], "params": params}


def cascade(pools, alpha, beta, tau):
    return network("irrigation", pools, {"alpha": [alpha] * pools, "beta": [beta] * pools,
                                         "tau": [tau] * pools})


def ring(n, left, right, self_rate):
    row = np.zeros(n)
    row[0], row[1], row[-1] = -(left + right + self_rate), left, right
    return network("circulant", 0, {"row": row.tolist()})


def buffer(n):
    net = random_buffer(np.random.default_rng(1), n)
    return network("buffer", n, {"a": net.params["a"].tolist()}, net.edges)


ROOMS4 = network("thermal", 4, {
    "masses": [0.7, 2.9, 1.3, 2.2], "heat_capacity": 1.0, "leak": [0.3, 0.9, 0.5, 0.6],
    "conduction": [[0, 1, 1.2], [1, 2, 0.6], [2, 3, 1.9], [0, 3, 0.8]], "outdoor": 0.0})

PLANTS = {
    "irrigation3": cascade(3, 2.0, 1.0, 1.0),
    "irrigation10": cascade(10, 8.29010063503973, 0.571773219143611, 7.611014133234955),
    "rooms4": ROOMS4,
    "ring4": ring(4, 0.3, 1.1, 0.9),
    "ring8": ring(8, 1.4, 0.4, 0.6),
    **{f"buffer{n}": buffer(n) for n in (1, 2, 3, 20)},
}

# (model, command, gain scale): canonical gains everywhere, half gains on the rings.
CASES = [(name, cmd, 1.0) for name in PLANTS for cmd in ("verify", "compare")]
CASES += [(name, "verify", 0.5) for name in ("ring4", "ring8")]


def model_file(name, tmp_path):
    model = tmp_path / f"{name}.model"
    model.write_text(json.dumps(PLANTS[name]))
    return model


def descriptor(name, tmp_path):
    return _resolve(_parse(str(model_file(name, tmp_path)))[0]).plant.descriptor


def report(name, cmd, scale, tmp_path):
    argv = [cmd, str(model_file(name, tmp_path))]
    if scale != 1.0:
        K = scale * descriptor_gain(descriptor(name, tmp_path)).K
        gain = tmp_path / f"{name}.gain"
        gain.write_text(json.dumps({"K": K.tolist()}))
        argv += ["--gain", str(gain)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), out.getvalue()


@pytest.mark.parametrize("name, cmd, scale", CASES, ids=[f"{n}-{c}-{s:g}" for n, c, s in CASES])
def test_report_does_not_depend_on_the_structure_shortcuts(name, cmd, scale, tmp_path, monkeypatch):
    # The symmetric loop spectrum moves the abscissa by ulps, within the bound that
    # test_symmetric_spectrum checks; it is off on both sides, so the rest is bitwise.
    monkeypatch.setattr(hinfkit.sysmodel, "_symmetric_scale", lambda plant, K: None)
    shortcut = report(name, cmd, scale, tmp_path)
    monkeypatch.setattr(hinfkit.linalg, "_exactly_diagonal", lambda a: False)
    dense = report(name, cmd, scale, tmp_path)
    assert shortcut == dense
    assert shortcut[2]


@pytest.mark.parametrize("name", ["irrigation3", "irrigation10", "rooms4", "ring4", "ring8",
                                  "buffer1", "buffer2", "buffer3", "buffer20"])
def test_real_sigma_at_zero_is_within_four_ulp_of_the_complex_sample(name, tmp_path):
    plant = descriptor(name, tmp_path)
    loop = close_loop(plant, descriptor_gain(plant))
    sigma = _GramSigma(loop)
    X = np.linalg.solve(0j * np.eye(plant.n) - loop.A, loop.B)
    reference = np.sqrt(np.linalg.eigvalsh(X.conj().T @ sigma.CtC @ X)[-1])
    assert abs(sigma(0.0) - reference) <= 4 * np.spacing(reference)
