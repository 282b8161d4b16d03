"""Work counts of one certificate: each dense step runs once.

Counters wrap numpy's entry points with monkeypatch, so a duplicated
factorization fails here instead of showing up only as a slower benchmark.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hinfkit.cli
import hinfkit.linalg
import hinfkit.netgen
import hinfkit.sysmodel
import hinfkit.verify
from hinfkit import (
    DescriptorPlant,
    Gain,
    NetworkModel,
    buffer_law,
    certify_optimality,
    closed_form_gain,
    compile_buffer,
    compile_irrigation,
    compile_network,
    descriptor_gain,
    droop_plant,
    hinf_norm_ss,
    lower_bound,
    spectral_norm,
    symmetric_commuting_check,
    weighted_lower_bound,
    zero_peak_inequality,
)
from hinfkit.cli import EXIT_OK, _parse, _resolve, main
from hinfkit.exceptions import SingularMatrixError
from hinfkit.freqgrid import adaptive_max, default_grid
from hinfkit.sysmodel import close_loop
from hinfkit.verify import NORM_RTOL, _GramSigma
from conftest import asym_chain, random_buffer
from test_batched import rotations
from test_exact_structure import PLANTS as STRUCTURE_PLANTS
from test_golden import MODELS
from test_verify import ROOMS, _counted

try:
    import numpy.linalg._linalg as numpy_linalg  # numpy >= 2: where norm finds svd
except ImportError:  # pragma: no cover
    import numpy.linalg.linalg as numpy_linalg


def count_calls(monkeypatch, name, key=np.shape):
    """key (the shape) of the first argument of every np.linalg.<name> call from now on."""
    shapes = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(key(a))
        return real(a, *args, **kwargs)

    for module in (np.linalg, numpy_linalg):
        monkeypatch.setattr(module, name, counted)
    return shapes


def buffer_doc(n, seed=1):
    net = random_buffer(np.random.default_rng(seed), n)
    return {"format": 1, "kind": "network", "network_kind": "buffer", "nodes": n,
            "edges": [list(e) for e in net.edges], "params": {"a": net.params["a"].tolist()}}


def symmetrized(a):
    """(shape, whether a real matrix with a negative diagonal): the symmetrized loop -S G S is
    the one such eigvalsh input, as every Gram the certificate decomposes is positive."""
    return np.shape(a), bool(np.isrealobj(a) and (np.diagonal(a) < 0).all())


def test_level_set_certificate_takes_one_closed_loop_spectrum(monkeypatch):
    # The pole test and the norm's Hurwitz check read one n x n spectrum, of the
    # symmetrized loop; the storage function bounds the norm's first level, so no
    # 2n x 2n Hamiltonian runs. No pencil solver runs on this route.
    net = random_buffer(np.random.default_rng(1), 50)
    plant, gain = compile_buffer(net).to_rational(), buffer_law(net)
    pencils = []
    real = hinfkit.linalg.generalized_eigenvalues

    def counted(*args):
        pencils.append(args)
        return real(*args)

    monkeypatch.setattr(hinfkit.verify, "generalized_eigenvalues", counted)
    monkeypatch.setattr(hinfkit.linalg, "generalized_eigenvalues", counted)
    eigvals = count_calls(monkeypatch, "eigvals")
    eigvalsh = count_calls(monkeypatch, "eigvalsh", key=symmetrized)
    cert = certify_optimality(plant, gain)
    assert cert.details["method"] == "state-space" and cert.verdict == "optimal"
    assert eigvals == []
    assert [shape for shape, loop in eigvalsh if loop] == [(50, 50)]
    assert pencils == []


class _Watched(np.ndarray):
    """A plant's B or a buffer gain's K, watched for dense products.

    Every np.matmul (so every @) that takes a watched array or a view of it appends
    its operands' names to ``products``, "-" for one that is not; B B^T, the
    product every Gram A A^T + B B^T forms, also counts in that B's ``formed``. Each
    ufunc returns a plain array, so a copy such as B / a is no longer watched.
    """

    watched: list = []  # the watched arrays of one test, each with its ``name``
    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        a, b = (next((w for w in self.watched if np.may_share_memory(x, w)), None)
                for x in inputs) if ufunc is np.matmul else (None, None)
        if a is not None or b is not None:
            self.products.append(" @ ".join(getattr(w, "name", "-") for w in (a, b)))
            if a is b:
                a.formed += 1
        plain = [x.view(np.ndarray) if isinstance(x, _Watched) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def watch(monkeypatch, array, name):
    """``array`` as a watched view named ``name``; the watch ends with the test."""
    if not _Watched.watched:
        monkeypatch.setattr(_Watched, "watched", [])
        monkeypatch.setattr(_Watched, "products", [])
    view = array.view(_Watched)
    view.name, view.formed = name, 0
    _Watched.watched.append(view)
    return view


def watch_buffer_b(monkeypatch):
    """The descriptor plants resolved from now on, each B watched; and every buffer gain's K."""
    plants, real, law = [], DescriptorPlant.__post_init__, hinfkit.synth.buffer_law

    def post_init(self):
        real(self)
        self.B = watch(monkeypatch, self.B, "B")
        plants.append(self)

    def buffer_law(net):
        gain = law(net)
        gain.K = watch(monkeypatch, gain.K, "K")
        return gain

    monkeypatch.setattr(DescriptorPlant, "__post_init__", post_init)
    monkeypatch.setattr(hinfkit.synth, "buffer_law", buffer_law)
    return plants


def test_buffer_verify_forms_each_dense_step_once(tmp_path, monkeypatch):
    # A cli verify of an N = 50 buffer: the loop spectrum is one eigvalsh of the
    # symmetrized loop, with no eigvals; G = A A^T + B B^T is summed once from B's
    # nonzeros for it and the bound, with no dense B B^T; the storage function is
    # diagonal, with no solve(A, E); the bound samples only the grid's low end. The
    # three (50, 50) eigvalsh are the loop, the bound at w = 0 and sigma(0). The one
    # dense product with B or K left is the loop's A + B K.
    model = tmp_path / "buffer50.model"
    model.write_text(json.dumps(buffer_doc(50)))
    plants, bound_samples = watch_buffer_b(monkeypatch), []
    real_bound = hinfkit.verify._bound_function

    def bound_function(*args):
        f = real_bound(*args)
        counted = lambda w: bound_samples.append(float(w)) or f(w)  # noqa: E731
        counted.nondecreasing = f.nondecreasing
        return counted

    monkeypatch.setattr(hinfkit.verify, "_bound_function", bound_function)
    eigvals = count_calls(monkeypatch, "eigvals")
    eigvalsh = count_calls(monkeypatch, "eigvalsh", key=symmetrized)
    diagonal_solves = count_calls(monkeypatch, "solve", key=hinfkit.linalg._exactly_diagonal)
    assert main(["verify", str(model), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert eigvals == []
    assert eigvalsh == [((50, 50), True), ((50, 50), False), ((50, 50), False)]
    assert [int(plant.B.formed) for plant in plants] == [0]
    assert _Watched.products == ["B @ K"]
    assert True not in diagonal_solves
    assert bound_samples == [0.0]


def test_buffer_freqresp_computes_no_spectrum(tmp_path, monkeypatch):
    model = tmp_path / "buffer50.model"
    model.write_text(json.dumps(buffer_doc(50)))
    plants, spectra = watch_buffer_b(monkeypatch), []
    monkeypatch.setattr(hinfkit.sysmodel.StateSpace, "poles",
                        property(lambda loop: spectra.append(loop) or np.linalg.eigvals(loop.A)))
    eigvals = count_calls(monkeypatch, "eigvals")
    eigvalsh = count_calls(monkeypatch, "eigvalsh", key=symmetrized)
    assert main(["freqresp", str(model), "--out", str(tmp_path / "table.csv")]) == EXIT_OK
    assert spectra == [] and eigvals == []
    assert not any(loop for _, loop in eigvalsh)
    assert [int(plant.B.formed) for plant in plants] == [0]
    assert _Watched.products == ["B @ K"]


def test_storage_test_failing_falls_back_to_the_hamiltonian(monkeypatch):
    # Half the closed-form gain: the storage function no longer bounds the first
    # level, so one n x n Cholesky fails and the level sets run as before.
    net = random_buffer(np.random.default_rng(1), 50)
    desc, gain = compile_buffer(net), buffer_law(net)
    half = Gain(0.5 * gain.K)
    reference = hinf_norm_ss(close_loop(desc, half))
    eigvals = count_calls(monkeypatch, "eigvals")
    choleskys = count_calls(monkeypatch, "cholesky")
    cert = certify_optimality(desc.to_rational(), half)
    assert cert.verdict == "stable-but-suboptimal"
    assert (cert.hinf_norm, cert.peak_frequency) == reference
    assert choleskys == [(50, 50)]
    assert eigvals[0] == (50, 50) and (100, 100) in eigvals[1:]


CASCADE3 = NetworkModel("irrigation", 3, [], {"alpha": [2.0, 4.0, 1.0], "beta": [1.0] * 3,
                                               "tau": [1.0] * 3})


@pytest.mark.parametrize("plant", [asym_chain(2.0), compile_irrigation(CASCADE3)[0]],
                         ids=["asym_chain", "irrigation3"])
def test_nonsymmetric_plant_builds_no_storage_function(plant, monkeypatch):
    # A - A^T != 0: no storage function is built, so no Cholesky runs.
    choleskys = count_calls(monkeypatch, "cholesky")
    cert = certify_optimality(plant.to_rational(), descriptor_gain(plant))
    assert cert.details["method"] == "state-space"
    assert choleskys == []


def test_buffer_verify_runs_at_most_three_svds(tmp_path, monkeypatch):
    # rcond(A) when the plant is built, rcond(E) for the route and ||A|| for
    # the stability margin; the structure check takes none.
    model = tmp_path / "buffer50.model"
    model.write_text(json.dumps(buffer_doc(50)))
    svds = count_calls(monkeypatch, "svd")
    assert main(["verify", str(model), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert len(svds) <= 3


def test_buffer_verify_runs_no_svd(tmp_path, monkeypatch):
    # A is diagonal and E = I: rcond(A), rcond(E) and ||A|| read their diagonals.
    model = tmp_path / "buffer50.model"
    model.write_text(json.dumps(buffer_doc(50)))
    svds = count_calls(monkeypatch, "svd")
    assert main(["verify", str(model), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert svds == []


def test_close_loop_runs_no_solve_when_E_is_exactly_identity(monkeypatch):
    net = random_buffer(np.random.default_rng(1), 20)
    buffer, rooms = compile_buffer(net), compile_network(ROOMS)
    buffer_gain, rooms_gain = buffer_law(net), descriptor_gain(rooms)
    solves = count_calls(monkeypatch, "solve")
    close_loop(buffer, buffer_gain)
    assert solves == []
    # Diagonal masses E != I keep both solves: X / d is not solve(diag(d), X) bitwise.
    close_loop(rooms, rooms_gain)
    assert solves == [(2, 2)] * 2


def test_storage_certificate_samples_sigma_at_zero_only(monkeypatch):
    # The storage test at (1 + tol) sigma(0) holds, so the pole seed is never
    # sampled, and sigma(0) takes a real solve.
    net = random_buffer(np.random.default_rng(1), 50)
    samples, real = [], _GramSigma._sample

    def sample(self, w):
        samples.append(w)
        return real(self, w)

    monkeypatch.setattr(_GramSigma, "_sample", sample)
    solves = count_calls(monkeypatch, "solve", key=lambda a: np.asarray(a).dtype)
    cert = certify_optimality(compile_buffer(net).to_rational(), buffer_law(net))
    assert cert.verdict == "optimal"
    assert samples == [0.0]
    assert solves and set(solves) == {np.dtype(np.float64)}


class _RaisedOffZero(_GramSigma):
    """sigma_max off w = 0 raised to (1 + NORM_RTOL / 2) sigma(0), as if a pole peak sat there."""

    def _sample(self, w):
        value = super()._sample(w)
        return value if w == 0.0 else max(value, (1.0 + 0.5 * NORM_RTOL) * self(0.0))


def test_storage_test_before_the_pole_seed_reads_sigma_at_zero():
    # sigma(0) < sigma(w_pole) <= (1 + tol) sigma(0): the storage test holds at
    # (1 + tol) sigma(0), so the norm is read at w = 0 and w_pole is not sampled.
    net = random_buffer(np.random.default_rng(1), 20)
    desc = compile_buffer(net)
    loop = close_loop(desc, buffer_law(net))
    storage = -np.linalg.solve(desc.A, desc.E)
    sigma0, w_pole = _GramSigma(loop)(0.0), float(np.abs(loop.poles).min())
    assert sigma0 < _RaisedOffZero(loop)(w_pole) <= (1.0 + NORM_RTOL) * sigma0
    norm = hinf_norm_ss(loop, sigma=_RaisedOffZero(loop), storage=storage)
    assert norm == ((1.0 + 0.5 * NORM_RTOL) * sigma0, 0.0)
    hamiltonian = hinf_norm_ss(loop, sigma=_RaisedOffZero(loop))
    assert hamiltonian.peak_frequency == w_pole
    assert abs(norm.norm - hamiltonian.norm) <= NORM_RTOL * hamiltonian.norm


@pytest.mark.parametrize("name", ["line_buffer", "buffer20", "ring", "three_state"])
def test_symmetric_check_takes_no_norm_of_exact_zeros(name, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.model"
    path.write_text(json.dumps(MODELS[name]))
    desc = _resolve(_parse(str(path))[0]).plant.descriptor
    svds = count_calls(monkeypatch, "svd")
    assert symmetric_commuting_check(desc).holds
    assert svds == []


def test_symmetric_check_on_random_buffer_takes_no_svd(monkeypatch):
    desc = compile_buffer(random_buffer(np.random.default_rng(1), 200))
    svds = count_calls(monkeypatch, "svd")
    assert symmetric_commuting_check(desc).holds
    assert svds == []


def test_symmetric_check_on_rooms_takes_norms_only_for_the_commutator(monkeypatch):
    # Unequal masses: E A != A E. The two symmetry residues are exactly zero and take no
    # norm; the commutator's flag is decided from Frobenius bounds on ||A|| and
    # ||E A - A E||, and ||E|| of the diagonal masses is read from E's diagonal: no SVD.
    plant = compile_network(ROOMS)
    svds = count_calls(monkeypatch, "svd")
    report = symmetric_commuting_check(plant)
    assert (report.symmetric_E, report.symmetric_A, report.commuting) == (True, True, False)
    assert svds == []


def reference_flags(E, A):
    """symmetric_E, symmetric_A and commuting with every norm taken, zero residues too."""
    ne, na = spectral_norm(E), spectral_norm(A)
    return (
        spectral_norm(E - E.T) <= 1e-12 * max(ne, 1e-300),
        spectral_norm(A - A.T) <= 1e-12 * max(na, 1e-300),
        spectral_norm(E @ A - A @ E) <= 1e-10 * max(ne * na, 1e-300),
    )


@st.composite
def structured_pairs(draw):
    """(E, A) with some residues exactly zero, some tiny and some large, at any scale."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, Y = rng.standard_normal((2, n, n))
    E = {
        "identity": np.eye(n),
        "diagonal": np.diag(rng.uniform(0.5, 2.0, n)),
        "symmetric": X + X.T,
        "general": X,
    }[draw(st.sampled_from(["identity", "diagonal", "symmetric", "general"]))]
    A = {
        "polynomial": -np.eye(n) - 0.3 * E @ E,
        "symmetric": -(Y @ Y.T) - np.eye(n),
        "near-symmetric": -(Y @ Y.T) - np.eye(n) + 1e-13 * Y,
        "general": Y - 3 * np.eye(n),
    }[draw(st.sampled_from(["polynomial", "symmetric", "near-symmetric", "general"]))]
    c = 10.0 ** draw(st.integers(-6, 6))
    return c * E, c * A, rng.standard_normal((n, 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(structured_pairs())
def test_symmetric_check_flags_match_the_check_with_every_norm(pair):
    E, A, B = pair
    try:
        plant = DescriptorPlant(E, A, B)
    except hinfkit.SingularMatrixError:
        return  # plants need an invertible A
    report = symmetric_commuting_check(plant)
    assert (report.symmetric_E, report.symmetric_A, report.commuting) == reference_flags(E, A)


class _WatchedE(np.ndarray):
    """The E of one plant: counts E - E^T, the first residue of every exact-structure test."""

    def __sub__(self, other):
        if "formed" in vars(self) and isinstance(other, np.ndarray) and np.shares_memory(self, other):
            self.formed += 1
        return super().__sub__(other)


@pytest.mark.parametrize("doc, formed", [
    (buffer_doc(50), 1),
    ({"format": 1, "kind": "network", "network_kind": "irrigation", "nodes": 3,
      "params": CASCADE3.params}, 2),
], ids=["buffer50", "irrigation3"])
def test_one_verify_decides_the_exact_structure_once(doc, formed, tmp_path, monkeypatch):
    # Whether E - E^T, A - A^T and E A - A E are all exactly zero is decided once per
    # plant: the structure block and the certificate's storage decision read one
    # verdict. The cascade (A - A^T != 0) forms E - E^T once more, for the
    # structure check's norm test of the nonzero residues.
    model = tmp_path / "case.model"
    model.write_text(json.dumps(doc))
    plants = []
    real = DescriptorPlant.__post_init__

    def post_init(self):
        real(self)
        self.E = self.E.view(_WatchedE)
        self.E.formed = 0
        plants.append(self)

    monkeypatch.setattr(DescriptorPlant, "__post_init__", post_init)
    assert main(["verify", str(model), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert [int(plant.E.formed) for plant in plants] == [formed]


# ---------------------------------------------------------------------------
# the peak at w = 0 proved by one level test


def sweeps(monkeypatch):
    """Names of every adaptive_max and adaptive_min call of the certificate module from now on."""
    calls = []
    for name in ("adaptive_max", "adaptive_min"):
        def counted(*args, _real=getattr(hinfkit.verify, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(hinfkit.verify, name, counted)
    return calls


def level_tests(monkeypatch):
    """(name, result) of every level test at w = 0 from now on."""
    seen = []
    for name in ("_bound_peaks_at_zero", "_descriptor_loop_below"):
        def spy(*args, _real=getattr(hinfkit.verify, name), _name=name):
            seen.append((_name, _real(*args)))
            return seen[-1][1]

        monkeypatch.setattr(hinfkit.verify, name, spy)
    return seen


NONSYMMETRIC_DOCS = {
    "irrigation3": {"format": 1, "kind": "network", "network_kind": "irrigation", "nodes": 3,
                    "params": CASCADE3.params},
    "rooms": MODELS["rooms"],
    "ring": {"format": 1, "kind": "network", "network_kind": "circulant", "nodes": 0,
             "params": {"row": [-3.0, 1.5, 0.0, 0.5]}},
}


@pytest.mark.parametrize("name", sorted(NONSYMMETRIC_DOCS))
def test_nonsymmetric_verify_runs_no_sweep(name, tmp_path, monkeypatch):
    # F != 0 and the symmetric check fails, so the bound and the zero-peak check
    # both run; each level test proves its peak at w = 0.
    model, out = tmp_path / f"{name}.model", tmp_path / "report.json"
    model.write_text(json.dumps(NONSYMMETRIC_DOCS[name]))
    seen, calls = level_tests(monkeypatch), sweeps(monkeypatch)
    assert main(["verify", str(model), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["checks"]["fallback"]["zero_peak_inequality"]["omega_at_min"] == 0.0
    assert report["certificate"]["details"]["lower_bound_frequency"] == 0.0
    assert sorted(seen) == [("_bound_peaks_at_zero", True), ("_descriptor_loop_below", True)]
    assert calls == []


def test_cascade_verify_solves_the_descriptor_gain_once(tmp_path, monkeypatch):
    # The verified gain, the structure block's pencil test and the zero-peak level
    # test all read the plant's one Kd = B^T A^{-T}: one solve(A, B) per verify.
    model = tmp_path / "irrigation3.model"
    model.write_text(json.dumps(NONSYMMETRIC_DOCS["irrigation3"]))
    plants, real = [], DescriptorPlant.__post_init__
    monkeypatch.setattr(DescriptorPlant, "__post_init__", lambda self: real(self) or plants.append(self))
    firsts = count_calls(monkeypatch, "solve", key=lambda a: a)
    assert main(["verify", str(model), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert "pencil_stability" in report["checks"]["fallback"]
    assert [sum(a is plant.A for a in firsts) for plant in plants] == [1]
    assert not plants[0].Kd.flags.writeable


@pytest.mark.parametrize("command", ["verify", "synth"])
def test_buffer_op_compiles_its_network_once(command, tmp_path, monkeypatch):
    # The CLI compiles the network once, and the buffer law is read off that plant.
    model = tmp_path / "buffer50.model"
    model.write_text(json.dumps(buffer_doc(50)))
    counts = {}
    _counted(monkeypatch, hinfkit.netgen, "compile_buffer", counts)
    assert main([command, str(model), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert counts == {"compile_buffer": 1}


@pytest.mark.parametrize("name", ["irrigation3", "irrigation10", "rooms4", "ring4", "buffer20"])
def test_one_verify_closes_the_descriptor_gain_loop_once(name, tmp_path, monkeypatch):
    # The certificate, the structure block's pencil test and the zero-peak level test
    # read one loop of the plant's Kd: one A + B K, one spectrum with no QZ, and one
    # sigma(0). A buffer verifies its own law, whose loop is the only one closed.
    model = tmp_path / f"{name}.model"
    model.write_text(json.dumps(STRUCTURE_PLANTS[name]))
    counts, at_zero, real = {}, [], _GramSigma._sample
    for owner, attr in ((hinfkit.verify, "close_loop"), (hinfkit.sysmodel, "closed_state_matrix"),
                        (hinfkit.verify, "closed_state_matrix"), (hinfkit.linalg, "generalized_eigenvalues"),
                        (hinfkit.verify, "generalized_eigenvalues")):
        _counted(monkeypatch, owner, attr, counts)
    monkeypatch.setattr(_GramSigma, "_sample", lambda self, w: at_zero.append(w) or real(self, w))
    assert main(["verify", str(model), "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert counts == {"close_loop": 1, "closed_state_matrix": 1}
    assert at_zero.count(0.0) == 1


def test_a_gain_equal_to_kd_closes_its_own_loop(tmp_path, monkeypatch):
    # Only the plant's own Kd array shares its loop. A --gain file holding Kd's exact
    # entries, or Kd moved by one ulp, closes a loop of its own next to Kd's; the first
    # certifies as the canonical gain does.
    model, canonical = tmp_path / "irrigation3.model", tmp_path / "canonical.json"
    model.write_text(json.dumps(NONSYMMETRIC_DOCS["irrigation3"]))
    assert main(["verify", str(model), "--out", str(canonical)]) == EXIT_OK
    Kd = descriptor_gain(_resolve(_parse(str(model))[0]).plant.descriptor).K
    moved = Kd.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
    closed, real, certificates = [], hinfkit.verify.close_loop, {}
    monkeypatch.setattr(hinfkit.verify, "close_loop", lambda plant, gain: closed.append(gain.K) or real(plant, gain))
    for label, K in (("exact", Kd), ("moved", moved)):
        gain, report = tmp_path / f"{label}.gain", tmp_path / f"{label}.json"
        gain.write_text(json.dumps({"K": K.tolist()}))
        closed.clear()
        main(["verify", str(model), "--gain", str(gain), "--out", str(report)])
        assert len(closed) == 2 and closed[0] is not closed[1]
        assert closed[0].tobytes() == Kd.tobytes() and closed[1].tobytes() == K.tobytes()
        certificates[label] = json.loads(report.read_text())["certificate"]
    want = json.loads(canonical.read_text())["certificate"]
    assert want["details"]["formula"] == "descriptor"
    want["details"]["formula"] = "external"
    assert certificates["exact"] == want != certificates["moved"]


@pytest.mark.parametrize("n", [2, 3, 20, 200])
def test_buffer_gram_from_nonzeros_is_the_dense_gram(n):
    # B's nonzeros are +-1, so every sum of products is exact in any order.
    plant = compile_buffer(random_buffer(np.random.default_rng(n), n))
    dense = plant.A @ plant.A.T + plant.B @ plant.B.T
    assert plant.gram.tobytes() == dense.tobytes()


def test_gram_of_diagonal_plants_from_nonzeros_is_within_rounding():
    # Any B: each cell sums the same products in column order, so it lies within
    # m eps sum |B_it B_kt| of the dense product; a dense B keeps the dense product.
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m = rng.integers(1, 12, 2)
        B = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.3)
        plant = DescriptorPlant(np.eye(n), np.diag(-rng.uniform(0.5, 2.0, n)), B)
        dense = plant.A @ plant.A.T + B @ B.T
        bound = m * np.finfo(float).eps * (plant.A**2 + np.abs(B) @ np.abs(B).T)
        assert (np.abs(plant.gram - dense) <= bound).all()
    full = DescriptorPlant(np.eye(3), -np.eye(3), rng.standard_normal((3, 4)))
    assert full.gram.tobytes() == (full.A @ full.A.T + full.B @ full.B.T).tobytes()


@pytest.mark.parametrize("plant", [
    DescriptorPlant(np.eye(2), [[-0.1, 5.0], [-5.0, -0.1]], 0.01 * np.eye(2)),
    DescriptorPlant(np.eye(2), [[-1e-5, 2.37], [-2.37, -1e-5]], [[1e-5], [0.0]]),  # item 3
], ids=["rotational", "item3"])
def test_peak_away_from_zero_still_sweeps(plant, monkeypatch):
    with monkeypatch.context() as off:
        off.setattr(hinfkit.verify, "_bound_peaks_at_zero", lambda *args: None)
        off.setattr(hinfkit.verify, "_descriptor_loop_below", lambda *args: None)
        expect = (lower_bound(plant.to_rational()), zero_peak_inequality(plant))
    seen, calls = level_tests(monkeypatch), sweeps(monkeypatch)
    bound, peak = lower_bound(plant.to_rational()), zero_peak_inequality(plant)
    assert (bound, peak) == expect and bound.omega > 1.0 and not peak.holds
    assert seen == [("_bound_peaks_at_zero", False), ("_descriptor_loop_below", False)]
    assert calls == ["adaptive_max", "adaptive_min"]


def test_bound_crossed_at_a_singular_sample_keeps_the_sweeps_error(monkeypatch):
    # S(w) is singular at w = 1 and w = 100: the candidates there raise, so the
    # sweep runs and names w = 1, its first singular sample in grid order.
    seen, calls = level_tests(monkeypatch), sweeps(monkeypatch)
    with pytest.raises(SingularMatrixError, match="omega=1;"):
        lower_bound(rotations(100.0, 1.0))
    assert seen == [("_bound_peaks_at_zero", False)]
    assert calls == ["adaptive_max"]


@pytest.mark.parametrize("E", [np.diag([1.0, 0.0]), np.diag([1.0, 1e-9])], ids=["singular_E", "cond_E_1e9"])
def test_ill_conditioned_E_sweeps(E, monkeypatch):
    # F != 0; neither level test applies below rcond(E) = 1e-8.
    plant = DescriptorPlant(E, [[-1.0, 0.0], [1.0, -2.0]], [[1.0], [0.0]])
    seen, calls = level_tests(monkeypatch), sweeps(monkeypatch)
    lower_bound(plant.to_rational())
    zero_peak_inequality(plant)
    assert seen == [("_descriptor_loop_below", False)]
    assert calls == ["adaptive_max", "adaptive_min"]


def test_bound_off_zero_grid_or_weighted_sweeps(monkeypatch):
    plant = compile_irrigation(CASCADE3)[0].to_rational()
    seen, calls = level_tests(monkeypatch), sweeps(monkeypatch)
    lower_bound(plant, grid=default_grid()[1:])
    weighted_lower_bound(plant, np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 3.0]))
    zero_peak_inequality(plant.descriptor, grid=default_grid()[1:])
    assert seen == []
    assert calls == ["adaptive_max", "adaptive_max", "adaptive_min"]


def test_golden_refinement_calls_on_the_droop_plant():
    # The golden droop plant's grid norm: 202 grid samples, then 27 golden samples
    # (the first pair and 25 steps). A batched evaluator takes the pair in one call
    # and the rest in stacks of up to 15; a scalar one gets one sample per call.
    plant = droop_plant(2.0, 0.5)
    f = hinfkit.verify._grid_sigma(plant, closed_form_gain(plant, 2.0))
    sizes = []

    def counted(w):
        sizes.append(np.size(w))
        return f(w)

    stacked = adaptive_max(counted, batched=True)
    assert sizes == [202, 2] + [15] * 6
    sizes.clear()
    assert adaptive_max(counted) == stacked
    assert sizes == [1] * 229


@pytest.mark.parametrize("seed", range(4))
def test_symmetric_check_flags_on_small_batch_families(seed):
    # The small-batch kinds: irrigation cascades, thermal networks with unequal masses and
    # non-symmetric circulant rings. Flags decided from Frobenius bounds are those of the
    # check with every norm.
    rng = np.random.default_rng(seed)
    pools = (3, 10)[seed % 2]
    alpha, beta, tau = rng.uniform(0.1, 10.0, 3)
    rooms = 3 + seed
    links = [[i, i + 1, float(rng.uniform(0.5, 2.0))] for i in range(rooms - 1)] + [[0, rooms - 1, 1.0]]
    left, right = rng.uniform(0.2, 1.5, 2)
    row = np.zeros(4 + seed)
    row[0], row[1], row[-1] = -(left + right + 1.0), left, right
    models = [
        NetworkModel("irrigation", pools, [], {"alpha": [alpha] * pools, "beta": [beta] * pools,
                                               "tau": [tau] * pools}),
        NetworkModel("thermal", rooms, [], {"masses": rng.uniform(0.5, 3.0, rooms).tolist(),
                                            "heat_capacity": 1.0, "leak": rng.uniform(0.2, 1.0, rooms).tolist(),
                                            "conduction": links}),
        NetworkModel("circulant", 0, [], {"row": row.tolist()}),
    ]
    for model in models:
        plant = compile_network(model)
        report = symmetric_commuting_check(plant)
        assert (report.symmetric_E, report.symmetric_A, report.commuting) == reference_flags(plant.E, plant.A)


@pytest.mark.parametrize("t, holds", [(0.45e-12, True), (0.55e-12, False)])
def test_symmetric_check_takes_the_svd_inside_the_band(t, holds, monkeypatch):
    # A - A^T = 2 t (e1 e2^T - e2 e1^T) has ||.||_2 = 2 t and ||.||_F = 2 sqrt(2) t, and
    # ||A||_2 ~ 1 against ||A||_F ~ 2: the Frobenius bounds leave the flag open on both sides
    # of the cap 1e-12 ||A||, so ||A|| and ||A - A^T|| are taken, and decide it.
    A = -np.eye(4)
    A[0, 1], A[1, 0] = t, -t
    plant = DescriptorPlant(np.eye(4), A, np.ones((4, 1)))
    svds = count_calls(monkeypatch, "svd")
    report = symmetric_commuting_check(plant)
    assert svds == [(4, 4)] * 2
    assert report.symmetric_A is holds and (True, holds, True) == reference_flags(plant.E, A)


# ---------------------------------------------------------------------------
# a descriptor plant's coefficient tensors are formed only by a path that reads them


TENSORS = {"m_num", "m_den", "n_num", "n_den"}
TENSOR_FREE_DOCS = {"buffer50": buffer_doc(50), "irrigation3": NONSYMMETRIC_DOCS["irrigation3"],
                    "rooms": MODELS["rooms"], "ring": MODELS["ring"]}


def resolved_plants(monkeypatch):
    """The certification plant of every model the CLI resolves from now on."""
    plants, real = [], hinfkit.cli._resolve

    def resolve(*args, **kwargs):
        form = real(*args, **kwargs)
        plants.append(form.plant)
        return form

    monkeypatch.setattr(hinfkit.cli, "_resolve", resolve)
    return plants


@pytest.mark.parametrize("command", ["verify", "synth", "lower-bound", "compare", "freqresp"])
@pytest.mark.parametrize("name", sorted(TENSOR_FREE_DOCS))
def test_descriptor_ops_form_no_coefficient_tensor(name, command, tmp_path, monkeypatch):
    # The CLI hands on the plant it parsed or compiled, and on these models no path
    # samples M(jw) or N(jw): the pencil, the level sets and the descriptor bound read E, A, B.
    model = tmp_path / f"{name}.model"
    model.write_text(json.dumps(TENSOR_FREE_DOCS[name]))
    plants = resolved_plants(monkeypatch)
    assert main([command, str(model), "--out", str(tmp_path / "report")]) == EXIT_OK
    assert [type(plant) for plant in plants] == [DescriptorPlant]
    assert TENSORS & vars(plants[0]).keys() == set()


@pytest.mark.parametrize("name, argv", [("singular_e", ["verify"]),
                                        ("three_state", ["synth", "--weighted", "weight.json"])])
def test_sampling_paths_form_the_coefficient_tensors(name, argv, tmp_path, monkeypatch):
    # A singular E takes the companion pencil and the grid, and the weighted gain samples
    # M(0) and N(0): each forms the tensors on the plant itself.
    monkeypatch.chdir(tmp_path)
    Path("weight.json").write_text(json.dumps({"Q": np.eye(3).tolist()}))
    Path("case.model").write_text(json.dumps(MODELS[name]))
    plants = resolved_plants(monkeypatch)
    assert main([argv[0], "case.model", *argv[1:], "--out", "report.json"]) == EXIT_OK
    assert len(plants) == 1 and plants[0].descriptor is plants[0]
    assert TENSORS <= vars(plants[0]).keys()
