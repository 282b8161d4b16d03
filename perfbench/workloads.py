"""Seeded workload generators.

Each workload is a fixed schedule of CLI operations (one "round") over
model files generated from the seed. The worker repeats whole rounds, so
every run has the same mix of sizes and kinds whatever the speed of the
program. Each op carries the reference values its report is checked
against; they come from ``reference`` and never from hinfkit.

Composition, and why:

* buffer-ladder -- one buffer network at each ladder size N = 20/100/200
  and two at N = 50, each of which runs three times. A few large plants put
  the time in ``to_rational``, the Hamiltonian bisection and the k x k
  bound. Six of the nine ops are N = 50, so the latency median sits inside
  one size mode instead of on the boundary between two.
* small-batch -- sixteen small non-symmetric descriptor plants: six
  3-pool and two 10-pool irrigation cascades, four thermal networks with
  unequal room masses and four circulant rings. The 10-pool cascades are
  one plant in eight so the median stays in the small mode (a 50/50 split
  put the median on the mode boundary and let it jump between runs).
  Every other plant also runs with a perturbed gain, alternating
  stable-but-suboptimal and destabilising, and every plant but the 10-pool
  cascades goes through ``compare``. On 10-pool cascades the Riccati
  baseline often returns a ``gamma_star`` above the norm the closed-form
  gain achieves (11 of 40 seeds), so their ``compare`` runs as a
  known-defect probe instead, together with a fixed cascade on which it
  always fails.
* rational-mix -- kind=rational files only: twelve droop plants whose
  damping is log-spread from 0.7 to 0.03 (w0 cycling 0.5/1/2), the
  double-pole plant, two machine networks certified per mode, and one
  dense quadratic plant for each k = 4..8. Droop ops are twelve of twenty,
  so the median is a droop certificate; k = 8 dominates the round time.
  The program certifies droop plants wrongly once zeta falls below about
  0.002 w0^2 (stable-but-suboptimal, then unstable), so the timed plants
  keep a factor of five above that, and the lightly damped grid
  zeta = 1e-2 .. 1e-6 at w0 = 0.5/2/5 runs as known-defect probes.

Known-defect probes run once per run, after the timed rounds, untimed and
untraced. Their reports are checked like any other, and the result lists
every failure, but they are outside ``attempted`` and ``failed``: the
timed workload holds only ops the program gets right, so a change that
breaks one of them shows as ``"correct": false``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("buffer-ladder", "small-batch", "rational-mix")
DEFAULT_SEED = 1

# Certificates are compared with references at the certification tolerance.
NORM_RTOL = 1e-6
# The Riccati baseline bisects to 1e-6 from above.
GAMMA_RTOL = 1e-5


class _Writer:
    """Writes model and gain files and collects the ops of one round."""

    def __init__(self, root: Path):
        self.root = root
        (root / "models").mkdir(parents=True, exist_ok=True)
        (root / "reports").mkdir(parents=True, exist_ok=True)
        self.ops = []
        self.probes = []

    def file(self, name, doc) -> str:
        path = self.root / "models" / name
        path.write_text(json.dumps(doc))
        return str(path)

    def op(self, label, cmd, model, expect, extra=(), report=None, probe=False):
        ops = self.probes if probe else self.ops
        report = report or f"{'probe-' if probe else ''}{len(ops):03d}-{cmd}.json"
        out = str(self.root / "reports" / report)
        ops.append(
            {
                "label": label,
                "cmd": cmd,
                "argv": [cmd, model, "--out", out, *extra],
                "report": out,
                "expect": expect,
            }
        )


def _cert(stable, norm=None, verdict=None):
    return {"type": "cert", "stable": bool(stable), "norm": norm, "verdict": verdict, "rtol": NORM_RTOL}


def _network(kind, nodes, params, edges=()):
    return {"format": 1, "kind": "network", "network_kind": kind, "nodes": nodes,
            "edges": [list(e) for e in edges], "params": params}


# ---------------------------------------------------------------------------
# buffer-ladder


def _buffer(rng, n):
    """Spanning path plus n/2 random chords, rates U(0.5, 5)."""
    a = rng.uniform(0.5, 5.0, n)
    edges = [(i, i + 1) for i in range(n - 1)]
    chords = set()
    while len(chords) < n // 2:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if abs(i - j) > 1:
            chords.add((min(i, j), max(i, j)))
    edges += sorted(chords)
    A = np.diag(-a)
    B = np.zeros((n, 2 * len(edges)))
    for t, (i, j) in enumerate(edges):
        B[i, 2 * t], B[j, 2 * t] = 1.0, -1.0
        B[j, 2 * t + 1], B[i, 2 * t + 1] = 1.0, -1.0
    return _network("buffer", n, {"a": a.tolist()}, edges), A, B


def _buffer_ladder(w, rng, tiny):
    sizes = (4, 6, 8, 10) if tiny else (20, 50, 100, 200)
    models = {}
    for tag, n in (("20", sizes[0]), ("50a", sizes[1]), ("100", sizes[2]), ("50b", sizes[1]), ("200", sizes[3])):
        doc, A, B = _buffer(rng, n)
        path = w.file(f"buffer-{tag}.model", doc)
        models[tag] = (path, n, ref.buffer_norm(A, B))
    # Both N = 50 models run three times per round: repeats inside every run
    # for the determinism check, and six of nine ops in one size mode, so
    # the median rests on six samples of one size.
    for tag in ("20", "50a", "50b", "100", "50a", "50b", "200", "50a", "50b"):
        path, n, norm = models[tag]
        w.op(f"buffer N={n}", "verify", path, _cert(True, norm, "optimal"), report=f"buffer-{tag}.json")
    return "per round: 1x N=%d, 6x N=%d (2 models), 1x N=%d, 1x N=%d" % (sizes[0], sizes[1], sizes[2], sizes[3])


# ---------------------------------------------------------------------------
# small-batch


def _irrigation(rng, pools, params=None):
    """Criterion-10 generator: one (alpha, beta, tau) ~ U(0.1, 10) for all pools."""
    alpha, beta, tau = rng.uniform(0.1, 10.0, 3) if params is None else params
    n = 2 * pools
    A = np.zeros((n, n))
    B = np.zeros((n, pools))
    for i in range(pools):
        q, r = 2 * i, 2 * i + 1
        A[q, q], A[q, r], A[r, r] = -beta / alpha, 1.0 / alpha, -1.0 / tau
        B[r, i] = 1.0 / tau
        if i + 1 < pools:
            B[2 * (i + 1), i] = -1.0 / alpha
    params = {"alpha": [alpha] * pools, "beta": [beta] * pools, "tau": [tau] * pools}
    return _network("irrigation", pools, params), np.eye(n), A, B


def _thermal(rng, rooms):
    """Rooms of unequal mass on a conduction chain plus one chord: E and A do not commute."""
    masses = rng.uniform(0.5, 3.0, rooms)
    leak = rng.uniform(0.2, 1.0, rooms)
    links = [(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(rooms - 1)]
    links.append((0, rooms - 1, float(rng.uniform(0.5, 2.0))))
    A = np.diag(-leak)
    for i, j, p in links:
        A[i, j] += p
        A[j, i] += p
        A[i, i] -= p
        A[j, j] -= p
    params = {"masses": masses.tolist(), "heat_capacity": 1.0, "leak": leak.tolist(),
              "conduction": [list(t) for t in links], "outdoor": 0.0}
    return _network("thermal", rooms, params), np.diag(masses), A, np.eye(rooms)


def _circulant(rng, n):
    """Ring with unequal left/right coupling: a non-symmetric Hurwitz circulant."""
    left, right = rng.uniform(0.2, 1.5, 2)
    row = np.zeros(n)
    row[0] = -(left + right + rng.uniform(0.5, 2.0))
    row[1], row[-1] = left, right
    A = np.array([np.roll(row, i) for i in range(n)])
    return _network("circulant", 0, {"row": row.tolist()}), np.eye(n), A, np.eye(n)


def _suboptimal_gain(E, A, B, K, bound):
    """theta * K for the first theta that keeps the loop stable and the norm clear of the bound."""
    for theta in (0.5, 0.25, 0.0):
        Kt = theta * K
        if ref.descriptor_abscissa(E, A, B, Kt) < 0:
            norm = ref.descriptor_norm(E, A, B, Kt)
            if norm > bound * (1.0 + 1e-3):
                return Kt, norm
    raise RuntimeError("no stable suboptimal gain found")


def _destabilising_gain(E, A, B, K):
    """K + s B^+ with s doubled until the loop has a clearly unstable pole."""
    P = np.linalg.pinv(B)
    s = 1.0
    while ref.descriptor_abscissa(E, A, B, K + s * P) < 1e-3 * (1.0 + np.abs(A).max()):
        s *= 2.0
    return K + s * P


# A 10-pool cascade on which the Riccati baseline returns gamma_star 68.50
# against a closed-form norm of 19.35: the stable-subspace basis of its
# Hamiltonian is so ill-conditioned that feasible levels read as infeasible.
BASELINE_PROBE = (8.29010063503973, 0.571773219143611, 7.611014133234955)


def _compare_expect(norm, bound):
    return {"type": "compare", "cert": _cert(norm is not None, norm),
            "gamma_lo": bound * (1.0 - GAMMA_RTOL),
            "gamma_hi": (norm if norm is not None else math.inf) * (1.0 + GAMMA_RTOL)}


def _small_batch(w, rng, tiny):
    plants = (
        [("irrigation", 3)] * 6 + [("irrigation", 10)] * 2
        + [("thermal", n) for n in (3, 4, 5, 6)] + [("circulant", n) for n in (4, 5, 6, 8)]
    )
    if tiny:
        plants = [("irrigation", 2), ("thermal", 3), ("circulant", 4)]
    make = {"irrigation": _irrigation, "thermal": _thermal, "circulant": _circulant}
    perturbed = compares = 0
    for idx, (kind, size) in enumerate(plants):
        doc, E, A, B = make[kind](rng, size)
        path = w.file(f"{kind}-{idx:02d}.model", doc)
        K = ref.descriptor_gain(A, B)
        stable = ref.descriptor_abscissa(E, A, B, K) < 0
        norm = ref.descriptor_norm(E, A, B, K) if stable else None
        bound = ref.descriptor_bound(E, A, B)
        label = f"{kind} n={size}"
        # The paper fixes no verdict for these plants; only stability and norm are checked.
        w.op(label, "verify", path, _cert(stable, norm))
        if idx % 2 == 0:
            if perturbed % 2 == 0:
                Kp, pnorm = _suboptimal_gain(E, A, B, K, bound)
                expect = _cert(True, pnorm, "stable-but-suboptimal")
                tag = "suboptimal"
            else:
                Kp = _destabilising_gain(E, A, B, K)
                expect = _cert(False, None, "unstable")
                tag = "destabilising"
            perturbed += 1
            gain = w.file(f"{kind}-{idx:02d}-{tag}.gain", {"K": Kp.tolist()})
            w.op(f"{label} {tag} gain", "verify", path, expect, extra=("--gain", gain))
        long_cascade = kind == "irrigation" and size == 10
        compares += not long_cascade
        w.op(label, "compare", path, _compare_expect(norm, bound), probe=long_cascade)
    doc, E, A, B = _irrigation(None, 10, BASELINE_PROBE)
    path = w.file("irrigation-probe.model", doc)
    K = ref.descriptor_gain(A, B)
    norm = ref.descriptor_norm(E, A, B, K)
    w.op("irrigation n=10 fixed", "compare", path,
         _compare_expect(norm, ref.descriptor_bound(E, A, B)), probe=True)
    return (f"per round: {len(plants)} plants, {perturbed} perturbed-gain verifies, {compares} compares"
            f"; probes: compare on {len(w.probes)} 10-pool cascades")


# ---------------------------------------------------------------------------
# rational-mix


def _droop_doc(omega0, zeta):
    return {"format": 1, "kind": "rational",
            "M": [[{"num": [1.0, 2.0 * zeta / omega0, 1.0 / omega0**2], "den": [0.0, 1.0]}]],
            "N": [[[1.0]]]}


def _quadratic(rng, k, m=2):
    """Dense M(s) = E s^2 + F s + L with N = B: no descriptor form, no sparsity to exploit."""
    X = rng.standard_normal((k, k))
    L = X @ X.T / k + np.eye(k)
    F = 2.0 * np.eye(k) + 0.3 * rng.standard_normal((k, k)) / math.sqrt(k)
    E = np.eye(k) + 0.1 * rng.standard_normal((k, k)) / math.sqrt(k)
    B = rng.standard_normal((k, m))
    M = [[[L[i, j], F[i, j], E[i, j]] for j in range(k)] for i in range(k)]
    N = [[[B[i, j]] for j in range(m)] for i in range(k)]
    return {"format": 1, "kind": "rational", "M": M, "N": N}, E, F, L, B


def _machine(rng, nodes):
    mass, damping = rng.uniform(0.5, 2.0, 2)
    edges = [[i, i + 1, float(rng.uniform(0.5, 2.0))] for i in range(nodes - 1)]
    edges.append([0, nodes - 1, float(rng.uniform(0.5, 2.0))])
    doc = _network("machine", nodes, {"mass": mass, "damping": damping, "edges": edges})
    return doc, float(damping)


def _droop(w, omega0, zeta, probe=False):
    path = w.file(f"droop-{'probe-' if probe else ''}{len(w.probes if probe else w.ops):02d}.model",
                  _droop_doc(omega0, zeta))
    # Droop gains are optimal with norm 1/sqrt(1 + (2 zeta/w0)^2) for every zeta > 0.
    w.op(f"droop w0={omega0} zeta={zeta:.1e}", "verify", path,
         _cert(True, ref.droop_norm(omega0, zeta), "optimal"),
         extra=("--omega0", repr(omega0)), probe=probe)


def _rational_mix(w, rng, tiny):
    zetas = np.geomspace(0.7, 0.03, 4 if tiny else 12)
    light = (1e-4, 1e-6) if tiny else (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    dense = (3, 4) if tiny else (4, 5, 6, 7, 8)
    machines = (3,) if tiny else (4, 6)
    # A fixed (w0, zeta) grid rather than a seeded one: which droop plants
    # the program gets wrong depends on w0, and a seeded w0 moved the share
    # of wrong (and slower) certificates, and with it the median, between runs.
    for i, zeta in enumerate(zetas):
        _droop(w, (0.5, 1.0, 2.0)[i % 3], float(zeta))
    for zeta in light:
        for omega0 in (0.5, 2.0, 5.0):
            _droop(w, omega0, zeta, probe=True)
    path = w.file("double-pole.model", {"format": 1, "kind": "rational",
                                        "M": [[[4.0, 4.0, 1.0]]], "N": [[[1.0, 1.0]]]})
    w.op("double-pole", "verify", path, _cert(True, ref.DOUBLE_POLE_NORM, "optimal"))
    for nodes in machines:
        doc, damping = _machine(rng, nodes)
        path = w.file(f"machine-{nodes}.model", doc)
        w.op(f"machine n={nodes}", "verify", path,
             {"type": "machine", "modes": nodes, "norm": ref.modal_norm(damping), "rtol": NORM_RTOL})
    for k in dense:
        doc, E, F, L, B = _quadratic(rng, k)
        path = w.file(f"dense-{k}.model", doc)
        K = ref.quadratic_gain(L, B)
        stable = ref.quadratic_abscissa(E, F, L, B, K) < 0
        norm = ref.quadratic_norm(E, F, L, B, K) if stable else None
        w.op(f"dense k={k}", "verify", path, _cert(stable, norm))
    return (f"per round: {len(zetas)} droop, 1 double-pole, {len(machines)} machine networks, "
            f"dense k={','.join(map(str, dense))}; probes: {len(w.probes)} lightly damped droop plants")


_BUILDERS = {"buffer-ladder": _buffer_ladder, "small-batch": _small_batch, "rational-mix": _rational_mix}


def build(workload: str, seed: int, root: Path, tiny: bool = False) -> dict:
    """Generate the workload's files under ``root``; returns its round of ops, probes and mix."""
    w = _Writer(root)
    mix = _BUILDERS[workload](w, np.random.default_rng(seed), tiny)
    return {"schedule": w.ops, "probes": w.probes, "mix": mix}
