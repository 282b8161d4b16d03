"""Compile graph-structured application models into descriptor plants.

Node indices are 0-based everywhere, including model files. An undirected
interconnection (i, j) always carries two directed control inputs, one per
direction, ordered (i, j) before (j, i) and following the edge-list order.
That ordering is part of the file-format contract; nothing in the theory
fixes it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, InvalidInputError
from .sysmodel import DescriptorPlant

NETWORK_KINDS = ("buffer", "irrigation", "thermal", "machine", "circulant")


@dataclass
class NetworkModel:
    """Graph description that compiles into a plant.

    ``params`` is a per-kind mapping:
      buffer:     a (list of node rates)
      irrigation: alpha, beta, tau (per-pool lists)
      thermal:    masses, heat_capacity, leak, conduction [(i, j, p), ...], outdoor
      machine:    mass, damping, and either laplacian or weighted edges
      circulant:  row (generator of the circulant state matrix)
    """

    kind: str
    nodes: int = 0
    edges: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NETWORK_KINDS:
            raise InvalidInputError(
                f"unknown network kind {self.kind!r}; expected one of {NETWORK_KINDS}"
            )
        self.nodes = int(self.nodes)
        if self.nodes < 0:
            raise InvalidInputError(f"a network cannot have {self.nodes} nodes")
        self.edges = [(int(i), int(j)) for i, j in self.edges]


def _check_edges(nodes: int, edges) -> None:
    seen = set()
    for i, j in edges:
        if not (0 <= i < nodes and 0 <= j < nodes):
            raise InvalidInputError(f"edge ({i}, {j}) references a node outside 0..{nodes - 1}")
        if i == j:
            raise InvalidInputError(f"self-loop ({i}, {j}) is not allowed")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InvalidInputError(f"duplicate edge between nodes {i} and {j}")
        seen.add(key)


def _positive_array(values, count, name):
    a = np.asarray(values, dtype=float)
    if a.shape != (count,):
        raise DimensionError(f"{name} must have length {count}, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise InvalidInputError(f"{name} must be strictly positive throughout")
    return a


def compile_buffer(net: NetworkModel) -> DescriptorPlant:
    """Diffusively coupled buffers: E = I, A = -diag(a), incidence-style B.

    Control column for the directed input (i, j) has +1 at node i and -1 at
    node j; its reverse column follows immediately after.
    """
    if net.kind != "buffer":
        raise InvalidInputError(f"expected a buffer model, got kind={net.kind!r}")
    n = net.nodes
    a = _positive_array(net.params.get("a"), n, "buffer rates a")
    _check_edges(n, net.edges)
    A = np.diag(-a)
    B = np.zeros((n, 2 * len(net.edges)))
    for t, (i, j) in enumerate(net.edges):
        B[i, 2 * t] = 1.0
        B[j, 2 * t] = -1.0
        B[j, 2 * t + 1] = 1.0
        B[i, 2 * t + 1] = -1.0
    return DescriptorPlant(np.eye(n), A, B)


def compile_irrigation(net: NetworkModel, unit_h: bool = False):
    """Cascade of pools with states [q_1, r_1, ..., q_N, r_N].

    Returns (plant, H) where H maps the per-pool load disturbances into the
    state equations. By default H carries the -1/alpha_i coefficient the
    level dynamics dictate; ``unit_h`` swaps in the unit-entry variant some
    references tabulate. H does not enter gain synthesis.
    """
    if net.kind != "irrigation":
        raise InvalidInputError(f"expected an irrigation model, got kind={net.kind!r}")
    n = net.nodes
    if n < 1:
        raise InvalidInputError("irrigation cascade needs at least one pool")
    alpha = _positive_array(net.params.get("alpha"), n, "alpha")
    beta = _positive_array(net.params.get("beta"), n, "beta")
    tau = _positive_array(net.params.get("tau"), n, "tau")
    A = np.zeros((2 * n, 2 * n))
    B = np.zeros((2 * n, n))
    H = np.zeros((2 * n, n))
    for i in range(n):
        q, r = 2 * i, 2 * i + 1
        A[q, q] = -beta[i] / alpha[i]
        A[q, r] = 1.0 / alpha[i]
        A[r, r] = -1.0 / tau[i]
        B[r, i] = 1.0 / tau[i]
        if i + 1 < n:
            B[2 * (i + 1), i] = -1.0 / alpha[i + 1]
        H[q, i] = 1.0 if unit_h else -1.0 / alpha[i]
    return DescriptorPlant(np.eye(2 * n), A, B), H


def compile_thermal(net: NetworkModel) -> DescriptorPlant:
    """Room temperatures under conductive coupling: E = diag(c*m_i), symmetric A, B = I."""
    if net.kind != "thermal":
        raise InvalidInputError(f"expected a thermal model, got kind={net.kind!r}")
    n = net.nodes
    masses = _positive_array(net.params.get("masses"), n, "room masses")
    c = float(net.params.get("heat_capacity", 1.0))
    if not np.isfinite(c) or c <= 0:
        raise InvalidInputError("heat_capacity must be strictly positive")
    leak = _positive_array(net.params.get("leak"), n, "leak coefficients")
    conduction = net.params.get("conduction", [])
    _check_edges(n, [(int(i), int(j)) for i, j, _ in conduction])
    A = np.diag(-leak)
    for i, j, p in conduction:
        p = float(p)
        if not np.isfinite(p) or p <= 0:
            raise InvalidInputError(f"conduction coefficient for ({i}, {j}) must be positive")
        A[i, j] += p
        A[j, i] += p
        A[i, i] -= p
        A[j, j] -= p
    # Strict diagonal dominance from leak > 0 makes A negative definite.
    lam_max = np.linalg.eigvalsh(A)[-1]
    if lam_max >= 0:
        raise InvalidInputError("assembled thermal state matrix is not negative definite")
    return DescriptorPlant(np.diag(c * masses), A, np.eye(n))


def laplacian_from_edges(nodes: int, weighted_edges) -> np.ndarray:
    """Weighted graph Laplacian from (i, j, weight) triples."""
    L = np.zeros((nodes, nodes))
    _check_edges(nodes, [(int(i), int(j)) for i, j, _ in weighted_edges])
    for i, j, w in weighted_edges:
        w = float(w)
        if not np.isfinite(w) or w <= 0:
            raise InvalidInputError(f"edge weight for ({i}, {j}) must be positive")
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    return L


def compile_machine(net: NetworkModel):
    """Validated (mass, damping, L) triple for a swing-equation network.

    L must be a weighted Laplacian: symmetric, nonpositive off the diagonal,
    with (numerically) zero row sums.
    """
    if net.kind != "machine":
        raise InvalidInputError(f"expected a machine model, got kind={net.kind!r}")
    m = float(net.params.get("mass", 0.0))
    d = float(net.params.get("damping", 0.0))
    if not np.isfinite(m) or m <= 0 or not np.isfinite(d) or d <= 0:
        raise InvalidInputError("machine mass and damping must be strictly positive")
    if "laplacian" in net.params:
        L = np.atleast_2d(np.asarray(net.params["laplacian"], dtype=float))
    else:
        L = laplacian_from_edges(net.nodes, net.params.get("edges", []))
    n = L.shape[0]
    if L.shape != (n, n):
        raise DimensionError("laplacian must be square")
    scale = max(np.abs(L).max(), 1.0)
    if np.abs(L - L.T).max() > 1e-12 * scale:
        raise InvalidInputError("laplacian must be symmetric")
    off = L - np.diag(np.diag(L))
    if off.max() > 1e-12 * scale:
        raise InvalidInputError("laplacian off-diagonal entries must be nonpositive")
    if np.abs(L.sum(axis=1)).max() > 1e-10 * scale:
        raise InvalidInputError("laplacian row sums must vanish")
    return m, d, L


def compile_circulant(first_row) -> DescriptorPlant:
    """Cyclic-shift-invariant plant: A generated from its first row, B = E = I.

    A non-Hurwitz A is returned with a warning rather than rejected, so the
    construction can still be inspected.
    """
    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or row.size == 0:
        raise DimensionError("circulant generator must be a nonempty vector")
    if not np.all(np.isfinite(row)):
        raise InvalidInputError("circulant generator must be finite")
    n = row.size
    A = np.empty((n, n))
    for i in range(n):
        A[i] = np.roll(row, i)
    if np.linalg.eigvals(A).real.max() >= 0:
        warnings.warn("circulant state matrix is not Hurwitz", stacklevel=2)
    return DescriptorPlant(np.eye(n), A, np.eye(n))


def compile_network(net: NetworkModel) -> DescriptorPlant:
    """Single-plant compilation for kinds that reduce to a descriptor triple."""
    if net.kind == "buffer":
        return compile_buffer(net)
    if net.kind == "irrigation":
        return compile_irrigation(net)[0]
    if net.kind == "thermal":
        return compile_thermal(net)
    if net.kind == "circulant":
        return compile_circulant(net.params.get("row"))
    raise InvalidInputError(
        f"network kind {net.kind!r} has no single descriptor form; "
        "use the kind-specific compiler"
    )
