"""Closed-form feedback gain constructions.

Every construction here is explicit: a single frequency sample of the plant
determines the gain, no iteration involved. All inverses go through
factor-and-solve; an explicit inverse appears only where the inverse itself
is the result. The buffer law is read off the compiled buffer plant: its A is
diagonal, so B^T A^{-1} takes one division per entry.
"""

from __future__ import annotations

import numpy as np

from . import linalg, netgen
from .exceptions import (
    DimensionError,
    HypothesisViolationError,
    InvalidInputError,
    NotRealGainError,
    StandingAssumptionError,
)
from .sysmodel import (
    REALNESS_RTOL,
    DescriptorPlant,
    Gain,
    RationalPlant,
    WeightedObjective,
)


def _realize(K: np.ndarray, what: str) -> np.ndarray:
    """Strip an imaginary residue that is within tolerance, else refuse."""
    re, im = K.real, K.imag
    if linalg.spectral_norm(im) > REALNESS_RTOL * (1.0 + linalg.spectral_norm(re)):
        raise NotRealGainError(
            f"{what} is not real-valued at this frequency; "
            "pick a frequency where the sampled gain is real"
        )
    return np.ascontiguousarray(re)


def closed_form_matrix_gain(Mw: np.ndarray, Nw: np.ndarray):
    """Gain matrix -N^* M (M^* M)^{-1} from frequency samples M, N.

    Returns (K, tag) where tag is "square" when M is square (solved as
    K = -N^* M^{-*}) and "general" for tall full-column-rank M.
    """
    Mw = np.atleast_2d(np.asarray(Mw, dtype=complex))
    Nw = np.atleast_2d(np.asarray(Nw, dtype=complex))
    if Nw.shape[0] != Mw.shape[0]:
        raise DimensionError("M and N must have the same number of rows")
    if linalg.rcond(Mw) <= linalg.RANK_RTOL:
        raise StandingAssumptionError("M sample does not have full column rank")
    if Mw.shape[0] == Mw.shape[1]:
        # K M^* = -N^*  =>  K = -N^* M^{-*}
        K = -np.linalg.solve(Mw.conj(), Nw.conj()).T
        return K, "square"
    G = Mw.conj().T @ Mw
    K = -np.linalg.solve(G, Mw.conj().T @ Nw).conj().T
    return K, "general"


def closed_form_gain(plant: RationalPlant, omega0: float = 0.0) -> Gain:
    """Static gain sampled from the plant at the target peak frequency.

    The result must come out (numerically) real; otherwise the chosen
    frequency does not admit a static optimal gain and NotRealGainError is
    raised.
    """
    Mw = plant.eval_M(omega0)
    Nw = plant.eval_N(omega0)
    K, tag = closed_form_matrix_gain(Mw, Nw)
    return Gain(_realize(K, "closed-form gain"), omega0, tag)


def descriptor_gain(plant: DescriptorPlant) -> Gain:
    """K = B^T A^{-T} for the descriptor triple, the zero-frequency sample: the plant's ``Kd``."""
    return Gain(plant.Kd, 0.0, "descriptor")


def weighted_gain(plant: RationalPlant, weight, omega0: float = 0.0) -> Gain:
    """Closed-form gain for the cost |Q y|^2 + |u|^2: the plain gain times Q^T Q."""
    w = weight if isinstance(weight, WeightedObjective) else WeightedObjective(weight)
    if w.Q.shape[1] != plant.k:
        raise DimensionError(f"Q must have {plant.k} columns, got {w.Q.shape}")
    return Gain(closed_form_gain(plant, omega0).K @ (w.Q.T @ w.Q), omega0, "weighted")


def buffer_law(net: netgen.NetworkModel | DescriptorPlant) -> Gain:
    """Per-edge exchange law for diffusive buffers, B^T A^{-1} of the compiled plant: ``net`` itself,
    or ``compile_buffer(net)`` of a network. A is diagonal, so the directed input (i, j) is fed
    -x_i/a_i + x_j/a_j, one division per entry: two nonzeros per row of K, C-ordered, zeros +0.0."""
    plant = net if isinstance(net, DescriptorPlant) else netgen.compile_buffer(net)
    K = np.divide(plant.B.T, plant.A.diagonal(), order="C")
    K += 0.0  # 0 / (-a) is -0.0
    return Gain(K, 0.0, "buffer")


def _check_block(A: np.ndarray, idx: int) -> None:
    scale = max(np.abs(A).max(), 1.0)
    if np.abs(A - A.T).max() > 1e-12 * scale:
        raise HypothesisViolationError(f"subsystem block {idx} is not symmetric")
    if np.linalg.eigvalsh(A)[-1] >= 0:
        raise HypothesisViolationError(f"subsystem block {idx} is not negative definite")


def _subsystems(blocks, couplings):
    """(blocks as float matrices, couplings as (i, j, b_i, b_j), each block's first state)."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    sizes = [b.shape[0] for b in blocks]
    out = []
    for c in couplings:
        if len(c) == 3:
            i, j, bi = c
            bj = bi
        elif len(c) == 4:
            i, j, bi, bj = c
        else:
            raise InvalidInputError("couplings must be (i, j, b) or (i, j, b_i, b_j)")
        i, j = int(i), int(j)
        if not (0 <= i < len(blocks) and 0 <= j < len(blocks)) or i == j:
            raise InvalidInputError(f"coupling ({i}, {j}) references invalid blocks")
        bi = np.asarray(bi, dtype=float).reshape(-1)
        bj = np.asarray(bj, dtype=float).reshape(-1)
        if bi.size != sizes[i] or bj.size != sizes[j]:
            raise DimensionError(
                f"coupling ({i}, {j}) vectors must have lengths {sizes[i]} and {sizes[j]}"
            )
        out.append((i, j, bi, bj))
    return blocks, out, np.concatenate(([0], np.cumsum(sizes)))


def subsystem_law(blocks, couplings) -> Gain:
    """Edge-local law for coupled multivariable subsystems.

    ``blocks`` are the per-subsystem state matrices, each symmetric negative
    definite; ``couplings`` are (i, j, b) triples (or (i, j, b_i, b_j) with
    distinct injection vectors per endpoint). Input (i, j) receives
    b_i^T A_i^{-1} x_i + b_j^T A_j^{-1} x_j, which is the descriptor gain of
    the assembled block-diagonal plant.
    """
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    for idx, b in enumerate(blocks):
        if b.shape[0] != b.shape[1]:
            raise DimensionError(f"subsystem block {idx} must be square")
        _check_block(b, idx)
    blocks, couplings, offsets = _subsystems(blocks, couplings)
    K = np.zeros((len(couplings), int(offsets[-1])))
    for r, (i, j, bi, bj) in enumerate(couplings):
        K[r, offsets[i] : offsets[i + 1]] = np.linalg.solve(blocks[i], bi)
        K[r, offsets[j] : offsets[j + 1]] = np.linalg.solve(blocks[j], bj)
    return Gain(K, 0.0, "subsystem")


def assemble_subsystem_plant(blocks, couplings) -> DescriptorPlant:
    """Block-diagonal plant whose descriptor gain the subsystem law reproduces."""
    blocks, couplings, offsets = _subsystems(blocks, couplings)
    n = int(offsets[-1])
    A = np.zeros((n, n))
    for idx, b in enumerate(blocks):
        A[offsets[idx] : offsets[idx + 1], offsets[idx] : offsets[idx + 1]] = b
    B = np.zeros((n, len(couplings)))
    for c, (i, j, bi, bj) in enumerate(couplings):
        B[offsets[i] : offsets[i + 1], c] = bi
        B[offsets[j] : offsets[j + 1], c] = bj
    return DescriptorPlant(np.eye(n), A, B)


def droop_gain(omega0: float, zeta: float) -> Gain:
    """Proportional frequency droop -omega0/(2*zeta), sampled at omega0."""
    if not (omega0 > 0) or not (zeta > 0):
        raise InvalidInputError("droop gain requires omega0 > 0 and zeta > 0")
    return Gain(np.array([[-omega0 / (2.0 * zeta)]]), omega0, "droop")


def machine_modal_gains(m: float, d: float, L) -> Gain:
    """Uniform velocity feedback -I/d for a network of identical machines.

    The mode with L-eigenvalue lam peaks at sqrt(lam/m) yet its gain is
    -1/d regardless, so the law needs no eigenvector data; per-mode records
    are kept in the gain metadata. The zero eigenvalue every Laplacian
    carries is handled by the zero-frequency limit, which gives the same
    -1/d.
    """
    m = float(m)
    d = float(d)
    if not (m > 0) or not (d > 0):
        raise InvalidInputError("machine mass and damping must be strictly positive")
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if L.shape[0] != L.shape[1]:
        raise DimensionError("L must be square")
    scale = max(np.abs(L).max(), 1.0)
    if np.abs(L - L.T).max() > 1e-12 * scale:
        raise HypothesisViolationError("L must be symmetric")
    lam = np.linalg.eigvalsh(L)
    norm_l = max(abs(lam[0]), abs(lam[-1]))
    if lam[0] < -1e-9 * max(norm_l, 1.0):
        raise HypothesisViolationError("L must be positive semidefinite")
    # Snap the numerically-zero mode every Laplacian carries to exactly zero.
    lam = np.where(lam < 1e-9 * max(norm_l, 1.0), 0.0, lam)
    modes = [
        {"eigenvalue": float(v), "omega0": float(np.sqrt(v / m)), "gain": -1.0 / d}
        for v in lam
    ]
    n = L.shape[0]
    return Gain(
        -np.eye(n) / d,
        0.0,
        "modal",
        metadata={"mass": m, "damping": d, "modes": modes},
    )
