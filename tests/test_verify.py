import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hinfkit import (
    DescriptorPlant,
    Gain,
    InvalidInputError,
    NetworkModel,
    PoleOnAxisError,
    RationalPlant,
    StateSpace,
    UnstableSystemError,
    buffer_law,
    certify_optimality,
    close_loop,
    compile_buffer,
    compile_irrigation,
    compile_network,
    descriptor_gain,
    droop_gain,
    droop_plant,
    eval_closed_rational,
    hinf_norm_grid,
    hinf_norm_ss,
    lower_bound,
    pencil_stability,
    pseudoinverse,
    rational_stability,
    sparsity_pattern,
    spectral_norm,
    symmetric_commuting_check,
    weighted_lower_bound,
    zero_peak_inequality,
)
from hinfkit.verify import CERT_RTOL
from conftest import asym_chain, random_buffer

SQRT_HALF = 2.0**-0.5
ASYM_NORM_AT_ONE = math.sqrt(1.0 + math.sqrt(2.0) / 2.0)  # ||G^{-1}||^{1/2}, G = [[3,-1],[-1,1]]
# The golden "rooms" network: unequal masses, so F = A E^T - E A^T != 0.
ROOMS = NetworkModel("thermal", 2, [], {
    "masses": [2.0, 1.0], "heat_capacity": 1.0, "leak": [1.0, 1.0], "conduction": [[0, 1, 1.0]]})


class TestPencilStability:
    def test_lag_loop(self, lag_plant):
        res = pencil_stability(lag_plant, Gain([[-1.0]]))
        assert res.stable and res.abscissa == pytest.approx(-2.0)

    def test_asym_chain(self):
        res = pencil_stability(asym_chain(1.0), Gain([[-1.0, 0.0]]))
        assert res.stable and res.abscissa == pytest.approx(-1.0)

    def test_small_rate_still_stable(self):
        a = 0.01
        p = asym_chain(a)
        res = pencil_stability(p, descriptor_gain(p))
        # closed-loop eigenvalues are -a - 1/a and -1
        assert res.stable and res.abscissa == pytest.approx(-1.0)

    def test_zero_rate_rejected_upstream(self):
        from hinfkit import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            asym_chain(0.0)


class TestHinfNormStateSpace:
    def test_lag_loop(self, lag_plant):
        norm, peak = hinf_norm_ss(close_loop(lag_plant, Gain([[-1.0]])))
        assert norm == pytest.approx(SQRT_HALF, abs=1e-8)
        assert peak == 0.0

    def test_first_order_unit(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        norm, peak = hinf_norm_ss(ss)
        assert norm == pytest.approx(1.0, rel=1e-8)
        assert peak == 0.0

    def test_asym_chain_norm(self):
        p = asym_chain(1.0)
        norm, peak = hinf_norm_ss(close_loop(p, descriptor_gain(p)))
        assert norm == pytest.approx(ASYM_NORM_AT_ONE, rel=1e-6)
        assert peak == 0.0

    def test_resonant_peak_found(self):
        # [0, w0^2] row of a lightly damped oscillator peaks near w0
        w0, zeta = 3.0, 0.05
        ss = StateSpace(
            [[0.0, 1.0], [-w0 * w0, -2 * zeta * w0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]
        )
        norm, peak = hinf_norm_ss(ss)
        expected_peak = w0 * math.sqrt(1 - 2 * zeta**2)
        expected_norm = 1.0 / (w0 * w0 * 2 * zeta * math.sqrt(1 - zeta**2))
        assert norm == pytest.approx(expected_norm, rel=1e-7)
        assert peak == pytest.approx(expected_peak, abs=1e-4)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            hinf_norm_ss(StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]))

    def test_feedthrough_rejected(self):
        with pytest.raises(InvalidInputError):
            hinf_norm_ss(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]]))

    def test_exactly_singular_sample_is_a_pole_on_the_axis(self):
        # The largest real part of eigvals(A) is -7.4e-17, yet -A is exactly
        # singular to LU at w = 0: the loop has a pole there, as on the grid route.
        A = [[-4.345464951034572, 0.35621889863023065, -1.814582604888094],
             [0.35621889863023065, -0.5663341707390032, 0.029814444452595526],
             [-1.814582604888094, 0.029814444452595526, -0.7840703671019064]]
        assert np.linalg.eigvals(A).real.max() < 0
        with pytest.raises(PoleOnAxisError, match="omega=0"):
            hinf_norm_ss(StateSpace(A, np.eye(3), np.eye(3), np.zeros((3, 3))))


class TestHinfNormGrid:
    def test_double_pole_norm(self, double_pole_plant):
        norm, peak = hinf_norm_grid(double_pole_plant, Gain([[-0.25]]))
        assert norm == pytest.approx(17.0**-0.5, rel=1e-6)
        assert peak == 0.0

    def test_droop_peak_location(self):
        norm, peak = hinf_norm_grid(droop_plant(2.0, 0.5), droop_gain(2.0, 0.5))
        assert abs(peak - 2.0) <= 1e-4

    def test_matches_state_space_route(self, lag_plant):
        g = Gain([[-1.0]])
        n_grid, _ = hinf_norm_grid(lag_plant.to_rational(), g)
        n_ss, _ = hinf_norm_ss(close_loop(lag_plant, g))
        assert n_grid == pytest.approx(n_ss, rel=1e-6)


class TestLowerBound:
    def test_lag(self, lag_plant):
        value, omega = lower_bound(lag_plant.to_rational())
        assert value == pytest.approx(SQRT_HALF, rel=1e-9)
        assert omega == 0.0

    def test_double_pole_matches_dense_scan(self, double_pole_plant):
        value, omega = lower_bound(double_pole_plant)
        assert value == pytest.approx(17.0**-0.5, rel=1e-9)
        assert omega == 0.0
        # independent dense-grid oracle
        dense = max(
            1.0 / math.sqrt(abs(complex((w * 1j + 2) ** 2)) ** 2 + abs(1j * w + 1) ** 2)
            for w in np.linspace(0, 100, 20001)
        )
        assert value >= dense - 1e-12

    def test_droop_argmax(self):
        value, omega = lower_bound(droop_plant(2.0, 0.5))
        assert omega == pytest.approx(2.0, abs=1e-4)

    def test_weighted_reduces_to_plain(self, double_pole_plant):
        plain = lower_bound(double_pole_plant)
        weighted = weighted_lower_bound(double_pole_plant, [[1.0]])
        assert weighted.value == pytest.approx(plain.value, rel=1e-12)

    def test_weighted_scalar_value(self, lag_plant):
        res = weighted_lower_bound(lag_plant.to_rational(), [[2.0]])
        assert res.value == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-9)


def test_pseudoinverse_route_identity():
    # ||[M -N]^+|| equals ||(M M^* + N N^*)^{-1}||^{1/2} at any frequency
    rng = np.random.default_rng(79)
    A = rng.standard_normal((3, 3)) - 4 * np.eye(3)
    B = rng.standard_normal((3, 2))
    p = DescriptorPlant(np.eye(3), A, B).to_rational()
    for w in rng.uniform(0.0, 50.0, 20):
        Mw, Nw = p.eval_M(w), p.eval_N(w)
        stacked = np.hstack([Mw, -Nw])
        lhs = spectral_norm(pseudoinverse(stacked))
        S = Mw @ Mw.conj().T + Nw @ Nw.conj().T
        rhs = spectral_norm(np.linalg.inv(S)) ** 0.5
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestCertificates:
    def test_lag_optimal(self, lag_plant):
        cert = certify_optimality(lag_plant.to_rational(), descriptor_gain(lag_plant))
        assert cert.verdict == "optimal"
        assert cert.hinf_norm == pytest.approx(SQRT_HALF, abs=1e-8)
        assert cert.lower_bound == pytest.approx(SQRT_HALF, rel=1e-9)
        assert cert.gap == pytest.approx(0.0, abs=1e-7)
        assert cert.peak_frequency == 0.0

    def test_open_loop_suboptimal(self, lag_plant):
        cert = certify_optimality(lag_plant.to_rational(), Gain(np.zeros((1, 1))))
        assert cert.verdict == "stable-but-suboptimal"
        assert cert.hinf_norm == pytest.approx(1.0, rel=1e-6)

    def test_destabilizing_gain_flagged(self, double_pole_plant):
        cert = certify_optimality(double_pole_plant, Gain([[5.0]]))
        assert cert.verdict == "unstable"
        assert not cert.stable
        assert math.isinf(cert.hinf_norm)

    def test_gap_sign_invariant(self, three_state_demo):
        cert = certify_optimality(three_state_demo.to_rational(), descriptor_gain(three_state_demo))
        assert cert.gap >= -cert.tolerances["norm_rtol"]

    def test_zero_tolerance_reports_no_margin(self, lag_plant):
        cert = certify_optimality(lag_plant.to_rational(), descriptor_gain(lag_plant), tol=0.0)
        assert cert.verdict == "stable-but-suboptimal"
        assert cert.details["omega0_sigma_max"] == pytest.approx(SQRT_HALF, rel=1e-12)
        assert math.isnan(cert.details["omega0_margin"])

    @pytest.mark.parametrize("route", ["state-space", "grid"])
    def test_gain_labelled_off_its_peak_is_not_optimal(self, route, lag_plant):
        # The norm meets the bound, but the labelled omega0 does not attain it.
        if route == "grid":
            plant, K = droop_plant(2.0, 0.5), droop_gain(2.0, 0.5).K
        else:
            plant, K = lag_plant.to_rational(), descriptor_gain(lag_plant).K
        cert = certify_optimality(plant, Gain(K, 1.0))
        assert cert.details["method"] == route
        assert abs(cert.gap) <= cert.tolerances["norm_rtol"] * (1.0 + cert.lower_bound)
        assert cert.verdict == "stable-but-suboptimal"
        assert cert.details["omega0_margin"] < -1.0

    def test_rational_route_used_without_descriptor(self, double_pole_plant):
        cert = certify_optimality(double_pole_plant, Gain([[-0.25]]))
        assert cert.details["method"] == "grid"
        assert cert.verdict == "optimal"


class TestRationalStability:
    def test_droop_loop_stable(self):
        res = rational_stability(droop_plant(2.0, 0.5), droop_gain(2.0, 0.5))
        assert res.stable

    def test_unstable_root_found(self, double_pole_plant):
        res = rational_stability(double_pole_plant, Gain([[5.0]]))
        assert not res.stable
        # det numerator is s^2 - s - 1, whose positive root is (1 + sqrt(5)) / 2
        assert res.abscissa == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-9)

    def test_gain_shape_checked(self, double_pole_plant):
        from hinfkit import DimensionError

        for K in ([[1.0, 2.0]], [[1.0], [2.0]]):
            with pytest.raises(DimensionError):
                rational_stability(double_pole_plant, Gain(K))

    def test_marginal_root_counts_as_unstable(self):
        p = RationalPlant([[[0.0, 1.0]]], [[[1.0]]])  # M = s, N = 1
        res = rational_stability(p, Gain([[0.0]]))
        assert not res.stable


class TestZeroPeakInequality:
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_asym_chain_family_holds(self, a):
        assert zero_peak_inequality(asym_chain(a)).holds

    def test_symmetric_plant_holds(self, three_state_demo):
        res = zero_peak_inequality(three_state_demo)
        assert res.holds and res.tail_rule == "full"

    def test_rotational_weakly_actuated_fails(self):
        # lightly damped rotation with weak inputs peaks near the resonance,
        # confirmed against a dense-grid scan below
        p = DescriptorPlant(np.eye(2), [[-0.1, 5.0], [-5.0, -0.1]], 0.01 * np.eye(2))
        res = zero_peak_inequality(p)
        assert not res.holds
        assert res.omega_at_min == pytest.approx(5.0, abs=0.01)

        F = p.E @ p.A.T
        G = p.A @ p.A.T + p.B @ p.B.T
        thresh = np.linalg.eigvalsh(G)[0]
        FGF = F @ np.linalg.solve(G, F.T)
        skew = F.T - F
        dense_min = min(
            np.linalg.eigvalsh(w * w * FGF + 1j * w * skew + G - thresh * np.eye(2))[0]
            for w in np.concatenate([[0.0], np.logspace(-4, 4, 20000)])
        )
        assert res.min_eigenvalue == pytest.approx(dense_min, rel=1e-3)

    @pytest.mark.parametrize("plant", [
        DescriptorPlant(np.eye(2), [[-0.1, 5.0], [-5.0, -0.1]], 0.01 * np.eye(2)),
        compile_network(ROOMS),
        asym_chain(1.0),
    ], ids=["rotational", "rooms", "asym_chain"])
    def test_verdict_does_not_depend_on_scale(self, plant):
        # H(w) scales as c^2 when E, A and B are all multiplied by c; the loop does not change.
        holds = {
            zero_peak_inequality(DescriptorPlant(c * plant.E, c * plant.A, c * plant.B)).holds
            for c in [3e-6, *10.0 ** np.arange(-6, 7)]
        }
        assert holds == {zero_peak_inequality(plant).holds}

    def test_singular_descriptor_uses_subspace_tail(self):
        p = DescriptorPlant(np.diag([1.0, 0.0]), -np.eye(2), np.eye(2))
        res = zero_peak_inequality(p)
        assert res.tail_rule == "subspace"
        assert res.checked_up_to >= 1e6


class TestSymmetricCommuting:
    def test_buffer_plant_passes(self, line_buffer):
        assert symmetric_commuting_check(compile_buffer(line_buffer)).holds

    def test_three_state_demo_passes(self, three_state_demo):
        assert symmetric_commuting_check(three_state_demo).holds

    def test_asym_chain_fails_symmetry(self):
        report = symmetric_commuting_check(asym_chain(1.0))
        assert not report.symmetric_A and not report.holds

    def test_positive_definite_A_fails(self):
        p = DescriptorPlant(np.eye(1), [[1.0]], [[1.0]])
        assert not symmetric_commuting_check(p).negative_definite_A


class TestSparsityPattern:
    def test_three_state_closed_form(self, three_state_demo):
        res = sparsity_pattern(descriptor_gain(three_state_demo))
        assert res.zeros == 4 and res.nonzeros == 5

    def test_published_dense_gain(self):
        printed = Gain(
            [[0.93, -0.11, 0.00], [-0.05, -0.17, -0.01], [0.04, 0.16, -0.26]]
        )
        res = sparsity_pattern(printed)
        assert res.zeros == 1 and res.nonzeros == 8

    def test_zero_matrix(self):
        res = sparsity_pattern(Gain(np.zeros((2, 3))))
        assert res.zeros == 6 and res.nonzeros == 0


def test_symmetric_plants_certify_with_norm_formula():
    # symmetric commuting plants: certificate agrees with ||(A A^T + B B^T)^{-1}||^{1/2}
    rng = np.random.default_rng(83)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        X = rng.standard_normal((n, n))
        A = -(X @ X.T + 0.5 * np.eye(n))
        B = rng.standard_normal((n, int(rng.integers(1, 4))))
        p = DescriptorPlant(np.eye(n), A, B)
        assert symmetric_commuting_check(p).holds
        cert = certify_optimality(p.to_rational(), descriptor_gain(p))
        assert cert.verdict == "optimal"
        G = A @ A.T + B @ B.T
        formula = 1.0 / math.sqrt(np.linalg.eigvalsh(G)[0])
        assert cert.hinf_norm == pytest.approx(formula, rel=1e-6)


def test_lower_bound_caps_any_stabilizing_gain():
    rng = np.random.default_rng(89)
    p = asym_chain(1.0)
    rp = p.to_rational()
    bound = lower_bound(rp).value
    K_opt = descriptor_gain(p).K
    tried = 0
    while tried < 25:
        K = K_opt + 0.3 * rng.standard_normal(K_opt.shape)
        if not pencil_stability(p, Gain(K)).stable:
            continue
        norm, _ = hinf_norm_ss(close_loop(p, Gain(K)))
        assert norm >= bound - 1e-9
        tried += 1


def test_buffer_closed_loop_is_metzler():
    rng = np.random.default_rng(97)
    for n in [4, 9, 16]:
        net = random_buffer(rng, n)
        plant = compile_buffer(net)
        Acl = plant.A + plant.B @ buffer_law(net).K
        off = Acl - np.diag(np.diag(Acl))
        assert off.min() >= 0.0


def test_grid_norm_even_in_frequency(lag_plant):
    # responses of real-data plants are even in omega; spot-check a few points
    rp = lag_plant.to_rational()
    g = Gain([[-1.0]])
    for w in [0.1, 1.0, 7.3]:
        plus = spectral_norm(eval_closed_rational(rp, g, w))
        minus = spectral_norm(eval_closed_rational(rp, g, -w))
        assert plus == pytest.approx(minus, rel=1e-12)


def _same_poles(res, roots):
    """rational_stability's verdict agrees with the given pole set."""
    scale = 1.0 + float(np.abs(roots).max())
    abscissa = float(roots.real.max())
    assert res.abscissa == pytest.approx(abscissa, rel=1e-9, abs=1e-9 * scale)
    if abs(abscissa) > 2e-9 * scale:  # clear of the stability margin
        assert res.stable == (abscissa < 0)


_COEFS = st.floats(-3.0, 3.0)
_LEADING = st.one_of(st.floats(-3.0, -0.5), st.floats(0.5, 3.0))
_POLYS = st.builds(lambda c, lead: [*c, lead], st.lists(_COEFS, max_size=3), _LEADING)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_POLYS, _POLYS, _POLYS, _POLYS, _LEADING)
def test_scalar_poles_match_hand_cleared_roots(m_num, m_den, n_num, n_den, K):
    P = np.polynomial.polynomial
    if m_den == n_den:  # one distinct denominator clears the whole row
        cleared = P.polysub(m_num, K * np.asarray(n_num))
    else:
        cleared = P.polysub(P.polymul(m_num, n_den), K * P.polymul(n_num, m_den))
    cleared = np.trim_zeros(cleared, "b")
    if len(cleared) < 2 or abs(cleared[-1]) < 1e-6 * np.abs(cleared).max():
        return  # no roots, or an ill-conditioned leading coefficient
    plant = RationalPlant([[(m_num, m_den)]], [[(n_num, n_den)]])
    _same_poles(rational_stability(plant, Gain([[K]])), np.roots(cleared[::-1]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_quadratic_poles_match_companion_eigenvalues(k, m, seed):
    rng = np.random.default_rng(seed)
    E = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    F, L = rng.standard_normal((2, k, k))
    B = rng.standard_normal((k, m))
    K = rng.standard_normal((m, k))
    M = [[[L[i, j], F[i, j], E[i, j]] for j in range(k)] for i in range(k)]
    N = [[[B[i, j]] for j in range(m)] for i in range(k)]
    companion = np.block([[np.zeros((k, k)), np.eye(k)],
                          [-np.linalg.solve(E, L - B @ K), -np.linalg.solve(E, F)]])
    _same_poles(rational_stability(RationalPlant(M, N), Gain(K)), np.linalg.eigvals(companion))


class TestRationalPencilEdges:
    def test_identically_singular_loop(self):
        s = [0.0, 1.0]
        p = RationalPlant([[s, s], [s, s]], [[[1.0]], [[1.0]]])
        assert rational_stability(p, Gain([[0.5, -1.0]])) == (False, math.inf)

    def test_constant_loop_has_no_poles(self):
        p = RationalPlant([[[2.0], [1.0]], [[0.0], [3.0]]], [[[1.0]], [[0.0]]])
        assert rational_stability(p, Gain([[0.5, 0.0]])) == (True, -math.inf)

    def test_singular_leading_block(self):
        # diag(s^2 + 3s + 2, s + 4): poles -1, -2, -4 and one infinite eigenvalue
        p = RationalPlant([[[2.0, 3.0, 1.0], [0.0]], [[0.0], [4.0, 1.0]]], [[[0.0]], [[0.0]]])
        res = rational_stability(p, Gain([[0.0, 0.0]]))
        assert res.stable and res.abscissa == pytest.approx(-1.0, rel=1e-12)
        # U diag((s + 1)(s + 1e-3), s + 4) V: a dense singular C_2, whose infinite
        # eigenvalue comes out of QZ with a tiny nonzero beta; kept, it would
        # swell the margin past the slow pole
        U, V = np.random.default_rng(3).standard_normal((2, 2, 2))
        D = [np.array([1e-3, 1.001, 1.0]), np.array([4.0, 1.0, 0.0])]
        M = [[list(sum(U[i, l] * D[l] * V[l, j] for l in range(2))) for j in range(2)] for i in range(2)]
        res = rational_stability(RationalPlant(M, [[[0.0]], [[0.0]]]), Gain([[0.0, 0.0]]))
        assert res.stable and res.abscissa == pytest.approx(-1e-3, rel=1e-9)

    def test_shared_denominator_clears_once(self):
        # M = (s + 3)/(s - 1), N = 1/(s - 1), K = 1: M - N K = (s + 2)/(s - 1)
        p = RationalPlant([[([3.0, 1.0], [-1.0, 1.0])]], [[([1.0], [-1.0, 1.0])]])
        res = rational_stability(p, Gain([[1.0]]))
        assert res.stable and res.abscissa == pytest.approx(-2.0, rel=1e-12)

    def test_unfed_input_adds_no_pole(self):
        # M = s + 2, N = [1, 1/(s - 1)], K = [-1; 0]: only the first input is fed
        p = RationalPlant([[[2.0, 1.0]]], [[[1.0], ([1.0], [-1.0, 1.0])]])
        res = rational_stability(p, Gain([[-1.0], [0.0]]))
        assert res.stable and res.abscissa == pytest.approx(-3.0, rel=1e-12)

    def test_dense_eight_output_work(self, monkeypatch):
        import hinfkit.linalg

        counts = {"poly": 0, "eigvals": 0}
        init, eigvals = hinfkit.linalg.Polynomial.__post_init__, scipy.linalg.eigvals

        def counted_init(self):
            counts["poly"] += 1
            init(self)

        def counted_eigvals(*args, **kwargs):
            counts["eigvals"] += 1
            return eigvals(*args, **kwargs)

        rng = np.random.default_rng(8)
        k = 8
        E, F, L = np.eye(k) + 0.1 * rng.standard_normal((3, k, k))
        B = rng.standard_normal((k, 2))
        M = [[([L[i, j], F[i, j], E[i, j]], [1.0, 0.5]) for j in range(k)] for i in range(k)]
        N = [[[B[i, j]] for j in range(2)] for i in range(k)]
        plant, gain = RationalPlant(M, N), Gain(rng.standard_normal((2, k)))
        monkeypatch.setattr(hinfkit.linalg.Polynomial, "__post_init__", counted_init)
        monkeypatch.setattr(scipy.linalg, "eigvals", counted_eigvals)
        rational_stability(plant, gain)
        assert counts == {"poly": 0, "eigvals": 1}


# Lightly damped droop loops whose peak is flat: norm, sigma_max(T(j w0)) and
# the bound agree, but the smallest tying frequency can sit far from w0.
FLAT_DROOP_PEAKS = [(5.0, 1e-2), (2.0, 1e-3), (5.0, 1e-3), (0.5, 1e-4), (2.0, 1e-4), (0.5, 1e-5)]


@pytest.mark.parametrize("omega0, zeta", FLAT_DROOP_PEAKS)
def test_flat_droop_peak_certifies_by_value(omega0, zeta):
    cert = certify_optimality(droop_plant(omega0, zeta), droop_gain(omega0, zeta))
    assert cert.verdict == "optimal"
    assert abs(cert.hinf_norm - cert.lower_bound) <= 1e-6 * (1.0 + cert.lower_bound)


def _origin_pole_loops(rng, per_rate):
    """Loops with a genuine pole at s = 0 next to a fast pole at -b.

    Scalar c s (s + b)(s + r), and 2 x 2 U diag(s (s + b), 1 + s) V with
    random U and V; the gain is zero, so M is the loop.
    """
    for b in (1.0, 1e3, 4e6, 1e8):
        for r in np.logspace(-6, 0, per_rate):
            c = rng.uniform(0.1, 10.0)
            yield RationalPlant([[[0.0, c * b * r, c * (b + r), c]]], [[[1.0]]]), Gain([[0.0]])
            U, V = rng.standard_normal((2, 2, 2))
            M = [[[U[i, 1] * V[1, j], U[i, 0] * V[0, j] * b + U[i, 1] * V[1, j], U[i, 0] * V[0, j]]
                  for j in range(2)] for i in range(2)]
            yield RationalPlant(M, [[[0.0]], [[0.0]]]), Gain([[0.0, 0.0]])


def test_origin_pole_next_to_fast_poles_reads_unstable():
    # The margin scales with the largest root. A per-root margin
    # Re(lam) < -1e-9 |lam| calls about a fifth of these loops stable,
    # because the computed root at 0 lands a rounding error left of the axis.
    for plant, gain in _origin_pole_loops(np.random.default_rng(0), 25):
        assert not rational_stability(plant, gain).stable


@st.composite
def perturbed_loops(draw):
    """(plant, canonical gain perturbed by a relative 1e-3 .. 1e-1, numpy loop T(jw)).

    Buffers and irrigation cascades take the state-space route, droop
    plants with zeta >= 1e-2 the grid route.
    """
    kind = draw(st.sampled_from(["buffer", "irrigation", "droop"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "droop":
        omega0, zeta = draw(st.floats(0.5, 5.0)), 10.0 ** draw(st.floats(-2.0, 0.0))
        plant, gain = droop_plant(omega0, zeta), droop_gain(omega0, zeta)
        M = lambda w: np.array([[1j * w / omega0**2 + 2.0 * zeta / omega0 + 1.0 / (1j * w)]])
        N = lambda w: np.ones((1, 1))
    else:
        if kind == "buffer":
            net = random_buffer(rng, draw(st.integers(3, 8)))
            desc, gain = compile_buffer(net), buffer_law(net)
        else:
            pools = draw(st.integers(1, 4))
            alpha, beta, tau = rng.uniform(0.1, 10.0, 3)
            params = {"alpha": [alpha] * pools, "beta": [beta] * pools, "tau": [tau] * pools}
            desc, _ = compile_irrigation(NetworkModel("irrigation", pools, [], params))
            gain = descriptor_gain(desc)
        plant = desc.to_rational()
        M = lambda w: 1j * w * desc.E - desc.A
        N = lambda w: desc.B
    R = rng.standard_normal(gain.K.shape)
    rel = 10.0 ** draw(st.floats(-3.0, -1.0))
    K = gain.K + rel * np.linalg.norm(gain.K, 2) / np.linalg.norm(R, 2) * R

    def loop(w):
        X = np.linalg.inv(M(w) - N(w) @ K)
        return np.vstack([X, K @ X])

    return plant, Gain(K, gain.omega0, gain.formula), loop


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_loops())
def test_optimal_verdict_means_omega0_attains_the_norm(case):
    plant, gain, loop = case
    cert = certify_optimality(plant, gain)
    if cert.verdict == "optimal":
        sigma0 = np.linalg.svd(loop(gain.omega0), compute_uv=False)[0]
        assert sigma0 >= (1.0 - 2.0 * CERT_RTOL) * cert.hinf_norm
    if cert.hinf_norm > cert.lower_bound + CERT_RTOL * (1.0 + cert.lower_bound):
        assert cert.verdict != "optimal"


# M = diag(1 + s, 2e5 (1 + s)), N = I: the gain closes the first loop to
# s + 1e-8, so T(j0) = diag(1e-8, 2e5) is ill-conditioned but invertible.
SLOW_POLE_M = [[[1.0, 1.0], [0.0]], [[0.0], [2e5, 2e5]]]
SLOW_POLE_N = [[[1.0], [0.0]], [[0.0], [1.0]]]
SLOW_POLE_K = [[0.99999999, 0.0], [0.0, 0.0]]


def slow_pole_norm_at_zero() -> float:
    """sigma_max([I; K] (M - N K)^{-1}) at w = 0, by numpy alone."""
    K = np.array(SLOW_POLE_K)
    X = np.linalg.inv(np.diag([1.0, 2e5]) - K)
    return float(np.linalg.norm(np.vstack([X, K @ X]), 2))


def test_slow_stable_pole_is_not_a_pole_on_the_axis():
    plant = RationalPlant(SLOW_POLE_M, SLOW_POLE_N)
    cert = certify_optimality(plant, Gain(SLOW_POLE_K))
    assert cert.stable
    assert cert.details["method"] == "grid"
    assert cert.details["abscissa"] == pytest.approx(-1e-8, rel=1e-6)
    assert cert.verdict == "stable-but-suboptimal"
    assert cert.hinf_norm == pytest.approx(slow_pole_norm_at_zero(), rel=1e-6)
    assert cert.peak_frequency == 0.0


def test_ill_conditioned_E_reads_the_norm_on_the_grid():
    # cond(E) = 9.2e11: E^{-1} A loses digits that QZ keeps, and a level-set norm
    # on it read 2.0018, below sigma_max(T(j0)) = ||A^{-1}|| = 2.0023.
    E = [[0.7163649183095087, -0.697555537697393], [-0.011042994637825512, 0.010753042013336357]]
    A = [[-0.8070980949995156, 0.3102226496911968], [1.3848721089235345, -2.1982667325451164]]
    plant = DescriptorPlant(E, A, [[1.328379816412535], [-0.2895516615857001]])
    assert plant.state_space
    cert = certify_optimality(plant.to_rational(), Gain(np.zeros((1, 2))))
    assert cert.stable
    assert cert.details["method"] == "grid"
    assert cert.details["abscissa"] == pencil_stability(plant, Gain(np.zeros((1, 2)))).abscissa
    assert cert.hinf_norm == pytest.approx(np.linalg.norm(np.linalg.inv(A), 2), rel=1e-12)
    assert cert.peak_frequency == 0.0


def test_ill_conditioned_E_with_a_slow_pole_is_certified():
    # cond(E) = 1.3e8: QZ puts the slow pole at -9.7e-4, while E^{-1} A puts it at +0.015.
    E = [[0.3467902975799116, -0.3882500750035815], [-0.5687799202201508, 0.6367792169335529]]
    A = [[0.226109800718319, -0.253141885192026], [1.8131808891605405, -2.029951939271714]]
    plant = DescriptorPlant(E, A, [[2.766842235475604], [-0.030595565285535264]])
    gain = Gain(np.zeros((1, 2)))
    assert pencil_stability(plant, gain).stable
    assert np.linalg.eigvals(np.linalg.solve(plant.E, plant.A)).real.max() > 0
    cert = certify_optimality(plant.to_rational(), gain)
    assert cert.stable
    assert cert.details["method"] == "grid"
    assert cert.verdict == "stable-but-suboptimal"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.floats(0.0, 7.9), st.booleans(), st.integers(0, 2**32 - 1))
def test_level_set_route_sees_the_pencil_eigenvalues(n, log_cond, slow, seed):
    # Below cond(E) = 1e8 the pencil test and the norm's Hurwitz check take the
    # same eigenvalues, so a stable pencil never makes hinf_norm_ss refuse the loop.
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)))
    E = U @ np.diag(np.logspace(0.0, -log_cond, n)) @ W.T
    lam = -rng.uniform(0.5, 3.0, n)
    if slow:
        lam[0] = -(10.0 ** rng.uniform(-6.0, -3.0))
    V = rng.standard_normal((n, n))
    A = E @ V @ np.diag(lam) @ np.linalg.inv(V)
    if np.linalg.cond(A) > 1e11:
        return  # plants need an invertible A
    plant = DescriptorPlant(E, A, rng.standard_normal((n, 2)))
    gain = Gain(0.1 * rng.standard_normal((2, n)))
    assert plant.rcond_E > 1e-8
    stab = pencil_stability(plant, gain)
    loop = close_loop(plant, gain)
    assert stab.abscissa == np.linalg.eigvals(loop.A).real.max()
    if stab.stable:
        cert = certify_optimality(plant.to_rational(), gain)
        assert cert.stable and cert.details["method"] == "state-space"


def test_level_set_sigma0_evaluates_no_plant(monkeypatch):
    # sigma_max(T(j w0)) on the level-set route comes from the loop the norm built.
    plant = compile_network(ROOMS)
    calls = [0]

    def counting(method):
        def wrapper(self, w):
            calls[0] += 1
            return method(self, w)
        return wrapper

    monkeypatch.setattr(RationalPlant, "eval_M", counting(RationalPlant.eval_M))
    monkeypatch.setattr(RationalPlant, "eval_N", counting(RationalPlant.eval_N))
    cert = certify_optimality(plant.to_rational(), descriptor_gain(plant))
    assert cert.details["method"] == "state-space" and cert.verdict == "optimal"
    assert calls[0] == 0
