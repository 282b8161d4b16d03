import numpy as np
import pytest

from hinfkit import (
    DescriptorPlant,
    DimensionError,
    Gain,
    HypothesisViolationError,
    InvalidInputError,
    PoleOnAxisError,
    RationalPlant,
    SingularMatrixError,
    StandingAssumptionError,
    StateSpace,
    WeightedObjective,
    close_loop,
    descriptor_gain,
    droop_plant,
    eval_closed_rational,
    modal_plant,
    spectral_norm,
)
from conftest import asym_chain


class TestDescriptorPlant:
    def test_singular_A_rejected(self):
        with pytest.raises(SingularMatrixError):
            DescriptorPlant(np.eye(2), np.zeros((2, 2)), np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            DescriptorPlant(np.eye(2), -np.eye(2), np.ones((3, 1)))

    def test_to_rational_entries(self, lag_plant):
        rp = lag_plant.to_rational()
        assert rp.k == 1 and rp.m == 1
        assert rp.eval_M(0.0)[0, 0] == pytest.approx(1.0)  # -A
        assert rp.eval_M(1.0)[0, 0] == pytest.approx(1.0 + 1.0j)
        assert rp.eval_N(3.0)[0, 0] == pytest.approx(1.0)
        assert rp.descriptor is lag_plant


class TestCloseLoop:
    def test_lag_closed_loop(self, lag_plant):
        ss = close_loop(lag_plant, Gain([[-1.0]]))
        assert ss.A[0, 0] == pytest.approx(-2.0)
        np.testing.assert_allclose(ss.C.ravel(), [1.0, -1.0])
        assert np.all(ss.D == 0)

    def test_zero_gain_gives_open_loop(self):
        p = asym_chain(2.0)
        ss = close_loop(p, Gain(np.zeros((1, 2))))
        np.testing.assert_allclose(ss.A, p.A)

    def test_asym_chain_closed_loop(self):
        p = asym_chain(1.0)
        ss = close_loop(p, Gain([[-1.0, 0.0]]))
        np.testing.assert_allclose(ss.A, [[-2.0, 1.0], [0.0, -1.0]])

    def test_singular_E_rejected(self):
        p = DescriptorPlant(np.diag([1.0, 0.0]), -np.eye(2), np.eye(2))
        with pytest.raises(SingularMatrixError):
            close_loop(p, Gain(np.zeros((2, 2))))

    def test_scaled_E_normalized(self):
        p = DescriptorPlant(2.0 * np.eye(1), [[-1.0]], [[1.0]])
        ss = close_loop(p, Gain([[0.0]]))
        assert ss.A[0, 0] == pytest.approx(-0.5)
        assert ss.B[0, 0] == pytest.approx(0.5)


class TestEvalClosedRational:
    def test_double_pole_at_zero(self, double_pole_plant):
        out = eval_closed_rational(double_pole_plant, Gain([[-0.25]]), 0.0)
        np.testing.assert_allclose(out.ravel(), [4.0 / 17.0, -1.0 / 17.0], atol=1e-14)

    def test_lag_at_zero(self, lag_plant):
        out = eval_closed_rational(lag_plant.to_rational(), Gain([[-1.0]]), 0.0)
        np.testing.assert_allclose(out.ravel(), [0.5, -0.5], atol=1e-14)

    def test_strictly_proper_rolloff(self, lag_plant):
        out = eval_closed_rational(lag_plant.to_rational(), Gain([[-1.0]]), 1e6)
        assert spectral_norm(out) < 1e-5

    def test_singular_loop_detected(self):
        p = RationalPlant([[[0.0, 1.0]]], [[[1.0]]])  # M = s, N = 1
        with pytest.raises(PoleOnAxisError):
            eval_closed_rational(p, Gain([[0.0]]), 0.0)


def test_conversion_consistency():
    # descriptor closed loop and its rational form agree along a grid
    rng = np.random.default_rng(29)
    A = rng.standard_normal((4, 4)) - 5.0 * np.eye(4)
    E = np.diag(rng.uniform(0.5, 2.0, 4))
    B = rng.standard_normal((4, 2))
    p = DescriptorPlant(E, A, B)
    g = descriptor_gain(p)
    ss = close_loop(p, g)
    rp = p.to_rational()
    for w in np.logspace(-2, 2, 50):
        direct = ss.transfer(w)
        rational = eval_closed_rational(rp, g, w)
        assert np.abs(direct - rational).max() < 1e-9


def test_round_trip_norm_on_grid(three_state_demo):
    g = descriptor_gain(three_state_demo)
    ss = close_loop(three_state_demo, g)
    rp = three_state_demo.to_rational()
    for w in [0.0, 0.3, 1.7, 42.0]:
        assert spectral_norm(ss.transfer(w)) == pytest.approx(
            spectral_norm(eval_closed_rational(rp, g, w)), rel=1e-9
        )


class TestStandingAssumptions:
    def test_rank_loss_detected(self):
        p = RationalPlant([[[0.0, 1.0]]], [[[1.0]]])  # M = s vanishes at 0
        with pytest.raises(StandingAssumptionError):
            p.check_standing_assumptions()

    def test_healthy_plant_passes(self, double_pole_plant):
        double_pole_plant.check_standing_assumptions()

    def test_entry_pole_skipped(self):
        droop_plant(2.0, 0.5).check_standing_assumptions()


class TestWeightedObjective:
    def test_rank_deficient_rejected(self):
        with pytest.raises(HypothesisViolationError):
            WeightedObjective([[1.0, 0.0], [2.0, 0.0]])

    def test_pinv_is_right_inverse(self):
        rng = np.random.default_rng(31)
        Q = rng.standard_normal((2, 5))
        w = WeightedObjective(Q)
        np.testing.assert_allclose(Q @ w.pinv, np.eye(2), atol=1e-12)


class TestScalarPlants:
    def test_droop_plant_values(self):
        p = droop_plant(2.0, 0.5)
        # M(j*2) = j/2 + 0.5 + 1/(2j) = 0.5 exactly
        assert p.eval_M(2.0)[0, 0] == pytest.approx(0.5)

    def test_droop_plant_validation(self):
        with pytest.raises(InvalidInputError):
            droop_plant(0.0, 1.0)

    def test_modal_plant_zero_mode_is_lag(self):
        p = modal_plant(1.0, 2.0, 0.0)
        assert p.eval_M(0.0)[0, 0] == pytest.approx(2.0)  # no pole at 0

    def test_modal_plant_resonance(self):
        p = modal_plant(1.0, 1.0, 4.0)
        # imaginary part of M vanishes at sqrt(lam/m) = 2
        assert p.eval_M(2.0)[0, 0] == pytest.approx(1.0)


def test_state_space_dims_checked():
    with pytest.raises(DimensionError):
        StateSpace(np.eye(2), np.eye(2), np.eye(2), np.zeros((3, 2)))


def test_gain_requires_finite_entries():
    with pytest.raises(InvalidInputError):
        Gain([[np.inf]])


class TestRationalPlantInput:
    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidInputError):
            RationalPlant([[([1.0, 1.0], [0.0])]], [[[1.0]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coefficient_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            RationalPlant([[[1.0, bad]]], [[[1.0]]])
        with pytest.raises(InvalidInputError):
            RationalPlant([[[1.0, 1.0]]], [[([1.0], [1.0, bad])]])

    def test_non_square_M_rejected(self):
        with pytest.raises(DimensionError):
            RationalPlant([[[1.0], [0.0]]], [[[1.0]]])

    def test_N_row_count_checked(self):
        with pytest.raises(DimensionError):
            RationalPlant([[[1.0]]], [[[1.0]], [[1.0]]])

    def test_ragged_N_rejected(self):
        with pytest.raises(DimensionError):
            RationalPlant([[[1.0], [0.0]], [[0.0], [1.0]]], [[[1.0], [2.0]], [[1.0]]])

    def test_polynomial_pairs_match_bare_lists(self):
        from hinfkit import Polynomial

        pairs = RationalPlant(
            [[(Polynomial([2.0, 1.0]), Polynomial([1.0, 3.0])), (Polynomial([0.5]), Polynomial([1.0]))],
             [(Polynomial([0.0]), Polynomial([1.0])), (Polynomial([1.0, 0.0, 1.0]), Polynomial([1.0]))]],
            [[(Polynomial([1.0, -1.0]), Polynomial([2.0]))], [(Polynomial([3.0]), Polynomial([1.0]))]],
        )
        bare = RationalPlant(
            [[([2.0, 1.0], [1.0, 3.0]), [0.5]], [[0.0], [1.0, 0.0, 1.0]]],
            [[([1.0, -1.0], [2.0])], [[3.0]]],
        )
        for w in (0.0, 0.3, 1.0, 7.5):
            np.testing.assert_array_equal(pairs.eval_M(w), bare.eval_M(w))
            np.testing.assert_array_equal(pairs.eval_N(w), bare.eval_N(w))

    def test_to_rational_of_non_diagonal_E_is_exact(self):
        E = np.array([[2.0, 0.5, 0.0], [0.25, 1.0, -0.75], [0.0, 0.125, 3.0]])
        A = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [0.25, 0.0, -3.0]])
        B = np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]])
        rp = DescriptorPlant(E, A, B).to_rational()
        assert (rp.k, rp.m) == (3, 2)
        for w in (0.0, 0.5, 1.0, 3.0, 1e3):
            np.testing.assert_array_equal(rp.eval_M(w), 1j * w * E - A)
            np.testing.assert_array_equal(rp.eval_N(w), B)
