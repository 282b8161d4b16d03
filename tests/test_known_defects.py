"""Known defects, one strict xfail per case, each naming the ROADMAP item that fixes it.

Each test asserts the correct answer and fails on the code as it stands.
The change that fixes an item deletes that item's xfail markers; that is
the only edit these tests take.
"""

import numpy as np
import pytest

from hinfkit import (
    AreProblem,
    DescriptorPlant,
    Gain,
    NetworkModel,
    RationalPlant,
    certify_optimality,
    compile_irrigation,
    descriptor_gain,
    droop_gain,
    droop_plant,
    gamma_bisect,
    lower_bound,
)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize(
    "omega0, zeta", [(0.5, 1e-6), (2.0, 1e-5), (2.0, 1e-6), (5.0, 1e-4), (5.0, 1e-5), (5.0, 1e-6)]
)
def test_lightly_damped_droop_reads_optimal(omega0, zeta):
    cert = certify_optimality(droop_plant(omega0, zeta), droop_gain(omega0, zeta))
    assert cert.verdict == "optimal"


def _droop_mode(omega, zeta):
    """m(omega, zeta) = (1 + 2 zeta s/omega + s^2/omega^2) / s as a (num, den) entry."""
    return [1.0, 2.0 * zeta / omega, 1.0 / omega**2], [0.0, 1.0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_grid_norm_finds_a_narrow_peak():
    # Two droop modes; the one at omega = 2.37 peaks at 2.37 / (2 zeta) = 118500,
    # narrower than the grid's spacing there.
    zero = ([0.0], [1.0])
    M = [[_droop_mode(1.0, 1e-2), zero], [zero, _droop_mode(2.37, 1e-5)]]
    plant = RationalPlant(M, [[([1.0], [1.0])], [([1.0], [1.0])]])
    cert = certify_optimality(plant, Gain(np.zeros((1, 2))))
    assert cert.hinf_norm >= 118500.0 * (1.0 - 1e-6)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_sampled_bound_matches_its_closed_form():
    a = c = 1e-5
    b = 2.37
    plant = DescriptorPlant(np.eye(2), [[-a, b], [-b, -a]], [[c], [0.0]])
    exact = (a**2 + c**2 / 2 - c**4 / (16 * b**2)) ** -0.5  # 81649.6581
    assert lower_bound(plant.to_rational()).value == pytest.approx(exact, rel=1e-4)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_riccati_baseline_lands_between_bound_and_norm():
    alpha, beta, tau = 8.29010063503973, 0.571773219143611, 7.611014133234955
    params = {"alpha": [alpha] * 10, "beta": [beta] * 10, "tau": [tau] * 10}
    desc, _ = compile_irrigation(NetworkModel("irrigation", 10, [], params))
    cert = certify_optimality(desc.to_rational(), descriptor_gain(desc))
    gamma_star, _ = gamma_bisect(AreProblem.from_descriptor(desc))
    assert cert.lower_bound * (1 - 1e-6) <= gamma_star <= cert.hinf_norm * (1 + 1e-6)
