import math

import pytest
import scipy.constants

from torvdw import units


@pytest.mark.parametrize(
    "literal, reference",
    [
        (units.ELEMENTARY_CHARGE_C, scipy.constants.e),
        (units.SPEED_OF_LIGHT_M_PER_S, scipy.constants.c),
        (units.VACUUM_PERMITTIVITY_F_PER_M, scipy.constants.epsilon_0),
    ],
    ids=["e", "c", "epsilon_0"],
)
def test_literals_match_scipy_constants(literal, reference):
    # scipy is a test-only reference here: the literals must stay within
    # one ulp of its CODATA values
    assert abs(literal - reference) <= math.ulp(reference)


def test_coulomb_constant_matches_scipy_constants():
    k_e = scipy.constants.e / (4.0 * math.pi * scipy.constants.epsilon_0) * 1e9
    assert abs(units.K_E_EV_NM - k_e) <= math.ulp(k_e)
    assert units.K_E_EV_NM == pytest.approx(1.4399645, rel=1e-7)
