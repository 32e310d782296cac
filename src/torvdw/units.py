"""Unit system and physical constants.

All lengths are carried in nanometers, charges in units of the elementary
charge e, energies in electron-volts.  In this system the Coulomb constant

    K_E = e / (4 pi eps0)  =  1.4399645...  V nm  (equivalently eV nm / e^2)

is the only physical constant that enters; everything else is geometry.
Internally most routines work with the "reduced" potential V / (K_E q),
which has dimension 1/nm and makes the bare Coulomb term exactly 1/r.
"""

import math

# SI constants: e and c are exact by definition; eps0 is CODATA 2022.
ELEMENTARY_CHARGE_C = 1.602176634e-19
SPEED_OF_LIGHT_M_PER_S = 299792458.0
VACUUM_PERMITTIVITY_F_PER_M = 8.8541878188e-12

# e/(4 pi eps0) in V nm: potential of a unit charge at 1 nm.
K_E_EV_NM = ELEMENTARY_CHARGE_C / (4.0 * math.pi * VACUUM_PERMITTIVITY_F_PER_M) * 1e9

# Dipole-moment conversions to the native e nm scale.
_E_NM_IN_CM = ELEMENTARY_CHARGE_C * 1e-9          # one e nm, in C m
_DEBYE_IN_CM = 1e-21 / SPEED_OF_LIGHT_M_PER_S     # one debye, in C m

DEBYE2_TO_E2NM2 = (_DEBYE_IN_CM / _E_NM_IN_CM) ** 2
C2M2_TO_E2NM2 = 1.0 / _E_NM_IN_CM ** 2

#: Accepted unit tags for squared-dipole input and their conversion factors
#: to (e nm)^2.
D2Z_UNIT_FACTORS = {
    "e2nm2": 1.0,
    "debye2": DEBYE2_TO_E2NM2,
    "C2m2": C2M2_TO_E2NM2,
}


def d2z_to_e2nm2(value: float, unit: str = "e2nm2") -> float:
    """Convert a squared dipole fluctuation to (e nm)^2."""
    try:
        factor = D2Z_UNIT_FACTORS[unit]
    except KeyError:
        raise ValueError(
            f"unknown squared-dipole unit {unit!r}; "
            f"expected one of {sorted(D2Z_UNIT_FACTORS)}"
        ) from None
    return value * factor
