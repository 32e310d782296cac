import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, strategies as st

from oracles import legendre_p_quad, legendre_q_quad
from torvdw.errors import NearSingularArgumentError, OverflowHorizonError
from torvdw.greens import _table_size
from torvdw.specfun import (
    _e_complement,
    _k_comodulus,
    harmonic_table,
    legendre_p_half,
    toroidal_seeds,
)

EPS = np.finfo(float).eps

# Dense grids over both ends of the domain: the parameter m up to 1 - 1e-15,
# and the complementary parameter p = 1 - m down to 1e-300.
M_GRID = sorted(
    set(np.linspace(0.0, 1.0 - 1e-15, 201).tolist())
    | {1.0 - 10.0**-k for k in range(1, 16)}
    | {10.0**-k for k in range(1, 300, 13)}
)
P_GRID = sorted(set(np.geomspace(1e-300, 1.0, 241).tolist()) | {0.5, 0.9, 1.0})


def _eps_error(value, fn, m=None, p=None):
    """|value - fn| / fn in units of eps, fn at 50 digits in the parameter
    m, or in 1 - p with the extra digits that 1 - p itself needs."""
    digits = 50 if p is None else 50 + max(0, -math.floor(math.log10(p)))
    with mpmath.workdps(digits):
        ref = fn(mpmath.mpf(m) if p is None else 1 - mpmath.mpf(p))
        return float(abs(mpmath.mpf(value) - ref) / ref) / EPS


class TestEllipticIntegrals:
    # K(m) and E(m), in the parameter m, are _k_comodulus(sqrt(1 - m)) and
    # _e_complement(1 - m): the functions that seed the harmonic tables
    def test_k_at_zero(self):
        assert _k_comodulus(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_k_reference_value(self):
        # frozen from the AGM oracle
        assert _k_comodulus(math.sqrt(0.5)) == pytest.approx(1.854074677301372, rel=1e-14)

    def test_e_endpoints(self):
        assert _e_complement(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert _e_complement(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_e_reference_value(self):
        assert _e_complement(0.5) == pytest.approx(1.350643881047676, rel=1e-14)

    def test_agreement_with_scipy_oracle(self, rng):
        # scipy.special is a test-only oracle for the production AGM and
        # Carlson routines
        for m in rng.uniform(0.0, 0.999, size=60):
            assert _k_comodulus(math.sqrt(1.0 - m)) == pytest.approx(
                scipy.special.ellipk(m), rel=1e-14)
            assert _e_complement(1.0 - m) == pytest.approx(scipy.special.ellipe(m), rel=1e-14)
        for p in np.geomspace(1e-300, 1.0, 60):
            assert _k_comodulus(math.sqrt(p)) == pytest.approx(
                scipy.special.ellipkm1(p), rel=1e-14
            )

    def test_k_within_4_eps_of_mpmath(self):
        worst = max(_eps_error(_k_comodulus(math.sqrt(1.0 - m)), mpmath.ellipk, m=m)
                    for m in M_GRID)
        assert worst <= 4.0

    def test_k_complement_within_4_eps_of_mpmath(self):
        worst = max(_eps_error(_k_comodulus(math.sqrt(p)), mpmath.ellipk, p=p) for p in P_GRID)
        assert worst <= 4.0

    def test_e_within_4_eps_of_mpmath(self):
        worst = max(_eps_error(_e_complement(1.0 - m), mpmath.ellipe, m=m) for m in M_GRID)
        assert worst <= 4.0
        worst = max(_eps_error(_e_complement(p), mpmath.ellipe, p=p) for p in P_GRID)
        assert worst <= 4.0

    def test_complement_ends(self):
        assert _k_comodulus(0.0) == math.inf
        assert _k_comodulus(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert _e_complement(0.0) == 1.0
        # subnormal complementary parameters still end the AGM loop
        for p in (5e-324, 1e-310):
            assert _k_comodulus(math.sqrt(p)) == pytest.approx(
                float(mpmath.log(4 / mpmath.sqrt(mpmath.mpf(p)))), rel=1e-14
            )
            assert _e_complement(p) == 1.0


class TestSeeds:
    def test_seeds_match_quadrature(self, rng):
        for z in [1.0005, 1.1, 5.0 / 3.0, 2.5, 5.0, 42.0]:
            p_m, p_p, q_m = toroidal_seeds(z)
            assert p_m == pytest.approx(legendre_p_quad(-0.5, z), rel=1e-11)
            assert p_p == pytest.approx(legendre_p_quad(0.5, z), rel=1e-11)
            assert q_m == pytest.approx(legendre_q_quad(-0.5, z), rel=1e-11)

    def test_seeds_within_8_eps_of_mpmath_up_to_the_largest_float(self):
        # (z - 1)(z + 1) overflows above 1.34e154 and e^{-2 xi} underflows
        # above about 2e161; neither may reach the seeds
        for z in (1e155, 1e200, 1e300, 1.7e308):
            with mpmath.workdps(50):
                x = mpmath.mpf(z)
                refs = (mpmath.legenp(-0.5, 0, x, type=3),
                        mpmath.legenp(0.5, 0, x, type=3),
                        mpmath.re(mpmath.legenq(-0.5, 0, x, type=3)))
                for value, ref in zip(toroidal_seeds(z), refs):
                    assert float(abs((mpmath.mpf(value) - ref) / ref)) <= 8.0 * EPS
        p_m, p_p, q_m = toroidal_seeds(1e300)
        assert p_m == pytest.approx(3.118943168586346287e-148, rel=8.0 * EPS)
        assert p_p == pytest.approx(9.0031631615710606956e149, rel=8.0 * EPS)
        assert q_m == pytest.approx(2.2214414690791831235e-150, rel=8.0 * EPS)

    def test_largest_arguments_give_tables(self):
        table = harmonic_table(1e155, 0)
        assert table.p[0] == toroidal_seeds(1e155)[0]
        assert table.q[0] == pytest.approx(toroidal_seeds(1e155)[2], rel=2.0 * EPS)
        assert legendre_p_half(1e155, 0)[0] == toroidal_seeds(1e155)[0]
        assert legendre_p_half(1.7e308, 1).tolist() == list(toroidal_seeds(1.7e308)[:2])

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_rejected(self, z):
        with pytest.raises(ValueError, match="finite"):
            toroidal_seeds(z)
        for n_max in (0, 3):
            with pytest.raises(ValueError):
                harmonic_table(z, n_max)
            with pytest.raises(ValueError):
                legendre_p_half(z, n_max)

    @pytest.mark.parametrize("z", [1.0, 0.5, -3.0])
    def test_seeds_need_z_above_one(self, z):
        # at z = 1 Q_{-1/2} is infinite, below it the seeds are undefined
        with pytest.raises(ValueError, match="finite argument above 1"):
            toroidal_seeds(z)


class TestHarmonicTable:
    def test_p_equals_one_at_argument_one(self):
        # relaxed domain: the forward recurrence is exact at z = 1
        assert np.all(legendre_p_half(1.0, 60) == 1.0)

    def test_legendre_p_half_array_matches_scalar(self):
        zs = np.concatenate([[1.0, 1.0 + 1e-12, 1.3], 1.0 + np.geomspace(1e-9, 40.0, 57)])
        cols = legendre_p_half(zs, 60)
        assert cols.shape == (61, zs.size)
        for k, z in enumerate(zs):
            assert cols[:, k].tolist() == legendre_p_half(z, 60).tolist()
        assert legendre_p_half(zs[:0], 60).shape == (61, 0)
        assert legendre_p_half(5.0, 35).tolist() == harmonic_table(5.0, 35).p.tolist()

    @pytest.mark.parametrize("z_minus_1", [1e-6, 1e-3, 1e-2, 4.0, 1e3])
    def test_scalar_recurrence_matches_one_element_array(self, z_minus_1):
        # the scalar path runs on Python floats, the array path on numpy
        # rows: the same rows byte for byte, or the same horizon, which
        # 6000 rows reach from z - 1 = 1e-2 up
        outcomes = []
        for z in (1.0 + z_minus_1, np.array([1.0 + z_minus_1])):
            try:
                outcomes.append(legendre_p_half(z, 6000).reshape(-1).tobytes())
            except OverflowHorizonError as exc:
                outcomes.append(exc.max_safe_n)
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], int) == (z_minus_1 >= 1e-2)

    def test_legendre_p_half_array_overflow_matches_scalar(self):
        with pytest.raises(OverflowHorizonError) as scalar:
            legendre_p_half(100.0, 200)
        with pytest.raises(OverflowHorizonError) as array:
            legendre_p_half(np.array([1.5, 100.0, 3.0]), 200)
        assert array.value.max_safe_n == scalar.value.max_safe_n
        assert 0 < scalar.value.max_safe_n < 200
        with pytest.raises(ValueError):
            legendre_p_half(np.array([2.0, 0.5]), 10)

    @pytest.mark.parametrize("z, n_max", [(2.0, -1), (np.full((2, 2), 2.0), 3)])
    def test_legendre_p_half_bad_arguments_rejected(self, z, n_max):
        with pytest.raises(ValueError):
            legendre_p_half(z, n_max)

    def test_degree_not_an_integer_refused(self):
        # n_max = 3.7 is not truncated to 3
        for build in (harmonic_table, legendre_p_half):
            with pytest.raises(TypeError):
                build(2.0, 3.7)

    def test_near_singular_argument_rejected(self):
        with pytest.raises(NearSingularArgumentError):
            harmonic_table(1.0 + 1e-13, 10)

    def test_overflow_horizon_reported_and_usable(self):
        with pytest.raises(OverflowHorizonError) as exc:
            harmonic_table(100.0, 200)
        n_safe = exc.value.max_safe_n
        assert 0 < n_safe < 200
        table = harmonic_table(100.0, n_safe)
        assert np.all(np.isfinite(table.p))
        assert np.all(table.q > 0.0)

    def test_quadrature_oracle_three_halves(self):
        # the a = 5, b = 3 toroid argument
        table = harmonic_table(5.0 / 3.0, 20)
        for n in [0, 1, 2, 5, 10, 20]:
            nu = n - 0.5
            assert table.p[n] == pytest.approx(
                legendre_p_quad(nu, 5.0 / 3.0), rel=1e-10
            )
            assert table.q[n] == pytest.approx(
                legendre_q_quad(nu, 5.0 / 3.0), rel=1e-10
            )

    def test_quadrature_oracle_random_pairs(self, rng):
        # 50 random (z, n) pairs against adaptive quadrature
        for _ in range(50):
            z = math.exp(rng.uniform(math.log(1.001), math.log(50.0)))
            n = int(rng.integers(0, 30))
            table = harmonic_table(z, n)
            assert table.p[n] == pytest.approx(legendre_p_quad(n - 0.5, z), rel=1e-10)
            assert table.q[n] == pytest.approx(legendre_q_quad(n - 0.5, z), rel=1e-10)

    def test_ratio_decay_rate_z5(self):
        # ratio[n+1]/ratio[n] -> e^{-2 arccosh 5} = (5 - sqrt(24))^2
        table = harmonic_table(5.0, 24)
        limit = (5.0 - math.sqrt(24.0)) ** 2
        assert limit == pytest.approx(0.010205, rel=1e-4)
        rr = table.ratio[11:22] / table.ratio[10:21]
        fitted = rr.mean()
        assert fitted == pytest.approx(limit, rel=2e-2)
        # and the rate converges toward the limit as n grows
        assert abs(rr[-1] - limit) < abs(rr[0] - limit)

    def test_casoratian_gate(self, rng):
        # P_nu Q_{nu-1} - P_{nu-1} Q_nu = 1/nu, the recurrence's invariant
        for _ in range(50):
            z = math.exp(rng.uniform(math.log(1.0001), math.log(100.0)))
            n_max = int(rng.integers(1, min(60, int(500.0 / math.acosh(z)) + 1)))
            table = harmonic_table(z, n_max)
            n = np.arange(1, n_max + 1)
            caso = table.p[1:] * table.q[:-1] - table.p[:-1] * table.q[1:]
            np.testing.assert_allclose(caso, 1.0 / (n - 0.5), rtol=1e-10)

    def test_q_half_matches_closed_form(self):
        # Q_{1/2}(z) = z sqrt(2/(z+1)) K(2/(z+1)) - sqrt(2 (z+1)) E(2/(z+1))
        for z in [1.2, 5.0 / 3.0, 4.0, 20.0]:
            m = 2.0 / (z + 1.0)
            q_half = z * math.sqrt(m) * _k_comodulus(math.sqrt(1.0 - m)) - math.sqrt(
                2.0 * (z + 1.0)
            ) * _e_complement(1.0 - m)
            table = harmonic_table(z, 6)
            assert table.q[1] == pytest.approx(q_half, rel=1e-12)

    @pytest.mark.parametrize("z", [1.01, 5.0 / 3.0, 5.0, 1e8])
    def test_q_normalized_on_the_elliptic_seed(self, z):
        q0 = harmonic_table(z, _table_size(math.acosh(z), 1e-12, 2000)).q[0]
        seed = toroidal_seeds(z)[2]
        assert abs(q0 - seed) <= 2.0 * math.ulp(seed)

    def test_tables_are_immutable(self):
        table = harmonic_table(2.0, 10)
        for arr in (table.p, table.q, table.ratio):
            with pytest.raises(ValueError):
                arr[0] = 0.0


# z - 1 from near the thin-hole end to the nanoring end of the domain
REFEREE_OFFSETS = [1e-6, 1e-4, 1e-2, 0.1, 2.0 / 3.0, 4.0, 19.0, 1e3, 1e8]


@pytest.mark.parametrize("offset", REFEREE_OFFSETS)
def test_tables_against_50_digit_referee(offset):
    # rows 0, 1, n_max/2 and n_max of the table the series uses and of the
    # largest one the horizon allows; the recurrence error grows like n
    z = 1.0 + offset
    xi = math.acosh(z)
    for n_max in {min(2000, _table_size(xi, 1e-12, 2000)), min(2000, int(690.0 / (2.0 * xi)))}:
        table = harmonic_table(z, n_max)
        for n in {0, 1, n_max // 2, n_max}:
            with mpmath.workdps(50):
                nu = n - mpmath.mpf(1) / 2
                x = mpmath.mpf(z)
                refs = (mpmath.legenp(nu, 0, x, type=3),
                        mpmath.re(mpmath.legenq(nu, 0, x, type=3)))
                for value, ref in zip((table.p[n], table.q[n]), refs):
                    err = float(abs((mpmath.mpf(value) - ref) / ref))
                    assert err <= 32.0 * (n + 1) * EPS, (n_max, n, err)


@st.composite
def table_args(draw):
    z = draw(st.floats(min_value=1.0 + 1e-6, max_value=100.0))
    horizon = int(300.0 / math.acosh(z))
    n_max = draw(st.integers(min_value=2, max_value=min(200, horizon)))
    return z, n_max


@st.composite
def whole_range_args(draw):
    z = draw(st.floats(min_value=1.0 + 1e-6, max_value=1.7e308))
    n_max = draw(st.integers(min_value=0, max_value=min(200, int(345.0 / math.acosh(z)))))
    return z, n_max


class TestInvariantProperties:
    @given(whole_range_args())
    @example((2.4201282647943635e32, 4))  # Miller's rescaled Q once underflowed here
    def test_finite_positive_over_the_float_range(self, args):
        z, n_max = args
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = harmonic_table(z, n_max)
        for arr in (table.p, table.q, table.ratio):
            assert arr.shape == (n_max + 1,)
            assert np.all(np.isfinite(arr)) and np.all(arr > 0.0)

    @given(table_args())
    def test_monotonicity_and_positivity(self, args):
        z, n_max = args
        table = harmonic_table(z, n_max)
        assert np.all(table.p > 0.0)
        assert np.all(np.diff(table.p) > 0.0)
        assert np.all(table.q > 0.0)
        assert np.all(np.diff(table.q) < 0.0)
        assert np.all(np.diff(table.ratio) < 0.0)

    @given(table_args())
    def test_degree_recurrence_residual(self, args):
        z, n_max = args
        table = harmonic_table(z, n_max)
        n = np.arange(1, n_max)
        nu = n - 0.5
        for y in (table.p, table.q):
            resid = np.abs(
                (nu + 1.0) * y[2:] - (2.0 * nu + 1.0) * z * y[1:-1] + nu * y[:-2]
            )
            assert np.all(resid <= 1e-12 * (2.0 * nu + 1.0) * z * np.abs(y[1:-1]))

    @given(table_args())
    def test_ratio_decay_approaches_exp_minus_two_xi(self, args):
        z, n_max = args
        if n_max < 12:
            return
        table = harmonic_table(z, n_max)
        xi = math.acosh(z)
        target = math.exp(-2.0 * xi)
        rr = table.ratio[-1] / table.ratio[-2]
        assert 0.0 < rr < 1.0
        # the geometric limit sets in once n xi >> 1; below that the decay
        # is slower than e^{-2 xi} but still monotone
        if n_max * xi >= 8.0:
            assert rr == pytest.approx(target, rel=3.0 / (n_max * xi))
        else:
            assert rr >= target * 0.5
