import dataclasses
import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, strategies as st

from torvdw import (
    axial_greens,
    axial_source,
    cartesian_to_toroidal,
    charge_interaction_energy,
    toroid_from_radii,
    vh_potential,
)
import torvdw.bem as bem_module
from torvdw.bem import (
    _CACHED_NODES,
    _ELLPK_PQ,
    _cephes_pq,
    _folded_kernels,
    _pair_tables,
    _ring_kernels,
    _ring_sum,
    bem_gh_reduced,
    bem_mixed_derivative,
    bem_vh,
    build_mesh,
    solve_induced_density,
    total_induced_charge,
)
from torvdw.dispersion import gh_mixed_derivative, particle_model, vdw_force
from torvdw.errors import (
    FarSourceWarning, MeshError, ResultOverflowError, SingularKernelError, SolverError,
)
from torvdw.units import K_E_EV_NM
from torvdw.validate import _exterior_points, check_bem_vs_series

from oracles import (
    MACHEP,
    cephes_pq,
    ellpk_reference,
    nystrom_blocks_k_prime_split,
    nystrom_blocks_reference,
    vh_reference,
)
from whole_range import assert_scaled_by_inverse_cube

EPS = np.finfo(float).eps
FLOATS_MAX = np.finfo(float).max
#: The smallest a/b with any axial repulsion (50-digit mpmath root of S0).
THRESHOLD_RATIO = 3.2047484385699470658


class TestMesh:
    def test_panels_lie_on_surface(self, geom53):
        mesh = build_mesh(geom53, 64)
        resid = np.abs((mesh.r - geom53.a) ** 2 + mesh.z**2 - geom53.b**2)
        assert np.all(resid <= 1e-12 * geom53.b**2)

    def test_total_arc_length(self, geom53):
        # the graded weights b t'(s_j) 2 pi / n sum to the meridian's length
        mesh = build_mesh(geom53, 64)
        assert np.sum(mesh.ds) == pytest.approx(2.0 * math.pi * geom53.b, rel=1e-12)

    def test_doubling_halves_arc(self, geom51, geom53):
        # a/b = 5 is ungraded (lambda = 1): every weight is 2 pi b / n
        assert build_mesh(geom51, 128).ds == pytest.approx(
            0.5 * build_mesh(geom51, 64).ds[0], rel=1e-15
        )
        assert np.sum(build_mesh(geom53, 128).ds) == pytest.approx(
            np.sum(build_mesh(geom53, 64).ds), rel=1e-14
        )

    def test_thin_hole_nodes_cluster_at_inner_equator(self):
        # lambda = sqrt(a/b - 1) = 0.1: weights 1/lambda^2 apart at the equators
        mesh = build_mesh(toroid_from_radii(1.01, 1.0), 64)
        inner, outer = mesh.ds[0], mesh.ds[32]
        assert mesh.r[0] < mesh.r[32]
        assert outer / inner == pytest.approx(100.0, rel=0.1)

    def test_eta_tiles_one_period(self, geom53):
        # panel edges map to strictly monotone eta covering a full turn
        geom = geom53
        n = 96
        psi_edges = -math.pi + np.arange(n + 1) * (2.0 * math.pi / n)
        r = geom.a + geom.b * np.cos(psi_edges)
        z = geom.b * np.sin(psi_edges)
        eta = np.arctan2(2.0 * geom.f * z, (r - geom.f) * (r + geom.f) + z * z)
        eta_unwrapped = np.unwrap(eta)
        assert np.all(np.diff(eta_unwrapped) > 0.0)
        assert eta_unwrapped[-1] - eta_unwrapped[0] == pytest.approx(
            2.0 * math.pi, rel=1e-12
        )

    def test_too_few_panels(self, geom53):
        with pytest.raises(MeshError):
            build_mesh(geom53, 8)
        # node counts are even: no node sits on z = 0
        with pytest.raises(MeshError, match="even"):
            build_mesh(geom53, 65)
        with pytest.raises(MeshError, match="even"):
            bem_mixed_derivative(2.0, 1.0, geom53, n_panels=65)
        # a count is an integer: 64.7 is not truncated to 64, nor "64" parsed
        for n in (64.7, "64"):
            with pytest.raises(TypeError):
                build_mesh(geom53, n)


#: Complementary parameters p = 1 - m: a log grid down to 1e-300, the
#: midrange and p = 1 itself, which an on-axis field point's p is.
ELLPK_GRID = np.array(sorted(set(np.geomspace(1e-300, 1.0, 4001).tolist()) | {0.5, 0.9}))


def cephes_k(x):
    """K(1 - x) = P(x) - Q(x) ln x by bem's _cephes_pq; inf at x = 0."""
    p, q = _cephes_pq(x)
    with np.errstate(divide="ignore"):
        return p - q * np.log(x)


class TestEllpk:
    """K from Cephes' ellpk fit on [0, 1], P and Q by bem's _cephes_pq."""

    def test_within_an_ulp_of_scipy(self):
        want = scipy.special.ellipkm1(ELLPK_GRID)
        assert np.all(np.abs(cephes_k(ELLPK_GRID) - want) <= np.spacing(want))
        # K(1 - m) of the Kress split, which scipy computes as ellipk(p)
        p = ELLPK_GRID[ELLPK_GRID < 1.0]
        want = scipy.special.ellipk(p)
        assert np.all(np.abs(cephes_k(1.0 - p) - want) <= np.spacing(want))

    def test_within_4_eps_of_mpmath(self):
        # K(1 - p) at 30 digits, plus the digits that 1 - p itself needs
        def eps_error(p):
            with mpmath.workdps(30 + max(0, -math.floor(math.log10(p)))):
                ref = mpmath.ellipk(1 - mpmath.mpf(p))
                return float(abs(mpmath.mpf(float(cephes_k(p))) - ref) / ref) / EPS

        assert max(eps_error(p) for p in ELLPK_GRID[::8]) <= 4.0

    def test_ends(self):
        assert cephes_k(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert cephes_k(np.array([0.0]))[0] == math.inf
        # floats in, floats out
        assert all(type(c) is float for c in _cephes_pq(0.5))


def one_ring_potential(r, z, r0, z0, charge):
    """Potential (V) at (r, z) of one charged ring of radius r0 at height z0,
    by bem's ring sum over one ring; the field radius enters as |r|."""
    return K_E_EV_NM * float(_ring_sum(r, z, np.array([r0]), np.array([z0]), np.array([charge])))


class TestRingPotential:
    def test_on_axis_reduction(self):
        for z in [0.0, 1.0, -3.0]:
            v = one_ring_potential(0.0, z, 2.0, 0.5, 1.0)
            assert v == pytest.approx(
                K_E_EV_NM / math.hypot(2.0, z - 0.5), rel=1e-14
            )

    def test_far_field_monopole(self):
        r0 = 1.0
        d = 100.0 * r0
        v = one_ring_potential(d / math.sqrt(2.0), d / math.sqrt(2.0), r0, 0.0, 1.0)
        assert v == pytest.approx(K_E_EV_NM / d, rel=1e-4)

    def test_mirror_symmetry(self):
        v1 = one_ring_potential(1.5, 2.0, 2.0, 0.5, 1.0)
        v2 = one_ring_potential(1.5, -1.0, 2.0, 0.5, 1.0)
        assert v1 == pytest.approx(v2, rel=1e-15)

    def test_on_ring_rejected(self):
        with pytest.raises(SingularKernelError):
            one_ring_potential(2.0, 0.5, 2.0, 0.5, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_distance_past_the_float_range(self):
        # the distance, 2.4e308, overflows; the potential K_E / distance does not
        d_half = math.hypot(0.85e308, 0.85e308)
        v = one_ring_potential(1.7e308, 1.7e308, 1.0, 0.0, 1.0)
        assert v == pytest.approx(K_E_EV_NM / 2.0 / d_half, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_even_in_r(self):
        with pytest.raises(SingularKernelError):
            one_ring_potential(-1.0, 0.0, 1.0, 0.0, 1.0)  # the ring's mirror point
        for r, z in [(1.5, 2.0), (0.3, -1.0), (7.0, 0.5), (5e-324, 0.0)]:
            assert (one_ring_potential(-r, z, 2.0, 0.5, 1.3)
                    == one_ring_potential(r, z, 2.0, 0.5, 1.3))


class TestSolve:
    def test_induced_charge_negative(self, geom53):
        sol = solve_induced_density(build_mesh(geom53, 128), axial_source(1.0, geom53))
        assert total_induced_charge(sol) < 0.0

    def test_density_symmetric_for_source_at_origin(self, geom53):
        mesh = build_mesh(geom53, 128)
        sol = solve_induced_density(mesh, axial_source(0.0, geom53))
        # panels at +-psi are mirror images through z = 0
        np.testing.assert_allclose(sol.sigma, sol.sigma[::-1], rtol=1e-10)

    def test_collocation_residual(self, geom53):
        sol = solve_induced_density(build_mesh(geom53, 128), axial_source(1.0, geom53))
        assert sol.residual <= 1e-8

    def test_boundary_condition_at_panels(self, geom53):
        # A sigma = -V_src is the grounded condition at collocation points
        mesh = build_mesh(geom53, 128)
        src = axial_source(1.0, geom53)
        sol = solve_induced_density(mesh, src)
        vh = mesh.collocation_matrix() @ sol.sigma
        coulomb = src.charge / np.hypot(mesh.r, mesh.z - src.z_src)
        np.testing.assert_allclose(vh, -coulomb, rtol=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [1.0, 0.125, 2.0**-10])
    @pytest.mark.parametrize("charge", [0.0, 1e-320, 2.3e-308, 1.0, 1e300, 1e308])
    def test_every_finite_charge(self, b, charge):
        # solved, and the ring charges kept, for a unit charge, with the
        # charge a factor of sigma and of the sums: a zero or subnormal
        # charge has the unit solve's residual and eps0 V_H / q, and a huge
        # one overflows neither the right-hand side (nodes within 1 nm of the
        # source at b = 1/8) nor the field sum; a density beyond the float
        # range (1e308 e on b = 2^-10 nm) is a typed error
        geom = toroid_from_radii(5.0 * b, b)
        mesh, src = build_mesh(geom, 64), axial_source(b, geom, charge)
        if charge == 1e308 and b < 0.125:
            with pytest.raises(ResultOverflowError, match="float64 range"):
                solve_induced_density(mesh, src)
            return
        sol = solve_induced_density(mesh, src)
        unit = solve_induced_density(mesh, axial_source(b, geom))
        value = bem_vh(3.0, 2.0, sol)
        point = cartesian_to_toroidal(3.0, 0.0, 2.0, geom.f)
        series = vh_potential(point, src, axial_greens(geom))
        assert math.isfinite(value) and math.isfinite(total_induced_charge(sol))
        if abs(series) >= np.finfo(float).tiny:
            assert value == pytest.approx(series, rel=1e-10)
        assert sol.residual == unit.residual and sol.charges.tobytes() == unit.charges.tobytes()
        if not charge:  # eps0 V_H / q needs a charge to divide by
            with pytest.raises(ValueError, match="nonzero"):
                bem_gh_reduced(2.0, sol)
        else:
            assert bem_gh_reduced(2.0, sol) == bem_gh_reduced(2.0, unit)


NAN, INF = math.nan, math.inf


class TestFieldPoints:
    @pytest.fixture(scope="class")
    def sol(self, geom51):
        return solve_induced_density(build_mesh(geom51, 64), axial_source(1.0, geom51))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda sol, g: bem_vh(NAN, 0.0, sol),
        lambda sol, g: bem_vh(0.0, NAN, sol),
        lambda sol, g: bem_vh(INF, 0.0, sol),
        lambda sol, g: bem_vh(0.0, INF, sol),
        lambda sol, g: bem_vh(np.array([1.0, NAN]), np.array([0.0, 2.0]), sol),
        lambda sol, g: bem_gh_reduced(NAN, sol),
        lambda sol, g: bem_gh_reduced(-INF, sol),
        lambda sol, g: bem_mixed_derivative(NAN, 1.0, g, 64),
        lambda sol, g: bem_mixed_derivative(INF, 1.0, g, 64),
        lambda sol, g: bem_mixed_derivative(1.0, NAN, g, 64),
        lambda sol, g: bem_mixed_derivative(1.0, -INF, g, 64),
    ], ids=["vh-r-nan", "vh-z-nan", "vh-r-inf", "vh-z-inf", "vh-array-nan",
            "gh-nan", "gh-inf", "mixed-z-nan", "mixed-z-inf", "mixed-zp-nan",
            "mixed-zp-inf"])
    def test_non_finite_input_raises_value_error(self, sol, geom51, call):
        with pytest.raises(ValueError, match="finite"):
            call(sol, geom51)

    def test_array_call_equals_scalar_calls(self, sol):
        r = np.array([[0.0, 2.0, 7.5], [1.0, 9.0, 0.3]])
        z = np.array([[3.0, -4.0, 0.0], [-2.5, 1.0, 6.0]])
        values = bem_vh(r, z, sol)
        assert values.shape == r.shape
        scalars = [bem_vh(ri, zi, sol) for ri, zi in zip(r.flat, z.flat)]
        assert all(isinstance(v, float) for v in scalars)
        assert np.array_equal(values.ravel(), scalars)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r, z", [(1e200, 0.0), (0.0, 1e200),
                                      (1.7e308, 1.7e308), (0.0, -1.7e308)])
    def test_far_point_is_monopole_without_overflow(self, sol, r, z):
        # the moduli come from coordinates in units of a power of two above
        # the point's, so nothing overflows, even where the distance does;
        # past 1e308 the potential is subnormal
        v = bem_vh(r, z, sol)
        distance_half = math.hypot(r / 2.0, z / 2.0)
        assert v == pytest.approx(
            K_E_EV_NM * total_induced_charge(sol) / 2.0 / distance_half, rel=1e-12)

    @given(r=st.floats(min_value=-FLOATS_MAX, max_value=FLOATS_MAX),
           z=st.floats(min_value=-FLOATS_MAX, max_value=FLOATS_MAX))
    @example(r=FLOATS_MAX, z=-FLOATS_MAX)
    @example(r=-FLOATS_MAX, z=FLOATS_MAX)
    @example(r=5e-324, z=5e-324)
    def test_whole_range_finite_or_typed_error(self, sol, r, z):
        # a point within about 1e-162 of a ring, where p underflows to 0,
        # is reported as lying on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = bem_vh(r, z, sol)
            except SingularKernelError:
                return
        assert isinstance(value, float) and math.isfinite(value)

    def test_point_on_panel_ring_in_array_rejected(self, sol):
        mesh = sol.mesh
        with pytest.raises(SingularKernelError):
            bem_vh(np.array([0.0, mesh.r[3]]), np.array([1.0, mesh.z[3]]), sol)

    @pytest.mark.filterwarnings("error")
    def test_mirror_of_a_node_ring_rejected(self, sol):
        mesh = sol.mesh
        with pytest.raises(SingularKernelError):
            bem_vh(-mesh.r[3], mesh.z[3], sol)
        with pytest.raises(SingularKernelError):
            bem_vh(np.array([1.0, -mesh.r[3]]), np.array([9.0, mesh.z[3]]), sol)

    def test_even_in_r(self, sol):
        r = np.array([[0.0, 2.0, 7.5], [1.0, 9.0, 0.3]])
        z = np.array([[3.0, -4.0, 0.0], [-2.5, 1.0, 6.0]])
        assert bem_vh(-r, z, sol).tobytes() == bem_vh(r, z, sol).tobytes()
        for ri, zi in zip(r.flat, z.flat):
            assert bem_vh(-ri, zi, sol) == bem_vh(ri, zi, sol)


def scaled_vh(lam):
    """lam bem_vh on the toroid a = 5 lam, b = lam with its source at 1.3 lam,
    at the exterior points (r, z) lam of test_even_in_r, with an axis point
    and a far one: by one array call, and by one scalar call per point."""
    r = lam * np.array([0.0, 2.0, 7.5, 1.0, 9.0, 0.3, 0.0, 3e5])
    z = lam * np.array([3.0, -4.0, 0.0, -2.5, 1.0, 6.0, -40.0, 2e5])
    geom = toroid_from_radii(5.0 * lam, lam)
    sol = solve_induced_density(build_mesh(geom, 64), axial_source(1.3 * lam, geom))
    return lam * bem_vh(r, z, sol), lam * np.array([bem_vh(a, b, sol) for a, b in zip(r, z)])


class TestFieldScaleLaw:
    """V_H has dimension 1/length: scaling the toroid, the source and the
    points by lam scales bem_vh by 1 / lam."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [2.0**-400, 2.0**400])
    def test_powers_of_two_bit_for_bit(self, lam):
        for got, want in zip(scaled_vh(lam), scaled_vh(1.0)):
            assert got.tobytes() == want.tobytes()

    @given(log_lam=st.floats(min_value=math.log(1e-150), max_value=math.log(1e150)))
    def test_within_8_eps_over_the_float_range(self, log_lam):
        want, _ = scaled_vh(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in scaled_vh(math.exp(log_lam)):
                assert np.all(np.abs(got - want) <= 8.0 * EPS * np.abs(want))


def _dense_matrix(mesh):
    """The full Nyström matrix assembled entry by entry, as a reference:
    the moduli from plain squares, Kress's weights summed term by term,
    the log coefficient Cephes' Q(p) and K(m) from scipy."""
    n, r, z = mesh.n_panels, mesh.r, mesh.z
    bt = mesh.ds * n / (2.0 * math.pi)  # b t'(s_j)
    diff = 2.0 * math.pi * np.subtract.outer(np.arange(n), np.arange(n)) / n
    kress = -(4.0 * math.pi / n) * sum(np.cos(k * diff) / k for k in range(1, (n + 1) // 2))
    if n % 2 == 0:
        kress -= (math.pi / (n // 2) ** 2) * np.cos(n // 2 * diff)
    rmax2 = (r[:, None] + r) ** 2 + (z[:, None] - z) ** 2
    chord2 = (r[:, None] - r) ** 2 + (z[:, None] - z) ** 2
    pref = 4.0 * r * bt / np.sqrt(rmax2)
    k1 = -pref * np.polyval([q for _, q in _ELLPK_PQ], chord2 / rmax2)
    with np.errstate(divide="ignore", invalid="ignore"):
        k2 = pref * scipy.special.ellipkm1(chord2 / rmax2) - k1 * np.log(
            4.0 * np.sin(diff / 2.0) ** 2)
    np.fill_diagonal(k2, 2.0 * bt * np.log(8.0 * r / bt))
    return kress * k1 + (2.0 * math.pi / n) * k2


MIRROR_PANELS = [64, 66, 128, 130]
#: The benchmark's fixed oracle panel, (a/b, b, z'/b, z/b of the mixed
#: derivative at z = z').
ORACLE_PANEL = [(2.0, 1.0, 0.5, 1.0), (5.0, 1.0, -1.0, 0.5), (12.0, 0.8, 1.5, 2.0)]


class TestMirrorBlocks:
    @pytest.mark.parametrize("n", MIRROR_PANELS)
    def test_mesh_is_bitwise_mirror_symmetric(self, geom53, n):
        mesh = build_mesh(geom53, n)
        assert np.array_equal(mesh.r[::-1], mesh.r)
        assert np.array_equal(mesh.ds[::-1], mesh.ds)
        assert np.array_equal(mesh.z[::-1], -mesh.z)
        assert np.all(mesh.z[: n // 2] < 0.0)

    @pytest.mark.parametrize("n", MIRROR_PANELS)
    def test_collocation_matrix_matches_dense_assembly(self, geom53, n):
        mesh = build_mesh(geom53, n)
        dense = _dense_matrix(mesh)
        np.testing.assert_allclose(mesh.collocation_matrix(), dense, rtol=1e-13)

    @pytest.mark.parametrize("n", MIRROR_PANELS)
    @pytest.mark.parametrize("where", ["origin", "above", "below", "far"])
    def test_sigma_matches_dense_solve(self, geom53, n, where):
        z_src = {"origin": 0.0, "above": 1.3 * geom53.b, "below": -1.3 * geom53.b,
                 "far": 10.0 * geom53.a}[where]
        mesh = build_mesh(geom53, n)
        src = axial_source(z_src, geom53)
        rhs = -src.charge / np.hypot(mesh.r, mesh.z - src.z_src)
        dense = np.linalg.solve(_dense_matrix(mesh), rhs)
        sol = solve_induced_density(mesh, src)
        np.testing.assert_allclose(sol.sigma, dense, rtol=1e-10)

    @pytest.mark.parametrize("n", MIRROR_PANELS)
    def test_half_the_kernel_evaluations(self, geom53, monkeypatch, n):
        evals = []

        def counting(*args):
            evals.append(np.broadcast(*args).size)
            return _ring_kernels(*args)

        monkeypatch.setattr(bem_module, "_ring_kernels", counting)
        mesh = build_mesh(geom53, n)
        assembly = sum(evals)
        solve_induced_density(mesh, axial_source(1.0, geom53))
        mesh.collocation_matrix()
        # build_mesh evaluates the strict upper triangles of the lower
        # half's same-side and mirror kernels and the mirror kernel's
        # diagonal, k^2 pairs, a quarter of n^2; the solve and the dense
        # matrix evaluate none
        k = n // 2
        assert assembly == k * k
        assert sum(evals) - assembly == 0

    @pytest.mark.parametrize("n", [64, 66])
    def test_solver_error_carries_full_condition_number(self, geom53, monkeypatch, n):
        monkeypatch.setattr(bem_module, "RESIDUAL_LIMIT", 0.0)
        mesh = build_mesh(geom53, n)
        with pytest.raises(SolverError) as info:
            solve_induced_density(mesh, axial_source(1.0, geom53))
        assert info.value.condition == pytest.approx(
            np.linalg.cond(mesh.collocation_matrix()), rel=1e-8
        )

    @pytest.mark.parametrize("n", MIRROR_PANELS)
    def test_kernels_are_symmetric(self, geom53, n):
        # the even and odd kernels, folded before the column weights, are
        # bitwise symmetric; the blocks are them column-weighted, in units
        # of the power of two L > max r
        mesh = build_mesh(geom53, n)
        h = n // 2
        scale = 2.0 ** -math.frexp(mesh.r.max())[1]
        r, z = scale * mesh.r[:h], scale * mesh.z[:h]
        folded = _folded_kernels(r, z, _pair_tables(n))
        off = ~np.eye(h, dtype=bool)
        for kernel in folded:
            assert np.array_equal(kernel, kernel.T)
        w = 4.0 * scale * mesh.r[:h] * mesh.ds[:h]
        for block, kernel in zip(mesh.blocks, folded):
            np.testing.assert_array_equal(block[off], (kernel * w)[off])

    def test_assembly_peak_within_three_blocks(self, geom53):
        # the kernel pass works in pieces: with the pair tables warm, nothing
        # it allocates comes near the size of the blocks it returns
        build_mesh(geom53, 400)
        tracemalloc.start()
        try:
            mesh = build_mesh(geom53, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sum(block.nbytes for block in mesh.blocks)

    def test_nan_residual_fails_the_gate(self, geom53, monkeypatch):
        monkeypatch.setattr(bem_module.BemMesh, "lu",
                            lambda self, parts: np.full_like(parts, NAN))
        with pytest.raises(SolverError):
            solve_induced_density(build_mesh(geom53, 64), axial_source(1.0, geom53))


class TestPinnedToReference:
    """The kernel pass (per-node-count tables, pieces, squares in units of
    L) and the field-point ring sums (the same kernel, in units of L per
    point) do the references' arithmetic on every entry, so the blocks, P
    and Q, K and the ring sums are bitwise those of tests/oracles.py."""

    @pytest.mark.parametrize("ratio", [1.01, 1.5, 5.0, 20.0])
    # 182 and 184 nodes: 4,095 and 4,186 pairs, one short of a run and past it
    @pytest.mark.parametrize("n", [64, 66, 100, 182, 184, 400])
    def test_blocks_bitwise(self, ratio, n):
        mesh = build_mesh(toroid_from_radii(2.0 * ratio, 2.0), n)
        for got, want in zip(mesh.blocks, nystrom_blocks_reference(mesh)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_uncached_tables_bitwise_and_bounded(self, geom53):
        tables = _pair_tables.cache_info()
        assert 2 <= tables.maxsize <= 4
        held = sum(t.nbytes for t in _pair_tables.__wrapped__(_CACHED_NODES))
        assert tables.maxsize * held < 6e6
        mesh = build_mesh(geom53, _CACHED_NODES + 2)
        for got, want in zip(mesh.blocks, nystrom_blocks_reference(mesh)):
            assert got.tobytes() == want.tobytes()
        after = _pair_tables.cache_info()
        assert (after.hits, after.misses) == (tables.hits, tables.misses)

    def test_ellpk_bitwise(self):
        grid = np.concatenate([
            [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-200, 1e-17,
             0.5 * MACHEP, MACHEP, np.nextafter(MACHEP, 1.0), 0.5, 1.0],
            np.geomspace(5e-324, MACHEP, 300),  # Cephes' leading-terms branch
            np.geomspace(1e-300, 1.0, 301)])
        for x in (grid, grid.reshape(-1, 2), np.append(grid, NAN)):
            for got, want in zip(_cephes_pq(x), cephes_pq(x)):
                assert got.tobytes() == want.tobytes()
        assert [_cephes_pq(x) for x in grid.tolist()] == [cephes_pq(x) for x in grid.tolist()]
        # below 2^-53 P and Q round to their constant terms, so K needs no
        # branch of its own there
        assert cephes_k(grid).tobytes() == ellpk_reference(grid).tobytes()

    @pytest.mark.parametrize("ratio", [1.01, 1.5, 5.0, 20.0])
    @pytest.mark.parametrize("n", [64, 66, 100, 400])
    def test_field_path_bitwise(self, ratio, n):
        # the ring sums read the solution's ring charges and do the
        # reference's arithmetic on every entry, the axis points (p = 1)
        # included
        geom = toroid_from_radii(2.0 * ratio, 2.0)
        src = axial_source(0.3 * geom.a, geom)
        sol = solve_induced_density(build_mesh(geom, n), src)
        rng = np.random.default_rng(n + int(100 * ratio))
        r = rng.uniform(0.0, 3.0 * geom.a, 400)
        z = rng.uniform(-3.0 * geom.a, 3.0 * geom.a, 400)
        keep = np.hypot(r - geom.a, z) > 1.05 * geom.b
        r, z = r[keep][:100], z[keep][:100]
        assert len(r) == 100
        r[::10] = 0.0
        want = K_E_EV_NM * vh_reference(r, z, sol)
        assert bem_vh(r, z, sol).tobytes() == want.tobytes()
        assert bem_vh(r.reshape(10, 10), z.reshape(10, 10), sol).tobytes() == want.tobytes()
        assert np.array([bem_vh(a, b, sol) for a, b in zip(r, z)]).tobytes() == want.tobytes()
        gh = vh_reference(0.0, z, sol) / (4.0 * math.pi * src.charge)
        assert np.array([bem_gh_reduced(b, sol) for b in z]).tobytes() == gh.tobytes()
        charge = np.sum(sol.sigma * 2.0 * math.pi * sol.mesh.r * sol.mesh.ds)
        assert total_induced_charge(sol) == charge

    def test_ring_charges_read_only_and_one_cache(self, geom53):
        # the field sums keep only the ring charges on the solution, built
        # once per solve; no cache outlives it
        sol = solve_induced_density(build_mesh(geom53, 64), axial_source(1.0, geom53))
        mesh = sol.mesh
        want = sol.sigma * 2.0 * math.pi * mesh.r * mesh.ds
        assert sol.charges.shape == (64,) and sol.charges.tobytes() == want.tobytes()
        for entry in (sol.sigma, sol.charges):
            with pytest.raises(ValueError, match="read-only"):
                entry[0] = 0.0
        cached = [name for name, obj in vars(bem_module).items() if hasattr(obj, "cache_info")]
        assert cached == ["_pair_tables"]


class TestAgainstSeries:
    def test_vh_agreement_and_order(self):
        # spectral: at the rounding floor at both 64 and 128 nodes
        result = check_bem_vs_series()
        assert result.passed, result.detail
        assert result.threshold == 1e-10
        assert result.value <= 1e-10

    def test_series_evaluated_once_per_probe(self):
        calls = []

        def counting(fields, src, g):
            calls.append(len(fields))
            return vh_potential(fields, src, g)

        assert check_bem_vs_series(series_evaluator=counting).passed
        assert calls == [20] * 3  # one array call per geometry, not per panel count

    def test_known_point_a5_b1(self, geom51, greens51):
        # source at the origin, field on the axis at 2 nm
        src = axial_source(0.0, geom51)
        sol = solve_induced_density(build_mesh(geom51, 400), src)
        v_bem = bem_vh(0.0, 2.0, sol)
        c = cartesian_to_toroidal(0.0, 0.0, 2.0, geom51.f)
        v_series = vh_potential(c, src, greens51)
        assert v_bem == pytest.approx(v_series, rel=1e-10)

    def test_charge_energy_a5_b2(self):
        # interaction energy of the charge with its own induced charge
        geom = toroid_from_radii(5.0, 2.0)
        g = axial_greens(geom)
        src = axial_source(3.0, geom)
        sol = solve_induced_density(build_mesh(geom, 400), src)
        u_bem = src.charge * bem_vh(0.0, src.z_src, sol)
        assert u_bem == pytest.approx(
            charge_interaction_energy(3.0, g), rel=1e-10
        )

    @pytest.mark.parametrize("ratio, n", [
        (1.01, 512), (1.1, 128), (1.5, 128), (5.0, 128), (20.0, 128)])
    def test_graded_oracle_against_series(self, ratio, n):
        # V_H at exterior probes (source at f/2) and the mixed derivative at
        # z = z' in [0.1 f, 3 f]; the graded nodes keep thin holes spectral
        geom = toroid_from_radii(ratio, 1.0)
        g = axial_greens(geom)
        src = axial_source(0.5 * geom.f, geom)
        pts = _exterior_points(geom, np.random.default_rng(3), 20)
        refs = [vh_potential(cartesian_to_toroidal(r, 0.0, z, geom.f), src, g)
                for r, z in pts]
        r, z = np.array(pts).T
        sol = solve_induced_density(build_mesh(geom, n), src)
        np.testing.assert_allclose(bem_vh(r, z, sol), refs, rtol=1e-10)
        heights = np.linspace(0.1, 3.0, 6) * geom.f
        np.testing.assert_allclose(
            bem_mixed_derivative(heights, heights, geom, n),
            [gh_mixed_derivative(h, h, g) for h in heights], rtol=1e-10)

    @pytest.mark.parametrize("ratio", [1.1, 1.5, 5.0, 20.0])
    def test_both_log_splits_agree(self, ratio):
        # Q(p) and K(1 - m) / pi are both log coefficients of K(m): the two
        # Nyström rules differ at the quadrature error, which at 256 nodes is
        # below rounding
        geom = toroid_from_radii(ratio, 1.0)
        src = axial_source(0.5 * geom.f, geom)
        mesh = build_mesh(geom, 256)
        other = dataclasses.replace(mesh, blocks=nystrom_blocks_k_prime_split(mesh))
        r, z = np.array(_exterior_points(geom, np.random.default_rng(5), 20)).T
        np.testing.assert_allclose(bem_vh(r, z, solve_induced_density(mesh, src)),
                                   bem_vh(r, z, solve_induced_density(other, src)),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("ratio, b, src_b, mixed_b", ORACLE_PANEL)
    def test_benchmark_oracle_panel(self, ratio, b, src_b, mixed_b):
        # the shapes behind the benchmark's oracle_rel_err: V_H at 100 nodes
        # and the mixed derivative at 400 stay at the rounding floor
        geom = toroid_from_radii(ratio * b, b)
        g = axial_greens(geom)
        src = axial_source(src_b * b, geom)
        pts = _exterior_points(geom, np.random.default_rng(11), 20)
        refs = vh_potential([cartesian_to_toroidal(r, 0.0, z, geom.f) for r, z in pts], src, g)
        r, z = np.array(pts).T
        sol = solve_induced_density(build_mesh(geom, 100), src)
        np.testing.assert_allclose(bem_vh(r, z, sol), refs, rtol=3e-14, atol=0.0)
        height = mixed_b * b
        assert bem_mixed_derivative(height, height, geom, 400) == pytest.approx(
            gh_mixed_derivative(height, height, g), rel=3e-14, abs=0.0)

    def test_far_field_is_monopole_of_induced_charge(self, geom53):
        src = axial_source(0.5, geom53)
        sol = solve_induced_density(build_mesh(geom53, 256), src)
        d = 50.0 * geom53.a
        v = bem_vh(0.0, d, sol)
        assert v == pytest.approx(
            K_E_EV_NM * total_induced_charge(sol) / d, rel=1e-2
        )

    def test_mutation_detected(self, geom51):
        # a deliberately corrupted series (n = 0 term sign flipped) must
        # fail the oracle comparison
        def corrupted_vh(fields, src, g):
            return np.array([corrupted_point(field, src, g) for field in fields])

        def corrupted_point(field, src, g):
            n0 = g.table.ratio[0]
            import torvdw.greens as gr

            pref = -(K_E_EV_NM * src.charge / (math.pi * g.geometry.f)) * math.sqrt(
                gr._cosh_minus_cos(field.xi, field.eta)
                * gr._one_minus_cos_eta_src(src, g.geometry.f)
            )
            clean = vh_potential(field, src, g)
            # flip the n = 0 contribution: subtract it twice
            if field.xi > 0.0:
                from torvdw.specfun import legendre_p_half

                p0 = legendre_p_half(math.cosh(field.xi), 0)[0]
            else:
                p0 = 1.0
            return clean - 2.0 * pref * n0 * p0

        result = check_bem_vs_series(series_evaluator=corrupted_vh)
        assert not result.passed


class TestMixedDerivative:
    def test_symmetry(self, geom51):
        d1 = bem_mixed_derivative(2.0, 1.0, geom51, 400)
        d2 = bem_mixed_derivative(1.0, 2.0, geom51, 400)
        assert d1 == pytest.approx(d2, rel=1e-10)

    def test_agreement_with_analytic_series(self, geom51, greens51):
        exact = gh_mixed_derivative(2.0, 1.0, greens51)
        approx = bem_mixed_derivative(2.0, 1.0, geom51, 400)
        assert approx == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("a, b, z, z_prime", [
        (2.0, 1.0, 1.0, 1.0), (5.0, 1.0, 0.5, 0.5), (9.6, 0.8, 1.6, 1.6),
        (5.0, 1.0, 2.0, 1.0),
    ])
    def test_matches_stencil_on_same_mesh(self, a, b, z, z_prime):
        # reference: 4-point central differences of the solved potential;
        # at h = 1e-3 f their h^2 error is a few 1e-6 relative on these cases
        geom = toroid_from_radii(a, b)
        mesh = build_mesh(geom, 400)
        h = 1e-3 * geom.f

        def gh(dz, dz_prime):
            sol = solve_induced_density(mesh, axial_source(z_prime + dz_prime, geom))
            return bem_gh_reduced(z + dz, sol)

        stencil = (gh(h, h) - gh(h, -h) - gh(-h, h) + gh(-h, -h)) / (4.0 * h * h)
        assert bem_mixed_derivative(z, z_prime, geom, 400) == pytest.approx(
            stencil, rel=1e-5
        )

    def test_one_block_solve_pair(self, geom51, monkeypatch):
        block_solves, solves = [], []
        solve = np.linalg.solve

        def counting_block_solve(a, b):
            block_solves.append((a.shape, b.shape))
            return solve(a, b)

        def counting_solve(*args):
            solves.append(1)
            return solve_induced_density(*args)

        monkeypatch.setattr(bem_module.np.linalg, "solve", counting_block_solve)
        monkeypatch.setattr(bem_module, "solve_induced_density", counting_solve)
        bem_mixed_derivative(2.0, 1.0, geom51, 400)
        assert block_solves == [((2, 200, 200), (2, 200, 1))]
        # ten heights: still one solve over the block stack, with a column
        # per height
        block_solves.clear()
        heights = np.linspace(0.0, 4.5, 10)
        bem_mixed_derivative(heights, heights, geom51, 400)
        assert block_solves == [((2, 200, 200), (2, 200, 10))]
        assert not solves

    @pytest.mark.parametrize("n", [64, 66])
    def test_solver_error_carries_condition_number(self, geom51, monkeypatch, n):
        monkeypatch.setattr(bem_module, "RESIDUAL_LIMIT", 0.0)
        with pytest.raises(SolverError) as info:
            bem_mixed_derivative(2.0, 1.0, geom51, n)
        assert info.value.condition == pytest.approx(
            np.linalg.cond(build_mesh(geom51, n).collocation_matrix()), rel=1e-8
        )

    @pytest.mark.parametrize("n", [64, 66, 400])
    def test_array_call_equals_scalar_calls(self, geom51, n):
        z = np.array([[0.0, 0.5, 2.0], [4.5, -1.0, 3.0]])
        z_prime = np.array([[0.0, 0.5, 1.0], [4.5, 2.0, -3.0]])
        values = bem_mixed_derivative(z, z_prime, geom51, n)
        assert values.shape == z.shape
        scalars = [bem_mixed_derivative(a, b, geom51, n) for a, b in zip(z.flat, z_prime.flat)]
        assert all(isinstance(v, float) for v in scalars)
        np.testing.assert_allclose(values.ravel(), scalars, rtol=1e-14, atol=0.0)
        # a scalar height broadcasts against an array
        assert np.array_equal(bem_mixed_derivative(z, 1.0, geom51, n),
                              bem_mixed_derivative(z, np.ones_like(z), geom51, n))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input_gives_empty_array(self, geom51, shape):
        # as bem_vh and the series do: no heights, no columns, no error
        out = bem_mixed_derivative(np.zeros(shape), np.zeros(shape), geom51, 64)
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert bem_mixed_derivative(np.zeros(shape), 1.0, geom51, 64).shape == shape

    def test_far_sources_warn_once_per_call(self, geom51):
        # one FarSourceWarning for the whole call, at the caller's line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bem_mixed_derivative(0.5, [1e7, 2e7], geom51, 64)
        assert [w.category for w in caught] == [FarSourceWarning]
        assert caught[0].filename == __file__

    def test_oracle_confirms_repulsion_threshold(self):
        # Near z_p = 0 the axial force has the sign of -(D(h) - D(0)), with
        # D(z) the mixed derivative at z = z'.  Just below a/b* the force
        # pulls back to the centre, just above it repels.  The oracle, the
        # series and vdw_force must agree on both signs.
        h = 0.05
        for factor, sign in ((0.99, 1.0), (1.01, -1.0)):
            geom = toroid_from_radii(THRESHOLD_RATIO * factor, 1.0)
            g = axial_greens(geom)
            d = bem_mixed_derivative(np.array([h, 0.0]), np.array([h, 0.0]), geom, 128)
            series = gh_mixed_derivative(h, h, g) - gh_mixed_derivative(0.0, 0.0, g)
            force = vdw_force(h, particle_model(1.0), g)
            assert np.sign(d[0] - d[1]) == np.sign(series) == -np.sign(force) == sign
            assert d[0] - d[1] == pytest.approx(series, rel=1e-8)

    @pytest.mark.parametrize("ratio", [20.0, 100.0])
    def test_nanoring_side_matches_series(self, ratio):
        geom = toroid_from_radii(ratio, 1.0)
        g = axial_greens(geom)
        heights = np.array([0.25, 0.5, 1.0]) * geom.a
        np.testing.assert_allclose(
            bem_mixed_derivative(heights, heights, geom, 64),
            [gh_mixed_derivative(z, z, g) for z in heights], rtol=1e-10)

    @given(log_lam=st.floats(min_value=-150.0, max_value=150.0),
           ratio=st.floats(min_value=1.5, max_value=50.0),
           z=st.floats(min_value=-5.0, max_value=5.0),
           z_prime=st.floats(min_value=-5.0, max_value=5.0))
    # the final quotient overflowed to -inf with a warning
    @example(log_lam=-110.0, ratio=3.0, z=0.5, z_prime=0.35)
    def test_scale_law_over_the_float_range(self, log_lam, ratio, z, z_prime):
        lam = 10.0**log_lam
        at_one = bem_mixed_derivative(z, z_prime, toroid_from_radii(ratio, 1.0), 64)
        geom = toroid_from_radii(ratio * lam, lam)
        assert_scaled_by_inverse_cube(
            lambda: bem_mixed_derivative(z * lam, z_prime * lam, geom, 64), at_one, lam, 1e-12)

    def test_gh_reduced_units(self, geom51):
        # eps0 V_H / q relates to the reduced potential by 1/(4 pi)
        src = axial_source(1.0, geom51)
        sol = solve_induced_density(build_mesh(geom51, 128), src)
        gh = bem_gh_reduced(2.0, sol)
        v = bem_vh(0.0, 2.0, sol)
        assert gh == pytest.approx(
            v / (K_E_EV_NM * src.charge) / (4.0 * math.pi), rel=1e-14
        )


def test_convergence_script_smoke(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "bem_convergence.py"
    spec = importlib.util.spec_from_file_location("bem_convergence", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.study(5.0, 2.0, panel_counts=(50, 100), repeats=2)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[1][-4:] == ["assembly_ms", "faults", "solve_ms", "field_us"]
    rows = [row for row in lines if row and row[0].isdigit()]
    assert [int(row[0]) for row in rows] == [50, 100]
    assert all(math.isfinite(float(row[1])) for row in rows)
    for row in rows:
        assembly, faults, *times = row[-4:]
        assert all(0.0 < float(t) < 1e6 for t in [assembly, *times])
        assert int(faults) >= 0  # minor page faults across the best build_mesh
