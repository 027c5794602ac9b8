"""Monitors, blow-up rescaling, volume comparison, Harnack exponent."""

import numpy as np
import pytest

from confhess import conformal as cf
from confhess import diagnostics as dg
from confhess import radial_solver as rs
from confhess import symfun
from confhess.errors import DomainError


# ---------------------------------------------------------------------------
# cutoff and monitors
# ---------------------------------------------------------------------------

def test_cutoff_clamped():
    assert dg.cutoff(0.0, 1.0) == 1.0
    assert dg.cutoff(1.0, 1.0) == 0.0
    assert dg.cutoff(2.0, 1.0) == 0.0  # clamped outside the ball


def test_monitors_vanish_for_constants():
    p = cf.constant_profile(4, 3.0)
    assert dg.gradient_monitor(p, 1.0).supremum == 0.0
    assert dg.hessian_monitor(p, 1.0).supremum == 0.0


def test_gradient_monitor_bubble_against_dense_oracle():
    # closed form |Dv|/v = (n-2) s / (1 + s^2); oracle = dense scan of the
    # cutoff-weighted closed form
    n = 4
    mon = dg.gradient_monitor(cf.bubble_profile(n), 1.0)
    s = np.linspace(0.0, 1.0, 400001)
    oracle = np.max((1.0 - s ** 2) * (n - 2) * s / (1.0 + s ** 2))
    assert mon.supremum == pytest.approx(oracle, rel=1e-6)
    # grid stability: doubling the sampling density moves the value < 1%
    mon2 = dg.gradient_monitor(cf.bubble_profile(n), 1.0, num_samples=2 * dg.RADIAL_SCAN)
    assert abs(mon2.supremum - mon.supremum) < 0.01 * mon.supremum


def test_gradient_monitor_concentrating_family_blows_up():
    n = 4
    sups = []
    for eps in (0.5, 0.25, 0.125):
        sups.append(dg.gradient_monitor(cf.bubble_profile(n, scale=eps), 1.0).supremum)
    assert sups[0] < sups[1] < sups[2]
    # growth like const/eps: halving eps roughly doubles the monitor
    assert 1.7 < sups[1] / sups[0] < 2.4
    assert 1.7 < sups[2] / sups[1] < 2.4


def test_hessian_monitor_quadratic_u():
    # u = |x|^2 has Hessian 2 I; sup of rho^2 * 2 over the unit ball is 2
    u = cf.gauge_convert(cf.inversion_profile(4), "u")
    mon = dg.hessian_monitor(u, 1.0)
    assert mon.supremum == pytest.approx(2.0, rel=1e-6)
    assert mon.location < 1e-3


def test_hessian_monitor_bubble_grid_stable():
    p = cf.bubble_profile(4)  # converted to U internally
    a = dg.hessian_monitor(p, 1.0).supremum
    b = dg.hessian_monitor(p, 1.0, num_samples=2 * dg.RADIAL_SCAN).supremum
    assert a > 0.0
    assert abs(a - b) < 0.01 * a


def test_monitor_sampled_path_agrees_with_radial_path():
    p = cf.bubble_profile(3)
    radial = dg.gradient_monitor(p, 1.0)
    shifted = cf.bubble_profile(3, center=np.array([1e-9, 0.0, 0.0]))
    sampled = dg.gradient_monitor(shifted, 1.0, points=dg._sobol_ball(3, 1.0, 4096))
    assert sampled.direction == "sampled"
    assert abs(sampled.supremum - radial.supremum) < 0.05 * radial.supremum


def off_centre_monitor_oracle(n, eps, c, radius):
    """sup of the cutoff-weighted closed forms over a 200001-point scan of the
    radii of the spheres about ``c`` that meet the ball: ``|Dv| / v = (n-2) s /
    (eps^2 + s^2)`` and, as u = (eps^2 + s^2) / eps, ``|D2 u| = 2 / eps``."""
    s = np.linspace(max(c - radius, 0.0), c + radius, 200001)
    rho = np.maximum(1.0 - ((c - s) / radius) ** 2, 0.0)
    return np.max(rho * (n - 2) * s / (eps ** 2 + s ** 2)), np.max(rho ** 2) * 2.0 / eps


@pytest.mark.parametrize("center", [(0.3, 0.0, 0.0, 0.0), (0.1, -0.4, 0.2, 0.3),
                                    (1.5, 0.0, 0.0, 0.2)])
def test_off_centre_radial_monitors_scan_the_radii_of_the_ball(center):
    n, eps, center = 4, 0.5, np.array(center)
    p = cf.bubble_profile(n, scale=eps, center=center)
    grad_want, hess_want = off_centre_monitor_oracle(n, eps, float(np.linalg.norm(center)), 1.0)
    points = dg._sobol_ball(n, 1.0, 4096)
    for fn, want in ((dg.gradient_monitor, grad_want), (dg.hessian_monitor, hess_want)):
        mon = fn(p, 1.0)
        assert mon.direction != "sampled"
        assert mon.supremum >= fn(p, 1.0, points=points).supremum
        assert mon.supremum == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("center, radii", [((0.3, 0.0, 0.0, 0.0), (0.0, 1.3)),
                                           ((2.0, 0.0, 0.0, 0.0), (1.0, 3.0))])
def test_off_centre_radial_oscillation_is_exact(center, radii):
    # the bubble decreases in s, so its max and min over the ball lie on the
    # nearest and farthest spheres
    p = cf.bubble_profile(4, scale=0.5, center=np.array(center))
    want = p.radial_value(radii[0]) - p.radial_value(radii[1])
    assert dg.oscillation_on_ball(p, 1.0) == pytest.approx(want, rel=1e-14)


def counted_bubble(n, gauge, calls, background=None):
    """A shifted bubble in the given gauge whose closures count their calls."""
    b = cf.gauge_convert(cf.bubble_profile(n, scale=0.7, center=np.full(n, 0.1)), gauge)

    def counted(name, fn):
        def f(s):
            calls[name] = calls.get(name, 0) + 1
            return fn(s)
        return f

    return cf.RadialProfile(counted("fun", b.fun), counted("d1", b.d1), counted("d2", b.d2),
                            n, gauge=gauge, background=background, center=b.center)


def test_sampled_paths_make_one_batched_profile_call():
    calls = {}
    points = dg._sobol_ball(4, 1.0, 1024)
    mon = dg.gradient_monitor(counted_bubble(4, "v", calls), 1.0, points=points)
    assert mon.direction == "sampled" and calls == {"fun": 1, "d1": 1, "d2": 1}
    calls.clear()
    mon = dg.hessian_monitor(counted_bubble(4, "u", calls), 1.0, points=points)
    assert mon.direction == "sampled" and calls == {"fun": 1, "d1": 1, "d2": 1}
    calls.clear()
    dg.oscillation_on_ball(counted_bubble(4, "v", calls), 1.0, num_samples=1024)
    assert calls == {"fun": 1}
    # the sampled oscillation of an n-D transform: its value takes one value of
    # the base and no jet
    calls.clear()
    sphere = cf.flat_equivalent(counted_bubble(4, "v", calls, cf.SphereBackground(4)))
    assert not isinstance(sphere, cf.RadialProfile)
    dg.oscillation_on_ball(sphere, 1.0, num_samples=1024)
    assert calls == {"fun": 1}


def test_sampled_monitors_need_a_sample():
    p = cf.bubble_profile(4, center=np.full(4, 0.1))
    for fn in (dg.gradient_monitor, dg.hessian_monitor, dg.oscillation_on_ball):
        with pytest.raises(DomainError):
            fn(p, 1.0, num_samples=0)
    with pytest.raises(DomainError):
        dg.gradient_monitor(p, 1.0, points=np.empty((0, 4)))


# ---------------------------------------------------------------------------
# blow-up rescaling
# ---------------------------------------------------------------------------

def test_blowup_normalization_identities():
    n = 4
    p = cf.bubble_profile(n)
    x_k = np.array([0.7, 0.0, 0.0, 0.0])
    bp = dg.blowup_rescale(p, x_k)
    assert bp.value(np.zeros(n)) == 1.0
    # the gradient normalization is exact once the profile is normalized to
    # v(x_k) = 1, which is how the rescaling is applied in the blow-up
    normalized = cf.scale_profile(p, 1.0 / float(p.value(x_k)))
    bn = dg.blowup_rescale(normalized, x_k)
    assert np.linalg.norm(bn.gradient(np.zeros(n))) == pytest.approx(1.0, rel=1e-12)
    # in general the product of the two normalizations is 1 exactly
    assert np.linalg.norm(bp.gradient(np.zeros(n))) * float(p.value(x_k)) == pytest.approx(
        1.0, rel=1e-12)


def test_blowup_degenerate_point_rejected():
    p = cf.bubble_profile(4)
    with pytest.raises(DomainError):
        dg.blowup_rescale(p, np.zeros(4))  # gradient vanishes at the peak


def test_blowup_matches_closed_form_on_bubble():
    n = 4
    p = cf.bubble_profile(n)
    x_k = np.array([0.8, 0.0, 0.0, 0.0])
    bp = dg.blowup_rescale(p, x_k)
    val, grad, _ = p.jet(x_k)
    scale = np.linalg.norm(grad)
    rng = np.random.default_rng(9)
    for y in rng.normal(size=(10, n)):
        direct = p.value(x_k + y / scale) / val
        assert bp.value(y) == pytest.approx(direct, rel=1e-13)


def off_centre_sphere(n):
    """A non-radial V-gauge profile: the flat equivalent of an off-centre bubble
    over the sphere."""
    return cf.flat_equivalent(cf.bubble_profile(n, scale=0.8, center=np.full(n, 0.2),
                                                background=cf.SphereBackground(n)))


def test_blowup_value_at_the_origin_is_one():
    n = 4
    rng = np.random.default_rng(3)
    bases = {"centred": cf.bubble_profile(n, scale=0.6),
             "off-centre": cf.bubble_profile(n, scale=0.6, center=np.array([0.1, -0.3, 0.2, 0.0])),
             "n-D": off_centre_sphere(n)}
    assert not isinstance(bases["n-D"], cf.RadialProfile)
    for name, p in bases.items():
        for x_k in rng.uniform(-1.0, 1.0, (20, n)):
            assert dg.blowup_rescale(p, x_k).value(np.zeros(n)) == 1.0, (name, x_k)


def test_blowup_of_a_radial_base_is_radial_and_rescales_it():
    n = 4
    rng = np.random.default_rng(5)
    for p in (cf.bubble_profile(n, scale=0.6, center=np.array([0.1, -0.3, 0.2, 0.0])),
              cf.inversion_profile(n, 2.0), cf.gauge_convert(cf.bubble_profile(n), "u")):
        x_k = rng.uniform(-1.0, 1.0, n)
        bp = dg.blowup_rescale(p, x_k)
        pv = cf.gauge_convert(p, "v")
        val, grad, _ = pv.jet(x_k)
        d = np.linalg.norm(grad)
        assert isinstance(bp, cf.RadialProfile)
        assert np.allclose(bp.center, d * (pv.center - x_k), rtol=1e-15, atol=0.0)
        y = rng.normal(size=(10, n))
        assert np.allclose(bp.value(y), pv.value(x_k + y / d) / val, rtol=1e-13, atol=0.0)
        # the closed-form eigenvalues of the radial blow-up are those of its matrix
        for pt in y[:3]:
            assert np.allclose(cf.schouten_eigs(bp, pt),
                               cf.schouten_matrix(bp, pt).eigenvalues, rtol=1e-10, atol=1e-12)


def test_blowup_family_oscillation_decreases():
    n = 4
    oscs = []
    for eps in (0.5, 0.25, 0.125):
        fam = cf.bubble_profile(n, scale=eps)
        mon = dg.gradient_monitor(fam, 1.0)
        x_k = np.zeros(n)
        x_k[0] = mon.location
        oscs.append(dg.oscillation_on_ball(dg.blowup_rescale(fam, x_k), 1.0))
    assert oscs[0] > oscs[1] > oscs[2]


def test_oscillation_on_radial_profile():
    p = cf.constant_profile(4, 2.0)
    assert dg.oscillation_on_ball(p, 1.0) == 0.0
    b = cf.bubble_profile(4)
    # v decreases from 1 to 1/2 on the unit ball
    assert dg.oscillation_on_ball(b, 1.0) == pytest.approx(0.5, rel=1e-6)


# ---------------------------------------------------------------------------
# quadrature and volume curves
# ---------------------------------------------------------------------------

def test_adaptive_simpson_polynomial_and_smooth():
    got = dg.adaptive_simpson(lambda t: t ** 4, 0.0, 2.0)
    assert got[0] == pytest.approx(32.0 / 5.0, rel=1e-12)
    got = dg.adaptive_simpson(np.exp, np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    assert got[0] == pytest.approx(np.e - 1.0, rel=1e-10)
    assert got[1] == pytest.approx(np.exp(3) - np.e, rel=1e-10)


def test_ball_and_sphere_constants():
    assert dg.unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-14)
    assert dg.unit_sphere_area(3) == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert dg.unit_ball_volume(4) == pytest.approx(np.pi ** 2 / 2.0, rel=1e-14)


def test_bishop_gromov_flat_is_one():
    flat = cf.constant_profile(3, 1.0, gauge="u")
    curve = dg.bishop_gromov_curve(flat, np.linspace(0.1, 2.0, 20))
    assert np.max(np.abs(curve.ratios - 1.0)) < 1e-8


def sphere_u_profile():
    # u = (1 + r^2)/2 gives g = u^-2 dx^2 = the round unit 3-sphere chart
    return cf.RadialProfile(
        lambda s: (1.0 + np.asarray(s, dtype=float) ** 2) / 2.0,
        lambda s: np.asarray(s, dtype=float),
        lambda s: np.ones_like(np.asarray(s, dtype=float)),
        3, gauge="u")


def test_bishop_gromov_sphere_closed_form():
    # oracle: Vol(B(r)) on the unit 3-sphere is 2 pi (r - sin r cos r)
    radii = np.linspace(0.3, np.pi, 12)
    curve = dg.bishop_gromov_curve(sphere_u_profile(), radii)
    oracle = 2.0 * np.pi * (radii - np.sin(radii) * np.cos(radii)) \
        / (dg.unit_ball_volume(3) * radii ** 3)
    assert np.max(np.abs(curve.ratios - oracle)) < 1e-8
    assert curve.ratios[-1] == pytest.approx(3.0 / (2.0 * np.pi ** 2), abs=1e-6)
    assert np.all(np.diff(curve.ratios) < 0.0)  # strictly decreasing


def test_bishop_gromov_small_radius_limit():
    curve = dg.bishop_gromov_curve(sphere_u_profile(), np.array([0.02, 0.01, 0.005]))
    # Q(0+) -> 1 quadratically; extrapolate the three smallest radii
    assert abs(curve.ratios[-1] - 1.0) < 1e-4
    fit = np.polyfit(curve.radii ** 2, curve.ratios, 1)
    assert fit[1] == pytest.approx(1.0, abs=1e-6)


def test_bishop_gromov_unreachable_radius():
    grid = np.linspace(0.0, 1.0, 200)
    u = cf.grid_radial_profile(grid, np.ones_like(grid), 3, gauge="u")
    with pytest.raises(DomainError):
        dg.bishop_gromov_curve(u, [2.0])


def test_bishop_gromov_on_solved_profile():
    # converged ball solution with positive Ricci eigenvalues: the ratio
    # curve must be non-increasing
    n = 4
    op = symfun.SigmaKRoot(n=n, k=2)
    bub = cf.bubble_profile(n)
    cfg = rs.SolverConfig(operator=op, domain=(0.0, 0.8), grid=64,
                          rhs=float(symfun.eval_op(op, np.full(n, 2.0))),
                          boundary_left="symmetry",
                          boundary_right=float(bub.radial_value(0.8)),
                          initial_guess={"kind": "profile", "name": "bubble:scale=1"})
    out = rs.newton_solve(cfg)
    assert out.converged
    lam = rs.node_eigentuples(cfg, out.v)
    assert np.all(symfun.ricci_map(lam) > 0.0)
    prof = out.profile(gauge="u")
    reach = 0.95 * float(dg.adaptive_simpson(
        lambda t: 1.0 / prof.radial_value(t), 0.0, 0.8)[0])
    curve = dg.bishop_gromov_curve(prof, np.linspace(0.2 * reach, reach, 10))
    assert np.all(np.diff(curve.ratios) <= 1e-10)
    assert np.all(curve.ratios <= 1.0 + 1e-8)


# ---------------------------------------------------------------------------
# Harnack exponent and Holder seminorm
# ---------------------------------------------------------------------------

def test_harnack_beta_values():
    assert dg.harnack_beta(0.0, 3) == 1.0
    assert dg.harnack_beta(0.0, 7) == 1.0
    assert dg.harnack_beta(0.25, 4) == 0.4


def test_harnack_beta_domain_errors():
    for n in (3, 4, 6):
        with pytest.raises(DomainError):
            dg.harnack_beta(1.0 / (n - 2), n)
    with pytest.raises(DomainError):
        dg.harnack_beta(-0.1, 4)


def test_holder_check_exact_on_holder_function():
    # w(x) = |x|^beta on collinear points through the origin has seminorm 1
    beta = 0.5
    x = np.linspace(0.0, 2.0, 30)
    vals = x ** beta
    assert dg.holder_check(x, vals, beta) == pytest.approx(1.0, rel=1e-12)


def test_holder_seminorm_of_log_singularity_grows():
    # w = 2 log |x| has finite seminorm on every annulus but diverges as the
    # inner radius shrinks
    beta = 0.5
    norms = []
    for inner in (0.1, 0.01, 0.001):
        radii = np.geomspace(inner, 1.0, 60)
        w = 2.0 * np.log(radii)
        norms.append(dg.holder_check(radii, w, beta))
    assert norms[0] < norms[1] < norms[2]


def test_holder_check_validation():
    with pytest.raises(DomainError):
        dg.holder_check(np.array([1.0]), np.array([1.0]), 0.5)
    with pytest.raises(DomainError):
        dg.holder_check(np.array([1.0, 1.0]), np.array([1.0, 2.0]), 0.5)
    with pytest.raises(DomainError):
        dg.holder_check(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 1.5)


def test_holder_check_distances_far_from_unit_scale():
    # the squares of these distances overflow or underflow, and the difference
    # of the last pair overflows
    def close(x):
        return pytest.approx(x, rel=1e-12, abs=0.0)

    assert dg.holder_check([[0.0], [1e200]], [1.0, 1e200], 0.4) == close(1e120)
    assert dg.holder_check([[0.0], [1e-170]], [1.0, 2.0], 0.4) == close(1e68)
    assert dg.holder_check([[0.0, 3e200], [0.0, -1e200]], [0.0, 4.0], 0.5) == close(2e-100)
    assert dg.holder_check([[-1e308], [1e308]], [0.0, 1.0], 0.4) == \
        close(2.0 ** -0.4 * 1e308 ** -0.4)


def test_holder_check_value_differences_far_from_unit_scale():
    # 1e308 - (-1e308) overflows; the seminorm 2e308 / 1e120 does not
    assert dg.holder_check([[0.0], [1e300]], [1e308, -1e308], 0.4) == \
        pytest.approx(2e188, rel=1e-12, abs=0.0)


def test_harnack_report():
    radii = np.geomspace(0.1, 1.0, 20)
    rep = dg.harnack_report(0.25, 4, radii, 2.0 * np.log(radii))
    assert rep.beta == 0.4
    assert rep.seminorm > 0.0
    assert rep.samples == 20
    assert rep.to_dict()["beta"] == 0.4
