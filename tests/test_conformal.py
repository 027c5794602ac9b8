"""Conformal algebra: Hessian, Schouten eigenvalues, gauges, Kelvin transform."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhess import conformal as cf
from confhess import diagnostics as dg
from confhess.errors import DomainError, PositivityError


def random_points(n, count, rng, lo=0.3, hi=2.0):
    x = rng.normal(size=(count, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.uniform(lo, hi, size=(count, 1))


# ---------------------------------------------------------------------------
# conformal_hessian_matrix
# ---------------------------------------------------------------------------

def test_conformal_hessian_constant_vanishes():
    p = cf.constant_profile(4, 3.0)
    x = np.array([0.4, -0.2, 1.0, 0.3])
    assert np.max(np.abs(cf.conformal_hessian_matrix(p, x))) == 0.0


def test_conformal_hessian_inversion_vanishes():
    rng = np.random.default_rng(0)
    for n in (3, 4, 5, 6):
        p = cf.inversion_profile(n)
        for x in random_points(n, 10, rng):
            assert np.max(np.abs(cf.conformal_hessian_matrix(p, x))) < 1e-10


def test_conformal_hessian_bubble_example():
    # radial reduction oracle: at r = 1, n = 4 the bubble has v = 1/2,
    # v' = -1/2, v'' = 1/2, so both the radial bracket
    # -v'' + (3/2) v'^2 / v and the tangential bracket -v'/r - (1/2) v'^2/v
    # equal 1/4.
    p = cf.bubble_profile(4)
    mat = cf.conformal_hessian_matrix(p, np.array([1.0, 0.0, 0.0, 0.0]))
    eigs = np.linalg.eigvalsh(mat)
    assert np.allclose(eigs, 0.25, atol=1e-12)


def test_conformal_hessian_positivity_error():
    grid = np.linspace(0.5, 2.0, 64)
    p = cf.grid_radial_profile(grid, np.linspace(1.0, -0.5, 64), 4)
    with pytest.raises(PositivityError):
        cf.conformal_hessian_matrix(p, np.array([1.8, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# schouten_eigs
# ---------------------------------------------------------------------------

def test_round_sphere_unit_profile():
    for n in (3, 4, 5, 6):
        p = cf.constant_profile(n, 1.0, background=cf.SphereBackground(n, 1.0))
        x = np.zeros(n)
        assert np.allclose(cf.schouten_eigs(p, x), 0.5, atol=1e-12)
    # general radius: eigenvalues 1/(2 a^2)
    p = cf.constant_profile(4, 1.0, background=cf.SphereBackground(4, 2.0))
    assert np.allclose(cf.schouten_eigs(p, np.array([0.3, 0.1, 0.0, -0.2])), 0.125,
                       atol=1e-12)


def sphere_covariant_eigs(p, x):
    """Sphere-background eigenvalues via the covariant route: A built directly
    over the sphere chart, including the background Schouten term, with the
    generalized problem against ``phi^2 I`` (ordinary eigenvalues / phi^2)."""
    pv = cf.gauge_convert(p, "v")
    n, val, bg = pv.n, pv.value(x), pv.background
    phi2 = bg.phi(x) ** 2
    a0 = bg.schouten_scale * phi2 * np.eye(n)
    core = cf.conformal_hessian_matrix(pv, x) + ((n - 2.0) / 2.0) * val * a0
    amat = (2.0 / (n - 2.0)) * val ** (-(n + 2.0) / (n - 2.0)) * core
    return np.linalg.eigvalsh(0.5 * (amat + amat.T)) / phi2


def test_sphere_covariant_route_agrees_with_flattening():
    rng = np.random.default_rng(1)
    for radius in (1.0, 1.7):
        bg = cf.SphereBackground(4, radius)
        for prof in (cf.constant_profile(4, 1.0, background=bg),
                     cf.bubble_profile(4, scale=0.9, background=bg)):
            for x in random_points(4, 5, rng):
                a = cf.schouten_eigs(prof, x)
                b = sphere_covariant_eigs(prof, x)
                assert np.max(np.abs(a - np.sort(b))) < 1e-9


def test_bubble_eigenvalues_all_two():
    rng = np.random.default_rng(2)
    for n in (3, 4, 5, 6):
        p = cf.bubble_profile(n)
        for x in random_points(n, 10, rng):
            assert np.max(np.abs(cf.schouten_eigs(p, x) - 2.0)) < 1e-10


def test_bubble_eigenvalues_finite_difference_route():
    # independent route: only the value closure is exposed, derivatives come
    # from 4th-order stencils
    n = 4
    exact = cf.bubble_profile(n)
    p = cf.CallableProfile(lambda x: float(exact.value(x)), n, step=2e-3)
    rng = np.random.default_rng(3)
    for x in random_points(n, 5, rng):
        assert np.max(np.abs(cf.schouten_eigs(p, x) - 2.0)) < 1e-8


def test_inversion_eigenvalues_vanish():
    rng = np.random.default_rng(4)
    for n in (3, 5):
        p = cf.inversion_profile(n, coefficient=2.5)
        for x in random_points(n, 10, rng):
            assert np.max(np.abs(cf.schouten_eigs(p, x))) < 1e-10


def test_schouten_matrix_is_symmetric_sorted():
    p = cf.bubble_profile(4, scale=0.7, center=np.array([0.2, 0.0, -0.1, 0.4]))
    sm = cf.schouten_matrix(p, np.array([0.5, 0.5, 0.1, -0.3]))
    assert np.max(np.abs(sm.matrix - sm.matrix.T)) < 1e-13
    assert np.all(np.diff(sm.eigenvalues) >= 0)


def test_constant_scaling_law():
    # replacing v by t v scales every eigenvalue by t^(-4/(n-2))
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        p = cf.bubble_profile(n)
        for t in (0.5, 2.0, 3.7):
            q = cf.scale_profile(p, t)
            for x in random_points(n, 3, rng):
                a = cf.schouten_eigs(p, x)
                b = cf.schouten_eigs(q, x)
                assert np.allclose(b, t ** (-4.0 / (n - 2)) * a, rtol=1e-10)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

def test_gauge_trivial_examples():
    n = 4
    one = cf.constant_profile(n, 1.0)
    u = cf.gauge_convert(one, "u")
    w = cf.gauge_convert(u, "w")
    x = np.array([0.3, 0.1, -0.2, 0.5])
    assert u.value(x) == 1.0
    assert w.value(x) == 0.0


def test_gauge_inversion_to_u_is_square():
    # v = |x|^(2-n)  ->  u = v^(-2/(n-2)) = |x|^2
    for n in (3, 4, 6):
        u = cf.gauge_convert(cf.inversion_profile(n), "u")
        for s in (0.5, 1.0, 2.0):
            assert u.radial_value(s) == pytest.approx(s ** 2, rel=1e-13)


def test_gauge_round_trip_identity():
    n = 5
    p = cf.bubble_profile(n, scale=1.3)
    x = np.array([0.4, -0.1, 0.6, 0.0, 0.2])
    for target in ("u", "w"):
        back = cf.gauge_convert(cf.gauge_convert(p, target), "v")
        va, ga, ha = p.jet(x)
        vb, gb, hb = back.jet(x)
        assert abs(va - vb) < 1e-12 * abs(va)
        assert np.max(np.abs(ga - gb)) < 1e-12 * (1 + np.max(np.abs(ga)))
        assert np.max(np.abs(ha - hb)) < 1e-11 * (1 + np.max(np.abs(ha)))


def test_gauge_coherence_of_schouten_eigs():
    rng = np.random.default_rng(6)
    n = 4
    profiles = [cf.bubble_profile(n, scale=0.8),
                cf.scale_profile(cf.bubble_profile(n), 1.9),
                cf.grid_radial_profile(np.linspace(0.2, 2.5, 400),
                                       cf.bubble_profile(n).radial_value(
                                           np.linspace(0.2, 2.5, 400)) * 1.1, n)]
    for p in profiles:
        for x in random_points(n, 4, rng, lo=0.4, hi=1.8):
            ref = cf.schouten_eigs(p, x)
            for target in ("u", "w"):
                got = cf.schouten_eigs(cf.gauge_convert(p, target), x)
                assert np.max(np.abs(got - ref)) < 1e-9 * (1 + np.max(np.abs(ref)))


def test_gauge_requires_positive_profile():
    grid = np.linspace(0.5, 2.0, 64)
    p = cf.grid_radial_profile(grid, np.linspace(1.0, -0.5, 64), 4)
    u = cf.gauge_convert(p, "u")
    with pytest.raises(PositivityError):
        u.radial_value(2.0)


# ---------------------------------------------------------------------------
# Kelvin transform
# ---------------------------------------------------------------------------

def test_kelvin_of_constant_is_inversion():
    n = 4
    k = cf.kelvin(cf.constant_profile(n, 1.0))
    for s in (0.5, 1.0, 2.0):
        assert k.radial_value(s) == pytest.approx(s ** (2 - n), rel=1e-13)
    x = np.array([0.7, -0.3, 0.2, 0.1])
    assert np.max(np.abs(cf.schouten_eigs(k, x))) < 1e-10


def test_kelvin_bubble_fixed_point():
    # |x|^(2-n) (1 + |x|^-2)^(-(n-2)/2) = (1 + |x|^2)^(-(n-2)/2)
    rng = np.random.default_rng(7)
    for n in (3, 5):
        p = cf.bubble_profile(n)
        k = cf.kelvin(p)
        for x in random_points(n, 8, rng):
            assert k.value(x) == pytest.approx(p.value(x), rel=1e-12)
            assert np.max(np.abs(cf.schouten_eigs(k, x) - 2.0)) < 1e-9


def test_kelvin_eigenvalue_covariance():
    rng = np.random.default_rng(8)
    n = 4
    families = [cf.constant_profile(n, 2.0),
                cf.bubble_profile(n, scale=0.8, center=np.array([0.3, 0.0, 0.0, 0.1])),
                cf.inversion_profile(n, coefficient=1.5)]
    for p in families:
        k = cf.kelvin(p)
        for x in random_points(n, 30, rng):
            got = cf.schouten_eigs(k, x)
            want = cf.schouten_eigs(p, x / float(x @ x))
            assert np.max(np.abs(got - want)) < 1e-7


def test_kelvin_jet_matches_finite_differences():
    # generic (non-radial) chain-rule path against stencil derivatives
    n = 3
    base = cf.bubble_profile(n, scale=0.9, center=np.array([0.2, -0.1, 0.3]))
    k = cf.kelvin(base)
    fd = cf.CallableProfile(lambda x: float(k.value(x)), n, step=1e-3)
    x = np.array([0.8, 0.4, -0.5])
    val, grad, hess = k.jet(x)
    fval, fgrad, fhess = fd.jet(x)
    assert val == pytest.approx(fval, rel=1e-12)
    assert np.max(np.abs(grad - fgrad)) < 1e-8
    assert np.max(np.abs(hess - fhess)) < 1e-6


def kelvin_reference(n, scale, center, lift, x):
    """Value, gradient and Hessian of ``|x|^(2-n) v(x / |x|^2)`` at 50 digits, for
    ``v`` the bubble of ``scale`` about ``center`` plus ``lift``, by ``mpmath.diff``:
    a route that shares no formula with the chain rule under test."""
    with mpmath.workdps(50):
        eps, m, lift = mpmath.mpf(scale), mpmath.mpf(n - 2) / 2, mpmath.mpf(lift)
        c = [mpmath.mpf(t) for t in center]

        def k(*xs):
            r2 = mpmath.fsum(t * t for t in xs)
            q = eps ** 2 + mpmath.fsum((t / r2 - ct) ** 2 for t, ct in zip(xs, c))
            return r2 ** -m * (eps ** m * q ** -m + lift)

        pt = tuple(mpmath.mpf(t) for t in x)
        order = lambda *axes: tuple(axes.count(i) for i in range(n))
        hess = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                hess[i, j] = hess[j, i] = mpmath.diff(k, pt, order(i, j))
        return (float(k(*pt)), np.array([float(mpmath.diff(k, pt, order(i))) for i in range(n)]),
                hess)


@pytest.mark.parametrize("lift", [0.0, 0.2])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kelvin_jet_matches_a_50_digit_reference(n, lift):
    # the off-centre bubble, and the bubble plus 0.2 that the benchmark lifts,
    # at a single point and at a (5, n) batch; 1e-12 relative to the largest
    # entry of each part, where the finite-difference test allows 1e-6
    rng = np.random.default_rng(40 + n)
    center, scale = 0.3 * rng.standard_normal(n), float(rng.uniform(0.3, 2.0))
    b = cf.bubble_profile(n, scale=scale, center=center)
    base = cf.RadialProfile(lambda s: b.fun(s) + lift, b.d1, b.d2, n, center=center)
    k = cf.kelvin(base if lift else b)
    x = random_points(n, 6, rng)
    jets = [k.jet(x[0])] + list(zip(*k.jet(x[1:])))
    for pt, got in zip(x, jets):
        for part, want in zip(got, kelvin_reference(n, scale, center, lift, pt)):
            assert np.shape(part) == np.shape(want)
            assert np.max(np.abs(part - want)) <= 1e-12 * np.max(np.abs(want)), (pt, part, want)


def test_kelvin_domain_errors():
    n = 4
    k = cf.kelvin(cf.bubble_profile(n, center=np.array([0.1, 0.0, 0.0, 0.0])))
    with pytest.raises(DomainError):
        k.jet(np.zeros(n))
    with pytest.raises(DomainError):
        cf.kelvin(cf.constant_profile(n, 1.0, background=cf.SphereBackground(n)))


# ---------------------------------------------------------------------------
# radial reduction
# ---------------------------------------------------------------------------

def test_radial_constant_and_inversion_vanish():
    p = cf.constant_profile(4, 2.0)
    lr, lt = cf.radial_schouten_eigs(p, np.array([0.5, 1.0, 2.0]))
    assert np.all(lr == 0.0) and np.all(lt == 0.0)
    q = cf.inversion_profile(5)
    lr, lt = cf.radial_schouten_eigs(q, np.array([0.5, 1.0, 2.0]))
    assert np.max(np.abs(lr)) < 1e-12 and np.max(np.abs(lt)) < 1e-12


def test_radial_bubble_example():
    p = cf.bubble_profile(4)
    assert p.radial_value(1.0) == pytest.approx(0.5)
    _, d1, d2 = p.radial_jet(1.0)
    assert d1 == pytest.approx(-0.5)
    assert d2 == pytest.approx(0.5)
    lr, lt = cf.radial_schouten_eigs(p, 1.0)
    assert lr == pytest.approx(2.0, rel=1e-12)
    assert lt == pytest.approx(2.0, rel=1e-12)


def test_radial_matches_full_matrix():
    # oracle: full-matrix eigendecomposition at the point (r, 0, .., 0); the
    # radial eigenvalue appears once, the tangential one n-1 times
    n = 5
    fun = lambda s: 1.0 + 0.3 * np.exp(-np.asarray(s, dtype=float) ** 2)
    d1 = lambda s: -0.6 * np.asarray(s, dtype=float) * np.exp(-np.asarray(s, dtype=float) ** 2)
    d2 = lambda s: (-0.6 + 1.2 * np.asarray(s, dtype=float) ** 2) * np.exp(-np.asarray(s, dtype=float) ** 2)
    p = cf.RadialProfile(fun, d1, d2, n)
    for r in (0.4, 1.1, 2.3):
        lr, lt = cf.radial_schouten_eigs(p, r)
        x = np.zeros(n)
        x[0] = r
        full = np.sort(cf.schouten_eigs(p, x))
        want = np.sort(np.array([lr] + [lt] * (n - 1)))
        assert np.max(np.abs(full - want)) < 1e-8


def test_radial_origin_limit():
    # at r = 0 parity forces v'/r -> v'' and the two eigenvalues coincide
    p = cf.bubble_profile(4)
    lr, lt = cf.radial_schouten_eigs(p, 0.0)
    assert lr == pytest.approx(lt, rel=1e-13)
    assert lr == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_radial_jet_eig_partials_match_central_differences(n):
    # jets at r = 0 too, where lam_tan reads v'' for v'/r, also with v' != 0
    r = np.array([0.0, 0.0, 0.3, 1.7])
    jet = np.array([[0.8, 0.0, -1.1], [1.3, 0.4, -0.7], [0.9, -0.5, 0.2], [2.1, 0.3, -0.9]]).T
    partials = cf.radial_jet_eig_partials(n, r, jet[0], jet[1], *cf.radial_jet_eigs(n, r, *jet))
    h = 1e-6
    for i in range(3):
        e = np.zeros((3, 1))
        e[i] = h
        up, down = cf.radial_jet_eigs(n, r, *(jet + e)), cf.radial_jet_eigs(n, r, *(jet - e))
        for got, hi, lo in zip(partials, up, down):
            assert np.allclose(got[i], (hi - lo) / (2 * h), rtol=1e-7, atol=1e-7), (n, i)


def test_radial_grid_profile_second_order():
    n = 4
    exact = cf.bubble_profile(n)
    errs = []
    for m in (100, 200, 400):
        r = np.linspace(0.2, 2.0, m)
        p = cf.grid_radial_profile(r, exact.radial_value(r), n)
        probe = np.linspace(0.4, 1.8, 37)
        lr, lt = cf.radial_schouten_eigs(p, probe)
        errs.append(max(np.max(np.abs(lr - 2.0)), np.max(np.abs(lt - 2.0))))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) > 1.5


# ---------------------------------------------------------------------------
# catalog, grid profiles, parsing
# ---------------------------------------------------------------------------

def test_exact_profile_parameter_errors():
    with pytest.raises(DomainError):
        cf.constant_profile(4, 0.0)
    with pytest.raises(DomainError):
        cf.inversion_profile(4, coefficient=-1.0)
    with pytest.raises(DomainError):
        cf.bubble_profile(4, scale=0.0)


def test_parse_profile_catalog():
    p = cf.parse_profile("const:c=2", 4)
    assert p.radial_value(1.3) == 2.0
    p = cf.parse_profile("inversion:C=1", 4)
    assert p.radial_value(2.0) == pytest.approx(0.25)
    p = cf.parse_profile("bubble:scale=1", 4)
    assert p.radial_value(1.0) == pytest.approx(0.5)


def test_grid_profile_even_extension_at_origin():
    n = 4
    r = np.linspace(0.0, 2.0, 200)
    p = cf.grid_radial_profile(r, cf.bubble_profile(n).radial_value(r), n)
    assert abs(p.radial_jet(0.0)[1]) < 1e-12
    lr, lt = cf.radial_schouten_eigs(p, 0.0)
    assert lr == pytest.approx(2.0, abs=1e-3)


def test_grid_profile_loading_round_trip(tmp_path):
    n = 4
    r = np.linspace(0.3, 1.7, 120)
    v = cf.bubble_profile(n).radial_value(r)
    path = tmp_path / "profile.txt"
    np.savetxt(path, np.column_stack([r, v]), fmt="%.17g")
    p = cf.load_radial_profile(path, n)
    assert np.allclose(p.radial_value(r), v, rtol=1e-12)


def test_grid_profile_validation():
    with pytest.raises(DomainError):
        cf.grid_radial_profile(np.array([0.0, 0.1, 0.1, 0.3]), np.ones(4), 4)
    with pytest.raises(DomainError):
        cf.grid_radial_profile(np.array([0.0, 0.1, 0.2]), np.ones(3), 4)


# ---------------------------------------------------------------------------
# batched jets
# ---------------------------------------------------------------------------

def profile_kinds(n):
    """One profile of every kind, defined on the cube [-1, 1]^n shifted by
    ``offset`` (the Kelvin transform needs points away from the origin)."""
    c = np.linspace(0.1, 0.3, n)
    bubble = cf.bubble_profile(n, scale=0.8, center=c)
    stencil = cf.CallableProfile(lambda x: float(bubble.value(x)), n)
    sphere = cf.bubble_profile(n, center=c, background=cf.SphereBackground(n))
    return {
        "radial": (bubble, c),
        "callable": (stencil, c),
        "gauge": (cf.gauge_convert(stencil, "u"), c),
        "scaled": (cf.scale_profile(stencil, 2.5), c),
        "sphere": (cf.flat_equivalent(sphere), c),
        "kelvin": (cf.kelvin(bubble), np.full(n, 2.0)),
        "blowup": (dg.blowup_rescale(bubble, c + 0.2), c),
    }


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_jet_equals_stacked_point_jets(data):
    n = data.draw(st.integers(3, 5), label="n")
    kind = data.draw(st.sampled_from(sorted(profile_kinds(n))), label="kind")
    p, offset = profile_kinds(n)[kind]
    shape = data.draw(st.sampled_from(((1,), (5,), (2, 3))), label="shape")
    unit = st.floats(-1.0, 1.0)
    x = np.array(data.draw(st.lists(unit, min_size=n * int(np.prod(shape)),
                                    max_size=n * int(np.prod(shape))))).reshape(shape + (n,))
    x = x + offset
    if kind == "radial":
        x.reshape(-1, n)[0] = p.center         # s = 0 inside a batch
    batch = p.jet(x)
    points = [p.jet(pt) for pt in x.reshape(-1, n)]
    for got, part, tail in zip(batch, zip(*points), ((), (n,), (n, n))):
        want = np.array(part).reshape(shape + tail)
        assert got.shape == want.shape, kind
        # ulps of the largest entry: numpy's array and scalar loops round differently
        assert np.all(np.abs(got - want) <= 8 * np.spacing(np.max(np.abs(want)))), kind
    assert np.array_equal(p.value(x), batch[0]), kind
    val, grad, hess = points[0]
    assert isinstance(val, float) and grad.shape == (n,) and hess.shape == (n, n)


def test_radial_value_evaluates_the_profile_only():
    n = 4
    b = cf.bubble_profile(n, center=np.full(n, 0.1))
    boom = lambda s: 1 / 0
    p = cf.RadialProfile(b.fun, boom, boom, n, center=b.center)
    x = np.random.default_rng(0).uniform(-1, 1, (8, n))
    assert np.array_equal(p.value(x), b.jet(x)[0])


# ---------------------------------------------------------------------------
# one 1-D jet per radial profile, and the closed-form radial eigenvalues
# ---------------------------------------------------------------------------

def counted_radial(n, calls, background=None):
    """A centred bubble whose closures count their calls."""
    b = cf.bubble_profile(n, scale=0.7)

    def counted(name, fn):
        def f(s):
            calls[name] = calls.get(name, 0) + 1
            return fn(s)
        return f

    return cf.RadialProfile(counted("fun", b.fun), counted("d1", b.d1), counted("d2", b.d2),
                            n, background=background)


@pytest.mark.parametrize("kind", ["u", "w", "scaled", "kelvin", "sphere", "u of kelvin"])
def test_one_base_evaluation_per_jet(kind):
    n = 4
    transform = {
        "u": lambda p: cf.gauge_convert(p, "u"),
        "w": lambda p: cf.gauge_convert(p, "w"),
        "scaled": lambda p: cf.scale_profile(p, 2.5),
        "kelvin": cf.kelvin,
        "sphere": cf.flat_equivalent,
        "u of kelvin": lambda p: cf.gauge_convert(cf.kelvin(p), "u"),
    }[kind]
    calls = {}
    q = transform(counted_radial(n, calls, cf.SphereBackground(n) if kind == "sphere" else None))
    assert isinstance(q, cf.RadialProfile)
    calls.clear()
    q.jet(np.array([[0.3, 0.2, -0.1, 0.5], [0.6, -0.4, 0.2, 0.1]]))
    assert calls == {"fun": 1, "d1": 1, "d2": 1}
    calls.clear()
    q.radial_jet(np.array([0.5, 1.5]))
    assert calls == {"fun": 1, "d1": 1, "d2": 1}
    # the value alone evaluates the base's values alone, to the jet's bits
    s = np.array([0.5, 1.5])
    calls.clear()
    val = q.radial_value(s)
    assert calls == {"fun": 1}
    assert np.array_equal(val, q.radial_jet(s)[0])


class EigvalshReached(Exception):
    pass


def refuse_eigvalsh(mat):
    raise EigvalshReached


def lifted_bubble(n, scale, **kw):
    """A bubble plus 0.2: a radial profile whose eigenvalues vary with the radius."""
    b = cf.bubble_profile(n, scale=scale)
    return cf.RadialProfile(lambda s: b.fun(s) + 0.2, b.d1, b.d2, n, **kw)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_radial_kernel_agrees_with_the_matrix_route(data):
    n = data.draw(st.integers(3, 7), label="n")
    kind = data.draw(st.sampled_from(["bubble", "inversion", "constant", "kelvin", "grid"]),
                     label="kind")
    sphere = kind != "kelvin" and data.draw(st.booleans(), label="sphere")
    bg = cf.SphereBackground(n, data.draw(st.floats(0.5, 2.0), label="radius")) if sphere else None
    t = data.draw(st.floats(0.5, 2.0), label="parameter")
    if kind == "bubble":
        centered = sphere or data.draw(st.booleans(), label="centered")
        c = None if centered else np.array(data.draw(
            st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n), label="center"))
        p = cf.bubble_profile(n, scale=t, center=c, background=bg)
    elif kind == "inversion":
        p = cf.inversion_profile(n, coefficient=t, background=bg)
    elif kind == "constant":
        p = cf.constant_profile(n, t, background=bg)
    elif kind == "kelvin":
        p = cf.kelvin(lifted_bubble(n, t))
    else:
        r = np.linspace(0.0, 3.0, 64)
        p = cf.grid_radial_profile(r, lifted_bubble(n, t).radial_value(r), n, background=bg)
    p = cf.gauge_convert(p, data.draw(st.sampled_from(cf.GAUGES), label="gauge"))
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="dir"))
    if not np.linalg.norm(u) > 1e-3:
        u = np.ones(n)
    s = data.draw(st.floats(0.1, 2.9), label="s")
    x = p.center + s * u / np.linalg.norm(u)
    want = cf.schouten_matrix(p, x).eigenvalues
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cf, "_eigvalsh", refuse_eigvalsh)
        got = cf.schouten_eigs(p, x)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_off_centre_kelvin_stays_on_the_matrix_path(monkeypatch):
    n = 4
    k = cf.kelvin(cf.bubble_profile(n, center=np.full(n, 0.2)))
    x = np.array([0.8, -0.3, 0.5, 0.9])
    want = cf.schouten_eigs(cf.bubble_profile(n, center=np.full(n, 0.2)), x / float(x @ x))
    assert np.max(np.abs(cf.schouten_eigs(k, x) - want)) < 1e-9
    monkeypatch.setattr(cf, "_eigvalsh", refuse_eigvalsh)
    with pytest.raises(EigvalshReached):
        cf.schouten_eigs(k, x)


def test_radial_kelvin_checks_the_base_domain():
    # the base is evaluated at 1/s, so a base on [0.2, 2] allows s in [0.5, 5] only
    r = np.linspace(0.2, 2.0, 50)
    k = cf.kelvin(cf.grid_radial_profile(r, cf.bubble_profile(4).radial_value(r), 4))
    assert k.radial_value(1.0) == pytest.approx(0.5, rel=1e-6)
    with pytest.raises(DomainError):
        k.radial_value(0.1)


def test_radial_eigenvalues_are_placed_as_the_stable_sort():
    # schouten_eigs places the two distinct radial eigenvalues instead of sorting
    # n copies; it must give the bits of the stable sort, signed zeros included
    signs = set()
    for n in (3, 4, 5, 6):
        rng = np.random.default_rng(60 + n)
        profiles = {
            "bubble": (cf.bubble_profile(n, scale=0.7, center=np.full(n, 0.1)), True),
            "inversion": (cf.inversion_profile(n, coefficient=1.3), False),
            "sphere": (cf.constant_profile(n, 1.0, background=cf.SphereBackground(n, 1.3)),
                       True),
            "flat constant": (cf.constant_profile(n, 2.0), True),
            "kelvin": (cf.kelvin(lifted_bubble(n, 0.8)), False),
        }
        for name, (p, at_centre) in profiles.items():
            pv = cf.flat_equivalent(p)
            for shape in ((), (5,), (2, 3)):
                x = pv.center + random_points(n, max(1, int(np.prod(shape))), rng)
                x = x.reshape(shape + (n,))
                if shape and at_centre:
                    x.reshape(-1, n)[0] = pv.center      # s = 0 in a batch: a tie
                lam_rad, lam_tan = cf.radial_schouten_eigs(pv, cf._norm(x - pv.center))
                want = np.sort(np.stack([lam_rad] + [lam_tan] * (n - 1), axis=-1), axis=-1)
                got = cf.schouten_eigs(p, x)
                assert got.shape == want.shape == shape + (n,), name
                assert got.tobytes() == want.tobytes(), (name, shape, got, want)
                signs.update(np.sign(lam_rad - lam_tan).ravel().tolist())
    assert signs == {-1.0, 0.0, 1.0}
