"""The benchmark workloads: inputs from a seed, timed ops, output checks.

Each workload builds its inputs from the seed alone, lists the ops of one
round (the fixed set of ops whose total time is ``wall_s``), runs one
small warm-up op of each kind, and checks op outputs against computations
made here, apart from confhess: recomputed symmetric polynomials, closed-form
profiles and eigenvalues, and properties the methods must have.  It never
compares against stored outputs.

Every op calls confhess through module attributes (``cones.boundary_shift``,
not an imported name), so the tracer's wrappers see every call.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from confhess import cones, conformal, diagnostics, radial_solver, symfun

EPS = np.finfo(float).eps


@dataclass
class Op:
    """One timed op: ``fn()`` returns plain data that ``check`` inspects."""

    label: str
    fn: Callable


#: The six catalog operators of the acceptance suite, by descriptor, so the
#: benchmark outlives changes to the operator classes.
CATALOG = ("sigma-root:k=2", "quotient:k=2,l=1", "pucci:k=2,delta=0.5", "inv-power",
           "inv-monomial:k=3", "ricci:inner=sigma-root:k=2")


def catalog(n):
    """The six catalog operators at dimension n."""
    return [symfun.parse_operator(text, n) for text in CATALOG]


def head(op):
    """Operator family: the descriptor up to the first colon."""
    return op.descriptor().partition(":")[0]


def elementary_by_numpy(lam, k):
    """sigma_1 .. sigma_k of each row from ``numpy.poly``, without ``_poly``.

    ``numpy.poly(lam)`` holds the coefficients of ``prod (x - lam_i)``, whose
    j-th coefficient is ``(-1)^j sigma_j``.
    """
    lam = np.atleast_2d(lam)
    coef = np.array([np.poly(row) for row in lam])
    signs = (-1.0) ** np.arange(k + 1)
    return coef[:, 1:k + 1] * signs[1:]


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""

    def prepare(self):
        """Hooks installed once, after the tracer (if any)."""

    def failed(self, op, out):
        """True when the op's outcome is a failure of the program."""
        return False


# ---------------------------------------------------------------------------
# cone_sampling
# ---------------------------------------------------------------------------

class ConeSampling(Workload):
    """Garding inclusion sweep (criterion 4) and the axiom sweep (criterion 3).

    One op is one inclusion test at 10^5 samples, or the axiom sweep of the
    six catalog operators at one n with 10^4 samples each.
    """

    name = "cone_sampling"
    INCLUSION_SAMPLES = 100_000
    AXIOM_SAMPLES = 10_000
    #: one in SUBSAMPLE rows of every inclusion draw is kept for the checks
    SUBSAMPLE = 97
    #: relative accuracy of boundary_shift at its default tolerance
    LOCATE_TOL = 1e-12

    def __init__(self):
        self.draw = [None]

    def prepare(self):
        # Keep a strided copy of each sample_cone draw, so the checks see the
        # very points the inclusion test used.  Costs one slice per call.
        sample_cone, slot = cones.sample_cone, self.draw

        def keeping_draw(*args, **kwargs):
            out = sample_cone(*args, **kwargs)
            slot[0] = out[::self.SUBSAMPLE].copy()
            return out

        cones.sample_cone = keeping_draw

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        pairs = [(n, k) for n in (3, 4, 5, 6) for k in range(2, n + 1)]
        return {
            "inclusion": [(n, k, int(rng.integers(2 ** 31))) for n, k in pairs],
            "axioms": [(n, int(rng.integers(2 ** 31))) for n in (3, 4, 5)],
        }

    def _inclusion(self, n, k, seed, samples):
        report = cones.gamma_sigma_inclusion_test(k, n, samples, seed=seed)
        return {"kind": "inclusion", "n": n, "k": k, "requested": samples,
                "report": report.to_dict(), "draw": self.draw[0]}

    def _axioms(self, n, seed, samples):
        reports = [symfun.verify_axioms(op, samples, seed=seed).to_dict()
                   for op in catalog(n)]
        return {"kind": "axioms", "n": n, "reports": reports}

    def ops(self, inp):
        out = [Op(f"inclusion n={n} k={k}",
                  lambda n=n, k=k, s=s: self._inclusion(n, k, s, self.INCLUSION_SAMPLES))
               for n, k, s in inp["inclusion"]]
        out += [Op(f"axioms n={n}",
                   lambda n=n, s=s: self._axioms(n, s, self.AXIOM_SAMPLES))
                for n, s in inp["axioms"]]
        return out

    def warmup(self, inp):
        n, k, s = inp["inclusion"][0]
        self._inclusion(n, k, s, 1000)
        self._axioms(3, inp["axioms"][0][1], 500)

    def check(self, op, out, inp):
        if out["kind"] == "axioms":
            return [f"{op.label}: {r['operator']} violations {r['violations']}"
                    for r in out["reports"] if r["total_violations"] != 0]
        problems = []
        n, k, rep = out["n"], out["k"], out["report"]
        if rep["violations"] != 0 or not rep["worst_margin"] > 0.0:
            problems.append(f"{op.label}: {rep['violations']} violations, "
                            f"worst margin {rep['worst_margin']}")
        if rep["samples"] != out["requested"]:
            problems.append(f"{op.label}: {rep['samples']} samples, "
                            f"{out['requested']} requested")
        draw = out["draw"]
        if draw is None or draw.shape[1] != n:
            return problems + [f"{op.label}: no draw captured"]
        if draw.shape[0] != -(-out["requested"] // self.SUBSAMPLE):
            problems.append(f"{op.label}: draw has the wrong number of rows")
        s = elementary_by_numpy(draw, k)
        if not np.all(s > 0.0):
            problems.append(f"{op.label}: {int(np.sum(~np.all(s > 0, axis=1)))} "
                            f"drawn points outside Gamma_{k}")
        problems += self._check_boundary(op.label, n, k, draw)
        return problems

    @staticmethod
    def _check_boundary(label, n, k, lam):
        """At lam + t* (1,..,1): sigma_k = 0 to the located accuracy, and
        sigma_1 .. sigma_{k-1} > 0.

        Bound on |sigma_k|: the slope d/dt sigma_k(lam + t 1) =
        (n-k+1) sigma_{k-1} times the documented accuracy of the shift,
        LOCATE_TOL (1 + 2|t|), plus rounding of a k-fold product sum,
        16 n C(n,k) eps max|mu|^k.
        """
        t = cones.boundary_shift(cones.GammaK(n, k), lam)
        mu = lam + t[:, None]
        s = elementary_by_numpy(mu, k)
        scale = np.max(np.abs(mu), axis=1)
        bound = ((n - k + 1) * np.abs(s[:, k - 2] if k >= 2 else 1.0)
                 * ConeSampling.LOCATE_TOL * (1.0 + 2.0 * np.abs(t))
                 + 16.0 * n * math.comb(n, k) * EPS * scale ** k)
        problems = []
        off = np.abs(s[:, k - 1]) > bound
        if np.any(off):
            worst = float(np.max(np.abs(s[:, k - 1]) / bound))
            problems.append(f"{label}: sigma_{k} off zero at {int(off.sum())} boundary "
                            f"points (worst {worst:.3g} x bound)")
        if k > 1 and not np.all(s[:, :k - 1] > 0.0):
            problems.append(f"{label}: lower sigma_j <= 0 at boundary points")
        return problems


# ---------------------------------------------------------------------------
# operator_batch
# ---------------------------------------------------------------------------

class OperatorBatch(Workload):
    """value, gradient, hessian_quadform and admissible for every catalog
    operator at n = 3..6 on 10^5-tuple batches drawn in setup.

    One op is one n: the four evaluations of all six operators.
    """

    name = "operator_batch"
    BATCH = 100_000
    CHECK_ROWS = 1000
    # Tolerances, in units of float64 eps or from the finite-difference step.
    # Worst values seen on seeds 1-3 are given for scale.
    #: Euler identity, relative to |f| + sum |lam_i g_i| (worst 3.6 eps)
    EULER_TOL = 64 * EPS
    #: quadform(lam, lam) and positive quadform(lam, b), relative to the
    #: Hessian scale (|f| + sum |lam_i g_i|) |b|^2 / |lam|^2 (worst 41 eps)
    QUADFORM_TOL = 1024 * EPS
    #: central differences with step h = eps^(1/3) max|lam_i|: the truncation
    #: error (h/d)^2 is below 4e-5 at the smallest inward step d = 1e-3 max|lam_i|
    #: of sample_cone; rounding adds eps^(2/3) = 4e-11 (worst 1.8e-6)
    FD_STEP = EPS ** (1.0 / 3.0)
    FD_TOL = 1e-4
    #: sigma-root vs numpy.poly, relative, per unit of the condition number
    #: sum_{i<j} |lam_i lam_j| / sigma_2 (worst 1.5 eps)
    SIGMA_ROOT_TOL = 16 * EPS

    @staticmethod
    def batch_key(op):
        """Gamma_2 holds the cones of sigma-root:k=2, quotient:k=2,l=1 and
        ricci (Gamma_2 lies in the Ricci cone); the positive cone Gamma_n holds
        the cones of inv-power, inv-monomial and pucci.  Two draws per n
        instead of six keep the repeated setup short."""
        return (op.n, 2 if head(op) in ("sigma-root", "quotient", "ricci") else op.n)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        batches, directions = {}, {}
        for n in (3, 4, 5, 6):
            for k in (2, n):
                batches[(n, k)] = cones.sample_cone(cones.GammaK(n, k), self.BATCH, rng)
            directions[n] = rng.standard_normal((self.BATCH, n))
        return {"batches": batches, "directions": directions}

    @staticmethod
    def _evaluate(ops, batch_of, b):
        out = {}
        for op in ops:
            lam = batch_of(op)
            out[op.descriptor()] = {
                "value": op.value(lam),
                "gradient": op.gradient(lam),
                "quadform": op.hessian_quadform(lam, b),
                "admissible": op.admissible(lam),
            }
        return out

    def ops(self, inp):
        def run(n):
            return {"n": n, "results": self._evaluate(
                catalog(n), lambda op: inp["batches"][self.batch_key(op)],
                inp["directions"][n])}

        return [Op(f"catalog n={n}", lambda n=n: run(n)) for n in (3, 4, 5, 6)]

    def warmup(self, inp):
        for n in (3, 4, 5, 6):
            self._evaluate(catalog(n),
                           lambda op: inp["batches"][self.batch_key(op)][:256],
                           inp["directions"][n][:256])

    def check(self, op, out, inp):
        problems = []
        n = out["n"]
        for spec in catalog(n):
            desc = spec.descriptor()
            res = out["results"][desc]
            lam = inp["batches"][self.batch_key(spec)]
            b = inp["directions"][n]
            f, g, q = res["value"], res["gradient"], res["quadform"]
            where = f"{op.label} {desc}"
            if not np.all(res["admissible"]):
                problems.append(f"{where}: drawn tuples not admissible")
            if not np.all(f > 0.0):
                problems.append(f"{where}: value not positive")
            if not np.all(g > 0.0):
                problems.append(f"{where}: gradient not positive")
            terms = np.sum(np.abs(lam * g), axis=1) + np.abs(f)
            euler = np.abs(np.sum(lam * g, axis=1) - f) / terms
            if not np.all(euler <= self.EULER_TOL):
                problems.append(f"{where}: Euler identity off by {np.max(euler):.3g}")
            # Hessian scale along b (degree-1 homogeneity): terms |b|^2 / |lam|^2
            hscale = terms * np.sum(b * b, axis=1) / np.sum(lam * lam, axis=1)
            conc = q / hscale
            if not np.all(conc <= self.QUADFORM_TOL):
                problems.append(f"{where}: quadform positive, up to {np.max(conc):.3g}")
            m = self.CHECK_ROWS
            sub, fs, gs = lam[:m], f[:m], g[:m]
            # along b = lam the Hessian scale is terms itself
            qq = spec.hessian_quadform(sub, sub) / terms[:m]
            if not np.all(np.abs(qq) <= self.QUADFORM_TOL):
                problems.append(f"{where}: quadform(lam, lam) off zero by "
                                f"{np.max(np.abs(qq)):.3g}")
            problems += self._check_fd(where, spec, sub, gs)
            if head(spec) == "sigma-root":   # k = 2 in the catalog
                s2 = elementary_by_numpy(sub, 2)[:, 1]
                a = np.abs(sub)
                cond = (np.sum(a, axis=1) ** 2 - np.sum(a * a, axis=1)) / (2.0 * s2)
                want = s2 ** 0.5
                rel = np.abs(fs - want) / want
                if not np.all(rel <= self.SIGMA_ROOT_TOL * cond):
                    problems.append(f"{where}: differs from numpy.poly by {np.max(rel):.3g}")
        return problems

    def _check_fd(self, where, spec, lam, g):
        scale = np.max(np.abs(lam), axis=1)
        h = self.FD_STEP * scale
        if head(spec) == "pucci":
            # skip rows whose k-th and (k+1)-th entries lie within the step
            ls = np.sort(lam, axis=1)
            keep = ls[:, spec.k] - ls[:, spec.k - 1] > 4.0 * h
            lam, g, h = lam[keep], g[keep], h[keep]
        fd = np.empty_like(lam)
        for i in range(lam.shape[1]):
            e = np.zeros(lam.shape[1])
            e[i] = 1.0
            step = h[:, None] * e
            fd[:, i] = (spec.value(lam + step) - spec.value(lam - step)) / (2.0 * h)
        err = np.max(np.abs(fd - g), axis=1) / np.max(np.abs(g), axis=1)
        if not np.all(err <= self.FD_TOL):
            return [f"{where}: gradient vs central differences off by {np.max(err):.3g}"]
        return []


# ---------------------------------------------------------------------------
# radial_solve
# ---------------------------------------------------------------------------

class RadialSolve(Workload):
    """Solver part of ``solver_geometry``.

    ``newton_solve`` on the sigma_2-root bubble annulus (n = 4, [0.1, 2],
    sin_amplitude 0.05) at grids 64, 256, 1024, 4096, plus the five-step
    exponent continuation at grid 64 on [0.5, 2] (criterion 7).

    Ops: the grid-1024 solve, the grid-4096 solve, and one pass over the
    grid-64 and grid-256 solves and the continuation, so that ops have
    comparable cost.  The problem is the fixed one of the acceptance
    suite; the seed does not enter, because the grid-1024 and grid-4096
    solves fail by a known fault and a failing op must not depend on it.
    """

    N_DIM = 4
    #: sup |v - v_b| <= C h^2; sup-error * N^2 is 1.22 at every grid, i.e.
    #: C = 0.34 with h = 1.9 / N
    H2_CONSTANT = 1.0
    CONTINUATION_JUMP = 0.2

    def inputs(self, seed):
        op = symfun.parse_operator("sigma-root:k=2", self.N_DIM)
        rhs = 2.0 * math.sqrt(6.0)   # f(2,..,2) for sigma_2 root at n = 4

        def bubble(r):
            return (1.0 + r * r) ** (-(self.N_DIM - 2) / 2.0)

        def cfg(grid, r0, amplitude):
            guess = {"kind": "profile", "name": "bubble:scale=1"}
            if amplitude:
                guess["sin_amplitude"] = amplitude
            return radial_solver.SolverConfig(
                operator=op, domain=(r0, 2.0), grid=grid, rhs=rhs,
                boundary_left=bubble(r0), boundary_right=bubble(2.0),
                initial_guess=guess)

        base = cfg(64, 0.5, 0.0)
        p0 = base.natural_exponent
        return {
            "solves": {g: cfg(g, 0.1, 0.05) for g in (64, 256, 1024, 4096)},
            "continuation": (base, [p0 + 0.25 * i for i in range(5)]),
        }

    @staticmethod
    def _solve(config):
        worst = []
        res = radial_solver.newton_solve(
            config, iterate_hook=lambda v, m: worst.append(float(np.max(m))))
        return {"grid": config.grid, "r": res.r, "v": res.v,
                "converged": res.converged, "message": res.message,
                "worst_margin": max(worst)}

    @staticmethod
    def _continue(base, schedule):
        results = radial_solver.continuation_p(base, schedule)
        return {"converged": [r.converged for r in results],
                "profiles": [r.v for r in results], "requested": len(schedule)}

    def ops(self, inp):
        solves = inp["solves"]

        def ladder():
            return {"solves": [self._solve(solves[64]), self._solve(solves[256])],
                    "continuation": self._continue(*inp["continuation"])}

        return [Op("grid 64 + grid 256 + continuation", ladder),
                Op("grid 1024", lambda: {"solves": [self._solve(solves[1024])]}),
                Op("grid 4096", lambda: {"solves": [self._solve(solves[4096])]})]

    def warmup(self, inp):
        self._solve(inp["solves"][64])
        self._continue(*inp["continuation"])

    def failed(self, op, out):
        # Known fault: at grid >= 512 the fixed residual_tol 1e-10 lies below
        # the rounding floor (~eps/h^2), so these solves end in "damping
        # underflow" although their error is O(h^2).
        ok = all(s["converged"] for s in out["solves"])
        if "continuation" in out:
            ok = ok and all(out["continuation"]["converged"])
        return not ok

    def check(self, op, out, inp):
        problems = []
        n = self.N_DIM
        for s in out["solves"]:
            where = f"{op.label}: grid {s['grid']}"
            r, v = s["r"], s["v"]
            h = (r[-1] - r[0]) / s["grid"]
            err = float(np.max(np.abs(v - (1.0 + r * r) ** (-(n - 2) / 2.0))))
            if not err <= self.H2_CONSTANT * h * h:
                problems.append(f"{where}: sup error {err:.3g} > C h^2")
            if not s["worst_margin"] < 0.0:
                problems.append(f"{where}: an accepted iterate left the cone")
        cont = out.get("continuation")
        if cont is not None:
            if len(cont["converged"]) != cont["requested"] or not all(cont["converged"]):
                problems.append(f"{op.label}: continuation stopped: {cont['converged']}")
            for a, b in zip(cont["profiles"], cont["profiles"][1:]):
                if not float(np.max(np.abs(a - b))) < self.CONTINUATION_JUMP:
                    problems.append(f"{op.label}: continuation profiles jump")
        return problems


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

class Geometry(Workload):
    """Geometry part of ``solver_geometry``: one op is a pass over pointwise
    Schouten eigenvalues, estimate monitors, blow-up rescaling, Bishop-Gromov
    curves and Harnack exponents, sized to the cost of a solver op.
    """

    POINTS_PER_N = 36
    SAMPLED_MONITOR = 1024
    BLOWUP_SCALES = (0.5, 0.25, 0.125)
    SAMPLED_OSCILLATION = 1024
    CURVE_RADII = 16

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        points = []
        for n in (3, 4, 5, 6):
            for _ in range(self.POINTS_PER_N):
                x = rng.standard_normal(n)
                x *= rng.uniform(0.3, 2.0) / np.linalg.norm(x)
                points.append({
                    "x": x, "n": n,
                    "center": 0.3 * rng.standard_normal(n),
                    "scale": float(rng.uniform(0.3, 2.0)),
                    "coefficient": float(rng.uniform(0.5, 2.0)),
                })
        return {
            "points": points,
            "monitor_center": 0.2 * rng.standard_normal(4),
            "monitor_scale": float(rng.uniform(0.3, 1.0)),
            "oscillation_center": 0.2 * rng.standard_normal(4),
            "flat_radii": np.sort(rng.uniform(0.1, 2.0, self.CURVE_RADII)),
            "sphere_radii": np.sort(rng.uniform(0.3, np.pi, self.CURVE_RADII)),
            "harnack": [(float(rng.uniform(0.0, 0.99 / (n - 2))), n)
                        for n in (3, 4, 5, 6) for _ in range(4)],
        }

    @staticmethod
    def _lifted(b):
        """The bubble plus 0.2: a profile whose eigenvalues vary in space."""
        fun = b.fun
        return conformal.RadialProfile(lambda s: fun(s) + 0.2, b.d1, b.d2, b.n,
                                       center=b.center)

    @staticmethod
    def _eigenvalues(points):
        bubble, inversion, sphere, kelvin = [], [], [], []
        for p in points:
            n, x = p["n"], p["x"]
            b = conformal.bubble_profile(n, scale=p["scale"], center=p["center"])
            bubble.append(conformal.schouten_eigs(b, x))
            inversion.append(conformal.schouten_eigs(
                conformal.inversion_profile(n, coefficient=p["coefficient"]), x))
            sphere.append(conformal.schouten_eigs(conformal.constant_profile(
                n, 1.0, background=conformal.SphereBackground(n, 1.0)), x))
            kelvin.append(conformal.schouten_eigs(conformal.kelvin(Geometry._lifted(b)), x))
        return {"bubble": bubble, "inversion": inversion, "sphere": sphere,
                "kelvin": kelvin}

    def _monitors(self, inp, samples):
        n, eps = 4, inp["monitor_scale"]
        centred = conformal.bubble_profile(n, scale=eps)
        shifted = conformal.bubble_profile(n, scale=eps, center=inp["monitor_center"])
        out = {"n": n, "scale": eps}
        for key, prof, kw in (("centred", centred, {}),
                              ("shifted", shifted, {"num_samples": samples})):
            out[key] = (diagnostics.gradient_monitor(prof, 1.0, **kw).supremum,
                        diagnostics.hessian_monitor(prof, 1.0, **kw).supremum)
        return out

    def _blowup(self, inp, samples):
        n = 4
        rows = []
        for eps in self.BLOWUP_SCALES:
            family = conformal.bubble_profile(n, scale=eps)
            monitor = diagnostics.gradient_monitor(family, 1.0)
            x_k = np.zeros(n)
            x_k[0] = monitor.location
            rescaled = diagnostics.blowup_rescale(family, x_k)
            shifted = diagnostics.blowup_rescale(
                conformal.bubble_profile(n, scale=eps, center=inp["oscillation_center"]),
                x_k)
            rows.append({
                "scale": eps, "sup": monitor.supremum, "centre_value":
                    float(rescaled.value(np.zeros(n))),
                "oscillation": diagnostics.oscillation_on_ball(rescaled, 1.0),
                "sampled_oscillation": diagnostics.oscillation_on_ball(
                    shifted, 1.0, num_samples=samples),
            })
        return {"n": n, "rows": rows}

    @staticmethod
    def _volume(inp):
        flat = conformal.constant_profile(3, 1.0, gauge="u")
        sphere = conformal.RadialProfile(
            lambda s: (1.0 + np.asarray(s, dtype=float) ** 2) / 2.0,
            lambda s: np.asarray(s, dtype=float),
            lambda s: np.ones_like(np.asarray(s, dtype=float)),
            3, gauge="u")
        return {
            "flat": diagnostics.bishop_gromov_curve(flat, inp["flat_radii"]).ratios,
            "sphere": diagnostics.bishop_gromov_curve(sphere, inp["sphere_radii"]).ratios,
            "harnack": [diagnostics.harnack_beta(d, n) for d, n in inp["harnack"]],
        }

    def ops(self, inp):
        def geometry_pass():
            return {"eigenvalues": self._eigenvalues(inp["points"]),
                    "monitors": self._monitors(inp, self.SAMPLED_MONITOR),
                    "blowup": self._blowup(inp, self.SAMPLED_OSCILLATION),
                    "volume": self._volume(inp)}

        return [Op("geometry pass", geometry_pass)]

    def warmup(self, inp):
        self._eigenvalues(inp["points"][:1] + inp["points"][-1:])
        self._monitors(inp, 16)
        self._blowup(inp, 16)
        self._volume({**inp, "flat_radii": inp["flat_radii"][:1],
                      "sphere_radii": inp["sphere_radii"][:1]})

    def check(self, op, out, inp):
        problems = []
        for group, res in out.items():
            problems += getattr(self, "_check_" + group)(f"{op.label}: {group}", res, inp)
        return problems

    def _check_eigenvalues(self, label, out, inp):
        problems = []
        points = inp["points"]
        for i, p in enumerate(points):
            x = p["x"]
            if not np.max(np.abs(out["bubble"][i] - 2.0)) < 1e-8:
                problems.append(f"{label}: bubble eigenvalues {out['bubble'][i]} != 2")
            if not np.max(np.abs(out["inversion"][i])) < 1e-8:
                problems.append(f"{label}: inversion eigenvalues {out['inversion'][i]} != 0")
            if not np.max(np.abs(out["sphere"][i] - 0.5)) < 1e-10:
                problems.append(f"{label}: sphere eigenvalues {out['sphere'][i]} != 1/2")
            # Kelvin covariance: eig(K p, x) = eig(p, x / |x|^2)
            lifted = self._lifted(conformal.bubble_profile(
                p["n"], scale=p["scale"], center=p["center"]))
            want = conformal.schouten_eigs(lifted, x / float(x @ x))
            if not np.max(np.abs(out["kelvin"][i] - want)) < 1e-7 * (1.0 + np.max(np.abs(want))):
                problems.append(f"{label}: Kelvin eigenvalues at {x} differ from "
                                f"those at x/|x|^2")
        return problems

    @staticmethod
    def _dense_gradient_sup(n, eps, step=1e-4):
        """sup over s in [0, 1] of z(s) = (1 - s^2) (n-2) s / (eps^2 + s^2)
        from a dense scan refined by golden-section search, and the relative
        shortfall allowed to a scan of grid step ``step``: twice the
        ``|z''| (step/2)^2 / 2`` a grid maximum can miss, plus rounding."""
        def z(s):
            return (1.0 - s * s) * (n - 2) * s / (eps * eps + s * s)

        s = np.linspace(0.0, 1.0, 200_001)
        i = int(np.argmax(z(s)))
        a, b = s[max(i - 1, 0)], s[min(i + 1, s.size - 1)]
        g = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(100):
            c, d = b - g * (b - a), a + g * (b - a)
            if z(c) > z(d):
                b = d
            else:
                a = c
        top = 0.5 * (a + b)
        zmax = float(z(top))
        d2 = abs(z(top + 1e-4) - 2.0 * zmax + z(top - 1e-4)) / 1e-8
        return zmax, d2 * (step / 2.0) ** 2 / zmax + 1e-13

    def _check_monitors(self, label, out, inp):
        problems = []
        n, eps = out["n"], out["scale"]
        want, tol = self._dense_gradient_sup(n, eps)   # monitor grid step 1e-4
        grad_c, hess_c = out["centred"]
        if not abs(grad_c - want) <= tol * want:
            problems.append(f"{label}: gradient monitor {grad_c} vs dense scan {want}")
        # u = (eps^2 + |x - c|^2) / eps has Hessian (2 / eps) I everywhere
        if not abs(hess_c - 2.0 / eps) <= 1e-12 * (2.0 / eps):
            problems.append(f"{label}: hessian monitor {hess_c} != 2/eps")
        grad_s, hess_s = out["shifted"]
        if not 0.0 < grad_s <= (n - 2) / (2.0 * eps) * (1.0 + 1e-12):
            problems.append(f"{label}: sampled gradient monitor {grad_s} out of range")
        if not 0.5 * (2.0 / eps) < hess_s <= (2.0 / eps) * (1.0 + 1e-12):
            problems.append(f"{label}: sampled hessian monitor {hess_s} out of range")
        return problems

    def _check_blowup(self, label, out, inp):
        problems = []
        rows = out["rows"]
        for row in rows:
            want, tol = self._dense_gradient_sup(out["n"], row["scale"])
            if not abs(row["sup"] - want) <= tol * want:
                problems.append(f"{label}: monitor {row['sup']} vs dense scan {want}")
            if row["centre_value"] != 1.0:
                problems.append(f"{label}: rescaled value at 0 is {row['centre_value']}")
            if not 0.0 < row["sampled_oscillation"] < np.inf:
                problems.append(f"{label}: sampled oscillation {row['sampled_oscillation']}")
        sups = [r["sup"] for r in rows]
        osc = [r["oscillation"] for r in rows]
        if not (sups[0] < sups[1] < sups[2] and osc[0] > osc[1] > osc[2]):
            problems.append(f"{label}: monitors {sups} / oscillations {osc} not monotone")
        return problems

    def _check_volume(self, label, out, inp):
        problems = []
        if not np.max(np.abs(out["flat"] - 1.0)) < 1e-9:
            problems.append(f"{label}: flat ratios {out['flat']} != 1")
        r = inp["sphere_radii"]
        q = 3.0 * (2.0 * r - np.sin(2.0 * r)) / (4.0 * r ** 3)
        if not np.max(np.abs(out["sphere"] - q)) < 1e-9:
            problems.append(f"{label}: sphere ratios differ from 3(2r - sin 2r)/(4r^3) "
                            f"by {np.max(np.abs(out['sphere'] - q)):.3g}")
        for (d, n), beta in zip(inp["harnack"], out["harnack"]):
            want = (1.0 - d * (n - 2)) / (1.0 + d)
            if not abs(beta - want) <= 4 * EPS:
                problems.append(f"{label}: harnack beta({d}, {n}) = {beta} != {want}")
        return problems


# ---------------------------------------------------------------------------
# solver_geometry
# ---------------------------------------------------------------------------

class SolverGeometry(Workload):
    """The radial solver and the geometry pass in one workload.

    Both are bound by per-call Python overhead, which the machine's speed
    swings hit hardest; as separate 20 s workloads their times spread by up
    to 0.28 (IQR over median) across runs.  One workload lets the run
    budget give each run a longer window.  The ops keep their own inputs,
    checks and failure rule.
    """

    name = "solver_geometry"

    def __init__(self):
        self.parts = (RadialSolve(), Geometry())
        self.owner = {}

    def inputs(self, seed):
        return [part.inputs(seed) for part in self.parts]

    def ops(self, inp):
        out = []
        for part, part_inp in zip(self.parts, inp):
            for op in part.ops(part_inp):
                self.owner[op.label] = (part, part_inp)
                out.append(op)
        return out

    def warmup(self, inp):
        for part, part_inp in zip(self.parts, inp):
            part.warmup(part_inp)

    def failed(self, op, out):
        return self.owner[op.label][0].failed(op, out)

    def check(self, op, out, inp):
        part, part_inp = self.owner[op.label]
        return part.check(op, out, part_inp)


WORKLOADS = {w.name: w for w in (ConeSampling, OperatorBatch, SolverGeometry)}
