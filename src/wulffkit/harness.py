"""Property suites certifying the polar-duality geometry.

Each suite is a generator that draws seeded random configurations and
yields one check at a time as ``(trial_seed, label, value, target,
tolerance, passed, error_bound)``, so every row in the emitted CSV can
be re-validated from its own columns.  `run_suite` adds the suite and
dimension and times each check: its ``ms`` is the time since the
suite's previous yield, so the first check of a trial also counts the
trial's draws.  Trials use seeds ``cfg.seed + trial_index``; identical
configs produce identical rows (byte-identical CSV apart from ``ms``).
"""

import dataclasses
import functools
import math
import time

import numpy as np

from . import metric, oracles
from .body import (
    body_match_angle,
    from_generators,
    hemisphere_body,
    is_wulff_relative,
)
from .errors import GenerationError
from .geometry import (
    UnitPoint,
    _draw_cap,
    arc_point,
    as_unit_point,
    complement_basis,
    sample_cap,
    uniform_sphere_points,
)
from .transforms import double_polar, polar, polar_antitone_check

#: sample count for the dilation-identity membership comparison
IDENTITY_SAMPLES = 10_000

#: dilation steps used by the approximation suite
APPROX_STEPS = (4, 8, 16, 32)

#: tangent directions per ring of a dilation approximant
RING_COUNT = 16


@dataclasses.dataclass(frozen=True)
class SuiteConfig:
    """Configuration shared by all suites.

    dim is the sphere dimension n (bodies live on S^n in R^{n+1}).
    """

    suite: str
    trials: int = 10
    dim: int = 2
    seed: int = 0
    tolerance: float = 1e-8
    sampling_resolution: float | None = None

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(
                f"unknown suite {self.suite!r}; known: {', '.join(SUITE_NAMES)}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"sphere dimension must be 1, 2, or 3, got {self.dim}")
        if self.sampling_resolution is not None:
            metric._check_resolution(self.sampling_resolution)
        if not (self.tolerance >= 0.0):
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")


@dataclasses.dataclass(frozen=True)
class PropertyReport:
    """One checked quantity and the bound it was checked against."""

    suite: str
    trial_seed: int
    ambient_dim: int
    label: str
    value: float
    bound_or_target: float
    tolerance: float
    passed: bool
    error_bound: float | None
    wall_time_ms: float


# ---------------------------------------------------------------------------
# random shape generation
# ---------------------------------------------------------------------------


def pole_axis(dim):
    """The last coordinate axis of R^{dim+1} as the reference pole."""
    v = np.zeros(dim + 1)
    v[dim] = 1.0
    return UnitPoint(v)


@functools.cache
def _regular_simplex(m):
    """m+1 unit vectors in R^m with pairwise dot -1/m (deterministic).

    Built once per m; the cached array is read-only."""
    A = np.eye(m + 1) - np.full((m + 1, m + 1), 1.0 / (m + 1))
    _, _, Vt = np.linalg.svd(A)
    B = A @ Vt[:m].T
    B = B / np.linalg.norm(B, axis=1)[:, None]
    B.flags.writeable = False
    return B


def gen_wulff(p, k, rho, seed):
    """Random full-dimensional body with p interior and inside cap(p, rho).

    Draws k points in the open cap of radius rho around p (sample seed
    ``seed << 7``), adds a small regular simplex of tangent radius 0.02
    around p, and hulls everything.  The draw is valid by construction:
    every cap point g has g.p > cos(pi/2 - 0.05) = sin 0.05, and the
    simplex keeps p at depth about 0.02/n inside every facet, both far
    above the feasibility tolerance.  A body that still fails the Wulff
    test raises GenerationError.
    """
    n = p.ambient_dim
    if k < n + 2:
        raise ValueError(f"need at least {n + 2} cap points on S^{n}, got {k}")
    rho = float(rho)
    if not (0.0 < rho < math.pi / 2.0 - 0.05):
        raise ValueError(f"cap radius must lie in (0, pi/2 - 0.05), got {rho}")
    tangent = complement_basis(p)
    simplex = _regular_simplex(n)
    tilt = 0.02
    fixed = math.cos(tilt) * p.vec[None, :] + math.sin(tilt) * (simplex @ tangent)
    pts = _draw_cap(p.vec, tangent, rho, int(seed) << 7, k)
    body = from_generators(np.vstack([pts, fixed]))
    if not is_wulff_relative(body, p):
        raise GenerationError(
            f"drawn body is not a Wulff shape around its pole "
            f"(seed {seed}, k {k}, rho {rho})"
        )
    return body


def cap_polytope(center, radius, count, phase=0.0):
    """Hull of `count` points on the boundary circle of cap(center, radius).

    On S^1 the boundary has two points and `count` is ignored.
    """
    c = as_unit_point(center)
    B = complement_basis(c)
    radius = float(radius)
    if B.shape[0] == 1:
        dirs = np.vstack([B[0], -B[0]])
    else:
        ang = phase + 2.0 * math.pi * np.arange(count) / count
        dirs = np.cos(ang)[:, None] * B[0] + np.sin(ang)[:, None] * B[1]
    pts = math.cos(radius) * c.vec[None, :] + math.sin(radius) * dirs
    return from_generators(pts)


def rotate_body(body, angle):
    """Rotate a body in the plane of the first two coordinate axes."""
    R = np.eye(body.generator_array.shape[1])
    c, s = math.cos(angle), math.sin(angle)
    R[:2, :2] = [[c, -s], [s, c]]
    return from_generators(body.generator_array @ R.T)


def _mirror_through(p, a):
    """Reflection of a through the axis of p (stays on the sphere)."""
    return 2.0 * float(a @ p) * p - a


def gen_convex_body(pole, kind, rng):
    """A random convex body of the requested kind inside cap(pole, ~1.3).

    Kinds: "hull" (full-dimensional), "arc" (two generators), "point",
    "wide_cap" (boundary polytope of a nearly quarter-turn cap).
    """
    n = pole.ambient_dim
    if kind == "point":
        return from_generators(sample_cap(pole, 0.9, int(rng.integers(2**63)), 1))
    if kind == "arc":
        a = sample_cap(pole, 1.0, int(rng.integers(2**63)), 1)
        b = sample_cap(pole, 1.0, int(rng.integers(2**63)), 1)
        return from_generators(np.vstack([a, b]))
    if kind == "wide_cap":
        radius = rng.uniform(1.25, math.pi / 2.0 - 0.1)
        count = max(2 * n + 2, 8)
        return cap_polytope(pole, radius, count, phase=rng.uniform(0.0, 1.0))
    if kind == "hull":
        k = int(rng.integers(n + 2, n + 7))
        rho = rng.uniform(0.2, 1.3)
        return gen_wulff(pole, k, rho, int(rng.integers(2**63)))
    raise ValueError(f"unknown body kind {kind!r}")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _exact_hausdorff(a, b):
    value, err, path = metric.hausdorff_with_bound(a, b)
    if path != "exact":
        raise AssertionError("expected the exact distance path for this pair")
    return float(value)


def _trials(cfg):
    """(trial index, trial seed, trial rng) for each trial of a config."""
    for t in range(cfg.trials):
        ts = cfg.seed + t
        yield t, ts, np.random.default_rng(ts)


def _draw_wulff(p, rng, dim):
    """A gen_wulff body around p: dim+2 to dim+7 cap points, rho in [0.1, 1.2)."""
    return gen_wulff(
        p,
        int(rng.integers(dim + 2, dim + 8)),
        rng.uniform(0.1, 1.2),
        int(rng.integers(2**63)),
    )


def _center_and_tangent(dim, ts, rng):
    """A uniform point of S^dim and one of its complement basis vectors."""
    p1 = UnitPoint(uniform_sphere_points(dim, 1, ts)[0])
    tangent = complement_basis(p1)
    return p1, tangent[int(rng.integers(tangent.shape[0]))]


def _toward(p1, u, spread):
    """The point at geodesic distance `spread` from p1 along tangent u."""
    return UnitPoint(math.cos(spread) * p1.vec + math.sin(spread) * u)


def suite_isometry(cfg):
    """Hausdorff distance is preserved by the polar transform.

    Per trial: two random full-dimensional bodies around the pole, both
    with the pole interior; measures the gap between the primal and the
    dual Hausdorff distances on the exact distance path.
    """
    p = pole_axis(cfg.dim)
    for _, ts, rng in _trials(cfg):
        w1 = _draw_wulff(p, rng, cfg.dim)
        w2 = _draw_wulff(p, rng, cfg.dim)
        h_primal = _exact_hausdorff(w1, w2)
        delta = abs(_exact_hausdorff(polar(w1), polar(w2)) - h_primal)
        ok = delta <= cfg.tolerance
        yield ts, "dual_vs_primal_gap", delta, 0.0, cfg.tolerance, ok, None


_BILIPSCHITZ_KINDS = (
    ("hull", "hull"),
    ("hull", "arc"),
    ("wide_cap", "hull"),
    ("arc", "arc"),
    ("point", "hull"),
)


def suite_bilipschitz(cfg):
    """The polar transform distorts Hausdorff distance by at most 2.

    Per trial: a pair from a broader class (full hulls, wide caps,
    arcs, points) around a common pole; measures how far the dual
    distance escapes the sandwich [h/2, 2h].  Sampled paths contribute
    their error bounds to the allowed slack.
    """
    p = pole_axis(cfg.dim)
    for t, ts, rng in _trials(cfg):
        kind_a, kind_b = _BILIPSCHITZ_KINDS[t % len(_BILIPSCHITZ_KINDS)]
        a = gen_convex_body(p, kind_a, rng)
        b = gen_convex_body(p, kind_b, rng)
        h, e_primal, _ = metric.hausdorff_with_bound(a, b, cfg.sampling_resolution)
        hd, e_dual, _ = metric.hausdorff_with_bound(
            polar(a), polar(b), cfg.sampling_resolution
        )
        excess = max(0.5 * float(h) - float(hd), float(hd) - 2.0 * float(h))
        err = 2.0 * e_primal + e_dual
        ok = excess <= cfg.tolerance + err
        yield ts, "sandwich_excess", excess, 0.0, cfg.tolerance, ok, err


_TIGHTNESS_GAMMAS = (0.5, 0.1, 0.01)


def suite_tightness(cfg):
    """The constant 2 in the sandwich is approached but never reached.

    Hemisphere pairs with centers pi - gamma apart have dual distance
    pi - gamma (singleton duals) and primal distance pi/2 (hemisphere
    closed form), so the ratio is 2 - 2*gamma/pi < 2.
    """
    for _, ts, rng in _trials(cfg):
        p1, u = _center_and_tangent(cfg.dim, ts, rng)
        for gamma in _TIGHTNESS_GAMMAS:
            p2 = _toward(p1, u, math.pi - gamma)
            dual_dist = _exact_hausdorff(
                from_generators(p1.vec[None, :]), from_generators(p2.vec[None, :])
            )
            ratio = dual_dist / float(metric.hemisphere_hausdorff(p1, p2))
            target = 2.0 - 2.0 * gamma / math.pi
            ok = target - cfg.tolerance <= ratio < 2.0
            yield ts, f"ratio_gamma_{gamma}", ratio, target, cfg.tolerance, ok, None


def suite_double_dual(cfg):
    """Applying the polar transform twice recovers the body.

    Two fixed special cases (single point, hemisphere) followed by one
    random pointed hull per trial; measures the generator matching gap
    between the double polar and the original.
    """
    p = pole_axis(cfg.dim)

    def row(ts, label, body):
        # a gap within tolerance is the test bodies_equal applies
        gap = body_match_angle(double_polar(body), body)
        return ts, label, gap, 0.0, cfg.tolerance, gap <= cfg.tolerance, None

    yield row(cfg.seed, "roundtrip_gap_point", from_generators(p.vec[None, :]))
    yield row(cfg.seed, "roundtrip_gap_hemisphere", hemisphere_body(p))
    for _, ts, rng in _trials(cfg):
        pole = UnitPoint(uniform_sphere_points(cfg.dim, 1, ts)[0])
        pts = sample_cap(
            pole,
            rng.uniform(0.2, 1.4),
            int(rng.integers(2**63)),
            int(rng.integers(2, cfg.dim + 7)),
        )
        yield row(ts, "roundtrip_gap", from_generators(pts))


def suite_antitone(cfg):
    """Polarity reverses inclusions and preserves the Wulff class.

    Per trial: (1) a body and a shrunk copy inside it must have polars
    in the reversed inclusion; (2) the polar of a random body with the
    pole interior is again such a body, relative to the same pole.
    """
    p = pole_axis(cfg.dim)
    for _, ts, rng in _trials(cfg):
        outer = gen_wulff(
            p,
            int(rng.integers(cfg.dim + 2, cfg.dim + 8)),
            rng.uniform(0.2, 1.2),
            int(rng.integers(2**63)),
        )
        shrink = rng.uniform(0.2, 0.8)
        inner_pts = np.array(
            [arc_point(p, UnitPoint(g), shrink).vec for g in outer.generator_array]
        )
        ok = polar_antitone_check(from_generators(inner_pts), outer)
        yield ts, "reversed_inclusion", float(ok), 1.0, 0.0, ok, None
        ok = is_wulff_relative(polar(_draw_wulff(p, rng, cfg.dim)), p)
        yield ts, "dual_stays_wulff", float(ok), 1.0, 0.0, ok, None


def suite_metric_identities(cfg):
    """Hemisphere closed form and the dilation-intersection identity.

    Per trial: (1) the closed-form hemisphere Hausdorff distance against
    the generic sampled route; (2) membership agreement between the
    r-dilation of the polar body and the intersection of hemisphere
    dilations over the whole body.
    """
    p = pole_axis(cfg.dim)
    for _, ts, rng in _trials(cfg):
        p1, u = _center_and_tangent(cfg.dim, ts, rng)
        p2 = _toward(p1, u, rng.uniform(0.05, math.pi / 2.0))
        closed = float(metric.hemisphere_hausdorff(p1, p2))
        sampled, err, _ = metric.hausdorff_with_bound(
            hemisphere_body(p1), hemisphere_body(p2), cfg.sampling_resolution
        )
        gap = abs(closed - float(sampled))
        tol = max(cfg.tolerance, 2.0 * err)
        yield ts, "hemisphere_formula_gap", gap, 0.0, tol, gap <= tol, err
        w = _draw_wulff(p, rng, cfg.dim)
        r = rng.uniform(0.05, 1.55)
        bad, _ = metric.dilation_intersection_mismatches(
            w, r, IDENTITY_SAMPLES, int(rng.integers(2**63))
        )
        yield ts, "dilation_identity_mismatches", bad, 0.0, 0.0, bad == 0, None


def _ring_directions(dim):
    """About RING_COUNT well-spread tangent directions on S^{dim-1}."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = 2.0 * math.pi * np.arange(RING_COUNT) / RING_COUNT
        return np.column_stack([np.cos(ang), np.sin(ang)])
    spacing = 2.0 * math.pi / RING_COUNT * 2.2
    return oracles.sphere_grid(dim - 1, spacing).copy()


def dilation_approximant(body, radius):
    """Inscribed polytopal stand-in for the radius-dilation of a body.

    Hulls the body's generators with a ring of points at geodesic
    distance `radius` around each generator; the result contains the
    body and stays inside its radius-dilation.
    """
    G = body.generator_array
    d = G.shape[1]
    dirs = _ring_directions(d - 1)
    parts = [G]
    for g in G:
        B = complement_basis(UnitPoint(g))
        ring = math.cos(radius) * g[None, :] + math.sin(radius) * (dirs @ B)
        parts.append(ring)
    return from_generators(np.vstack(parts))


def suite_approximation(cfg):
    """Every convex body is a limit of valid full-dimensional bodies.

    Per trial: a point, arc, or full hull containing the pole is
    approximated from outside at shrinking radii 1/i; each approximant
    must be a valid body with the pole interior, distances must
    decrease, and the final distance must drop to a quarter of the
    first (up to the stated slack).
    """
    p = pole_axis(cfg.dim)
    kinds = ("point", "arc", "hull")
    for t, ts, rng in _trials(cfg):
        kind = kinds[t % len(kinds)]
        if kind == "point":
            w = from_generators(p.vec[None, :])
        elif kind == "arc":
            a = sample_cap(p, rng.uniform(0.2, 1.0), int(rng.integers(2**63)), 1)[0]
            b = UnitPoint(_mirror_through(p.vec, a))
            w = from_generators(np.vstack([a, b.vec]))
        else:
            w = gen_wulff(
                p,
                int(rng.integers(cfg.dim + 2, cfg.dim + 7)),
                rng.uniform(0.1, 1.0),
                int(rng.integers(2**63)),
            )
        distances = []
        all_valid = True
        for i in APPROX_STEPS:
            radius = 1.0 / i
            approx = dilation_approximant(w, radius)
            # the complementary cap constraint of the underlying
            # construction must stay inactive for the hull to represent
            # the clipped dilation
            outer = float(
                np.arccos(np.clip(approx.generator_array @ p.vec, -1.0, 1.0)).max()
            )
            if outer > math.pi / 2.0 - radius:
                break
            if not is_wulff_relative(approx, p):
                all_valid = False
            distances.append(_exact_hausdorff(approx, w))
        if len(distances) < len(APPROX_STEPS):
            yield ts, "construction_failed", 1.0, 0.0, 0.0, False, None
            continue
        monotone = max(0.0, max(b - a for a, b in zip(distances, distances[1:])))
        quarter = max(0.0, distances[-1] - distances[0] / 4.0)
        tol = cfg.tolerance
        yield ts, "approximants_valid", float(all_valid), 1.0, 0.0, all_valid, None
        yield ts, "monotone_violation", monotone, 0.0, tol, monotone <= tol, None
        yield ts, "quarter_ratio_excess", quarter, 0.0, tol, quarter <= tol, None


_SUITES = {
    "isometry": suite_isometry,
    "bilipschitz": suite_bilipschitz,
    "tightness": suite_tightness,
    "double_dual": suite_double_dual,
    "antitone": suite_antitone,
    "metric_identities": suite_metric_identities,
    "approximation": suite_approximation,
}

#: the suite names, in the order `verify --suite all` runs them
SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg):
    """Run one suite and return its reports, timed as the module says."""
    reports = []
    start = time.perf_counter()
    for ts, label, value, target, tol, passed, err in _SUITES[cfg.suite](cfg):
        now = time.perf_counter()
        reports.append(
            PropertyReport(
                suite=cfg.suite,
                trial_seed=int(ts),
                ambient_dim=int(cfg.dim),
                label=label,
                value=float(value),
                bound_or_target=float(target),
                tolerance=float(tol),
                passed=bool(passed),
                error_bound=None if err is None else float(err),
                wall_time_ms=1000.0 * (now - start),
            )
        )
        start = now
    return reports


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "suite",
    "trial_seed",
    "dim",
    "label",
    "value",
    "target",
    "tolerance",
    "error_bound",
    "pass",
    "ms",
)


def _fmt(x):
    return repr(float(x))


def report_rows(reports):
    """CSV cell rows (strings) for a list of reports."""
    rows = []
    for r in reports:
        rows.append(
            (
                r.suite,
                str(r.trial_seed),
                str(r.ambient_dim),
                r.label,
                _fmt(r.value),
                _fmt(r.bound_or_target),
                _fmt(r.tolerance),
                "" if r.error_bound is None else _fmt(r.error_bound),
                str(bool(r.passed)),
                _fmt(r.wall_time_ms),
            )
        )
    return rows


def write_csv(reports, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in report_rows(reports):
            fh.write(",".join(row) + "\n")


def summarize(reports):
    """Human-readable per-suite pass/fail summary."""
    lines = []
    by_suite = {}
    for r in reports:
        by_suite.setdefault(r.suite, []).append(r)
    for suite, rows in by_suite.items():
        passed = sum(1 for r in rows if r.passed)
        mark = "ok " if passed == len(rows) else "FAIL"
        lines.append(f"[{mark}] {suite}: {passed}/{len(rows)} checks passed")
        for r in rows:
            if not r.passed:
                lines.append(
                    f"       seed {r.trial_seed} {r.label}: value {r.value!r} "
                    f"target {r.bound_or_target!r} tol {r.tolerance!r}"
                )
    return "\n".join(lines)


def first_failing_suite(reports):
    """Name of the first suite with a failed report, or None."""
    for r in reports:
        if not r.passed:
            return r.suite
    return None
