"""Acceptance gate: the package's headline guarantees at full scale.

Every test here pins a quantitative contract of the library — sweep
sizes, tolerances, and runtime budgets are part of the contract and
must not be weakened.  Smaller, faster variants of the same properties
live in the per-module test files; this module is the final word.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from wulffkit import body, cones, harness, metric, oracles, transforms
from wulffkit.geometry import complement_basis, uniform_sphere_points

S2_POLE = harness.pole_axis(2)


def ray_set_match_angle(A, B):
    """Worst matched geodesic gap between two ray sets (inf on mismatch)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        return math.inf
    if A.shape[0] == 0:
        return 0.0
    diff = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    cost = 2.0 * np.arcsin(np.clip(diff / 2.0, 0.0, 1.0))
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def test_polar_isometry_600_pairs_within_budget():
    # 500 random pairs on the 2-sphere and 100 on the 3-sphere
    # (generators <= 12, cap radius <= 1.2): the polar transform must
    # preserve the Hausdorff distance to 1e-8 on the exact path, all
    # 600 pairs inside a 120 s budget.
    t0 = time.perf_counter()
    rows = harness.run_suite(
        harness.SuiteConfig(suite="isometry", trials=500, dim=2, seed=0, tolerance=1e-8)
    )
    rows += harness.run_suite(
        harness.SuiteConfig(suite="isometry", trials=100, dim=3, seed=0, tolerance=1e-8)
    )
    elapsed = time.perf_counter() - t0
    assert len(rows) == 600
    skipped = [r for r in rows if r.label.endswith("_skipped")]
    assert not skipped, f"{len(skipped)} pairs were not generated"
    bad = [r for r in rows if not r.passed]
    assert not bad, f"{len(bad)} isometry violations, worst {max(r.value for r in bad)}"
    assert max(r.value for r in rows) <= 1e-8
    assert elapsed <= 120.0, f"isometry sweep took {elapsed:.1f}s"


def test_bilipschitz_sandwich_500_pairs():
    # 500 random convex-body pairs: the dual Hausdorff distance stays in
    # [h/2 - tol, 2h + tol] with tol = 1e-8 on fully exact pairs and
    # 2 * resolution when any sampled path contributed; zero violations.
    plans = (
        dict(dim=1, trials=250, seed=1000, sampling_resolution=0.01),
        dict(dim=2, trials=230, seed=2000, sampling_resolution=0.01),
        dict(dim=3, trials=20, seed=3000, sampling_resolution=0.099),
    )
    total = 0
    for plan in plans:
        cfg = harness.SuiteConfig(suite="bilipschitz", tolerance=1e-8, **plan)
        rows = harness.run_suite(cfg)
        assert len(rows) == plan["trials"]
        for r in rows:
            assert r.passed
            allowed = 1e-8 if not r.error_bound else 2.0 * cfg.sampling_resolution
            assert r.value <= allowed, (
                f"dim {plan['dim']} seed {r.trial_seed}: sandwich excess "
                f"{r.value} > {allowed}"
            )
        total += len(rows)
    assert total == 500


def test_sandwich_constant_is_tight_but_never_reached():
    # hemispheres whose centers are pi - 0.01 apart: the dual pair is the
    # two centers (distance pi - 0.01), the primal distance saturates at
    # pi/2, so the distortion ratio is (pi - 0.01)/(pi/2) — inside
    # [1.993, 2) and never equal to 2.
    gamma = 0.01
    spread = math.pi - gamma
    p1 = np.array([0.0, 0.0, 1.0])
    p2 = np.array([math.sin(spread), 0.0, math.cos(spread)])
    h_bodies = float(metric.hemisphere_hausdorff(p1, p2))
    assert h_bodies == pytest.approx(math.pi / 2.0, abs=1e-15)
    d1 = transforms.polar(body.hemisphere_body(p1))
    d2 = transforms.polar(body.hemisphere_body(p2))
    assert d1.generator_array.shape[0] == d2.generator_array.shape[0] == 1
    h_duals, err, path = metric.hausdorff_with_bound(d1, d2)
    assert path == "exact" and err == 0.0
    ratio = float(h_duals) / h_bodies
    assert abs(ratio - spread / (math.pi / 2.0)) <= 1e-6
    assert 1.993 <= ratio < 2.0


def test_double_dual_recovers_200_bodies():
    # 200 random hemispherical hulls plus the two degenerate specials
    # (single point, full hemisphere): double polar equals the original
    # within 1e-9, zero failures.
    cfg = harness.SuiteConfig(
        suite="double_dual", trials=200, dim=2, seed=0, tolerance=1e-9
    )
    rows = harness.run_suite(cfg)
    assert len(rows) == 202
    labels = {r.label for r in rows}
    assert "roundtrip_gap_point" in labels
    assert "roundtrip_gap_hemisphere" in labels
    bad = [r for r in rows if not r.passed]
    assert not bad, f"{len(bad)} double-dual failures"
    assert max(r.value for r in rows) <= 1e-9


def test_dual_conversion_matches_bruteforce_200_sets():
    # double description vs the exact rational enumeration on 200 random
    # generator sets (ambient dims 2-4, at most 12 generators), mixing
    # dispersed and cap-concentrated draws: extreme-ray sets, lineality
    # included, equal within 1e-9.  The reference decides every sign and
    # rank exactly on the float rows, so a mismatch is the double
    # description's.
    rng = np.random.default_rng(12345)
    for t in range(200):
        d = 2 + t % 3
        m = int(rng.integers(d, 13))
        G = rng.normal(size=(m, d))
        if t % 2:
            G[:, -1] = np.abs(G[:, -1]) + 0.3
        G = cones.unitize(G)
        fast = cones.rays_with_lineality(*cones.dual_cone_rays(G))
        slow = cones.rays_with_lineality(*oracles.dual_cone_rays_exact(G))
        gap = ray_set_match_angle(fast, slow)
        assert gap <= 1e-9, f"set {t} (dim {d}, m {m}): ray mismatch {gap}"


def test_directed_distance_exact_vs_sampled_50_pairs():
    # 50 strictly hemispherical pairs (25 on each of S^1, S^2): the
    # exact directed distance agrees with dense sampling at resolution
    # 0.005 within twice the resolution, in both directions.
    delta = 0.005
    for t in range(50):
        dim = 1 if t < 25 else 2
        p = harness.pole_axis(dim)
        rng = np.random.default_rng(9000 + t)
        a = harness.gen_wulff(
            p, int(rng.integers(dim + 2, dim + 8)), rng.uniform(0.1, 1.2),
            int(rng.integers(2**63)),
        )
        b = harness.gen_wulff(
            p, int(rng.integers(dim + 2, dim + 8)), rng.uniform(0.1, 1.2),
            int(rng.integers(2**63)),
        )
        for src, dst in ((a, b), (b, a)):
            exact, err, path = metric.directed_distance_with_bound(src, dst)
            assert path == "exact" and err == 0.0, f"pair {t} not exact"
            sampled, res = metric.directed_distance_sampled(src, dst, delta)
            assert res == delta
            assert abs(float(exact) - float(sampled)) <= 2.0 * delta, (
                f"pair {t}: exact {float(exact)} vs sampled {float(sampled)}"
            )


def test_hemisphere_closed_form_100_pairs():
    # 100 hemisphere pairs with centers at most a quarter turn apart
    # (50 on S^1 at resolution 0.005, 50 on S^2 at 0.02): the closed-form
    # Hausdorff distance matches the generic sampled route within
    # max(1e-8, 2 * resolution).
    for t in range(100):
        dim, delta = (1, 0.005) if t < 50 else (2, 0.02)
        rng = np.random.default_rng(7000 + t)
        p = uniform_sphere_points(dim, 1, 7000 + t)[0]
        tangent = complement_basis(p)
        u = tangent[int(rng.integers(tangent.shape[0]))]
        spread = rng.uniform(0.05, math.pi / 2.0)
        q = math.cos(spread) * p + math.sin(spread) * u
        closed = float(metric.hemisphere_hausdorff(p, q))
        assert closed == pytest.approx(spread, abs=1e-12)
        sampled, err, path = metric.hausdorff_with_bound(
            body.hemisphere_body(p), body.hemisphere_body(q), delta
        )
        assert path == "sampled"
        assert abs(closed - float(sampled)) <= max(1e-8, 2.0 * delta), (
            f"pair {t}: closed {closed} vs sampled {float(sampled)}"
        )


def test_dilation_intersection_identity_20_draws():
    # 20 random (body, radius) draws with radius < pi/2: membership in
    # the radius-dilation of the polar agrees with the intersection of
    # hemisphere dilations over the whole body on 10^4 uniform samples,
    # outside a 1e-6 boundary band; zero interior mismatches.
    for t in range(20):
        rng = np.random.default_rng(5000 + t)
        w = harness.gen_wulff(
            S2_POLE, int(rng.integers(4, 9)), rng.uniform(0.1, 1.2),
            int(rng.integers(2**63)),
        )
        r = rng.uniform(0.05, 1.55)
        bad, tested = metric.dilation_intersection_mismatches(
            w, r, samples=10_000, seed=5000 + t
        )
        assert bad == 0, f"draw {t}: {bad} mismatches of {tested} (r={r:.3f})"


def test_separation_witness_100_disjoint_pairs():
    # 100 disjoint convex pairs: the separating hemisphere center must
    # recheck both clauses on the raw generator inequalities — the first
    # body inside the closed hemisphere (all slacks >= 0), the second
    # strictly outside (all supports <= -1e-9).
    rng = np.random.default_rng(2024)
    done = 0
    while done < 100:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        a = body.from_generators(axis + 0.35 * rng.normal(size=(4, 3)))
        b2 = body.from_generators(-axis + 0.35 * rng.normal(size=(4, 3)))
        if float(oracles.min_body_gap(a, b2)) <= 1e-3:
            continue
        q = metric.separate(a, b2)
        assert float((a.generator_array @ q.vec).min()) >= 0.0
        assert float((b2.generator_array @ q.vec).max()) <= -1e-9
        done += 1


def test_antitone_and_dual_wulff_closure_200_trials():
    # 200 nested pairs: polarity reverses every inclusion; 200 bodies
    # with the pole interior: every polar is again such a body relative
    # to the same pole.  400 checks, zero failures.
    cfg = harness.SuiteConfig(suite="antitone", trials=200, dim=2, seed=0)
    rows = harness.run_suite(cfg)
    assert len(rows) == 400
    by_label = {}
    for r in rows:
        by_label.setdefault(r.label, []).append(r)
    assert len(by_label["reversed_inclusion"]) == 200
    assert len(by_label["dual_stays_wulff"]) == 200
    bad = [r for r in rows if not r.passed]
    assert not bad, f"{len(bad)} antitone/closure failures"


def test_approximation_sequences_50_bodies():
    # 50 random convex bodies cycling through points, arcs, and full
    # hulls: each outer approximant is a valid full-dimensional body
    # with the pole interior, the distances decrease along the sequence,
    # and the last distance drops to a quarter of the first.
    cfg = harness.SuiteConfig(suite="approximation", trials=50, dim=2, seed=0)
    rows = harness.run_suite(cfg)
    assert len(rows) == 150
    labels = [r.label for r in rows]
    assert labels.count("approximants_valid") == 50
    assert labels.count("monotone_violation") == 50
    assert labels.count("quarter_ratio_excess") == 50
    assert "construction_failed" not in labels
    bad = [r for r in rows if not r.passed]
    assert not bad, f"{len(bad)} approximation failures"
