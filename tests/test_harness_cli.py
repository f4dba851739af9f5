"""Verification suites, CSV reporting, and the command-line interface."""

import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from wulffkit import body, cones, harness, metric
from wulffkit.cli import main
from wulffkit.errors import GenerationError

DATA = pathlib.Path(__file__).parent / "data"

# per-trial row counts documented for each suite
ROWS_PER_TRIAL = {
    "isometry": 1,
    "bilipschitz": 1,
    "tightness": 3,
    "double_dual": 1,  # plus two special-case rows per run
    "antitone": 2,
    "metric_identities": 2,
    "approximation": 3,
}
EXTRA_ROWS = {"double_dual": 2}


def run(name, **kw):
    args = dict(suite=name, trials=3, dim=2, seed=17)
    args.update(kw)
    return harness.run_suite(harness.SuiteConfig(**args))


class TestSuiteConfig:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            harness.SuiteConfig(suite="nope")

    def test_bad_trials_dim_tol(self):
        with pytest.raises(ValueError):
            harness.SuiteConfig(suite="isometry", trials=0)
        with pytest.raises(ValueError):
            harness.SuiteConfig(suite="isometry", dim=4)
        with pytest.raises(ValueError):
            harness.SuiteConfig(suite="isometry", tolerance=-1.0)

    def test_bad_resolution(self):
        from wulffkit.errors import ResolutionError

        with pytest.raises(ResolutionError):
            harness.SuiteConfig(suite="isometry", sampling_resolution=0.5)


class TestSuitesSmoke:
    @pytest.mark.parametrize("name", harness.SUITE_NAMES)
    def test_small_run_green_s2(self, name):
        rows = run(name)
        expected = 3 * ROWS_PER_TRIAL[name] + EXTRA_ROWS.get(name, 0)
        assert len(rows) == expected
        for r in rows:
            assert r.passed, (r.suite, r.trial_seed, r.label, r.value)

    @pytest.mark.parametrize("name", harness.SUITE_NAMES)
    def test_small_run_green_s1(self, name):
        rows = run(name, dim=1, trials=3, seed=5)
        assert all(r.passed for r in rows)

    def test_isometry_spot_s3(self):
        rows = run("isometry", dim=3, trials=2, seed=3)
        assert all(r.passed for r in rows)
        assert all(r.ambient_dim == 3 for r in rows)

    def test_approximation_s3(self):
        # the only tier-1 run of the sphere-grid ring directions
        rows = run("approximation", dim=3, trials=3, seed=5)
        assert len(rows) == 3 * ROWS_PER_TRIAL["approximation"]
        assert all(r.passed for r in rows)

    def test_trial_seeds_are_offsets(self):
        rows = run("isometry", trials=3, seed=40)
        assert [r.trial_seed for r in rows] == [40, 41, 42]


class TestDeterminism:
    def test_rows_identical_modulo_timing(self):
        a = harness.report_rows(run("metric_identities", trials=4, seed=23))
        b = harness.report_rows(run("metric_identities", trials=4, seed=23))
        strip = lambda rows: [r[:-1] for r in rows]
        assert strip(a) == strip(b)

    def test_csv_identical_modulo_timing(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_csv(run("tightness", trials=3, seed=8), p1)
        harness.write_csv(run("tightness", trials=3, seed=8), p2)

        def rows_no_ms(path):
            with open(path, newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]

        assert rows_no_ms(p1) == rows_no_ms(p2)

    def test_csv_schema(self, tmp_path):
        p = tmp_path / "r.csv"
        reports = run("double_dual", trials=3, seed=2)
        harness.write_csv(reports, p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == harness.CSV_COLUMNS
        assert len(rows) == 1 + len(reports)
        for row in rows[1:]:
            assert row[0] == "double_dual"
            float(row[4])  # value parses
            assert row[8] in ("True", "False")

    def test_values_round_trip_exactly(self):
        reports = run("isometry", trials=2, seed=31)
        rows = harness.report_rows(reports)
        for rep, row in zip(reports, rows):
            assert float(row[4]) == rep.value
            assert float(row[5]) == rep.bound_or_target


class TestGoldenRows:
    def test_rows_match_stored_run(self):
        # every suite at trials 3, seed 11 on S^2 against a stored run of
        # `wulffkit verify` with the ms column dropped: values within 1e-9,
        # every other column exactly
        with open(DATA / "verify_dim2_seed11.csv", newline="") as fh:
            header, *golden = csv.reader(fh)
        assert tuple(header) == harness.CSV_COLUMNS[:-1]
        rows = []
        for name in harness.SUITE_NAMES:
            reports = run(name, trials=3, seed=11)
            rows += [list(row[:-1]) for row in harness.report_rows(reports)]
        assert len(rows) == len(golden) == 41
        v = harness.CSV_COLUMNS.index("value")
        for got, want in zip(rows, golden):
            assert got[:v] + got[v + 1 :] == want[:v] + want[v + 1 :]
            assert abs(float(got[v]) - float(want[v])) <= 1e-9, (got, want)


class TestSummaries:
    def test_summarize_green(self):
        reports = run("antitone", trials=2, seed=12)
        text = harness.summarize(reports)
        assert "[ok ] antitone:" in text
        assert "FAIL" not in text
        assert harness.first_failing_suite(reports) is None

    def test_summarize_failure_detail(self):
        reports = list(run("antitone", trials=2, seed=12))
        bad = harness.PropertyReport(
            suite="antitone",
            trial_seed=99,
            ambient_dim=2,
            label="inclusion_violations",
            value=3.0,
            bound_or_target=0.0,
            tolerance=0.0,
            passed=False,
            error_bound=None,
            wall_time_ms=1.0,
        )
        reports.append(bad)
        text = harness.summarize(reports)
        assert "[FAIL] antitone:" in text
        assert "seed 99" in text
        assert harness.first_failing_suite(reports) == "antitone"


class TestGenerators:
    def test_gen_wulff_contract(self):
        pole = harness.pole_axis(2)
        b = harness.gen_wulff(pole, 7, 0.8, 3)
        assert body.is_wulff_relative(b, pole)
        # generators stay inside the requested cap (plus the tiny simplex)
        assert (b.generator_array @ pole.vec).min() >= math.cos(0.81)
        again = harness.gen_wulff(pole, 7, 0.8, 3)
        assert (again.generator_array == b.generator_array).all()

    def test_gen_wulff_draws_are_pinned(self, monkeypatch):
        # the rows 600 draws on S^1-S^3 hand to `from_generators`, and the
        # generators their bodies store, bit for bit: reusing the pole's
        # tangent basis and one simplex per sphere must not move a draw
        digest = hashlib.sha256()
        build = harness.from_generators

        def hashed(points):
            digest.update(np.ascontiguousarray(points).tobytes())
            return build(points)

        monkeypatch.setattr(harness, "from_generators", hashed)
        for dim in (1, 2, 3):
            pole = harness.pole_axis(dim)
            for t in range(200):
                rng = np.random.default_rng([dim, t, 23])
                b = harness.gen_wulff(
                    pole, int(rng.integers(dim + 2, dim + 8)), rng.uniform(0.1, 1.2),
                    int(rng.integers(2**63)),
                )
                digest.update(b.generator_array.tobytes())
        assert digest.hexdigest()[:16] == "41eeda6bfa088872"

    def test_isometry_trials_load_no_solver(self):
        # `scipy.optimize` is imported on the first linear program, and a
        # trial of the isometry suite solves none: two drawn Wulff shapes
        # and the exact Hausdorff distances of them and of their polars
        # leave it unloaded
        code = (
            "import sys\n"
            "import wulffkit\n"
            "from wulffkit import harness, metric, transforms\n"
            "p = harness.pole_axis(2)\n"
            "a, b = harness.gen_wulff(p, 7, 0.8, 3), harness.gen_wulff(p, 6, 0.5, 4)\n"
            "assert metric.hausdorff_with_bound(a, b)[2] == 'exact'\n"
            "pa, pb = transforms.polar(a), transforms.polar(b)\n"
            "assert metric.hausdorff_with_bound(pa, pb)[2] == 'exact'\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = str(pathlib.Path(harness.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_wide_cap_still_solves_for_its_witness(self, monkeypatch):
        # no row of a wide cap's regular polygon is a pointed witness, so
        # building one reaches `cones.linprog`, which loads the solver
        calls = []
        solve = cones.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cones, "linprog", counted)
        b = harness.gen_convex_body(harness.pole_axis(2), "wide_cap", np.random.default_rng(0))
        assert len(calls) == 1
        assert b.generator_array.shape[0] == 8

    def test_regular_simplex_is_built_once_and_read_only(self):
        S = harness._regular_simplex(3)
        assert harness._regular_simplex(3) is S
        assert np.allclose(S @ S.T, np.where(np.eye(4, dtype=bool), 1.0, -1.0 / 3.0), atol=1e-15)
        with pytest.raises(ValueError):
            S[0, 0] = 0.0

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_gen_wulff_single_draw_margins(self, dim):
        # one draw always suffices: every generator keeps g.p >= sin 0.05
        # (the cap radius stays below pi/2 - 0.05) and the 0.02 simplex keeps
        # n.p >= 0.02/n on every normal; half of that is asserted
        pole = harness.pole_axis(dim)
        rng = np.random.default_rng(100 + dim)
        for seed in range(50):
            k = int(rng.integers(dim + 2, dim + 8))
            rho = rng.uniform(0.05, math.pi / 2.0 - 0.05)
            b = harness.gen_wulff(pole, k, rho, seed)
            assert (b.generator_array @ pole.vec).min() >= math.sin(0.05) - 1e-12
            assert (b.normal_array @ pole.vec).min() >= 0.01 / dim

    def test_gen_wulff_raises_after_one_draw(self, monkeypatch):
        calls = []

        def counted(points):
            calls.append(len(points))
            return body.from_generators(points)

        monkeypatch.setattr(harness, "from_generators", counted)
        monkeypatch.setattr(harness, "is_wulff_relative", lambda b, p: False)
        with pytest.raises(GenerationError):
            harness.gen_wulff(harness.pole_axis(2), 6, 0.7, 1)
        assert len(calls) == 1

    def test_gen_wulff_validation(self):
        pole = harness.pole_axis(2)
        with pytest.raises(ValueError):
            harness.gen_wulff(pole, 3, 0.8, 0)  # k < n + 2
        with pytest.raises(ValueError):
            harness.gen_wulff(pole, 6, 1.6, 0)  # rho too wide

    def test_cap_polytope_vertices(self):
        pole = harness.pole_axis(2)
        b = harness.cap_polytope(pole, 0.4, 6, phase=0.1)
        assert b.generator_array.shape == (6, 3)
        colat = np.arccos(b.generator_array[:, 2])
        assert np.abs(colat - 0.4).max() <= 1e-12

    def test_cap_polytope_s1(self):
        pole = harness.pole_axis(1)
        b = harness.cap_polytope(pole, 0.4, 99)
        assert b.generator_array.shape == (2, 2)

    def test_rotate_body_is_isometry(self):
        pole = harness.pole_axis(2)
        a = harness.gen_wulff(pole, 6, 0.7, 1)
        b2 = harness.gen_wulff(pole, 6, 0.7, 2)
        ra = harness.rotate_body(a, 0.37)
        rb = harness.rotate_body(b2, 0.37)
        assert float(metric.hausdorff(ra, rb)) == pytest.approx(
            float(metric.hausdorff(a, b2)), abs=1e-13
        )

    def test_gen_convex_body_kinds(self):
        pole = harness.pole_axis(2)
        rng = np.random.default_rng(0)
        for kind, min_gens in (("point", 1), ("arc", 2), ("hull", 3), ("wide_cap", 3)):
            b = harness.gen_convex_body(pole, kind, rng)
            assert b.generator_array.shape[0] >= min_gens


class TestCliShapes:
    def test_dual_matches_golden(self, tmp_path, capsys):
        rc = main(["dual", str(DATA / "square.shape")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (DATA / "square_dual.shape").read_text()

    def test_dual_closed_form(self, capsys):
        # the square's dual vertices sit at colatitude arccos(1/sqrt 7)
        # on the coordinate axes; the golden file holds one rounding of
        # these rows
        rc = main(["dual", str(DATA / "square.shape")])
        assert rc == 0
        rows = np.array(json.loads(capsys.readouterr().out)["generators"])
        a, c = math.sqrt(6.0 / 7.0), 1.0 / math.sqrt(7.0)
        expected = [[-a, 0.0, c], [0.0, -a, c], [0.0, a, c], [a, 0.0, c]]
        assert np.abs(rows - expected).max() <= 1e-15

    def test_dual_to_file(self, tmp_path):
        out = tmp_path / "dual.shape"
        rc = main(["dual", str(DATA / "square.shape"), "-o", str(out)])
        assert rc == 0
        assert out.read_text() == (DATA / "square_dual.shape").read_text()

    def test_double_dual_round_trip(self, tmp_path, capsys):
        mid = tmp_path / "mid.shape"
        rc = main(["dual", str(DATA / "square_dual.shape"), "-o", str(mid)])
        assert rc == 0
        a = body.load_shape(DATA / "square.shape").to_body()
        b2 = body.load_shape(mid).to_body()
        assert body.body_match_angle(a, b2) <= 1e-12

    def test_hausdorff_known_value(self, tmp_path, capsys):
        pa = tmp_path / "a.shape"
        pb = tmp_path / "b.shape"
        body.save_shape(body.from_generators([[0.0, 0.0, 1.0]]), pa)
        q = [math.sin(0.9), 0.0, math.cos(0.9)]
        body.save_shape(body.from_generators([q]), pb)
        rc = main(["hausdorff", str(pa), str(pb)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.9, abs=1e-14)
        assert "sampled" not in out

    def test_hausdorff_sampled_reports_bound(self, tmp_path, capsys):
        pa = tmp_path / "a.shape"
        pb = tmp_path / "b.shape"
        body.save_shape(body.hemisphere_body([0.0, 1.0]), pa)
        c = [math.sin(0.3), math.cos(0.3)]
        body.save_shape(body.hemisphere_body(c), pb)
        rc = main(["hausdorff", str(pa), str(pb)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert "error bound 0.005" in out
        assert float(out.split()[0]) == pytest.approx(0.3, abs=0.005)

    def test_hausdorff_sampled_on_s3(self, tmp_path, capsys):
        pa = tmp_path / "a.shape"
        pb = tmp_path / "b.shape"
        body.save_shape(body.hemisphere_body([0.0, 0.0, 0.0, 1.0]), pa)
        c = [0.0, 0.0, math.sin(0.3), math.cos(0.3)]
        body.save_shape(body.hemisphere_body(c), pb)
        rc = main(["hausdorff", str(pa), str(pb)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert "error bound 0.06" in out
        assert float(out.split()[0]) == pytest.approx(0.3, abs=0.06)

    def test_hull_command(self, tmp_path, capsys):
        p = tmp_path / "pts.shape"
        spec = body.ShapeSpec(
            ambient_dim=2,
            generator_rows=[
                [0.3, 0.0, 0.95],
                [0.0, 0.3, 0.95],
                [-0.3, 0.0, 0.95],
                [0.1, 0.1, 0.99],
            ],
            label="cloud",
        )
        body.save_shape(spec, p)
        rc = main(["hull", str(p)])
        assert rc == 0
        out = capsys.readouterr().out
        hull_spec = body.ShapeSpec.from_json(out)
        assert hull_spec.label == "cloud_hull"
        # the interior point was dropped
        assert len(hull_spec.generator_rows) == 3

    def test_hull_command_builds_one_body(self, tmp_path, monkeypatch, capsys):
        # the points file is read as rows and handed to spherical_hull,
        # which builds the only body from them; its double-polar check
        # builds one more, from the hull's normals; every module's
        # binding is counted
        p = tmp_path / "pts.shape"
        rows = [[0.3, 0.0, 0.95], [0.0, 0.3, 0.95], [-0.3, 0.0, 0.95], [0.1, 0.1, 0.99]]
        body.save_shape(body.ShapeSpec(ambient_dim=2, generator_rows=rows), p)
        hull = body.from_generators(np.array(rows))
        original = body.from_generators
        calls = []

        def counting(points):
            calls.append(np.array(points))
            return original(points)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("wulffkit") and getattr(module, "from_generators", None) is original:
                monkeypatch.setattr(module, "from_generators", counting)
        assert main(["hull", str(p)]) == 0
        capsys.readouterr()
        assert len(calls) == 2
        assert np.array_equal(calls[0], rows)
        assert np.array_equal(calls[1], hull.normal_array)

    def test_hull_non_hemispherical_errors(self, tmp_path, capsys):
        p = tmp_path / "pts.shape"
        spec = body.ShapeSpec(
            ambient_dim=2,
            generator_rows=[[1, 0, 0], [-1, 0, 0], [0, 0, 1]],
        )
        body.save_shape(spec, p)
        rc = main(["hull", str(p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_separate_command(self, tmp_path, capsys):
        pa = tmp_path / "a.shape"
        pb = tmp_path / "b.shape"
        body.save_shape(
            body.from_generators([[0.2, 0.0, 0.98], [0.0, 0.2, 0.98]]), pa
        )
        body.save_shape(body.from_generators([[0.1, 0.1, -0.99]]), pb)
        rc = main(["separate", str(pa), str(pb)])
        assert rc == 0
        q = np.array([float(t) for t in capsys.readouterr().out.split()])
        assert q.shape == (3,)
        a = body.load_shape(pa).to_body()
        b2 = body.load_shape(pb).to_body()
        assert float((a.generator_array @ q).min()) >= -1e-9
        assert float((b2.generator_array @ q).max()) < 0.0

    def test_separate_overlapping_errors(self, tmp_path, capsys):
        pa = tmp_path / "a.shape"
        body.save_shape(body.from_generators([[0.0, 0.0, 1.0]]), pa)
        rc = main(["separate", str(pa), str(pa)])
        assert rc == 1
        assert "no-separator" in capsys.readouterr().err

    def test_gen_round_trips(self, tmp_path):
        out = tmp_path / "gen.shape"
        rc = main(["gen", "--dim", "2", "--seed", "5", "-o", str(out)])
        assert rc == 0
        spec = body.load_shape(out)
        assert spec.label == "wulff-dim2-seed5"
        b = spec.to_body()
        assert body.is_wulff_relative(b, harness.pole_axis(2))
        rc = main(
            ["gen", "--kind", "convex", "--dim", "1", "--seed", "3", "-o", str(out)]
        )
        assert rc == 0
        body.load_shape(out).to_body()


class TestCliDiagnostics:
    def test_invalid_json_line_number(self, tmp_path, capsys):
        p = tmp_path / "bad.shape"
        p.write_text('{"dim": 2,\n "generators": [[1,0,0],]}\n')
        rc = main(["dual", str(p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err
        assert str(p) in err

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        p = tmp_path / "bad.shape"
        p.write_text('{"generators": [[1, 0, 0]]}\n')
        rc = main(["dual", str(p)])
        assert rc == 1
        assert "field dim" in capsys.readouterr().err

    def test_nonexistent_file(self, tmp_path, capsys):
        rc = main(["dual", str(tmp_path / "missing.shape")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_row_field_path(self, tmp_path, capsys):
        p = tmp_path / "bad.shape"
        p.write_text('{"dim": 2, "generators": [[1, 0, 0], [0, "a", 1]]}\n')
        rc = main(["dual", str(p)])
        assert rc == 1
        assert "generators[1]" in capsys.readouterr().err


class TestCliVerify:
    def test_verify_example_contract(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(
            [
                "verify",
                "--suite",
                "isometry",
                "--trials",
                "10",
                "--dim",
                "2",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "[ok ] isometry: 10/10" in text
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 11  # header + 10 trials
        assert tuple(rows[0]) == harness.CSV_COLUMNS

    def test_verify_csv_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        base = ["verify", "--suite", "double_dual", "--trials", "4", "--seed", "9"]
        assert main(base + ["--out", str(p1)]) == 0
        assert main(base + ["--out", str(p2)]) == 0

        def rows_no_ms(path):
            with open(path, newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]

        assert rows_no_ms(p1) == rows_no_ms(p2)

    def test_verify_all_suites_smoke(self, capsys):
        rc = main(["verify", "--trials", "2", "--dim", "1", "--seed", "4"])
        assert rc == 0
        text = capsys.readouterr().out
        for name in harness.SUITE_NAMES:
            assert f"] {name}:" in text

    def test_verify_rejects_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "--suite", "bogus"])
        assert ei.value.code == 2

    def test_verify_resolution_flag(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(
            [
                "verify",
                "--suite",
                "metric_identities",
                "--trials",
                "2",
                "--dim",
                "1",
                "--seed",
                "3",
                "--resolution",
                "0.02",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        # the sampled rows carry the requested error bound
        bounds = {row[7] for row in rows[1:] if row[7]}
        assert bounds and all(float(b) <= 2 * 0.02 for b in bounds)
