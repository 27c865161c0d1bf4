"""Acceptance gate: ten end-to-end criteria, each printing one PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see the lines).

 1  classify(generator) round-trips all 52 class/sign combinations in < 5 s
 2  transient normal form: alpha = -1/2 exactly; numeric full-turn slope
    at the origin equals alpha^2 = 1/4 to 1e-5
 3  linear-determinant example: collision class at mu = 0; class C2 with
    pseudo-equilibria at running coordinate mu (|error| <= 1e-10) for
    mu = +-0.1
 4  all 12 fold-side decomposition cells (4 companion sign pairs x 3
    parameter signs) reproduce their outward kind sequences in < 2 s
 5  pseudo-Hopf family: fixed-point pair appears only on the predicted
    parameter side, is unstable for eta > 0, and its location moves by
    less than 1e-8 when the scan grid is refined 2x
 6  determinant factorization: polynomial-route and product-route values
    agree to 1e-12 (mixed) on 1000 seeded random systems
 7  sliding-vs-crossing origin: |det Z(0)| equals |X1 Y2(0)| + |X2 Y1(0)|
    to 1e-12 (mixed) and exceeds 1e-12 on 1000 seeded random systems
 8  cubic half-map jets match independently fitted numeric coefficients
    to 1e-5 on 100 random transversal fields
 9  branch-cross events land on the branch (|x1*x2| <= 1e-10, analytic
    location to 1e-10) and forward-then-backward integration returns to
    the seed within 1e-6
10  CLI outputs (classify JSON, sweep CSV, portrait SVG) are byte-identical
    across reruns
"""
from __future__ import annotations

import json
import time

import numpy as np

from crosswitch import (
    CLASS_C2,
    CLASS_C32,
    CLASS_DPE,
    CLASS_PH,
    CLASS_RF,
    CODIM1_CLASSES,
    STABLE_CLASSES,
    all_sign_tuples,
    classify,
    fixed_points,
    integrate,
    make_system,
    normal_form,
    numeric_return_map,
    pseudo_equilibria,
    return_map_model,
    sigma_decomposition,
    system_to_obj,
    unfolding,
)
from crosswitch.cli import main
from crosswitch.returnmap import half_map_jet, half_map_numeric_fit

from conftest import richardson_slope


def _report(number: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {label}: PASS")


# ---------------------------------------------------------------------------

def test_acceptance_01_round_trip_all_sign_combinations():
    def body():
        t0 = time.perf_counter()
        count = 0
        for name in STABLE_CLASSES + CODIM1_CLASSES:
            for signs in all_sign_tuples(name):
                got = classify(normal_form(name, signs))
                assert got.class_name == name, (name, signs, got.class_name)
                assert got.signs == signs, (name, signs, got.signs)
                count += 1
        elapsed = time.perf_counter() - t0
        assert count == 52
        assert elapsed < 5.0, f"round trip took {elapsed:.2f}s"

    _report(1, "52-combination classification round trip", body)


def test_acceptance_02_alpha_exact_and_numeric_slope():
    def body():
        Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
        model = return_map_model(Z)
        assert model.alpha == -0.5
        slope = richardson_slope(
            lambda x: numeric_return_map(Z, x).value, -2e-3, 5e-4)
        assert abs(slope - 0.25) <= 1e-5, slope

    _report(2, "exact alpha and numeric full-turn slope", body)


def test_acceptance_03_linear_determinant_example():
    def body():
        def system(mu):
            return make_system({(0, 0): 1.0 - mu, (1, 0): 1.0}, 1.0,
                               {(0, 0): -1.0, (0, 1): 1.0}, -1.0)

        assert classify(system(0.0)).class_name == CLASS_DPE
        for mu in (0.1, -0.1):
            got = classify(system(mu))
            assert got.class_name == CLASS_C2, (mu, got.class_name)
            for branch in (1, 2):
                pes = pseudo_equilibria(system(mu), branch, radius=1.0)
                assert len(pes) == 1, (mu, branch, pes)
                assert abs(pes[0].s - mu) <= 1e-10, (mu, branch, pes[0].s)

    _report(3, "linear-determinant example classes and roots", body)


def test_acceptance_04_twelve_fold_decomposition_cells():
    def body():
        sigma2 = {  # (yb, sign of delta) -> (sigma2_minus, sigma2_plus)
            (1, 1): ("e", "sc"), (1, 0): ("e", "c"), (1, -1): ("ce", "c"),
            (-1, 1): ("c", "ce"), (-1, 0): ("c", "e"), (-1, -1): ("sc", "e"),
        }
        t0 = time.perf_counter()
        for ya in (1, -1):
            for yb in (1, -1):
                for delta in (0.3, 0.0, -0.3):
                    Z = make_system(1.0, {(0, 0): -delta, (1, 0): 1.0},
                                    float(ya), float(yb))
                    dec = sigma_decomposition(Z, radius=1.0)
                    cell = (ya, yb, delta)
                    want1 = "c" if ya == 1 else "e"
                    assert "".join(dec.kind_sequence(1, 1)) == want1, cell
                    want1m = "c" if ya == 1 else "s"
                    assert "".join(dec.kind_sequence(1, -1)) == want1m, cell
                    sgn_d = 0 if delta == 0.0 else (1 if delta > 0 else -1)
                    want2m, want2p = sigma2[(yb, sgn_d)]
                    assert "".join(dec.kind_sequence(2, -1)) == want2m, cell
                    assert "".join(dec.kind_sequence(2, 1)) == want2p, cell
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"decomposition table took {elapsed:.2f}s"

    _report(4, "12-cell fold decomposition table", body)


def test_acceptance_05_pseudo_hopf_fixed_points():
    def body():
        signs = {"a": 1, "b": 1, "c": 1}

        def scan(delta, cells):
            Z = unfolding(CLASS_PH, signs, delta)
            return fixed_points(Z, -0.2, -1e-6, cells=cells)

        assert scan(0.0, 128) == []
        assert scan(-1e-3, 128) == []
        fps = scan(1e-3, 128)
        assert len(fps) == 1
        fp = fps[0]
        assert fp.stable is False and fp.multiplier > 1.0
        assert fp.conjugate > 0.0
        refined = scan(1e-3, 256)
        assert len(refined) == 1
        assert abs(refined[0].x - fp.x) <= 1e-8, (fp.x, refined[0].x)

    _report(5, "pseudo-Hopf fixed-point side, stability, grid stability", body)


def _random_poly(rng, max_terms=4, degree=3, scale=3.0):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        i, j = int(rng.integers(0, degree + 1)), int(rng.integers(0, degree + 1))
        terms[(i, j)] = float(rng.uniform(-scale, scale))
    return terms


def test_acceptance_06_determinant_factorization_on_random_systems():
    def body():
        rng = np.random.default_rng(20260815)
        for _ in range(1000):
            Z = make_system(_random_poly(rng), _random_poly(rng),
                            _random_poly(rng), _random_poly(rng))
            p = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            x1 = Z.X.f1.eval_point(p)
            x2 = Z.X.f2.eval_point(p)
            y1 = Z.Y.f1.eval_point(p)
            y2 = Z.Y.f2.eval_point(p)
            direct = x1 * y2 - x2 * y1
            viapoly = Z.det(p)
            tol = 1e-12 * (1.0 + abs(x1 * y2) + abs(x2 * y1))
            assert abs(direct - viapoly) <= tol, (direct, viapoly)

    _report(6, "determinant factorization on 1000 random systems", body)


def test_acceptance_07_origin_determinant_identity():
    def body():
        rng = np.random.default_rng(77)
        for _ in range(1000):
            i = int(rng.integers(1, 3))  # branch whose origin arc is not crossing
            sx = 1 if rng.integers(0, 2) else -1
            sy_cross = 1 if rng.integers(0, 2) else -1
            mags = rng.uniform(0.1, 3.0, size=4)
            comp = {}
            # branch i: normal components of opposite sign (sliding/escaping)
            comp[("X", i)] = sx * mags[0]
            comp[("Y", i)] = -sx * mags[1]
            # branch j: same sign (crossing)
            j = 2 if i == 1 else 1
            comp[("X", j)] = sy_cross * mags[2]
            comp[("Y", j)] = sy_cross * mags[3]

            def poly(f, k):
                terms = {(0, 0): float(comp[(f, k)])}
                terms[(int(rng.integers(1, 3)), int(rng.integers(0, 2)))] = \
                    float(rng.uniform(-2, 2))
                return terms

            Z = make_system(poly("X", 1), poly("X", 2),
                            poly("Y", 1), poly("Y", 2))
            x1, x2, y1, y2 = Z.origin_components()
            det0 = Z.det((0.0, 0.0))
            total = abs(x1 * y2) + abs(x2 * y1)
            assert abs(abs(det0) - total) <= 1e-12 * (1.0 + total)
            assert abs(det0) > 1e-12

    _report(7, "origin determinant magnitude identity on 1000 systems", body)


def test_acceptance_08_jet_vs_numeric_half_maps():
    def body():
        rng = np.random.default_rng(4242)
        checked = 0
        while checked < 100:
            field = "X" if checked % 2 == 0 else "Y"
            c0 = (1 if rng.integers(0, 2) else -1) * rng.uniform(0.5, 2.0)
            c1 = (1 if rng.integers(0, 2) else -1) * rng.uniform(0.5, 2.0)
            small = lambda: float(rng.uniform(-0.4, 0.4))
            f1 = {(0, 0): float(c0), (1, 0): small(), (0, 1): small(),
                  (2, 0): small(), (1, 1): small()}
            f2 = {(0, 0): float(c1), (1, 0): small(), (0, 1): small(),
                  (0, 2): small(), (1, 1): small()}
            if field == "X":
                Z = make_system(f1, f2, 1.0, 1.0)
            else:
                Z = make_system(1.0, 1.0, f1, f2)
            jet = half_map_jet(Z, field)
            fit = half_map_numeric_fit(Z, field)
            gap = max(abs(jet.a - fit.a), abs(jet.b - fit.b),
                      abs(jet.c - fit.c))
            assert gap <= 1e-5, (field, f1, f2, gap)
            checked += 1

    _report(8, "jet vs numeric half-map coefficients on 100 fields", body)


def test_acceptance_09_event_residual_and_round_trip():
    def body():
        Z = make_system(1.0, 1.0, 1.0, 2.0)
        seed = (0.5, -0.15)
        tr = integrate(Z, seed, t_max=0.2)
        crossings = [e for e in tr.events if e.kind.value == "BranchCross"]
        assert crossings, tr.events
        e = crossings[0]
        assert abs(e.point[0] * e.point[1]) <= 1e-10
        # analytic: x2 = -0.15 + 2t = 0 at t = 0.075, x1 = 0.575
        assert abs(e.t - 0.075) <= 1e-10
        assert abs(e.point[0] - 0.575) <= 1e-10 and e.point[1] == 0.0
        # round trip through the crossing
        end = tr.final_point()
        back = integrate(Z, end, t_max=tr.samples[-1].t, backward=True)
        p = back.final_point()
        assert max(abs(p[0] - seed[0]), abs(p[1] - seed[1])) <= 1e-6, p

    _report(9, "event residual and crossing round trip", body)


def test_acceptance_10_cli_determinism(tmp_path):
    def body():
        sys_path = tmp_path / "system.json"
        Z = normal_form(CLASS_RF, {"a": -1, "b": 1})
        sys_path.write_text(json.dumps(system_to_obj(Z)))

        pairs = []
        for k in (1, 2):
            cls = tmp_path / f"cls{k}.json"
            assert main(["classify", "--system", str(sys_path),
                         "--out", str(cls)]) == 0
            swp = tmp_path / f"swp{k}.csv"
            assert main(["sweep", "--family", "codim1_regularfold",
                         "--signs", "a=-1,b=1", "--deltas=-0.2:0.2:5",
                         "--out", str(swp)]) == 0
            svg = tmp_path / f"por{k}.svg"
            assert main(["portrait", "--system", str(sys_path),
                         "--box", "0.5", "--t-max", "0.5",
                         "--seeds-per-quadrant", "1", "--seeds-per-branch", "1",
                         "--svg", str(svg)]) == 0
            pairs.append((cls.read_bytes(), swp.read_bytes(), svg.read_bytes()))
        assert pairs[0] == pairs[1]
        assert all(len(b) > 100 for b in pairs[0])

    _report(10, "byte-identical CLI outputs", body)
