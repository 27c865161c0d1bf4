"""Canonical JSON, digests, CSV/SVG writers, sweep driver, and the CLI.

Determinism is the load-bearing property here: rerunning any writer or any
CLI command must reproduce its output byte for byte.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crosswitch import (
    CLASS_C1,
    CLASS_C32,
    CLASS_DPE,
    CLASS_PH,
    CLASS_RF,
    CODIM1_CLASSES,
    STABLE_CLASSES,
    CrosswitchError,
    NonFiniteValue,
    ParseError,
    RouteMismatch,
    all_sign_tuples,
    integrate,
    make_system,
    normal_form,
    phase_portrait,
    system_to_obj,
    unfolding,
)
import crosswitch.cli as cli
import crosswitch.lanes as lanes
from crosswitch.cli import main
from crosswitch.report import (
    SweepRecord,
    _escape,
    _format_float,
    canonical_json,
    classification_report,
    events_report,
    portrait_svg,
    return_map_report,
    sweep_csv,
    sweep_family,
    trajectory_csv,
)
from crosswitch.classify import Classification, UnfoldingVerification, VerifyCheck
from crosswitch.flow import Event
from crosswitch.returnmap import HalfMapCoeffs
from crosswitch.switching import Arc, PseudoEquilibrium, TangencyPoint


def write_csv(rows: list[list], header: list[str]) -> str:
    """Oracle of the CSV writers: each cell formatted on its own, floats by
    `_format_float`, bools as true/false, None as empty, anything else by
    str()."""

    def cell(v) -> str:
        if isinstance(v, bool) or v is None:
            return "" if v is None else str(v).lower()
        if isinstance(v, float):
            return _format_float(v)
        return str(v)

    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(cell(v) for v in row) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_canonical_json_float_format():
    assert canonical_json(0.1) == "1.000000000000e-01"
    assert canonical_json(-2.5) == "-2.500000000000e+00"


def test_canonical_json_normalizes_negative_zero():
    assert canonical_json(-0.0) == canonical_json(0.0) == "0.000000000000e+00"


def test_canonical_json_scalars():
    assert canonical_json(True) == "true"
    assert canonical_json(None) == "null"
    assert canonical_json(7) == "7"
    assert canonical_json([1, (2, 3)]) == "[1,[2,3]]"


def test_canonical_json_escapes_strings():
    assert canonical_json('a"b\\c') == '"a\\"b\\\\c"'
    assert canonical_json("x\ny") == '"x\\u000ay"'


def _escape_by_loop(s: str) -> str:
    """The per-character rule `_escape` implements."""
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


@given(st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\u00e9\u2028\U0001f600'),
                         st.characters())))
@example("plain")
@example('a"b\\c\x00\x7f\u00e9')
def test_escape_matches_the_per_character_loop(s):
    assert _escape(s) == _escape_by_loop(s)


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json(float("inf"))
    with pytest.raises(ValueError):
        canonical_json({"v": float("nan")})


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json({"v": object()})
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def system_digest(Z) -> str:
    """The reports' `system_digest`: sha256 over the canonical JSON of the
    system definition."""
    return hashlib.sha256(canonical_json(system_to_obj(Z)).encode("ascii")).hexdigest()


def test_system_digest_is_stable_and_sensitivity():
    Z = make_system({(0, 0): 1.0, (1, 0): 2.0}, 1.0, -1.0, -2.0)
    # same polynomial entered in a different term order
    Z2 = make_system({(1, 0): 2.0, (0, 0): 1.0}, 1.0, -1.0, -2.0)
    Z3 = make_system({(0, 0): 1.0, (1, 0): 2.0000001}, 1.0, -1.0, -2.0)
    d, d2, d3 = system_digest(Z), system_digest(Z2), system_digest(Z3)
    assert d == d2
    assert d != d3
    assert len(d) == 64 and set(d) <= set("0123456789abcdef")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_classification_report_structure():
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    rep = classification_report(Z)
    assert rep["schema"] == 1
    assert rep["tool"]["name"] == "crosswitch"
    assert rep["classification"]["class"] == CLASS_C32
    assert rep["classification"]["signs"] == {"a": 1, "b": 1, "c": 1}
    assert rep["system"] == system_to_obj(Z)
    assert set(rep["sigma"]["kinds_outward"]) == {
        "sigma1_plus", "sigma1_minus", "sigma2_plus", "sigma2_minus"}
    canonical_json(rep)  # must serialize


def test_classification_report_fold_kinds():
    # X = (1, x1 - 0.3), Y = (1, 1): fold splits sigma2_plus into "sc"
    Z = make_system(1.0, {(0, 0): -0.3, (1, 0): 1.0}, 1.0, 1.0)
    rep = classification_report(Z)
    assert rep["sigma"]["kinds_outward"]["sigma2_plus"] == "sc"
    assert len(rep["sigma"]["tangencies"]) == 1
    t = rep["sigma"]["tangencies"][0]
    assert t["field"] == "X" and abs(t["s"] - 0.3) < 1e-9
    assert t["visibility"] == "visible"


def test_classification_report_and_portrait_without_a_decomposition(tmp_path):
    # X = (1, x2): X2 vanishes identically on Sigma2, so no decomposition
    # exists; the report names the error in place of sigma and writes no
    # pseudo-equilibria, and the CLI portrait draws the plain axes
    Z = make_system(1.0, {(0, 1): 1.0}, 1.0, 1.0)
    rep = classification_report(Z)
    assert rep["sigma"] == {"error": "X2 vanishes identically on Sigma2"}
    assert "pseudo_equilibria" not in rep
    p, svg = tmp_path / "sys.json", tmp_path / "p.svg"
    p.write_text(json.dumps(system_to_obj(Z)))
    assert main(["portrait", "--system", str(p), "--box", "0.5",
                 "--t-max", "0.1", "--svg", str(svg)]) == 0
    text = svg.read_text()
    ET.fromstring(text)
    assert text.count("<line") == text.count('stroke="#b0b0b0"') == 2


def test_classification_report_lists_pseudo_equilibria():
    # linear-determinant example at mu = 0.1: one pseudo-equilibrium per branch
    Z = make_system({(0, 0): 0.9, (1, 0): 1.0}, 1.0,
                    {(0, 0): -1.0, (0, 1): 1.0}, -1.0)
    rep = classification_report(Z)
    pes = rep["pseudo_equilibria"]
    assert sorted(p["branch"] for p in pes) == [1, 2]
    for p in pes:
        assert abs(p["s"] - 0.1) < 1e-9


def holds_fields(objs, record) -> bool:
    """Whether each written object's keys are the record's `_fields`, a
    classification's class_name written as "class"."""
    fields = {"class" if f == "class_name" else f for f in record._fields}
    return all(set(obj) == fields for obj in objs)


def test_classification_reports_are_pinned():
    # the classification reports of the 52 normal forms, as the CLI prints
    # them (13 significant digits): pure-Python float arithmetic, with no
    # number that depends on the numpy or scipy version.  A change that
    # alters a report on purpose (the tool version in its header included)
    # updates this pin and says why.  Each written object's keys are its
    # record's `_fields`
    h = hashlib.sha256()
    for name in STABLE_CLASSES + CODIM1_CLASSES:
        for signs in all_sign_tuples(name):
            rep = classification_report(normal_form(name, signs))
            h.update(canonical_json(rep).encode())
            assert holds_fields([rep["classification"]], Classification)
            assert holds_fields(rep["sigma"]["arcs"], Arc)
            assert holds_fields(rep["sigma"]["tangencies"], TangencyPoint)
            assert holds_fields(rep["pseudo_equilibria"], PseudoEquilibrium)
    assert h.hexdigest() == "2ce109ceb750f1409499439cdbe1f44fd61a9feee47c6dd514924ce07505b0e7"


NORMAL_FORMS = [normal_form(name, signs) for name in STABLE_CLASSES + CODIM1_CLASSES
                for signs in all_sign_tuples(name)]


def normal_form_events(Z):
    """The event log of Z's trajectory from (0.5, -0.15) over t = 2."""
    return events_report(Z, integrate(Z, (0.5, -0.15), 2.0))


def test_return_map_and_event_reports_are_pinned():
    # as the classification reports above: the jet return-map reports of
    # the 52 normal forms, or the name of the error raised (36 are not
    # transient), and one event log each (105 events of 7 kinds), all from
    # pure-Python float arithmetic; each written half map and event holds
    # its record's `_fields`
    maps = hashlib.sha256()
    events = hashlib.sha256()
    for Z in NORMAL_FORMS:
        try:
            rep = return_map_report(Z)
        except CrosswitchError as e:
            maps.update(type(e).__name__.encode())
        else:
            maps.update(canonical_json(rep).encode())
            model = rep["return_map"]
            assert holds_fields([model["half_map_x"], model["half_map_y"]], HalfMapCoeffs)
        log = normal_form_events(Z)
        events.update(canonical_json(log).encode())
        assert holds_fields(log["events"], Event)
    assert maps.hexdigest() == "f4bb279ab6ff94c1a3788a2606b4c094266c02a6955e2f2f8c547263d1967187"
    assert events.hexdigest() == "e4ff13856757fd18647fccb77e70d52513e7675269849955a230ca9119b4b4fe"


def test_return_map_report_values():
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    rep = return_map_report(Z)
    assert rep["return_map"]["alpha"] == -0.5
    assert rep["return_map"]["attractive"] is True
    assert rep["return_map"]["half_map_x"]["source"] == "jet"


def test_return_map_report_numeric_agreement():
    Z = normal_form(CLASS_PH, {"a": 1, "b": 1, "c": 1})
    rep = return_map_report(Z, include_numeric=True)
    gaps = rep["jet_vs_numeric"]
    assert gaps["alpha"] < 1e-7
    assert gaps["beta"] < 1e-6
    assert gaps["c3"] < 1e-5


# ---------------------------------------------------------------------------
# CSV and sweep
# ---------------------------------------------------------------------------

def test_trajectory_csv_format():
    Z = make_system(1.0, 1.0, 1.0, 2.0)
    tr = integrate(Z, (0.5, -0.15), t_max=0.05)
    text = trajectory_csv([tr])
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2,mode"
    assert len(lines) == 1 + len(tr.samples)
    cells = lines[1].split(",")
    assert cells[0] == "0.000000000000e+00"
    assert cells[3] == "SmoothY"
    with_id = trajectory_csv([tr, tr], with_id=True)
    first = with_id.strip().split("\n")
    assert first[0] == "trajectory,t,x1,x2,mode"
    assert first[1].startswith("0,") and first[1 + len(tr.samples)].startswith("1,")


def test_trajectory_csv_matches_write_csv_route():
    # the lines written directly equal the row lists formatted by write_csv
    from crosswitch.flow import Mode, Sample, Trajectory
    slide = integrate(make_system(-1.0, 1.0, 1.0, 1.0), (0.3, 0.2), t_max=0.5)
    assert Mode.SLIDING1 in {s.mode for s in slide.samples}
    signed = Trajectory((0.0, 0.5), 1, samples=[
        Sample(-0.0, -0.0, 0.5, Mode.SMOOTH_X), Sample(1e-3, 2.5e-7, -0.0, Mode.SLIDING2)])
    trajectories = [slide, Trajectory((0.1, 0.1), -1), signed]
    for with_id in (False, True):
        header = (["trajectory"] if with_id else []) + ["t", "x1", "x2", "mode"]
        rows = [([k] if with_id else []) + [s.t, s.x1, s.x2, s.mode.value]
                for k, tr in enumerate(trajectories) for s in tr.samples]
        assert trajectory_csv(trajectories, with_id=with_id) == write_csv(rows, header)
    # int coordinates are formatted as floats, unlike write_csv's int cells
    ints = Trajectory((1, 0), 1, samples=[Sample(0.0, 1, 0, Mode.SMOOTH_X)])
    assert trajectory_csv([ints]) == "t,x1,x2,mode\n" + ",".join(
        ["0.000000000000e+00", "1.000000000000e+00", "0.000000000000e+00",
         Mode.SMOOTH_X.value]) + "\n"
    for value in (math.nan, math.inf, -math.inf):
        bad = Trajectory((0.0, 0.5), 1, samples=[
            Sample(0.0, 0.0, 0.5, Mode.SMOOTH_X), Sample(1e-3, value, 0.5, Mode.SMOOTH_X)])
        with pytest.raises(NonFiniteValue):
            trajectory_csv([bad])
    # the first non-finite cell in line order is the one named
    bad = Trajectory((0.0, 0.5), 1, samples=[
        Sample(0.0, 0.0, math.inf, Mode.SMOOTH_X), Sample(1e-3, math.nan, 0.5, Mode.SMOOTH_X)])
    with pytest.raises(NonFiniteValue, match="non-finite value inf"):
        trajectory_csv([bad])
    # sweep_csv's lines too equal the row lists formatted by write_csv
    checks = (VerifyCheck("fold_location", False, "off"),
              VerifyCheck("alpha_side", True, ""),
              VerifyCheck("fixed_points", False, "none"))
    records = [
        SweepRecord(-0.0, UnfoldingVerification(
            CLASS_RF, {"b": -1, "a": 1}, -0.0, CLASS_RF, CLASS_RF, ())),
        SweepRecord(2.5e-3, UnfoldingVerification(
            CLASS_PH, {"a": 1, "b": 1, "c": -1}, 2.5e-3, "Stable_C32",
            "Stable_C1", checks)),
    ]
    rows = []
    for r in records:
        v = r.verification
        rows.append([r.delta, v.family, v.predicted_class, v.observed_class, v.ok,
                     ";".join(f"{k}={v.signs[k]}" for k in sorted(v.signs)),
                     ";".join(c.name for c in v.checks if not c.ok)])
    header = ["delta", "family", "predicted_class", "observed_class", "ok",
              "signs", "failed_checks"]
    assert sweep_csv(records) == write_csv(rows, header)
    assert sweep_csv([]) == write_csv([], header)
    # an int delta is formatted as a float, unlike write_csv's int cells
    ints = [SweepRecord(1, records[0].verification)]
    assert sweep_csv(ints).split("\n")[1].startswith("1.000000000000e+00,")


def test_sweep_family_order_and_csv():
    deltas = [-0.3, 0.0, 0.3]
    records = sweep_family(CLASS_RF, {"a": 1, "b": 1}, deltas)
    assert [r.delta for r in records] == deltas
    text = sweep_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ("delta,family,predicted_class,observed_class,ok,"
                        "signs,failed_checks")
    assert len(lines) == 4
    assert all(line.split(",")[4] == "true" for line in lines[1:])
    assert lines[2].split(",")[3] == CLASS_RF  # delta = 0 row
    # repeated run is identical
    assert sweep_csv(sweep_family(CLASS_RF, {"a": 1, "b": 1}, deltas)) == text
    # a sweep runs in one thread; the keyword takes only 1
    assert sweep_csv(sweep_family(CLASS_RF, {"a": 1, "b": 1}, deltas,
                                  jobs=1)) == text
    with pytest.raises(ValueError, match="jobs must be 1"):
        sweep_family(CLASS_RF, {"a": 1, "b": 1}, deltas, jobs=2)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _portrait_pieces():
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    trajectories = phase_portrait(Z, box=0.5, seeds_per_quadrant=1,
                                  seeds_per_branch=1, t_max=0.5)
    return Z, trajectories


def test_portrait_svg_well_formed_and_deterministic():
    from crosswitch import sigma_decomposition
    Z, trajectories = _portrait_pieces()
    dec = sigma_decomposition(Z, 0.5)
    svg = portrait_svg(Z, trajectories, box=0.5, decomposition=dec, title="t")
    assert svg == portrait_svg(Z, trajectories, box=0.5, decomposition=dec,
                               title="t")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    body = svg
    assert "<polyline" in body
    assert "#2ca02c" in body or "#b0b0b0" in body  # switching-set styling


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_portrait_svg_rejects_a_box_that_is_not_positive_and_finite(bad):
    # 0 raised ZeroDivisionError, nan and inf wrote nan coordinates, and a
    # negative box mirrored the image
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    with pytest.raises(ParseError, match="box must be positive and finite"):
        portrait_svg(Z, [], box=bad)


def test_portrait_svg_escapes_the_title():
    # '<' and '&' were written as given, and XML parsers rejected the file
    Z, trajectories = _portrait_pieces()
    title = 'a<b & "c" > d'
    root = ET.fromstring(portrait_svg(Z, trajectories, box=0.5, title=title))
    assert root.find("{http://www.w3.org/2000/svg}text").text == title


def test_portrait_svg_without_decomposition_draws_axes():
    Z, trajectories = _portrait_pieces()
    svg = portrait_svg(Z, trajectories, box=0.5)
    ET.fromstring(svg)
    assert svg.count("<line") == 2


def test_portrait_svg_circles_the_folds_inside_the_box():
    # the regular-fold unfolding at delta = 0.2 has one fold, X2 = 0 at
    # x1 = 0.2 on Sigma2: circled in a box of 0.8, left out of one of 0.1
    from crosswitch import sigma_decomposition
    Z = unfolding(CLASS_RF, {"a": -1, "b": 1}, 0.2)
    dec = sigma_decomposition(Z, 0.8)
    assert [(t.field, t.branch) for t in dec.tangencies] == [("X", 2)]
    assert portrait_svg(Z, [], box=0.8, decomposition=dec).count('r="4"') == 1
    assert portrait_svg(Z, [], box=0.1, decomposition=dec).count('r="4"') == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture()
def c32_file(tmp_path):
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    p = tmp_path / "c32.json"
    p.write_text(json.dumps(system_to_obj(Z)))
    return str(p)


def test_cli_classify_roundtrip_and_determinism(c32_file, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["classify", "--system", c32_file, "--out", str(out1)]) == 0
    assert main(["classify", "--system", c32_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["classification"]["class"] == CLASS_C32
    assert rep["system_digest"] == system_digest(
        normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1}))


def test_cli_classify_reads_stdin(monkeypatch, capsys):
    Z = normal_form(CLASS_C1, {"a": 1, "b": -1})
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(system_to_obj(Z))))
    assert main(["classify", "--system", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["classification"]["class"] == CLASS_C1
    assert rep["sigma"]["radius"] == 1.0
    assert "pseudo_equilibria" in rep


def test_cli_normal_form_pipes_into_classify(tmp_path, capsys):
    assert main(["normal-form", "stable_c32", "--signs", "a=1,b=-1,c=-1"]) == 0
    sys_json = capsys.readouterr().out
    p = tmp_path / "sys.json"
    p.write_text(sys_json)
    assert main(["classify", "--system", str(p)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["classification"]["class"] == CLASS_C32
    assert rep["classification"]["signs"] == {"a": 1, "b": -1, "c": -1}


def test_cli_classify_always_reports_the_decomposition(c32_file, capsys):
    # the report always holds the decomposition within --radius, which the
    # library checks; no switch leaves it out
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--system", c32_file, "--no-sigma"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-sigma" in capsys.readouterr().err


def test_cli_normal_form_delta_builds_unfolding(capsys):
    assert main(["normal-form", "codim1_regularfold", "--signs", "a=1,b=1",
                 "--delta", "0.25"]) == 0
    obj = json.loads(capsys.readouterr().out)
    x2 = {(t["i"], t["j"]): t["c"] for t in obj["X"]["f2"]}
    assert x2 == {(0, 0): -0.25, (1, 0): 1.0}


def test_cli_error_exit_codes(tmp_path, capsys):
    # unknown class
    assert main(["normal-form", "nope", "--signs", "a=1"]) == 2
    # invalid signs
    assert main(["normal-form", "stable_c1", "--signs", "a=1,b=0"]) == 2
    # --delta on a stable class
    assert main(["normal-form", "stable_c1", "--signs", "a=1,b=1",
                 "--delta", "0.1"]) == 2
    # missing file
    assert main(["classify", "--system", str(tmp_path / "missing.json")]) == 2
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--system", str(bad)]) == 2
    # schema violation
    bad.write_text('{"X": {}}')
    assert main(["classify", "--system", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["normal-form", "stable_c1", "--signs", "a=1,b=1,a=-1"],
    ["sweep", "--family", "codim1_regularfold", "--signs", "a=1,b=1, b=-1",
     "--deltas=-0.1:0.1:3"],
], ids=["normal-form", "sweep"])
def test_cli_repeated_sign_key_exits_2(argv, capsys):
    # the last value used to win silently: a=1,b=1,a=-1 built a = -1
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "repeated sign key" in err


_SWEEP = ["sweep", "--family", "codim1_regularfold", "--signs", "a=1,b=1"]


@pytest.mark.parametrize("argv, message", [
    (["normal-form", "stable_c1", "--signs", "a1"], "bad sign assignment 'a1'"),
    (["normal-form", "stable_c1", "--signs", "a=x"], "bad sign value 'x' for 'a'"),
    (["integrate", "--system", "{c32}", "--seed", "1,2,3"],
     "seed must be 'x1,x2', got '1,2,3'"),
    (_SWEEP + ["--deltas=-1:1:3", "--delta-list=0"], "give exactly one of"),
    (_SWEEP, "give exactly one of"),
    (_SWEEP + ["--deltas", "1:2"], "--deltas must be lo:hi:n, got '1:2'"),
    (_SWEEP + ["--deltas", "a:b:c"], "bad --deltas 'a:b:c'"),
    (_SWEEP + ["--deltas", "0:1:1"], "--deltas needs n >= 2"),
    (_SWEEP + ["--delta-list=x"], "bad --delta-list 'x'"),
    (_SWEEP + ["--delta-list=,"], "--delta-list is empty"),
    (["normal-form", "HigherCodimension", "--signs", "a=1"],
     "no normal form is defined for HigherCodimension"),
], ids=["sign-without-value", "sign-not-an-int", "seed-of-three", "two-grids",
        "no-grid", "deltas-of-two", "deltas-not-numbers", "deltas-of-one",
        "delta-list-not-a-number", "delta-list-empty", "higher-codimension"])
def test_cli_parse_errors_exit_2_with_their_message(c32_file, capsys, argv, message):
    argv = [c32_file if a == "{c32}" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}" in err


def test_cli_non_finite_coefficients_exit_3(tmp_path, capsys):
    p = tmp_path / "inf.json"
    p.write_text('{"X": {"f1": [{"c": Infinity, "i": 0, "j": 0}], '
                 '"f2": [{"c": 1.0, "i": 0, "j": 0}]}, '
                 '"Y": {"f1": [{"c": 1.0, "i": 0, "j": 0}], '
                 '"f2": [{"c": 1.0, "i": 0, "j": 0}]}}')
    assert main(["classify", "--system", str(p)]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_int_too_large_for_a_float_exits_3(tmp_path, capsys):
    # a JSON integer of 400 digits parses to an int that float() rejects
    p = tmp_path / "huge.json"
    p.write_text('{"X": {"f1": [{"c": ' + "9" * 400 + ', "i": 0, "j": 0}], '
                 '"f2": [{"c": 1.0, "i": 0, "j": 0}]}, '
                 '"Y": {"f1": [{"c": 1.0, "i": 0, "j": 0}], '
                 '"f2": [{"c": 1.0, "i": 0, "j": 0}]}}')
    assert main(["classify", "--system", str(p)]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_cli_return_map(c32_file, capsys):
    assert main(["return-map", "--system", c32_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["return_map"]["alpha"] == -0.5


@pytest.mark.parametrize("y1, y2, c", [
    # Y2 = 1 + 1e200 (x1^2 + x2^2): 1e200 ** 2 overflows, but no
    # coefficient of the cubic jet reads it (the report prints 13
    # significant digits)
    (1.0, {(0, 0): 1.0, (2, 0): 1e200, (0, 2): 1e200}, -6.666666666667e+199),
    # Y1 = 0.1, Y2 = 1 + 1e308 x1^2: the cubic coefficient is about
    # -3.3e308, out of range
    (0.1, {(0, 0): 1.0, (2, 0): 1e308}, None),
])
def test_cli_return_map_refuses_only_a_jet_out_of_range(tmp_path, capsys, y1, y2, c):
    p = tmp_path / "big.json"
    p.write_text(json.dumps(system_to_obj(make_system(1.0, -1.0, y1, y2))))
    status = main(["return-map", "--system", str(p)])
    out, err = capsys.readouterr()
    if c is None:
        assert status == 3
        assert "half-map jet coefficient -inf of x^3" in err
    else:
        assert status == 0
        assert json.loads(out)["return_map"]["half_map_y"]["c"] == c


def test_cli_return_map_rejects_non_transient(tmp_path, capsys):
    Z = normal_form(CLASS_C1, {"a": 1, "b": 1})
    p = tmp_path / "c1.json"
    p.write_text(json.dumps(system_to_obj(Z)))
    assert main(["return-map", "--system", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_integrate_csv_and_events(tmp_path, capsys):
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(system_to_obj(make_system(1.0, 1.0, 1.0, 2.0))))
    ev = tmp_path / "events.json"
    out = tmp_path / "traj.csv"
    assert main(["integrate", "--system", str(p), "--seed", "0.5,-0.15",
                 "--t-max", "1.0", "--events", str(ev), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,mode"
    assert len(lines) > 10
    events = json.loads(ev.read_text())
    kinds = [e["kind"] for e in events["events"]]
    assert "BranchCross" in kinds
    assert events["direction"] == 1


@pytest.mark.parametrize("option", ["--h", "--t"])
def test_cli_option_prefixes_are_unrecognized(c32_file, tmp_path, capsys, option):
    # `--h` was read as `--help` (usage, exit 0) and `--t` as `--t-max`
    out = tmp_path / "traj.csv"
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--system", c32_file, "--seed", "0.5,-0.15",
              option, "1e-3", "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1e-3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_integrate_rejects_bad_seed(c32_file, capsys):
    assert main(["integrate", "--system", c32_file, "--seed", "zero,0"]) == 2
    assert main(["integrate", "--system", c32_file, "--seed", "99,99"]) == 2
    capsys.readouterr()


def test_cli_rejects_steps_boxes_and_radii_that_are_not_positive_and_finite(
        c32_file, tmp_path, capsys):
    # an infinite box drew a portrait from overflowing values, exit 0; the
    # library refuses it, and an infinite radius, before any output
    svg, rep = tmp_path / "p.svg", tmp_path / "r.json"
    assert main(["portrait", "--system", c32_file, "--box", "inf",
                 "--svg", str(svg)]) == 2
    assert "error: box must be positive and finite, got inf" in capsys.readouterr().err
    assert main(["classify", "--system", c32_file, "--radius", "inf",
                 "--out", str(rep)]) == 2
    assert "error: radius must be positive and finite, got inf" in (
        capsys.readouterr().err)
    assert not svg.exists() and not rep.exists()

    # the RK4 step is fixed (flow.STEP_H): no verb has an option for it
    for verb in ("integrate", "portrait"):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        assert "--h H" not in capsys.readouterr().out


def test_cli_rejects_times_and_boxes_that_are_not_positive_and_finite(
        c32_file, tmp_path, capsys):
    # a NaN box integrated to x1 = 8 and a NaN time limit never stopped the
    # orbit; both exited 0, as did a portrait with a negative time limit
    csv, events = tmp_path / "t.csv", tmp_path / "e.json"
    svg, samples = tmp_path / "p.svg", tmp_path / "p.csv"
    integrate_to = ["--events", str(events), "--out", str(csv)]
    for bad in ("nan", "-1", "0", "inf"):
        got = f"must be positive and finite, got {float(bad)!r}"
        assert main(["integrate", "--system", c32_file, "--seed", "0.1,0.1",
                     "--box", bad, "--t-max", "5", *integrate_to]) == 2
        assert f"error: box {got}" in capsys.readouterr().err
        assert main(["integrate", "--system", c32_file, "--seed", "0.1,0.1",
                     "--t-max", bad, *integrate_to]) == 2
        assert f"error: t_max {got}" in capsys.readouterr().err
        assert main(["portrait", "--system", c32_file, "--t-max", bad,
                     "--svg", str(svg), "--csv", str(samples)]) == 2
        assert f"error: t_max {got}" in capsys.readouterr().err
    assert not any(p.exists() for p in (csv, events, svg, samples))


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_integrate_rejects_a_time_or_box_that_is_not_positive_and_finite(bad):
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    with pytest.raises(ParseError, match="t_max must be positive and finite"):
        integrate(Z, (0.1, 0.1), bad)
    with pytest.raises(ParseError, match="box must be positive and finite"):
        integrate(Z, (0.1, 0.1), 1.0, box=bad)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_phase_portrait_rejects_a_time_or_box_that_is_not_positive_and_finite(bad):
    # with no seeds, only integrate checked them: box=nan, t_max=-1 gave []
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    none = dict(seeds_per_quadrant=0, seeds_per_branch=0)
    assert phase_portrait(Z, box=0.5, t_max=0.5, **none) == []
    with pytest.raises(ParseError, match="t_max must be positive and finite"):
        phase_portrait(Z, t_max=bad, **none)
    with pytest.raises(ParseError, match="box must be positive and finite"):
        phase_portrait(Z, box=bad, **none)


def test_cli_input_errors_exit_2_through_named_errors(c32_file, tmp_path, capsys):
    # inputs whose only error was a bare ValueError from deep inside
    big = tmp_path / "big.json"   # X1*Y2 + X2*Y1 overflows: NaN in the report
    big.write_text(json.dumps(system_to_obj(make_system(1e200, -1e200, 1e200, 1e200))))
    assert main(["return-map", "--system", str(big)]) == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    assert main(["classify", "--system", str(binary)]) == 2
    assert main(["classify", "--system", c32_file, "--radius", "0"]) == 2
    assert main(["portrait", "--system", c32_file, "--box", "0"]) == 2
    capsys.readouterr()


def test_cli_unreadable_system_path_exits_2(tmp_path, capsys):
    # a directory passed the exists() check and raised IsADirectoryError
    assert main(["classify", "--system", str(tmp_path)]) == 2
    assert f"cannot read {tmp_path}" in capsys.readouterr().err
    assert main(["classify", "--system", str(tmp_path / "missing.json")]) == 2
    assert "No such file" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_cli_unwritable_out_path_exits_2(tmp_path, capsys, where):
    # a missing directory was a FileNotFoundError traceback and a directory
    # an IsADirectoryError traceback (exit 1)
    path = tmp_path / where
    assert main(["normal-form", "Stable_C1", "--signs", "a=1,b=1",
                 "--out", str(path)]) == 2
    assert f"cannot write {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--csv", "--svg"])
def test_cli_unwritable_portrait_path_exits_2(c32_file, tmp_path, capsys, option):
    path = tmp_path / "missing" / "p.out"
    assert main(["portrait", "--system", c32_file, "--box", "0.5", "--t-max", "0.1",
                 "--seeds-per-quadrant", "1", "--seeds-per-branch", "0",
                 option, str(path)]) == 2
    assert f"cannot write {path}: No such file or directory" in capsys.readouterr().err


def test_cli_integrate_rejects_a_seed_that_is_not_finite(c32_file, tmp_path, capsys):
    # a NaN seed was integrated, and only the CSV writer stopped it
    out = tmp_path / "traj.csv"
    for seed in ("nan,0", "0,nan", "inf,0"):
        assert main(["integrate", "--system", c32_file, "--seed", seed,
                     "--out", str(out)]) == 2
        assert "is not a point of the box" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--seeds-per-quadrant", "--seeds-per-branch"])
def test_cli_portrait_rejects_a_negative_seed_count(c32_file, tmp_path, capsys, option):
    # a count of -1 built range(1, 0) and left its seeds out, exit 0
    svg = tmp_path / "p.svg"
    assert main(["portrait", "--system", c32_file, option, "-1",
                 "--svg", str(svg)]) == 2
    want = "-1 and 2" if option == "--seeds-per-quadrant" else "3 and -1"
    assert f"error: seed counts must be >= 0, got {want}" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("counts", [(-1, 2), (3, -2)])
def test_phase_portrait_rejects_a_negative_seed_count(counts):
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    with pytest.raises(ParseError, match="must be >= 0"):
        phase_portrait(Z, seeds_per_quadrant=counts[0], seeds_per_branch=counts[1])


@pytest.mark.parametrize("counts", [(2.5, 2), (3, 1.0)])
def test_phase_portrait_rejects_a_seed_count_that_is_not_an_integer(counts):
    # 2.5 raised TypeError from range
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    with pytest.raises(ParseError, match="integers only"):
        phase_portrait(Z, seeds_per_quadrant=counts[0], seeds_per_branch=counts[1])


def test_cli_subnormal_radius_and_box(c32_file, tmp_path):
    # both ended in a ValueError traceback (exit 1): see
    # test_switching.py::test_subnormal_radius.  A subnormal box is too small
    # to draw, so the portrait is unusable input
    dpe = tmp_path / "dpe.json"
    dpe.write_text(json.dumps(system_to_obj(
        normal_form(CLASS_DPE, {"a": 1, "b": 1, "c1": 1, "c2": 1}))))
    assert main(["classify", "--system", str(dpe), "--radius", "1e-320",
                 "--out", str(tmp_path / "c.json")]) == 0
    # the origin gap does not grow with the radius: at radius 1e8 the
    # pseudo-equilibria at s = 0.1 of the unfolding at delta = 0.1 are listed
    # on both branches (test_switching.py::TestPseudoEquilibria)
    dpe.write_text(json.dumps(system_to_obj(
        unfolding(CLASS_DPE, {"a": 1, "b": 1, "c1": 1, "c2": 1}, 0.1))))
    assert main(["classify", "--system", str(dpe), "--radius", "1e8",
                 "--out", str(tmp_path / "c.json")]) == 0
    pes = json.loads((tmp_path / "c.json").read_text())["pseudo_equilibria"]
    assert [p["branch"] for p in pes] == [1, 2]
    assert [p["s"] for p in pes] == pytest.approx([0.1, 0.1], abs=1e-9)
    assert main(["portrait", "--system", c32_file, "--box", "5e-324", "--t-max", "0.1",
                 "--svg", str(tmp_path / "p.svg")]) == 2
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("box", ["1e-310", "1.6e-306"])
def test_cli_portrait_of_a_box_too_small_to_draw_exits_2(c32_file, tmp_path, box):
    # span / (2 box) overflowed to inf, and the SVG was written with nan and
    # inf coordinates, exit 0; neither it nor the CSV is written now
    svg, csv = tmp_path / "p.svg", tmp_path / "p.csv"
    assert main(["portrait", "--system", c32_file, "--box", box, "--t-max", "0.1",
                 "--svg", str(svg), "--csv", str(csv)]) == 2
    assert not svg.exists() and not csv.exists()


def test_portrait_svg_draws_the_smallest_boxes_whose_scale_is_finite():
    # 592 pixels over 2 box overflow below box = 1.647e-306
    Z = normal_form(CLASS_C32, {"a": 1, "b": 1, "c": 1})
    for box in (1.7e-306, 1e-300):
        svg = portrait_svg(Z, [], box=box)
        assert "nan" not in svg and "inf" not in svg
        ET.fromstring(svg)
    with pytest.raises(ParseError, match="too small to draw"):
        portrait_svg(Z, [], box=1.6e-306)


def test_cli_internal_value_error_is_not_unusable_input(monkeypatch, c32_file, capsys):
    # an internal bug surfaces instead of exiting 2 as "unusable input"
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    # the parser is built before the patch: a handler looks up the library
    # function it calls when it runs, not when the parser binds it
    assert main(["classify", "--system", c32_file]) == 0
    capsys.readouterr()
    monkeypatch.setattr("crosswitch.cli.classification_report", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["classify", "--system", c32_file])


def test_cli_main_prints_the_same_bytes_when_run_again_in_one_process(c32_file, capsys):
    # `build_parser` is memoised: each call after the first in a process
    # parses with the first call's parser, and must print what it prints
    # when it runs first
    calls = [
        ["integrate", "--system", c32_file, "--seed", "0.5,-0.15", "--h", "1e-3"],
        ["--version"],
        ["normal-form", "NoSuchClass", "--signs", "a=1"],    # a library ParseError
        ["return-map", "--numeric", "--system", c32_file],
        ["classify", "--system", c32_file],
    ]

    def run(argv):
        try:
            status = main(argv)
        except SystemExit as e:
            status = e.code
        return (status, *capsys.readouterr())

    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(run(argv))
    cli.build_parser.cache_clear()
    again = [run(argv) for argv in calls]
    assert [status for status, _, _ in first] == [2, 0, 2, 0, 0]
    assert "unrecognized arguments: --h 1e-3" in first[0][2]
    assert "error: unknown class 'NoSuchClass'" in first[2][2]
    assert again == first
    assert cli.build_parser.cache_info().misses == 1


def test_cli_portrait_of_an_overflowing_system_exits_2(tmp_path, capsys):
    # a NaN step passed the flow's box test, and the SVG was written with
    # nan coordinates, exit 0
    Z = make_system({(0, 0): 1, (2, 0): 1e300}, {(0, 0): 1, (0, 2): -1e300},
                    {(0, 0): 1, (2, 0): 1e300}, {(0, 0): -1, (1, 1): 1e300})
    system = tmp_path / "overflow.json"
    system.write_text(json.dumps(system_to_obj(Z)))
    svg = tmp_path / "p.svg"
    assert main(["portrait", "--system", str(system), "--box", "0.8", "--t-max", "1",
                 "--svg", str(svg)]) == 2
    assert "non-finite coordinates" in capsys.readouterr().err
    assert not svg.exists()


def test_cli_portrait_deterministic(c32_file, tmp_path):
    svg1, svg2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    csv1 = tmp_path / "p1.csv"
    args = ["portrait", "--system", c32_file, "--box", "0.5",
            "--t-max", "0.5", "--seeds-per-quadrant", "1",
            "--seeds-per-branch", "1"]
    assert main(args + ["--svg", str(svg1), "--csv", str(csv1)]) == 0
    assert main(args + ["--svg", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    ET.fromstring(svg1.read_text())
    assert csv1.read_text().startswith("trajectory,t,x1,x2,mode")


def test_cli_sweep_ok(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--family", "codim1_regularfold",
                 "--signs", "a=-1,b=1", "--deltas=-0.3:0.3:3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "-3.000000000000e-01"
    # rerun: byte identical
    out2 = tmp_path / "sweep2.csv"
    assert main(["sweep", "--family", "codim1_regularfold",
                 "--signs", "a=-1,b=1", "--deltas=-0.3:0.3:3",
                 "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--skip-fixed-points"]])
def test_cli_sweep_has_one_configuration(capsys, option):
    # a sweep runs in one thread with every check; neither switch exists
    with pytest.raises(SystemExit) as exc:
        main(_SWEEP + ["--deltas=-0.1:0.1:3"] + option)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_cli_sweep_requires_zero_in_grid(capsys):
    assert main(["sweep", "--family", "codim1_regularfold",
                 "--signs", "a=1,b=1", "--deltas", "0.1:0.3:3"]) == 2
    assert main(["sweep", "--family", "codim1_regularfold",
                 "--signs", "a=1,b=1", "--delta-list", "0.1,0.2"]) == 2
    assert "delta = 0" in capsys.readouterr().err


def test_cli_sweep_rejects_stable_family(capsys):
    assert main(["sweep", "--family", "stable_c1", "--signs", "a=1,b=1",
                 "--deltas=-0.1:0.1:3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("delta", ["-1", "-2"])
def test_cli_pseudo_hopf_sweep_at_the_family_edge_exits_2(capsys, delta):
    # at delta = -ac = -1 the sweep crashed with a ZeroDivisionError; past
    # it, it blamed the return map's input
    assert main(["sweep", "--family", "codim1_pseudohopf", "--signs", "a=1,b=1,c=1",
                 f"--delta-list=0,{delta}"]) == 2
    assert "edge delta = -ac = -1" in capsys.readouterr().err


@pytest.mark.parametrize("family, signs, message", [
    ("codim1_doublepseudoeq", "a=1,b=1,c1=1,c2=1", "edge delta = b/a = 1"),
    ("codim1_regularfold", "a=1,b=1", "edge delta = ab = 1"),
    ("codim1_regularfold", "a=-1,b=1", "edge delta = b = 1"),
])
def test_cli_sweep_past_the_family_edge_exits_2(capsys, family, signs, message):
    # delta = 2 of the double pseudo-equilibrium family observed
    # Codim1_PseudoHopf, and the regular fold's delta = 1 Codim1_PseudoHopf
    # (alpha = -1) or HigherCodimension (det Z(0) = 0): the sweeps exited 4
    for delta in ("1", "2"):
        assert main(["sweep", "--family", family, "--signs", signs,
                     f"--delta-list=0,{delta}"]) == 2
        assert message in capsys.readouterr().err


def test_cli_delta_grid_snaps_relative_to_its_largest_value(capsys):
    # the snap to 0 had an absolute floor, 1e-15: 0,1e-16,-3e-16 swept
    # delta = 0 three times
    assert main(_SWEEP + ["--delta-list=0,1e-16,-3e-16"]) == 0
    out = capsys.readouterr().out
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
        "0.000000000000e+00", "1.000000000000e-16", "-3.000000000000e-16"]
    # an even grid's middle value, a rounding residue, still snaps to 0
    assert main(_SWEEP + ["--deltas=-0.3:0.1:5"]) == 0
    assert "\n0.000000000000e+00," in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["-2e-3:2e-3:9", "-0.2:0.2:5", "0:1:3", "-0.3:0.1:5"])
def test_cli_delta_grid_is_the_scan_grid(spec):
    # lo + step * k, step = (hi - lo) / (n - 1), with hi exact, bit for bit;
    # only a rounding residue of 0 snaps to 0.0
    lo, hi, n = (float(p) for p in spec.split(":"))
    step = (hi - lo) / (n - 1)
    want = [lo + step * k for k in range(int(n) - 1)] + [hi]
    got = cli._parse_delta_grid(spec, None)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.hex() == w.hex() or g == 0.0 and abs(w) <= 1e-15 * max(map(abs, want))


@pytest.mark.parametrize("family, signs, deltas, n", [
    ("codim1_pseudohopf", "a=1,b=1,c=1", "--deltas=-1e-7:1e-7:3", 3),
    ("codim1_pseudohopf", "a=1,b=1,c=1", "--delta-list=-1e-16,0,1e-16", 3),
    ("codim1_regularfold", "a=1,b=1", "--delta-list=0,1e-10", 2),
])
def test_cli_pseudo_hopf_sweep_next_to_the_band_exits_0(capsys, family, signs, deltas, n):
    # the pseudo-Hopf cycles at delta = +-1e-7 have multipliers within 1e-6
    # of 1; they got no stability verdict, and the sweep exited 4.  At
    # delta = +-1e-16, inside the band, the fixed-point checks ran and
    # failed, and the sweep exited 4.  A regular-fold delta inside the band
    # is predicted, and observed, on the band
    # (test_classify.py::test_side_prediction_applies_the_band)
    assert main(["sweep", "--family", family, "--signs", signs, deltas]) == 0
    assert capsys.readouterr().out.count(",true,") == n


def test_cli_normal_form_rejects_a_delta_that_is_not_finite(capsys):
    # a NaN delta reached the system as a coefficient and exited 3
    for bad in ("nan", "inf"):
        assert main(["normal-form", "codim1_regularfold", "--signs", "a=1,b=1",
                     "--delta", bad]) == 2
    assert "error: delta must be finite" in capsys.readouterr().err


def test_cli_sweep_rejects_deltas_that_are_not_finite(capsys):
    # a NaN in the delta list reached the system as a coefficient and
    # exited 3
    assert main(["sweep", "--family", "codim1_regularfold",
                 "--signs", "a=1,b=1", "--delta-list", "0,nan"]) == 2
    assert "--delta-list must be finite" in capsys.readouterr().err
    assert main(["sweep", "--family", "codim1_regularfold",
                 "--signs", "a=1,b=1", "--deltas=-inf:1:3"]) == 2
    assert "--deltas must be finite" in capsys.readouterr().err


def test_cli_sweep_mismatch_exits_4(monkeypatch, tmp_path, capsys):
    bad = UnfoldingVerification(
        CLASS_RF, {"a": 1, "b": 1}, 0.1, "Stable_C1", "Stable_C2",
        (VerifyCheck("fold_location", False, "off by 1"),))

    def fake_sweep(family, signs, deltas):
        return [SweepRecord(0.1, bad)]

    monkeypatch.setattr("crosswitch.cli.sweep_family", fake_sweep)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "codim1_regularfold",
                 "--signs", "a=1,b=1", "--deltas=-0.1:0.1:3",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "mismatch" in err and "fold_location" in err
    assert out.exists()  # the CSV is still written before the failure exit


def test_cli_route_mismatch_in_a_sweep_is_not_unusable_input(monkeypatch):
    # lane and orbit-leg full turns that disagree are a numerical fault: the
    # RouteMismatch of the fixed-point scan escapes instead of exiting 2
    chart_turn = lanes._chart_turn

    def biased(Z, xs):
        values, ok = chart_turn(Z, xs)
        return values + np.where(ok, 1e-7, 0.0), ok

    monkeypatch.setattr(lanes, "_chart_turn", biased)
    with pytest.raises(RouteMismatch, match="lane value"):
        main(["sweep", "--family", "codim1_pseudohopf",
              "--signs", "a=1,b=1,c=1", "--deltas=-1e-3:1e-3:3"])


def test_sweep_demo_has_no_jobs_option():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "sweep_demo.py"), "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--points" in proc.stdout and "--jobs" not in proc.stdout


def test_sweep_demo_rejects_fewer_than_three_points(tmp_path):
    # --points 1 divided by zero and --points -1 indexed an empty grid
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for points in ("1", "-1"):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "sweep_demo.py"),
             "--out-dir", str(tmp_path), "--points", points],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "--points must be at least 3" in proc.stderr


@pytest.mark.parametrize("args", [["--box", "0"], ["--box", "-1"],
                                  ["--t-max", "nan"], ["--t-max", "inf"]])
def test_make_portraits_rejects_a_box_or_time_that_is_not_positive_and_finite(
        tmp_path, args):
    # each ended in a ValueError traceback from flow.integrate
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "make_portraits.py"),
         "--out-dir", str(tmp_path / "out"), *args],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert f"{args[0]} must be positive and finite" in proc.stderr
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# start-up: what importing the CLI loads
# ---------------------------------------------------------------------------

def _run_fresh(code: str, *args: str) -> str:
    """Standard output of `code` run with `args` in a fresh interpreter; the
    test process has loaded scipy for its own oracles, so it cannot tell."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_numpy_scipy_futures_dataclasses_or_inspect():
    # numpy: only `lanes`, imported by the verbs that run lanes, loads it;
    # the records are NamedTuples, so nothing loads dataclasses (or the
    # inspect it imports)
    out = _run_fresh("import sys, crosswitch.cli\n"
                     "print(sorted({'numpy', 'scipy', 'concurrent.futures',\n"
                     "              'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out == "[]\n"


#: Prints the exit code of the verb given as the arguments and whether
#: numpy or scipy was loaded.
_VERB_LOADS = ("import sys\n"
               "from crosswitch.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)")


def test_cli_classify_loads_no_scipy(c32_file, tmp_path):
    # nor numpy: its root scans run in pure Python
    out = tmp_path / "classify.json"
    assert _run_fresh(_VERB_LOADS, "classify", "--system", c32_file,
                      "--out", str(out)) == "0 False False\n"
    assert main(["classify", "--system", c32_file, "--out", str(tmp_path / "here.json")]) == 0
    assert out.read_bytes() == (tmp_path / "here.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["portrait", "--box", "0.8", "--svg", "{out}"],
    ["integrate", "--seed", "0.5,-0.15", "--t-max", "2", "--out", "{out}"],
    ["return-map", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_cli_verbs_without_lanes_load_neither_numpy_nor_scipy(c32_file, tmp_path, argv):
    argv = [argv[0], "--system", c32_file, *argv[1:]]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    assert _run_fresh(_VERB_LOADS, *(str(fresh) if a == "{out}" else a
                                     for a in argv)) == "0 False False\n"
    assert main([str(here) if a == "{out}" else a for a in argv]) == 0
    assert fresh.read_bytes() == here.read_bytes()


def test_cli_numeric_return_map_in_a_fresh_interpreter(c32_file, tmp_path):
    # the first numeric fit imports scipy; the report is the in-process one
    out = tmp_path / "fresh.json"
    assert _run_fresh("import sys\n"
                      "from crosswitch.cli import main\n"
                      "code = main(['return-map', '--system', sys.argv[1], '--numeric',\n"
                      "             '--out', sys.argv[2]])\n"
                      "print(code, 'scipy' in sys.modules)",
                      c32_file, str(out)) == "0 True\n"
    here = tmp_path / "here.json"
    assert main(["return-map", "--system", c32_file, "--numeric", "--out", str(here)]) == 0
    assert out.read_bytes() == here.read_bytes()
