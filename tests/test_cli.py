import builtins
import csv
import hashlib
import io
import json
import warnings

import numpy as np
import pytest

from fusionframes import (
    build_frame,
    catalog,
    certify_tight,
    equiangularity,
    load_frame,
    mub_lines_c2,
    save_frame,
    save_generators,
    save_line_set,
    weyl_a2_group,
)
from fusionframes import cli
from fusionframes.cli import main
from fusionframes.errors import CERTIFY_TOL, EQUALITY_TOL


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def strip_wall_time(text):
    return "\n".join(
        line for line in text.splitlines() if '"wall_time_s"' not in line)


@pytest.fixture
def mercedes_file(tmp_path, capsys):
    path = str(tmp_path / "mercedes.json")
    code, out, _ = run(["gen", "catalog", "mercedes", "-o", path], capsys)
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# check

def test_check_tight_verdicts(mercedes_file, capsys):
    code, out, _ = run(["check", mercedes_file, "--p", "2", "--mode", "tight"],
                       capsys)
    report = json.loads(out)
    assert code == 0
    assert report["results"]["verdict"] == "tight"
    assert report["results"]["forced_constant"] == pytest.approx(9 / 8)
    assert report["results"]["residual"] < 1e-12
    assert list(report["results"]) == ["verdict", "residual", "abs_residual",
                                       "forced_constant"]
    assert list(report)[-1] == "wall_time_s"

    code, out, _ = run(["check", mercedes_file, "--p", "3", "--mode", "tight"],
                       capsys)
    assert code == 1
    assert json.loads(out)["results"]["verdict"] == "not-tight"


def test_check_cubature(mercedes_file, capsys):
    code, out, _ = run(
        ["check", mercedes_file, "--p", "2", "--mode", "cubature"], capsys)
    report = json.loads(out)
    assert code == 0
    assert list(report["results"]) == ["verdict", "residual", "method", "monomials",
                                       "ffp", "t_value", "margin"]
    assert report["results"]["verdict"] == "cubature"
    assert report["results"]["residual"] < 1e-14
    assert report["results"]["method"] == "lie-derivative"
    assert report["results"]["monomials"] == 6
    assert report["results"]["ffp"] == pytest.approx(3 / 8, abs=1e-12)
    assert report["results"]["t_value"] == pytest.approx(3 / 8, abs=1e-12)
    assert abs(report["results"]["margin"]) < 1e-9
    # nothing is sampled, so the global seed does not reach the report
    _, other, _ = run(["--seed", "7", "check", mercedes_file, "--p", "2",
                       "--mode", "cubature"], capsys)
    assert strip_wall_time(other) == strip_wall_time(out)


def test_check_equiangular_and_bounds(mercedes_file, capsys):
    code, out, _ = run(
        ["check", mercedes_file, "--p", "1", "--mode", "equiangular"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["results"]["verdict"] == "equiangular"
    assert report["results"]["common_value"] == pytest.approx(0.25, abs=1e-12)
    assert report["results"]["gerzon_ok"] is True

    code, out, _ = run(
        ["check", mercedes_file, "--p", "2", "--mode", "bounds",
         "--restarts", "8"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["results"]["a_estimate"] == pytest.approx(9 / 8, abs=1e-6)
    assert report["results"]["b_estimate"] == pytest.approx(9 / 8, abs=1e-6)
    assert list(report["results"]) == ["a_estimate", "b_estimate", "ffp",
                                       "stop_reasons", "note"]
    counts = report["results"]["stop_reasons"]
    assert list(counts) == ["gradient", "stagnation", "step-underflow", "max-iters"]
    assert sum(counts.values()) == 16      # a min and a max descent per restart
    assert list(report)[-1] == "wall_time_s"


def test_check_tolerance_defaults_follow_the_library(tmp_path, capsys):
    # three lines at 0, 60 deg + 2e-9 rad and 120 deg: overlap spread 3.5e-9,
    # inside EQUALITY_TOL but outside 1e-9
    angles = (0.0, np.pi / 3 + 2e-9, 2 * np.pi / 3)
    frame = build_frame([np.array([[np.cos(a)], [np.sin(a)]]) for a in angles])
    path = str(tmp_path / "lines.json")
    save_frame(frame, path)
    rep = equiangularity(load_frame(path))
    assert rep.is_equiangular and 1e-9 < rep.spread < EQUALITY_TOL
    code, out, _ = run(["check", path, "--p", "1", "--mode", "equiangular"], capsys)
    report = json.loads(out)
    assert (code, report["results"]["verdict"]) == (0, "equiangular")
    assert report["tolerances"]["tol"] == EQUALITY_TOL
    code, out, _ = run(["check", path, "--p", "1", "--mode", "equiangular",
                        "--tol", "1e-9"], capsys)
    report = json.loads(out)
    assert (code, report["results"]["verdict"]) == (1, "not-equiangular")
    assert report["tolerances"]["tol"] == 1e-9
    for mode in ("tight", "cubature"):
        code, out, _ = run(["check", path, "--p", "1", "--mode", mode], capsys)
        assert json.loads(out)["tolerances"]["tol"] == CERTIFY_TOL


def test_check_refuses_a_negative_or_non_finite_tol(mercedes_file, capsys):
    # a tolerance of -1 once read a residual of 3.9e-16 as not tight, and a
    # NaN or infinite one reached the JSON writer
    for tol in ("-1", "nan", "inf"):
        code, out, err = run(["check", mercedes_file, "--p", "2", "--mode", "tight",
                              f"--tol={tol}"], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ParameterError" and "--tol" in error["message"]
    code, out, _ = run(["check", mercedes_file, "--p", "2", "--mode", "tight", "--tol", "0"],
                       capsys)
    report = json.loads(out)
    assert code in (0, 1) and report["results"]["verdict"] in ("tight", "not-tight")
    assert report["tolerances"]["tol"] == 0.0


# ---------------------------------------------------------------------------
# gen

def test_gen_orbit(tmp_path, capsys):
    gens = str(tmp_path / "weyl.json")
    save_generators(list(weyl_a2_group().generators), gens)
    out_path = str(tmp_path / "orbit.json")
    code, out, _ = run(
        ["gen", "orbit", "--generators", gens, "--seed-angle", "90",
         "-o", out_path], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["parameters"]["group_order"] == 6
    assert report["results"]["n_entries"] == 3
    assert certify_tight(load_frame(out_path), 2).tight

    # Haar seed goes through --seed; a generic line has a full orbit
    code, out, _ = run(
        ["--seed", "7", "gen", "orbit", "--generators", gens, "-o", out_path],
        capsys)
    assert code == 0
    assert json.loads(out)["results"]["n_entries"] == 6
    assert certify_tight(load_frame(out_path), 2).tight


def test_gen_orbit_seed_dim_and_max_order(tmp_path, capsys):
    # the signed permutations of B3, order 48; -I fixes every plane, so a
    # generic plane has 24 images, tight at p = 1 but not at p = 2
    gens = tmp_path / "b3.json"
    gens.write_text(json.dumps([[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                                [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                                [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]))
    out_path = str(tmp_path / "planes.json")
    code, out, _ = run(["--seed", "3", "gen", "orbit", "--generators", str(gens),
                        "--seed-dim", "2", "-o", out_path], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["n_entries"] == 24 and results["dims"] == [2]
    for p, expected in (("1", 0), ("2", 1)):
        assert run(["check", out_path, "--p", p, "--mode", "tight"], capsys)[0] == expected
    # the closure may reach max_order elements, not one more
    code, out, err = run(["gen", "orbit", "--generators", str(gens), "--max-order", "47",
                          "-o", out_path], capsys)
    assert code == 2 and out == "" and json.loads(err)["error"] == "GroupTooLarge"
    code, out, _ = run(["gen", "orbit", "--generators", str(gens), "--max-order", "48",
                        "-o", out_path], capsys)
    assert code == 0 and json.loads(out)["parameters"]["group_order"] == 48
    # a seed dimension must leave a complement
    code, out, err = run(["gen", "orbit", "--generators", str(gens), "--seed-dim", "3",
                          "-o", out_path], capsys)
    assert code == 2 and out == "" and json.loads(err)["error"] == "ParameterError"


def test_gen_orbit_seed_options_exclude_each_other(tmp_path, capsys):
    gens = str(tmp_path / "weyl.json")
    save_generators(list(weyl_a2_group().generators), gens)
    out_path = str(tmp_path / "orbit.json")
    # 1 is --seed-dim's default value, and still refused beside an angle
    for dim in ("5", "1"):
        for pair in (["--seed-angle", "20", "--seed-dim", dim],
                     ["--seed-dim", dim, "--seed-angle", "20"]):
            with pytest.raises(SystemExit) as exc:
                main(["gen", "orbit", "--generators", gens, *pair, "-o", out_path])
            assert exc.value.code == 2
    capsys.readouterr()


def test_gen_orbit_report_names_the_seed(tmp_path, capsys):
    gens = str(tmp_path / "weyl.json")
    save_generators(list(weyl_a2_group().generators), gens)
    out_path = str(tmp_path / "orbit.json")
    cases = ((["--seed-angle", "20"], {"seed_angle": 20.0}),
             ([], {"seed_dim": 1, "seed": 4}),
             (["--seed-dim", "1"], {"seed_dim": 1, "seed": 4}))
    for flags, seed in cases:
        code, out, _ = run(["--seed", "4", "gen", "orbit", "--generators", gens, *flags,
                            "-o", out_path], capsys)
        assert code == 0
        assert json.loads(out)["parameters"] == dict(
            {"kind": "orbit", "generators": gens}, **seed, group_order=6, orbit_size=6)


def test_non_finite_generators_exit_2(tmp_path, capsys):
    # a NaN or inf generator is not orthogonal: no closure of NaN elements
    # ending in a misleading GroupTooLarge
    for bad in ("NaN", "Infinity"):
        path = tmp_path / f"{bad}.json"
        path.write_text("[[[%s, 0.0], [0.0, 1.0]]]" % bad)
        code, out, err = run(["gen", "orbit", "--generators", str(path),
                              "-o", str(tmp_path / "orbit.json")], capsys)
        assert code == 2 and out == "", bad
        assert json.loads(err)["error"] == "NotOrthogonal"


def test_non_finite_seed_angle_exits_2(tmp_path, capsys):
    # a NaN seed once reached the rank SVD and exited with LinAlgError; an
    # infinite one warned in np.cos ahead of the JSON error
    gens = str(tmp_path / "weyl.json")
    save_generators(list(weyl_a2_group().generators), gens)
    for angle in ("nan", "inf", "-inf"):
        code, out, err = run(["gen", "orbit", "--generators", gens, f"--seed-angle={angle}",
                              "-o", str(tmp_path / "orbit.json")], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ParameterError" and "--seed-angle" in error["message"]


def test_gen_extend_and_realify(tmp_path, mercedes_file, capsys):
    mub = str(tmp_path / "mub.json")
    code, _, _ = run(["gen", "catalog", "mub-planes-r4", "-o", mub], capsys)
    assert code == 0

    ext = str(tmp_path / "ext.json")
    code, out, _ = run(
        ["gen", "extend", "--inner", mercedes_file, "--outer", mub, "-o", ext],
        capsys)
    report = json.loads(out)
    assert code == 0
    assert report["results"]["ambient_dim"] == 4
    assert report["results"]["n_entries"] == 18
    assert report["results"]["dims"] == [1]
    assert certify_tight(load_frame(ext), 2).tight

    lines = str(tmp_path / "lines.json")
    save_line_set(mub_lines_c2(), lines)
    real = str(tmp_path / "real.json")
    code, out, _ = run(["gen", "realify", "--lines", lines, "-o", real], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["parameters"]["n_lines"] == 6
    assert report["results"]["dims"] == [2]
    assert certify_tight(load_frame(real), 3).tight


# ---------------------------------------------------------------------------
# moments

def test_moments_csv_stdout(capsys):
    code, out, _ = run(["moments", "--d", "3", "--p", "1"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "l", "p", "value", "error", "method"]
    table = {(r[0], r[1]): r for r in rows[1:]}
    assert set(table) == {("1", "1"), ("1", "2"), ("2", "2")}
    assert float(table[("1", "1")][3]) == pytest.approx(1 / 3)
    assert float(table[("1", "2")][3]) == pytest.approx(2 / 3)
    assert float(table[("2", "2")][3]) == pytest.approx(4 / 3)
    assert all(r[5] == "closed-form" for r in rows[1:])


def test_moments_csv_file(tmp_path, capsys):
    path = str(tmp_path / "m.csv")
    code, out, _ = run(["moments", "--d", "2", "--p", "4", "-o", path], capsys)
    assert code == 0 and out == ""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][:3] == ["1", "1", "4"]
    assert float(rows[1][3]) == 0.2734375   # (1/2)_4 / (1)_4
    assert float(rows[1][4]) == 0.0


# ---------------------------------------------------------------------------
# optimize

def test_optimize_success(tmp_path, capsys):
    frame_path = str(tmp_path / "opt.json")
    trace_path = str(tmp_path / "trace.csv")
    code, out, _ = run(
        ["optimize", "--d", "2", "--k", "1", "--n", "3", "--p", "2",
         "--restarts", "4", "-o", frame_path, "--trace", trace_path], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["results"]["success"] is True
    assert report["results"]["margin"] < 1e-5
    assert report["results"]["certified_tight"] is True
    assert report["results"]["certify_abs_residual"] >= 0.0
    assert list(report["results"]) == [
        "ffp", "t_value", "t_error", "margin", "success", "grad_norm",
        "best_restart", "iterations", "stop_reason", "stop_reasons",
        "hessian_evaluations", "certified_tight", "certify_residual",
        "certify_abs_residual", "frame_file", "trace_file"]
    counts = report["results"]["stop_reasons"]
    assert list(counts) == ["gradient", "stagnation", "step-underflow", "max-iters"]
    assert sum(counts.values()) == 4
    assert counts[report["results"]["stop_reason"]] >= 1
    assert list(report)[-1] == "wall_time_s"
    assert '"tol_grad": 1e-11,\n    "target_margin": 1e-05,' in out
    assert certify_tight(load_frame(frame_path), 2).tight
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "ffp"]
    vals = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(report["results"]["ffp"])


def test_optimize_reports_hessian_evaluations(capsys):
    # the defaults at seed 0: one batched evaluation per Newton round
    for d, n, expected in (("2", "3", 11), ("3", "6", 17)):
        code, out, _ = run(["optimize", "--d", d, "--k", "1", "--n", n, "--p", "2"], capsys)
        assert code == 0 and json.loads(out)["results"]["hessian_evaluations"] == expected


def test_optimize_tolerances_are_not_options():
    for flag in ("--tol-grad", "--target-margin"):
        with pytest.raises(SystemExit) as info:
            main(["optimize", "--d", "2", "--k", "1", "--n", "3", "--p", "2", flag, "1e-9"])
        assert info.value.code == 2


def test_optimize_failure_exit(capsys):
    code, out, _ = run(
        ["optimize", "--d", "2", "--k", "1", "--n", "2", "--p", "2",
         "--restarts", "4"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["results"]["success"] is False
    assert report["results"]["ffp"] == pytest.approx(0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# determinism and errors

def test_reports_are_deterministic(mercedes_file, capsys):
    argvs = (
        ["--seed", "3", "check", mercedes_file, "--p", "2", "--mode", "bounds",
         "--restarts", "4"],
        ["--seed", "3", "optimize", "--d", "2", "--k", "1", "--n", "3",
         "--p", "2", "--restarts", "2"],
    )
    for argv in argvs:
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert strip_wall_time(first) == strip_wall_time(second)


def test_error_exit_codes(tmp_path, capsys):
    code, out, err = run(
        ["check", str(tmp_path / "missing.json"), "--p", "1", "--mode", "tight"],
        capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["check", str(bad), "--p", "1", "--mode", "tight"],
                       capsys)
    assert code == 2
    assert json.loads(err)["error"] == "JSONDecodeError"

    code, _, err = run(
        ["gen", "catalog", "no-such-frame", "-o", str(tmp_path / "x.json")],
        capsys)
    assert code == 2
    assert json.loads(err)["error"] == "UnknownName"

    line = '{"basis": [[1.0, 0.0]], "weight": 1.0}'
    for name, d, entry in (
            ("inf.json", "2", '{"basis": [[1.0, 0.0]], "weight": 1e400}'),
            ("nan.json", "2", '{"basis": [[NaN, 1.0]], "weight": 1.0}'),
            # strict types: no truncation, coercion or bare ValueError
            ("float-dim.json", "2.7", line),
            ("string-dim.json", '"abc"', line),
            ("bool-weight.json", "2", '{"basis": [[1.0, 0.0]], "weight": true}'),
            ("string-weight.json", "2", '{"basis": [[1.0, 0.0]], "weight": "1"}'),
            # a boolean next to a float read as 1.0: a tight frame at p = 1
            ("bool-basis.json", "2", '{"basis": [[true, 0.0]], "weight": 1.0}, '
                                     '{"basis": [[0.0, 1.0]], "weight": 1.0}'),
            # an integer weight beyond the float range
            ("overflow-weight.json", "2",
             '{"basis": [[1.0, 0.0]], "weight": 1%s}' % ("0" * 400))):
        path = tmp_path / name
        path.write_text('{"ambient_dim": %s, "entries": [%s]}' % (d, entry))
        code, out, err = run(["check", str(path), "--p", "1", "--mode", "tight"],
                             capsys)
        assert code == 2 and out == "", name
        assert json.loads(err)["error"] == "FrameFormatError"

    # generator and line-set files are as strict as frame files
    for name, kind, flag, text in (
            ("string-gens.json", "orbit", "--generators", '[[["1", "0"], ["0", "-1"]]]'),
            ("bool-gens.json", "orbit", "--generators", "[[[true, false], [false, true]]]"),
            ("string-lines.json", "realify", "--lines", '[["1", "0", "0", "0"]]'),
            ("bool-lines.json", "realify", "--lines", "[[true, false, false, false]]"),
            # a boolean next to a float read as 1.0: a group of order 12
            ("mixed-bool-gens.json", "orbit", "--generators",
             "[[[true, 0.0], [0.0, -1.0]], [[0.5, 0.8660254037844386], "
             "[0.8660254037844386, -0.5]]]"),
            ("mixed-bool-lines.json", "realify", "--lines", "[[true, 0.0, 0.0, 0.0]]"),
            ("nan-lines.json", "realify", "--lines", "[[NaN, 0.0, 0.0, 0.0]]")):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(["gen", kind, flag, str(path), "-o", str(tmp_path / "x.json")],
                             capsys)
        assert code == 2 and out == "", name
        assert json.loads(err)["error"] == "FrameFormatError"

    # d = 20, p = 3: the cubature certificate's cubic forms in 210 variables
    path = str(tmp_path / "planes20.json")
    save_frame(build_frame([np.eye(20)[:, :2]]), path)
    code, out, err = run(["check", path, "--p", "3", "--mode", "cubature"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SizeGuardExceeded"

    for argv in (["moments", "--d", "8", "--p", "1000"],
                 ["moments", "--d", "10000000", "--p", "2"],
                 ["gen", "catalog", "equispaced-lines(99999999)",
                  "-o", str(tmp_path / "x.json")],
                 ["gen", "catalog", "cross-polytope-lines(99999999)",
                  "-o", str(tmp_path / "x.json")]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"] == "ParameterError"

    # orders below 1: --p 0 gave a full report and --p -1 an infinite bound
    path = str(tmp_path / "mercedes.json")
    save_frame(catalog("mercedes"), path)
    for p, mode in (("0", "bounds"), ("-1", "bounds"), ("0", "equiangular")):
        code, out, err = run(["check", path, "--p", p, "--mode", mode], capsys)
        assert code == 2 and out == "", (p, mode)
        assert json.loads(err)["error"] == "ParameterError"

    with pytest.raises(SystemExit) as exc:
        main(["check", "whatever.json", "--p", "1"])   # --mode is required
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("warnings_action", ["error", "ignore"])
def test_non_finite_reports_exit_2(tmp_path, capsys, warnings_action):
    # both printed "ffp": Infinity, which is not JSON, and exited 0
    mub = str(tmp_path / "mub.json")
    save_frame(catalog("mub-planes-r4"), mub)
    heavy = str(tmp_path / "heavy.json")
    save_frame(catalog("mercedes").rescaled(1e200), heavy)
    with warnings.catch_warnings():
        warnings.simplefilter(warnings_action, RuntimeWarning)
        for path, p in ((mub, "2000"), (heavy, "2")):
            code, out, err = run(["check", path, "--p", p, "--mode", "bounds"], capsys)
            assert code == 2 and out == "", (path, p)
            assert json.loads(err)["error"] == "FloatingPointError"


def test_reports_are_json_without_infinities(mercedes_file, capsys, monkeypatch):
    # a non-finite value that no numpy operation flags still fails the report
    monkeypatch.setattr(cli, "ffp", lambda frame, p: float("inf"))
    code, out, err = run(["check", mercedes_file, "--p", "2", "--mode", "bounds"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_check_reads_the_frame_file_once(mercedes_file, capsys, monkeypatch):
    opened = []
    for module in (builtins, io):
        real = module.open
        monkeypatch.setattr(module, "open", lambda path, *args, real=real, **kw:
                            opened.append(str(path)) or real(path, *args, **kw))
    code, out, _ = run(["check", mercedes_file, "--p", "2", "--mode", "tight"], capsys)
    monkeypatch.undo()
    assert code == 0
    assert opened.count(mercedes_file) == 1
    with open(mercedes_file, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert json.loads(out)["input"]["sha256"] == digest


def test_skew_frame_rejected_on_load(tmp_path, capsys):
    doc = {"ambient_dim": 2,
           "entries": [{"basis": [[1.0, 0.5]], "weight": 1.0}]}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(doc))
    # column is far from unit norm, reader must refuse to silently fix it
    code, _, err = run(["check", str(path), "--p", "1", "--mode", "tight"],
                       capsys)
    assert code == 2
    assert json.loads(err)["error"] == "FrameFormatError"
