"""Command-line surface: verbs, formats, exit codes."""

import json
import math
import os
import re

import numpy as np
import pytest

from planewidth import bounds
from planewidth.cli import build_parser, load_graph, main
from planewidth.coloring import Coloring, check_proper, chromatic_number
from planewidth.graphs import complete, odd_wheel, write_edge_list
from planewidth.realization import Realization, low_dim_realization, \
    read_realization, write_realization

from conftest import chi3_copies


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_graph(capsys, tmp_path, family, *params, fmt=None):
    path = str(tmp_path / ("%s.txt" % family))
    argv = ["gen", "--family", family, "--params", *map(str, params),
            "-o", path]
    if fmt:
        argv += ["--format", fmt]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return path


def test_gen_and_bounds_k7(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 7)
    code, out, _ = run(capsys, "bounds", g)
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert float(lines["lower"].split()[0]) == pytest.approx(2.0, abs=1e-12)
    assert float(lines["upper"]) == pytest.approx(2.0, abs=1e-12)


def test_bounds_json(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 4)
    code, out, _ = run(capsys, "bounds", g, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert "lower_provenance" in obj and "upper_provenance" in obj


def test_realize_table_and_verify(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 4)
    rpath = str(tmp_path / "k4.json")
    code, out, _ = run(capsys, "realize", g, "--method", "table",
                       "-o", rpath)
    assert code == 0
    assert "width 1.4142135623730951" in out
    code, out, _ = run(capsys, "verify", g, rpath)
    assert code == 0
    assert "valid true" in out


def test_verify_invalid_exit_2(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 3)
    rpath = str(tmp_path / "bad.json")
    with open(rpath, "w") as fh:
        json.dump({"n": 3, "norm": 2, "dim": 2,
                   "points": [[0, 0], [0.4, 0], [0, 0.4]]}, fh)
    code, out, _ = run(capsys, "verify", g, rpath)
    assert code == 2
    assert "valid false" in out
    assert "violating_edge" in out


def test_round_trip_verify_stable(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 6)
    rpath = str(tmp_path / "k6.json")
    run(capsys, "realize", g, "--method", "table", "-o", rpath)
    code1, out1, _ = run(capsys, "verify", g, rpath)
    # rewrite through the reader and writer: bit-identical evaluation
    r = read_realization(rpath)
    from planewidth.realization import write_realization
    write_realization(r, rpath)
    code2, out2, _ = run(capsys, "verify", g, rpath)
    assert (code1, out1) == (code2, out2)


def test_color_scheme_7(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 7)
    rpath = str(tmp_path / "k7.json")
    run(capsys, "realize", g, "--method", "table", "-o", rpath)
    cpath = str(tmp_path / "k7.colors")
    code, out, _ = run(capsys, "color", g, "--from", rpath,
                       "--scheme", "7", "-o", cpath)
    assert code == 0
    assert "colors 7" in out
    with open(cpath) as fh:
        rows = [line.split() for line in fh if line.strip()]
    assert len(rows) == 7
    assert rows[0][0] == "0"


def test_color_over_threshold_exit_2(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 4)
    rpath = str(tmp_path / "k4.json")
    run(capsys, "realize", g, "--method", "table", "-o", rpath)
    code, _, err = run(capsys, "color", g, "--from", rpath,
                       "--scheme", "3", "-o", str(tmp_path / "x"))
    assert code == 2


def test_color_scheme_4_diamond(capsys, tmp_path):
    g = str(tmp_path / "g.txt")
    with open(g, "w") as fh:
        fh.write("n 4\n0 2\n1 3\n")
    a = np.arange(4) * math.pi / 2
    rpath = str(tmp_path / "diamond.json")
    write_realization(Realization(0.7 * np.stack([np.cos(a), np.sin(a)], 1)),
                      rpath)
    cpath = str(tmp_path / "diamond.colors")
    code, out, _ = run(capsys, "color", g, "--from", rpath,
                       "--scheme", "4", "-o", cpath)
    assert code == 0
    c = Coloring(np.loadtxt(cpath, dtype=np.int64).reshape(-1, 2)[:, 1])
    assert check_proper(load_graph(g), c) is None
    assert "colors %d" % c.k in out and c.k <= 4


def test_color_tiling(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 7)
    rpath = str(tmp_path / "k7.json")
    run(capsys, "realize", g, "--method", "table", "-o", rpath)
    code, out, _ = run(capsys, "color", g, "--from", rpath,
                       "--scheme", "tiling", "-o", str(tmp_path / "t"))
    assert code == 0
    k = int(out.split()[-1])
    assert k <= 19


def test_realize_lattice_and_coloring(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 9)
    for method in ("lattice", "coloring"):
        rpath = str(tmp_path / ("%s.json" % method))
        code, out, _ = run(capsys, "realize", g, "--method", method,
                           "-o", rpath)
        assert code == 0
        assert "valid true" in out


def test_realize_line_and_grid(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "complete", 5)
    rpath = str(tmp_path / "line.json")
    code, out, _ = run(capsys, "realize", g, "--method", "line", "-o", rpath)
    assert code == 0
    assert "width 4" in out
    r = read_realization(rpath)
    assert r.norm.dim == 1
    rpath = str(tmp_path / "grid.json")
    code, out, _ = run(capsys, "realize", g, "--method", "linf-grid",
                       "-o", rpath)
    assert code == 0
    assert "width 2" in out


def test_realize_circular(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "circulant", 25, 4)
    apath = str(tmp_path / "angles.txt")
    with open(apath, "w") as fh:
        for i in range(25):
            fh.write("%d %.17g\n" % (i, 2 * math.pi * i / 25))
    rpath = str(tmp_path / "circ.json")
    code, out, _ = run(capsys, "realize", g, "--method", "circular",
                       "--angles", apath, "--chi-c", str(25 / 4),
                       "-o", rpath)
    assert code == 0
    assert "valid true" in out
    width = float(out.splitlines()[0].split()[1])
    assert width <= 1 / math.sin(4 * math.pi / 25) + 1e-9


def test_bounds_circular_short_edge_exit_2(capsys, tmp_path):
    """An edge that ``evaluate`` rejects is a certificate error, even when
    its angular gap falls short of 2*pi/chi_c by under 1e-9."""
    g = gen_graph(capsys, tmp_path, "circulant", 81, 10)
    shrink = 1 - 0.9e-9 / (2 * math.pi / 8.1)
    a = write_text(tmp_path, "angles.txt", "".join(
        "%d %.17g\n" % (i, i * 2 * math.pi / 81 * shrink) for i in range(81)))
    code, out, err = run(capsys, "bounds", g, "--angles", a, "--chi-c", "8.1",
                         "--chi-budget", "2")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "(0, 10)" in err


def test_optimize_verb_same_seed_same_output(capsys, tmp_path):
    g = gen_graph(capsys, tmp_path, "odd-wheel", 5)
    rpath = str(tmp_path / "w.json")
    argv = ["optimize", g, "--restarts", "4", "--seed", "3", "-o", rpath]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("width ")
    with open(rpath) as fh:
        first = fh.read()
    assert run(capsys, *argv) == (0, out, "")
    with open(rpath) as fh:
        assert fh.read() == first


def test_dimacs_gen_and_load(capsys, tmp_path):
    path = str(tmp_path / "g.col")
    code, _, _ = run(capsys, "gen", "--family", "petersen",
                     "--format", "dimacs", "-o", path)
    assert code == 0
    code, out, _ = run(capsys, "bounds", path)
    assert code == 0
    assert "lower 1" in out


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "--family", "martian",
                     "-o", str(tmp_path / "x"))
    assert code == 1
    code, _, _ = run(capsys, "bounds", str(tmp_path / "missing.txt"))
    assert code == 1
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def write_text(tmp_path, name, text):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def assert_input_error(result, *fragments):
    code, out, err = result
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    for fragment in fragments:
        assert fragment in err


def test_interval_inversion_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bounds, "lower_bound",
                        lambda chrom: (5.0, False, ("edge",)))
    g = write_text(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    code, out, err = run(capsys, "bounds", g)
    assert code == 3 and out == ""
    assert err == ("internal consistency error: interval inversion: "
                   "lower 5 > upper 1\n")


def test_edge_list_bare_count_and_bad_line(capsys, tmp_path):
    g = write_text(tmp_path, "k3.txt", "3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "bounds", g)
    assert code == 0 and "upper 1" in out
    bad = write_text(tmp_path, "bad.txt", "3\n0 1\n1 two\n")
    assert_input_error(run(capsys, "bounds", bad), "line 3")
    edgeless = write_text(tmp_path, "e3.txt", "3\n")
    assert_input_error(run(capsys, "bounds", edgeless),
                       "bounds need at least one edge")


@pytest.mark.parametrize("text, line", [
    ("0 99999999999999999999\n", "line 1"),
    ("n 3\n0 1\n1 -99999999999999999999\n", "line 3"),
])
def test_edge_list_overflowing_endpoint_exit_1(capsys, tmp_path, text, line):
    g = write_text(tmp_path, "big.txt", text)
    assert_input_error(run(capsys, "bounds", g), line, "out of range")


@pytest.mark.parametrize("text", [
    "c\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "c\tcomment\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "\n  p col 3 3\ne 1 2\ne 2 3\ne 1 3\n",
])
def test_dimacs_detected_by_first_token(capsys, tmp_path, text):
    g = write_text(tmp_path, "k3.txt", text)
    assert load_graph(g) == complete(3)
    code, out, _ = run(capsys, "bounds", g)
    assert code == 0 and "upper 1\n" in out


@pytest.mark.parametrize("text", ["#c\n0 1\n", "# p edge 9 9\n0 1\n",
                                  "\n\n 2 # c\n0 1\n"])
def test_edge_list_not_taken_for_dimacs(tmp_path, text):
    assert load_graph(write_text(tmp_path, "k2.txt", text)) == complete(2)


def test_verify_realization_without_norm(capsys, tmp_path):
    g = write_text(tmp_path, "k2.txt", "n 2\n0 1\n")
    r = write_text(tmp_path, "r.json", '{"dim": 2, "points": [[0, 0], [1, 0]]}')
    assert_input_error(run(capsys, "verify", g, r), "'norm'")


@pytest.mark.parametrize("header, fragment", [
    ('"n": 7, "norm": 2, "dim": 2', "'n' is 7, but it has 2 points"),
    ('"norm": 2, "dim": "2"', "'dim' must be an integer, got '2'"),
    ('"norm": 2, "dim": true', "'dim' must be an integer, got True"),
    ('"norm": 2, "dim": 2.5', "'dim' must be an integer, got 2.5"),
    ('"norm": true, "dim": 2', "'norm' must be a number"),
])
def test_verify_rejects_malformed_header(capsys, tmp_path, header, fragment):
    # each of these verified, exit 0, before: "norm": true under the L1 norm
    g = write_text(tmp_path, "k2.txt", "n 2\n0 1\n")
    r = write_text(tmp_path, "r.json",
                   '{%s, "points": [[0, 0], [1, 0]]}' % header)
    assert_input_error(run(capsys, "verify", g, r), fragment)


@pytest.mark.parametrize("angles, fragments", [
    ("0 0\n1 2.0943951023931957\n", ["vertex 2"]),
    ("0 0\n1 2\n2 4\n3 1\n", ["line 4", "vertex 3 out of range"]),
    ("0 0\n1\n2 4\n", ["line 2"]),
    ("0 0\n1 2\n2 nan\n", ["line 3", "vertex 2"]),
])
def test_bounds_angles_file_errors(capsys, tmp_path, angles, fragments):
    g = write_text(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    a = write_text(tmp_path, "angles.txt", angles)
    assert_input_error(run(capsys, "bounds", g, "--angles", a, "--chi-c", "3"),
                       *fragments)


@pytest.mark.parametrize("text, fragment", [
    ("p edge\ne 1 2\n", "line 1"),
    ("p edge 2 1\ne 1\n", "line 2"),
    # only blank, c, p <format> <n> <m> and e <u> <v> lines are DIMACS
    ("p edge 3 2\ne 1 2\nx 2 3\n", "line 3"),
    ("p edge 3 2\ne 1 2 3\n", "line 2"),
    ("p edge 3\ne 1 2\n", "line 1"),
    ("p edge 3 x\ne 1 2\n", "line 1"),
    ("c ok\ncomment\np edge 3 1\ne 1 2\n", "line 2"),
    ("p edge 3 2\n\n1 2\n", "line 3"),
])
def test_dimacs_short_line(capsys, tmp_path, text, fragment):
    g = write_text(tmp_path, "bad.col", text)
    assert_input_error(run(capsys, "bounds", g), fragment,
                       "expected 'p edge <n> <m>' or 'e <u> <v>'")


def test_edge_list_read_as_dimacs_names_its_first_edge(capsys, tmp_path):
    # the first token c routes the file to the DIMACS reader
    g = write_text(tmp_path, "g.txt", "c x\n0 1\n1 2\n")
    assert_input_error(run(capsys, "realize", g, "--method", "coloring",
                           "-o", str(tmp_path / "r.json")), "line 2", "'0 1'")
    assert not os.path.exists(str(tmp_path / "r.json"))


@pytest.mark.parametrize("text", [
    "n 3037000500\n0 1\n",
    "n %s\n0 1\n" % ("9" * 5000),
    "%s\n0 1\n" % ("9" * 5000),
    "n -%s\n" % ("9" * 5000),
], ids=["n-3037000500", "n-5000-digits", "lone-5000-digits", "n-negative"])
def test_edge_list_count_out_of_range_exit_1(capsys, tmp_path, text):
    g = write_text(tmp_path, "big.txt", text)
    assert_input_error(run(capsys, "bounds", g),
                       "vertex count must be an integer in 0..3037000499")


def test_bounds_on_a_deep_graph(capsys, tmp_path):
    # 1,210 vertices, chi 3: the coloring search goes 1,210 levels deep
    path = str(tmp_path / "deep.txt")
    write_edge_list(chi3_copies(110), path)
    code, out, err = run(capsys, "bounds", path)
    assert code == 0 and err == ""
    assert "upper 1\n" in out


@pytest.mark.parametrize("family, params, fragment", [
    ("complete", [], "family 'complete' takes 1 parameter, got 0"),
    ("petersen", ["3"], "family 'petersen' takes 0 parameters, got 1"),
    ("circulant", ["25"], "family 'circulant' takes 2 parameters, got 1"),
])
def test_gen_wrong_parameter_count(capsys, tmp_path, family, params, fragment):
    out = str(tmp_path / "x.txt")
    assert_input_error(run(capsys, "gen", "--family", family,
                           "--params", *params, "-o", out), fragment)
    assert not os.path.exists(out)


def test_unreadable_graph_path(capsys, tmp_path):
    assert_input_error(run(capsys, "bounds", str(tmp_path)), str(tmp_path))


@pytest.mark.parametrize("family, params, fragment", [
    ("cycle", ["3.5"], "cycle length must be an integer, got 3.5"),
    ("odd-wheel", ["5.5"], "cycle length must be an integer, got 5.5"),
    ("circle-star", ["2.5", "0.1"], "circle-star n must be an integer, got 2.5"),
    ("circulant", ["7", "2.5"], "circulant q must be an integer, got 2.5"),
])
def test_gen_non_integer_count(capsys, tmp_path, family, params, fragment):
    out = str(tmp_path / "x.txt")
    assert_input_error(run(capsys, "gen", "--family", family,
                           "--params", *params, "-o", out), fragment)
    assert not os.path.exists(out)


def test_bounds_angles_without_chi_c(capsys, tmp_path):
    g = write_text(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    a = write_text(tmp_path, "angles.txt", "0 0\n1 2\n2 4\n")
    assert_input_error(run(capsys, "bounds", g, "--angles", a),
                       "--angles requires --chi-c")


@pytest.mark.parametrize("extra", [[], ["--chi-c", "3"], ["--angles", "A"]])
def test_realize_circular_without_angles_or_chi_c(capsys, tmp_path, extra):
    g = write_text(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    a = write_text(tmp_path, "angles.txt", "0 0\n1 2\n2 4\n")
    out = str(tmp_path / "r.json")
    argv = ["realize", g, "--method", "circular", "-o", out]
    argv += [a if arg == "A" else arg for arg in extra]
    assert_input_error(run(capsys, *argv),
                       "circular method needs --angles and --chi-c")
    assert not os.path.exists(out)


@pytest.mark.parametrize("tol", ["nan", "inf", "1"])
def test_verify_rejects_tol_not_below_1(capsys, tmp_path, tol):
    g = write_text(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    rpath = str(tmp_path / "small.json")
    write_realization(Realization([[0, 0], [0.1, 0], [0, 0.1]]), rpath)
    assert_input_error(run(capsys, "verify", g, rpath, "--tol", tol),
                       "tol must be a number below 1")


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_gen_circle_star_rejects_non_finite_eps(capsys, tmp_path, eps):
    out = str(tmp_path / "x.txt")
    assert_input_error(run(capsys, "gen", "--family", "circle-star",
                           "--params", "2", eps, "-o", out),
                       "finite eps > 0")
    assert not os.path.exists(out)


@pytest.mark.parametrize("verb", ["bounds", "realize"])
def test_chi_budget_nan_rejected(capsys, tmp_path, verb):
    g = write_text(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    argv = [verb, g, "--chi-budget", "nan"]
    if verb == "realize":
        argv += ["--method", "coloring", "-o", str(tmp_path / "r.json")]
    assert_input_error(run(capsys, *argv), "budget must be a nonnegative")


@pytest.mark.parametrize("argv, fragment", [
    (["gen", "--family", "circle-star", "--params", "2", "-inf", "-o", "OUT"],
     "unrecognized arguments: -inf"),
    (["bounds"], "the following arguments are required: graph"),
])
def test_usage_error_is_one_line(capsys, tmp_path, argv, fragment):
    out = str(tmp_path / "x.txt")
    assert_input_error(run(capsys, *[out if a == "OUT" else a for a in argv]),
                       fragment)
    assert not os.path.exists(out)


def test_readme_names_every_verb():
    # the `planewidth <verb>` lines of README's "Command line" block name
    # exactly the parser's subcommands, so a verb cannot go stale there
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    named = set(re.findall(r"^planewidth (\S+)", block, re.M))
    usage = build_parser().format_usage()
    assert named == set(re.search(r"\{(.*?)\}", usage).group(1).split(","))


@pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: planewidth")


@pytest.mark.parametrize("norm", ["nan", "0.5"])
def test_verify_rejects_norm_below_1(capsys, tmp_path, norm):
    g = write_text(tmp_path, "k3.txt", "n 3\n0 1\n1 2\n0 2\n")
    rpath = str(tmp_path / "small.json")
    write_realization(Realization([[0, 0], [0.1, 0], [0, 0.1]]), rpath)
    assert_input_error(run(capsys, "verify", g, rpath, "--norm", norm),
                       "p must be >= 1")


def extreme_inputs(tmp_path):
    """Paths of the graph and realization files the table below names."""
    w5 = odd_wheel(5)
    coloring = chromatic_number(w5).coloring
    paths = {"K2": write_text(tmp_path, "k2.txt", "n 2\n0 1\n"),
             "E3": write_text(tmp_path, "e3.txt", "n 3\n"),
             "V1": write_text(tmp_path, "v1.txt", "n 1\n"),
             "W5": str(tmp_path / "w5.txt"),
             "OUT": str(tmp_path / "out")}
    write_edge_list(w5, paths["W5"])
    for name, r in [
            ("W5-LINF", low_dim_realization(w5, coloring, "linf-grid")),
            ("W5-LINE", low_dim_realization(w5, coloring, "line")),
            ("K2-1E20", Realization([[0.0, 0.0], [1e20, 0.0]])),
            ("K2-1E200", Realization([[0.0, 0.0], [1e200, 0.0]])),
            ("E3-POINTS", Realization([[0.0, 0.0]] * 3)),
            ("V1-POINT", Realization([[0.5, 0.5]]))]:
        paths[name] = str(tmp_path / (name + ".json"))
        write_realization(r, paths[name])
    return paths


SCHEMES = ("3", "4", "7", "tiling")
EXTREME_ROWS = [
    # max-norm and line realizations are no plane sets, for any scheme
    *[(["color", "W5", "--from", r, "--scheme", s, "-o", "OUT"], 1,
       "Euclidean only") for r in ("W5-LINF", "W5-LINE") for s in SCHEMES],
    # huge coordinates: 1e20 is in range, 1e200 overflows the squared width
    *[(["color", "K2", "--from", "K2-1E20", "--scheme", s, "-o", "OUT"], 2,
       "exceeds scheme-%s" % s) for s in SCHEMES[:3]],
    (["color", "K2", "--from", "K2-1E20", "--scheme", "tiling", "-o", "OUT"],
     0, ""),
    *[(["color", "K2", "--from", "K2-1E200", "--scheme", s, "-o", "OUT"], 1,
       "overflows the float range") for s in SCHEMES],
    (["verify", "K2", "K2-1E20"], 0, ""),
    (["verify", "K2", "K2-1E20", "--norm", "inf"], 0, ""),
    *[(["verify", "K2", "K2-1E200", *norm], 1, "overflows the float range")
      for norm in ([], ["--norm", "3"])],
    # `plot` names no verb: a usage error
    (["plot", "K2-1E200", "K2", "-o", "OUT"], 1, "invalid choice"),
    (["gen", "--family", "circle-star", "--params", "2", "1e300", "-o", "OUT"],
     0, ""),
    # a count no Graph can hold, refused before anything is allocated
    (["gen", "--family", "cycle", "--params", "100000000000000000000", "-o",
      "OUT"], 1, "cycle length must be at most 3037000499"),
    # arguments that would otherwise be ignored
    (["bounds", "K2", "--chi-c", "3"], 1, "--chi-c requires --angles"),
    (["bounds", "K2", "--opt-restarts", "-3"], 1, "opt_restarts must be >= 0"),
    (["bounds", "K2", "--opt-restarts", "2", "--seed", "-1"], 1,
     "seed must be an integer >= 0"),
    (["bounds", "K2", "--seed", "-1"], 1, "seed must be an integer >= 0"),
    (["optimize", "K2", "--seed", "-1", "-o", "OUT"], 1,
     "seed must be an integer >= 0"),
    # an edgeless graph and a one-vertex graph through every verb
    (["gen", "--family", "complete", "--params", "1", "-o", "OUT"], 0, ""),
    *[(["bounds", g], 1, "at least one edge") for g in ("E3", "V1")],
    *[(["optimize", g, "--restarts", "1", "-o", "OUT"], 1, "at least one edge")
      for g in ("E3", "V1")],
    *[(["realize", g, "--method", m, "-o", "OUT"], 0, "")
      for g in ("E3", "V1") for m in ("coloring", "line", "linf-grid")],
    (["realize", "E3", "--method", "table", "-o", "OUT"], 0, ""),
    (["realize", "V1", "--method", "table", "-o", "OUT"], 1, "2 <= n <= 8"),
    (["realize", "V1", "--method", "lattice", "-o", "OUT"], 1, "n >= 2"),
    *[(["verify", g, r], 0, "") for g, r in (("E3", "E3-POINTS"),
                                              ("V1", "V1-POINT"))],
    *[(["color", g, "--from", r, "--scheme", s, "-o", "OUT"], 0, "")
      for g, r in (("E3", "E3-POINTS"), ("V1", "V1-POINT")) for s in SCHEMES],
]


@pytest.mark.parametrize("argv, code, fragment", EXTREME_ROWS,
                         ids=[" ".join(row[0]) for row in EXTREME_ROWS])
def test_cli_at_extreme_inputs(capsys, tmp_path, argv, code, fragment):
    # never a traceback: an exit code and at most one line on stderr
    paths = extreme_inputs(tmp_path)
    got, _, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert got == code, err
    assert "Traceback" not in err and len(err.splitlines()) <= 1
    assert fragment in err and (err == "") == (code == 0)
