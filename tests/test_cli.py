"""Tests for the command-line front end: reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from augvar import augment, cli, rings
from augvar.cli import run
from augvar.polytope import LatticePolytope

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _redirected(argv):
    """Exit code, stdout and stderr of one request, each stream redirected
    to a buffer of its own."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=SRC)


# ------------------------------------------------------------------ solvers

def test_solve_aug_clifford_report(capsys):
    code, out, _ = _capture(capsys, [
        "solve-aug", "--clifford", "3", "--signs", "+,+,-", "--order", "6",
        "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["kappa"] == "1"
    coefs = [t["coef"] for t in report["result"]["series"]]
    assert coefs[:4] == ["1", "-1/2", "1/3", "-1/4"]
    assert report["result"]["residual_order_checked"] == 6
    assert report["config"]["seed"] == 0


def test_solve_aug_from_file(tmp_path, capsys):
    rel = {"vars": ["y1", "y2"],
           "terms": [{"exp": [0, 0], "coef": "1"},
                     {"exp": [1, 0], "coef": "1"},
                     {"exp": [0, 1], "coef": "1"}]}
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(rel))
    code, out, _ = _capture(capsys, [
        "solve-aug", "--input", str(path), "--order", "5", "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["kappa"] == "-1"


# 1 - 2 y2 + y2^2 + y1, and its three-variable form with y2 added: the
# restriction (1 - y)^2 has the double root 1
DOUBLE_ROOT_2 = {"vars": ["y1", "y2"],
                 "terms": [{"exp": [0, 0], "coef": "1"}, {"exp": [0, 1], "coef": "-2"},
                           {"exp": [0, 2], "coef": "1"}, {"exp": [1, 0], "coef": "1"}]}
DOUBLE_ROOT_3 = {"vars": ["y1", "y2", "y3"],
                 "terms": [{"exp": [0, 0, 0], "coef": "1"}, {"exp": [0, 0, 1], "coef": "-2"},
                           {"exp": [0, 0, 2], "coef": "1"}, {"exp": [1, 0, 0], "coef": "1"},
                           {"exp": [0, 1, 0], "coef": "1"}]}


def _double_root_result(path, argv, variable, transform):
    code, out, err = _redirected(argv + ["--input", str(path), "--format", "json"])
    assert (code, err) == (2, "")
    assert json.loads(out)["result"] == {
        "error": "DoubleRoot", "message": "rational root 1 of the restriction is not simple",
        "order": 0, "suggested_transform": transform, "variable": variable}


def test_solve_aug_double_root_exit_2(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(DOUBLE_ROOT_2))
    _double_root_result(path, ["solve-aug"], "y2", [[0, -1], [1, 0]])


@pytest.mark.parametrize("relation, argv, variable, transform", [
    (DOUBLE_ROOT_2, ["solve-aug"], "y2", [[0, 1], [-1, 0]]),
    (DOUBLE_ROOT_2, ["solve-nilpotent", "--multiplicity", "2"], "y2", [[0, 1], [-1, 0]]),
    # the identity: a retry in these coordinates meets the same double root
    (DOUBLE_ROOT_3, ["solve-aug"], "y3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    (DOUBLE_ROOT_3, ["solve-nilpotent", "--multiplicity", "2"], "y3",
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
])
def test_double_root_reports_are_pinned(tmp_path, relation, argv, variable, transform):
    """Both solvers' DoubleRoot results at ``--seed 5``, hint included:
    the hint depends on the seed and the number of variables alone."""
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(relation))
    _double_root_result(path, argv + ["--seed", "5"], variable, transform)


def test_random_unimodular_is_unimodular_and_seeded():
    from augvar.intlin import is_unimodular
    for seed in range(30):
        M = cli.random_unimodular(3, seed)
        assert is_unimodular(M)
        assert cli.random_unimodular(3, seed) == M


def test_solver_stall_reports_variable_and_order(capsys, monkeypatch):
    """A nonzero degree-0 residual, here injected by shifting the constant
    term of the grouped relation, is the loop's one stall: exit 2 with a
    DoubleRoot report naming the variable and order 0."""
    real = augment._grouped_by_exponent

    def shifted(relation, k):
        groups = real(relation, k)
        zero = (0,) * (len(relation.variables) - 1)
        c0 = dict(groups.get(0, {}))
        c0[zero] = c0.get(zero, 0) + 1
        groups[0] = c0
        return groups

    monkeypatch.setattr(augment, "_grouped_by_exponent", shifted)
    for argv in (["solve-aug", "--clifford", "3"],
                 ["solve-nilpotent", "--clifford", "3", "--multiplicity", "2"]):
        code, out, _ = _capture(capsys, argv + ["--order", "6", "--format", "json"])
        assert code == 2
        result = json.loads(out)["result"]
        assert result["error"] == "DoubleRoot"
        assert (result["variable"], result["order"]) == ("y2", 0)


def test_solver_wrong_slope_inverse_exits_2(capsys, monkeypatch):
    """A slope-constant inverse twice too large gives a wrong series,
    which the final check reports: exit 2, a verification failure on
    stderr and no report."""
    real = rings.invert_scalar
    monkeypatch.setattr(rings, "invert_scalar", lambda x: real(x) * 2)
    for argv, solver in ((["solve-aug", "--clifford", "3"], "solver"),
                         (["solve-nilpotent", "--clifford", "3", "--multiplicity", "2"],
                          "nilpotent solver")):
        code, out, err = _capture(capsys, argv + ["--order", "6", "--format", "json"])
        assert (code, out) == (2, "")
        assert err == "verification failure: %s left a nonzero residual\n" % solver


def test_solve_aug_with_quotient_factor(tmp_path, capsys):
    rel = {"vars": ["y1", "y2"],
           "terms": [{"exp": [0, 0], "coef": "-2"},
                     {"exp": [1, 0], "coef": "1"},
                     {"exp": [0, 2], "coef": "1"}]}
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(json.dumps(rel))
    factor_path = tmp_path / "factor.json"
    factor_path.write_text(json.dumps({"modulus": ["-2", "0", "1"]}))
    code, out, _ = _capture(capsys, [
        "solve-aug", "--input", str(rel_path), "--factor", str(factor_path),
        "--order", "6", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["kappa"] == {"residue": ["0", "1"],
                                         "modulus": ["-2", "0", "1"]}


# The result block of the request below at the commit before the quotient
# ring kept only its integer form; its modulus has D = 2, which no digest in
# perfbench/cli_digests.json covers.
RATIONAL_MODULUS_RESULT = (
    '{"kappa":{"modulus":["-1/3","1/2","1"],"residue":["0","1"]},'
    '"relation":"-1/3 + y1 + 1/2*y2 + 3*y1*y2 + y2^2","residual_order_checked":6,'
    '"series":[{"coef":{"modulus":["-1/3","1/2","1"],"residue":["-51/19","-90/19"]},'
    '"exp":[1]},{"coef":{"modulus":["-1/3","1/2","1"],"residue":["-2529/722",'
    '"-1809/361"]},"exp":[2]},{"coef":{"modulus":["-1/3","1/2","1"],"residue":'
    '["-39735/6859","-35478/6859"]},"exp":[3]},{"coef":{"modulus":["-1/3","1/2","1"],'
    '"residue":["-6889941/521284","-3223881/260642"]},"exp":[4]},{"coef":{"modulus":'
    '["-1/3","1/2","1"],"residue":["-431346141/12380495","-104400090/2476099"]},'
    '"exp":[5]},{"coef":{"modulus":["-1/3","1/2","1"],"residue":'
    '["-8298616455/94091762","-5165083827/47045881"]},"exp":[6]}],"solved_variable":"y2"}')


def test_solve_aug_over_rational_modulus_is_pinned(tmp_path, capsys):
    rel = {"vars": ["y1", "y2"],
           "terms": [{"exp": [0, 0], "coef": "-1/3"}, {"exp": [1, 0], "coef": "1"},
                     {"exp": [0, 1], "coef": "1/2"}, {"exp": [1, 1], "coef": "3"},
                     {"exp": [0, 2], "coef": "1"}]}
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(json.dumps(rel))
    factor_path = tmp_path / "factor.json"
    factor_path.write_text(json.dumps({"modulus": ["-1/3", "1/2", "1"]}))
    code, out, _ = _capture(capsys, [
        "solve-aug", "--input", str(rel_path), "--factor", str(factor_path),
        "--order", "6", "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert json.dumps(result, sort_keys=True, separators=(",", ":")) == RATIONAL_MODULUS_RESULT


def test_solve_nilpotent_report(capsys):
    code, out, _ = _capture(capsys, [
        "solve-nilpotent", "--clifford", "2", "--signs", "+,-",
        "--multiplicity", "2", "--order", "4", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["multiplicity"] == 2
    assert report["result"]["image_of_relation"] == {
        "residue": ["0", "-1"], "order": 2}


def test_bad_order_values_are_input_errors(capsys):
    code, _, err = _capture(capsys, [
        "solve-aug", "--clifford", "3", "--order", "0"])
    assert code == 1
    assert "order" in err


# --------------------------------------------------------------- potentials

def test_potential_and_newton_pipeline(tmp_path, capsys):
    code, out, _ = _capture(capsys, [
        "potential", "--kind", "toric", "--fan", str(_fan_file(tmp_path)),
        "--vertex=-1,-1", "--format", "json"])
    assert code == 0
    lifted = json.loads(out)["result"]["lifted_relation"]
    rel_path = tmp_path / "lifted.json"
    rel_path.write_text(json.dumps(lifted))
    code, out, _ = _capture(capsys, [
        "newton", "--input", str(rel_path), "--format", "json"])
    assert code == 0
    inv = json.loads(out)["result"]["invariants"]
    assert inv["normalized_volume"] == 3
    assert inv["edge_lattice_lengths"] == [1, 1, 1]


def _fan_file(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(
        {"rays": [[1, 0], [0, 1], [-1, -1]], "signs": [1, 1, 1]}))
    return path


def test_augpoly_reports_basis(tmp_path, capsys):
    rel = {"vars": ["y1", "y2"],
           "terms": [{"exp": [1, 0], "coef": "1"},
                     {"exp": [0, 1], "coef": "1"},
                     {"exp": [-1, -1], "coef": "-1"}]}
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(rel))
    code, out, _ = _capture(capsys, [
        "augpoly", "--input", str(path), "--vertex=-1,-1",
        "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["constant_term"] == "-1"


def test_irreducible_verdicts(tmp_path, capsys):
    tri = {"vars": ["y1", "y2"],
           "terms": [{"exp": [0, 0], "coef": "1"},
                     {"exp": [1, 0], "coef": "1"},
                     {"exp": [0, 1], "coef": "1"}]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(tri))
    code, out, _ = _capture(capsys, [
        "irreducible", "--input", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "irreducible"

    sq = {"vars": ["y1", "y2"],
          "terms": [{"exp": [0, 0], "coef": "1"},
                    {"exp": [1, 0], "coef": "-1"},
                    {"exp": [0, 1], "coef": "-1"},
                    {"exp": [1, 1], "coef": "1"}]}
    path2 = tmp_path / "sq.json"
    path2.write_text(json.dumps(sq))
    code, out, _ = _capture(capsys, [
        "irreducible", "--input", str(path2), "--format", "json"])
    assert code == 2
    assert json.loads(out)["result"]["verdict"] == "inconclusive"


def test_distinguish(tmp_path, capsys):
    a = {"vars": ["y1", "y2"],
         "terms": [{"exp": [1, 0], "coef": "1"},
                   {"exp": [0, 1], "coef": "1"},
                   {"exp": [-1, -1], "coef": "1"}]}
    b = {"vars": ["y1", "y2"],
         "terms": [{"exp": [0, 0], "coef": "1"},
                   {"exp": [3, 0], "coef": "1"},
                   {"exp": [0, 1], "coef": "1"}]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code, out, _ = _capture(capsys, [
        "distinguish", "--input", str(pa), "--other", str(pb),
        "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "distinct"
    assert report["result"]["witness"] == "edge_lattice_lengths"


def test_distinguish_computes_each_polytopes_invariants_once(tmp_path, monkeypatch):
    """The invariants that decide the verdict are the ones reported: each
    polytope walks its lattice points once."""
    calls = []
    real = LatticePolytope.lattice_point_count

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LatticePolytope, "lattice_point_count", counting)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"vars": ["y1", "y2"], "terms": [
        {"exp": [0, 0], "coef": "1"}, {"exp": [2, 0], "coef": "1"},
        {"exp": [0, 2], "coef": "1"}]}))
    pb.write_text(json.dumps({"vars": ["y1", "y2"], "terms": [
        {"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "1"},
        {"exp": [0, 1], "coef": "1"}, {"exp": [1, 1], "coef": "1"}]}))
    code, out, _ = _redirected(["distinguish", "--input", str(pa), "--other", str(pb),
                                "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["witness"] == "edge_lattice_lengths"
    assert result["invariants"]["first"]["lattice_point_count"] == 6
    assert result["invariants"]["second"]["lattice_point_count"] == 4
    assert len(calls) == 2 and calls[0] is not calls[1]


@pytest.mark.parametrize("kind", ["unit-sphere-bundle", "toric", "user"])
def test_potential_rejects_signs_its_kind_does_not_apply(tmp_path, kind):
    """--signs with a kind that would ignore it is an input error that
    names the flag and the kind; without it the request succeeds."""
    extra = {"unit-sphere-bundle": [],
             "toric": ["--fan", str(_fan_file(tmp_path))],
             "user": ["--input", str(_user_potential_file(tmp_path))]}[kind]
    argv = ["potential", "--kind", kind] + extra
    code, out, err = _redirected(argv + ["--signs", "+,+,+,+"])
    assert (code, out) == (1, "")
    assert err.startswith("input error:") and "--signs" in err and kind in err
    assert _redirected(argv)[0] == 0


def _user_potential_file(tmp_path):
    path = tmp_path / "user.json"
    path.write_text(json.dumps({"vars": ["y1", "y2"], "terms": [
        {"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "1"},
        {"exp": [0, 1], "coef": "1"}]}))
    return path


# --------------------------------------------------- partitions / candidates

def test_partitions_three_sheets(capsys):
    code, out, _ = _capture(capsys, [
        "partitions", "--ell", "3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["component_count"] == 4
    assert all(r["witness_passes"] for r in report["result"]["components"])
    assert all(r["perturbations_all_fail"]
               for r in report["result"]["components"])


def test_partitions_component_listing(capsys):
    code, out, _ = _capture(capsys, [
        "partitions", "--ell", "4", "--no-check", "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["component_count"] == 10


@pytest.mark.parametrize("argv, reason", [
    (["--ell", "4"], "not run: witnesses are built for --ell 2 and 3 only, not 4"),
    (["--ell", "3", "--no-check"], "not run: --no-check"),
    (["--ell", "4", "--no-check"], "not run: --no-check"),
    (["--ell", "3"], None),
])
def test_partitions_say_when_no_witness_check_ran(capsys, argv, reason):
    code, out, _ = _capture(capsys, ["partitions"] + argv + ["--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result.get("witness_checks") == reason
    assert all(("witness" in row) == (reason is None) for row in result["components"])


def test_split_search_over_its_move_budget_exits_one_at_once(tmp_path):
    """1 + y1^2048 + y2^2048 + y1^2048 y2^2048 takes the set path of the
    split search and passes its move budget: exit 1 in under a second."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"vars": ["y1", "y2"], "terms": [
        {"exp": e, "coef": "1"} for e in ([0, 0], [2048, 0], [0, 2048], [2048, 2048])]}))
    start = time.perf_counter()
    code, out, err = _redirected(["irreducible", "--input", str(path), "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("input error: SearchBudgetExceeded: ")


def test_partitions_spin_filter(capsys):
    code, out, _ = _capture(capsys, [
        "partitions", "--ell", "3", "--spins", "up,up,down",
        "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["component_count"] == 2
    labels = [r["partition"] for r in report["result"]["components"]]
    assert "{1,2}|{3}" in labels and "{1}|{2}|{3}" in labels


def test_closed_stdout_ends_quietly_with_exit_code_one():
    """A reader that stops after one line, as ``| head -1`` does: the
    report (about 236 KB) outgrows the pipe buffer, and the broken pipe
    ends the run with exit code 1 and no traceback."""
    argv = [sys.executable, "-m", "augvar.cli", "partitions", "--ell", "8",
            "--no-check", "--format", "json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_subprocess_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err, err.decode()


@pytest.mark.parametrize("opts", [["--nvars", "1"], ["--nvars", "3", "--signs=+,+,-,+"]],
                         ids=["one-variable", "cancelling-signs"])
def test_partitions_without_distinct_witness_values_exit_one(opts):
    """Two singleton sheets whose solved on-variety value ignores the
    offset: the request used to search for distinct values forever, and
    now ends at once as an input error naming the sheets."""
    argv = [sys.executable, "-m", "augvar.cli", "partitions", "--ell", "2"] + opts
    done = subprocess.run(argv, capture_output=True, text=True, timeout=20,
                          env=_subprocess_env())
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("input error: PreconditionViolation: sheet 2 needs y_")
    assert "as sheet 1 does" in done.stderr


def test_check_candidate_pass_and_fail(tmp_path, capsys):
    good = {"ell": 2, "y": {"1": ["-2", "1"], "2": ["1", "-2"]},
            "a": {"12": "0", "21": "0"}, "signs": [1, 1, 1]}
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(good))
    code, out, _ = _capture(capsys, [
        "check-candidate", "--input", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "Pass"

    bad = dict(good, y={"1": ["1", "1"], "2": ["1", "-2"]})
    path.write_text(json.dumps(bad))
    code, out, _ = _capture(capsys, [
        "check-candidate", "--input", str(path), "--format", "json"])
    assert code == 2
    report = json.loads(out)
    assert report["result"]["verdict"] == "Fail"
    assert report["result"]["violated_relation"] == "delta(a_11)"


# ------------------------------------------------------------ markov / localize

def test_markov_report(capsys):
    code, out, _ = _capture(capsys, ["markov", "--bound", "30",
                                     "--format", "json"])
    assert code == 0
    report = json.loads(out)
    triples = [tuple(r["triple"]) for r in report["result"]["triples"]]
    assert (1, 5, 13) in triples and (2, 5, 29) in triples
    tagged = {tuple(r["triple"]): r.get("fibonacci")
              for r in report["result"]["triples"]}
    assert tagged[(1, 5, 13)] is True
    assert tagged[(2, 5, 29)] is None


def test_localize_table_and_identity(capsys):
    code, out, _ = _capture(capsys, [
        "localize", "--d-max", "5", "--m", "2", "--order", "5",
        "--format", "json"])
    assert code == 0
    report = json.loads(out)
    contribs = [r["contribution"] for r in report["result"]["cover_contributions"]]
    assert contribs == ["1", "-1/4", "1/9", "-1/16", "1/25"]
    assert report["result"]["multinomial_identity"]["verdict"] == "PASS"


def test_chord_degrees_report(capsys):
    code, out, _ = _capture(capsys, ["chord-degrees", "--format", "json"])
    assert code == 0
    rows = {r["chord"]: r["real_degree"]
            for r in json.loads(out)["result"]["degrees"]}
    assert rows["a_12"] == "-1/3"
    assert rows["a_13"] == "1/3"
    assert rows["a_23"] == "-1/3"


# ------------------------------------------------------------- error handling

def test_missing_file_is_input_error(capsys):
    code, _, err = _capture(capsys, ["newton", "--input", "/nonexistent.json"])
    assert code == 1
    assert "file not found" in err


BAD_VALUES = [
    ["solve-aug", "--clifford", "3", "--order", "abc"],       # argparse usage error
    ["partitions", "--ell", "0"],
    ["markov", "--bound", "-1"],
    ["solve-nilpotent", "--clifford", "3", "--multiplicity", "0"],
    ["chord-degrees", "--sheets", "1"],
    ["chord-degrees", "--theta-over-pi", "abc"],
    ["localize", "--m", "0"],
    ["localize", "--d-max", "0"],
]


@pytest.mark.parametrize("argv", BAD_VALUES, ids=[" ".join(a) for a in BAD_VALUES])
def test_bad_flag_values_are_input_errors(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 1
    assert out == ""
    assert "input error: " in err


# ------------------------------------------------------ bounded request sizes

DIGESTS_FILE = os.path.join(os.path.dirname(SRC), "perfbench", "cli_digests.json")


@pytest.mark.parametrize("argv", [
    ["partitions", "--ell", str(cli.MAX_ELL)],
    ["chord-degrees", "--sheets", str(cli.MAX_SHEETS)],
    ["localize", "--d-max", str(cli.MAX_COVER_DEGREE), "--m", "1", "--order", "1"],
    ["localize", "--d-max", "1", "--m", str(cli.MAX_IDENTITY_M), "--order", "2"],
    ["localize", "--d-max", "1", "--m", "1", "--order", str(cli.MAX_IDENTITY_ORDER)],
    # C(447, 2) = 99681 coefficients, the most with m = 2
    ["localize", "--d-max", "1", "--m", "2", "--order", "445"],
], ids=["ell", "sheets", "d-max", "m", "order", "coefficients"])
def test_a_request_at_its_size_limit_is_served(argv):
    code, out, err = _redirected(argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]


@pytest.mark.parametrize("argv, message", [
    (["partitions", "--ell", "10"],
     "--ell 10 is over its limit of 9: it would produce T(10) = 9496 components"),
    (["partitions", "--ell", "12", "--no-check"],
     "--ell 12 is over its limit of 9: it would produce T(12) = 140152 components"),
    (["chord-degrees", "--sheets", "201"],
     "--sheets 201 is over its limit of 200: it would produce 40200 chords"),
    (["chord-degrees", "--sheets", "3000"],
     "--sheets 3000 is over its limit of 200: it would produce 8997000 chords"),
    (["localize", "--d-max", "1001"],
     "--d-max 1001 is over its limit of 1000: it would produce 1001 cover contributions"),
    (["localize", "--m", "101", "--order", "2"],
     "--m 101 is over its limit of 100: the identity check would have 101 series variables"),
    (["localize", "--m", "1", "--order", "1001"],
     "--order 1001 is over its limit of 1000: the identity check would have 1001 degrees"),
    (["localize", "--m", "2", "--order", "446"],
     "--m 2 --order 446 is over the limit of 100000 coefficients: it would compare "
     "C(448, 2) = 100128"),
    (["localize", "--m", "10", "--order", "12"],
     "--m 10 --order 12 is over the limit of 100000 coefficients: it would compare "
     "C(22, 10) = 646646"),
], ids=["ell-10", "ell-12", "sheets-201", "sheets-3000", "d-max-1001", "m-101",
        "order-1001", "coefficients-2-446", "coefficients-10-12"])
def test_a_request_over_its_size_limit_fails_at_once(argv, message):
    start = time.perf_counter()
    code, out, err = _redirected(argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "input error: %s\n" % message)


def test_a_request_over_its_size_limit_exits_one_in_a_subprocess():
    argv = [sys.executable, "-m", "augvar.cli", "chord-degrees", "--sheets",
            str(cli.MAX_SHEETS + 1), "--format", "json"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=20,
                          env=_subprocess_env())
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("input error: --sheets 201 is over its limit")


@pytest.mark.parametrize("argv", [
    ["partitions", "--ell", "3", "--format", "json"],
    ["partitions", "--ell", "3", "--format", "text"],
    ["chord-degrees", "--sheets", "4", "--format", "json"],
    ["chord-degrees", "--sheets", "4", "--format", "text"]])
def test_bounded_requests_keep_their_recorded_digests(argv):
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        digests = json.load(fh)
    code, out, err = _redirected(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[" ".join(argv)]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["markov", "--help"])
    assert exc.value.code == 0
    assert "--bound" in capsys.readouterr().out


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _capture(capsys, ["newton", "--input", str(path)])
    assert code == 1
    assert str(path) in err


def test_non_integer_exponent_is_input_error(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"vars": ["y1", "y2"],
                                "terms": [{"exp": [0, 0], "coef": "1"},
                                          {"exp": [1.5, 0], "coef": "1"},
                                          {"exp": [0, 1], "coef": "1"}]}))
    code, out, err = _capture(capsys, ["newton", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert "PreconditionViolation" in err and "non-integer" in err


@pytest.mark.parametrize("command", ["newton", "irreducible"])
def test_repeated_exponent_is_input_error(tmp_path, capsys, command):
    # the repeated constant term with coefficient 0 once deleted the
    # constant, and the file loaded as y1
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"vars": ["y1", "y2"],
                                "terms": [{"exp": [0, 0], "coef": "1"},
                                          {"exp": [1, 0], "coef": "1"},
                                          {"exp": [0, 0], "coef": "0"}]}))
    code, out, err = _capture(capsys, [command, "--input", str(path)])
    assert code == 1
    assert out == ""
    assert err == "input error: PreconditionViolation: exponent [0, 0] is listed twice\n"


ZERO_LAURENT = {"vars": ["y1", "y2"],
                "terms": [{"exp": [0, 0], "coef": "1/0"},
                          {"exp": [1, 0], "coef": "1"}]}
ZERO_MODULUS_LAURENT = {"vars": ["y1", "y2"],
                        "terms": [{"exp": [0, 0], "coef": "1"},
                                  {"exp": [1, 0], "coef": {"residue": ["1"],
                                                           "modulus": ["1/0", "0", "1"]}}]}
ZERO_CANDIDATE = {"ell": 2, "y": {"1": ["-2", "1/0"], "2": ["1", "-2"]},
                  "a": {"12": "0", "21": "0"}, "signs": [1, 1, 1]}
ZERO_FILES = [
    (["newton", "--input"], ZERO_LAURENT),
    (["solve-aug", "--input"], ZERO_MODULUS_LAURENT),
    (["solve-aug", "--clifford", "3", "--factor"], {"modulus": ["1/0", "0", "1"]}),
    (["check-candidate", "--input"], ZERO_CANDIDATE),
]


@pytest.mark.parametrize("argv,obj", ZERO_FILES,
                         ids=["laurent", "laurent-modulus", "factor", "candidate"])
def test_zero_denominator_in_a_file_is_input_error(tmp_path, capsys, argv, obj):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(obj))
    code, out, err = _capture(capsys, argv + [str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("input error: %s: " % path)


QUOTIENT_RESTRICTION = {"vars": ["y1", "y2"], "terms": [
    {"exp": [0, 0], "coef": {"residue": ["1"], "modulus": ["-2", "0", "1"]}},
    {"exp": [0, 1], "coef": "1"}]}
NO_VARIABLES = {"vars": [], "terms": [{"exp": [], "coef": "1"}]}
FAN_RAYS = [[1, 0], [0, 1], [-1, -1]]
MALFORMED_FILES = [
    (["solve-aug", "--input"], QUOTIENT_RESTRICTION, "PreconditionViolation: "),
    (["solve-aug", "--input"], NO_VARIABLES, "{path}: "),
    (["solve-nilpotent", "--multiplicity", "2", "--input"], NO_VARIABLES, "{path}: "),
    (["check-candidate", "--input"], {"ell": 2, "y": [["1"], ["2"]]}, "{path}: "),
    (["potential", "--kind", "toric", "--fan"], {"rays": 5}, "{path}: "),
    (["potential", "--kind", "toric", "--fan"], {"rays": [5, 6]}, "{path}: "),
    (["potential", "--kind", "toric", "--fan"], {"rays": [[1, None], [0, 1]]}, "{path}: "),
    (["potential", "--kind", "toric", "--fan"], {"rays": FAN_RAYS, "signs": 5}, "{path}: "),
    (["potential", "--kind", "toric", "--fan"], {"rays": FAN_RAYS, "signs": [[1], [1]]},
     "{path}: "),
]


@pytest.mark.parametrize("argv,obj,start", MALFORMED_FILES,
                         ids=["quotient-restriction", "no-variables", "no-variables-nilpotent",
                              "candidate-y-list", "fan-rays-int", "fan-rays-flat", "fan-ray-null",
                              "fan-signs-int", "fan-signs-nested"])
def test_malformed_file_is_input_error_not_traceback(tmp_path, capsys, argv, obj, start):
    """Inputs of the right JSON type but the wrong shape exit 1 with one
    ``input error:`` line, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = _capture(capsys, argv + [str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("input error: " + start.format(path=path))
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--theta-over-pi", "--slope"])
def test_zero_denominator_in_a_flag_is_input_error(capsys, flag):
    code, out, err = _capture(capsys, ["chord-degrees", flag, "1/0"])
    assert code == 1
    assert out == ""
    assert err == "input error: %s must be a rational number, got '1/0'\n" % flag


def test_wrong_schema_is_input_error(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"something": 1}))
    code, _, err = _capture(capsys, ["solve-aug", "--input", str(path)])
    assert code == 1


# -------------------------------------------------------------- determinism

@pytest.mark.parametrize("argv", [
    ["solve-aug", "--clifford", "3", "--signs", "+,+,-", "--order", "8"],
    ["solve-aug", "--clifford", "3", "--signs", "+,+,-", "--order", "8",
     "--format", "json"],
    ["partitions", "--ell", "3", "--format", "json"],
    ["markov", "--bound", "100", "--format", "json"],
    ["localize", "--d-max", "6", "--m", "2", "--order", "6", "--format", "json"],
    ["chord-degrees"],
])
def test_reports_are_deterministic_in_process(capsys, argv):
    code1, out1, _ = _capture(capsys, argv)
    code2, out2, _ = _capture(capsys, argv)
    assert code1 == code2
    assert out1 == out2


def test_reports_byte_identical_across_processes():
    argv = [sys.executable, "-m", "augvar.cli", "solve-aug", "--clifford", "3",
            "--signs", "+,+,-", "--order", "6", "--seed", "3",
            "--format", "json"]
    first = subprocess.run(argv, capture_output=True, env=_subprocess_env())
    second = subprocess.run(argv, capture_output=True, env=_subprocess_env())
    assert first.returncode == second.returncode == 0
    assert first.stdout and first.stdout == second.stdout


# ------------------------------------------------------------- parser reuse

REUSE_SEQUENCE = [
    ["solve-aug", "--clifford", "3", "--signs", "+,+,-", "--order", "6",
     "--format", "json"],
    ["solve-aug", "--clifford", "3", "--order", "abc"],      # usage error
    ["newton", "--input", "/nonexistent.json"],              # input error
    ["markov", "--bound", "40"],
    ["chord-degrees", "--sheets", "4", "--format", "json"],
]


def test_shared_parser_matches_fresh_parsers():
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(_redirected(argv))
    cli._parser.cache_clear()
    shared = [_redirected(argv) for argv in REUSE_SEQUENCE]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 1, 0, 0]
    assert shared[1][2].startswith("usage: augvar solve-aug")


def test_build_parser_still_builds_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()
    assert cli._parser() is cli._parser()


def test_import_does_not_build_the_parser():
    probe = "import augvar.cli as c; print(c._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_subprocess_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_flag_values_do_not_carry_over(tmp_path):
    fan = ["potential", "--kind", "toric", "--fan", str(_fan_file(tmp_path)),
           "--format", "json"]
    parts = ["partitions", "--ell", "3", "--format", "json"]
    runs = [_redirected(argv) for argv in (fan + ["--no-fit"], fan, parts + ["--no-check"],
                                           parts, parts + ["--check"])]
    assert [code for code, _, _ in runs] == [0] * 5
    seen = [json.loads(out) for _, out, _ in runs]
    assert [r["config"]["no_fit"] for r in seen[:2]] == [True, False]
    assert [r["config"]["check"] for r in seen[2:]] == [False, True, True]
    assert ["witness" in r["result"]["components"][0] for r in seen[2:]] == [False, True, True]
    cli._parser.cache_clear()
    assert _redirected(fan) == runs[1]
    assert _redirected(parts) == runs[3]


def test_usage_error_goes_to_the_stderr_of_its_own_call():
    first = _redirected(["markov", "--bound", "5"])
    code, out, err = _redirected(["markov", "--bound", "five"])
    assert first[0] == 0 and first[2] == ""
    assert code == 1 and out == ""
    assert err.startswith("usage: augvar markov")
    assert "input error: argument --bound: invalid int value: 'five'" in err
