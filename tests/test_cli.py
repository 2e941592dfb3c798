import json
import math
import os
import resource
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import jsonschema
import pytest

from ietlab import rotation
from ietlab.cli import main

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "ietlab" / "schemas"
     / "result.schema.json").read_text())


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({
        "lambda": [{"a": "3/2", "b": "-1/2", "d": 5},
                   {"a": "-1/2", "b": "1/2", "d": 5}],
        "pi": [2, 1],
        "epsilon": [1, 1],
        "mode": "exact",
    }))
    return str(path)


@pytest.fixture
def fib_path(tmp_path):
    path = tmp_path / "fib.json"
    path.write_text('[[["2","1"],["1","1"]]]')
    return str(path)


def _no_constant(name):
    """NaN, Infinity and -Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"{name} in a result document")


def run_json(argv, tmp_path, name="out.json"):
    out = str(tmp_path / name)
    code = main(argv + ["--out", out])
    assert code == 0
    doc = json.loads(Path(out).read_text(), parse_constant=_no_constant)
    jsonschema.validate(doc, SCHEMA)
    return doc, Path(out).read_bytes()


def test_eval(golden_path, tmp_path):
    doc, _ = run_json(["eval", "--spec", golden_path, "--x", "0.1"], tmp_path)
    assert abs(doc["result"]["value"] - 0.7180339887) < 1e-9
    assert doc["config"]["seed"] == 0


def test_orbit_json_and_csv(golden_path, tmp_path):
    doc, _ = run_json(["orbit", "--spec", golden_path, "--x", "0.1",
                       "--steps", "5"], tmp_path)
    assert len(doc["result"]["points"]) == 6
    out = str(tmp_path / "orbit.csv")
    assert main(["orbit", "--spec", golden_path, "--x", "0.1", "--steps", "5",
                 "--format", "csv", "--out", out]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "step,x,interval_index"
    assert len(lines) == 7


def test_code_with_stats(golden_path, tmp_path):
    doc, _ = run_json(["code", "--spec", golden_path, "--x", "0.1",
                       "--steps", "200", "--stats-n", "3"], tmp_path)
    stats = doc["result"]["block_stats"]
    assert [s["p"] for s in stats] == [2, 3, 4]    # Sturmian p(N) = N+1


def test_induce_and_stationary(golden_path, tmp_path):
    doc, _ = run_json(["induce", "--spec", golden_path, "--steps", "10"],
                      tmp_path)
    assert len(doc["result"]["matrices"]) == 10
    doc, _ = run_json(["stationary", "--spec", golden_path, "--steps", "20"],
                      tmp_path)
    assert doc["result"]["witness"]["block_length"] == 2


def test_ergodic_verdict(golden_path, tmp_path):
    doc, _ = run_json(["ergodic", "--spec", golden_path, "--depth", "40",
                       "--max-block", "12"], tmp_path)
    assert doc["result"]["status"] == "StrictlyErgodic"
    pf = doc["result"]["certificate"]["pf"]
    assert abs(pf["eigenvalue"] - (3 + math.sqrt(5)) / 2) < 1e-9
    diams = doc["result"]["certificate"]["diameters"]
    assert all(b <= a for a, b in zip(diams, diams[1:]))


def test_simplex(golden_path, tmp_path):
    doc, _ = run_json(["simplex", "--spec", golden_path, "--depth", "10",
                       "--k", "3"], tmp_path)
    assert doc["result"]["k"] == 3
    assert 0 < doc["result"]["diameter_float"] < 1


def test_simplex_of_mixed_sizes_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text("[[[1,1],[0,1]], [[1,1,0],[0,1,0],[0,0,1]]]")
    assert main(["simplex", "--matrices", str(path),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert _one_line_error(capsys) == "usage error: dimension mismatch\n"


def test_ergodic_builds_each_simplex_once(golden_path, tmp_path,
                                          column_steps):
    """The certificate's diameters read the columns the verdict built: one
    column step per Rauzy step, not two."""
    doc, _ = run_json(["ergodic", "--spec", golden_path, "--depth", "200"],
                      tmp_path)
    assert len(doc["result"]["certificate"]["diameters"]) == 200
    assert len(column_steps) == 200


def test_pf(tmp_path):
    doc, _ = run_json(["pf", "--matrix", "[[2,1],[1,1]]"], tmp_path)
    assert abs(doc["result"]["eigenvalue"] - (3 + math.sqrt(5)) / 2) < 1e-9


def test_rotation(fib_path, tmp_path):
    doc, _ = run_json(["rotation", "--matrices", fib_path, "--surd"], tmp_path)
    assert doc["result"]["surd"]["coefficients"] == [1, -1, -1]
    assert abs(doc["result"]["value"] - (1 + math.sqrt(5)) / 2) < 1e-9


@pytest.mark.parametrize("rows, surd_error", [
    ([[[2, -1], [3, -1]]], "negative discriminant"),
    ([[[1, 0], [1, 1]], [[3, -2], [-1, 1]]], "tail map is affine"),
], ids=["signed", "affine-tail"])
def test_rotation_reads_signed_matrices(rows, surd_error, tmp_path, capsys):
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(rows))
    doc, _ = run_json(["rotation", "--matrices", str(path)], tmp_path)
    rn = rotation.rotation_number(rows)
    assert doc["result"]["convergents"] == [
        f"{c.numerator}/{c.denominator}" for c in rn.convergents]
    assert (doc["result"]["value"], doc["result"]["depth"]) == (rn.value,
                                                                rn.depth)
    # neither block has a real quadratic fixed point: a domain error
    assert main(["rotation", "--matrices", str(path), "--surd"]) == 1
    assert surd_error in _one_line_error(capsys)


def test_rotation_without_a_convergent_writes_null(tmp_path):
    # d = 0: the one truncation divides by a zero tail, so there is no
    # convergent; the library's NaN is written as null
    path = tmp_path / "zero-tail.json"
    path.write_text("[[[1, 1], [-1, 0]]]")
    doc, _ = run_json(["rotation", "--depth", "1", "--matrices", str(path)],
                      tmp_path)
    assert doc["result"] == {"convergents": [], "value": None,
                             "converged": False, "depth": 0}


@pytest.mark.parametrize("subcommand", ["pf", "simplex"])
def test_signed_matrices_are_refused_outside_rotation(subcommand, tmp_path,
                                                      capsys):
    path = tmp_path / "signed.json"
    path.write_text("[[[2, -1], [1, 1]]]")
    argv = (["pf", "--matrix", "[[2, -1], [1, 1]]"] if subcommand == "pf"
            else ["simplex", "--matrices", str(path)])
    assert main(argv) == 2
    assert "negative entry" in _one_line_error(capsys)


@pytest.mark.parametrize("matrices, k, code, message", [
    ([[[2, 1], [1, 1]], [[2, -1], [1, 1]]], 1, 0, ""),
    ([[[2, 1], [1, 1]], [[2, -1], [1, 1]]], 3, 1, "need 3 matrices, have 2"),
    ([[[1, 0], [0, 0]], [[2, -1], [1, 1]]], 2, 1, "row 1 is zero"),
], ids=["negative-past-k", "k-past-the-end", "zero-line-first"])
def test_simplex_reads_the_first_k_matrices_in_order(matrices, k, code,
                                                     message, tmp_path,
                                                     capsys):
    # a matrix is checked where the simplex reads it, so a refusal comes
    # from the first of the k matrices that breaks a rule
    path = tmp_path / "matrices.json"
    path.write_text(json.dumps(matrices))
    assert main(["simplex", "--matrices", str(path), "--k", str(k)]) == code
    if code:
        assert message in _one_line_error(capsys)


def test_radicand_above_the_limit_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    big = {"a": "0", "b": "1/2", "d": 10 ** 20 + 1}
    path.write_text(json.dumps({"lambda": [big, big], "pi": [2, 1]}))
    assert main(["eval", "--spec", str(path), "--x", "0.1"]) == 2
    assert "exceeds" in _one_line_error(capsys)


def test_values_beyond_the_float_range_are_domain_errors(tmp_path, capsys):
    big = 10 ** 400
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[[str(big), str(big - 1)], ["1", "1"]]]))
    for argv in (["rotation", "--matrices", str(path)],
                 ["rotation", "--matrices", str(path), "--surd"],
                 ["pf", "--matrix", f"[[{big},1],[1,1]]"]):
        assert main(argv) == 1, argv
        assert "beyond the float range" in _one_line_error(capsys)


def test_pf_on_a_near_periodic_spectrum_ends(capsys):
    # eigenvalues 1 +- 10**200: the bracket cannot close in 2000 steps,
    # while the iterate would grow by about 664 bits a step unshifted
    start = time.perf_counter()
    assert main(["pf", "--matrix", f"[[1,{10 ** 400}],[1,1]]"]) == 1
    assert time.perf_counter() - start < 5
    assert "bracket wider than 1e-12" in _one_line_error(capsys)


def test_keane_violation_names_its_step(tmp_path, capsys):
    # float golden reaches its binary value's connection at step 87
    a = (math.sqrt(5) - 1) / 2
    path = tmp_path / "golden_float.json"
    path.write_text(json.dumps({"lambda": [1 - a, a], "pi": [2, 1],
                                "mode": "float"}))
    for argv in (["induce", "--steps", "100"], ["stationary", "--steps", "200"]):
        assert main(argv + ["--spec", str(path)]) == 1, argv
        assert _one_line_error(capsys) == (
            "error: competing lengths are equal at step 87\n")
    # errors without a step keep their message as it is
    assert main(["induce", "--spec", str(path), "--steps", "86"]) == 0
    assert main(["pf", "--matrix", "[[0]]"]) == 1
    assert "at step" not in _one_line_error(capsys)


def test_measures_replayable(golden_path, tmp_path):
    argv = ["measures", "--spec", golden_path, "--starts", "4",
            "--steps", "2000", "--seed", "7"]
    doc, raw1 = run_json(argv, tmp_path, "m1.json")
    _, raw2 = run_json(argv, tmp_path, "m2.json")
    assert raw1 == raw2                      # byte-identical replay
    assert doc["result"]["estimated_count"] == 1
    assert doc["config"]["seed"] == 7


def test_bounds_kgroups_surface(tmp_path):
    doc, _ = run_json(["bounds", "--n", "4", "--oriented"], tmp_path)
    assert doc["result"]["bound"] == 2
    doc, _ = run_json(["bounds", "--n", "4", "--flips"], tmp_path)
    assert doc["result"]["bound"] == 6
    doc, _ = run_json(["kgroups", "--n", "5"], tmp_path)
    assert doc["result"] == {"k0_rank": 5, "k1_rank": 1}
    doc, _ = run_json(["surface", "--n", "4"], tmp_path)
    assert doc["result"]["parameters"] == [
        {"genus": 1, "boundary_components": 3},
        {"genus": 2, "boundary_components": 1}]


def test_exit_codes(golden_path, tmp_path, capsys):
    # usage error: unknown subcommand
    assert main(["frobnicate"]) == 2
    # usage error: missing spec file
    assert main(["eval", "--spec", str(tmp_path / "nope.json"),
                 "--x", "0.1"]) == 2
    # domain error: point outside [0, 1)
    assert main(["eval", "--spec", golden_path, "--x", "1.5"]) == 1
    capsys.readouterr()
    # domain error: the digraph of [[0]] has no cycle, so no period
    assert main(["pf", "--matrix", "[[0]]"]) == 1
    assert "strictly positive" in _one_line_error(capsys)


def test_out_dir_env(golden_path, tmp_path, monkeypatch):
    monkeypatch.setenv("IETLAB_OUT_DIR", str(tmp_path))
    assert main(["kgroups", "--n", "3"]) == 0
    doc = json.loads((tmp_path / "kgroups.json").read_text())
    assert doc["result"]["k0_rank"] == 3


@pytest.mark.parametrize("out", ["missing/out.json", "."],
                         ids=["missing-dir", "a-dir"])
def test_unwritable_out_is_a_usage_error(out, golden_path, tmp_path, capsys):
    argv = ["eval", "--spec", golden_path, "--x", "0.1"]
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    assert _one_line_error(capsys).startswith("usage error: ")


def test_unwritable_out_dir_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IETLAB_OUT_DIR", str(tmp_path / "missing"))
    assert main(["bounds", "--n", "4", "--oriented"]) == 2
    assert _one_line_error(capsys).startswith("usage error: ")


def test_out_of_memory_is_one_line(golden_path, monkeypatch, capsys):
    def edges(spec, bins):
        raise MemoryError

    monkeypatch.setattr("ietlab.measures._bin_edges", edges)
    assert main(["measures", "--spec", golden_path, "--steps", "100"]) == 1
    assert _one_line_error(capsys) == "error: out of memory\n"


def test_out_of_memory_in_a_cli_process(golden_path):
    # 10^8 starts need about 3 GB; the child alone runs under a 256 MiB
    # address-space cap (`ulimit -v`)
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 28, 2 ** 28))

    proc = subprocess.run([sys.executable, "-m", "ietlab.cli", "measures",
                           "--spec", golden_path, "--steps", "10",
                           "--starts", "100000000"], env=_child_env(),
                          capture_output=True, text=True, preexec_fn=cap,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: out of memory\n")


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


BIG = str(sys.maxsize + 1)


@pytest.mark.parametrize("argv, message", [
    (["orbit", "--spec", "SPEC", "--x", "0.1", "--steps", "0"], "positive"),
    (["ergodic", "--spec", "SPEC", "--depth", "-3"], "positive"),
    (["measures", "--spec", "SPEC", "--cluster-tol", "nan"], "positive"),
    (["ergodic", "--spec", "SPEC", "--tol", "inf"], "positive"),
    (["code", "--spec", "SPEC", "--x", "0.1", "--steps", "10",
      "--stats-n", "-1"], "negative"),
    (["simplex", "--spec", "SPEC", "--k", "-1"], "positive"),
    (["simplex"], "simplex needs --spec or --matrices"),
    (["orbit", "--spec", "SPEC", "--x", "0.1", "--steps", BIG], "too large"),
    (["measures", "--spec", "SPEC", "--steps", "10", "--bins", BIG],
     "too large"),
    (["code", "--spec", "SPEC", "--x", "0.1", "--steps", "10",
      "--stats-n", BIG], "too large"),
    (["surface", "--n", BIG], "too large"),
], ids=["orbit-steps-0", "ergodic-depth-neg", "measures-cluster-tol-nan",
        "ergodic-tol-inf", "code-stats-n-neg", "simplex-k-neg",
        "simplex-no-input", "orbit-steps-huge", "measures-bins-huge",
        "code-stats-n-huge", "surface-n-huge"])
def test_nonpositive_bounded_args_are_usage_errors(argv, message, golden_path,
                                                   capsys):
    # the schema bounds counts with minimum 0 or exclusiveMinimum 0, no
    # list is longer than sys.maxsize (BIG is one more), and every bad
    # command line is exit 2 with one line, returned, not raised
    argv = [golden_path if a == "SPEC" else a for a in argv]
    assert main(argv) == 2
    assert message in _one_line_error(capsys)


def test_spec_without_lambda(tmp_path, capsys):
    path = tmp_path / "nolambda.json"
    path.write_text('{"pi": [2, 1]}')
    assert main(["eval", "--spec", str(path), "--x", "0.1"]) == 2
    assert "lambda" in _one_line_error(capsys)


@pytest.mark.parametrize("lam, message", [
    ([0.4, 0.6], "exact mode"),
    ([{"a": "1/2", "b": "1/10", "d": 5}, {"a": "1/2", "b": "-1/10", "d": 2}],
     "mixed quadratic fields"),
], ids=["float-lengths", "mixed-fields"])
def test_exact_spec_with_foreign_lengths_is_a_domain_error(lam, message,
                                                           tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"lambda": lam, "pi": [2, 1],
                                "mode": "exact"}))
    assert main(["eval", "--spec", str(path), "--x", "0.1"]) == 1
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("spec, message", [
    ({"lambda": ["1/3", "2/3"], "pi": [2.5, 1]}, "2.5 is not an integer"),
    ({"lambda": ["1/3", "2/3"], "pi": [2, 1], "epsilon": [1.7, -1.2]},
     "1.7 is not an integer"),
    ({"lambda": [{"a": "1/2"}, "1/2"], "pi": [2, 1]}, "malformed scalar"),
    ({"lambda": [{"a": "1/2", "b": "1/2"}, "1/2"], "pi": [2, 1]},
     "malformed scalar"),
    ({"lambda": [["1/2"], "1/2"], "pi": [2, 1]}, "malformed scalar"),
    ({"lambda": 5, "pi": [2, 1]}, "lambda must be a JSON array"),
    ({"lambda": ["1/3", "2/3"], "pi": 5}, "pi must be a JSON array"),
    ({"lambda": ["1/3", "2/3"], "pi": True}, "pi must be a JSON array"),
    ({"lambda": ["1/3", "2/3"], "pi": [2, 1], "epsilon": 5},
     "epsilon must be a JSON array"),
    ({"lambda": ["1/3", "2/3"], "pi": [2, True], "epsilon": [True, 1]},
     "True is not an integer"),
    ({"lambda": ["1/3", "2/3"], "pi": [2, 1], "epsilon": [1, False]},
     "False is not an integer"),
    ({"lambda": [True], "pi": [1]}, "malformed scalar True"),
    ({"lambda": [{"a": True, "b": "1/2", "d": 5}, "1/2"], "pi": [2, 1]},
     "malformed scalar"),
    ({"lambda": [{"a": "1/2", "b": "1/2", "d": True}, "1/2"], "pi": [2, 1]},
     "True is not an integer"),
], ids=["pi-non-integral", "epsilon-non-integral", "length-without-b-and-d",
        "length-without-d", "length-as-list", "lambda-scalar", "pi-scalar",
        "pi-bool", "epsilon-scalar", "pi-bool-entry", "epsilon-bool-entry",
        "length-bool", "length-bool-coefficient", "length-bool-radicand"])
def test_malformed_spec_is_a_usage_error(spec, message, tmp_path, capsys):
    # never truncated or run as some other spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["eval", "--spec", str(path), "--x", "0.1"]) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("matrix, message", [
    ("[[1.5, 2.7],[1,1]]", "1.5 is not an integer"),
    ("5", "a matrix must be a JSON array"),
    ('"[1,2]"', "a matrix must be a JSON array"),
    ("[1,2]", "a matrix row must be a JSON array"),
    ("[[]]", "ragged or empty matrix"),
    ("[[true, 1], [1, false]]", "True is not an integer"),
], ids=["non-integral", "scalar", "string", "flat", "empty-row", "bool"])
def test_non_integral_matrix_is_a_usage_error(matrix, message, capsys):
    assert main(["pf", "--matrix", matrix]) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("doc, message", [
    (5, "a matrix sequence must be"),
    ("1/2", "a matrix sequence must be"),
    ({}, "a matrix sequence must be"),
    ({"matrices": 5}, "matrices must be a JSON array"),
    ([5], "a matrix must be a JSON array"),
    ([[1]], "a matrix row must be a JSON array"),
    ({"matrices": [[[1, 1], [0, 1]]], "tags": 5},
     "tags must be a JSON array"),
    ([[[1, 1], [False, 1]]], "False is not an integer"),
], ids=["scalar", "string", "no-matrices", "matrices-scalar",
        "matrix-scalar", "row-scalar", "tags-scalar", "entry-bool"])
def test_malformed_matrices_file_is_a_usage_error(doc, message, tmp_path,
                                                  capsys):
    path = tmp_path / "matrices.json"
    path.write_text(json.dumps(doc))
    assert main(["rotation", "--matrices", str(path)]) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("x", ["inf", "1e400", "nan"])
def test_non_finite_point_is_a_domain_error(x, golden_path, capsys):
    assert main(["eval", "--spec", golden_path, "--x", x]) == 1
    assert "not finite" in _one_line_error(capsys)


def test_zero_denominator_point(golden_path, capsys):
    assert main(["eval", "--spec", golden_path, "--x", "1/0"]) == 2
    assert "zero denominator" in _one_line_error(capsys)


def _child_env():
    """The environment of a child interpreter that imports this ietlab."""
    src = str(Path(__file__).parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("argv, file, code, message", [
    (["eval", "--x", "0.1", "--spec"], {"lambda": [], "pi": []}, 1,
     "error: need at least one interval"),
    (["eval", "--x", "0.1", "--spec"],
     {"lambda": ["1/3", "2/3"], "pi": [2, 1, 3]}, 1,
     "error: permutation size differs from lengths"),
    (["eval", "--x", "0.1", "--spec"],
     {"lambda": ["1/3", "2/3"], "pi": [2, 1], "epsilon": [2, 1]}, 1,
     "error: signs must be +1/-1, one per interval"),
    (["rotation", "--matrices"], [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], 1,
     "error: rotation numbers need 2x2 matrices"),
    (["measures", "--bins", "1", "--spec"],
     {"lambda": ["1/3", "2/3"], "pi": [2, 1]}, 1,
     "error: need at least 2 bins"),
    (["measures", "--steps", "10", "--bins", "11", "--spec"],
     {"lambda": ["1/3", "2/3"], "pi": [2, 1]}, 1,
     "error: need at most 10 bins for 10 iterates"),
], ids=["empty-lambda", "pi-length", "epsilon-2", "rotation-3x3",
        "measures-bins-1", "measures-bins-past-steps"])
def test_refusals_of_a_cli_process(argv, file, code, message, tmp_path):
    # the whole process, from `python -m`: its exit code and one line; the
    # input file is the value of the last flag
    path = tmp_path / "input.json"
    path.write_text(json.dumps(file))
    proc = subprocess.run([sys.executable, "-m", "ietlab.cli", *argv,
                           str(path)], env=_child_env(), capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "",
                                                           message + "\n")


def test_cli_runs_without_numpy(golden_path, tmp_path):
    # with sys.modules["numpy"] = None any import of numpy raises, so every
    # call below proves its path numpy-free; the float 4-IET's verdict is
    # Inconclusive with no PF certificate, so it takes the numeric rank
    code = textwrap.dedent(f"""
        import sys
        sys.modules["numpy"] = None
        from ietlab import cli, dimension_group as dg, induction, iet
        from ietlab.errors import KeaneViolation
        out, golden = {str(tmp_path / "out.json")!r}, {golden_path!r}
        for argv in (["pf", "--matrix", "[[2,1],[1,1]]"],
                     ["ergodic", "--spec", golden, "--depth", "40"],
                     ["simplex", "--spec", golden, "--depth", "40"],
                     ["simplex", "--spec", golden, "--depth", "30",
                      "--k", "3"]):
            assert cli.main(argv + ["--out", out]) == 0, argv
        # the binary value of this spec has a connection at step 6
        spec = iet.validate((0.1, 0.2, 0.3, 0.4), (4, 3, 2, 1), mode="float")
        try:
            induction.induce(spec, 40)
            raise AssertionError("no KeaneViolation")
        except KeaneViolation as exc:
            assert exc.step == 6, exc.step
        seq = induction.induce(spec, 6)
        assert dg.state_simplex(seq, 6).numeric_rank == 4
        assert dg.estimate_state_dim(seq, 6) == 4
        assert dg.cyclic_structure(((0, 1), (1, 0))).period == 2
        verdict = dg.strict_ergodicity_verdict(spec, 6)
        assert verdict.status == "Inconclusive"
        assert verdict.certificate.pf is None
        assert verdict.state_dim_estimate == 4
        """)
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
