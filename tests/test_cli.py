import json
import time
from math import factorial

import pytest

from pdocycles.cli import main
from pdocycles.exprparse import MAX_EXPRESSION_DEPTH
from pdocycles.forms import CHERN_LEVEL_BUDGET
from pdocycles.lattice import PROFILE_WINDOW_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOmega:
    def test_projection_example(self, capsys):
        code, out, _ = run(capsys, "omega", "z^-3", "z^3")
        assert code == 0
        assert "source modes [1, 3]" in out
        assert "rank: 3" in out
        assert "(2,2) = 1" in out

    def test_zero_curvature(self, capsys):
        code, out, _ = run(capsys, "omega", "z^1", "z^1")
        assert code == 0
        assert "zero operator" in out

    def test_derivative_against_shift(self, capsys):
        code, out, _ = run(capsys, "omega", "D", "z^-2", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["support"] is not None
        assert doc["result"]["rank"] >= 1

    def test_structured_entries(self, capsys):
        code, out, _ = run(capsys, "omega", "z^-1", "z^1", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["entries"] == [
            {"row": 1, "col": 1, "value": [[["1", "0"]]]}]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "omega", "z^(", "z")
        assert code == 2
        assert "parse error" in err

    def test_scalar_operand_rejected(self, capsys):
        code, _, err = run(capsys, "omega", "3", "z")
        assert code == 2

    def test_offset_past_mode_budget_refused(self, capsys):
        code, out, err = run(capsys, "omega", "z^-1000000000", "z^1")
        assert code == 2
        assert out == ""
        assert "refused" in err and "budget" in err

    def test_rank_on_support_block_far_from_mode_zero(self, capsys):
        # sources 1..5, targets 999996..1000000: the rank needs a 5 x 5
        # block, not a dense window of radius 10^6
        code, out, _ = run(capsys, "omega", "z^-5", "z^1000000")
        assert code == 0
        assert "target modes [999996, 1000000]" in out
        assert "rank: 5" in out


class TestCocycle:
    def test_unit_shift_value(self, capsys):
        code, out, _ = run(capsys, "cocycle", "--k", "1", "z^-1", "z^1")
        assert code == 0
        assert "value: 1" in out

    def test_shifted_pair_vanishes(self, capsys):
        code, out, _ = run(capsys, "cocycle", "--k", "1", "z^1", "z^2")
        assert code == 0
        assert "value: 0" in out

    def test_level_two_reference_tuple_is_zero(self, capsys):
        # the alternated total cancels exactly on commuting shifts
        code, out, _ = run(capsys, "cocycle", "--k", "2",
                           "z^-2", "z^2", "z^-3", "z^3")
        assert code == 0
        assert "value: 0" in out

    def test_offset_past_mode_budget_refused(self, capsys):
        code, _, err = run(capsys, "cocycle", "--k", "1", "z^-100000", "z^100000")
        assert code == 2
        assert "refused" in err

    def test_wrong_operand_count(self, capsys):
        code, _, err = run(capsys, "cocycle", "--k", "2", "z^-1", "z^1")
        assert code == 2
        assert "needs 4 operands" in err

    def test_verbose_permutation_table(self, capsys):
        code, out, _ = run(capsys, "cocycle", "--k", "1", "z^-2", "z^2",
                           "--verbose", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        perms = doc["result"]["permutations"]
        assert len(perms) == 2
        assert {tuple(p["permutation"]) for p in perms} == {(0, 1), (1, 0)}

    def test_verbose_value_matches_plain_value(self, capsys):
        # A non-commuting k=2 tuple whose cocycle value is -2/3.
        operands = ["P_PLUS+2*z^-1", "z^2*P_MINUS+3*D*z^1", "z^-2+3*z^-1",
                    "D*z^1+2*P_PLUS"]
        values = []
        for extra in ([], ["--verbose"]):
            code, out, _ = run(capsys, "cocycle", "--k", "2", *operands,
                               *extra, "--format", "structured")
            assert code == 0
            values.append(json.loads(out)["result"]["value"])
        assert values[0] == values[1] == ["-2/3", "0"]

    def test_matrix_fiber(self, capsys):
        code, out, _ = run(capsys, "cocycle", "--k", "1", "--dim", "2",
                           "{{0,1},{0,0}}*z^-2", "{{0,0},{1,0}}*z^2")
        assert code == 0
        assert "value: 2" in out

    def test_symbol_level_matches_operator_level(self, capsys):
        code_s, out_s, _ = run(capsys, "cocycle", "--k", "1", "--level",
                               "symbol", "z^-3", "z^3")
        code_o, out_o, _ = run(capsys, "cocycle", "--k", "1", "z^-3", "z^3")
        assert code_s == code_o == 0
        assert "value: 3" in out_s
        assert "value: 3" in out_o

    def test_symbol_level_requires_k_one(self, capsys):
        code, _, err = run(capsys, "cocycle", "--k", "2", "--level", "symbol",
                           "z^-2", "z^2", "z^-3", "z^3")
        assert code == 2
        assert "k=1" in err

    def test_symbol_level_refuses_verbose(self, capsys):
        # The permutation table belongs to the operator level.
        code, out, err = run(capsys, "cocycle", "--k", "1", "--level", "symbol",
                             "--verbose", "z^-1", "z")
        assert (code, out) == (2, "")
        assert err.startswith("invalid configuration: --verbose")


class TestResidue:
    def test_commutator_residue_vanishes(self, capsys):
        code, out, _ = run(capsys, "residue", "[z^-1, z^1]")
        assert code == 0
        assert "value: 0" in out

    def test_depth_validation(self, capsys):
        code, _, err = run(capsys, "residue", "z^1", "--depth", "1")
        assert code == 2
        assert "depth" in err


class TestVerify:
    @pytest.mark.parametrize("kind", ["closedness", "bianchi", "residue-trace",
                                      "oracle"])
    def test_kinds_pass(self, capsys, kind):
        code, out, _ = run(capsys, "verify", kind, "--samples", "4", "--seed", "5")
        assert code == 0
        assert "PASS" in out

    def test_closedness_structured_has_diagnostics(self, capsys):
        code, out, _ = run(capsys, "verify", "closedness", "--samples", "3",
                           "--seed", "1", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert len(doc["hochschild_diagnostic"]) == 3

    def test_bad_config(self, capsys):
        code, _, err = run(capsys, "verify", "closedness", "--dim", "0")
        assert code == 2

    def test_negative_degree_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "closedness", "--degree", "-1")
        assert code == 2
        assert out == ""
        assert "--degree" in err


class TestRepro:
    def test_case_table_passes(self, capsys):
        code, out, _ = run(capsys, "repro", "case-table")
        assert code == 0
        assert "2197 triples" in out
        assert "PASS" in out

    def test_schwinger_passes_and_reports_constants(self, capsys):
        code, out, _ = run(capsys, "repro", "schwinger")
        assert code == 0
        assert "chern/schwinger = -1" in out
        assert "radul/chern = 1" in out

    def test_four_cocycle_reports_honest_failure(self, capsys):
        # the per-permutation sign pattern and the positivity of the
        # alternated total do not survive exact evaluation; the command
        # prints the full table and exits 1 listing the failed assertions
        code, out, err = run(capsys, "repro", "four-cocycle")
        assert code == 1
        assert "identity pairing trace equals 2d: PASS" in out
        assert "sign counts lie in {0,2}^2: PASS" in out
        assert "even permutations have n_minus1 = 0: FAIL" in out
        assert "alternated total is positive: FAIL" in out
        assert "alternated total: 0" in out
        assert "assertion failed" in err

    def test_four_cocycle_structured_document(self, capsys):
        code, out, _ = run(capsys, "repro", "four-cocycle", "--format",
                           "structured")
        assert code == 1
        doc = json.loads(out)
        assert len(doc["rows"]) == 24
        assert doc["total"] == ["0", "0"]
        assert doc["total_matches_operator_route"] is True
        names = {a["name"]: a["ok"] for a in doc["assertions"]}
        assert names["identity pairing trace equals 2d"] is True
        assert names["alternated total is positive"] is False


class TestDeterminism:
    def test_structured_output_is_reproducible(self, capsys):
        args = ["verify", "closedness", "--samples", "4", "--seed", "42",
                "--format", "structured"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "closedness", "--samples", "4",
                         "--seed", "1", "--format", "structured")
        _, out2, _ = run(capsys, "verify", "closedness", "--samples", "4",
                         "--seed", "2", "--format", "structured")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        assert doc1["config"]["seed"] != doc2["config"]["seed"]


class TestOperandsFile:
    def test_named_operand(self, capsys, tmp_path):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps({
            "A": {"dim": 1, "terms": [{"m": -1, "matrix": [[["1", "0"]]]}]}}))
        code, out, _ = run(capsys, "omega", "A", "z^1", "--operands", str(path))
        assert code == 0
        assert "rank: 1" in out

    def test_dim_mismatch_rejected(self, capsys, tmp_path):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps({
            "A": {"dim": 2, "terms": [{"m": 0, "matrix": [
                [["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}]}}))
        code, _, err = run(capsys, "omega", "A", "z^1", "--operands", str(path))
        assert code == 2

    def test_cocycle_levels_read_the_same_literal(self, capsys, tmp_path):
        # A is the multiplication operator z^-2; both levels give 2.
        path = tmp_path / "ops.json"
        path.write_text(json.dumps({
            "A": {"dim": 1, "terms": [{"m": -2, "matrix": [[["1", "0"]]]}]}}))
        for level in ("operator", "symbol"):
            code, out, err = run(capsys, "cocycle", "--k", "1", "--level", level,
                                 "A", "z^2", "--operands", str(path))
            assert (code, err) == (0, "")
            assert out.splitlines()[-1] == "value: 2"

    def test_symbol_literal_residue(self, capsys, tmp_path):
        path = tmp_path / "syms.json"
        path.write_text(json.dumps({"S": {"dim": 1, "parts": [
            {"degree": -1, "plus": [{"m": 0, "matrix": [[["1", "0"]]]}],
             "minus": [{"m": 0, "matrix": [[["1/2", "0"]]]}]}]}}))
        code, out, _ = run(capsys, "residue", "S + 2*S", "--operands", str(path))
        assert code == 0
        assert out.splitlines()[-1] == "value: 9/2"

    # A literal of dim 2 in a dim-1 run, used by no expression.
    OPERATOR_DIM_2 = {"dim": 2, "terms": [{"m": 0, "matrix": [
        [["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}]}
    SYMBOL_DIM_2 = {"dim": 2, "parts": [{"degree": 0, "plus": [], "minus": []}]}

    @pytest.mark.parametrize("argv, literal", [
        (["cocycle", "--k", "1", "z^-1", "z^1"], OPERATOR_DIM_2),
        (["cocycle", "--k", "1", "--level", "symbol", "z^-1", "z^1"],
         OPERATOR_DIM_2),
        (["residue", "z^1"], SYMBOL_DIM_2),
    ])
    def test_operand_of_wrong_dim_rejected(self, capsys, tmp_path, argv, literal):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps({"B": literal}))
        code, out, err = run(capsys, *argv, "--operands", str(path))
        assert (code, out) == (2, "")
        assert err == "parse error: operand 'B' has dim 2, run uses 1\n"

    @pytest.mark.parametrize("argv, noun", [
        (["omega", "1/2", "z"], "an operator"),
        (["cocycle", "--k", "1", "1/2", "z^1"], "an operator"),
        (["cocycle", "--k", "1", "--level", "symbol", "1/2", "z^1"], "a symbol"),
        (["residue", "1/2"], "a symbol"),
    ])
    def test_scalar_operand_gives_one_message(self, capsys, argv, noun):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"parse error: expression '1/2' is a scalar, not {noun}\n"

    TERM = {"m": 0, "matrix": [[["1", "0"]]]}

    @pytest.mark.parametrize("argv, content", [
        (["omega", "A", "z"], [TERM]),
        (["omega", "A", "z"], {"A": 5}),
        (["omega", "A", "z"], {"A": {"dim": 1, "terms": [{"matrix": [[["1", "0"]]]}]}}),
        (["omega", "A", "z"], {"A": {"dim": 1, "terms": [
            {"m": 0, "matrix": [[["1", "0", "2"]]]}]}}),
        (["omega", "A", "z"], {"A": {"dim": 1, "terms": [{"m": 0, "matrix": 7}]}}),
        (["omega", "A", "z"], {"A": {"dim": 1, "terms": [
            {"m": 0, "matrix": [[["1/0", "0"]]]}]}}),
        (["residue", "S"], {"S": {"dim": 1, "parts": [{"plus": [TERM]}]}}),
    ], ids=["list", "not-an-object", "term-without-m", "entry-not-a-pair",
            "matrix-not-a-list", "zero-denominator", "part-without-degree"])
    def test_malformed_file_refused(self, capsys, tmp_path, argv, content):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, *argv, "--operands", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("invalid configuration: ")
        assert "Traceback" not in err


class TestExitPaths:
    # (argv, exit code, stderr prefix): one case per path out of main()
    CASES = [
        (["cocycle", "--k", "1", "z^-1", "z^1"], 0, ""),
        (["repro", "four-cocycle"], 1, "assertion failed: "),
        (["cocycle", "--k", "x", "z^1", "z^-1"], 2, "usage: "),
        (["omega", "z^(", "z"], 2, "parse error: "),
        (["omega", "z^-1000000000", "z^1"], 2, "refused: "),
        (["verify", "closedness", "--dim", "0"], 2, "invalid configuration: "),
    ]

    @pytest.mark.parametrize("argv,code,prefix", CASES,
                             ids=["ok", "assertion", "argparse", "parse", "refused",
                                  "configuration"])
    def test_exit_code_and_message(self, capsys, argv, code, prefix):
        got, _, err = run(capsys, *argv)
        assert got == code
        if prefix:
            assert err.startswith(prefix)
            assert "Traceback" not in err
        else:
            assert err == ""


def timed(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    return code, out, err, time.perf_counter() - start


class TestBudgets:
    def test_profile_window_at_budget_runs(self, capsys):
        # P_PLUS*z^-n fills a window of n + 1 modes
        n = PROFILE_WINDOW_BUDGET - 1
        code, out, _ = run(capsys, "omega", f"P_PLUS*z^-{n}*z^{n}+z^-2", "z^1")
        assert code == 0
        assert (code, out) == run(capsys, "omega", "P_PLUS+z^-2", "z^1")[:2]
        assert "rank: 2" in out

    @pytest.mark.parametrize("n", [PROFILE_WINDOW_BUDGET, 10000000])
    def test_profile_window_past_budget_refused(self, capsys, n):
        code, out, err, seconds = timed(capsys, "omega", f"P_PLUS*z^-{n}", "z^1")
        assert code == 2
        assert out == ""
        assert err.startswith("refused: a profile window of")
        assert seconds < 1

    def test_nesting_at_depth_limit_parses(self, capsys):
        depth = MAX_EXPRESSION_DEPTH
        code, out, _ = run(capsys, "cocycle", "--k", "1",
                           "(" * depth + "z^-1" + ")" * depth, "z^1")
        assert code == 0
        assert "value: 1" in out

    @pytest.mark.parametrize("depth", [MAX_EXPRESSION_DEPTH + 1, 3000])
    def test_nesting_past_depth_limit_refused(self, capsys, depth):
        code, out, err, seconds = timed(capsys, "omega",
                                        "(" * depth + "z^1" + ")" * depth, "z^-1")
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: expression nested deeper than")
        assert seconds < 1

    def test_long_flat_sum_evaluates(self, capsys):
        code, out, _ = run(capsys, "cocycle", "--k", "1",
                           "z^-1" + "+z^-1" * 1999, "z^1")
        assert code == 0
        assert "value: 2000" in out

    def test_cocycle_level_at_budget_runs_verbose(self, capsys):
        k = CHERN_LEVEL_BUDGET
        shifts = [f"z^{s * m}" for m in range(1, k + 1) for s in (-1, 1)]
        code, out, _ = run(capsys, "cocycle", "--k", str(k), *shifts, "--verbose",
                           "--format", "structured")
        assert code == 0
        assert len(json.loads(out)["result"]["permutations"]) == factorial(2 * k)

    def test_cocycle_level_past_budget_refused(self, capsys):
        k = CHERN_LEVEL_BUDGET + 1
        shifts = [f"z^{s * m}" for m in range(1, k + 1) for s in (-1, 1)]
        code, out, err, seconds = timed(capsys, "cocycle", "--k", str(k), *shifts,
                                        "--verbose")
        assert code == 2
        assert out == ""
        assert err.startswith("refused: level k=5 is above the budget k <= 4")
        assert seconds < 1
