import json

import pytest

from katz_forge.classify import verify_classification
from katz_forge.cli import main, golden_path


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_rigid_golden(self, capsys):
        code, out, _ = invoke(capsys, "check", golden_path("e4_1.json"), "--expect-rigid")
        assert code == 0
        assert "rig = 2" in out
        assert "self-dual = True" in out

    def test_json_mode(self, capsys):
        code, out, _ = invoke(capsys, "check", golden_path("e1_1.json"), "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["rig"] == 2
        assert rep["torus_dim"] == 1

    def test_expect_rigid_failure(self, tmp_path, capsys):
        # rank 2 with four generic regular points has rig = 0
        pt = {"regular": [["m", 1], ["1", 1]], "irregular": []}
        bad = {"rank": 2, "points": {"0": pt, "1": pt, "2": pt,
                                     "inf": {"regular": [["m^-3", 1], ["1", 1]],
                                             "irregular": []}}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, out, _ = invoke(capsys, "check", str(p), "--expect-rigid")
        assert code == 1
        assert "rig = 0" in out

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = invoke(capsys, "check", str(p))
        assert code == 2
        assert "line" in err and "column" in err

    def test_empty_points(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"rank": 7, "points": {}}))
        code, _, err = invoke(capsys, "check", str(p))
        assert code == 2

    def test_declared_rank_must_match_points(self, tmp_path, capsys):
        bad = {"rank": 7, "points": {
            "0": {"regular": [["-1", 2]], "irregular": []},
            "inf": {"regular": [["-1", 3]], "irregular": []}}}
        p = tmp_path / "rank.json"
        p.write_text(json.dumps(bad))
        code, out, err = invoke(capsys, "check", str(p))
        assert code == 2
        assert "rank 2" in err and "rank 7" in err
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "check", "/nonexistent/x.json")
        assert code == 2

    def test_deeply_nested_json(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000)
        code, out, err = invoke(capsys, "check", str(p))
        assert code == 2
        assert "malformed JSON" in err and out == ""


class TestReplay:
    def test_e1_trace(self, capsys):
        code, out, _ = invoke(capsys, "replay", golden_path("e1.script"),
                              golden_path("l1.json"), "--trace")
        assert code == 0
        assert out.count("---") == 6  # start + five steps
        assert "(J(3), J(3), 1)" in out

    def test_trace_json_lines(self, capsys):
        args = ("replay", golden_path("e2.script"), golden_path("l2.json"))
        code, out, _ = invoke(capsys, *args, "--trace", "--json")
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert [r["step"] for r in recs] == list(range(len(recs)))
        assert recs[0]["op"] == "start" and len(recs) > 1
        assert all(r["rank"] == r["descriptor"]["rank"] for r in recs)
        code, final, _ = invoke(capsys, *args, "--json")
        assert recs[-1]["descriptor"] == json.loads(final)

    def test_e4_final(self, capsys):
        code, out, _ = invoke(capsys, "replay", golden_path("e4.script"),
                              golden_path("l4.json"))
        assert code == 0
        assert "El(6, a1, (1)) + (-1)" in out

    def test_contradiction_exit(self, tmp_path, capsys):
        c = {"rank": 7, "points": {
            "0": {"regular": [["-1", 1]] * 4 + [["1", 1]] * 3, "irregular": []},
            "1": {"regular": [["1", 2], ["1", 2], ["1", 1], ["1", 1], ["1", 1]],
                  "irregular": []},
            "inf": {"regular": [["1", 1]] * 3,
                    "irregular": [{"p": 2, "c": "1", "phi": {"-1": "a"},
                                   "R": [["1", 1], ["1", 1]]}]},
        }}
        p = tmp_path / "excl.json"
        p.write_text(json.dumps(c))
        s = tmp_path / "f.script"
        s.write_text("fourier\n")
        code, out, _ = invoke(capsys, "replay", str(s), str(p))
        assert code == 1
        assert "contradiction" in out


class TestSingleOps:
    def test_fourier_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "fourier", golden_path("e4_1.json"), "--json")
        assert code == 0
        from katz_forge.engine import descriptor_from_json
        d = descriptor_from_json(json.loads(out))
        assert d.rank == 6

    def test_twist(self, capsys):
        code, out, _ = invoke(capsys, "twist", "0:m, inf:m^-1",
                              golden_path("e4_1.json"))
        assert code == 0

    def test_twist_positional_is_named(self, capsys):
        # e4_1 is singular at 0 and inf only
        named = invoke(capsys, "twist", "0:m, inf:m^-1", golden_path("e4_1.json"))
        assert named[0] == 0
        assert invoke(capsys, "twist", "m, m^-1", golden_path("e4_1.json")) == named

    @pytest.mark.parametrize("argv", [
        ("mc", "-l", golden_path("l1.json")),
        ("mc", "-l", golden_path("l1.json"), "--json"),
        ("mc", "--json", "-l", golden_path("l1.json")),
        ("twist", "-1,-1", golden_path("e4_1.json")),
    ])
    def test_argument_may_start_with_minus(self, argv, capsys):
        # the first line of e1.script, as a command; -- is not needed
        op, arg, *rest = [a for a in argv if a != "--json"]
        flags = ["--json"] if "--json" in argv else []
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        assert (code, out, err) == invoke(capsys, op, *flags, "--", arg, *rest)

    def test_mc_precondition_error(self, capsys):
        code, _, err = invoke(capsys, "mc", "m", golden_path("e4_1.json"))
        assert code == 2


class TestClassify:
    def test_tables(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--tables")
        assert code == 0
        assert "1/6" in out and "7" in out

    def test_tables_json(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--tables", "--json")
        rows = json.loads(out)
        assert len(rows) == 10

    def test_tuples(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--tuples", "2", "--json")
        assert code == 0
        assert len(json.loads(out)) == 29

    def test_tuples_for_many_points(self, capsys):
        # no tuple exists from R = 4 on, and a large R answers at once
        assert invoke(capsys, "classify", "--tuples", "40")[:2] == (0, "r = 40: 0 tuples\n")
        code, out, _ = invoke(capsys, "classify", "--tuples", "40", "--json")
        assert code == 0 and json.loads(out) == []

    def test_verify(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--verify")
        assert code == 0
        assert out.count("PASS") == 10
        assert "FAIL (excluded as required)" in out

    def test_usage(self, capsys):
        code, _, err = invoke(capsys, "classify")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        assert code == 2


ROW_GOLDENS = ["e1_1", "e1_2", "e1_3", "e2", "e3", "e4_1", "e4_2", "e4_3", "e4_4", "e4_5",
               "excluded"]


def test_check_agrees_with_verify_on_every_row(capsys):
    rep = verify_classification()
    keys = ("rig", "self_dual", "det_trivial", "torus_dim")
    for name in ROW_GOLDENS:
        code, out, _ = invoke(capsys, "check", golden_path(f"{name}.json"), "--json")
        assert code == 0
        got = json.loads(out)
        assert [got[k] for k in keys] == [rep[name][k] for k in keys], name


class TestPullback:
    def test_verify(self, capsys):
        code, out, _ = invoke(capsys, "pullback", "--verify")
        assert code == 0
        assert "True" in out

    def test_pull_descriptor(self, capsys):
        code, out, _ = invoke(capsys, "pullback", "2", golden_path("e4_5.json"))
        assert code == 0

    def test_usage(self, capsys):
        code, _, _ = invoke(capsys, "pullback")
        assert code == 2

    def test_descriptor_off_gm(self, capsys):
        # l1-l4 have finite singular points other than 0
        for name in ("l1.json", "l2.json", "l3.json", "l4.json"):
            code, out, err = invoke(capsys, "pullback", "2", golden_path(name))
            assert code == 2
            assert err.startswith("error: ") and "Gm" in err
            assert out == ""


class TestErrorBoundary:
    """Malformed input to any command is one `error:` line and exit 2, never
    a traceback (exit 1 is kept for check failures and contradictions)."""

    SCRIPTS = {
        "unknown_operation": ("frobnicate\n", "line 1: unknown operation 'frobnicate'"),
        "moebius_without_kind": ("fourier\nmoebius\n", "line 2: moebius needs a kind"),
        "twist_wrong_arity": ("twist 1\n", "step 1 (twist): twist arity 1"),
        "moebius_affine_0": ("moebius affine 0\n", "step 1 (moebius): affine map needs a != 0"),
        # each op takes a fixed number of arguments
        "fourier_with_argument": ("fourier now\n", "line 1: fourier takes no argument"),
        "moebius_inv_with_argument": ("moebius inv please\n",
                                      "line 1: moebius inv takes 0 argument(s)"),
        "deep_nesting": ("twist " + "(" * 400 + "0" + ")" * 400 + ":m, inf:m^-1\n",
                         "line 1: parentheses nested deeper than 64"),
    }

    @staticmethod
    def _error(code, out, err, reason):
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {reason}") and err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_replay_script(self, name, tmp_path, capsys):
        text, reason = self.SCRIPTS[name]
        s = tmp_path / "bad.script"
        s.write_text(text)
        self._error(*invoke(capsys, "replay", str(s), golden_path("l1.json")), reason)

    def test_mc_numeric_eigenvalue(self, capsys):
        self._error(*invoke(capsys, "mc", "2", golden_path("l1.json")),
                    "only 1 and roots of unity")

    def test_twist_deep_nesting(self, capsys):
        spec = "(" * 400 + "0" + ")" * 400 + ":m, inf:m^-1"
        self._error(*invoke(capsys, "twist", spec, golden_path("e4_1.json")),
                    "parentheses nested deeper than 64")

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_pullback_order_below_1(self, k, tmp_path, capsys):
        # the error names k, on a regular descriptor on Gm and on one with
        # an irregular point
        gm = tmp_path / "gm.json"
        gm.write_text(json.dumps({"rank": 1, "points": {
            "0": {"regular": [["m", 1]], "irregular": []},
            "inf": {"regular": [["m^-1", 1]], "irregular": []}}}))
        for path in (str(gm), golden_path("e1_1.json")):
            self._error(*invoke(capsys, "pullback", "--", k, path),
                        f"Kummer pullback needs k >= 1, got k = {k}")

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_tuples_below_1(self, r, capsys):
        self._error(*invoke(capsys, "classify", "--tuples", r),
                    f"rigidity tuples need R >= 1 singular points, got R = {r}")

    @pytest.mark.parametrize("argv", [("classify", "--tuples", "\u0661"),
                                      ("classify", "--tuples", " 1_0 "),
                                      ("pullback", " 2 ", "e4_5.json"),
                                      ("pullback", "\u0662", "e4_5.json")])
    def test_cli_integers_in_ascii_digits(self, argv, capsys):
        # R and K are read as the integers of a descriptor are: int() would
        # take an Arabic-Indic digit, an underscore or surrounding blanks
        integer = argv[2] if argv[0] == "classify" else argv[1]
        argv = [golden_path(a) if a.endswith(".json") else a for a in argv]
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert f"integer must be written in ASCII digits 0-9, got {integer!r}" in err

    def test_check_directory(self, tmp_path, capsys):
        self._error(*invoke(capsys, "check", str(tmp_path)), "[Errno")

    def test_missing_script_message(self, capsys):
        self._error(*invoke(capsys, "replay", "/nonexistent/x.script", golden_path("l1.json")),
                    "no such file: /nonexistent/x.script")

    # a location whose coefficient has more digits than Python converts to
    # text: the error comes while rendering, after the points before it
    BIG_POINT = {"rank": 1, "points": {"0": {"regular": [["-1", 1]], "irregular": []},
                                       "3^10000*a1": {"regular": [["-1", 1]],
                                                      "irregular": []}}}

    @pytest.mark.parametrize("argv", [("fourier",),
                                      ("replay", golden_path("e4.script"), "--trace")])
    def test_render_error_prints_no_partial_output(self, argv, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(self.BIG_POINT))
        code, out, err = invoke(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_classify_prints_no_table_before_an_error(self, capsys):
        self._error(*invoke(capsys, "classify", "--profiles", "--tuples", "0"),
                    "rigidity tuples need R >= 1 singular points, got R = 0")


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = invoke(capsys, "check", golden_path("e2.json"), "--json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_calls_share_no_parsed_state(self, capsys):
        # the parser is built once: a flag or an error of one call does not
        # reach the next
        path = golden_path("e1_1.json")
        assert invoke(capsys, "mc", "-l", "--json", path)[0] == 2
        code, out, _ = invoke(capsys, "check", path, "--json")
        assert code == 0 and json.loads(out)["rig"] == 2
        code, out, _ = invoke(capsys, "check", path)
        assert code == 0 and out.startswith("rank = 7\n")
