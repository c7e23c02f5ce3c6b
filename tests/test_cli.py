import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extraspecial.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExample:
    def test_h_family_json(self, capsys):
        code, out, _ = run(capsys, "example", "--p", "3", "--n", "1", "--u", "1",
                           "--t", "1", "--variant", "H", "--output", "json")
        assert code == 0
        d = json.loads(out)
        assert d["cfrak"] == 64
        assert d["gms"] == "free"
        assert d["verdict"] == "scaffold-certified"

    def test_hypotheses_fail_exit_2(self, capsys):
        code, _, _ = run(capsys, "example", "--p", "3", "--n", "1", "--u", "5",
                         "--t", "1", "--variant", "H")
        assert code == 2

    def test_no_conclusion_is_exit_0(self, capsys):
        code, out, _ = run(capsys, "example", "--p", "3", "--n", "1", "--u", "5",
                           "--t", "2", "--variant", "H", "--output", "json")
        assert code == 0
        assert json.loads(out)["gms"] == "no-conclusion"


class TestVerdict:
    def test_free_and_hopf(self, capsys):
        code, out, _ = run(capsys, "verdict", "--p", "3", "--n", "1",
                           "--c", "125", "--u1", "26", "--output", "json")
        assert code == 0
        assert json.loads(out)["gms"] == "free-and-hopf"

    def test_bad_precision_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verdict", "--p", "3", "--n", "1",
                           "--c", "0", "--u1", "1")
        assert code == 1
        assert "cfrak" in err

    @pytest.mark.parametrize("u1", ["-1", "-28"])
    def test_nonpositive_u1_is_usage_error(self, capsys, u1):
        code, out, err = run(capsys, "verdict", "--p", "3", "--n", "1",
                             "--c", "60", "--u1", u1)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "positive upper ramification" in err


class TestPlan:
    def test_full_plan(self, capsys):
        code, out, _ = run(capsys, "plan", "--variant", "H", "--p", "3", "--n", "1",
                           "--e0", "inf", "--r", "1", "--m", "0,0,1",
                           "--leads", "1,g,1", "--output", "json")
        assert code == 0
        d = json.loads(out)
        assert d["u"] == [1, 1, 10]
        assert d["b"] == [1, 1, 82]
        assert d["cfrak"] == 64

    def test_simple_mode(self, capsys):
        code, out, _ = run(capsys, "plan", "--variant", "H", "--p", "3", "--n", "1",
                           "--e0", "10", "--r", "1", "--m", "0,0,1",
                           "--leads", "1,g,1", "--mode", "simple", "--output", "json")
        assert code == 0
        d = json.loads(out)
        assert [c["id"] for c in d["checks"]] == ["Hsimple", "H4"]

    def test_p_divides_r_diagnostic(self, capsys):
        code, _, err = run(capsys, "plan", "--variant", "H", "--p", "3", "--n", "1",
                           "--e0", "inf", "--r", "3", "--m", "0,0,1", "--leads", "1,g,1")
        assert code == 1
        assert "p divides u_1" in err

    def test_dependent_leads_fail_independence(self, capsys):
        # 1 and 2 lie in F_p, so the equal-valuation run u_1 = u_2 is F_p-dependent
        code, out, _ = run(capsys, "plan", "--variant", "H", "--p", "3", "--n", "1",
                           "--e0", "inf", "--r", "1", "--m", "0,0,1",
                           "--leads", "1,2,1", "--output", "json")
        assert code == 2
        assert json.loads(out)["as_conditions"]["iii_independent"] is False

    @pytest.mark.parametrize("flags", [
        ("--e0", "1/0"),
        ("--p", "11"),
        ("--n", "3", "--m", "0,0,0,0,0,0,1", "--leads", "1,g,1"),
        ("--q", "10"),
    ])
    def test_bad_input_is_usage_error(self, capsys, flags):
        argv = {"--variant": "H", "--p": "3", "--n": "1", "--e0": "inf", "--r": "1",
                "--m": "0,0,1", "--leads": "1,g,1", **dict(zip(flags[::2], flags[1::2]))}
        code, _, err = run(capsys, "plan", *(x for kv in argv.items() for x in kv))
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "plan", "--variant", "H", "--p", "3", "--n", "1",
                         "--e0", "inf", "--r", "1", "--m", "0,0,1",
                         "--leads", "1,g,1", "--bogus", "1")
        assert code == 1


class TestRam:
    def test_convert_lower(self, capsys):
        code, out, _ = run(capsys, "ram", "convert", "--p", "3",
                           "--lower", "1,1,82", "--output", "json")
        assert code == 0
        d = json.loads(out)
        assert d["upper"] == [1, 1, 10]
        assert d["inequalities"]["all_hold"] is True

    def test_convert_upper(self, capsys):
        code, out, _ = run(capsys, "ram", "convert", "--p", "3",
                           "--upper", "26,26,116", "--output", "json")
        assert code == 0
        assert json.loads(out)["lower"] == [26, 26, 836]

    def test_convert_requires_exactly_one_direction(self, capsys):
        code, _, _ = run(capsys, "ram", "convert", "--p", "3")
        assert code == 1
        code, _, _ = run(capsys, "ram", "convert", "--p", "3",
                         "--lower", "1", "--upper", "1")
        assert code == 1

    def test_tables(self, capsys):
        code, out, _ = run(capsys, "ram", "tables", "--p", "3", "--n", "3",
                           "--b", "1,1,82", "--output", "json")
        assert code == 0
        d = json.loads(out)
        assert d["shift"][13] == 94
        assert d["inverse"][0] == 0

    def test_tables_validation(self, capsys):
        code, _, err = run(capsys, "ram", "tables", "--p", "3", "--n", "1", "--b", "3")
        assert code == 1
        assert "divides" in err
        # 3^30 residues: refused before any table is built
        code, out, err = run(capsys, "ram", "tables", "--p", "3", "--n", "30",
                             "--b", ",".join(["1"] * 30))
        assert (code, out) == (1, "")
        assert f"p^n = {3**30}" in err


class TestOracle:
    def test_verify_h(self, capsys):
        code, out, _ = run(capsys, "oracle", "verify", "--variant", "H", "--p", "3",
                           "--n", "1", "--u", "1", "--t", "1", "--output", "json")
        assert code == 0
        d = json.loads(out)
        assert d["passed"] is True
        assert d["measured_b"] == [1, 1, 82]

    def test_verify_with_prec(self, capsys):
        code, out, _ = run(capsys, "oracle", "verify", "--variant", "M", "--p", "3",
                           "--n", "1", "--u", "1", "--t", "1", "--prec", "400",
                           "--output", "json")
        assert code == 0
        assert json.loads(out)["prec"] == 400

    @pytest.mark.parametrize("variant,p,n,window", [
        ("H", 3, 1, 2), ("M", 3, 1, 2), ("H", 5, 1, 2), ("M", 5, 1, 2),
        ("H", 3, 2, 4), ("M", 3, 2, 4)])
    def test_window_one_is_retried(self, capsys, variant, p, n, window):
        # window 1 never certifies v_top(X): the report carries the window that did
        code, out, _ = run(capsys, "oracle", "verify", "--variant", variant, "--p", str(p),
                           "--n", str(n), "--u", "1", "--t", "1", "--prec", "1",
                           "--output", "json")
        assert code == 0
        d = json.loads(out)
        assert d["passed"] is True
        assert d["prec"] == window

    def test_rejected_parameters_exit_2(self, capsys):
        # planner rejection is a hypothesis failure, not malformed input
        code, _, err = run(capsys, "oracle", "verify", "--variant", "H", "--p", "3",
                           "--n", "1", "--u", "5", "--t", "1")
        assert code == 2
        assert "reject" in err

    @pytest.mark.parametrize("prec", ["0", "-5"])
    def test_nonpositive_window_is_usage_error(self, capsys, prec):
        code, _, err = run(capsys, "oracle", "verify", "--variant", "H", "--p", "3",
                           "--n", "1", "--u", "1", "--t", "1", "--prec", prec)
        assert code == 1
        assert err.startswith("error:") and "prec" in err

    def test_construction_error_is_verification_failure(self, capsys, monkeypatch):
        import extraspecial.cli as cli
        from extraspecial import ConstructionError

        def broken(*args, **kwargs):
            raise ConstructionError("group is not closed under composition")

        monkeypatch.setattr(cli, "verify_family", broken)
        code, out, err = run(capsys, "oracle", "verify", "--variant", "H", "--p", "3",
                             "--n", "1", "--u", "1", "--t", "1")
        assert code == 2
        assert out == ""
        assert err == "verification failure: group is not closed under composition\n"

    def test_shift_outside_fp_is_verification_failure(self, capsys, monkeypatch):
        # a generator that shifts alpha_top by g, outside F_3, reads as no
        # word of the group table: a ConstructionError, never a KeyError
        import extraspecial.oracle as oracle
        from test_localfield import outside_fp
        galois_generators = oracle.galois_generators

        def bent_top(tower):
            gens = galois_generators(tower)
            return gens[:-1] + [outside_fp(gens[-1], tower.nvars - 1, tower.field.gen())]

        monkeypatch.setattr(oracle, "galois_generators", bent_top)
        code, out, err = run(capsys, "oracle", "verify", "--variant", "H", "--p", "3",
                             "--n", "1", "--u", "1", "--t", "1")
        assert code == 2
        assert out == ""
        assert err == "verification failure: group is not closed under composition\n"

    @pytest.mark.parametrize("variant, other, order, needs", [("H", "M", 3, 9),
                                                              ("M", "H", 9, 3)])
    def test_failed_presentation_is_verification_failure(self, capsys, monkeypatch,
                                                         variant, other, order, needs):
        # the tower read against the other variant's presentation stops the verify
        import extraspecial.oracle as oracle
        from test_localfield import as_other_variant
        group_structure = oracle.group_structure

        def read_as_other(tower, gens, table):
            return group_structure(as_other_variant(tower), gens, table)

        monkeypatch.setattr(oracle, "group_structure", read_as_other)
        code, out, err = run(capsys, "oracle", "verify", "--variant", variant, "--p", "3",
                             "--n", "1", "--u", "1", "--t", "1", "--output", "json")
        assert code == 2
        assert out == ""
        assert err == (f"verification failure: the order of sigma_1 is {order}, "
                       f"the presentation of {other}(1) needs {needs}\n")

    def test_composite_p_rejected(self, capsys):
        code, _, err = run(capsys, "ram", "convert", "--p", "4", "--lower", "1,2")
        assert code == 1
        assert "odd prime" in err

    def test_nonpositive_n_rejected(self, capsys):
        code, _, err = run(capsys, "verdict", "--p", "3", "--n", "0",
                           "--c", "5", "--u1", "1")
        assert code == 1
        assert "n = 0" in err


class TestJsonRoundtrip:
    @pytest.mark.parametrize("argv", [
        ("plan", "--variant", "M", "--p", "3", "--n", "1", "--e0", "inf",
         "--r", "1", "--m", "0,0,1", "--leads", "1,g,1"),
        ("example", "--p", "3", "--n", "1", "--u", "1", "--t", "1", "--variant", "H"),
        ("verdict", "--p", "3", "--n", "1", "--c", "64", "--u1", "1"),
        ("ram", "convert", "--p", "3", "--lower", "1,1,82"),
        ("ram", "tables", "--p", "3", "--n", "2", "--b", "1,10"),
        ("oracle", "verify", "--variant", "H", "--p", "3", "--n", "1",
         "--u", "1", "--t", "1"),
    ])
    def test_byte_identical_reserialization(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_schema_field(self, capsys):
        _, out, _ = run(capsys, "example", "--p", "3", "--n", "1", "--u", "1",
                        "--t", "1", "--variant", "H", "--output", "json")
        assert json.loads(out)["schema"] == 1


# -- argv fuzz: every input ends in an exit code, never in an exception ----------

_P = st.sampled_from(["3", "5", "7"]) | st.integers(-2, 12).map(str)
_N = st.integers(-1, 4).map(str)
_INT = st.integers(-3, 40).map(str)
_INT_LIST = st.lists(st.integers(-3, 120), max_size=5).map(lambda xs: ",".join(map(str, xs)))
_LEADS = st.lists(st.sampled_from(["0", "1", "2", "-1", "g", "g^2", "g^7", "g^-1", "x", ""]),
                  min_size=1, max_size=5).map(",".join)
_E0 = st.sampled_from(["inf", "0", "-3", "1/0", "5/2", "100", "abc", "1e3"])
_OUTPUT = st.sampled_from(["text", "json"])
_VARIANT = st.sampled_from(["H", "M", "X"])


def _command(words: list[str], **flags) -> st.SearchStrategy:
    """argv for ``words`` with one drawn value per flag; None leaves it out."""
    return st.fixed_dictionaries(flags).map(lambda kw: words + [
        x for k, v in kw.items() if v is not None for x in (f"--{k}", v)])


_PLAN = _command(["plan"], variant=_VARIANT, p=_P, n=_N, e0=_E0, r=_INT, m=_INT_LIST,
                 leads=_LEADS, q=st.none() | st.sampled_from(["1", "9", "10", "27", "625"]),
                 mode=st.sampled_from(["full", "simple"]), output=_OUTPUT)
_EXAMPLE = _command(["example"], p=_P, n=_N, u=_INT, t=_INT, variant=_VARIANT, output=_OUTPUT)
_VERDICT = _command(["verdict"], p=_P, n=_N, c=_INT, u1=_INT, output=_OUTPUT)
_CONVERT = _command(["ram", "convert"], p=_P, lower=st.none() | _INT_LIST,
                    upper=st.none() | _INT_LIST, output=_OUTPUT)
_TABLES = _command(["ram", "tables"], p=_P, n=_N, b=_INT_LIST, output=_OUTPUT)
# oracle verify: the H(3,1) command with one flag spoiled, so that it is
# rejected before any tower is built
_ORACLE_H31 = {"variant": "H", "p": "3", "n": "1", "u": "1", "t": "1"}
_ORACLE = st.sampled_from([
    ("prec", "0"), ("prec", "-5"), ("p", "1"), ("p", "4"), ("p", "11"), ("n", "0"),
    ("n", "4"), ("q", "10"), ("q", "1"), ("u", "3"), ("u", "0"), ("t", "-1"),
]).flatmap(lambda kv: _command(["oracle", "verify"],
                               **{k: st.just(v) for k, v in {**_ORACLE_H31, kv[0]: kv[1]}.items()}))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_PLAN, _EXAMPLE, _VERDICT, _CONVERT, _TABLES, _ORACLE))
def test_every_argv_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if argv[0] == "oracle":
        assert code == 1
