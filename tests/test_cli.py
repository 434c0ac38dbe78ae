import argparse
import io
import json
import random
from fractions import Fraction

import pytest

from xnalg import cli, cohomology, sequences
from xnalg.cli import CommandResult, ParseError, _build_parser, eval_expr, main, parse_expr, run_command
from xnalg.maps import Automorphism, ad_phi, partial_l
from xnalg.ncalg import AlgebraCtx, Element, render_element
from xnalg.scalars import CycloField, CycloScalar, scalar_to_json


def _eval(src, ctx):
    return eval_expr(parse_expr(src, ctx), ctx)


def test_parse_and_eval_basics():
    ctx = AlgebraCtx(4)
    assert _eval("y*x - x*y", ctx) == ctx.x(4)
    assert _eval("3/2*x^2*y", ctx) == ctx.monomial(2, 1, Fraction(3, 2))
    assert _eval("(x+y)^0", ctx) == ctx.one()
    ctx3 = AlgebraCtx(3)
    expected = ctx3.monomial(1, 2) + ctx3.monomial(3, 1, 2) + ctx3.monomial(5, 0, 3)
    assert _eval("y^2*x", ctx3) == expected


def test_parse_localized_inverse():
    loc = AlgebraCtx(3, True)
    assert _eval("x^-1*y", loc) == loc.monomial(-1, 1)
    assert _eval("-x^-2", loc) == loc.monomial(-2, 0, -1)


def test_parse_errors():
    ctx = AlgebraCtx(3)
    with pytest.raises(ParseError) as info:
        parse_expr("x^-1*y", ctx)
    assert "localized" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("y^-2", AlgebraCtx(3, True))
    with pytest.raises(ParseError) as info:
        parse_expr("(x+y)^-1", AlgebraCtx(3, True))
    assert "only to x" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("x +* y", ctx)
    with pytest.raises(ParseError):
        parse_expr("x y", ctx)  # no implicit multiplication
    with pytest.raises(ParseError):
        parse_expr("2/0", ctx)
    with pytest.raises(ParseError) as info:
        parse_expr("x + (y", ctx)
    assert "position" in str(info.value)


def test_eval_invariant_under_reassociation():
    ctx = AlgebraCtx(3)
    a = _eval("x*y*x*y", ctx)
    b = _eval("(x*y)*(x*y)", ctx)
    c = _eval("x*(y*(x*y))", ctx)
    assert a == b == c


def test_parse_render_round_trip():
    rng = random.Random(104)
    for _ in range(40):
        localized = rng.random() < 0.4
        ctx = AlgebraCtx(rng.randint(2, 4), localized)
        elt = ctx.zero()
        for _ in range(rng.randint(0, 5)):
            elt = elt + ctx.monomial(
                rng.randint(-3 if localized else 0, 4),
                rng.randint(0, 4),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            )
        text = render_element(elt)
        assert _eval(text, ctx) == elt
        assert render_element(_eval(text, ctx)) == text


def test_cli_norm():
    result = run_command(["norm", "y*x - x*y", "--N", "4"])
    assert result.status == 0
    assert result.text == "x^4"


def test_cli_norm_localized():
    result = run_command(["norm", "y*x^-1", "--N", "3", "--localized"])
    assert result.status == 0
    assert result.text == "x^-1*y - x"
    # same expression without the flag is a parse error
    assert run_command(["norm", "y*x^-1", "--N", "3"]).status == 1


def test_cli_norm_json():
    result = run_command(["norm", "x^2*y", "--N", "2", "--json"])
    assert result.status == 0
    payload = json.loads(result.text)
    assert payload["terms"] == [{"xexp": 2, "yexp": 1, "coeff": "1/1"}]
    assert payload["N"] == 2 and payload["localized"] is False


def test_cli_cseq():
    result = run_command(["cseq", "--j", "2"])
    assert result.status == 0
    assert result.text == "-1/6*q^2 + 1/6"


def test_cli_bern_greg():
    assert run_command(["bern", "--n", "4"]).text == "-1/30"
    assert run_command(["greg", "--n", "4"]).text == "-19/720"


def test_cli_hh_row():
    result = run_command(["hh", "--N", "3", "--p", "1", "--from", "-4", "--to", "3"])
    assert result.status == 0
    assert result.payload["computed"] == [0, 0, 1, 1, 2, 1, 1, 1]
    assert result.payload["match"] is True


def test_cli_hh_twisted():
    result = run_command(
        ["hh", "--N", "3", "--p", "1", "--from", "-2", "--to", "3", "--twist-order", "2", "--json"]
    )
    assert result.status == 0
    assert result.payload["computed"] == [0, 1, 0, 1, 0, 1]


def test_cli_bracket():
    result = run_command(["bracket", "--N", "3", "--l", "0", "--m", "5"])
    assert result.status == 0
    assert result.payload["computed_coeff"] == "5/1"
    assert result.payload["expected_coeff"] == "5/1"
    assert result.payload["match"] is True


def test_cli_inner_and_residue(tmp_path):
    d = partial_l(AlgebraCtx(3), 0)
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(d.to_json()), encoding="utf-8")
    result = run_command(["inner", "--file", str(path)])
    assert result.status == 0
    assert result.payload == {"inner": False, "witness": None}
    result = run_command(["residue", "--file", str(path)])
    assert result.status == 0
    assert result.payload == {"residue": "1/1"}


def test_cli_inner_witness(tmp_path):
    ctx = AlgebraCtx(3)
    d = ad_phi(ctx.x(2))
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(d.to_json()), encoding="utf-8")
    result = run_command(["inner", "--file", str(path)])
    assert result.status == 0
    assert result.payload["inner"] is True
    assert Element.from_json(result.payload["witness"]) == ctx.x(2)


def test_cli_taft():
    result = run_command(["taft", "--N", "3", "--n", "2", "--max-degree", "4", "--json"])
    assert result.status == 0
    assert result.payload["obstructed"] is True


def test_cli_aut():
    a = json.dumps({"lambda": "2/1", "f": ["1/1"]})
    b = json.dumps({"lambda": "3/1", "f": []})
    result = run_command(["aut", "compose", "--N", "2", "--a", a, "--b", b])
    assert result.status == 0
    assert result.payload["lambda"] == "6/1"
    result = run_command(["aut", "order", "--N", "2", "--a", json.dumps({"lambda": "-1/1", "f": []})])
    assert result.payload["order"] == 2
    result = run_command(["aut", "apply", "--N", "2", "--a", a, "--expr", "y"])
    assert result.text == "1 + 2*y"


def test_cli_veronese():
    result = run_command(["veronese", "--N", "4", "--m", "3", "--from", "3", "--to", "3", "--json"])
    assert result.status == 0
    degrees = result.payload["degrees"]
    assert degrees[0]["monomials"] == [{"xexp": 3, "yexp": 0}, {"xexp": 0, "yexp": 1}]
    assert result.payload["relation"]["discrepancy"] is True


def test_cli_nil():
    result = run_command(["nil", "--N", "4", "--r", "1", "--s", "1", "--from", "-3", "--to", "6"])
    assert result.status == 0
    assert result.payload["containment_ok"] is True


def test_cli_exit_codes():
    # usage errors exit 1
    assert run_command(["norm"]).status == 1
    assert run_command(["unknown-command"]).status == 1
    # parse errors exit 1
    assert run_command(["norm", "x +* y", "--N", "2"]).status == 1
    # options a subcommand does not read are not accepted (exit 1): inner and
    # residue read N and the field from the document, taft and veronese build
    # their own cyclotomic fields, and no field can change the answer of hh,
    # nil or laguerre-check (nor the localization that of laguerre-check)
    for argv in (["inner", "--N", "3"], ["inner", "--field-order", "2"],
                 ["residue", "--N", "3"], ["residue", "--field-order", "2"],
                 ["taft", "--N", "3", "--n", "2", "--field-order", "0"],
                 ["veronese", "--N", "4", "--m", "3", "--from", "0", "--to", "3",
                  "--field-order", "2"],
                 ["hh", "--N", "3", "--from", "0", "--to", "2", "--field-order", "1",
                  "--twist-order", "2"],
                 ["hh", "--N", "3", "--from", "0", "--to", "2", "--field-order", "2"],
                 ["nil", "--N", "4", "--r", "1", "--s", "1", "--from", "-3", "--to", "2",
                  "--field-order", "2"],
                 ["laguerre-check", "--N", "3", "--i", "1", "--j", "1", "--field-order", "2"],
                 ["laguerre-check", "--N", "3", "--i", "1", "--j", "1", "--localized"]):
        assert run_command(argv).status == 1, argv
    # precondition violations exit 2
    assert run_command(["hh", "--N", "1", "--p", "1", "--from", "0", "--to", "2"]).status == 2
    assert run_command(["phi", "--j", "0", "--N", "3"]).status == 2
    assert run_command(["hh", "--N", "3", "--twist-order", "0", "--from", "0", "--to", "2"]).status == 2
    assert run_command(["norm", "x", "--N", "2", "--field-order", "0"]).status == 2
    # a Taft collapse check over no monomials at all is vacuous
    assert run_command(["taft", "--N", "3", "--n", "2", "--max-degree", "-1"]).status == 2
    for argv in (["hh", "--N", "3"], ["nil", "--N", "4", "--r", "1", "--s", "1"],
                 ["veronese", "--N", "4", "--m", "3"]):
        assert run_command(argv + ["--from", "5", "--to", "2"]).status == 2
    # a nil window wholly below the first slot -N+1 is empty too
    assert run_command(["nil", "--N", "4", "--r", "1", "--s", "1",
                        "--from", "-10", "--to", "-5"]).status == 2
    # the expression nesting budget: at the limit fine, far beyond it exit 2
    assert run_command(["norm", "(" * 100 + "x" + ")" * 100, "--N", "2"]).status == 0
    assert run_command(["norm", "(" * 3000 + "x" + ")" * 3000, "--N", "2"]).status == 2
    # a missing input file exits 2 (malformed documents: test_cli_schema_error)
    result = run_command(["inner", "--file", "/nonexistent/never.json"])
    assert result.status == 2


def test_cli_kernel_faults_exit_3(monkeypatch):
    # a TypeError, KeyError or IndexError raised inside the kernel is a broken
    # invariant (exit 3), not a user error (exit 2)
    argv = ["hh", "--N", "3", "--from", "0", "--to", "2", "--twist-order", "3", "--json"]
    assert run_command(argv).status == 0

    def faulty_mul(self, other):
        raise TypeError("injected kernel fault")

    with monkeypatch.context() as patch:
        patch.setattr(CycloScalar, "__mul__", faulty_mul)
        patch.setattr(CycloScalar, "__rmul__", faulty_mul)
        result = run_command(argv)
    assert result.status == 3
    assert result.payload == {"error": "injected kernel fault"}
    assert result.text == "internal invariant breach: injected kernel fault"
    for exc in (KeyError, IndexError):
        def faulty_slice(ctx, l, omega=None, exc=exc):
            raise exc("injected")

        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "build_slice", faulty_slice)
            assert run_command(argv).status == 3, exc
    assert run_command(argv).status == 0
    # the user-reachable coercion and serialization refusals stay exit-2
    # ValueErrors with their messages
    with pytest.raises(ValueError, match="cannot coerce"):
        CycloField(3).coerce(0.5)
    with pytest.raises(ValueError, match="not a serializable scalar"):
        scalar_to_json(0.5)


def test_cli_hh_builds_each_slice_once(monkeypatch):
    built = []
    real = cohomology.build_slice

    def counting(ctx, l, omega=None):
        built.append(l)
        return real(ctx, l, omega)

    monkeypatch.setattr(cohomology, "build_slice", counting)
    window = ["--N", "3", "--from", "-3", "--to", "4", "--json"]
    result = run_command(["hh"] + window)
    assert result.status == 0
    assert sorted(built) == list(range(-3, 5))
    assert len(result.payload) == 3
    for p, entry in enumerate(result.payload):
        assert entry == run_command(["hh", "--p", str(p)] + window).payload


def test_cli_hh_identity_twist_is_untwisted():
    # twisting by omega = 1 changes nothing, so the untwisted closed forms apply
    window = ["--N", "3", "--from", "-3", "--to", "4", "--json"]
    plain = run_command(["hh"] + window)
    twisted = run_command(["hh", "--twist-order", "1"] + window)
    assert plain.status == twisted.status == 0
    for p, (a, b) in enumerate(zip(plain.payload, twisted.payload)):
        assert b["match"] and b["euler_match"], p
        assert b["twist_order"] == 1
        assert {**b, "twist_order": None} == a


def test_cli_hh_identity_twist_json_bytes():
    # omega = 1 builds the untwisted integer slices; the report still says
    # twist_order 1, and its bytes are pinned
    argv = ["hh", "--N", "3", "--from", "0", "--to", "3", "--twist-order", "1", "--json"]
    result = run_command(argv)
    computed = {0: [1, 0, 0, 0], 1: [2, 1, 1, 1], 2: [1, 1, 1, 1]}
    expected = [
        {"N": 3, "p": p, "from": 0, "to": 3, "twist_order": 1, "computed": dims,
         "expected": dims, "match": True, "euler_computed": [0, 0, 0, 0],
         "euler_expected": [0, 0, 0, 0], "euler_match": True}
        for p, dims in computed.items()
    ]
    assert result.status == 0
    assert result.text == json.dumps(expected, indent=2, sort_keys=True)


def test_cli_budgets_exit_2(tmp_path):
    # inputs past a budget are refused before any slice, field or sequence
    # table is built; inputs at a budget run.  phi reads c_0 .. c_{j-1}, so
    # its budget is one above that of cseq
    budgets = (
        (["hh", "--N", "3", "--from", "0", "--to", "100000"],
         "top degree 100000 is above the budget of 64"),
        (["hh", "--N", "3", "--from", "-100000", "--to", "3"],
         "degree window [-100000..3] is wider than the budget of 128 degrees"),
        (["hh", "--N", "3", "--from", "0", "--to", "3", "--twist-order", "100000"],
         "cyclotomic order 100000 is above the budget of 100"),
        (["norm", "x", "--N", "3", "--field-order", "100000"],
         "cyclotomic order 100000 is above the budget of 100"),
        (["cseq", "--j", "5000"], "c_poly index 5000 is above the budget of 40"),
        (["cseq", "--j", "41"], "c_poly index 41 is above the budget of 40"),
        (["bern", "--n", "100000"], "bernoulli index 100000 is above the budget of 300"),
        (["greg", "--n", "100000"], "gregory index 100000 is above the budget of 300"),
        (["phi", "--N", "2", "--j", "100000"],
         "phi_element index 100000 is above the budget of 41"),
    )
    tables = (sequences._bernoulli, sequences._gregory, sequences._cpolys)
    sizes = [len(t) for t in tables]
    for argv, message in budgets:
        result = run_command(argv)
        assert result.status == 2, argv
        assert result.text == f"precondition violated: {message}"
    assert [len(t) for t in tables] == sizes
    document = ad_phi(AlgebraCtx(3).x(2)).to_json()
    document["dx"]["field"]["cyclo_order"] = 100000
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    result = run_command(["inner", "--file", str(path)])
    assert result.status == 2
    assert result.payload == {"error": "cyclotomic order 100000 is above the budget of 100"}
    for argv in (["hh", "--N", "6", "--p", "1", "--from", "-63", "--to", "64"],
                 ["norm", "x", "--N", "3", "--field-order", "100"],
                 ["bern", "--n", "300"]):
        assert run_command(argv).status == 0, argv


def test_cli_bracket_and_nil_refuse_late_slots_up_front():
    # the top slot a request would build is checked before any derivation is:
    # bracket reads slots l, m and l + m; nil's containment loop reaches the
    # sum of the largest slots of Nil_r and Nil_s in its window
    refusals = (
        (["bracket", "--N", "3", "--l", "60", "--m", "64"],
         "phi_element index 63 is above the budget of 41"),
        (["bracket", "--N", "2", "--l", "-1", "--m", "42"],
         "phi_element index 43 is above the budget of 41"),
        (["bracket", "--N", "2", "--l", "20", "--m", "21"],
         "phi_element index 42 is above the budget of 41"),
        (["nil", "--N", "5", "--r", "1", "--s", "1", "--from", "-4", "--to", "200"],
         "phi_element index 100 is above the budget of 41"),
        (["nil", "--N", "3", "--r", "1", "--s", "1", "--from", "-2", "--to", "41"],
         "phi_element index 42 is above the budget of 41"),
        # N is checked before any slot
        (["bracket", "--N", "1", "--l", "1", "--m", "1"], "bracket tables need N >= 2"),
        (["nil", "--N", "2", "--r", "1", "--s", "1", "--from", "0", "--to", "200"],
         "the nilpotent chain is trivial below N = 3"),
    )
    built = cohomology.standard_derivation.cache_info().misses
    for argv, message in refusals:
        result = run_command(argv)
        assert result.status == 2, argv
        assert result.text == f"precondition violated: {message}"
    assert cohomology.standard_derivation.cache_info().misses == built
    result = run_command(["bracket", "--N", "2", "--l", "20", "--m", "20"])
    assert result.status == 0
    assert result.text.endswith("L-basis 0 (expected 0, match=True)")


def test_cli_veronese_window_is_refused_before_any_work(monkeypatch):
    # a veronese window shares the budgets of an hh window and is checked
    # before any degree is built; every window up to the top degree runs
    refusals = (
        (["veronese", "--N", "4", "--m", "3", "--from", "0", "--to", "100000"],
         "top degree 100000 is above the budget of 64"),
        (["veronese", "--N", "2", "--m", "4", "--from", "0", "--to", "65"],
         "top degree 65 is above the budget of 64"),
        (["veronese", "--N", "4", "--m", "3", "--from", "-100000", "--to", "3"],
         "degree window [-100000..3] is wider than the budget of 128 degrees"),
    )
    built = []
    real = cohomology.basis_of_degree
    monkeypatch.setattr(cohomology, "basis_of_degree", lambda *a: built.append(a) or real(*a))
    for argv, message in refusals:
        for extra in ([], ["--json"]):
            result = run_command(argv + extra)
            assert result.status == 2, argv
            assert result.text == f"precondition violated: {message}"
    assert built == []
    for N in range(2, 7):
        for m in range(1, 5):
            argv = ["veronese", "--N", str(N), "--m", str(m), "--from", "0", "--to", "16"]
            assert run_command(argv).status == 0, argv
    result = run_command(["veronese", "--N", "6", "--m", "4", "--from", "-63", "--to", "64"])
    assert result.status == 0
    assert result.text.endswith("degree 64: " + ", ".join(
        render_element(AlgebraCtx(6).monomial(64 - 5 * j, j)) for j in range(13)))


def test_cli_output_digit_budget():
    # a coefficient is written out, as text or JSON, only while its numerator
    # and denominator have at most 4300 digits; past that the request exits 2
    # with the package's message, not the interpreter's
    message = ("precondition violated: "
               "a coefficient has more than 4300 digits, above the output budget")
    for expr, field in (("y^3000*x^3000", []), ("10^4300*x", []), ("x - (1/10)^4300*y", []),
                        ("10^4300*x", ["--field-order", "3"])):
        for extra in ([], ["--json"]):
            result = run_command(["norm", expr, "--N", "3", *field, *extra])
            assert (result.status, result.text) == (2, message), (expr, field, extra)
    digits = "1" + "0" * 4299
    result = run_command(["norm", "10^4299*x - (1/10)^4299*y", "--N", "3"])
    assert (result.status, result.text) == (0, f"-1/{digits}*y + {digits}*x")
    result = run_command(["norm", "10^4299*x - (1/10)^4299*y", "--N", "3", "--json"])
    assert result.status == 0
    assert [term["coeff"] for term in result.payload["terms"]] == [f"-1/{digits}", f"{digits}/1"]
    assert json.loads(result.text) == result.payload


def test_cli_schema_error(tmp_path):
    bad = {
        "twist": None,
        "dx": {"N": 2, "localized": False, "terms": [{"xexp": 0, "yexp": 0, "coeff": "1/0"}]},
        "dy": {"N": 2, "localized": False, "terms": []},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    result = run_command(["inner", "--file", str(path)])
    assert result.status == 1
    assert "1/0" in result.text or "denominator" in result.text


def test_cli_laguerre_check():
    result = run_command(["laguerre-check", "--N", "3", "--i", "2", "--j", "2"])
    assert result.status == 0 and result.payload["match"] is True


def test_cli_phi():
    result = run_command(["phi", "--N", "2", "--j", "3", "--json"])
    assert result.status == 0
    assert Element.from_json(result.payload) == (
        AlgebraCtx(2).monomial(0, 3, Fraction(1, 3)) - AlgebraCtx(2).monomial(1, 2)
    )


def test_cli_help_returns_a_result(capsys):
    # --help is a successful request: run_command hands the text back instead
    # of letting argparse exit the interpreter, and main() prints exactly what
    # argparse itself would print
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for argv, owner in ((["--help"], parser), (["norm", "--help"], subparsers.choices["norm"]),
                        (["bracket", "--N", "3", "-h"], subparsers.choices["bracket"])):
        result = run_command(argv)
        assert result.status == 0, argv
        assert result.text.startswith("usage: xnalg")
        assert result.payload == {"help": result.text}
        assert main(argv) == 0
        assert capsys.readouterr().out == argparse.ArgumentParser.format_help(owner)
    # a valid request after a help request is unaffected
    assert run_command(["norm", "y*x - x*y", "--N", "4"]).text == "x^4"


# Each subcommand's arguments as (option strings, dest, type, required,
# default, choices, help, exclusive group), between -h and --json; recorded
# from the hand-written parser the command table replaced.  Help layout
# differs between Python releases, so the structure is pinned, not the text.
_PARSER_SHAPE = [
    ("norm", "normal form of an expression", [
        ((), "expr", None, True, None, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
        (("--field-order",), "field_order", "int", False, None, None, None, None),
        (("--localized",), "localized", None, False, False, None, None, None),
    ]),
    ("cseq", "the j-th polynomial of the c-family", [
        (("--j",), "j", "int", True, None, None, None, None),
    ]),
    ("bern", "Bernoulli number", [
        (("--n",), "n", "int", True, None, None, None, None),
    ]),
    ("greg", "Gregory coefficient", [
        (("--n",), "n", "int", True, None, None, None, None),
    ]),
    ("phi", "the degree-j(N-1) element with bracket x^N y^{j-1}", [
        (("--j",), "j", "int", True, None, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
        (("--field-order",), "field_order", "int", False, None, None, None, None),
        (("--localized",), "localized", None, False, False, None, None, None),
    ]),
    ("laguerre-check", "conjugation identity for normal-order powers", [
        (("--i",), "i", "int", True, None, None, None, None),
        (("--j",), "j", "int", True, None, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
    ]),
    ("hh", "cohomology dimensions over a degree window", [
        (("--p",), "p", "int", False, None, (0, 1, 2), None, None),
        (("--twist-order",), "twist_order", "int", False, None, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
        (("--from",), "lo", "int", True, None, None, None, None),
        (("--to",), "hi", "int", True, None, None, None, None),
    ]),
    ("bracket", "bracket table entry with witness", [
        (("--l",), "l", "int", True, None, None, None, None),
        (("--m",), "m", "int", True, None, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
        (("--field-order",), "field_order", "int", False, None, None, None, None),
    ]),
    ("inner", "innerness decision with witness (derivation JSON on stdin or --file)", [
        (("--file",), "file", None, False, None, None, None, None),
        (("--i-min",), "i_min", "int", False, None, None, None, None),
    ]),
    ("residue", "residue obstruction to localized innerness", [
        (("--file",), "file", None, False, None, None, None, None),
    ]),
    ("taft", "obstruction to inner-faithful Taft actions", [
        (("--n",), "n", "int", True, None, None, None, None),
        (("--max-degree",), "max_degree", "int", False, 6, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
    ]),
    ("aut", "automorphism group operations", [
        ((), "action", None, True, None, ("compose", "inverse", "order", "apply"), None, None),
        (("--a",), "a", None, False, None, None, "automorphism JSON", None),
        (("--b",), "b", None, False, None, None, "automorphism JSON", None),
        (("--expr",), "expr", None, False, None, None, None, None),
        (("--bound",), "bound", "int", False, 64, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
        (("--field-order",), "field_order", "int", False, None, None, None, None),
        (("--localized",), "localized", None, False, False, None, None, None),
    ]),
    ("veronese", "fixed monomials of the diagonal order-m automorphism", [
        (("--m",), "m", "int", True, None, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
        (("--from",), "lo", "int", True, None, None, None, None),
        (("--to",), "hi", "int", True, None, None, None, None),
    ]),
    ("nil", "nilpotent chain containment on a window", [
        (("--r",), "r", "int", True, None, None, None, None),
        (("--s",), "s", "int", True, None, None, None, None),
        (("--N",), "N", "int", True, None, None, "relation exponent", None),
        (("--from",), "lo", "int", True, None, None, None, None),
        (("--to",), "hi", "int", True, None, None, None, None),
    ]),
]


def test_cli_parser_structure(tmp_path):
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    shape = []
    for name, sub in subparsers.choices.items():
        groups = [g._group_actions for g in sub._mutually_exclusive_groups]
        shape.append((name, [
            (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type), a.required,
             a.default, a.choices, a.help, next((k for k, g in enumerate(groups) if a in g), None))
            for a in sub._actions
        ]))
    assert [a.help for a in subparsers._choices_actions] == [help for _, help, _ in _PARSER_SHAPE]
    assert shape == [
        (name, [(("-h", "--help"), "help", None, False, argparse.SUPPRESS, None,
                 "show this help message and exit", None),
                *args,
                (("--json",), "json", None, False, False, None, None, None)])
        for name, _, args in _PARSER_SHAPE
    ]
    # every subcommand's help, each followed by a valid request that its
    # handler alone answers, in one process
    document = tmp_path / "derivation.json"
    document.write_text(json.dumps(ad_phi(AlgebraCtx(3).x(2)).to_json()), encoding="utf-8")
    requests = {
        "norm": (["y*x - x*y", "--N", "4"], "x^4"),
        "cseq": (["--j", "2"], "-1/6*q^2 + 1/6"),
        "bern": (["--n", "2"], "1/6"),
        "greg": (["--n", "2"], "-1/12"),
        "phi": (["--N", "2", "--j", "3"], "1/3*y^3 - x*y^2"),
        "laguerre-check": (["--N", "3", "--i", "1", "--j", "1"], "match"),
        "hh": (["--N", "3", "--from", "0", "--to", "1"],
               "HH^0 degrees [0..1]: [1, 0] (expected [1, 0], match=True)"),
        "bracket": (["--N", "3", "--l", "2", "--m", "3"],
                    "[slot 2, slot 3] ~ 3/2 * slot 5; expected 3/2, match=True; "
                    "L-basis -1 (expected -1, match=True)"),
        "inner": (["--file", str(document)], "x^2"),
        "residue": (["--file", str(document)], "0"),
        "taft": (["--N", "3", "--n", "2", "--max-degree", "1"],
                 "q-binomials vanish: True; power collapse on 2 monomials: True; "
                 "witness d^2(y) = (2) (nonzero: True)"),
        "aut": (["order", "--N", "2", "--a", '{"lambda": "-1/1", "f": []}'], "2"),
        "veronese": (["--N", "4", "--m", "3", "--from", "0", "--to", "3"], "degree 0: 1"),
        "nil": (["--N", "4", "--r", "1", "--s", "1", "--from", "-3", "--to", "2"],
                "containment [Nil_1, Nil_1] in Nil_2 mod inner: True; lower central series "
                "sizes on window: [4, 1] (computed index 2, printed index 2)"),
    }
    assert list(requests) == [name for name, _, _ in _PARSER_SHAPE]
    for name, (argv, first_line) in requests.items():
        result = run_command([name, "--help"])
        assert result.status == 0, name
        assert result.text.startswith(f"usage: xnalg {name} "), name
        result = run_command([name, *argv])
        assert result.status == 0, name
        assert result.text.splitlines()[0] == first_line, name


def test_cli_deep_json_exits_2(tmp_path, monkeypatch):
    # the JSON decoder recurses per nesting level: a document nested past the
    # recursion limit is a precondition violation, from --file, stdin or --a
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    for argv in (["inner", "--file", str(path)], ["residue"],
                 ["aut", "inverse", "--N", "2", "--a", deep]):
        result = run_command(argv)
        assert result.status == 2, argv
        assert result.text == "precondition violated: JSON input nests too deeply"
    # a shallow document of the wrong shape stays a parse error
    path.write_text("[[[]]]", encoding="utf-8")
    assert run_command(["inner", "--file", str(path)]).status == 1


def test_main_prints_text_and_returns_status(capsys):
    assert main(["norm", "y*x - x*y", "--N", "4"]) == 0
    assert capsys.readouterr().out == "x^4\n"
    assert main(["norm", "x +* y", "--N", "2"]) == 1
    assert capsys.readouterr().out.startswith("parse error: position 3")


def test_cli_parse_errors_exit_1():
    for src, message in (("2/", "expected a denominator"),
                         ("x $ y", "unexpected character '$'"),
                         ("x^1/2", "exponents must be integers")):
        result = run_command(["norm", src, "--N", "2"])
        assert result.status == 1, src
        assert result.text == f"parse error: position 2: {message}"


def test_cli_aut_inverse_and_usage_errors():
    a = json.dumps({"lambda": "2/1", "f": ["1/1"]})
    result = run_command(["aut", "inverse", "--N", "2", "--a", a])
    assert result.status == 0
    assert result.payload == {"lambda": "1/2", "f": ["-1/2"]}
    identity = run_command(["aut", "compose", "--N", "2", "--a", a, "--b", json.dumps(result.payload)])
    assert identity.payload == Automorphism.identity(AlgebraCtx(2)).to_json()
    for argv, message in ((["compose", "--a", a], "compose needs --a and --b"),
                          (["inverse"], "inverse needs --a"),
                          (["order"], "order needs --a"),
                          (["apply", "--a", a], "apply needs --a and --expr"),
                          (["apply", "--expr", "y"], "apply needs --a and --expr")):
        result = run_command(["aut", *argv, "--N", "2"])
        assert result.status == 1, argv
        assert result.text == f"usage error: {message}"


def test_cli_inner_reads_stdin(monkeypatch):
    ctx = AlgebraCtx(3)
    document = json.dumps(ad_phi(ctx.x(2)).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    result = run_command(["inner", "--json"])
    assert result.status == 0
    assert Element.from_json(result.payload["witness"]) == ctx.x(2)


def test_inner_witness_recheck_fires(monkeypatch, tmp_path):
    # a solve that returns a wrong but consistent-looking solution must be
    # caught by re-applying the witness, in the library and as exit 3
    real = cohomology.linalg.solve

    def perturbed(rows, rhs, ncols, field):
        sol = real(rows, rhs, ncols, field)
        return None if sol is None else [*sol[:-1], sol[-1] + 1]

    ctx = AlgebraCtx(3)
    fld = CycloField(2)
    ctx2 = AlgebraCtx(3, False, fld)
    twist = Automorphism.diagonal(ctx2, fld.zeta)
    inner = ad_phi(ctx.x(2))
    assert cohomology.is_inner(inner) == ctx.x(2)
    assert cohomology.is_inner(ad_phi(ctx2.x(2), twist)) == ctx2.x(2)
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(inner.to_json()), encoding="utf-8")
    bracket = ["bracket", "--N", "3", "--l", "2", "--m", "3"]
    assert run_command(bracket).status == 0

    monkeypatch.setattr(cohomology.linalg, "solve", perturbed)
    with pytest.raises(AssertionError, match="inner witness"):
        cohomology.is_inner(inner)
    with pytest.raises(AssertionError, match="inner witness"):
        cohomology.is_inner(ad_phi(ctx2.x(2), twist))
    with pytest.raises(AssertionError, match="inner witness"):
        cohomology.bracket_table(ctx, 2, 3)
    for argv in (["inner", "--file", str(path)], bracket):
        result = run_command(argv)
        assert result.status == 3, argv
        assert result.text.startswith("internal invariant breach: inner witness")


def test_slice_check_fires_on_a_corrupted_d0(monkeypatch):
    # d1 . d0 is formed from the rows that are ranked, so a d0 row that lost
    # an entry must fail the check, in the library and as exit 3; at N=3,
    # l=2 the corrupted row is one that no d1 row reads, and the re-check
    # against ad_phi catches it
    real = cohomology._matrix

    def corrupted(columns, bases):
        rows = real(columns, bases)
        if len(bases) == 2:  # d0, rows over basis1x then basis1y
            row = next(r for r in rows if r)
            del row[next(iter(row))]
        return rows

    ctx = AlgebraCtx(3)
    for l, message in ((6, "the slice differentials do not compose to zero"),
                       (2, "a d0 row disagrees with ad_phi")):
        cohomology.build_slice(ctx, l)
        argv = ["hh", "--N", "3", "--from", str(l), "--to", str(l)]
        assert run_command(argv).status == 0

        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "_matrix", corrupted)
            with pytest.raises(AssertionError, match=message):
                cohomology.build_slice(ctx, l)
            result = run_command(argv)
        assert result.status == 3
        assert result.text == f"internal invariant breach: {message}"


def _twisted_document():
    # an inner derivation over Q(zeta_3) twisted by x -> zeta x: every JSON
    # section of the schema is present, dx has exactly one term
    fld = CycloField(3)
    ctx = AlgebraCtx(3, False, fld)
    return ad_phi(ctx.x(2), Automorphism.diagonal(ctx, fld.zeta)).to_json()


def _run_inner(tmp_path, document):
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return run_command(["inner", "--file", str(path)])


def _set(keys, value):
    # an edit of a JSON document: the value at the key path replaced
    def edit(doc):
        if not keys:
            return value
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return doc
    edit.__name__ = (".".join(map(str, keys)) or "document") + "=" + json.dumps(value)
    return edit


def _duplicate_first_term(doc):
    doc["dx"]["terms"].append(doc["dx"]["terms"][0])
    return doc


_TERM = ("dx", "terms", 0)
_COEFF = _TERM + ("coeff",)


_REFUSALS = [
    (_set((), []), 1, "derivation: expected an object"),
    (_set(("dy", "N"), 4), 1, "derivation: generator images disagree about the context"),
    (_set(("twist",), []), 1, "derivation.twist: expected an object"),
    (_set(("twist", "f"), {}), 1, "derivation.twist.f: expected a list"),
    (_set(("dx",), []), 1, "derivation.dx: expected an object"),
    (_set(("dx", "N"), -1), 1, "derivation.dx.N: expected an integer >= 0"),
    (_set(("dx", "localized"), "no"), 1, "derivation.dx.localized: expected a boolean"),
    (_set(("dx", "field"), 3), 1, "derivation.dx.field: expected {'cyclo_order': n}"),
    (_set(("dx", "terms"), {}), 1, "derivation.dx.terms: expected a list"),
    (_set(_TERM, []), 1, "derivation.dx.terms[0]: expected an object"),
    (_set(_TERM + ("xexp",), "3"), 1,
     "derivation.dx.terms[0]: expected integer 'xexp' and 'yexp'"),
    (_set(_TERM + ("yexp",), -1), 1,
     "derivation.dx.terms[0].yexp: y-exponents must be non-negative"),
    (_set(_TERM + ("xexp",), -1), 1,
     "derivation.dx.terms[0].xexp: negative x-exponent outside localized mode"),
    (_duplicate_first_term, 1, "derivation.dx.terms[1]: duplicate monomial"),
    (_set(_COEFF + ("coeffs",), "1/1"), 1,
     "derivation.dx.terms[0].coeff: cyclotomic scalar needs integer 'order' and list 'coeffs'"),
    (_set(_COEFF + ("order",), 4), 2,
     "derivation.dx.terms[0].coeff: scalar of order 4 in field of order 3"),
    (_set(_COEFF + ("coeffs",), ["1/1"]), 1,
     "derivation.dx.terms[0].coeff: expected 2 coordinates, got 1"),
    (_set(_COEFF, 5), 1, "derivation.dx.terms[0].coeff: not a scalar encoding: 5"),
    # JSON true is no integer, although Python's bool is an int subclass
    (_set(("dx", "N"), True), 1, "derivation.dx.N: expected an integer >= 0"),
    (_set(_TERM + ("xexp",), True), 1,
     "derivation.dx.terms[0]: expected integer 'xexp' and 'yexp'"),
    (_set(_TERM + ("yexp",), True), 1,
     "derivation.dx.terms[0]: expected integer 'xexp' and 'yexp'"),
    (_set(("dx", "field", "cyclo_order"), True), 1,
     "derivation.dx.field: expected {'cyclo_order': n}"),
    (_set(_COEFF + ("order",), True), 1,
     "derivation.dx.terms[0].coeff: cyclotomic scalar needs integer 'order' and list 'coeffs'"),
]


@pytest.mark.parametrize("edit, status, message", _REFUSALS, ids=[r[0].__name__ for r in _REFUSALS])
def test_cli_inner_json_refusals(tmp_path, edit, status, message):
    document = _twisted_document()
    assert _run_inner(tmp_path, document).status == 0
    result = _run_inner(tmp_path, edit(document))
    assert result.status == status
    assert result.payload == {"error": message}
    prefix = "parse error" if status == 1 else "precondition violated"
    assert result.text == f"{prefix}: {message}"



def test_cli_lazy_text_equals_the_eager_text(tmp_path):
    # every handler renders its text only when it is printed; the text is
    # the one built from the kernel results at once
    ctx2, ctx3, ctx4 = AlgebraCtx(2), AlgebraCtx(3), AlgebraCtx(4)
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps(ad_phi(ctx3.x(2)).to_json()), encoding="utf-8")
    outer = tmp_path / "outer.json"
    outer.write_text(json.dumps(partial_l(ctx3, 0).to_json()), encoding="utf-8")
    a = {"lambda": "2/1", "f": ["1/1", "-1/2"]}
    b = {"lambda": "-1/1", "f": ["0/1", "3/1"]}
    aut_a, aut_b = Automorphism.from_json(a, ctx2), Automorphism.from_json(b, ctx2)
    aut_args = ["--N", "2", "--a", json.dumps(a)]
    expr = "(1/2*x + y)^3 - x*y"
    hh = cohomology.hh_reports(ctx3, 0, 4, None)
    br = cohomology.bracket_table(ctx3, 0, 5)
    taft = cohomology.taft_obstruction(3, 2, 4)
    nil = cohomology.nil_chain_check(ctx4, 1, 1, -3, 6)
    cases = [
        (["norm", expr, "--N", "3"], render_element(eval_expr(parse_expr(expr, ctx3), ctx3))),
        (["cseq", "--j", "5"], sequences.c_poly(5).format()),
        (["bern", "--n", "12"], str(sequences.bernoulli(12))),
        (["greg", "--n", "7"], str(sequences.gregory(7))),
        (["phi", "--N", "3", "--j", "4"], render_element(cli.phi_element(ctx3, 4))),
        (["laguerre-check", "--N", "3", "--i", "2", "--j", "3"], "match"),
        (["hh", "--N", "3", "--from", "0", "--to", "4"], "\n".join(
            f"HH^{r.p} degrees [{r.lo}..{r.hi}]: {r.computed} (expected {r.expected}, match={r.match})"
            for r in hh)),
        (["bracket", "--N", "3", "--l", "0", "--m", "5"],
         f"[slot 0, slot 5] ~ {br.computed_coeff} * slot {br.target_degree}; "
         f"expected {br.expected_coeff}, match={br.match}; "
         f"L-basis {br.l_computed} (expected {br.l_expected}, match={br.l_match})"),
        (["inner", "--file", str(inner)], render_element(ctx3.x(2))),
        (["inner", "--file", str(outer)], "not inner"),
        (["residue", "--file", str(outer)], "1"),
        (["taft", "--N", "3", "--n", "2", "--max-degree", "4"],
         f"q-binomials vanish: {taft.qbinom_vanishing}; power collapse on "
         f"{taft.checked_monomials} monomials: {taft.collapse_ok}; "
         f"witness d^2(y) = {render_element(taft.witness_value)} (nonzero: {taft.witness_nonzero})"),
        (["aut", "compose", *aut_args, "--b", json.dumps(b)], repr(aut_a.compose(aut_b))),
        (["aut", "inverse", *aut_args], repr(aut_a.inverse())),
        (["aut", "order", *aut_args], "None"),
        (["aut", "apply", *aut_args, "--expr", "x*y + y"],
         render_element(aut_a.apply(ctx2.monomial(1, 1) + ctx2.y()))),
        (["veronese", "--N", "4", "--m", "3", "--from", "2", "--to", "4"],
         "degree 2: -\ndegree 3: x^3, y\ndegree 4: -"),
        (["nil", "--N", "4", "--r", "1", "--s", "1", "--from", "-3", "--to", "6"],
         f"containment [Nil_1, Nil_1] in Nil_2 mod inner: {nil.containment_ok}; "
         f"lower central series sizes on window: {nil.lcs_lengths} "
         f"(computed index {nil.computed_index}, printed index {nil.printed_index})"),
    ]
    assert {argv[0] for argv, _ in cases} == {name for name, *_ in cli._COMMANDS}
    for argv, eager in cases:
        assert run_command(argv) == CommandResult(0, run_command([*argv, "--json"]).payload, eager), argv


def test_cli_json_requests_never_render_text(monkeypatch):
    # a --json request skips the human text; a text request that fails while
    # rendering keeps the exit code of its error
    def refuse(*args):
        raise ValueError("rendered")

    argvs = [
        ["norm", "(x + 1/2*y)^4", "--N", "3"],
        ["phi", "--N", "3", "--j", "5"],
        ["aut", "apply", "--N", "2", "--a", json.dumps({"lambda": "2/1", "f": []}), "--expr", "x*y"],
        ["taft", "--N", "3", "--n", "2", "--max-degree", "3"],
        ["veronese", "--N", "4", "--m", "3", "--from", "0", "--to", "3"],
    ]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "render_element", refuse)
        for argv in argvs:
            result = run_command([*argv, "--json"])
            assert result.status == 0 and json.loads(result.text) == result.payload, argv
            result = run_command(argv)
            assert (result.status, result.text) == (2, "precondition violated: rendered"), argv
            assert result.payload == {"error": "rendered"}


def test_cli_over_long_literal_exits_2_with_the_package_message():
    # a literal past 4300 digits is refused before int() meets the
    # interpreter's own limit, in both output modes
    ones = "1" * 4301
    for expr, pos in ((f"{ones}*x", 0), (f"x^{ones}", 2), (f"y - 1/{ones}*x", 4), (f"(x + {ones}/7)", 5)):
        message = f"position {pos}: a number has more than 4300 digits, above the digit budget"
        for extra in ([], ["--json"]):
            result = run_command(["norm", expr, "--N", "3", *extra])
            assert (result.status, result.text) == (2, f"precondition violated: {message}"), expr
            assert result.payload == {"error": message}
    result = run_command(["aut", "apply", "--N", "3", "--a", '{"lambda": "1/1"}', "--expr", f"{ones}*y"])
    assert result.status == 2
    digits = "1" * 4300
    assert run_command(["norm", f"{digits}*x", "--N", "3"]).text == f"{digits}*x"
    assert run_command(["norm", f"{digits}/7*y", "--N", "3"]).text == f"{digits}/7*y"


def test_cli_large_powers_and_orders_answer_at_once():
    result = run_command(["norm", "(x+y)^60", "--N", "3", "--json"])
    assert result.status == 0 and len(result.payload["terms"]) == 1831
    assert run_command(["norm", "0^100000000", "--N", "3"]).text == "0"
    shear = json.dumps({"lambda": "1/1", "f": ["1/1"]})
    result = run_command(["aut", "order", "--N", "2", "--a", shear, "--bound", "1000000000"])
    assert (result.status, result.payload, result.text) == (0, {"order": None}, "None")
    flip = json.dumps({"lambda": "-1/1", "f": ["1/1"]})
    result = run_command(["aut", "order", "--N", "2", "--a", flip, "--bound", "1000000000", "--json"])
    assert (result.status, result.payload) == (0, {"order": 2})


def test_cli_non_ascii_digits_are_parse_errors():
    # digits are ASCII only: a superscript or an Arabic-Indic digit is an
    # unexpected character (exit 1), in both output modes
    for expr, pos, ch in (("x^²", 2, "²"), ("x^³", 2, "³"), ("٣*x", 0, "٣"), ("3/٣*x", 2, None)):
        message = (f"position {pos}: unexpected character {ch!r}" if ch
                   else f"position {pos}: expected a denominator")
        for extra in ([], ["--json"]):
            result = run_command(["norm", expr, "--N", "3", *extra])
            assert (result.status, result.text) == (1, f"parse error: {message}"), expr
            assert result.payload == {"error": message}
    assert run_command(["norm", "x^2 + 10*y", "--N", "3"]).text == "10*y + x^2"


def test_cli_power_budget_exits_2():
    # refused before any product, in both modes; each pair of terms of
    # ((x+y)^60)^2 rewrites into up to 61 words
    for expr in ("(1+y)^2000", "(1+x)^2000", "(x+y)^150", "(x*y)^100000", "((x+y)^60)^2"):
        for extra in ([], ["--json"]):
            result = run_command(["norm", expr, "--N", "3", *extra])
            assert result.status == 2, expr
            assert result.text.startswith("precondition violated: the power "), expr
            assert result.text.endswith(", above the power budget of 1000000"), expr
            assert result.payload == {"error": result.text.removeprefix("precondition violated: ")}
    # zero and the one-term bases c x^i, c y^j stay exempt
    assert run_command(["norm", "x^100000000", "--N", "3"]).text == "x^100000000"
    assert run_command(["norm", "(2*y)^1000", "--N", "3"]).text == f"{2**1000}*y^1000"
    assert run_command(["norm", "(x+y)^60", "--N", "3"]).status == 0


def _full_parser_requests(tmp_path):
    document = tmp_path / "derivation.json"
    document.write_text(json.dumps(ad_phi(AlgebraCtx(3).x(2)).to_json()), encoding="utf-8")
    valid = [
        ["norm", "y*x - x*y", "--N", "4"], ["cseq", "--j", "2"], ["bern", "--n", "2"],
        ["greg", "--n", "2", "--json"], ["phi", "--N", "2", "--j", "3"],
        ["laguerre-check", "--N", "3", "--i", "1", "--j", "1"],
        ["hh", "--N", "3", "--from", "0", "--to", "1", "--p", "1"],
        ["bracket", "--N", "3", "--l", "2", "--m", "3", "--json"],
        ["inner", "--file", str(document)], ["residue", "--file", str(document), "--json"],
        ["taft", "--N", "3", "--n", "2", "--max-degree", "1"],
        ["aut", "order", "--N", "2", "--a", '{"lambda": "-1/1", "f": []}'],
        ["veronese", "--N", "4", "--m", "3", "--from", "0", "--to", "3"],
        ["nil", "--N", "4", "--r", "1", "--s", "1", "--from", "-3", "--to", "2"],
    ]
    assert [argv[0] for argv in valid] == [name for name, *_ in cli._COMMANDS]
    return [
        *valid,
        *([name, "--help"] for name, *_ in cli._COMMANDS),
        ["--help"], ["-h"], [], ["frobnicate"], ["frobnicate", "--N", "3"],
        # an option before the command
        ["--json", "norm", "x", "--N", "3"], ["--N", "3", "norm", "x"],
        # a value equal to a command name, and two command names
        ["norm", "hh", "--N", "3"], ["inner", "--file", "norm"], ["norm", "x", "--N", "3", "hh"],
        ["aut", "apply", "--N", "2", "--a", '{"lambda": "1/1", "f": []}', "--expr", "x", "--b", "nil"],
        # unknown, abbreviated and repeated options
        ["norm", "x", "--N", "3", "--bogus"], ["norm", "x", "--N", "3", "--field", "3"],
        ["hh", "--N", "3", "--from", "0", "--to", "2", "--twist", "3"],
        ["hh", "--N", "3", "--from", "0", "--to", "2", "--tw", "3", "--p", "0"],
        ["norm", "x", "--N", "3", "--N", "4", "--json"], ["bracket", "--N", "3", "--l", "2"],
        ["norm", "y*x", "--N", "3", "--json", "--json"],
        # exit 2 and parse errors between the others
        ["hh", "--N", "3", "--from", "0", "--to", "100000"], ["norm", "x +* y", "--N", "3"],
        ["norm", "y*x - x*y", "--N", "4", "--json"],
    ]


def test_cli_named_subcommands_answer_as_the_full_parser(tmp_path, monkeypatch):
    # run_command builds the options of only the subcommands its argv names;
    # every request, back to back in one process, gets the same result as
    # from the parser of every subcommand
    full_build = cli._build_parser
    for argv in _full_parser_requests(tmp_path):
        named = run_command(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", lambda names=None: full_build())
            assert run_command(argv) == named, argv


def test_cli_parser_builds_only_the_named_subcommands(monkeypatch):
    names = [name for name, *_ in cli._COMMANDS]
    blurbs = [blurb for _, blurb, *_ in cli._COMMANDS]

    def built(parser):
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        # every subcommand keeps its name and help line
        assert list(subparsers.choices) == names
        assert [a.help for a in subparsers._choices_actions] == blurbs
        return {name for name, sub in subparsers.choices.items()
                if [a.dest for a in sub._actions] != ["help"]}

    assert built(cli._build_parser({"hh"})) == {"hh"}
    assert built(cli._build_parser({"norm", "x", "--N", "hh"})) == {"norm", "hh"}
    assert built(cli._build_parser(set())) == set()
    assert built(cli._build_parser()) == set(names)
    # run_command names the subcommands from its argv tokens
    seen = []
    full_build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda names=None: seen.append(names) or full_build(names))
    assert run_command(["hh", "--N", "3", "--from", "0", "--to", "1"]).status == 0
    assert seen == [{"hh", "--N", "3", "--from", "0", "--to", "1"}]


def test_cli_product_budget_exits_2():
    # a product of factors of several terms is estimated before it runs, as a
    # power is: (x+y)^40*(x+y)^40 took seconds and y^2000*(x+y)^60 most of a
    # minute, while the equal power (x+y)^80 was refused at once
    for expr in ("(x+y)^40*(x+y)^40", "y^2000*(x+y)^40", "(1+y)^400*x^1000"):
        for extra in ([], ["--json"]):
            result = run_command(["norm", expr, "--N", "3", *extra])
            assert result.status == 2, expr
            assert result.text.startswith("precondition violated: the product of a "), expr
            assert result.text.endswith(", above the product budget of 1000000"), expr
            assert result.payload == {"error": result.text.removeprefix("precondition violated: ")}
    assert run_command(["norm", "(x+y)^10*(x+y)^10", "--N", "3"]).text == \
        run_command(["norm", "(x+y)^20", "--N", "3"]).text
    # a product of two one-term factors is one word: it runs, and the output
    # budget bounds what it prints
    result = run_command(["norm", "y^3000*x^3000", "--N", "3", "--json"])
    assert result.payload == {"error": "a coefficient has more than 4300 digits, above the output budget"}
    aut = ["aut", "apply", "--N", "3", "--a", '{"lambda": "1/1", "f": []}']
    assert run_command([*aut, "--expr", "(x+y)^40*(x+y)^40"]).status == 2
    assert run_command([*aut, "--expr", "(x+y)^4*(x+y)^5"]).status == 0


def test_cli_hh_n_budget_exits_2():
    for argv in (["hh", "--N", "101", "--from", "0", "--to", "1"],
                 ["hh", "--N", "1000000", "--from", "0", "--to", "2"],
                 ["hh", "--N", "10000", "--twist-order", "3", "--from", "0", "--to", "1"]):
        for extra in ([], ["--json"]):
            result = run_command([*argv, *extra])
            message = f"N = {argv[2]} is above the hh budget of 100"
            assert (result.status, result.text) == (2, f"precondition violated: {message}"), argv
            assert result.payload == {"error": message}
    result = run_command(["hh", "--N", "100", "--from", "-1", "--to", "2", "--p", "1", "--json"])
    assert result.status == 0 and result.payload["match"]


def test_cli_twisted_hh_cost_budget_exits_2(monkeypatch):
    # a twisted window is estimated, at a cost per step that grows with the
    # field degree, before any slice: at order 97 the window [-63..64] took
    # 164 s at N = 2, and [-1..24] 36 s
    built = []
    monkeypatch.setattr(cohomology, "build_slice", lambda *args: built.append(args))
    for lo, hi, cost in ((-63, 64, 35065186464), (-1, 24, 4542973344)):
        argv = ["hh", "--N", "2", "--twist-order", "97", "--from", str(lo), "--to", str(hi)]
        message = (f"the twisted window [{lo}..{hi}] over Q(zeta_97) has an estimated cost of "
                   f"{cost}, above the twisted hh budget of {cohomology.MAX_TWISTED_HH_COST}")
        for extra in ([], ["--json"]):
            result = run_command([*argv, *extra])
            assert (result.status, result.text) == (2, f"precondition violated: {message}"), argv
            assert result.payload == {"error": message}
    assert built == []
    # the widest windows over Q(zeta_5) stay inside, at N = 2 and N = 100, and
    # so do the benchmark's twisted windows (N <= 6, width <= 4, top <= 16,
    # euler_phi(n) <= 4); a window of the plain complex has no such estimate
    budget = cohomology.MAX_TWISTED_HH_COST
    assert cohomology._twisted_cost(2, 4, -63, 64) <= budget
    assert cohomology._twisted_cost(100, 4, -63, 64) <= budget
    assert all(cohomology._twisted_cost(N, 4, 13, 16) <= budget for N in range(2, 7))
    assert cohomology._twisted_cost(2, 6, -63, 64) > budget
    monkeypatch.undo()
    for N in ("1", "0"):  # the estimate counts monomials per N - 1, so N < 2 is refused first
        result = run_command(["hh", "--N", N, "--twist-order", "3", "--from", "0", "--to", "1"])
        assert result.text == "precondition violated: degreewise cohomology needs N >= 2"
    result = run_command(["hh", "--N", "2", "--twist-order", "97", "--from", "0", "--to", "1",
                          "--p", "1", "--json"])
    assert result.status == 0 and result.payload["match"]


def test_cli_word_budget_exits_2():
    # one word y^s x^b rewrites into weights of about s (log2(b + s(N-1)) + 1)
    # bits; y^40000*x^40000 took 9.4 s before the output budget refused it
    message = "the word product has rewrite weights of about 720000 bits, above the word budget of 100000"
    for extra in ([], ["--json"]):
        result = run_command(["norm", "y^40000*x^40000", "--N", "3", *extra])
        assert (result.status, result.text) == (2, f"precondition violated: {message}")
    # words inside the budget run; these print past the output budget
    for expr in ("y^3000*x^3000", "y^6200*x^6200"):
        result = run_command(["norm", expr, "--N", "3"])
        assert result.text.endswith("above the output budget"), expr
    assert run_command(["norm", "x^40000*y^40000", "--N", "3"]).status == 0
    # no x on the right (or no y on the left) rewrites nothing
    for expr in ("y^7000*y", "x^3*y^7000*y", "x*x^7000"):
        result = run_command(["norm", expr, "--N", "3"])
        assert result.status == 0, expr
    assert run_command(["norm", "y^7000*y", "--N", "3"]).text == "y^7001"
    assert run_command(["norm", "x^3*y^7000*y", "--N", "3"]).text == "x^3*y^7001"


def test_cli_taft_budget_exits_2(monkeypatch):
    # taft refuses N and --max-degree past their budgets before any field or
    # context is built: --max-degree 80 took 23-26 s at N = 3, and
    # N = 100001 took 8-14 s at --max-degree 2
    built = []
    monkeypatch.setattr(cohomology, "CycloField", lambda n: built.append(n))
    monkeypatch.setattr(cohomology, "AlgebraCtx", lambda *args: built.append(args))
    cases = ((["--N", "100001", "--n", "2", "--max-degree", "2"], "N = 100001 is above"),
             (["--N", "25", "--n", "3"], "N = 25 is above"),
             (["--N", "3", "--n", "2", "--max-degree", "33"], "max_degree 33 is above"),
             (["--N", "3", "--n", "2", "--max-degree", "80"], "max_degree 80 is above"))
    for argv, start in cases:
        budget = 24 if start[0] == "N" else 32
        message = f"{start} the taft budget of {budget}"
        for extra in ([], ["--json"]):
            result = run_command(["taft", *argv, *extra])
            assert (result.status, result.text) == (2, f"precondition violated: {message}"), argv
            assert result.payload == {"error": message}
    assert built == []
    assert (cohomology.MAX_TAFT_N, cohomology.MAX_TAFT_DEGREE) == (24, 32)
    monkeypatch.undo()
    # the edges run, and so does the benchmark's largest request
    for argv in (["--N", "24", "--n", "23", "--max-degree", "2"],
                 ["--N", "3", "--n", "2", "--max-degree", "32"],
                 ["--N", "7", "--n", "6", "--max-degree", "7", "--json"]):
        assert run_command(["taft", *argv]).status == 0, argv
