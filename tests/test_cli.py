import json
import random
from fractions import Fraction

import pytest

from xnalg import cohomology
from xnalg.cli import CommandResult, ParseError, eval_expr, parse_expr, run_command
from xnalg.maps import partial_l
from xnalg.ncalg import AlgebraCtx, Element, render_element
from xnalg.scalars import CycloField


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
    from xnalg.maps import ad_phi

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
    # precondition violations exit 2
    assert run_command(["hh", "--N", "1", "--p", "1", "--from", "0", "--to", "2"]).status == 2
    assert run_command(["phi", "--j", "0", "--N", "3"]).status == 2
    assert run_command(["hh", "--N", "3", "--twist-order", "0", "--from", "0", "--to", "2"]).status == 2
    assert run_command(["norm", "x", "--N", "2", "--field-order", "0"]).status == 2
    for argv in (["hh", "--N", "3"], ["nil", "--N", "4", "--r", "1", "--s", "1"],
                 ["veronese", "--N", "4", "--m", "3"]):
        assert run_command(argv + ["--from", "5", "--to", "2"]).status == 2
    # the expression nesting budget: at the limit fine, far beyond it exit 2
    assert run_command(["norm", "(" * 100 + "x" + ")" * 100, "--N", "2"]).status == 0
    assert run_command(["norm", "(" * 3000 + "x" + ")" * 3000, "--N", "2"]).status == 2
    # malformed input documents exit 1
    bad = json.dumps({"N": 2, "localized": False,
                      "terms": [{"xexp": 0, "yexp": 0, "coeff": "1/0"}]})
    result = run_command(["inner", "--file", "/nonexistent/never.json"])
    assert result.status == 2


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
