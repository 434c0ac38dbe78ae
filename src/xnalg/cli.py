"""Command-line front end: a small expression language for elements in x and y
(and x^-1 in localized mode), one subcommand per kernel feature, JSON in and
out.  No arithmetic lives here; every subcommand is a thin shell over exactly
one kernel operation.

Exit codes: 0 success (including reports whose expected-vs-computed flag is
false - the computation succeeded, the discrepancy is data), 1 usage or parse
errors, 2 precondition violations, 3 internal invariant breaches.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (
    bracket_table,
    hh_reports,
    is_inner,
    nil_chain_check,
    residue_inner_test,
    taft_obstruction,
    veronese_basis,
    veronese_relation_report,
)
from .maps import Automorphism, GenDerivation
from .ncalg import AlgebraCtx, Element, render_element
from .scalars import CycloField, SchemaError, scalar_to_json
from .sequences import bernoulli, c_poly, gregory
from .ncalg import laguerre_identity_check, phi_element


class ParseError(ValueError):
    """Expression syntax error, with a position."""

    def __init__(self, pos, message):
        super().__init__(f"position {pos}: {message}")
        self.pos = pos


# --- expression grammar -----------------------------------------------------
#
#   expr   := ['-'] term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' signed-int)?
#   atom   := rational | 'x' | 'y' | '(' expr ')'
#
# No implicit multiplication; rational literals are "p" or "p/q".

# Deepest parenthesis nesting an expression may use.  Parsing and evaluation
# recurse a few frames per level, so deeper input is refused as a precondition
# violation (exit 2) well before the interpreter's recursion limit.
MAX_NESTING = 100


def _tokenize(src):
    tokens = []
    k = 0
    while k < len(src):
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < len(src) and src[k].isdigit():
                k += 1
            if k < len(src) and src[k] == "/":
                k += 1
                if k >= len(src) or not src[k].isdigit():
                    raise ParseError(k, "expected a denominator")
                while k < len(src) and src[k].isdigit():
                    k += 1
            tokens.append(("num", src[start:k], start))
            continue
        if ch in "xy":
            tokens.append(("gen", ch, k))
            k += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, k))
            k += 1
            continue
        raise ParseError(k, f"unexpected character {ch!r}")
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src, ctx):
        self.tokens = _tokenize(src)
        self.k = 0
        self.depth = 0
        self.ctx = ctx

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError(tok[2], f"expected {kind!r}, found {tok[1]!r}")
        self.k += 1
        return tok

    def parse(self):
        ast = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], f"unexpected {tok[1]!r}")
        return ast

    def expr(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        parts = [(sign, self.term())]
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            parts.append((1 if op == "+" else -1, self.term()))
        return ("sum", parts)

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.factor())
        return ("prod", factors)

    def factor(self):
        atom = self.atom()
        if self.peek()[0] != "^":
            return (atom, 1)
        self.take()
        exp = self.signed_int()
        if exp < 0:
            if atom[0] == "y":
                raise ParseError(self.peek()[2], "negative y-exponent")
            if atom[0] != "x":
                raise ParseError(self.peek()[2], "negative exponents apply only to x")
            if not self.ctx.localized:
                raise ParseError(
                    self.peek()[2], "negative x-exponent outside localized mode"
                )
        return (atom, exp)

    def signed_int(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("num")
        if "/" in tok[1]:
            raise ParseError(tok[2], "exponents must be integers")
        return sign * int(tok[1])

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            num, _, den = tok[1].partition("/")
            if den and int(den) == 0:
                raise ParseError(tok[2], "zero denominator")
            return ("num", Fraction(int(num), int(den) if den else 1))
        if tok[0] == "gen":
            self.take()
            return (tok[1],)
        if tok[0] == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ValueError(
                    f"position {tok[2]}: parentheses nest deeper than {MAX_NESTING} levels"
                )
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return ("paren", inner)
        raise ParseError(tok[2], f"expected an atom, found {tok[1]!r}")


def parse_expr(src: str, ctx: AlgebraCtx):
    """Parse the expression grammar into a sum-of-products tree."""
    return _Parser(src, ctx).parse()


def eval_expr(ast, ctx: AlgebraCtx) -> Element:
    """Evaluate a parse tree to a normal-form element."""
    kind = ast[0]
    if kind == "sum":
        out = ctx.zero()
        for sign, term in ast[1]:
            value = eval_expr(term, ctx)
            out = out + (value if sign > 0 else -value)
        return out
    if kind == "prod":
        out = ctx.one()
        for atom, exp in ast[1]:
            base = eval_expr(atom, ctx)
            if exp >= 0:
                out = out * base ** exp
            else:
                if atom[0] != "x":
                    raise ParseError(0, "negative exponents apply only to x")
                out = out * ctx.monomial(exp, 0)
        return out
    if kind == "num":
        return ctx.scalar(ast[1])
    if kind == "x":
        return ctx.x()
    if kind == "y":
        return ctx.y()
    if kind == "paren":
        return eval_expr(ast[1], ctx)
    raise AssertionError(f"unknown node {kind!r}")


# --- command dispatch --------------------------------------------------------


@dataclass
class CommandResult:
    status: int
    payload: object
    text: str


class _UsageError(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _ctx_from(ns) -> AlgebraCtx:
    return AlgebraCtx(ns.N, getattr(ns, "localized", False), CycloField(ns.field_order))


def _read_json_input(ns):
    if getattr(ns, "file", None):
        with open(ns.file, "r", encoding="utf-8") as handle:
            return json.load(handle)
    return json.load(sys.stdin)


def _cmd_norm(ns):
    ctx = _ctx_from(ns)
    elt = eval_expr(parse_expr(ns.expr, ctx), ctx)
    return elt.to_json(), render_element(elt)


def _cmd_cseq(ns):
    poly = c_poly(ns.j)
    payload = {
        "j": ns.j,
        "poly": poly.format(),
        "coeffs": [f"{c.numerator}/{c.denominator}" for c in poly.coeffs],
    }
    return payload, poly.format()


def _cmd_bern(ns):
    value = bernoulli(ns.n)
    return {"n": ns.n, "value": scalar_to_json(value)}, str(value)


def _cmd_greg(ns):
    value = gregory(ns.n)
    return {"n": ns.n, "value": scalar_to_json(value)}, str(value)


def _cmd_phi(ns):
    ctx = _ctx_from(ns)
    elt = phi_element(ctx, ns.j)
    return elt.to_json(), render_element(elt)


def _cmd_laguerre_check(ns):
    ctx = _ctx_from(ns)
    ok = laguerre_identity_check(ctx, ns.i, ns.j)
    return {"N": ns.N, "i": ns.i, "j": ns.j, "match": ok}, "match" if ok else "MISMATCH"


def _cmd_hh(ns):
    ctx = _ctx_from(ns)
    omega = None
    if ns.twist_order is not None:
        fld = CycloField(ns.twist_order)
        ctx = AlgebraCtx(ns.N, False, fld)
        omega = fld.zeta
    reports = hh_reports(ctx, ns.lo, ns.hi, omega)
    if ns.p is not None:
        reports = reports[ns.p : ns.p + 1]
    payload = [r.to_json() for r in reports]
    text = "\n".join(
        f"HH^{r.p} degrees [{r.lo}..{r.hi}]: {r.computed} "
        f"(expected {r.expected}, match={r.match})"
        for r in reports
    )
    return (payload if ns.p is None else payload[0]), text


def _cmd_bracket(ns):
    ctx = _ctx_from(ns)
    result = bracket_table(ctx, ns.l, ns.m)
    coeff = result.computed_coeff
    text = (
        f"[slot {ns.l}, slot {ns.m}] ~ {coeff} * slot {result.target_degree}; "
        f"expected {result.expected_coeff}, match={result.match}; "
        f"L-basis {result.l_computed} (expected {result.l_expected}, match={result.l_match})"
    )
    return result.to_json(), text


def _cmd_inner(ns):
    data = _read_json_input(ns)
    d = GenDerivation.from_json(data)
    witness = is_inner(d, ns.i_min)
    if witness is None:
        return {"inner": False, "witness": None}, "not inner"
    return {"inner": True, "witness": witness.to_json()}, render_element(witness)


def _cmd_residue(ns):
    data = _read_json_input(ns)
    d = GenDerivation.from_json(data)
    value = residue_inner_test(d)
    return {"residue": scalar_to_json(value)}, str(value)


def _cmd_taft(ns):
    report = taft_obstruction(ns.N, ns.n, ns.max_degree)
    text = (
        f"q-binomials vanish: {report.qbinom_vanishing}; power collapse on "
        f"{report.checked_monomials} monomials: {report.collapse_ok}; "
        f"witness d^{ns.n}(y) = {render_element(report.witness_value)} "
        f"(nonzero: {report.witness_nonzero})"
    )
    return report.to_json(), text


def _cmd_aut(ns):
    ctx = _ctx_from(ns)
    a = Automorphism.from_json(json.loads(ns.a), ctx, "a") if ns.a else None
    b = Automorphism.from_json(json.loads(ns.b), ctx, "b") if ns.b else None
    if ns.action == "compose":
        if a is None or b is None:
            raise _UsageError("compose needs --a and --b")
        out = a.compose(b)
        return out.to_json(), repr(out)
    if ns.action == "inverse":
        if a is None:
            raise _UsageError("inverse needs --a")
        out = a.inverse()
        return out.to_json(), repr(out)
    if ns.action == "order":
        if a is None:
            raise _UsageError("order needs --a")
        k = a.order(ns.bound)
        return {"order": k}, str(k)
    if ns.action == "apply":
        if a is None or not ns.expr:
            raise _UsageError("apply needs --a and --expr")
        elt = eval_expr(parse_expr(ns.expr, ctx), ctx)
        out = a.apply(elt)
        return out.to_json(), render_element(out)
    raise _UsageError(f"unknown automorphism action {ns.action!r}")


def _cmd_veronese(ns):
    ctx = _ctx_from(ns)
    rows = veronese_basis(ctx, ns.m, ns.lo, ns.hi)
    payload = {
        "N": ns.N,
        "m": ns.m,
        "degrees": [
            {"degree": l, "monomials": [{"xexp": i, "yexp": j} for (i, j) in monos]}
            for l, monos in rows
        ],
    }
    if ns.m >= 1 and (ns.N - 1) % ns.m == 0:
        payload["relation"] = veronese_relation_report(ns.N, ns.m).to_json()
    lines = []
    for l, monos in rows:
        text = ", ".join(render_element(ctx.monomial(i, j)) for i, j in monos)
        lines.append(f"degree {l}: {text if monos else '-'}")
    return payload, "\n".join(lines)


def _cmd_nil(ns):
    ctx = _ctx_from(ns)
    report = nil_chain_check(ctx, ns.r, ns.s, ns.lo, ns.hi)
    text = (
        f"containment [Nil_{ns.r}, Nil_{ns.s}] in Nil_{ns.r + ns.s} mod inner: "
        f"{report.containment_ok}; lower central series sizes on window: "
        f"{report.lcs_lengths} (computed index {report.computed_index}, "
        f"printed index {report.printed_index})"
    )
    return report.to_json(), text


def _build_parser():
    parser = _CliParser(prog="xnalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_required=True, window=False, localized=True):
        p.add_argument("--N", type=int, required=n_required, help="relation exponent")
        p.add_argument("--field-order", type=int, default=1, dest="field_order")
        if localized:
            p.add_argument("--localized", action="store_true")
        if window:
            p.add_argument("--from", dest="lo", type=int, required=True)
            p.add_argument("--to", dest="hi", type=int, required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("norm", help="normal form of an expression")
    p.add_argument("expr")
    common(p)
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("cseq", help="the j-th polynomial of the c-family")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_cseq)

    for name, handler, blurb in (
        ("bern", _cmd_bern, "Bernoulli number"),
        ("greg", _cmd_greg, "Gregory coefficient"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=handler)

    p = sub.add_parser("phi", help="the degree-j(N-1) element with bracket x^N y^{j-1}")
    p.add_argument("--j", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("laguerre-check", help="conjugation identity for normal-order powers")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_laguerre_check)

    p = sub.add_parser("hh", help="cohomology dimensions over a degree window")
    p.add_argument("--p", type=int, choices=(0, 1, 2), default=None)
    p.add_argument("--twist-order", type=int, default=None, dest="twist_order")
    common(p, window=True, localized=False)
    p.set_defaults(handler=_cmd_hh)

    p = sub.add_parser("bracket", help="bracket table entry with witness")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p, localized=False)
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("inner", help="innerness decision with witness (derivation JSON on stdin or --file)")
    p.add_argument("--file", default=None)
    p.add_argument("--i-min", dest="i_min", type=int, default=None)
    common(p, n_required=False, localized=False)
    p.set_defaults(handler=_cmd_inner)

    p = sub.add_parser("residue", help="residue obstruction to localized innerness")
    p.add_argument("--file", default=None)
    common(p, n_required=False, localized=False)
    p.set_defaults(handler=_cmd_residue)

    p = sub.add_parser("taft", help="obstruction to inner-faithful Taft actions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=6)
    common(p, localized=False)
    p.set_defaults(handler=_cmd_taft)

    p = sub.add_parser("aut", help="automorphism group operations")
    p.add_argument("action", choices=("compose", "inverse", "order", "apply"))
    p.add_argument("--a", default=None, help="automorphism JSON")
    p.add_argument("--b", default=None, help="automorphism JSON")
    p.add_argument("--expr", default=None)
    p.add_argument("--bound", type=int, default=64)
    common(p)
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser("veronese", help="fixed monomials of the diagonal order-m automorphism")
    p.add_argument("--m", type=int, required=True)
    common(p, window=True, localized=False)
    p.set_defaults(handler=_cmd_veronese)

    p = sub.add_parser("nil", help="nilpotent chain containment on a window")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    common(p, window=True, localized=False)
    p.set_defaults(handler=_cmd_nil)

    return parser


def run_command(argv) -> CommandResult:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandResult(1, {"error": str(exc)}, f"usage error: {exc}")
    try:
        if hasattr(ns, "lo") and ns.lo > ns.hi:
            raise ValueError(f"empty degree window: --from {ns.lo} is above --to {ns.hi}")
        payload, text = ns.handler(ns)
    except _UsageError as exc:
        return CommandResult(1, {"error": str(exc)}, f"usage error: {exc}")
    except (ParseError, SchemaError, json.JSONDecodeError) as exc:
        return CommandResult(1, {"error": str(exc)}, f"parse error: {exc}")
    except (ValueError, ZeroDivisionError, TypeError, OSError) as exc:
        return CommandResult(2, {"error": str(exc)}, f"precondition violated: {exc}")
    except AssertionError as exc:
        return CommandResult(3, {"error": str(exc)}, f"internal invariant breach: {exc}")
    if getattr(ns, "json", False):
        return CommandResult(0, payload, json.dumps(payload, indent=2, sort_keys=True))
    return CommandResult(0, payload, text)


def main(argv=None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.text:
        print(result.text)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
