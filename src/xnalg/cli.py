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
from fractions import Fraction
from functools import partial

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
from .ncalg import AlgebraCtx, Element, laguerre_identity_check, phi_element, product, render_element
from .scalars import MAX_OUTPUT_DIGITS, CycloField, SchemaError, rational_to_json, scalar_to_json
from .sequences import bernoulli, c_poly, gregory


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

# str.isdigit() also accepts digits such as '²' or '٣', which int() refuses
# or reads as ASCII digits; literals are ASCII only.
_DIGITS = "0123456789"


def _tokenize(src):
    tokens = []
    k = 0
    while k < len(src):
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _DIGITS:
            start = k
            while k < len(src) and src[k] in _DIGITS:
                k += 1
            if k < len(src) and src[k] == "/":
                k += 1
                if k >= len(src) or src[k] not in _DIGITS:
                    raise ParseError(k, "expected a denominator")
                while k < len(src) and src[k] in _DIGITS:
                    k += 1
            text = src[start:k]
            if max(map(len, text.split("/"))) > MAX_OUTPUT_DIGITS:
                # refused before int() meets the interpreter's own digit limit
                raise ValueError(
                    f"position {start}: a number has more than {MAX_OUTPUT_DIGITS} digits, "
                    "above the digit budget"
                )
            tokens.append(("num", text, start))
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
            out = product(out, base ** exp if exp >= 0 else ctx.monomial(exp, 0))
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


class CommandResult:
    """Exit status, JSON payload and printed text of one command."""

    __slots__ = ("status", "payload", "text")

    def __init__(self, status: int, payload, text: str):
        self.status = status
        self.payload = payload
        self.text = text

    def __eq__(self, other):
        if not isinstance(other, CommandResult):
            return NotImplemented
        return (self.status, self.payload, self.text) == (other.status, other.payload, other.text)

    def __repr__(self):
        return f"CommandResult(status={self.status!r}, payload={self.payload!r}, text={self.text!r})"


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # the help action prints and then exits the interpreter; hand the
        # text back to run_command instead
        raise _HelpRequested(self.format_help())


def _ctx_from(ns) -> AlgebraCtx:
    order = getattr(ns, "field_order", None)
    field = CycloField(1 if order is None else order)
    return AlgebraCtx(ns.N, getattr(ns, "localized", False), field)


def _decode_json(text):
    # the decoder recurses once per nesting level, so a document nested past
    # the interpreter's recursion limit is refused like a deep expression
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input nests too deeply") from None


def _read_json_input(ns):
    if getattr(ns, "file", None):
        with open(ns.file, "r", encoding="utf-8") as handle:
            return _decode_json(handle.read())
    return _decode_json(sys.stdin.read())


def _cmd_norm(ns):
    ctx = _ctx_from(ns)
    elt = eval_expr(parse_expr(ns.expr, ctx), ctx)
    return elt.to_json(), partial(render_element, elt)


def _cmd_cseq(ns):
    poly = c_poly(ns.j)
    payload = {
        "j": ns.j,
        "poly": poly.format(),
        "coeffs": [rational_to_json(c) for c in poly.coeffs],
    }
    return payload, poly.format


def _cmd_number(sequence, ns):
    value = sequence(ns.n)
    return {"n": ns.n, "value": scalar_to_json(value)}, partial(str, value)


def _cmd_phi(ns):
    ctx = _ctx_from(ns)
    elt = phi_element(ctx, ns.j)
    return elt.to_json(), partial(render_element, elt)


def _cmd_laguerre_check(ns):
    ctx = _ctx_from(ns)
    ok = laguerre_identity_check(ctx, ns.i, ns.j)
    return {"N": ns.N, "i": ns.i, "j": ns.j, "match": ok}, lambda: "match" if ok else "MISMATCH"


def _cmd_hh(ns):
    ctx = AlgebraCtx(ns.N, False, CycloField(1 if ns.twist_order is None else ns.twist_order))
    omega = None if ns.twist_order is None else ctx.field.zeta
    reports = hh_reports(ctx, ns.lo, ns.hi, omega)
    if ns.p is not None:
        reports = reports[ns.p : ns.p + 1]
    payload = [r.to_json() for r in reports]
    return (payload if ns.p is None else payload[0]), lambda: "\n".join(
        f"HH^{r.p} degrees [{r.lo}..{r.hi}]: {r.computed} "
        f"(expected {r.expected}, match={r.match})"
        for r in reports
    )


def _cmd_bracket(ns):
    ctx = _ctx_from(ns)
    result = bracket_table(ctx, ns.l, ns.m)
    coeff = result.computed_coeff
    return result.to_json(), lambda: (
        f"[slot {ns.l}, slot {ns.m}] ~ {coeff} * slot {result.target_degree}; "
        f"expected {result.expected_coeff}, match={result.match}; "
        f"L-basis {result.l_computed} (expected {result.l_expected}, match={result.l_match})"
    )


def _cmd_inner(ns):
    data = _read_json_input(ns)
    d = GenDerivation.from_json(data)
    witness = is_inner(d, ns.i_min)
    if witness is None:
        return {"inner": False, "witness": None}, lambda: "not inner"
    return {"inner": True, "witness": witness.to_json()}, partial(render_element, witness)


def _cmd_residue(ns):
    data = _read_json_input(ns)
    d = GenDerivation.from_json(data)
    value = residue_inner_test(d)
    return {"residue": scalar_to_json(value)}, partial(str, value)


def _cmd_taft(ns):
    report = taft_obstruction(ns.N, ns.n, ns.max_degree)
    return report.to_json(), lambda: (
        f"q-binomials vanish: {report.qbinom_vanishing}; power collapse on "
        f"{report.checked_monomials} monomials: {report.collapse_ok}; "
        f"witness d^{ns.n}(y) = {render_element(report.witness_value)} "
        f"(nonzero: {report.witness_nonzero})"
    )


def _cmd_aut(ns):
    ctx = _ctx_from(ns)
    a = Automorphism.from_json(_decode_json(ns.a), ctx, "a") if ns.a else None
    b = Automorphism.from_json(_decode_json(ns.b), ctx, "b") if ns.b else None
    if ns.action == "compose":
        if a is None or b is None:
            raise _UsageError("compose needs --a and --b")
        out = a.compose(b)
        return out.to_json(), partial(repr, out)
    if ns.action == "inverse":
        if a is None:
            raise _UsageError("inverse needs --a")
        out = a.inverse()
        return out.to_json(), partial(repr, out)
    if ns.action == "order":
        if a is None:
            raise _UsageError("order needs --a")
        k = a.order(ns.bound)
        return {"order": k}, partial(str, k)
    if a is None or not ns.expr:
        raise _UsageError("apply needs --a and --expr")
    elt = eval_expr(parse_expr(ns.expr, ctx), ctx)
    out = a.apply(elt)
    return out.to_json(), partial(render_element, out)


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
    return payload, lambda: "\n".join(
        f"degree {l}: {', '.join(render_element(ctx.monomial(i, j)) for i, j in monos) or '-'}"
        for l, monos in rows
    )


def _cmd_nil(ns):
    ctx = _ctx_from(ns)
    report = nil_chain_check(ctx, ns.r, ns.s, ns.lo, ns.hi)
    return report.to_json(), lambda: (
        f"containment [Nil_{ns.r}, Nil_{ns.s}] in Nil_{ns.r + ns.s} mod inner: "
        f"{report.containment_ok}; lower central series sizes on window: "
        f"{report.lcs_lengths} (computed index {report.computed_index}, "
        f"printed index {report.printed_index})"
    )


# --- subcommand table ------------------------------------------------------
#
# One entry per subcommand: name, help line, handler and its arguments in
# order.  A handler returns its JSON payload and a function that renders its
# human text, so a --json request never renders the text.  An argument is
# (flag, add_argument keywords); `_int` makes a required integer option.
# Every subcommand also takes --json.  A field or localization option is
# offered only where it can change the answer.


def _int(flag, **kw):
    return flag, {"type": int, "required": True, **kw}


_N = _int("--N", help="relation exponent")
_FIELD = ("--field-order", {"type": int})
_LOCALIZED = ("--localized", {"action": "store_true"})
_FROM = _int("--from", dest="lo")
_TO = _int("--to", dest="hi")
_FILE = ("--file", {})

_COMMANDS = (
    ("norm", "normal form of an expression", _cmd_norm, [("expr", {}), _N, _FIELD, _LOCALIZED]),
    ("cseq", "the j-th polynomial of the c-family", _cmd_cseq, [_int("--j")]),
    ("bern", "Bernoulli number", partial(_cmd_number, bernoulli), [_int("--n")]),
    ("greg", "Gregory coefficient", partial(_cmd_number, gregory), [_int("--n")]),
    ("phi", "the degree-j(N-1) element with bracket x^N y^{j-1}", _cmd_phi,
     [_int("--j"), _N, _FIELD, _LOCALIZED]),
    ("laguerre-check", "conjugation identity for normal-order powers", _cmd_laguerre_check,
     [_int("--i"), _int("--j"), _N]),
    ("hh", "cohomology dimensions over a degree window", _cmd_hh,
     [("--p", {"type": int, "choices": (0, 1, 2)}),
      ("--twist-order", {"type": int}), _N, _FROM, _TO]),
    ("bracket", "bracket table entry with witness", _cmd_bracket,
     [_int("--l"), _int("--m"), _N, _FIELD]),
    ("inner", "innerness decision with witness (derivation JSON on stdin or --file)", _cmd_inner,
     [_FILE, ("--i-min", {"type": int})]),
    ("residue", "residue obstruction to localized innerness", _cmd_residue, [_FILE]),
    ("taft", "obstruction to inner-faithful Taft actions", _cmd_taft,
     [_int("--n"), ("--max-degree", {"type": int, "default": 6}), _N]),
    ("aut", "automorphism group operations", _cmd_aut,
     [("action", {"choices": ("compose", "inverse", "order", "apply")}),
      ("--a", {"help": "automorphism JSON"}), ("--b", {"help": "automorphism JSON"}),
      ("--expr", {}), ("--bound", {"type": int, "default": 64}), _N, _FIELD, _LOCALIZED]),
    ("veronese", "fixed monomials of the diagonal order-m automorphism", _cmd_veronese,
     [_int("--m"), _N, _FROM, _TO]),
    ("nil", "nilpotent chain containment on a window", _cmd_nil,
     [_int("--r"), _int("--s"), _N, _FROM, _TO]),
)


def _build_parser(names=None):
    """The parser of every subcommand; with `names`, only the subcommands
    named there get their options and handler.  argparse picks a subcommand
    by an exact token match, so a request's tokens name the one it runs."""
    parser = _CliParser(prog="xnalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb, handler, args in _COMMANDS:
        p = sub.add_parser(name, help=blurb)
        if names is not None and name not in names:
            continue
        for flag, kw in args:
            p.add_argument(flag, **kw)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=handler)
    return parser


def run_command(argv) -> CommandResult:
    try:
        ns = _build_parser(set(argv)).parse_args(argv)
        if hasattr(ns, "lo") and ns.lo > ns.hi:
            raise ValueError(f"empty degree window: --from {ns.lo} is above --to {ns.hi}")
        payload, render = ns.handler(ns)
        # rendered inside the try, so a rendering error keeps its exit code
        text = json.dumps(payload, indent=2, sort_keys=True) if ns.json else render()
    except _HelpRequested as exc:
        text = str(exc).rstrip("\n")
        return CommandResult(0, {"help": text}, text)
    except _UsageError as exc:
        return CommandResult(1, {"error": str(exc)}, f"usage error: {exc}")
    except (ParseError, SchemaError, json.JSONDecodeError) as exc:
        return CommandResult(1, {"error": str(exc)}, f"parse error: {exc}")
    except (ValueError, ZeroDivisionError, OSError) as exc:
        return CommandResult(2, {"error": str(exc)}, f"precondition violated: {exc}")
    except (AssertionError, TypeError, KeyError, IndexError) as exc:
        return CommandResult(3, {"error": str(exc)}, f"internal invariant breach: {exc}")
    return CommandResult(0, payload, text)


def main(argv=None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.text:
        print(result.text)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
