"""Request catalogs and seeded request streams for the four workloads.

Each workload has a fixed, finite catalog of distinct CLI requests, built
without the package under test (derivation inputs come from the frozen file
``data/derivations.json``).  A seed only chooses which catalog entries a run
sends and in which order, so every request a seed can produce has a reference
digest in ``data/reference/<workload>.json``.

Streams are drawn per stratum: the stratum's entries are sorted by the time
each took when the reference was recorded, cut into as many contiguous bins as
the stratum sends requests, and one entry is drawn from each bin.  Different
seeds therefore send different requests of about the same total cost, which
keeps run-to-run spread small.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("hh-plain", "hh-twisted", "derivations", "norm-aut")


@dataclass(frozen=True)
class Request:
    """One CLI invocation.  An argv item ``@name`` stands for the path of the
    input file whose JSON text is ``files[name]``; ``key`` is the argv with
    those placeholders, which names the request in the digest tables."""

    kind: str
    argv: tuple
    stratum: str
    expect: dict = field(default_factory=dict, compare=False, hash=False)
    files: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _q(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


# --- hh-plain / hh-twisted ---------------------------------------------------

# Top degree of the windows per N: the largest slices cost ~40 ms each.
PLAIN_TOP = {2: 12, 3: 22, 4: 30, 5: 38, 6: 44}
# (N, twist order n, top degree).  n | N-1 is the branch omega^{N-1} = 1;
# euler_phi(n) in {1, 2, 4} sets the cost of one scalar product.
TWISTS = (
    (2, 3, 5), (3, 2, 12), (3, 3, 10), (3, 4, 9), (4, 2, 14),
    (4, 3, 12), (4, 5, 8), (5, 3, 14), (5, 4, 16), (6, 5, 13),
)
MAX_WIDTH = 4


def _hh_entries(N, top, extra, stratum_tag, expect):
    out = []
    for hi in range(-N, top + 1):
        for width in range(1, MAX_WIDTH + 1):
            lo = hi - width + 1
            if lo < -N:
                continue
            base = ("hh", "--N", str(N), "--from", str(lo), "--to", str(hi)) + extra
            e = dict(expect, N=N, lo=lo, hi=hi)
            out.append(Request("hh", base + ("--json",), "all-p", e))
            for p in (0, 1, 2):
                argv = base + ("--p", str(p), "--json")
                out.append(Request("hh", argv, f"{stratum_tag}:p", dict(e, p=p)))
    return out


def catalog_hh_plain():
    out = []
    for N, top in PLAIN_TOP.items():
        out += _hh_entries(N, top, (), f"N{N}", {"twist": None})
    return out


def catalog_hh_twisted():
    out = []
    for N, n, top in TWISTS:
        extra = ("--twist-order", str(n))
        out += _hh_entries(N, top, extra, f"N{N}n{n}", {"twist": n})
    return out


# --- derivations -------------------------------------------------------------

BRACKET_SUM = {2: 14, 3: 22, 4: 26, 5: 30}   # l + m <= this per N
BRACKET_SLOT = 24
NIL_TOP = {3: 9, 4: 8, 5: 8}
TAFT = ((3, 2), (4, 3), (5, 2), (5, 4), (6, 5), (7, 2), (7, 3), (7, 6))


def load_derivations():
    """Frozen derivation inputs: a list of {"id", "N", "degree", "inner", "json"}."""
    with open(DATA / "derivations.json", encoding="utf-8") as handle:
        return json.load(handle)


def catalog_derivations():
    # The "anchor" stratum is sent in every stream: it fills the c_poly table
    # to the highest index any request here reaches (slot 24 at N = 2), so the
    # one-time cold fill costs the same whatever the seed.
    anchor = ("bracket", "--N", "2", "--l", str(BRACKET_SLOT), "--m", "-1", "--json")
    out = [Request("bracket", anchor, "anchor")]
    for N, top in BRACKET_SUM.items():
        for l in range(-N + 1, BRACKET_SLOT + 1):
            for m in range(-N + 1, BRACKET_SLOT + 1):
                if l + m <= top:
                    argv = ("bracket", "--N", str(N), "--l", str(l), "--m", str(m), "--json")
                    out.append(Request("bracket", argv, "bracket"))
    for N, top in NIL_TOP.items():
        for r in range(1, N - 1):
            for s in range(1, N - 1):
                for hi in range(2, top + 1):
                    argv = ("nil", "--N", str(N), "--r", str(r), "--s", str(s),
                            "--from", str(-N + 1), "--to", str(hi), "--json")
                    out.append(Request("nil", argv, "nil"))
    for d in load_derivations():
        files = {d["id"]: json.dumps(d["json"], sort_keys=True)}
        expect = {"inner": d["inner"]}
        out.append(Request("inner", ("inner", "--file", "@" + d["id"], "--json"),
                           "inner", expect, files))
        out.append(Request("residue", ("residue", "--file", "@" + d["id"], "--json"),
                           "residue", expect, files))
    for N, n in TAFT:
        for deg in range(3, 8):
            argv = ("taft", "--N", str(N), "--n", str(n), "--max-degree", str(deg), "--json")
            out.append(Request("taft", argv, "taft"))
    return out


# --- norm-aut ----------------------------------------------------------------

_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(3)]


def _signed_sum(terms):
    """Render (coefficient, factor text) pairs in the CLI grammar, which has
    no '+ -': a negative coefficient after the first term becomes ' - '."""
    out = ""
    for c, text in terms:
        sign = "-" if c < 0 else "+"
        if out:
            out += f" {sign} "
        elif sign == "-":
            out = "-"
        out += f"{_q(abs(c))}*{text}"
    return out


def _word_text(word):
    letters = {"x": "x", "y": "y", "X": "x^-1"}
    return "*".join(letters[a] for a in word)


def _small_norm(rng, localized):
    """A sum of 1-3 short words with rational coefficients, checkable by the
    brute-force rewriting oracle."""
    alphabet = "xyX" if localized else "xy"
    combo = []
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        combo.append((rng.choice(_COEFFS), word))
    text = _signed_sum([(c, _word_text(w)) for c, w in combo])
    return text, [[_q(c), "".join(w)] for c, w in combo]


def _poly_text(rng, gens):
    return _signed_sum([(rng.choice(_COEFFS), g) for g in gens])


def _cyclo_unit(n, k):
    """zeta^k for 1 <= k < euler_phi(n), as a JSON scalar in the power basis."""
    phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
    coeffs = ["0/1"] * phi
    coeffs[k] = "1/1"
    return {"order": n, "coeffs": coeffs}


CSEQ_TOP = 18


def catalog_norm_aut():
    rng = random.Random("norm-aut catalog v1")
    out = []
    gens = ["1", "x", "y", "x*y", "x^2"]
    for N in (2, 3, 4, 5):
        # Powers of 2-4 term polynomials of y-degree <= 1 up to the 7th: costs
        # fill a continuum from ~5 to ~100 ms, so the stratum's bins stay
        # narrow (8th and 9th powers jump to seconds).
        for k in range(4, 8):
            for _ in range(5):
                poly = _poly_text(rng, rng.sample(gens, rng.randint(2, 4)))
                out.append(Request("norm", ("norm", "--N", str(N), "--json", "--", f"({poly})^{k}"),
                                   "norm-big"))
        for k in range(3, 7):
            for _ in range(3):
                a, b = rng.randint(2, k), rng.randint(2, k)
                left = _poly_text(rng, ["x^-1", "y"] + rng.sample(gens[1:], rng.randint(0, 1)))
                text = f"({left})^{a}*({_poly_text(rng, rng.sample(gens, 3))})^{b}"
                out.append(Request("norm", ("norm", "--N", str(N), "--localized", "--json", "--", text),
                                   "norm-big"))
        for variant in range(24):
            localized = variant % 3 == 2
            text, combo = _small_norm(rng, localized)
            # '--' ends the options: an expression may start with '-'.
            argv = ("norm", "--N", str(N)) + (("--localized",) if localized else ()) + ("--json", "--", text)
            expect = {"N": N, "combo": combo}
            out.append(Request("norm-small", argv, "norm-small", expect))
    lams = ["1/1", "-1/1", "2/1", "1/2", "3/1"]
    for N in (2, 3, 4):
        for variant in range(12):
            a = {"lambda": rng.choice(lams), "f": [_q(rng.choice(_COEFFS)) for _ in range(rng.randint(0, 3))]}
            b = {"lambda": rng.choice(lams), "f": [_q(rng.choice(_COEFFS)) for _ in range(rng.randint(0, 3))]}
            expr = _poly_text(rng, ["x", "y", "x*y"])
            out += _aut_requests(N, (), a, b, expr)
        for n in (3, 4, 5):
            for variant in range(6):
                a = {"lambda": _cyclo_unit(n, rng.randint(1, 2 if n == 5 else 1)),
                     "f": [_q(rng.choice(_COEFFS)) for _ in range(rng.randint(0, 2))]}
                b = {"lambda": _cyclo_unit(n, 1), "f": []}
                expr = _poly_text(rng, ["x", "y"])
                out += _aut_requests(N, ("--field-order", str(n)), a, b, expr)
    for N in (2, 3, 4, 5):
        for i in range(0, 7):
            for j in range(0, 7):
                argv = ("laguerre-check", "--N", str(N), "--i", str(i), "--j", str(j), "--json")
                out.append(Request("laguerre", argv, "laguerre"))
        for j in range(1, 11):
            out.append(Request("phi", ("phi", "--N", str(N), "--j", str(j), "--json"), "phi"))
    for N in (2, 3, 4, 5, 6):
        for m in (1, 2, 3, 4):
            for hi in range(4, 17, 2):
                argv = ("veronese", "--N", str(N), "--m", str(m), "--from", "0", "--to", str(hi), "--json")
                out.append(Request("veronese", argv, "veronese", {"N": N, "m": m}))
    for j in range(0, CSEQ_TOP):
        out.append(Request("cseq", ("cseq", "--j", str(j), "--json"), "cseq"))
    # Sent in every stream: fills c_poly to the highest index reached here.
    out.append(Request("cseq", ("cseq", "--j", str(CSEQ_TOP), "--json"), "anchor"))
    return out


def _aut_requests(N, field_args, a, b, expr):
    common = ("--N", str(N)) + field_args
    aj, bj = json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True)
    return [
        Request("aut", ("aut", "compose") + common + ("--a", aj, "--b", bj, "--json"), "aut"),
        Request("aut", ("aut", "inverse") + common + ("--a", aj, "--json"), "aut"),
        Request("aut", ("aut", "order") + common + ("--a", aj, "--bound", "12", "--json"), "aut"),
        Request("aut", ("aut", "apply") + common + ("--a", aj, "--expr", expr, "--json"), "aut"),
    ]


CATALOGS = {
    "hh-plain": catalog_hh_plain,
    "hh-twisted": catalog_hh_twisted,
    "derivations": catalog_derivations,
    "norm-aut": catalog_norm_aut,
}

# Requests per stratum and pass.  Stratum names are matched by suffix: in the
# hh workloads every N (or (N, n) pair) is a stratum of requests with --p, and
# the requests without --p (three profiles each) form one stratum.
QUOTAS = {
    "hh-plain": {":p": 24, "all-p": 16},
    "hh-twisted": {":p": 12, "all-p": 16},
    "derivations": {"anchor": 1, "bracket": 80, "nil": 8, "inner": 24, "residue": 16, "taft": 12},
    "norm-aut": {"anchor": 1, "norm-big": 40, "norm-small": 40, "aut": 40, "laguerre": 16,
                 "phi": 10, "veronese": 12, "cseq": 5},
}


def _quota(workload, stratum):
    for suffix, k in QUOTAS[workload].items():
        if stratum.endswith(suffix):
            return k
    raise KeyError(f"{workload}: no quota for stratum {stratum!r}")


def load_reference(workload: str) -> dict:
    """The recorded reference of each catalog request: key -> [digest of its
    ``--json`` response, milliseconds it took when recorded]."""
    with open(DATA / "reference" / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def stream(workload: str, seed: int, catalog=None, reference=None):
    """The request stream a seed sends: a pure function of (workload, seed)
    and the frozen catalog data.  Recorded times only order the strata."""
    catalog = CATALOGS[workload]() if catalog is None else catalog
    reference = load_reference(workload) if reference is None else reference
    rng = random.Random(f"{workload}:{seed}")
    strata: dict[str, list] = {}
    for req in catalog:
        strata.setdefault(req.stratum, []).append(req)
    out = []
    for name in sorted(strata):
        entries = sorted(strata[name], key=lambda r: (reference.get(r.key, ("", 0.0))[1], r.key))
        k = _quota(workload, name)
        for b in range(k):
            lo, hi = len(entries) * b // k, len(entries) * (b + 1) // k
            out.append(entries[rng.randrange(lo, max(hi, lo + 1))])
    rng.shuffle(out)
    return out


def materialize(requests, workdir: Path):
    """Write the input files of the requests into ``workdir`` and return the
    argv lists with every ``@name`` placeholder replaced by its path."""
    out = []
    for req in requests:
        argv = []
        for item in req.argv:
            if item.startswith("@") and item[1:] in req.files:
                path = workdir / f"{item[1:]}.json"
                if not path.exists():
                    path.write_text(req.files[item[1:]], encoding="utf-8")
                item = str(path)
            argv.append(item)
        out.append(argv)
    return out
