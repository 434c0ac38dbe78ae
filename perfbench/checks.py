"""Correctness checks on CLI responses, run outside the timed region.

A response passes when it exits 0, its ``--json`` bytes hash to the digest
recorded for the request at the seed commit, every report flag it carries
holds, and the workload-specific checks agree: cohomology dimensions against
closed-form Hilbert-series values computed here, small normal forms against
the brute-force rewriting oracle of the test suite, innerness against how the
input derivation was made, and Veronese monomials against the basis.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

# Flags that every report carrying them must set.  Flags that are false by
# design (the Veronese "discrepancy") are covered by the digest only.
REQUIRED_FLAGS = ("match", "euler_match", "L_match", "collapse_ok", "obstructed", "containment_ok")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_oracle(root: Path):
    """``brute_normalize`` from the test suite's independent oracles."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_normalize


def expected_hh(N: int, p: int, l: int, twist) -> int:
    """Closed-form dim HH^p in degree l.  ``twist`` is None (untwisted) or the
    order n of the root of unity omega; omega^{N-1} = 1 exactly when n | N-1.

    Untwisted: HH^0 is the scalars, HH^1 is spanned by the standard
    derivations of degree >= -N+1 plus the grading derivation in degree 0, and
    HH^2 has one class in each degree >= -N.  Twisted: HH^0 vanishes; on the
    branch omega^{N-1} = 1 the classes of HH^1 and HH^2 sit in the degrees
    congruent to -1 and -N modulo N-1; off it only HH^2 in degree -N survives.
    """
    if twist is None:
        return [int(l == 0), int(l >= 1 - N) + int(l == 0), int(l >= -N)][p]
    if (N - 1) % twist == 0:
        return [0, int(l >= -1 and (l + 1) % (N - 1) == 0),
                int(l >= -N and (l + N) % (N - 1) == 0)][p]
    return [0, 0, int(l == -N)][p]


def _flags(obj, found):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in REQUIRED_FLAGS and value is not True:
                found.append(f"flag {key} is {value!r}")
            _flags(value, found)
    elif isinstance(obj, list):
        for item in obj:
            _flags(item, found)


def _check_hh(req, payload):
    e = req.expect
    reports = payload if isinstance(payload, list) else [payload]
    ps = [e["p"]] if "p" in e else [0, 1, 2]
    if [r.get("p") for r in reports] != ps:
        return ["hh reports do not cover the requested p"]
    degrees = range(e["lo"], e["hi"] + 1)
    problems = []
    for r in reports:
        want = [expected_hh(e["N"], r["p"], l, e["twist"]) for l in degrees]
        if r.get("computed") != want:
            problems.append(f"HH^{r['p']} computed {r.get('computed')} != closed form {want}")
        euler = [int(l == -e["N"]) for l in degrees]
        if r.get("euler_computed") != euler:
            problems.append("Euler characteristics differ from the closed form")
    return problems


def _terms(payload):
    return {(t["xexp"], t["yexp"]): Fraction(t["coeff"]) for t in payload["terms"]}


def _check_norm_small(req, payload, brute):
    N = req.expect["N"]
    want: dict = {}
    for coeff, word in req.expect["combo"]:
        c = Fraction(coeff)
        for key, v in brute(word, N).items():
            want[key] = want.get(key, 0) + c * v
    want = {k: v for k, v in want.items() if v}
    if _terms(payload) != want:
        return ["normal form disagrees with the rewriting oracle"]
    return []


def _check_veronese(req, payload):
    N, m = req.expect["N"], req.expect["m"]
    for row in payload["degrees"]:
        l = row["degree"]
        want = []
        if l >= 0 and l % m == 0:
            want = [{"xexp": l - j * (N - 1), "yexp": j} for j in range(l // (N - 1) + 1)]
        if row["monomials"] != want:
            return [f"Veronese monomials in degree {l} differ from the basis"]
    return []


def check_response(req, status: int, text: str, digests: dict, brute) -> list:
    """Problems found with one response; an empty list means it passed."""
    if status != 0:
        return [f"exit status {status}"]
    problems = []
    recorded = digests.get(req.key)
    if recorded is None:
        problems.append("no recorded digest for this request")
    elif digest(text) != recorded:
        problems.append("output bytes differ from the recorded digest")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return problems + ["response is not JSON"]
    _flags(payload, problems)
    try:
        if req.kind == "hh":
            problems += _check_hh(req, payload)
        elif req.kind == "norm-small":
            problems += _check_norm_small(req, payload, brute)
        elif req.kind == "veronese":
            problems += _check_veronese(req, payload)
        elif req.kind == "inner" and payload.get("inner") is not req.expect["inner"]:
            problems.append(f"inner is {payload.get('inner')!r}, expected {req.expect['inner']!r}")
        elif req.kind == "residue" and req.expect["inner"] and payload.get("residue") != "0/1":
            problems.append("an inner derivation has a nonzero residue")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"malformed payload: {exc!r}")
    return problems
