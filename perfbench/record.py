"""Record the frozen inputs and the reference outputs the benchmark checks against.

    python3 perfbench/record.py [workload ...]

Run from the checkout root at the commit whose outputs are the reference.  It
rebuilds ``data/derivations.json`` (the derivation inputs of ``inner`` and
``residue``) with the package in ``src/`` and then sends every catalog request
of each named workload (all four by default) through ``xnalg.cli.run_command``
once, writing the SHA-256 prefix of each ``--json`` response and the time it
took to ``data/reference/<workload>.json``.  The times only order the strata
the streams are drawn from.  A request whose response fails a check is
reported and left out, so the benchmark counts it as failed.
"""

import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checks import check_response, digest, load_oracle  # noqa: E402
from workloads import CATALOGS, DATA, WORKLOADS, materialize  # noqa: E402


def record_derivations():
    """Standard derivations (not inner) and ad(u) for random homogeneous u
    (inner), for N = 2..5, from a fixed generator."""
    from xnalg.cohomology import standard_derivation
    from xnalg.maps import ad_phi
    from xnalg.ncalg import AlgebraCtx, basis_of_degree

    rng = random.Random("derivations v1")
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(3)]
    out = []
    for N in (2, 3, 4, 5):
        ctx = AlgebraCtx(N)
        for k in range(-N + 1, 13):
            d = standard_derivation(ctx, k)
            out.append({"id": f"std-N{N}-k{k}", "N": N, "degree": k, "inner": False, "json": d.to_json()})
        for l in range(1, 13):
            basis = basis_of_degree(ctx, l)
            picks = rng.sample(basis, min(len(basis), rng.randint(1, 3)))
            u = ctx.zero()
            for mono in picks:
                u = u + ctx.monomial(*mono, rng.choice(coeffs))
            out.append({"id": f"ad-N{N}-l{l}", "N": N, "degree": l, "inner": True,
                        "json": ad_phi(u).to_json()})
    DATA.mkdir(exist_ok=True)
    with open(DATA / "derivations.json", "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


def record_reference(workload, brute):
    from xnalg.cli import run_command

    catalog = CATALOGS[workload]()
    table, bad, cost = {}, 0, {}
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as work:
        argvs = materialize(catalog, Path(work))
        for req, argv in zip(catalog, argvs):
            t0 = time.perf_counter()
            result = run_command(argv)
            elapsed = time.perf_counter() - t0
            stats = cost.setdefault(req.stratum, [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += elapsed
            stats[2] = max(stats[2], elapsed)
            problems = check_response(req, result.status, result.text, {req.key: digest(result.text)}, brute)
            if problems:
                bad += 1
                print(f"  FAIL {req.key}: {problems}")
                continue
            table[req.key] = [digest(result.text), round(1000 * elapsed, 1)]
    (DATA / "reference").mkdir(parents=True, exist_ok=True)
    with open(DATA / "reference" / f"{workload}.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{workload}: {len(table)} references, {bad} failing requests left out")
    for stratum, (n, total, worst) in sorted(cost.items()):
        print(f"  {stratum:12s} {n:5d} requests  mean {1000 * total / n:8.1f} ms  max {1000 * worst:8.1f} ms")


def main(names):
    record_derivations()
    brute = load_oracle(ROOT)
    for workload in names or WORKLOADS:
        record_reference(workload, brute)


if __name__ == "__main__":
    main(sys.argv[1:])
