"""The xnalg benchmark: seeded CLI request streams with end-to-end metrics
and, with ``--trace 1``, per-layer metrics from an outside-in trace.

    python3 perfbench/run.py --workload hh-plain --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client and no think time.  One pass sends
the workload's whole seeded stream, in order, through
``xnalg.cli.run_command`` in a fresh interpreter (``worker.py``), so the
caches of the package start cold in every pass, as they do for a CLI user.
Passes run one after another until ``--seconds`` is spent (at least two).
The latency of a request is its median over the passes; ``wall_s`` (time to
solution) is the sum of those over the stream.
Set-up cost (a fresh interpreter importing ``xnalg.cli`` and building its
parser) is measured apart, as the median of repeated spawns.

Every response is checked after the passes (``checks.py``); failures are
counted, never dropped.  The last line of standard output is the result
object; the line before it is the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_response, digest, load_oracle  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import CATALOGS, WORKLOADS, load_reference, materialize, stream  # noqa: E402

SETUP_SPAWNS = 15
MIN_PASSES = 2
WORKER_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layer-coverage self-check of the traced run: metrics each workload must
# drive above zero, and the layers it must bypass entirely.
STRESSED = {
    "hh-plain": ["cohomology.hh_profile.calls", "cohomology.build_slice.self_s",
                 "cohomology.slice_cells", "linalg.rank.self_s", "ncalg.normalize_product.calls"],
    "hh-twisted": ["cohomology.hh_profile.calls", "cohomology.build_slice.self_s",
                   "linalg.rank.self_s", "scalars.CycloScalar.mul.self_s",
                   "scalars.CycloScalar.inverse.calls"],
    "derivations": ["maps.GenDerivation.apply.self_s", "maps.partial_l.calls",
                    "cohomology.standard_derivation.calls", "cohomology.bracket_table.calls",
                    "cohomology.is_inner.calls", "cohomology.residue_inner_test.calls",
                    "cohomology.taft_obstruction.calls", "linalg.solve.self_s",
                    "maps.ad_phi.calls", "maps.GenDerivation.bracket.calls",
                    "ncalg.normalize_product.self_s", "ncalg.phi_element.calls"],
    "norm-aut": ["ncalg.normalize_product.self_s", "maps.Automorphism.apply.calls",
                 "sequences.c_poly.calls", "ncalg.phi_element.calls", "cli.run_command.self_s"],
}
BYPASSED = {
    "hh-plain": ["scalars.CycloScalar.mul.calls", "maps.GenDerivation.apply.calls"],
    "hh-twisted": ["maps.GenDerivation.apply.calls"],
    "derivations": ["linalg.rank.calls", "cohomology.build_slice.calls"],
    "norm-aut": ["linalg.rank.calls", "cohomology.build_slice.calls"],
}


class HarnessError(Exception):
    """The benchmark cannot measure this checkout."""


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    closest ranks, as ``statistics.quantiles(method="inclusive")`` does."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def request_medians(runs) -> list:
    """Each request's median latency over the passes.  Per-request medians
    drop the requests a transient slowdown of the machine hit in one pass."""
    return [statistics.median(lat) for lat in zip(*([resp[1] for resp in r["responses"]] for r in runs))]


def coverage_problems(workload: str, layers: dict) -> list:
    out = [f"{name} is 0 on {workload}" for name in STRESSED[workload] if not layers[name]]
    out += [f"{name} is {layers[name]} on {workload}, predicted 0"
            for name in BYPASSED[workload] if layers[name] != 0]
    return out


def count_failures(requests, passes, digests, brute):
    """(attempted, failed) over every response of every pass.  A pass is a
    list of (status, seconds, text), one per request; a missing response
    counts as a failure.  Identical responses to one request are checked once."""
    verdicts: dict = {}
    attempted = failed = 0
    for responses in passes:
        attempted += len(requests)
        failed += max(len(requests) - len(responses), 0)
        for req, (status, _, text) in zip(requests, responses):
            memo = (req.key, status, digest(text))
            if memo not in verdicts:
                verdicts[memo] = check_response(req, status, text, digests, brute)
                for problem in verdicts[memo]:
                    print(f"FAILED {req.key}: {problem}", file=sys.stderr)
            failed += bool(verdicts[memo])
    return attempted, failed


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports ``xnalg.cli`` and
    builds its parser (an empty argv is a usage error, so no kernel work)."""
    code = "import xnalg.cli; xnalg.cli.run_command([])"
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=_env(), check=True, timeout=60)  # compiles bytecode
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(work: Path, stream_file: Path, trace: bool) -> dict:
    results = work / "results.json"
    if results.exists():
        results.unlink()
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(stream_file), str(results),
           "1" if trace else "0"]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(results, encoding="utf-8") as handle:
        return json.load(handle)


def provenance(workload, seed, requests, xnalg_file):
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no git: the source digest still identifies the tree
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "xnalg").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": sha.hexdigest()[:16],
        "xnalg_file": xnalg_file,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "requests_per_pass": requests,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    if not (ROOT / "src" / "xnalg" / "__init__.py").is_file():
        raise HarnessError(f"no xnalg package under {ROOT / 'src'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise HarnessError(f"no test oracles under {ROOT / 'tests'}")
    reference = load_reference(workload)
    requests = stream(workload, seed, CATALOGS[workload](), reference)
    digests = {key: sha for key, (sha, _) in reference.items()}
    brute = load_oracle(ROOT)

    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
        work = Path(tmp)
        stream_file = work / "stream.json"
        stream_file.write_text(json.dumps(materialize(requests, work)), encoding="utf-8")
        setup_s = measure_setup()
        passes = []  # (traced, worker result)
        started = time.perf_counter()
        last = 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            t0 = time.perf_counter()
            passes.append((traced, run_pass(work, stream_file, traced)))
            last = max(last, time.perf_counter() - t0)
            enough = len(passes) >= MIN_PASSES
            if enough and time.perf_counter() - started + last > seconds:
                break

    xnalg_file = passes[0][1]["xnalg_file"]
    if not Path(xnalg_file).resolve().is_relative_to((ROOT / "src").resolve()):
        raise HarnessError(f"xnalg resolved to {xnalg_file}, outside this checkout")

    attempted, failed = count_failures(requests, [r["responses"] for _, r in passes], digests, brute)
    plain = [r for traced, r in passes if not traced]
    latencies = request_medians(plain)
    info = provenance(workload, seed, len(requests), xnalg_file)
    info.update(passes=len(passes), latency_samples=len(latencies))
    correct = failed == 0
    if not trace:
        values = {
            "wall_s": sum(latencies),
            "req_p50_ms": 1000 * percentile(latencies, 50),
            "req_p90_ms": 1000 * percentile(latencies, 90),
            "ok_ratio": 1 - failed / attempted,
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
            "setup_s": setup_s,
        }
        units = END_TO_END
    else:
        traced_runs = [r for traced, r in passes if traced]
        layer_sets = [r["layers"] for r in traced_runs]
        values = {}
        for name in PER_LAYER:
            if name == "trace.overhead_ratio":
                values[name] = sum(request_medians(traced_runs)) / sum(latencies)
            elif name.endswith("self_s"):
                values[name] = statistics.median(layers[name] for layers in layer_sets)
            else:
                values[name] = layer_sets[0][name]
                if any(layers[name] != values[name] for layers in layer_sets):
                    print(f"COUNT DIFFERS between passes: {name}", file=sys.stderr)
                    correct = False
        for problem in coverage_problems(workload, values):
            print(f"COVERAGE {problem}", file=sys.stderr)
            correct = False
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return info, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
