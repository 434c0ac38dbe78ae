"""Tests of the benchmark harness itself (not of xnalg).

    python3 -m pytest -q -p no:cacheprovider perfbench/test_harness.py

They write only under perfbench/ (temporary ``_work-*`` directories).
"""

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_response, digest, expected_hh  # noqa: E402
from run import END_TO_END, ROOT, count_failures, percentile  # noqa: E402
from tracer import PER_LAYER, fold  # noqa: E402
from workloads import CATALOGS, WORKLOADS, Request, load_reference, stream  # noqa: E402


def test_percentile_matches_inclusive_quantiles():
    values = [7.0, 1.0, 3.5, 2.0, 9.0, 4.0, 4.0, 12.5, 0.5, 6.0, 8.0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert percentile(values, 50) == statistics.median(values)
    assert percentile(values, 90) == pytest.approx(deciles[8])
    assert percentile(values, 0) == 0.5 and percentile(values, 100) == 12.5
    assert percentile([1.0, 2.0], 90) == pytest.approx(1.9)


def test_self_time_of_nested_spans():
    # a [0, 10] with children b [1, 4] and c [5, 9]; c has child b [6, 8].
    names = ["a", "b", "c", "b"]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    out = fold(names, parents, starts, ends)
    assert out["a"] == (1, pytest.approx(3.0))
    assert out["c"] == (1, pytest.approx(2.0))
    assert out["b"] == (2, pytest.approx(5.0))
    total_self = sum(s for _, s in out.values())
    assert total_self == pytest.approx(10.0)  # self times partition the root span


@pytest.mark.parametrize("workload", WORKLOADS)
def test_streams_are_pure_functions_of_the_seed(workload):
    catalog = CATALOGS[workload]()
    first = stream(workload, 7, catalog)
    again = stream(workload, 7, CATALOGS[workload]())
    other = stream(workload, 8, catalog)
    assert [r.key for r in first] == [r.key for r in again]
    assert [r.files for r in first] == [r.files for r in again]
    assert [r.key for r in first] != [r.key for r in other]
    assert len(first) >= 100


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_catalog_request_has_a_recorded_reference(workload):
    assert {r.key for r in CATALOGS[workload]()} == set(load_reference(workload))


def _hh_request():
    argv = ("hh", "--N", "3", "--from", "-3", "--to", "-2", "--p", "2", "--json")
    expect = {"twist": None, "N": 3, "lo": -3, "hi": -2, "p": 2}
    payload = {"N": 3, "p": 2, "from": -3, "to": -2, "twist_order": None,
               "computed": [1, 1], "expected": [1, 1], "match": True,
               "euler_computed": [1, 0], "euler_expected": [1, 0], "euler_match": True}
    return Request("hh", argv, "N3:p", expect), payload


def _text(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def test_closed_forms():
    assert [expected_hh(3, p, 0, None) for p in range(3)] == [1, 2, 1]
    assert [expected_hh(3, 1, l, 2) for l in (-1, 0, 1, 2)] == [1, 0, 1, 0]
    assert [expected_hh(4, 2, l, 2) for l in (-4, -3, -1)] == [1, 0, 0]


def test_good_response_passes():
    req, payload = _hh_request()
    text = _text(payload)
    assert check_response(req, 0, text, {req.key: digest(text)}, None) == []


def test_corrupted_payload_and_wrong_digest_count_as_failures():
    req, payload = _hh_request()
    good = _text(payload)
    digests = {req.key: digest(good)}
    corrupted = dict(payload, computed=[1, 0], expected=[1, 0])  # flags still claim a match
    bad_text = _text(corrupted)
    assert check_response(req, 0, bad_text, {req.key: digest(bad_text)}, None)
    assert check_response(req, 0, good, {req.key: "0" * 20}, None)
    assert check_response(req, 0, good[:-1], digests, None)
    assert check_response(req, 2, good, digests, None)
    passes = [
        [(0, 0.1, good), (0, 0.1, bad_text), (0, 0.1, good)],
        [(0, 0.1, good), (0, 0.1, good)],  # a missing response
    ]
    wrong = {req.key: digest(good[:-1])}
    assert count_failures([req] * 3, passes, digests, None) == (6, 2)
    assert count_failures([req] * 3, passes, wrong, None) == (6, 6)


def test_benchmark_file_names_every_reported_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_traced_worker_counts_layer_calls():
    argvs = [["hh", "--N", "3", "--from", "0", "--to", "1", "--p", "1", "--json"],
             ["norm", "--N", "2", "--json", "--", "(x+y)^2"]]
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
        stream_file, results = Path(tmp) / "stream.json", Path(tmp) / "results.json"
        stream_file.write_text(json.dumps(argvs), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(stream_file), str(results), "1"]
        subprocess.run(cmd, check=True, timeout=120)
        out = json.loads(results.read_text(encoding="utf-8"))
    assert [r[0] for r in out["responses"]] == [0, 0]
    layers = out["layers"]
    assert layers["cli.run_command.calls"] == 2
    assert layers["cohomology.hh_profile.calls"] == 1
    assert layers["cohomology.build_slice.calls"] == 2
    assert layers["cohomology.build_slice.distinct_ratio"] == 1.0
    assert layers["linalg.rank.calls"] == 4
    assert layers["ncalg.normalize_product.calls"] > 0
    assert layers["scalars.CycloScalar.mul.calls"] == 0
    assert layers["cli.output_bytes"] == sum(len(r[2].encode()) for r in out["responses"])
