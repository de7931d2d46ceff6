"""Self-tests of the benchmark: the output checker, the span arithmetic and the op lists.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json

from perfbench import check, tracer
from perfbench.workloads import WORKLOADS, op_argvs

REF_ROW = {"check": "trichotomy", "checked": 5604, "counterexamples": [], "value": 1234.5678, "ratio": 0.25, "manifest_hash": "0" * 64}
REF = {"rc": 0, "error": None, "rows": [REF_ROW], "seed_dependent": ["manifest_hash"]}
ARGV = ["comb", "--denominator", "30", "--seed", "0"]


def _outcome(*rows, rc=0, error=None, stderr=""):
    return check.Outcome(rc, error, "".join(json.dumps(r) + "\n" for r in rows), stderr=stderr)


def _verdict(row):
    return check.check(_outcome(row), REF, ARGV)


def test_checker_accepts_the_recorded_output_and_rounding_noise():
    assert _verdict(REF_ROW).ok
    assert _verdict(dict(REF_ROW, value=1234.5678 * (1 + 1e-12))).ok


def test_checker_rejects_a_float_perturbed_by_1e_6_relative():
    for key in ("value", "ratio"):
        v = _verdict(dict(REF_ROW, **{key: REF_ROW[key] * (1 + 1e-6)}))
        assert v.failed and not v.ok, key


def test_checker_rejects_a_counterexample_and_a_changed_count():
    assert _verdict(dict(REF_ROW, counterexamples=[[1, 2, 3]])).failed
    assert _verdict(dict(REF_ROW, checked=5605)).failed
    assert _verdict(dict(REF_ROW, checked=5604.0)).failed  # an int turned float is a change


def test_checker_rejects_a_missing_field_a_wrong_exit_and_a_raise():
    row = dict(REF_ROW)
    del row["ratio"]
    assert _verdict(row).failed
    assert check.check(_outcome(REF_ROW, rc=1), REF, ARGV).failed
    assert check.check(_outcome(rc=None, error="ValueError"), REF, ARGV).failed


def test_certificate_may_improve_but_not_drop():
    cert = {"k": 5, "degree": 3, "basis_size": 7, "lambda": 1.5, "exact_bound": "3/2"}
    ref = {"rc": 0, "error": None, "rows": [cert], "seed_dependent": []}
    argv = ["certify", "--seed", "0"]
    better = dict(cert, exact_bound="151/100", **{"lambda": 1.51})
    assert check.check(_outcome(better), ref, argv).ok
    worse = dict(cert, exact_bound="149/100", **{"lambda": 1.49})
    assert check.check(_outcome(worse), ref, argv).failed
    inconsistent = dict(cert, **{"lambda": 1.6})
    assert check.check(_outcome(inconsistent), ref, argv).failed
    assert check.check(_outcome(dict(cert, basis_size=8)), ref, argv).failed


def test_seed_dependent_fields_are_held_to_invariants():
    row = {"k": 5, "lambda": 1.5, "exact_bound": "3/2", "mc_ratio": 1.49, "mc_ci": [1.4, 1.6]}
    ref = {"rc": 0, "error": None, "rows": [row], "seed_dependent": ["mc_ci", "mc_ratio"]}
    argv = ["mk", "--k", "5", "--seed", "1"]
    assert check.check(_outcome(dict(row, mc_ratio=1.45, mc_ci=[1.3, 1.55])), ref, argv).ok
    assert check.check(_outcome(dict(row, mc_ci=[1.3, 1.45])), ref, argv).failed


def test_a_recorded_failure_is_known_until_it_changes():
    ref = {"rc": None, "error": "RayleighError"}
    argv = ["mk", "--k", "12", "--degree", "6", "--seed", "0"]
    same = check.check(_outcome(rc=None, error="RayleighError"), ref, argv)
    assert not same.ok and not same.failed
    reported = check.check(_outcome(rc=2, stderr='{"error": "no convergence"}\n'), ref, argv)
    assert not reported.ok and not reported.failed
    assert check.check(_outcome(rc=None, error="ValueError"), ref, argv).failed
    fixed = {"k": 12, "degree": 6, "lambda": 2.5, "exact_bound": "5/2", "mc_ci": [2.4, 2.6]}
    assert check.check(_outcome(fixed), ref, argv).ok
    assert check.check(_outcome(dict(fixed, k=11)), ref, argv).failed


def _span(id, name, parent, start, end, error=None, counters=None):
    return tracer.Span(id, name, parent, start, end, error, counters or {})


SPANS = [
    _span(0, tracer.ROOT, None, 0.0, 10.0),
    _span(1, "bv_sums.compute_E_b", 0, 1.0, 7.0, counters={"moduli": 4, "threads": 1}),
    _span(2, "arith.prime_power_arrays", 1, 1.5, 3.5, counters={"prime_powers": 10, "bytes": 160}),
    _span(3, "arith.primes_in_range", 2, 2.0, 3.0, counters={"span": 100, "bytes": 80}),
    _span(4, "arith.prime_power_arrays", 1, 4.0, 4.5, counters={"prime_powers": 10, "bytes": 160}),
    _span(5, "gaps.constellation_search", 0, 8.0, 9.0, counters={"primes": 7}),
]


def test_self_time_is_duration_minus_children():
    selfs = tracer.self_times(SPANS)
    assert selfs == {0: 3.0, 1: 3.5, 2: 1.0, 3: 1.0, 4: 0.5, 5: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, tracer.ROOT, None, 0.0, 10.0),
        _span(1, "arith.primes_in_range", 0, 1.0, 5.0),
        _span(2, "arith.primes_in_range", 0, 3.0, 6.0),  # a second thread
        _span(3, "arith.primes_in_range", 0, 9.0, 12.0),  # runs past its parent
    ]
    assert tracer.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_layer_metrics_add_up_to_the_root_and_count_work():
    m = tracer.layer_metrics([SPANS])
    assert m["trace.root_s"] == 10.0
    assert sum(m[name] for name in tracer.self_time_metrics()) == 10.0
    assert m["arith.sieve_s"] == 2.5 and m["bv_sums.E_b_s"] == 3.5 and m["cli.self_s"] == 3.0
    assert m["arith.sieve_calls"] == 1 and m["arith.sieve_span"] == 100
    assert m["bv_sums.moduli"] == 4 and m["bv_sums.scan_mb"] == 4 * 160 / tracer.MIB
    assert m["gaps.constellation_primes"] == 7


def test_every_span_name_feeds_a_reported_metric():
    assert set(tracer.SELF_METRIC.values()) <= set(tracer.PER_LAYER_UNITS)


def test_op_lists_are_identical_for_a_seed():
    for name in WORKLOADS:
        a = op_argvs(name, 7, "/tmp/t.jsonl")
        assert a == op_argvs(name, 7, "/tmp/t.jsonl")
        b = op_argvs(name, 8, "/tmp/t.jsonl")
        assert [x[:-1] for x in a] == [x[:-1] for x in b]
        assert all(x[-2:] == ["--seed", "7"] for x in a)


def test_benchmark_json_names_the_metrics_the_runs_print():
    from pathlib import Path

    from perfbench.run import E2E_UNITS

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
