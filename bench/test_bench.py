"""Tests of the benchmark itself: the sampler, the output checks and the
tracing.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import sampler  # noqa: E402
import workloads  # noqa: E402
from nilzeta import arith, golden, zeta  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

CHEAP = (frozenset(), (12, 11, 10, 9, 8, 7, 2, 1, 3, 6, 5, 4))
FAILING = (frozenset(), (12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1))


@pytest.fixture(scope="module")
def index4():
    return sampler.PairIndex.build(4, 16)


def _bump(value, degree):
    """value plus the monomial t^degree: one series coefficient changes."""
    terms = dict(value.num.terms)
    key = (0, degree)
    terms[key] = terms.get(key, 0) + 1
    return arith.FactoredRationalFunction(
        arith.LaurentPolynomial(value.vars, terms), value.den)


# -- sampler ---------------------------------------------------------------


def test_sampler_reaches_the_documented_pairs(index4):
    assert index4.partition_pair_count() == 6274
    assert len(index4.witnesses) == 796
    assert sum(map(sampler.failing_class, index4.witnesses)) == 10
    for ws in index4.witnesses.values():
        assert ws == sorted(ws)


@pytest.mark.parametrize("name", ["d4_summands", "cli_mix"])
def test_rounds_are_deterministic_per_seed(name, tmp_path):
    def first_rounds(seed):
        wl = workloads.make(name, seed, str(tmp_path))
        wl.setup()
        rounds = wl.rounds()
        return [next(rounds) for _ in range(2)]

    assert first_rounds(3) == first_rounds(3)
    assert first_rounds(3) != first_rounds(4)


def test_every_round_attempts_one_failing_input(tmp_path):
    wl = workloads.make("d4_summands", 1, str(tmp_path))
    wl.setup()
    batch = next(wl.rounds())
    assert sum(sampler.failing_class(op[0]) for op in batch) == 1
    assert len(batch) == len(wl.strata)


# -- output checks reject corrupted results ----------------------------------


def test_d4_check_accepts_and_rejects(index4):
    value = zeta.zeta_padic(4, pairs=[zeta.WPair(4, *CHEAP)]).value
    assert reference.check_pairs(index4, [CHEAP], value) is None
    n = index4.witnesses[CHEAP][0][0]
    assert reference.check_pairs(index4, [CHEAP], _bump(value, n))
    # a result checked against the wrong pair fails too
    other = next(p for p in index4.pairs() if p != CHEAP)
    assert reference.check_pairs(index4, [other], value)


def test_compute_checks_reject_corruption():
    indexes = {d: sampler.PairIndex.build(d, 10) for d in (2, 3)}
    for d in (2, 3):
        good = golden.golden_padic(d)
        req = {"d": d, "kind": "padic"}
        obj = {"d": d, "value": good.to_json_obj()}
        assert reference.check_compute(obj, req, indexes) is None
        obj = {"d": d, "value": _bump(good, 3).to_json_obj()}
        assert reference.check_compute(obj, req, indexes)

        red = golden.golden_reduced(d)
        terms = dict(red.num.terms)
        terms[(2,)] = terms.get((2,), 0) + 1
        bad = arith.FactoredRationalFunction(
            arith.LaurentPolynomial(red.vars, terms), red.den)
        assert reference.check_compute(
            {"d": d, "value": bad.to_json_obj()},
            {"d": d, "kind": "reduced"}, indexes)

        top = golden.golden_topological(d)
        assert reference.check_compute(
            {"d": d, "value": top.to_json_obj()},
            {"d": d, "kind": "topological"}, indexes) is None
        bad = arith.LinearFactoredFunction(
            [top.num[0] + 1] + list(top.num[1:]), top.den)
        assert reference.check_compute(
            {"d": d, "value": bad.to_json_obj()},
            {"d": d, "kind": "topological"}, indexes)

    word = "010101"
    value = zeta.zeta_overlap(3, word).value
    req = {"d": 3, "kind": "overlap", "word": word}
    assert reference.check_compute(
        {"d": 3, "value": value.to_json_obj()}, req, indexes) is None
    assert reference.check_compute(
        {"d": 3, "value": _bump(value, 4).to_json_obj()}, req, indexes)
    # a summand checked under another overlap type fails too
    assert reference.check_compute(
        {"d": 3, "value": value.to_json_obj()},
        {"d": 3, "kind": "overlap", "word": "000111"}, indexes)


def test_other_cli_checks_reject_corruption():
    good = {"consistent": True, "c_d": "25/54"}
    assert reference.check_report(good, 3) is None
    assert reference.check_report(dict(good, c_d="25/53"), 3)
    assert reference.check_report(dict(good, consistent=False), 3)
    assert reference.check_oracle("49\n", 2, 3, 2) is None
    assert reference.check_oracle("50\n", 2, 3, 2)
    assert reference.check_verify("PASS  a\nPASS  b\n") is None
    assert reference.check_verify("PASS  a\nFAIL  b\n")
    assert reference.check_verify("")


# -- tracing ---------------------------------------------------------------


def _one_round(wl, batch):
    wl._rounds = iter([batch])
    return wl


def test_traced_and_untraced_runs_count_the_same(tmp_path):
    batch = [(CHEAP,), (FAILING,)]
    wl = workloads.make("d4_summands", 0, str(tmp_path))
    wl.setup()
    plain, _ = run.play(_one_round(wl, batch), 60, None)
    tracer = Tracer()
    both, spans = run.play(_one_round(wl, batch), 60, tracer)
    _, tallies = run.summarize(both, ("plain", "traced"))
    assert tallies["plain"] == tallies["traced"] == (2, 1)
    assert run.summarize(plain, ("plain",))[1]["plain"] == (2, 1)
    assert all(r["wrong"] is None for r in both)
    names = {s[0] for s in spans}
    assert {"zeta.zeta_padic", "cones.decompose",
            "arith.rf_sum_common"} <= names
    assert tracer.counts["zeta.pairs"] == 2
    # probes are removed after each traced operation
    assert zeta.rf_sum_common is arith.rf_sum_common


def test_traced_cli_requests_count_the_same(tmp_path):
    wl = workloads.make("cli_mix", 0, str(tmp_path))
    wl.setup()
    req = {"verb": "compute", "d": 2, "kind": "padic"}
    tracer = Tracer()
    records, spans = run.play(_one_round(wl, [req, req]), 60, tracer)
    wl.close()
    _, tallies = run.summarize(records, ("plain", "traced"))
    assert tallies["plain"] == tallies["traced"] == (2, 0)
    hits = {lane: [r["hit"] for r in records if r["lane"] == lane]
            for lane in ("plain", "traced")}
    assert hits["plain"] == hits["traced"] == [False, True]
    names = {s[0] for s in spans}
    assert {"cli.load_result", "cli.store_result",
            "zeta.zeta_padic"} <= names


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    st = self_times(spans)
    assert st["a"] == (6.0, 1)
    assert st["b"] == (3.0, 2)
    assert st["c"] == (1.0, 1)


def test_tail_names_the_percentile():
    assert run.tail(list(range(1, 41))) == (30, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_cli_nonzero_exit_is_a_wrong_output(tmp_path):
    wl = workloads.make("cli_mix", 0, str(tmp_path))
    wl.setup()
    outcome = wl.execute({"verb": "compute", "d": 1, "kind": "padic"},
                         "plain")
    wl.close()
    assert outcome.info["returncode"] == 64
    assert wl.check({}, outcome).startswith("exit 64")


def test_assembly_counts_only_the_padic_cross_pair_sum():
    tracer = Tracer()
    tracer.install()
    try:
        zeta.zeta_reduced(2)
        zeta.padic_value_at_zero(golden.golden_padic(2), 3)
        assert tracer.counts["arith.assembly_den_factors"] == 0
        zeta.zeta_padic(2)
    finally:
        tracer.uninstall()
    assert tracer.counts["arith.assembly_den_factors"] > 0
    assert tracer.counts["arith.assembly_num_terms"] > 0
