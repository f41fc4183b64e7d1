"""The nilzeta benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {d4_summands,cli_mix}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, so a plain checkout needs no build or install.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  Per-operation records (and, when traced, every span) are
written to ``.bench_out/`` at the end of the run.

The run plays whole rounds of its workload (``workloads.py``): as many as
``--seconds`` holds at the workload's nominal round length.  A traced run plays every
operation twice, once untraced and once traced, alternating which goes
first, so ``trace.overhead_frac`` compares the same operations.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not run (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 9
# never start an operation after this many seconds, whatever --seconds says,
# so that a much slower program still ends well inside the 180 s limit
HARD_STOP_S = 110

# per-workload names, for the printed lines, of the shared end-to-end metrics
DISPLAY = {
    "cli_mix": ("req", "request", "req_per_s", 1000, "ms"),
    "d4_summands": ("pair", "pair", "pairs_per_s", 1, "s"),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description="nilzeta benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nilzeta", "__init__.py")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    tracer = Tracer() if args.trace else None
    setup_s, wl = measure_setup(workloads, args.workload, args.seed, tracer)
    setup_rss_mb = _maxrss_mb()
    try:
        records, spans = play(wl, args.seconds, tracer)
    finally:
        wl.close()
    lanes = ("plain", "traced") if tracer else ("plain",)
    _, tallies = summarize(records, lanes)
    correct = all(r["wrong"] is None for r in records)
    if tracer and tallies["plain"] != tallies["traced"]:
        print(f"benchmark: traced and untraced runs disagree: {tallies}",
              file=sys.stderr)
        correct = False
    attempted, failed = tallies[lanes[-1]]

    if tracer:
        metrics = layer_metrics(wl, records, spans, tracer)
    else:
        metrics = end_to_end(wl, records, setup_s)
    report(wl, args, records, metrics, setup_s, setup_rss_mb, attempted,
           failed)
    write_details(args, records, spans, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Set-up, and playing the rounds.


def measure_setup(workloads, name, seed, tracer):
    """Median import time of a fresh interpreter plus median in-process
    input generation (sampler, strata, request stream, empty cache dir),
    each over SETUP_REPEATS tries; a traced run sets up once, traced."""
    repeats = 1 if tracer else SETUP_REPEATS
    probe = ("import time; t = time.perf_counter(); "
             "import nilzeta.cli, nilzeta.golden; "
             "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    imports, gens = [], []
    wl = None
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             check=True, capture_output=True, text=True)
        imports.append(float(out.stdout))
        if wl is not None:
            wl.close()
        if tracer:
            tracer.install()
        start = time.perf_counter()
        wl = workloads.make(name, seed, OUT)
        wl.setup()
        gens.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()
    return statistics.median(imports) + statistics.median(gens), wl


def play(wl, seconds, tracer):
    """Play as many whole rounds as `seconds` holds at the workload's
    nominal round length; returns one record per operation and lane, and
    the spans of the traced lane.

    The round count depends on `seconds` alone, not on how fast this run
    goes, so every run of a workload has the same operations in the same
    mix, and a faster program is measured on the same work.
    """
    records, spans = [], []
    start = time.perf_counter()
    lanes = ("plain", "traced") if tracer else ("plain",)
    rounds = max(1, round(seconds / wl.ROUND_S))
    k = 0
    for _, batch in zip(range(rounds), wl.rounds()):
        for op in batch:
            if time.perf_counter() - start >= HARD_STOP_S:
                return records, spans
            order = lanes if k % 2 == 0 else lanes[::-1]
            for lane in order:
                outcome = run_op(wl, op, lane, k, tracer, spans)
                wrong = None
                if outcome.error is None:
                    wrong = wl.check(op, outcome)
                    if wrong:
                        print(f"WRONG {wl.label(op)}: {wrong}",
                              file=sys.stderr)
                records.append({
                    "op": k, "lane": lane, "label": wl.label(op),
                    "seconds": outcome.seconds, "error": outcome.error,
                    "wrong": wrong, **outcome.info})
            k += 1
    return records, spans


def run_op(wl, op, lane, k, tracer, spans):
    if lane == "plain":
        return wl.execute(op, lane)
    if wl.name == "cli_mix":
        path = os.path.join(wl.workdir, f"spans-{k}.json")
        outcome = wl.execute(op, lane, request=k, spans_path=path)
        if os.path.exists(path):
            with open(path) as fh:
                child = json.load(fh)
            absorb(spans, child["spans"])
            tracer.counts.update(child["counts"])
            outcome.info["spawn_import_s"] = child["spawn_import_s"]
        return outcome
    tracer.request = k
    tracer.install()
    try:
        return wl.execute(op, lane)
    finally:
        tracer.uninstall()
        absorb(spans, tracer.spans)
        tracer.spans.clear()


def absorb(spans, more):
    """Append spans recorded elsewhere, shifting their parent indices."""
    base = len(spans)
    spans.extend([n, s, e, p + base if p >= 0 else -1, r]
                 for n, s, e, p, r in more)


def summarize(records, lanes):
    """Successful, correct operations of the plain lane, and per lane the
    (attempted, failed) counts; a wrong result counts as failed."""
    tallies = {}
    for lane in lanes:
        mine = [r for r in records if r["lane"] == lane]
        bad = sum(1 for r in mine if r["error"] or r["wrong"])
        tallies[lane] = (len(mine), bad)
    ok = [r for r in records if r["lane"] == "plain"
          and not r["error"] and not r["wrong"]]
    return ok, tallies


# ---------------------------------------------------------------------------
# Metrics.


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples above it; with ten or fewer samples, the maximum (100)."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(wl, records, setup_s):
    ok, tallies = summarize(records, ("plain",))
    attempted, failed = tallies["plain"]
    secs = [r["seconds"] for r in ok]
    if not secs:
        raise SystemExit("benchmark: no operation succeeded")
    if wl.name == "cli_mix":
        rss = max(r["rss_mb"] for r in records)
    else:
        rss = _maxrss_mb()
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ms": {"value": 1000 * statistics.median(secs), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail(secs)[0], "unit": "ms"},
        "ops_per_s": {"value": len(secs) / sum(secs), "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "ok_frac": {"value": (attempted - failed) / attempted,
                    "unit": "frac"},
    }


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(wl, records, spans, tracer):
    from tracing import self_times
    traced = [r for r in records if r["lane"] == "traced"]
    plain = [r for r in records if r["lane"] == "plain"]
    ops = max(1, len(traced))
    st = self_times(spans)
    c = tracer.counts

    def per_op(name):
        return st.get(name, (0.0, 0))[0] / ops

    def ratio(a, b):
        return a / b if b else 0.0

    computes = [r for r in traced if r.get("hit") is not None]
    spawn = [r["spawn_import_s"] for r in traced if "spawn_import_s" in r]
    values = {
        "arith.rf_normalize_s": per_op("arith.rf_normalize"),
        "arith.poly_exact_div_calls": c["arith.poly_exact_div_calls"] / ops,
        "arith.not_divisible_frac": ratio(c["arith.not_divisible"],
                                          c["arith.poly_exact_div_calls"]),
        "arith.rf_sum_common_s": per_op("arith.rf_sum_common"),
        "arith.assembly_den_factors": c["arith.assembly_den_factors"] / ops,
        "arith.assembly_num_terms": c["arith.assembly_num_terms"] / ops,
        "arith.rf_series_coeffs_s": per_op("arith.rf_series_coeffs"),
        "arith.rf_equal_s": per_op("arith.rf_equal"),
        "cones.extreme_rays_s": per_op("cones.extreme_rays"),
        "cones.rays": c["cones.rays"] / ops,
        "cones.face_lattice_s": per_op("cones.face_lattice"),
        "cones.faces": c["cones.faces"] / ops,
        "cones.decompose_s": per_op("cones.decompose"),
        "cones.pieces": c["cones.pieces"] / ops,
        "cones.box_points_s": per_op("cones.box_points"),
        "cones.box_points": c["cones.box_points"] / ops,
        "zeta.enumerate_Wd_s": per_op("zeta.enumerate_Wd"),
        "zeta.pairs": c["zeta.pairs"] / ops,
        "zeta.sigma_contexts": c["zeta.sigma_contexts"] / ops,
        "zeta.check_functional_equation_s":
            per_op("zeta.check_functional_equation"),
        "zeta.pole_report_s": per_op("zeta.pole_report"),
        "zeta.self_s": sum(s for n, (s, _) in st.items()
                           if n.startswith("zeta.")) / ops,
        "combinat.gaussian_s": per_op("combinat.gaussian"),
        "combinat.omega_calls": c["combinat.omega_calls"],
        "oracle.count_subalgebras_s": per_op("oracle.count_subalgebras"),
        "oracle.hnf_lattices": c["oracle.hnf_lattices"] / ops,
        "oracle.subalgebra_frac": ratio(c["oracle.subalgebras"],
                                        c["oracle.hnf_lattices"]),
        "oracle.gss_partial_s": per_op("oracle.gss_partial"),
        "cli.spawn_import_s": ratio(sum(spawn), len(spawn)),
        "cli.cache_hit_frac": ratio(sum(r["hit"] for r in computes),
                                    len(computes)),
        "cli.load_result_s": per_op("cli.load_result"),
        "cli.store_result_s": per_op("cli.store_result"),
        "cli.cache_bytes": ratio(c["cli.cache_bytes"], c["cli.stores"]),
        "trace.overhead_frac": ratio(sum(r["seconds"] for r in traced),
                                     sum(r["seconds"] for r in plain)) - 1,
    }
    return {name: {"value": v, "unit": _unit(name)}
            for name, v in values.items()}


def _unit(name):
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_s"):
        return "s/op"
    if name == "combinat.omega_calls":
        return "count"
    if name == "cli.cache_bytes":
        return "B"
    return "count/op"


# ---------------------------------------------------------------------------
# Output.


def report(wl, args, records, metrics, setup_s, setup_rss_mb, attempted,
           failed):
    plain = [r for r in records if r["lane"] == "plain"]
    rounds_s = sum(r["seconds"] for r in plain)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}: "
          f"{attempted} operations, {failed} failed, {rounds_s:.1f} s busy")
    for r in records:
        if r["error"]:
            print(f"  failed ({r['lane']}): {r['label']}: {r['error'][:120]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        return
    short, noun, rate, scale, unit = DISPLAY[wl.name]
    ok = [r["seconds"] for r in plain if not r["error"] and not r["wrong"]]
    value, pct = tail(ok)
    lines = [
        (f"{short}_p50_{unit}", statistics.median(ok) * scale, unit,
         f"median of {len(ok)} successful {noun}s"),
        (f"{short}_tail_{unit}", value * scale, unit,
         f"p{pct:.1f} of {len(ok)} {noun}s, 10 above it" if pct < 100 else
         f"maximum of {len(ok)} {noun}s (too few for a percentile with "
         f"ten above it)"),
        (rate, len(ok) / sum(ok), "1/s",
         f"successful {noun}s per busy second"),
        ("setup_s", setup_s, "s", "import + input generation, medians of "
         f"{SETUP_REPEATS}"),
        ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB",
         "max over child processes" if wl.name == "cli_mix"
         else f"this process; {setup_rss_mb:.1f} MB after set-up"),
        ("failed_frac", failed / attempted, "frac",
         f"{failed} of {attempted} failed or wrong"),
    ]
    for name, v, u, note in lines:
        print(f"  {name:14s} {v:12.4f} {u:5s} ({note})")
    if wl.name == "cli_mix":
        computes = [r for r in plain if r.get("hit") is not None]
        hits = sum(r["hit"] for r in computes)
        print(f"  cache hits: {hits} of {len(computes)} compute requests "
              f"({hits / len(computes):.0%})")
    else:
        hit = sum(r["failing_class"] for r in plain)
        print(f"  failing-class inputs: {hit} of {len(plain)} attempted "
              f"({hit / len(plain):.1%}); {wl.failing_share():.1%} of the "
              f"drawable inputs")


def write_details(args, records, spans, metrics):
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "records": records,
                   "metrics": metrics, "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
