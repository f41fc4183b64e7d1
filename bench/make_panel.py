"""Regenerate ``panel_d4.json``: what each d = 4 pair costs.

    PYTHONPATH=src python3 bench/make_panel.py

For each of the 796 pairs reached by the sampler (N = 16) it times
``zeta_padic(4, pairs=[p])``, each call in a fresh process, and records
"fail" where the call raises (the qt_exponents defect), "over" where it
runs past PAIR_CAP_S, and otherwise the median of three timings, since one
timing ranks pairs only to within about 20 % (a re-timing past the cap
counts as the cap).  ``workloads.py`` sorts the pairs by these seconds
into strata; only the order matters, so the file carries over to other
machines, and a stale file changes which pairs share a stratum, never
whether a result is checked.

The committed file was made on a 2-core x86-64 VM with Python 3.11.7:
about 15 minutes with two worker processes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sampler import D, PAIR_TOTAL, PairIndex, pair_key  # noqa: E402
from nilzeta.zeta import WPair, zeta_padic  # noqa: E402

PAIR_CAP_S = 3
WORKERS = 2
OUTPUT = os.path.join(HERE, "panel_d4.json")


class _Over(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Over


def cost(pair):
    """Seconds of one zeta_padic call on one pair, or "fail" / "over"."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(PAIR_CAP_S)
    start = time.perf_counter()
    try:
        zeta_padic(D, pairs=[WPair(D, *pair)])
        return round(time.perf_counter() - start, 4)
    except AssertionError:
        return "fail"
    except _Over:
        return "over"
    finally:
        signal.alarm(0)


def main():
    pairs = PairIndex.build(D, PAIR_TOTAL).pairs()
    # a fresh process per call: a call cut short by the cap leaves its
    # shuffle's cone data cached, which would speed up later calls
    with ProcessPoolExecutor(
            WORKERS, mp_context=multiprocessing.get_context("spawn"),
            max_tasks_per_child=1) as pool:
        costs = list(pool.map(cost, pairs))
        done = [i for i, c in enumerate(costs) if isinstance(c, float)]
        again = list(pool.map(cost, [pairs[i] for i in done] * 2))
    for k, i in enumerate(done):
        times = [costs[i]] + [PAIR_CAP_S if t == "over" else t
                              for t in (again[k], again[len(done) + k])]
        costs[i] = sorted(times)[1]
    panel = {"d": D, "pair_total": PAIR_TOTAL, "pair_cap_s": PAIR_CAP_S,
             "pairs": [[pair_key(p), c] for p, c in zip(pairs, costs)]}
    with open(OUTPUT, "w") as fh:
        json.dump(panel, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
