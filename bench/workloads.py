"""The two workloads: inputs drawn from a seed, and one operation each.

Both are closed loops with one client and no threads: the next operation
starts when the previous one has returned.  Operations come in rounds, and
a run plays a fixed number of whole rounds (see ``run.py``).

Why stratified rounds.  The cost of a single d = 4 pair spans four orders
of magnitude (0.01-45 s), so a plain uniform draw of the few pairs that
fit in a run gives medians and rates that differ by 40-100 % from seed to
seed.  Instead ``panel_d4.json`` records what each pair cost, the pairs
are sorted by that cost into strata of equal count, and every round draws
one pair from each stratum, so every round has the same mix of cheap and
dear pairs while the seed still picks which ones.  Pairs that fail (the
``qt_exponents`` defect) form a stratum of their own, so every round
attempts exactly one of them and the failure always shows.

What a run cannot hold.  d4_summands leaves out the pairs that took over
3 s (the dearest 9 %), a cost on the machine that made the panel.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

import reference
import sampler
from nilzeta import zeta

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PANEL = os.path.join(HERE, "panel_d4.json")

# strata per round, and what one round takes on one core of a 2-core
# x86-64 VM with Python 3.11; run.py plays --seconds / ROUND_S rounds
PAIR_STRATA = 40
PAIR_ROUND_S = 15


def _strata(items, costs, count):
    """The failing items as one stratum, then the others in `count` strata
    of equal count by cost.  Items that ran over the panel's cap are left
    out."""
    failing = [it for it, c in zip(items, costs) if c == "fail"]
    ranked = [it for _, _, it in sorted(
        (c, i, it) for i, (it, c) in enumerate(zip(items, costs))
        if isinstance(c, (int, float)))]
    n = len(ranked)
    out = [ranked[k * n // count:(k + 1) * n // count] for k in range(count)]
    return ([failing] if failing else []) + out


def _rounds(strata, seed):
    """Endless rounds: one item per stratum, without replacement until a
    stratum is exhausted, in a seeded order."""
    rng = random.Random(seed)
    decks = [rng.sample(s, len(s)) for s in strata]
    r = 0
    while True:
        batch = [deck[r % len(deck)] for deck in decks]
        rng.shuffle(batch)
        yield batch
        r += 1


class Outcome:
    """What one operation returned: wall seconds, and either a value or
    the reason it failed."""

    __slots__ = ("seconds", "value", "error", "info")

    def __init__(self, seconds, value=None, error=None, info=None):
        self.seconds = seconds
        self.value = value
        self.error = error
        self.info = info or {}


class D4Workload:
    """``zeta_padic(4, pairs=[p])`` on single pairs p, checked against the
    partition-pair count.  An operation is a one-pair tuple."""

    ROUND_S = PAIR_ROUND_S

    def __init__(self, name, seed):
        self.name, self.seed = name, seed

    def setup(self):
        self.index = sampler.PairIndex.build(sampler.D, sampler.PAIR_TOTAL)
        with open(PANEL) as fh:
            panel = json.load(fh)
        items = [(sampler.pair_from_key(k),) for k, _ in panel["pairs"]]
        costs = [c for _, c in panel["pairs"]]
        if {it[0] for it in items} - set(self.index.witnesses):
            raise SystemExit(f"{PANEL} names pairs the sampler does not "
                             f"reach (N={sampler.PAIR_TOTAL}); regenerate it")
        self.strata = _strata(items, costs, PAIR_STRATA)
        self._rounds = _rounds(self.strata, self.seed)

    def rounds(self):
        return self._rounds

    def failing_share(self):
        items = [it for s in self.strata for it in s]
        return sum(sampler.failing_class(it[0]) for it in items) / len(items)

    def label(self, op):
        (I, sigma), = op
        return f"I={sorted(I)} sigma={','.join(map(str, sigma))}"

    def execute(self, op, lane):
        pairs = [zeta.WPair(sampler.D, I, s) for I, s in op]
        info = {"failing_class": any(map(sampler.failing_class, op))}
        start = time.perf_counter()
        try:
            # looked up on the module so that a traced run sees the call
            value = zeta.zeta_padic(sampler.D, pairs=pairs).value
        except AssertionError as exc:
            # the known SigmaContext.qt_exponents defect
            return Outcome(time.perf_counter() - start, info=info,
                           error=f"AssertionError {exc}".strip())
        return Outcome(time.perf_counter() - start, value=value, info=info)

    def check(self, op, outcome):
        return reference.check_pairs(self.index, op, outcome.value)

    def close(self):
        pass


class CliWorkload:
    """A stream of ``nilzeta`` CLI requests, one subprocess each, exactly
    as a user runs them (``python3 -m nilzeta.cli`` with ``src`` on the
    path).  Every run starts from an empty result cache, so the first
    ``compute`` of each kind in a run misses and later ones hit."""

    WORDS3 = ("000111", "001011", "001101", "010011", "010101")
    # what one round of the 27 requests takes, as for PAIR_ROUND_S
    ROUND_S = 11

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.cache_dirs = {}
        self.indexes = None

    @classmethod
    def catalog(cls):
        reqs = []
        for d in (2, 3):
            for kind in ("padic", "reduced", "topological"):
                reqs.append({"verb": "compute", "d": d, "kind": kind})
            for route in ("via_H", "via_G"):
                reqs.append({"verb": "compute", "d": d, "kind": "no-overlap",
                             "route": route})
        reqs.append({"verb": "compute", "d": 2, "kind": "overlap",
                     "word": "01"})
        for w in cls.WORDS3:
            reqs.append({"verb": "compute", "d": 3, "kind": "overlap",
                         "word": w})
        for d in (2, 3):
            for suite in ("golden", "funeq", "pole", "oracle"):
                reqs.append({"verb": "verify", "d": d, "suite": suite})
        reqs.append({"verb": "report", "d": 3})
        reqs.append({"verb": "oracle", "d": 3, "p": 2, "n": 3})
        reqs.append({"verb": "oracle", "d": 2, "p": 3, "n": 5})
        return reqs

    def setup(self):
        self._rounds = _rounds([[r] for r in self.catalog()], self.seed)
        for lane in ("plain", "traced"):
            path = os.path.join(self.workdir, f"cache-{lane}")
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
            self.cache_dirs[lane] = path

    def rounds(self):
        return self._rounds

    def label(self, op):
        return " ".join(self.argv(op, "<cache>"))

    @staticmethod
    def argv(op, cache_dir):
        verb, d = op["verb"], str(op["d"])
        if verb == "compute":
            argv = ["compute", "--d", d, "--kind", op["kind"],
                    "--format", "json", "--cache-dir", cache_dir]
            if "word" in op:
                argv += ["--word", op["word"]]
            if "route" in op:
                argv += ["--route", op["route"]]
        elif verb == "verify":
            argv = ["verify", "--d", d, "--suite", op["suite"],
                    "--cache-dir", cache_dir]
        elif verb == "report":
            argv = ["report", "--d", d, "--format", "json",
                    "--cache-dir", cache_dir]
        else:
            argv = ["oracle", "--d", d, "--p", str(op["p"]),
                    "--n", str(op["n"])]
        return argv

    def _cache_file(self, op, cache_dir):
        kind = op["kind"] if op["kind"] != "overlap" else \
            f"overlap:{op['word']}"
        kind = kind.replace("no-overlap", "no_overlap")
        # the file name the CLI's cache uses; the route is not part of it
        return zeta.cache_path(cache_dir, op["d"], kind)

    def execute(self, op, lane, request=0, spans_path=None):
        cache_dir = self.cache_dirs[lane]
        hit = None
        if op["verb"] == "compute":
            hit = os.path.exists(self._cache_file(op, cache_dir))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   NILZETA_CACHE=cache_dir)
        out_path = os.path.join(self.workdir, f"out-{lane}")
        err_path = os.path.join(self.workdir, f"err-{lane}")
        spawned = time.monotonic()
        if lane == "traced":
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"),
                   spans_path, str(request), repr(spawned), "--"]
        else:
            cmd = [sys.executable, "-m", "nilzeta.cli"]
        cmd += self.argv(op, cache_dir)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                    cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            text = fh.read()
        info = {"hit": hit, "rss_mb": usage.ru_maxrss / 1024,
                "returncode": proc.returncode}
        if proc.returncode != 0:
            with open(err_path) as fh:
                info["stderr"] = fh.read()[-400:]
        return Outcome(seconds, value=text, info=info)

    def check(self, op, outcome):
        """None if the request's output is right, else the reason; a
        nonzero exit status is a wrong output, not a known failure."""
        if outcome.info["returncode"] != 0:
            return (f"exit {outcome.info['returncode']}: "
                    f"{outcome.info['stderr']}")
        if self.indexes is None:
            self.indexes = {d: sampler.PairIndex.build(d, 10) for d in (2, 3)}
        text = outcome.value
        verb = op["verb"]
        if verb == "compute":
            obj, err = reference.parse_json(text)
            return err or reference.check_compute(obj, op, self.indexes)
        if verb == "report":
            obj, err = reference.parse_json(text)
            return err or reference.check_report(obj, op["d"])
        if verb == "oracle":
            return reference.check_oracle(text, op["d"], op["p"], op["n"])
        return reference.check_verify(text)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name, seed, workdir):
    if name == "d4_summands":
        return D4Workload(name, seed)
    if name == "cli_mix":
        return CliWorkload(name, seed, tempfile.mkdtemp(dir=workdir))
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("d4_summands", "cli_mix")
