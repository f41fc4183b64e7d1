"""Independent references that the benchmark checks results against.

The d = 4 check: at q = 2 the power series of ``zeta_padic(4, pairs=S)`` up
to t^N equals the number of partition pairs (lam, nu) of total size <= N
whose ``omega_of_pair`` lies in S, each counted with the weight of the
``gss_partial`` double sum.  The zeta side goes through cones and the
rational-function assembly; the reference side only counts subgroups of
abelian p-groups, so the two routes share no assembly code.

The same filtered count checks the CLI's overlap and no-overlap summands
(filter: the shuffle's Dyck word); full results are checked against the
frozen closed forms in ``nilzeta.golden``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from nilzeta import arith, combinat, golden, oracle

Q = 2


def pair_weight(d, lam, nu, p=Q):
    """gss_partial's weight of one partition pair: the number of
    subalgebras with abelianization cotype lam and centre cotype nu."""
    rect = (lam[0],) * d
    a_lam = combinat.alpha_count(rect, lam).evaluate((Fraction(p),))
    a_nu = combinat.alpha_count(combinat.mu_of_lambda(lam),
                                nu).evaluate((Fraction(p),))
    return int(a_lam * a_nu) * p ** (d * sum(nu))


def filtered_counts(index, keep):
    """Coefficients [c_0..c_N] summed over the partition pairs of every
    indexed pair for which keep(pair) is true."""
    out = [0] * (index.total + 1)
    cache = {}
    for pair, ws in index.witnesses.items():
        if not keep(pair):
            continue
        for n, lam, nu in ws:
            key = (lam, nu)
            if key not in cache:
                cache[key] = pair_weight(index.d, lam, nu)
            out[n] += cache[key]
    return out


def series(value, order):
    """Integer coefficients of t^0..t^order of a (q, t) result at q = 2."""
    return [int(c) for c in arith.rf_series_coeffs(value, Q, order)]


def check_pairs(index, pairs, value):
    """None if ``zeta_padic(d, pairs=pairs)``'s result `value` matches the
    filtered count, else a reason."""
    wanted = set(pairs)
    ref = filtered_counts(index, wanted.__contains__)
    got = series(value, index.total)
    if got != ref:
        n = next(i for i, (a, b) in enumerate(zip(got, ref)) if a != b)
        return f"t^{n}: series {got[n]} != partition-pair count {ref[n]}"
    return None


# ---------------------------------------------------------------------------
# CLI outputs.


def _dyck_word(d, pair):
    return "".join(map(str, combinat.dyck_of_sigma(d, pair[1])))


def check_compute(obj, request, indexes):
    """Check the JSON printed by ``nilzeta compute``; None if it holds."""
    d, kind = request["d"], request["kind"]
    if obj.get("d") != d:
        return f"d={obj.get('d')} in the output, {d} requested"
    if kind == "topological":
        value = _lff_from_json(obj["value"])
        ok = arith.lff_equal(value, golden.golden_topological(d))
        return None if ok else "topological value differs from golden"
    value = arith.FactoredRationalFunction.from_json_obj(obj["value"])
    if kind == "reduced":
        ok = arith.rf_equal(value, golden.golden_reduced(d))
        return None if ok else "reduced value differs from golden"
    if kind == "padic":
        ok = arith.rf_equal(value, golden.golden_padic(d))
        return None if ok else "padic value differs from golden"
    if kind == "no-overlap":
        word = "".join(map(str, combinat.trivial_dyck_word(d)))
    else:
        word = request["word"]
    index = indexes[d]
    ref = filtered_counts(index, lambda p: _dyck_word(d, p) == word)
    got = series(value, index.total)
    if got != ref:
        return f"{kind} {word}: series {got} != partition-pair count {ref}"
    return None


def check_report(obj, d):
    if obj.get("consistent") is not True:
        return "report not consistent"
    if Fraction(obj["c_d"]) != golden.C_CONSTANTS[d]:
        return f"c_d = {obj['c_d']}, expected {golden.C_CONSTANTS[d]}"
    return None


def check_oracle(text, d, p, n):
    want = oracle.gss_partial(d, p, n)[n]
    try:
        got = int(text.strip())
    except ValueError:
        return f"oracle printed {text.strip()!r}"
    return None if got == want else f"oracle count {got} != gss {want}"


def check_verify(text):
    lines = [ln for ln in text.splitlines()
             if ln.startswith(("PASS", "FAIL"))]
    if not lines or any(ln.startswith("FAIL") for ln in lines):
        return "verify printed no PASS line or a FAIL line"
    return None


def _lff_from_json(obj):
    num = [0] * (max((row[2] for row in obj["num"]), default=-1) + 1)
    for cn, cd, i in obj["num"]:
        num[i] = Fraction(int(cn), int(cd))
    den = {(b, a): m for m, b, a in obj["den"]}
    return arith.LinearFactoredFunction(num, den)


def parse_json(text):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"
