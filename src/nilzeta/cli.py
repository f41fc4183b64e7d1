"""Command-line front end: compute, verify, and inspect zeta functions.

Each verb imports only what it runs: a cached compute reads the result
cache (cache, arith), and the engine (zeta, cones, combinat), the oracle
and the golden forms are imported where a verb sweeps, counts or
compares.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import isqrt

from . import cache
from .arith import FactoredRationalFunction, rf_equal

EXIT_OK = 0
EXIT_ORACLE_CAPACITY = 3
EXIT_USAGE = 64
EXIT_CANTCREAT = 73

# the largest --d whose sweep compute, verify and report can finish;
# oracle has its own capacity guard
MAX_D = 4

KINDS = ("padic", "overlap", "no-overlap", "reduced", "topological")


def default_cache_dir(flag_value):
    if flag_value:
        return flag_value
    # an empty NILZETA_CACHE means the default, as an unset one does
    return os.environ.get("NILZETA_CACHE") or ".nilzeta-cache"


def heartbeat(every=200):
    """A progress callback: every `every` pairs, and at the last, one
    `progress:` line on stderr with the rate since the callback was made
    and the time left at that rate."""
    start = time.monotonic()

    def cb(k, n):
        if k % every == 0 or k == n:
            line = f"progress: {k}/{n} pairs"
            elapsed = time.monotonic() - start
            if elapsed > 0:
                rate = k / elapsed
                line += f", {rate:.1f} pairs/s, eta {(n - k) / rate:.0f} s"
            print(line, file=sys.stderr, flush=True)
    return cb


def _latex_sum(terms):
    """A sum of (coefficient, monomial) terms, "" for the monomial 1: each
    sign folded into its + or -, a unit coefficient left out before a
    monomial."""
    bits = []
    for c, mono in terms:
        coeff = "" if abs(c) == 1 and mono else str(abs(c))
        bits.append(f"{'-' if c < 0 else '+'} {coeff}{mono}")
    return " ".join(bits).lstrip("+ ") or "0"


def render_latex(value):
    """Factored display with denominator factors by decreasing q-exponent."""
    if isinstance(value, FactoredRationalFunction):
        var_names = value.vars

        def mono(e):
            bits = []
            for v, x in zip(var_names, e):
                if x == 1:
                    bits.append(v)
                elif x:
                    bits.append(f"{v}^{{{x}}}")
            return " ".join(bits)

        num = _latex_sum((value.num.terms[e], mono(e))
                         for e in sorted(value.num.terms,
                                         key=lambda e: (e[-1], e)))
        den_bits = []
        for e, m in sorted(value.den.items(), key=lambda em: (-em[0][0], em[0])):
            factor = f"(1 - {mono(e)})"
            den_bits.append(factor + (f"^{{{m}}}" if m > 1 else ""))
        return f"\\frac{{{num}}}{{{''.join(den_bits) or '1'}}}"
    # univariate in s
    num = _latex_sum((c, "" if i == 0 else "s" if i == 1 else f"s^{{{i}}}")
                     for i, c in enumerate(value.num) if c)
    den = "".join((f"({b} s - {a})" if a else f"({b} s)")
                  + (f"^{{{m}}}" if m > 1 else "")
                  for (b, a), m in sorted(value.den.items()))
    return f"\\frac{{{num}}}{{{den or '1'}}}"


def render(result, fmt):
    if fmt == "json":
        return json.dumps(result.to_json_obj(), sort_keys=True)
    if fmt == "latex":
        return render_latex(result.value)
    return repr(result.value)


def _emit(text, output):
    """Print text, or write it to the file output; a file that cannot be
    written is one line on stderr and EXIT_CANTCREAT."""
    if not output:
        print(text)
        return EXIT_OK
    try:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"output: cannot write {output}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CANTCREAT
    return EXIT_OK


def cmd_compute(args):
    cache_dir = default_cache_dir(args.cache_dir)
    kind = args.kind
    # the key names what the entry holds: an overlap summand its word, a
    # via_G no-overlap function its route, as their ZetaResult kinds do
    cache_kind = kind.replace("no-overlap", "no_overlap")
    if kind == "overlap":
        cache_kind += f":{args.word}"
    elif args.route == "via_G":
        cache_kind += ":via_G"
    result = cache.load_result(cache_dir, args.d, cache_kind)
    if result is None:
        from . import zeta as zmod
        cb = heartbeat()
        if kind == "padic":
            result = zmod.zeta_padic(args.d, progress=cb)
        elif kind == "overlap":
            result = zmod.zeta_overlap(args.d, args.word, progress=cb)
        elif kind == "no-overlap":
            result = zmod.zeta_no_overlap(
                args.d, route=args.route or "via_H", progress=cb)
        elif kind == "reduced":
            result = zmod.zeta_reduced(args.d, progress=cb)
        else:
            result = zmod.zeta_topological(args.d, progress=cb)
        try:
            cache.store_result(cache_dir, result)
        except OSError as exc:
            path = cache.cache_path(cache_dir, result.d, result.kind)
            print(f"cache: cannot write {path}: {exc}".splitlines()[0],
                  file=sys.stderr)
    return _emit(render(result, args.format), args.output)


def _check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  {detail}" if detail else ""))
    return bool(ok)


def _verify_golden(d, sweep):
    from . import zeta as zmod
    from .golden import (golden_padic, golden_reduced, golden_topological,
                         padic_denominator_multiset)
    from .arith import NotDivisible, lff_equal, rf_with_denominator
    ok = True
    g = golden_padic(d)
    den = padic_denominator_multiset(d)
    if g is not None:
        ok &= _check(f"padic d={d} matches closed form",
                     rf_equal(sweep["padic"].value, g))
    elif den is not None:
        # no closed form, but the paper's denominator: the function must
        # have a numerator over it with constant term 1, and value 1 at s=0
        value = sweep["padic"].value
        try:
            one = rf_with_denominator(value, den).terms.get((0, 0)) == 1
        except NotDivisible:
            one = False
        ok &= _check(f"padic d={d} over the {sum(den.values())}-factor "
                     f"denominator, constant term 1", one)
        ok &= _check(f"padic d={d} value at s=0 is 1",
                     zmod.padic_at_zero_is_one(value, d + d * (d - 1) // 2))
    gr = golden_reduced(d)
    if gr is not None:
        ok &= _check(f"reduced d={d} matches closed form",
                     rf_equal(sweep["reduced"].value, gr))
    gt = golden_topological(d)
    if gt is not None:
        ok &= _check(f"topological d={d} matches closed form",
                     lff_equal(sweep["topological"].value, gt))
    return ok


def _verify_funeq(d, sweep):
    from . import zeta as zmod
    D = d + d * (d - 1) // 2
    ok = _check(f"functional equation, padic d={d}",
                zmod.check_functional_equation(sweep["padic"].value, D))
    ok &= _check(f"functional equation, no-overlap d={d}",
                 zmod.check_functional_equation(
                     zmod.zeta_no_overlap(d).value, D))
    for word, summand in sorted(sweep["overlap"].items()):
        ok &= _check(f"functional equation, overlap {word} d={d}",
                     zmod.check_functional_equation(summand.value, D))
    return ok


def _pole_report(d, sweep):
    from . import zeta as zmod
    return zmod.pole_report(d, sweep["reduced"], sweep["topological"],
                            c_d=sweep["c_d"])


def _verify_pole(d, sweep):
    rep = _pole_report(d, sweep)
    return _check(f"pole report d={d} self-consistent", rep.consistent(),
                  str(rep))


def _verify_oracle(d, sweep, p, order):
    from .oracle import compare_routes
    rep = compare_routes(d, p, order, sweep["padic"].value)
    print(rep.text())
    return _check(f"oracle routes d={d} p={p} order={order}", rep.ok)


# what each suite reads off the shared sweep over the pairs
SUITE_KINDS = {
    "golden": ("padic", "reduced", "topological"),
    "funeq": ("padic", "overlap"),
    "pole": ("reduced", "topological", "c_d"),
    "oracle": ("padic",),
}


def _sweep(d, kinds):
    """The one sweep over the pairs that a verify or report request reads,
    with progress lines on stderr."""
    from . import zeta as zmod
    return zmod.zeta_all(d, kinds, progress=heartbeat())


def cmd_verify(args):
    d = args.d
    ok = True
    suite = args.suite
    suites = SUITE_KINDS if suite == "all" else (suite,)
    if "oracle" in suites:
        from .oracle import CapacityExceeded, check_series_capacity
        # the guard costs nothing next to the sweep, so it runs first
        try:
            check_series_capacity(d, args.p, args.order)
        except CapacityExceeded as exc:
            print(f"oracle capacity exceeded: {exc}", file=sys.stderr)
            return EXIT_ORACLE_CAPACITY
    sweep = _sweep(d, {k for s in suites for k in SUITE_KINDS[s]})
    if suite in ("golden", "all"):
        ok &= _verify_golden(d, sweep)
    if suite in ("funeq", "all"):
        ok &= _verify_funeq(d, sweep)
    if suite in ("pole", "all"):
        ok &= _verify_pole(d, sweep)
    if suite in ("oracle", "all"):
        ok &= _verify_oracle(d, sweep, args.p, args.order)
    return EXIT_OK if ok else 1


def cmd_oracle(args):
    from .oracle import CapacityExceeded, count_subalgebras
    try:
        print(count_subalgebras(args.d, args.p, args.n))
    except CapacityExceeded as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAPACITY
    return EXIT_OK


def cmd_report(args):
    rep = _pole_report(args.d, _sweep(args.d, SUITE_KINDS["pole"]))
    obj = {k: str(v) if isinstance(v, Fraction) else v
           for k, v in vars(rep).items()}
    obj["consistent"] = rep.consistent()
    text = json.dumps(obj, sort_keys=True) if args.format == "json" else \
        "\n".join(f"{k}: {v}" for k, v in obj.items())
    return _emit(text, args.output)


def build_parser():
    p = argparse.ArgumentParser(
        prog="nilzeta",
        description="Subalgebra zeta functions of free class-2-nilpotent "
                    "Lie rings.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, formats):
        sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--output")
        sp.add_argument("--cache-dir")

    sc = sub.add_parser("compute", help="compute one zeta function")
    common(sc, ("json", "latex", "text"))
    sc.add_argument("--kind", choices=KINDS, default="padic")
    sc.add_argument("--word", help="Dyck word for --kind overlap, e.g. 0101")
    sc.add_argument("--route", choices=("via_H", "via_G"),
                    help="route for --kind no-overlap (default via_H)")
    sc.set_defaults(func=cmd_compute)

    sv = sub.add_parser("verify", help="run verification suites")
    sv.add_argument("--d", type=int, required=True)
    # accepted so that command lines shared with compute still parse;
    # verify recomputes everything and reads no cache
    sv.add_argument("--cache-dir")
    sv.add_argument("--suite",
                    choices=("golden", "funeq", "pole", "oracle", "all"),
                    default="all")
    sv.add_argument("--p", type=int, default=2)
    sv.add_argument("--order", type=int, default=2)
    sv.set_defaults(func=cmd_verify)

    so = sub.add_parser("oracle", help="brute-force subalgebra count")
    so.add_argument("--d", type=int, required=True)
    so.add_argument("--p", type=int, required=True)
    so.add_argument("--n", type=int, required=True)
    so.set_defaults(func=cmd_oracle)

    sr = sub.add_parser("report", help="pole/residue report")
    common(sr, ("json", "text"))
    sr.set_defaults(func=cmd_report)
    return p


def _usage_problem(args):
    """Why the parsed arguments name no computation, or None."""
    if args.d < 2:
        return "--d must be at least 2"
    if args.d > MAX_D and args.verb != "oracle":
        return f"--d must be at most {MAX_D} for {args.verb}"
    p = getattr(args, "p", None)
    if p is not None and not (p >= 2 and all(p % k for k in
                                             range(2, isqrt(p) + 1))):
        return f"--p must be a prime, not {p}"
    for flag in ("n", "order"):
        if getattr(args, flag, 0) < 0:
            return f"--{flag} must be at least 0"
    if getattr(args, "kind", None) == "overlap":
        if not args.word:
            return "--word is required with --kind overlap"
        try:
            cache.dyck_word(args.d, args.word)
        except ValueError as exc:
            return f"--word: {exc}"
    elif getattr(args, "word", None):
        return "--word only makes sense with --kind overlap"
    if getattr(args, "route", None) and args.kind != "no-overlap":
        return "--route only makes sense with --kind no-overlap"
    return None


def __getattr__(name):
    # the oracle's counter stays reachable as cli.count_subalgebras
    # without importing the oracle for every verb
    if name == "count_subalgebras":
        from .oracle import count_subalgebras
        return count_subalgebras
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    problem = _usage_problem(args)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
