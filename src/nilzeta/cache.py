"""Computed results, their cache files and the checks a cached one passes.

A cache hit reads one file, decodes it with arith and revalidates it here,
so serving it loads none of the modules that compute a result (zeta, cones,
combinat).  zeta imports every name below and exposes it as its own.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

from .arith import (
    FactoredRationalFunction,
    LinearFactoredFunction,
    rf_equal,
    rf_invert_vars,
)

QT = ("q", "t")
T = ("t",)

CACHE_FORMAT_VERSION = 1


def _dprime(d):
    return d * (d - 1) // 2


class ZetaResult:
    """A computed function with its d, kind and provenance."""

    def __init__(self, d, kind, value, provenance=None):
        self.d = d
        self.kind = kind
        self.value = value
        self.provenance = {} if provenance is None else provenance

    def _key(self):
        return (self.d, self.kind, self.value, self.provenance)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    # mutable, so unhashable
    __hash__ = None

    def __repr__(self):
        return (f"ZetaResult(d={self.d!r}, kind={self.kind!r}, "
                f"value={self.value!r}, provenance={self.provenance!r})")

    def to_json_obj(self):
        """The cache file's object, and --format json's: the cache
        file's bytes follow this key order."""
        return {"d": self.d, "kind": self.kind,
                "value": self.value.to_json_obj(),
                "provenance": self.provenance}


def dyck_word(d, word):
    """The overlap type that word (a string or a sequence of 0s and 1s)
    names, as a tuple; ValueError unless it is a Dyck word of length 2d'."""
    text, n = "".join(map(str, word)), 2 * _dprime(d)
    heights = list(accumulate(1 if c == "0" else -1 for c in text))
    if set(text) - {"0", "1"} or len(text) != n or min(heights) < 0 \
            or heights[-1]:
        raise ValueError(f"not a Dyck word of length {n}: {text}")
    return tuple(map(int, text))


def check_functional_equation(value: FactoredRationalFunction, D: int) -> bool:
    """zeta(1/q, 1/t) = (-1)^D q^(D choose 2) t^D zeta(q, t).

    In the t arena, the q -> 1 limit, it reads zeta(1/t) = (-1)^D t^D zeta(t).
    """
    lhs = rf_invert_vars(value)
    sign = -1 if D % 2 else 1
    shift = (comb(D, 2), D) if value.vars == QT else (D,)
    rhs = FactoredRationalFunction(
        value.num.shift(shift).scale(sign), value.den)
    return rf_equal(lhs, rhs)


def top_residue_at_0(top: LinearFactoredFunction) -> Fraction:
    """The residue of the topological function at its pole s = 0;
    ValueError unless that pole is simple."""
    num0 = Fraction(top.num[0]) if top.num else Fraction(0)
    s_mult = 0
    other = Fraction(1)
    s_coeff = 1
    for (b, a), m_ in top.den.items():
        if a == 0:
            s_mult += m_
            s_coeff *= b ** m_
        else:
            other *= Fraction(-a) ** m_
    if s_mult != 1:
        raise ValueError(f"pole at s=0 has order {s_mult}, expected simple")
    return num0 / (s_coeff * other)


def expected_top_residue(D):
    """The residue (-1)^(D-1) / (D-1)! that the topological function of a
    Lie ring of rank D has at s = 0."""
    return Fraction((-1) ** (D - 1), factorial(D - 1))


# ---------------------------------------------------------------------------
# Cache files.


def cache_path(cache_dir, d, kind):
    safe = kind.replace(":", "_")
    return os.path.join(cache_dir,
                        f"v{CACHE_FORMAT_VERSION}_d{d}_{safe}.json")


def store_result(cache_dir, result: ZetaResult):
    """Write the result atomically: a killed or concurrent writer never
    leaves a partial file under the cache name."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, result.d, result.kind)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(result.to_json_obj(), fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_result(cache_dir, d, kind):
    """The cached result, or None on a miss.

    A file that cannot be read or decoded, or fails revalidation, is a
    miss, reported with a one-line reason on stderr.
    """
    path = cache_path(cache_dir, d, kind)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            obj = json.load(fh)
        stored = (obj["d"], obj["kind"])
        if kind == "topological":
            value = LinearFactoredFunction.from_json_obj(obj["value"])
        else:
            value = FactoredRationalFunction.from_json_obj(obj["value"])
        provenance = obj.get("provenance", {})
    except (OSError, KeyError, ValueError, TypeError,
            ZeroDivisionError) as exc:
        # ValueError covers json.JSONDecodeError and UnicodeDecodeError,
        # OSError an entry that cannot be opened (a directory, say)
        reason = f"unreadable ({type(exc).__name__}: {exc})"
    else:
        reason = _revalidation_failure(d, kind, stored, value)
        if reason is None:
            return ZetaResult(d, kind, value, provenance)
    print(f"cache: ignoring {path}: {reason}".splitlines()[0],
          file=sys.stderr)
    return None


def _revalidation_failure(d, kind, stored, value):
    """Why a decoded cache entry cannot be trusted, or None if it can."""
    if value.is_zero():
        # it would pass the functional equation, and has no degree
        return "zero function"
    if stored != (d, kind):
        return f"holds d={stored[0]} kind {stored[1]}"
    D = d + _dprime(d)
    if kind == "topological":
        if value.degree() != -D:
            return f"degree {value.degree()}, expected {-D}"
        try:
            residue = top_residue_at_0(value)
        except ValueError as exc:
            return str(exc)
        expected = expected_top_residue(D)
        if residue != expected:
            return f"residue {residue} at s=0, expected {expected}"
    elif value.vars != (T if kind == "reduced" else QT):
        return f"variables {','.join(value.vars)}"
    elif not check_functional_equation(value, D):
        # so do every overlap summand and the q -> 1 limit
        return "fails the functional equation"
    return None
