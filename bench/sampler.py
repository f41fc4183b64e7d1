"""The pairs (I, sigma) of the zeta sum that the d = 4 workloads draw from.

Enumerating W_4 through ``enumerate_Wd(4)`` takes minutes.  Instead, every
partition pair (lam, nu) with |lam| + |nu| <= N is mapped through the
public ``combinat.omega_of_pair``; the distinct images are pairs of W_d,
and the pairs themselves index the reference counts that check the
results (see ``reference.py``).  At d = 4, N = 16 this maps 6274 partition
pairs onto 796 distinct pairs; ``workloads.py`` draws from them with the
run's seed.

A pair whose computation fails is never dropped or drawn again: the known
``SigmaContext.qt_exponents`` defect (shuffles ending in the run
6,5,4,3,2,1) must show as failed operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from nilzeta import combinat

D = 4
PAIR_TOTAL = 16


def partition_pairs(d, total):
    """All (lam, nu), padded to d and d' parts, with |lam| + |nu| <= total
    and nu fitting under the pairwise sums mu(lam), as in gss_partial."""
    dp = d * (d - 1) // 2
    for lam in combinat.partitions_upto(d, total):
        lam = (lam + (0,) * d)[:d]
        mu = combinat.mu_of_lambda(lam)
        for nu in combinat.partitions_upto(dp, total - sum(lam)):
            nu = (nu + (0,) * dp)[:dp]
            if all(a <= b for a, b in zip(nu, mu)):
                yield lam, nu


@dataclass
class PairIndex:
    """Distinct pairs reached from partition pairs up to a total size.

    ``witnesses[pair]`` lists the partition pairs mapping to ``pair``,
    smallest first (by total size, then lam, then nu).
    """

    d: int
    total: int
    witnesses: dict

    @classmethod
    def build(cls, d, total):
        witnesses = {}
        for lam, nu in partition_pairs(d, total):
            # looked up on the module so that a traced run counts the calls
            I, sigma = combinat.omega_of_pair(d, lam, nu)
            witnesses.setdefault((I, sigma), []).append(
                (sum(lam) + sum(nu), lam, nu))
        for ws in witnesses.values():
            ws.sort()
        return cls(d, total, witnesses)

    def pairs(self):
        """The distinct pairs in a fixed order, independent of dict order."""
        return sorted(self.witnesses,
                      key=lambda p: (sorted(p[0]), p[1]))

    def partition_pair_count(self):
        return sum(len(ws) for ws in self.witnesses.values())


def failing_class(pair):
    """True for the shuffles that trip the qt_exponents assertion."""
    return tuple(pair[1][-6:]) == (6, 5, 4, 3, 2, 1)


def pair_key(pair):
    """A JSON-friendly, order-independent spelling of a pair."""
    return [sorted(pair[0]), list(pair[1])]


def pair_from_key(key):
    return frozenset(key[0]), tuple(key[1])
