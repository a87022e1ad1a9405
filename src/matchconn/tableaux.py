"""Partitions, hooks, standard tableaux, and the rank formulas they feed.

Partitions are weakly decreasing tuples of positive ints. The enumeration
order is reverse lexicographic, so (n) comes first and the all-ones
partition last; reports and spectra freeze this order.

The headline quantity is the rational rank formula: the sum of squared-shape
tableau counts f^(2*lambda) over the partitions of n that do NOT contain
(2,2,2), which equals the rational rank of the order-2n matchings
connectivity matrix. Independent cross-checks live alongside: a bipartite
central binomial identity, the double factorial identity for all shapes,
and a three-column report on two near-miss literal shape families that is
deliberately never asserted as an identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

from .exactalg import ValidationError, rank
from .matchings import build_M

__all__ = [
    "Partition",
    "partitions",
    "covers",
    "hook_lengths",
    "f_lambda",
    "double_factorial",
    "rational_rank_formula",
    "noncover_partitions",
    "bipartite_rank_check",
    "catalan",
    "domino_hook_report",
    "DominoHookRow",
]


@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.parts):
            raise ValidationError(f"partition parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValidationError(f"parts must weakly decrease: {self.parts}")

    def text(self) -> str:
        return "+".join(str(p) for p in self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)

    def double(self) -> "Partition":
        """The shape 2*lambda: every part doubled."""
        return Partition(tuple(2 * p for p in self.parts))

    def transpose(self) -> "Partition":
        if not self.parts:
            return self
        cols = [sum(1 for p in self.parts if p >= c) for c in range(1, self.parts[0] + 1)]
        return Partition(tuple(cols))

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __str__(self) -> str:
        return self.text() or "()"


def _descending(n: int, cap: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _descending(n - first, first):
            out.append((first, *rest))
    return out


@lru_cache(maxsize=None)
def _partitions_cached(n: int) -> tuple[Partition, ...]:
    return tuple(Partition(t) for t in _descending(n, n))


def partitions(n: int) -> list[Partition]:
    """Partitions of n in reverse lexicographic order, (n) first."""
    if n < 0:
        raise ValidationError("partitions of a negative integer")
    return list(_partitions_cached(n))


def covers(lam: Partition, mu: Partition) -> bool:
    """True iff the diagram of mu fits inside the diagram of lam."""
    if mu.length() > lam.length():
        return False
    return all(lam.parts[i] >= mu.parts[i] for i in range(mu.length()))


def hook_lengths(lam: Partition) -> dict[tuple[int, int], int]:
    """Hook length of each cell (row, col), 1-based."""
    t = lam.transpose().parts
    return {
        (r, c): (lam.parts[r - 1] - c) + (t[c - 1] - r) + 1
        for r in range(1, lam.length() + 1)
        for c in range(1, lam.parts[r - 1] + 1)
    }


def f_lambda(lam: Partition) -> int:
    """Number of standard tableaux of shape lambda, by the hook formula."""
    hooks = hook_lengths(lam)
    num = factorial(lam.n)
    den = prod(hooks.values())
    if num % den:
        raise AssertionError(f"hook product does not divide {lam.n}! for {lam}")
    return num // den


def double_factorial(m: int) -> int:
    """Product of the odd numbers down from m (m odd), 1 for m <= 0."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


_FORBIDDEN = Partition((2, 2, 2))


def noncover_partitions(n: int) -> list[Partition]:
    """Partitions of n whose diagram does not contain a 2x3 block (2,2,2)."""
    return [lam for lam in partitions(n) if not covers(lam, _FORBIDDEN)]


def rational_rank_formula(n: int) -> int:
    """Sum of f^(2*lambda) over partitions of n not containing (2,2,2)."""
    return sum(f_lambda(lam.double()) for lam in noncover_partitions(n))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def bipartite_rank_check(n: int) -> tuple[int, int]:
    """(formula, measured): central binomial C(2n-2, n-1) against the rank of
    the bipartite block of the order-2n connectivity matrix.

    The block keeps only matchings of {1..2n} in which every pair crosses
    between {1..n} and {n+1..2n}; there are n! of them.
    """
    if n < 2 or n > 5:
        raise ValidationError("bipartite check supported for 2 <= n <= 5")
    M = build_M(2 * n)
    low = set(range(1, n + 1))
    keep = [
        i
        for i, m in enumerate(M.row_labels)
        if all((u in low) != (v in low) for u, v in m.pairs)
    ]
    if len(keep) != factorial(n):
        raise AssertionError("bipartite matching count is off")
    sub = M.submatrix(keep, keep)
    return comb(2 * n - 2, n - 1), rank(sub)


@dataclass(frozen=True)
class DominoHookRow:
    n: int
    literal_sum: int
    catalan_product: int
    noncover_sum: int


def domino_hook_report(n: int) -> DominoHookRow:
    """Three columns for one n, reported side by side and never asserted equal.

    literal_sum: f^(2*lambda) summed over the distinct literal shapes
    (k, k, 1^(n-2k)) for 2k <= n, reading k = 0 as the all-ones column.
    catalan_product: C_{n-1} * C_n.
    noncover_sum: the rational rank formula value.
    """
    if n < 2:
        raise ValidationError("domino hook report needs n >= 2")
    shapes = {Partition((1,) * n)}
    for k in range(1, n // 2 + 1):
        shapes.add(Partition((k, k) + (1,) * (n - 2 * k)))
    literal = sum(f_lambda(s.double()) for s in sorted(shapes))
    return DominoHookRow(
        n=n,
        literal_sum=literal,
        catalan_product=catalan(n - 1) * catalan(n),
        noncover_sum=rational_rank_formula(n),
    )
