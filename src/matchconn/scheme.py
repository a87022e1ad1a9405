"""The association scheme on perfect matchings, classed by union cycle type.

For fixed n, index the (2n-1)!! perfect matchings of 2n points; the class
matrix of a partition lambda of n has a 1 where two matchings union to a
multigraph of cycle type lambda (cycle lengths in matched-pair units). The
all-ones-partition class is the identity, the classes sum to the all-ones
matrix, and products of class matrices are nonnegative integer combinations
of class matrices: a commutative association scheme.

The connectivity matrix of order 2n is the class matrix of the one-part
partition (n), so its eigenvalues come with the scheme: for each partition
lambda, an integer eigenvalue computed by a hook-style content product over
the cells of lambda, with multiplicity f^(2*lambda). The eigenvalue is zero
exactly when lambda contains the 2x3 block, which is what drops the rank to
the noncover sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .exactalg import (
    RATIONALS,
    CapacityError,
    PrimeField,
    ValidationError,
    is_prime,
    nullity_shift,
)
from .matchings import build_M, enumerate_matchings, union_table
from .tableaux import Partition, double_factorial, f_lambda, partitions

__all__ = [
    "sphere_size",
    "verify_scheme_axioms",
    "eigenvalue_eta",
    "SpectralLine",
    "certify_spectrum",
    "spectrum_primes",
    "MAX_SCHEME_N",
]

# The bound comes from memory, not time: p(n) dense N x N int8 class arrays,
# N = (2n-1)!!, plus the int64 code table they are split from. At n = 6
# (N = 10,395) that is about 1.2 GB of arrays and 0.9 GB of codes.
MAX_SCHEME_N = 5


def sphere_size(n: int, lam: Partition) -> int:
    """Number of matchings at union-type lambda from any fixed matching.

    Closed form 2^n n! / (2^len(lam) z_lam) with z_lam the usual
    permutation centralizer size for the partition.
    """
    if lam.n != n:
        raise ValidationError(f"{lam} is not a partition of {n}")
    z = prod(p**m * factorial(m) for p, m in lam.multiplicities().items())
    num = (1 << n) * factorial(n)
    den = (1 << lam.length()) * z
    if num % den:
        raise AssertionError("sphere size is not integral")
    return num // den


def _class_arrays(n: int) -> dict[Partition, np.ndarray]:
    if n < 1 or n > MAX_SCHEME_N:
        raise CapacityError(f"scheme order n={n} outside 1..{MAX_SCHEME_N}")
    ms = enumerate_matchings(2 * n)
    codes = union_table(ms, ms, cycle_types=True)
    # union_table's code of a cycle type: one base-(n + 1) digit per length
    return {
        lam: (codes == sum((n + 1) ** (p - 1) for p in lam.parts)).astype(np.int8)
        for lam in partitions(n)
    }


def verify_scheme_axioms(n: int) -> list[str]:
    """Check all five scheme axioms exactly; return one line per failure,
    naming the failing class or pair, and [] when all hold.

    Products are taken with float64 matrix multiplication, which is exact
    here: entries of any product are bounded by the matrix size (at most
    945 for n <= 5), far below 2^53.
    """
    arrs = _class_arrays(n)
    lams = partitions(n)
    size = next(iter(arrs.values())).shape[0]
    failures: list[str] = []

    ones = Partition((1,) * n)
    if not np.array_equal(arrs[ones], np.eye(size, dtype=np.int8)):
        failures.append("identity: class of the all-ones partition is not I")

    total = np.zeros((size, size), dtype=np.int64)
    for arr in arrs.values():
        total += arr
    if not (total == 1).all():
        failures.append("sum: class matrices do not partition the all-ones matrix")

    for lam, arr in arrs.items():
        if not np.array_equal(arr, arr.T):
            failures.append(f"symmetry: class {lam} is not symmetric")

    floats = {lam: arrs[lam].astype(np.float64) for lam in lams}
    supports = {lam: arrs[lam].astype(bool) for lam in lams}
    closed = True  # no closure failure so far
    for i, la in enumerate(lams):
        for lb in lams[i:]:
            prod_ab = floats[la] @ floats[lb]
            if not np.array_equal(prod_ab, floats[lb] @ floats[la]):
                failures.append(f"commutativity: {la} and {lb}")
            recon = np.zeros_like(prod_ab)
            for lc in lams:
                sup = supports[lc]
                vals = prod_ab[sup]
                if vals.size == 0:
                    continue
                v0 = vals[0]
                if not (vals == v0).all():
                    closed = False
                    failures.append(
                        f"closure: product {la} * {lb} is not constant on class {lc}"
                    )
                    continue
                if v0 != int(v0) or v0 < 0:
                    closed = False
                    failures.append(
                        f"closure: product {la} * {lb} has coefficient {v0} on {lc}"
                    )
                recon += v0 * arrs[lc]
            if closed and not np.array_equal(recon, prod_ab):
                closed = False
                failures.append(f"closure: {la} * {lb} not in the class span")
    return failures


def eigenvalue_eta(n: int, lam: Partition) -> int:
    """Eigenvalue of the order-2n connectivity matrix on the lambda eigenspace.

    Content-style product over all cells (row r, col c) of lambda except
    (1,1): the factor is 2*(c-1) - (r-1). Zero exactly when some cell sits
    at 2*(c-1) = r-1 with (r,c) != (1,1), which happens precisely when the
    diagram contains the 2x3 block.
    """
    if lam.n != n:
        raise ValidationError(f"{lam} is not a partition of {n}")
    out = 1
    for r in range(1, lam.length() + 1):
        for c in range(1, lam.parts[r - 1] + 1):
            if (r, c) == (1, 1):
                continue
            out *= 2 * (c - 1) - (r - 1)
    return out


@dataclass(frozen=True)
class SpectralLine:
    lam: Partition
    eta: int
    multiplicity: int
    nullity_measured: int
    ok: bool


def spectrum_primes(n: int, count: int = 2, floor: int = 50) -> list[int]:
    """Smallest primes above the floor keeping all eigenvalues distinct mod p."""
    etas = [eigenvalue_eta(n, lam) for lam in partitions(n)]
    out = []
    p = floor + 1
    while len(out) < count:
        while not is_prime(p):
            p += 1
        if len({e % p for e in etas}) == len(etas):
            out.append(p)
        p += 1
    return out


def certify_spectrum(n: int) -> tuple[list[SpectralLine], bool]:
    """Measure eigenspace dimensions of the order-2n matrix and check them.

    For each partition lambda of n: nullity of (M - eta(lambda) I) must be
    f^(2*lambda). Over Q for n <= 4; for n = 5 the measurement runs over
    two primes above 50 chosen so all eigenvalues stay distinct mod p, and
    both must agree. Trace identities are checked on the side: the
    multiplicities sum to (2n-1)!!, the eta-weighted sum matches the
    measured trace (zero once 2n >= 4; the order-2 matrix is [[1]]), and
    the eta^2-weighted sum matches the trace of M^2.
    """
    if n < 1 or n > MAX_SCHEME_N:
        raise CapacityError(f"spectrum order n={n} outside 1..{MAX_SCHEME_N}")
    M = build_M(2 * n)
    lams = partitions(n)
    lines: list[SpectralLine] = []
    if n <= 4:
        fields = [RATIONALS]
    else:
        fields = [PrimeField(p) for p in spectrum_primes(n)]
    per_field: list[list[int]] = []
    for fld in fields:
        Mf = M.with_field(fld)
        per_field.append([nullity_shift(Mf, eigenvalue_eta(n, lam)) for lam in lams])
    all_ok = True
    for i, lam in enumerate(lams):
        nulls = {vals[i] for vals in per_field}
        measured = per_field[0][i]
        ok = len(nulls) == 1 and measured == f_lambda(lam.double())
        all_ok &= ok
        lines.append(
            SpectralLine(
                lam=lam,
                eta=eigenvalue_eta(n, lam),
                multiplicity=f_lambda(lam.double()),
                nullity_measured=measured,
                ok=ok,
            )
        )
    size = len(M.row_labels)
    mults = [l.multiplicity for l in lines]
    etas = [l.eta for l in lines]
    if sum(mults) != double_factorial(2 * n - 1):
        all_ok = False
    # diagonal entries vanish for 2n >= 4; the order-2 matrix is [[1]]
    trace = sum(M[i, i] for i in range(size))
    if sum(m * e for m, e in zip(mults, etas)) != trace:
        all_ok = False
    # trace of M^2 = number of ones = (2n-1)!! times the single-cycle sphere
    if sum(m * e * e for m, e in zip(mults, etas)) != size * sphere_size(n, Partition((n,))):
        all_ok = False
    return lines, all_ok
