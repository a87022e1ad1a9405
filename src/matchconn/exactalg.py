"""Exact linear algebra over the rationals and prime fields.

Two storage regimes share one interface: small matrices live as Python lists
of exact scalars (int or Fraction), big 0/1 matrices live as numpy integer
arrays. Each field has one elimination kernel, and rank, determinant,
inverse, nullity and full-rank extraction all read its pivots:

  * GF(p): `_eliminate_mod`, blocked row reduction. Each panel of
    `_PANEL` = 64 columns is eliminated left-looking, one float64
    matrix-vector product per column, and the rest of the matrix takes one
    BLAS product per chunk of `_CHUNK_ROWS` rows, reduced mod p by a
    floor-multiply. Sums stay below 64 * (p - 1)^2 + p < 2^53 for every p up
    to the certification prime, so the result is exact; a larger p is
    refused. Rank of the order-10 matrix (945 x 945) takes about 0.12 s on a
    2-core VM. The work array is int64, or int32 above
    `_INT32_ENTRIES` entries. Every call checks the memory ceiling from the
    environment first.
  * Q: `_bareiss`, fraction-free elimination over Z after clearing row
    denominators, so no rounding ever happens. Its Gauss-Jordan form on
    [A | I] gives the inverse as adj(A)/det(A). Input above
    `MAX_BAREISS_ROWS` = 512 rows is refused with CapacityError.

rank() over Q first tries one elimination mod a prime; if that already
reaches min(m, n) the rational rank is certified exactly (rank can only drop
under reduction), which avoids Bareiss on huge full-rank inputs. Below full
rank, a Gauss-Jordan pass mod the same prime proposes a kernel basis with
small fractions, and an exact integer check of A x = 0 certifies it; only
when that fails does Bareiss run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Rationals",
    "PrimeField",
    "RATIONALS",
    "ExactMatrix",
    "CapacityError",
    "ValidationError",
    "MAX_BAREISS_ROWS",
    "rank",
    "det",
    "inverse",
    "kronecker",
    "nullity_shift",
    "full_rank_submatrix",
    "identity",
    "write_matrix",
    "read_matrix",
    "parse_field",
    "field_token",
    "is_prime",
]

# Memory ceiling for every modular elimination, in megabytes.
MEMORY_ENV_VAR = "MATCHCONN_MEMORY_MB"
DEFAULT_MEMORY_MB = 4096

# Prime used by the full-rank certification shortcut in rational rank.
_CERT_PRIME = 1_000_003

# Row ceiling of every rational elimination (Bareiss). The combine matrix of
# order 6 (499 rows) passes, and its determinant took 5.4 s on a 2-core VM;
# the order-10 connectivity matrix (945 rows) ran past 90 s and is refused.
MAX_BAREISS_ROWS = 512


class ValidationError(ValueError):
    """Bad input: malformed data, field mismatch, shape mismatch."""


class CapacityError(ValidationError):
    """Request exceeds a documented size or memory ceiling."""


# ---------------------------------------------------------------------------
# fields


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """Marker for the field Q."""

    def __repr__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field Z/pZ for a prime p below 2^16 (machine-word arithmetic)."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValidationError(f"modulus {self.p!r} is not prime")
        if self.p >= 1 << 16:
            raise CapacityError(f"prime {self.p} exceeds the 2^16 machine-word ceiling")

    def __repr__(self) -> str:
        return f"GF({self.p})"


FieldSpec = Rationals | PrimeField
RATIONALS = Rationals()


def parse_field(token: str) -> FieldSpec:
    """Parse a field token: 'q' for the rationals, 'p:<prime>' for Z/p."""
    t = token.strip().lower()
    if t == "q":
        return RATIONALS
    if t.startswith("p:"):
        try:
            p = int(t[2:])
        except ValueError as exc:
            raise ValidationError(f"bad field token {token!r}") from exc
        return PrimeField(p)
    raise ValidationError(f"bad field token {token!r} (expected 'q' or 'p:<prime>')")


def field_token(field: FieldSpec) -> str:
    return "q" if isinstance(field, Rationals) else f"p:{field.p}"


def _memory_limit_bytes() -> int:
    raw = os.environ.get(MEMORY_ENV_VAR, "")
    try:
        mb = int(raw) if raw else DEFAULT_MEMORY_MB
    except ValueError:
        mb = DEFAULT_MEMORY_MB
    return mb * (1 << 20)


def _residue(x, p: int) -> int:
    """An int or Fraction entry mod p; rejects a denominator divisible by p."""
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ValidationError(f"denominator divisible by {p}; cannot reduce")
        return x.numerator * pow(x.denominator, -1, p) % p
    return int(x) % p


# ---------------------------------------------------------------------------
# matrix container


class ExactMatrix:
    """Labeled matrix over Q or Z/p with exact entries.

    Rows and columns may carry arbitrary hashable labels (matchings,
    fingerprints, partitions); plumbing code mostly ignores them, but the
    constrained submatrix extraction filters on them.

    Storage is either a numpy integer array (`_arr`) or a list of row lists
    of Python scalars (`_rows`); exactly one is set. Over Z/p both hold
    residues in 0..p-1.
    """

    __slots__ = ("field", "nrows", "ncols", "row_labels", "col_labels", "_arr", "_rows")

    def __init__(
        self,
        field: FieldSpec,
        data,
        row_labels: Sequence | None = None,
        col_labels: Sequence | None = None,
    ) -> None:
        self.field = field
        if isinstance(data, np.ndarray):
            if data.ndim != 2:
                raise ValidationError("matrix data must be 2-dimensional")
            if not np.issubdtype(data.dtype, np.integer):
                raise ValidationError("numpy-backed matrices must have integer dtype")
            # copy only to reduce, so the 0/1 matrices most callers pass
            # share their array
            if isinstance(field, PrimeField) and data.size and (
                data.min() < 0 or data.max() >= field.p
            ):
                data = data % field.p
            self._arr = data
            self._rows = None
            self.nrows, self.ncols = data.shape
        else:
            rows = [list(r) for r in data]
            self.nrows = len(rows)
            # zero rows carry no width, so it comes from the column labels
            if rows:
                self.ncols = len(rows[0])
            else:
                self.ncols = len(col_labels) if col_labels is not None else 0
            for r in rows:
                if len(r) != self.ncols:
                    raise ValidationError("ragged rows in matrix data")
            if isinstance(field, PrimeField):
                rows = [[_residue(x, field.p) for x in r] for r in rows]
            self._rows = rows
            self._arr = None
        self.row_labels = list(row_labels) if row_labels is not None else list(range(self.nrows))
        self.col_labels = list(col_labels) if col_labels is not None else list(range(self.ncols))
        if len(self.row_labels) != self.nrows or len(self.col_labels) != self.ncols:
            raise ValidationError("label count does not match matrix shape")

    # -- construction helpers ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_numpy(self) -> bool:
        return self._arr is not None

    def numpy(self, dtype=np.int64) -> np.ndarray:
        """Entries as a numpy array (mod p for prime fields). Exact ints only."""
        if self._arr is not None:
            a = self._arr.astype(dtype, copy=True)
        else:
            for r in self._rows:
                for x in r:
                    if isinstance(x, Fraction) and x.denominator != 1:
                        raise ValidationError("matrix has non-integer entries")
            a = np.array([[int(x) for x in r] for r in self._rows], dtype=dtype)
            if self.nrows == 0 or self.ncols == 0:
                a = a.reshape(self.nrows, self.ncols)
        if isinstance(self.field, PrimeField):
            a %= self.field.p
        return a

    def rows(self) -> list[list]:
        """Entries as Python scalar row lists (copies)."""
        if self._rows is not None:
            return [list(r) for r in self._rows]
        return [[int(x) for x in row] for row in self._arr]

    def __getitem__(self, rc: tuple[int, int]):
        i, j = rc
        if self._rows is not None:
            return self._rows[i][j]
        return int(self._arr[i, j])

    def with_field(self, field: FieldSpec) -> "ExactMatrix":
        """Same entries reinterpreted over another field (reduced mod p)."""
        if field == self.field:
            return self
        data = self._arr if self._arr is not None else self._rows
        return ExactMatrix(field, data, self.row_labels, self.col_labels)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        rl = [self.row_labels[i] for i in row_idx]
        cl = [self.col_labels[j] for j in col_idx]
        if self._arr is not None:
            a = self._arr[np.ix_(row_idx, col_idx)] if row_idx and col_idx else np.zeros(
                (len(row_idx), len(col_idx)), dtype=self._arr.dtype
            )
            return ExactMatrix(self.field, a, rl, cl)
        rows = [[self._rows[i][j] for j in col_idx] for i in row_idx]
        return ExactMatrix(self.field, rows, rl, cl)

    def transpose(self) -> "ExactMatrix":
        if self._arr is not None:
            return ExactMatrix(self.field, self._arr.T.copy(), self.col_labels, self.row_labels)
        rows = [[self._rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return ExactMatrix(self.field, rows, self.col_labels, self.row_labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self._arr is not None and other._arr is not None:
            return bool(np.array_equal(self._arr, other._arr))
        a = self.rows() if self._rows is None else self._rows
        b = other.rows() if other._rows is None else other._rows
        return all(
            a[i][j] == b[i][j] for i in range(self.nrows) for j in range(self.ncols)
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field!r}, {self.nrows}x{self.ncols})"


def identity(n: int, field: FieldSpec = RATIONALS) -> ExactMatrix:
    return ExactMatrix(field, np.eye(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# elimination engines: one per field


def _bareiss(rows: list[list[int]], jordan: bool = False) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free elimination over Z on a scratch copy.

    Returns (work, pivot columns, sign * last pivot). For square input of full
    rank the last value is the determinant, and every division is exact by the
    Bareiss divisibility lemma. With `jordan` every row but the pivot row is
    updated, which on [A | I] leaves [d*I | d*A^-1] for the last pivot d.
    Callers pass rows from `_clear_denominators`, which holds the row ceiling.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    prev = 1
    sign = 1
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        ar = a[r]
        p = ar[c]
        lo = 0 if jordan else c + 1
        for i in range(0 if jordan else r + 1, m):
            if i == r:
                continue
            ai = a[i]
            f = ai[c]
            for j in range(lo, n):
                ai[j] = (ai[j] * p - f * ar[j]) // prev
            ai[c] = 0
        prev = p
        pivots.append(c)
    return a, pivots, sign * prev


def _clear_denominators(matrix: ExactMatrix) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators: (integer rows, scales).

    Row scaling keeps the rank and the pivot columns, and divides the
    determinant by the product of the scales. Every input of `_bareiss`
    comes from here, so this is where its ceiling is checked: above
    `MAX_BAREISS_ROWS` rows it raises CapacityError before converting a
    single entry.
    """
    if matrix.nrows > MAX_BAREISS_ROWS:
        raise CapacityError(
            f"rational elimination of {matrix.nrows} rows exceeds the ceiling "
            f"{MAX_BAREISS_ROWS}"
        )
    out, scales = [], []
    for r in matrix.rows():
        s = lcm(*(x.denominator for x in r if isinstance(x, Fraction)))
        out.append([int(x * s) for x in r])
        scales.append(s)
    return out, scales


# Columns eliminated per panel. Each column, each pivot row and the trailing
# update subtract a float64 product of at most _PANEL multipliers and
# _PANEL pivot rows of residues, exact while _PANEL * (p - 1)^2 + p < 2^53:
# for every p up to _CERT_PRIME.
_PANEL = 64
# Rows per step of the trailing update; bounds its float64 temporaries to a
# few row blocks whatever the matrix size.
_CHUNK_ROWS = 256
# Above this many entries the work array is int32 (every residue is below
# 2^31), which halves the footprint of the order-12 matrices.
_INT32_ENTRIES = 16_000_000


def _reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce a float64 array of integers below 2^53 in size to 0..p-1 in place.

    floor(x * (1/p)) is off by at most one, which the +-p fix-up absorbs.
    On a 256 x 945 block it took about half the time of float %.
    """
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    x[x < 0] += p
    x[x >= p] -= p
    return x


def _eliminate_mod(
    a: np.ndarray, p: int, jordan: bool = False
) -> tuple[np.ndarray, list[int], int]:
    """Row reduction mod p on a copy of an integer array.

    Returns (work, pivot columns, determinant factor). Every pivot row is
    scaled to a leading 1 and cleared below (and above, with `jordan`), and
    pivots are taken left to right, so the pivot columns are exactly the
    greedy choice of columns independent of those before them. The factor is
    the row-swap sign times the product of the pivots, mod p: the determinant
    of square input of full rank.

    Blocked, with delayed reduction over float64 BLAS (Dumas, Giorgi and
    Pernet, ACM TOMS 35(3), 2008). Each panel of `_PANEL` columns is
    eliminated left-looking (Golub and Van Loan, Matrix Computations, 3.2):
    with t pivots taken in the panel and r the next pivot row, column j is
    brought up to date as work[r:, j] - F[r:, :t] @ U[:t, j], one
    matrix-vector product reduced by one int64 %, and its first nonzero row
    is the pivot. F[i, t] is the entry row i held in pivot t's column when it
    was cleared, and U[t] is pivot row t over the remaining width,
    work[r, j:] - F[r, :t] @ U[:t, j:] scaled to a leading 1. A swap moves
    whole rows of the work array and of F. Before the first pivot of a panel
    its columns are already reduced and need only the nonzero search, and a
    panel with no nonzero entry below the pivot rows is skipped. With
    `jordan` every row above r takes its multiplier from the same formula,
    and a pivot row of this panel reads as its U row from its own step on.
    After the panel, every row that took a multiplier becomes work - F @ U
    (from the panel's first column for the rows above, past its last for the
    rows below), one BLAS product per chunk of `_CHUNK_ROWS` rows. Sums stay
    below _PANEL * (p - 1)^2 + p < 2^53, so every float is an exact integer
    and the result equals column-at-a-time elimination entry for entry.
    Cost: O(m * n * rank) flops in BLAS plus one O(m * _PANEL) product per
    column. Raises CapacityError above `_CERT_PRIME`, and when the work
    array, F, U and the chunk temporaries would exceed the memory ceiling.
    """
    if p > _CERT_PRIME:
        raise CapacityError(
            f"modulus {p} exceeds the float64 elimination ceiling {_CERT_PRIME}"
        )
    m, n = a.shape
    dtype = np.int32 if a.size > _INT32_ENTRIES else np.int64
    need = a.size * np.dtype(dtype).itemsize + 8 * (
        m * _PANEL + _PANEL * n + 3 * min(m, _CHUNK_ROWS) * n
    )
    if need > _memory_limit_bytes():
        raise CapacityError(
            f"elimination needs about {need >> 20} MB, over the "
            f"{_memory_limit_bytes() >> 20} MB ceiling ({MEMORY_ENV_VAR})"
        )
    if not np.can_cast(a.dtype, dtype):
        a = a % p
    # Not an in-place %=: freeing the astype temporary here measured a 3 MB
    # lower peak RSS over a certify round (allocator reuse of the chunks).
    work = a.astype(dtype) % p
    pivots: list[int] = []
    d = 1
    F = np.empty((m, _PANEL))
    U = np.empty((_PANEL, n))
    for c0 in range(0, n, _PANEL):
        r0 = len(pivots)
        if r0 == m:
            break
        c1 = min(c0 + _PANEL, n)
        if not work[r0:, c0:c1].any():
            continue
        for j in range(c0, c1):
            r = len(pivots)
            if r == m:
                break
            t = r - r0
            top = 0 if jordan else r
            if t:
                col = work[top:, j] - (F[top:, :t] @ U[:t, j]).astype(np.int64)
                col %= p
            else:
                col = work[top:, j]
            nz = np.flatnonzero(col[r - top :])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            piv = int(col[i - top])
            d = d * piv % p
            # the multipliers, stored before the swap so they move with their rows
            F[top:, t] = col
            if i != r:
                for x in (work, F):
                    x[[r, i]] = x[[i, r]]
                d = -d
            row = work[r, j:].astype(np.int64)
            if t:
                row -= (F[r, :t] @ U[:t, j:]).astype(np.int64)
                row %= p
            row *= pow(piv, -1, p)
            row %= p
            U[t, c0:j] = 0
            U[t, j:] = row
            work[r, c0:] = U[t, c0:]
            if jordan:
                # from here on row r reads as U[t]
                F[r, : t + 1] = 0
            pivots.append(j)
        # the panel is cleared below its pivot rows; every row that took a
        # multiplier becomes work - F @ U: from c0 above (with jordan), and
        # past the panel below
        k = len(pivots) - r0
        work[r0 + k :, c0:c1] = 0
        for start, stop, lo_col in ((0, r0 + k if jordan else 0, c0), (r0 + k, m, c1)):
            if lo_col == n:
                continue
            V = U[:k, lo_col:]
            for lo in range(start, stop, _CHUNK_ROWS):
                hi = min(lo + _CHUNK_ROWS, stop)
                Fc = F[lo:hi, :k]
                if not Fc.any():
                    continue
                x = work[lo:hi, lo_col:].astype(np.float64)
                x -= Fc @ V
                work[lo:hi, lo_col:] = _reduce_mod(x, p)
    return work, pivots, d % p


def _small_fraction(x: int, p: int) -> Fraction | None:
    """The fraction u/v equal to x mod p with |u|, |v| <= sqrt(p/2), or None.

    Rational reconstruction by the half-extended Euclidean algorithm: each
    remainder r_i keeps r_i = s_i * x mod p, and the first one below the bound
    gives u = r_i, v = s_i.
    """
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1) if abs(s1) <= bound else None


def _kernel_certifies(a: np.ndarray, r: int) -> bool:
    """True if an exact integer kernel shows that a has rational rank <= r.

    `a` is an int64 array whose rank mod `_CERT_PRIME` is r. Gauss-Jordan
    mod that prime gives pivot columns C and, for each free column j, the
    kernel vector x_j = 1, x_C = -R[:, j]. Each residue is read back as a small
    fraction, each vector is scaled to integers, and A x = 0 is checked in
    int64 under a bound that rules out overflow. The vectors restrict to a
    scaled identity on the free columns, so they are independent and the
    rational nullity is at least n - r. False when a residue has no small
    fraction, the bound fails or a product is nonzero; the caller then runs
    Bareiss. The eigenspaces of the order-8 matrix pass with fractions whose
    parts are at most 5: each nullity takes about 20 ms on a 2-core VM,
    where Bareiss took 0.13-0.31 s.
    """
    p = _CERT_PRIME
    n = a.shape[1]
    work, pivots, _ = _eliminate_mod(a, p, jordan=True)
    free = np.setdiff1d(np.arange(n), pivots)
    residues, where = np.unique((-work[:r, free] % p).ravel(), return_inverse=True)
    del work
    fracs = [_small_fraction(int(x), p) for x in residues]
    if None in fracs:
        return False
    num = np.array([f.numerator for f in fracs], dtype=np.int64)[where].reshape(r, free.size)
    den = np.array([f.denominator for f in fracs], dtype=np.int64)[where].reshape(r, free.size)
    scales = [lcm(*col) for col in den.T.tolist()]
    biggest = max(abs(int(a.max())), abs(int(a.min())), 1)
    if n * biggest * max(scales) * isqrt(p // 2) >= 2**63:
        return False
    kernel = np.zeros((n, free.size), dtype=np.int64)
    s = np.array(scales, dtype=np.int64)
    kernel[pivots] = num * (s // den)
    kernel[free, np.arange(free.size)] = s
    return not (a @ kernel).any()


def _pivot_columns(matrix: ExactMatrix) -> list[int]:
    """Pivot columns of the row echelon form over the matrix's own field."""
    if isinstance(matrix.field, PrimeField):
        arr = matrix._arr if matrix._arr is not None else matrix.numpy()
        return _eliminate_mod(arr, matrix.field.p)[1]
    return _bareiss(_clear_denominators(matrix)[0])[1]


# ---------------------------------------------------------------------------
# public operations


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over the matrix's own field."""
    if isinstance(matrix.field, Rationals):
        # Certify via one modular elimination when full rank, which is exact
        # (rank mod p never exceeds rational rank), or by a verified integer
        # kernel; otherwise Bareiss. Only non-integer or huge entries skip the
        # shortcut, never the memory ceiling.
        try:
            arr = matrix.numpy()
        except (ValidationError, OverflowError):
            arr = None
        if arr is not None:
            r_mod = len(_eliminate_mod(arr, _CERT_PRIME)[1])
            if r_mod == min(matrix.nrows, matrix.ncols) or _kernel_certifies(arr, r_mod):
                return r_mod
    return len(_pivot_columns(matrix))


def det(matrix: ExactMatrix):
    """Exact determinant (int/Fraction over Q, residue over Z/p)."""
    if matrix.nrows != matrix.ncols:
        raise ValidationError("determinant of a non-square matrix")
    n = matrix.nrows
    if isinstance(matrix.field, PrimeField):
        _, pivots, d = _eliminate_mod(matrix.numpy(), matrix.field.p)
        return d if len(pivots) == n else 0
    rows, scales = _clear_denominators(matrix)
    _, pivots, d = _bareiss(rows)
    if len(pivots) < n:
        d = 0
    scale = prod(scales)
    return d if scale == 1 else Fraction(d, scale)


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan on [A | I]; raises on singular input."""
    if matrix.nrows != matrix.ncols:
        raise ValidationError("inverse of a non-square matrix")
    n = matrix.nrows
    fld = matrix.field
    if isinstance(fld, PrimeField):
        aug = np.hstack([matrix.numpy(), np.eye(n, dtype=np.int64)])
        work, pivots, _ = _eliminate_mod(aug, fld.p, jordan=True)
    else:
        # [DA | D] for the denominator-clearing row scales D: the right block
        # ends as d * (DA)^-1 * D = d * A^-1.
        rows, scales = _clear_denominators(matrix)
        aug = [r + [s if i == j else 0 for j in range(n)]
               for i, (r, s) in enumerate(zip(rows, scales))]
        work, pivots, _ = _bareiss(aug, jordan=True)
    if pivots != list(range(n)):
        raise ValidationError("matrix is singular over " + repr(fld))
    if isinstance(fld, PrimeField):
        rows = work[:, n:].tolist()
    else:
        # Every diagonal entry ends as the last pivot d.
        rows = [[Fraction(x, r[i]) for x in r[n:]] for i, r in enumerate(work)]
        rows = [[x if x.denominator != 1 else int(x) for x in r] for r in rows]
    return ExactMatrix(fld, rows, matrix.col_labels, matrix.row_labels)


def kronecker(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; labels become (label_a, label_b) pairs."""
    if a.field != b.field:
        raise ValidationError("kronecker over mismatched fields")
    rl = [(x, y) for x in a.row_labels for y in b.row_labels]
    cl = [(x, y) for x in a.col_labels for y in b.col_labels]
    try:
        arr = np.kron(a.numpy(), b.numpy())
        if isinstance(a.field, PrimeField):
            arr %= a.field.p
        return ExactMatrix(a.field, arr, rl, cl)
    except ValidationError:
        pass
    ra, rb = a.rows(), b.rows()
    rows = [
        [ra[i][k] * rb[j][l] for k in range(a.ncols) for l in range(b.ncols)]
        for i in range(a.nrows)
        for j in range(b.nrows)
    ]
    return ExactMatrix(a.field, rows, rl, cl)


def nullity_shift(matrix: ExactMatrix, shift) -> int:
    """dim ker(A - shift*I) over the matrix's field."""
    if matrix.nrows != matrix.ncols:
        raise ValidationError("nullity_shift needs a square matrix")
    n = matrix.nrows
    if isinstance(matrix.field, PrimeField):
        p = matrix.field.p
        a = matrix.numpy()
        a[np.diag_indices(n)] -= int(shift) % p
        return n - len(_eliminate_mod(a, p)[1])
    s = shift if isinstance(shift, (int, Fraction)) else Fraction(shift)
    if matrix.is_numpy() and s.denominator == 1:
        # integer shift of an integer array: stay in numpy unless it overflows
        a = matrix.numpy()
        t = int(s)
        if not a.size or max(-int(a.min()), int(a.max())) + abs(t) < 2**63:
            a[np.diag_indices(n)] -= t
            return n - rank(ExactMatrix(RATIONALS, a))
    rows = matrix.rows()
    for i in range(n):
        rows[i][i] = rows[i][i] - s
    shifted = ExactMatrix(RATIONALS, rows)
    return n - rank(shifted)


def full_rank_submatrix(
    matrix: ExactMatrix,
    row_filter: Callable | None = None,
    col_filter: Callable | None = None,
) -> tuple[list[int], list[int]]:
    """Greedy maximal nonsingular submatrix within filtered rows/columns.

    Filters are predicates on labels (None keeps everything). Keeps, in
    canonical order, each filtered row that grows the row space of the
    filtered column block, then each column that grows the column space of
    the kept rows: the pivot columns of the transposed block, then of the
    kept rows. The result is a square index pair with nonzero determinant,
    deterministic for fixed input.
    """
    rows_ok = [
        i for i in range(matrix.nrows) if row_filter is None or row_filter(matrix.row_labels[i])
    ]
    cols_ok = [
        j for j in range(matrix.ncols) if col_filter is None or col_filter(matrix.col_labels[j])
    ]
    if not rows_ok or not cols_ok:
        return [], []
    sub = matrix.submatrix(rows_ok, cols_ok)
    kept = _pivot_columns(sub.transpose())
    if not kept:
        return [], []
    kept_cols = _pivot_columns(sub.submatrix(kept, list(range(len(cols_ok)))))
    if len(kept) != len(kept_cols):
        raise AssertionError("row and column ranks disagree; elimination bug")
    return [rows_ok[i] for i in kept], [cols_ok[j] for j in kept_cols]


# ---------------------------------------------------------------------------
# interchange format


def _scalar_to_text(x) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def _scalar_from_text(s: str, field: FieldSpec):
    if "/" in s:
        if isinstance(field, PrimeField):
            raise ValidationError("fractional entry in a prime-field matrix file")
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    v = int(s)
    if isinstance(field, PrimeField):
        return v % field.p
    return v


def write_matrix(matrix: ExactMatrix, path) -> None:
    """Plain text interchange: header 'rows cols field', then row lines."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{matrix.nrows} {matrix.ncols} {field_token(matrix.field)}\n")
        if matrix._arr is not None:
            for row in matrix._arr:
                fh.write(" ".join(str(int(x)) for x in row) + "\n")
        else:
            for row in matrix._rows:
                fh.write(" ".join(_scalar_to_text(x) for x in row) + "\n")


def read_matrix(path) -> ExactMatrix:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValidationError(f"bad matrix header in {path}")
        try:
            m, n = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValidationError(f"bad matrix shape in {path}") from exc
        field = parse_field(header[2])
        rows = []
        for _ in range(m):
            parts = fh.readline().split()
            if len(parts) != n:
                raise ValidationError(f"row with {len(parts)} entries, expected {n}, in {path}")
            rows.append([_scalar_from_text(s, field) for s in parts])
        trailing = fh.read().strip()
        if trailing:
            raise ValidationError(f"trailing data after matrix body in {path}")
    return ExactMatrix(field, rows)
