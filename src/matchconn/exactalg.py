"""Exact linear algebra over the rationals and prime fields.

Every matrix holds integer entries in one numpy integer array: the 0/1
connectivity and fingerprint matrices the paper certifies, and their shifts
and Kronecker products. Over GF(p) the array holds residues 0..p-1. Each
field has one elimination kernel, and rank, determinant, inverse, nullity
and full-rank extraction all read its pivots:

  * GF(p): `_residues` writes the residues into one int32 work array (every
    p up to the certification prime is below 2^31) with no full-size
    temporary, after checking the memory ceiling from the environment, and
    `_eliminate_mod` row-reduces it in place. Each panel of up to `_PANEL` =
    64 pivots is eliminated left-looking, one float64 matrix-vector product
    per column, and the rest of the matrix takes one BLAS product per chunk
    of `_CHUNK_ROWS` rows, reduced mod p by a floor-multiply. Sums stay below
    64 * (p - 1)^2 + p < 2^53 for every p up to the certification prime, so
    the result is exact; a larger p is refused. Rank of the order-10 matrix
    (945 x 945) takes about 0.1 s and 6.6 MB on a 2-core VM.
  * Q: `_bareiss`, fraction-free elimination over Z on Python ints, so no
    rounding or overflow ever happens. Input above `MAX_BAREISS_ROWS` = 512
    rows is refused with CapacityError. `inverse` works mod p only: its one
    caller, the reduction's interface basis, works mod p.

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
from math import isqrt, lcm
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
    "parse_field",
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
    """The field Z/pZ for a prime p up to `_CERT_PRIME`, the largest the
    float64 elimination (`_residues`, `_eliminate_mod`) keeps exact."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValidationError(f"modulus {self.p!r} is not prime")
        if self.p > _CERT_PRIME:
            raise CapacityError(
                f"modulus {self.p} exceeds the float64 elimination ceiling {_CERT_PRIME}"
            )

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


def _memory_limit_bytes() -> int:
    raw = os.environ.get(MEMORY_ENV_VAR, "")
    if not raw:
        return DEFAULT_MEMORY_MB << 20
    if not raw.strip().isdecimal():
        raise ValidationError(f"{MEMORY_ENV_VAR}={raw!r} is not a whole number of megabytes")
    return int(raw) << 20


# ---------------------------------------------------------------------------
# matrix container


def _int_array(data, ncols_hint: int) -> np.ndarray:
    """Nested int sequences as an int64 array; anything else is refused.

    Fractions, floats and entries outside int64 raise ValidationError, so no
    entry is ever rounded or wrapped. With zero rows the width is
    `ncols_hint`.
    """
    rows = [list(r) for r in data]
    ncols = len(rows[0]) if rows else ncols_hint
    if any(len(r) != ncols for r in rows):
        raise ValidationError("ragged rows in matrix data")
    if not all(isinstance(x, (int, np.integer)) for r in rows for x in r):
        raise ValidationError("matrix entries must be integers")
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    except OverflowError as exc:
        raise ValidationError("matrix entry outside the int64 range") from exc


class ExactMatrix:
    """Labeled integer matrix over Q or Z/p.

    Rows and columns may carry arbitrary hashable labels (matchings,
    fingerprints, partitions); plumbing code mostly ignores them, but the
    constrained submatrix extraction filters on them.

    The entries live in one numpy integer array, `_arr`. An integer array
    passed in is shared, not copied, unless it must be reduced mod p; nested
    int sequences become int64. Over Z/p the array holds residues 0..p-1.
    """

    __slots__ = ("field", "nrows", "ncols", "row_labels", "col_labels", "_arr")

    def __init__(
        self,
        field: FieldSpec,
        data,
        row_labels: Sequence | None = None,
        col_labels: Sequence | None = None,
    ) -> None:
        self.field = field
        if not isinstance(data, np.ndarray):
            # zero rows carry no width, so it comes from the column labels
            data = _int_array(data, len(col_labels) if col_labels is not None else 0)
        if data.ndim != 2:
            raise ValidationError("matrix data must be 2-dimensional")
        if not np.issubdtype(data.dtype, np.integer):
            raise ValidationError("matrix data must have integer dtype")
        # numpy() and kronecker read entries as int64, so larger ones would wrap
        if data.dtype == np.uint64 and data.size and data.max() > np.iinfo(np.int64).max:
            raise ValidationError("matrix entry outside the int64 range")
        # copy only to reduce, so the 0/1 matrices most callers pass share
        # their array
        if isinstance(field, PrimeField) and data.size and (
            data.min() < 0 or data.max() >= field.p
        ):
            data = np.remainder(data, _divisor(data, field.p))
        self._arr = data
        self.nrows, self.ncols = data.shape
        self.row_labels = list(row_labels) if row_labels is not None else list(range(self.nrows))
        self.col_labels = list(col_labels) if col_labels is not None else list(range(self.ncols))
        if len(self.row_labels) != self.nrows or len(self.col_labels) != self.ncols:
            raise ValidationError("label count does not match matrix shape")

    # -- construction helpers ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def numpy(self) -> np.ndarray:
        """Entries as a fresh int64 array (residues for prime fields)."""
        return self._arr.astype(np.int64)

    def rows(self) -> list[list[int]]:
        """Entries as Python int row lists (copies)."""
        return self._arr.tolist()

    def __getitem__(self, rc: tuple[int, int]) -> int:
        return int(self._arr[rc])

    def with_field(self, field: FieldSpec) -> "ExactMatrix":
        """Same entries reinterpreted over another field (reduced mod p)."""
        if field == self.field:
            return self
        return ExactMatrix(field, self._arr, self.row_labels, self.col_labels)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        rl = [self.row_labels[i] for i in row_idx]
        cl = [self.col_labels[j] for j in col_idx]
        return ExactMatrix(self.field, self._arr[np.ix_(row_idx, col_idx)], rl, cl)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.field, self._arr.T.copy(), self.col_labels, self.row_labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self._arr, other._arr))
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field!r}, {self.nrows}x{self.ncols})"


def identity(n: int, field: FieldSpec = RATIONALS) -> ExactMatrix:
    return ExactMatrix(field, np.eye(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# elimination engines: one per field


def _bareiss(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free elimination over Z, in place on the caller's rows.

    Returns (pivot columns, sign * last pivot). For square input of full rank
    the last value is the determinant, and every division is exact by the
    Bareiss divisibility lemma. Callers pass rows from `_integer_rows`, which
    holds the row ceiling.
    """
    m = len(a)
    n = len(a[0]) if m else 0
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
        for i in range(r + 1, m):
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, n):
                ai[j] = (ai[j] * p - f * ar[j]) // prev
            ai[c] = 0
        prev = p
        pivots.append(c)
    return pivots, sign * prev


def _integer_rows(matrix: ExactMatrix) -> list[list[int]]:
    """The entries as Python int rows, the input of `_bareiss`.

    This is where the Bareiss ceiling is checked: above `MAX_BAREISS_ROWS`
    rows it raises CapacityError before converting a single entry.
    """
    if matrix.nrows > MAX_BAREISS_ROWS:
        raise CapacityError(
            f"rational elimination of {matrix.nrows} rows exceeds the ceiling "
            f"{MAX_BAREISS_ROWS}"
        )
    return matrix.rows()


# Columns eliminated per panel. Each column, each pivot row and the trailing
# update subtract a float64 product of at most _PANEL multipliers and
# _PANEL pivot rows of residues, exact while _PANEL * (p - 1)^2 + p < 2^53:
# for every p up to _CERT_PRIME.
_PANEL = 64
# Rows per step of the trailing update: its two float64 buffers hold this
# many rows whatever the matrix size.
_CHUNK_ROWS = 128


def _workspace_bytes(m: int, n: int) -> int:
    """Bytes an m x n elimination allocates: the int32 work array, F and U,
    the two float64 chunk buffers and their bool mask, and the int64 and
    float64 vectors of one column and one pivot-row step."""
    c = min(m, _CHUNK_ROWS)
    return 4 * m * n + 8 * _PANEL * (m + n) + 17 * c * n + 32 * (m + n)


def _divisor(a: np.ndarray, p: int) -> np.integer:
    """p as a divisor that reduces the integer array `a` without overflow:
    int64, so a small dtype does not have to hold p, or uint64 for uint64
    input, whose entries above 2^63 an int64 loop would not hold."""
    return np.uint64(p) if a.dtype == np.uint64 else np.int64(p)


def _residues(a: np.ndarray, p: int, ncols: int | None = None) -> np.ndarray:
    """a mod p in a fresh int32 work array, `ncols` wide (zero past a).

    No full-size temporary: a cast copy when a already holds residues, else
    one remainder whose int64 loop (uint64 for uint64 input, so nothing
    wraps) casts block by block. int32 holds every residue, since p is at
    most `_CERT_PRIME`. Raises CapacityError above `_CERT_PRIME`, and when
    `_workspace_bytes` exceeds the memory ceiling, before allocating.
    """
    if p > _CERT_PRIME:
        raise CapacityError(f"modulus {p} exceeds the float64 elimination ceiling {_CERT_PRIME}")
    m, n = a.shape
    width = ncols or n
    need, limit = _workspace_bytes(m, width), _memory_limit_bytes()
    if need > limit:
        raise CapacityError(f"elimination needs about {need >> 20} MB, over the "
                            f"{limit >> 20} MB ceiling ({MEMORY_ENV_VAR})")
    work = np.zeros((m, width), dtype=np.int32)
    if a.size and (a.min() < 0 or a.max() >= p):
        np.remainder(a, _divisor(a, p), out=work[:, :n], casting="unsafe")
    else:
        work[:, :n] = a
    return work


def _reduce_mod(x: np.ndarray, p: int, q: np.ndarray | None = None) -> np.ndarray:
    """Reduce a float64 array of integers below 2^53 in size to 0..p-1 in place.

    floor(x * (1/p)) is off by at most one, which the +-p fix-up absorbs;
    `q` is scratch of x's shape. About half the time of float %.
    """
    q = np.multiply(x, 1.0 / p, out=q)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _eliminate_mod(work: np.ndarray, p: int, jordan: bool = False) -> tuple[list[int], int]:
    """Row reduction mod p, in place on an int32 work array from `_residues`.

    Returns (pivot columns, determinant factor). Every pivot row is scaled to
    a leading 1 and cleared below (and above, with `jordan`), and pivots are
    taken left to right: the greedy choice of columns independent of those
    before them. The factor is the row-swap sign times the product of the
    pivots mod p, the determinant of square input of full rank.

    Blocked, with delayed reduction over float64 BLAS (Dumas, Giorgi and
    Pernet, ACM TOMS 35(3), 2008). A panel starts at the first column not yet
    eliminated and closes after `_PANEL` pivots or 4 * `_PANEL` columns, so a
    rank-deficient matrix still takes up to `_PANEL` pivots per trailing
    update. It is eliminated left-looking (Golub and Van Loan, Matrix
    Computations, 3.2): with t pivots taken in the panel and r the next
    pivot row, column j is brought up to date as work[r:, j] - F[r:, :t] @
    U[:t, j], one matrix-vector product reduced by one int64 %, and its first
    nonzero row is the pivot. F[i, t] is the entry row i held in pivot t's
    column when it was cleared, and U[t] is pivot row t over the remaining
    width, work[r, j:] - F[r, :t] @ U[:t, j:] scaled to a leading 1. A swap
    moves whole rows of the work array and of F. Before the first pivot of a
    panel its columns are already reduced and need only the nonzero search,
    and 4 * `_PANEL` columns with no nonzero entry below the pivot rows are
    skipped. With `jordan` every row above r takes its multiplier from the
    same formula, and a pivot row of this panel reads as its U row from its
    own step on. After the panel, every row that took a multiplier becomes
    work - F @ U (from the panel's first column for the rows above, past its
    last for the rows below), one BLAS product per chunk of `_CHUNK_ROWS`
    rows into two reused float64 buffers. Sums stay below
    _PANEL * (p - 1)^2 + p < 2^53, so every float is an exact integer and the
    result equals column-at-a-time elimination entry for entry. Cost:
    O(m * n * rank) flops in BLAS plus one O(m * _PANEL) product per column,
    in the memory of `_workspace_bytes`.
    """
    m, n = work.shape
    pivots: list[int] = []
    d = 1
    F = np.empty((m, _PANEL))
    U = np.empty((_PANEL, n))
    xbuf, ybuf = np.empty((2, min(m, _CHUNK_ROWS) * n))
    c0 = 0
    while c0 < n and len(pivots) < m:
        r0 = len(pivots)
        c1 = min(c0 + 4 * _PANEL, n)
        if not work[r0:, c0:c1].any():
            c0 = c1
            continue
        for j in range(c0, c1):
            r = len(pivots)
            t = r - r0
            if r == m or t == _PANEL:
                c1 = j
                break
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
            for lo in range(start, stop, _CHUNK_ROWS):
                hi = min(lo + _CHUNK_ROWS, stop)
                Fc = F[lo:hi, :k]
                if lo_col == n or not Fc.any():
                    continue
                size = (hi - lo) * (n - lo_col)
                x, y = (b[:size].reshape(hi - lo, n - lo_col) for b in (xbuf, ybuf))
                x[...] = work[lo:hi, lo_col:]
                x -= np.matmul(Fc, U[:k, lo_col:], out=y)
                work[lo:hi, lo_col:] = _reduce_mod(x, p, y)
        c0 = c1
    return pivots, d % p


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

    `a` is an integer array whose rank mod `_CERT_PRIME` is r. Gauss-Jordan
    mod that prime gives pivot columns C and, for each free column j, the
    kernel vector x_j = 1, x_C = -R[:, j]. Each residue is read back as a small
    fraction, each vector is scaled to integers, and A x = 0 is checked in
    int64 (a is widened only for that product) under a bound that rules out
    overflow. The vectors restrict to a scaled identity on the free columns,
    so they are independent and the rational nullity is at least n - r.
    False when a residue has no small fraction, the bound fails or a product
    is nonzero; the caller then runs Bareiss. The eigenspaces of the order-8
    matrix pass with fractions whose parts are at most 5: each nullity takes
    about 20 ms on a 2-core VM, where Bareiss took 0.13-0.31 s.
    """
    p = _CERT_PRIME
    n = a.shape[1]
    work = _residues(a, p)
    pivots, _ = _eliminate_mod(work, p, jordan=True)
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
    return not (a.astype(np.int64, copy=False) @ kernel).any()


def _pivot_columns(matrix: ExactMatrix) -> list[int]:
    """Pivot columns of the row echelon form over the matrix's own field."""
    if isinstance(matrix.field, PrimeField):
        p = matrix.field.p
        return _eliminate_mod(_residues(matrix._arr, p), p)[0]
    return _bareiss(_integer_rows(matrix))[0]


# ---------------------------------------------------------------------------
# public operations


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over the matrix's own field."""
    if isinstance(matrix.field, Rationals):
        # Certify via one modular elimination when full rank, which is exact
        # (rank mod p never exceeds rational rank), or by a verified integer
        # kernel; otherwise Bareiss.
        arr = matrix._arr
        r_mod = len(_eliminate_mod(_residues(arr, _CERT_PRIME), _CERT_PRIME)[0])
        if r_mod == min(matrix.nrows, matrix.ncols) or _kernel_certifies(arr, r_mod):
            return r_mod
    return len(_pivot_columns(matrix))


def det(matrix: ExactMatrix) -> int:
    """Exact determinant (an int over Q, a residue over Z/p)."""
    if matrix.nrows != matrix.ncols:
        raise ValidationError("determinant of a non-square matrix")
    n = matrix.nrows
    if isinstance(matrix.field, PrimeField):
        p = matrix.field.p
        pivots, d = _eliminate_mod(_residues(matrix._arr, p), p)
    else:
        pivots, d = _bareiss(_integer_rows(matrix))
    return d if len(pivots) == n else 0


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Inverse over Z/p by Gauss-Jordan on [A | I]; raises on singular input.

    Over Q it raises ValidationError: the inverse of an integer matrix is not
    an integer matrix.
    """
    fld = matrix.field
    if not isinstance(fld, PrimeField):
        raise ValidationError("inverse is computed over a prime field only, not over Q")
    if matrix.nrows != matrix.ncols:
        raise ValidationError("inverse of a non-square matrix")
    n = matrix.nrows
    aug = _residues(matrix._arr, fld.p, ncols=2 * n)
    aug[:, n:][np.diag_indices(n)] = 1
    pivots, _ = _eliminate_mod(aug, fld.p, jordan=True)
    if pivots != list(range(n)):
        raise ValidationError("matrix is singular over " + repr(fld))
    return ExactMatrix(fld, aug[:, n:].astype(np.int64), matrix.col_labels, matrix.row_labels)


def kronecker(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; labels become (label_a, label_b) pairs."""
    if a.field != b.field:
        raise ValidationError("kronecker over mismatched fields")
    rl = [(x, y) for x in a.row_labels for y in b.row_labels]
    cl = [(x, y) for x in a.col_labels for y in b.col_labels]
    return ExactMatrix(a.field, np.kron(a.numpy(), b.numpy()), rl, cl)


def nullity_shift(matrix: ExactMatrix, shift) -> int:
    """dim ker(A - shift*I) over the matrix's field.

    The shift may be a fraction u/v. Over GF(p) it is u * v^-1 mod p, and
    a v that p divides raises ValidationError. Over Q, A - (u/v)I has the
    nullity of vA - uI, which is eliminated in int64 while its entries fit,
    and by Bareiss on Python ints otherwise.
    """
    if matrix.nrows != matrix.ncols:
        raise ValidationError("nullity_shift needs a square matrix")
    n = matrix.nrows
    diag = np.diag_indices(n)
    s = Fraction(shift)
    u, v = s.numerator, s.denominator
    if isinstance(matrix.field, PrimeField):
        p = matrix.field.p
        if v % p == 0:
            raise ValidationError(f"shift {s} has no value mod {p}: {p} divides its denominator")
        work = _residues(matrix._arr, p)
        work[diag] = (work[diag] - u * pow(v, -1, p) % p) % p
        return n - len(_eliminate_mod(work, p)[0])
    biggest = max(-int(matrix._arr.min()), int(matrix._arr.max())) if n else 0
    if biggest * v + abs(u) < 2**63:
        a = matrix.numpy()
        a *= v
        a[diag] -= u
        return n - rank(ExactMatrix(RATIONALS, a))
    rows = _integer_rows(matrix)
    for i, r in enumerate(rows):
        r[:] = [x * v for x in r]
        r[i] -= u
    return n - len(_bareiss(rows)[0])


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
