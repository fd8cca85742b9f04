"""Exact linear algebra over the integers, the rationals, and Z/m.

Everything here is exact: integer matrices hold Python ints, rational
matrices hold fractions.Fraction values, and Z/m matrices store the
canonical representative in range(m).  No floating point is involved
anywhere, so results are reproducible bit for bit.

The workhorses are smith_normal_form (which records the change-of-basis
matrices together with their inverses), solve_linear, and kernel_basis.
On top of those sit the splitting tests for injections and surjections,
which is the interface the chain-level code actually consumes.

Pivot selection in the Smith reduction is pinned: among the nonzero
entries of the remaining block, take one of smallest absolute value,
breaking ties by smallest (row, column).  This makes the returned
normal form data deterministic across runs and platforms.  Over Z and
Z/p no nonzero entry is smaller than 1, so the row-major scan stops at
the first entry of absolute value 1; over Q it always scans the whole
block.  The divisibility check that follows each pivot is skipped when
the pivot is 1.  At one position the pivot key never rises from one
pass to the next, and it stays the same for at most two passes in a
row: the divisibility step costs one pass at an unchanged key, and the
column sweep then leaves a smaller remainder.  Over a field each
position takes one pass.  _smith raises AssertionError on a pass that
breaks this, so a wrong step fails at once instead of spinning.

All elimination works on raw entries: integer and rational
arithmetic is closed and canonical, so the only reduction is % m over
Z/m.  Field solves and kernels, ranks and determinants run one loop,
_eliminate, in place on row lists; its pivot is the first nonzero
entry of the column.  Over Z/p it scales the pivot row with _scaled
and clears the column with _axpy_sparse, from the pivot column on.
Over Z it is fraction-free: every entry stays a minor of the input.
Over Q the rows are first cleared of their denominators and then
eliminated over Z.  _rref, which solve_linear and kernel_basis read,
asks for the reduced form, and over Q divides by the last pivot once
at the end; rank and det stop at the echelon form, and det over
composite Z/m eliminates its lift to Z.  The Smith reduction and
the elimination over composite Z/m share one worker, _SnfWorker.  It
keeps each row of d joined in one list with the row of p, or with the
row of a carried right-hand side, so a row swap, negation, scaling or
addition acts once per row.  Its row steps work on a live column
window: every row at or below the current pivot is zero left of the
pivot column, and every finished pivot row is zero off its diagonal,
so a step on rows i and j starts at column min(i, j).  q and qinv
only see column steps; both are kept as rows (q transposed), so a
column step is a row update too.  Every such update works in place
and touches only the positions where the source row is nonzero; a
long sweep from one pivot row, or from one row of q transposed, finds
its source's nonzero pairs once and hands them to each step (see
_SnfWorker).  Each caller eliminates only what it reads.  The Smith
reduction builds only the transforms its caller asks for, and tracks
only p, q and qinv step by step.  pinv is derived once the reduction
ends, from a @ q, which the worker carries when pinv is kept: kept
transposed like q, one row per column of a, it sees every column step
that q sees, so no product is formed.  When every row of d holds a
nonzero pivot, pinv @ d == a @ q makes column j of pinv row j of the
carried a @ q divided by d_jj (exactly over Z; d_jj is 1 over a
field); otherwise the recorded row steps are replayed on the identity.  A
right-hand side is carried: a solve joins the rows of b to the rows of
a in place of p, so the same row steps leave p @ b there.
smith_normal_form asks for all four transforms, invariant_factors for
none.  Over composite Z/m everything runs in Z/m itself with
extended-gcd steps, which never factor m.  Over Z and composite Z/m,
solve_linear (q kept, b carried), _kernel (q and qinv kept) and
_is_onto read the pivots of one diagonalization, _diagonalize, the
same way.  cycle_quotient_mod reads the homology of one degree off
two, of d_n and of the relations among its cycles; chains hands it
d_n and d_(n+1) of what is left once every unit pivot of the complex,
or of homology_at's window, is gone, for each degree where one of the
two is left.  _kernel also
returns a left inverse l of its basis k, the rows of qinv past the
pivots or over a field the identity's rows at the free columns;
_coordinates and split_with_complement read through l, and over a
field _coordinates reads v's rows at l's unit rows.  Moduli are
at most MAX_MODULUS = 2**64, where Miller-Rabin with fixed bases
decides primality exactly.

Every Matrix holds canonical entries: an int over Z, a Fraction over Q
and an int in range(m) over Z/m.  The public ways in, Matrix(...),
from_rows, from_columns, a change of ring with to_ring, and every
loader of serialize, check the shape and normalize each entry.  The
results of arithmetic on matrices (products, sums, differences,
negation, scale, transpose, the stacks and slices, zero, identity,
kron, block_matrix, vec_row_major and unvec_row_major, _factor_matrix
and the Smith data) are built by the internal Matrix._trusted, which
does neither: sums, differences and products of ints are ints and of
Fractions are Fractions, and rearranging canonical entries keeps them
canonical, so the only reduction left is % m over Z/m, which each of
those operations applies itself.  Normalizing their results again would
return every entry unchanged.  Both ways run the same constructor,
which writes the four fields and calls __post_init__; _trusted passes
it the flag _canonical, a constructor parameter that is not a field,
and __post_init__ returns at once on it.  A product with a square
identity factor on the right is a new Matrix on the left factor's
entries.  Any other product builds each row as a sum of whole rows of
the right factor, one term per nonzero entry of the left row; a left
row whose only nonzero entry is a 1 is that row of the right factor,
taken whole, so a left identity factor multiplies and reduces nothing.
Over Z a wide product, one whose right factor has at least _DOT_WIDTH
columns, takes a dense left row, one with at most a quarter zeros,
as one dot product per entry instead, against the right factor's
columns, found once per product; that builds no list per term.  Over
Q a left identity factor is caught first, and otherwise the product
runs on integers, dense rows included: each left row is scaled by the
lcm of its denominators, the right factor by one common denominator,
and each nonzero entry of the result is one Fraction.  QQ.zero and
QQ.one are one shared Fraction each.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from math import gcd, lcm, prod
from operator import add, mul, neg, sub

from ._record import record


class ShapeMismatch(ValueError):
    """Raised when matrix shapes or base rings do not line up."""


class NonFreeKernel(ValueError):
    """Raised when a kernel over Z/m admits no basis.

    Kernels over a field or over Z are always free.  Over Z/m with m
    composite a kernel can fail to be a free module, in which case no
    basis matrix exists and the caller has to reformulate.
    """


# Moduli are capped, so that primality is decided exactly and fast.
MAX_MODULUS = 2 ** 64

# Miller-Rabin with the twelve prime bases up to 37 has no strong
# pseudoprime below psi_12 = 318665857834031151167461, about 3.2e23
# (Sorenson and Webster, Math. Comp. 86, 2017), far above MAX_MODULUS.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise ValueError("primality is decided exactly only below 3.2e23")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class Ring:
    """Base ring marker: Ring("Z"), Ring("Q"), or Ring("Zmod", m).

    A modulus lies between 2 and MAX_MODULUS.  Whether the ring is a
    field is decided once, when the ring is made.
    """

    kind: str
    modulus: int | None = None

    def __init__(self, kind: str, modulus: int | None = None) -> None:
        if kind not in ("Z", "Q", "Zmod"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zmod":
            if not isinstance(modulus, int) or modulus < 2:
                raise ValueError("Zmod needs an integer modulus >= 2")
            if modulus > MAX_MODULUS:
                raise ValueError("Zmod needs a modulus of at most 2**64")
        elif modulus is not None:
            raise ValueError(f"ring {kind} does not take a modulus")
        d = self.__dict__
        d["kind"] = kind
        d["modulus"] = modulus
        d["_field"] = kind == "Q" or (kind == "Zmod" and _is_prime(modulus))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is Ring:
            return self.kind == other.kind and self.modulus == other.modulus
        return NotImplemented

    def __str__(self) -> str:
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind

    @property
    def zero(self):
        return _Q_ZERO if self.kind == "Q" else 0

    @property
    def one(self):
        return _Q_ONE if self.kind == "Q" else 1

    def normalize(self, x):
        """Coerce x into the canonical representation for this ring."""
        if type(x) is int:
            if self.kind == "Z":
                return x
            if self.kind == "Q":
                return Fraction(x)
            return x % self.modulus
        if type(x) is Fraction and self.kind == "Q":
            return x
        if self.kind == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return int(x)
            if isinstance(x, int):
                return x
            raise TypeError(f"cannot treat {x!r} as an integer")
        if self.kind == "Q":
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            raise TypeError(f"cannot treat {x!r} as a rational")
        if isinstance(x, int):
            return x % self.modulus
        raise TypeError(f"cannot treat {x!r} as an element of {self}")

    def is_field(self) -> bool:
        return self._field

    def invert(self, x):
        """Multiplicative inverse; raises ValueError when x is not a unit."""
        x = self.normalize(x)
        if self.kind == "Z":
            if x in (1, -1):
                return x
            raise ValueError(f"{x} is not a unit in Z")
        if self.kind == "Q":
            if x == 0:
                raise ValueError("0 has no inverse")
            return Fraction(1) / x
        try:
            return pow(x, -1, self.modulus)
        except ValueError:
            raise ValueError(f"{x} is not a unit in {self}") from None


ZZ = Ring("Z")
QQ = Ring("Q")

# Fractions are immutable, so every rational zero and one can be these.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def Zmod(m: int) -> Ring:
    return Ring("Zmod", m)


def _tuples(rows, m):
    """Rows as a tuple of tuples, each entry reduced % m unless m is None."""
    if m is None:
        return tuple(map(tuple, rows))
    return tuple(tuple(x % m for x in row) for row in rows)


@record
class Matrix:
    """Immutable exact matrix; entries is a tuple of row tuples.

    The constructor checks the shape and normalizes every entry into
    the ring.  Results of arithmetic on matrices are built by _trusted
    instead, which skips both (see the module docstring); _canonical is
    its constructor flag, not a field, and no other caller passes it.
    """

    ring: Ring
    rows: int
    cols: int
    entries: tuple

    def __init__(self, ring: Ring, rows: int, cols: int, entries: tuple, _canonical: bool = False) -> None:
        d = self.__dict__
        d["ring"] = ring
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries
        self.__post_init__(_canonical)

    def __post_init__(self, _canonical: bool) -> None:
        if _canonical:
            return
        if len(self.entries) != self.rows:
            raise ShapeMismatch(
                f"expected {self.rows} rows, got {len(self.entries)}"
            )
        norm = self.ring.normalize
        fixed = []
        for row in self.entries:
            if len(row) != self.cols:
                raise ShapeMismatch(
                    f"expected {self.cols} columns, got {len(row)}"
                )
            fixed.append(tuple(norm(x) for x in row))
        self.__dict__["entries"] = tuple(fixed)

    @staticmethod
    def _trusted(ring: Ring, rows: int, cols: int, entries: tuple) -> "Matrix":
        """A matrix whose entries are already canonical row tuples.

        Skips the constructor's shape check and normalization.  Only for
        entries produced by closed ring arithmetic on canonical entries,
        reduced % m over Z/m.
        """
        return Matrix(ring, rows, cols, entries, True)

    def __repr__(self) -> str:
        body = [list(row) for row in self.entries]
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {body})"

    @staticmethod
    def from_rows(ring: Ring, data) -> "Matrix":
        data = [tuple(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return Matrix(ring, rows, cols, tuple(data))

    @staticmethod
    def zero(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix._trusted(ring, rows, cols, ((ring.zero,) * cols,) * rows)

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        z, o = ring.zero, ring.one
        return Matrix._trusted(
            ring, n, n, tuple((z,) * i + (o,) + (z,) * (n - 1 - i) for i in range(n))
        )

    @staticmethod
    def from_columns(ring: Ring, columns, rows: int) -> "Matrix":
        """Assemble a matrix from an iterable of length-`rows` columns."""
        cols = [tuple(c) for c in columns]
        for c in cols:
            if len(c) != rows:
                raise ShapeMismatch(f"column of length {len(c)}, expected {rows}")
        data = tuple(tuple(c[i] for c in cols) for i in range(rows))
        return Matrix(ring, rows, len(cols), data)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise ShapeMismatch(f"ring mismatch: {self.ring} vs {other.ring}")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        data = _tuples((map(add, ra, rb) for ra, rb in zip(self.entries, other.entries)), self.ring.modulus)
        return Matrix._trusted(self.ring, self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        data = _tuples((map(sub, ra, rb) for ra, rb in zip(self.entries, other.entries)), self.ring.modulus)
        return Matrix._trusted(self.ring, self.rows, self.cols, data)

    def __neg__(self) -> "Matrix":
        data = _tuples((map(neg, row) for row in self.entries), self.ring.modulus)
        return Matrix._trusted(self.ring, self.rows, self.cols, data)

    def scale(self, c) -> "Matrix":
        c = self.ring.normalize(c)
        m = self.ring.modulus
        data = tuple(tuple(_scaled(row, c, m)) for row in self.entries)
        return Matrix._trusted(self.ring, self.rows, self.cols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product is the sum of a_ik times row k of other.

        A right identity factor gives a new Matrix on self's entries.
        Over Z and Z/m a row of self whose only nonzero entry is a 1 at
        k is row k of other, taken whole with no % m pass, so a left
        identity factor gives a new Matrix on other's rows.  Over Z,
        and over Q on the cleared integer rows, a row of self with at
        most a quarter zeros takes one dot product per entry when other
        is at least _DOT_WIDTH wide (see _product_rows).  Over Q a left
        identity factor is caught before _rational_product clears any
        denominators.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            raise ShapeMismatch(f"ring mismatch: {self.ring} vs {other.ring}")
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if _is_identity(other):
            return Matrix._trusted(self.ring, self.rows, self.cols, self.entries)
        if self.ring.kind == "Q":
            if _is_identity(self):
                return Matrix._trusted(self.ring, other.rows, other.cols, other.entries)
            return _rational_product(self, other)
        data = _product_rows(self.entries, other.entries, (self.ring.zero,) * other.cols, self.ring.modulus)
        return Matrix._trusted(self.ring, self.rows, other.cols, data)

    def transpose(self) -> "Matrix":
        data = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._trusted(self.ring, self.cols, self.rows, data)

    def hstack(self, other: "Matrix") -> "Matrix":
        if (self.ring is not other.ring and self.ring != other.ring) or self.rows != other.rows:
            raise ShapeMismatch("hstack needs equal row counts and rings")
        data = tuple(ra + rb for ra, rb in zip(self.entries, other.entries))
        return Matrix._trusted(self.ring, self.rows, self.cols + other.cols, data)

    def vstack(self, other: "Matrix") -> "Matrix":
        if (self.ring is not other.ring and self.ring != other.ring) or self.cols != other.cols:
            raise ShapeMismatch("vstack needs equal column counts and rings")
        return Matrix._trusted(
            self.ring, self.rows + other.rows, self.cols,
            self.entries + other.entries,
        )

    def rows_slice(self, i0: int, i1: int) -> "Matrix":
        if not 0 <= i0 <= i1 <= self.rows:
            raise ShapeMismatch(f"rows {i0}:{i1} do not lie in {self.rows} rows")
        return Matrix._trusted(self.ring, i1 - i0, self.cols, self.entries[i0:i1])

    def cols_slice(self, j0: int, j1: int) -> "Matrix":
        if not 0 <= j0 <= j1 <= self.cols:
            raise ShapeMismatch(f"columns {j0}:{j1} do not lie in {self.cols} columns")
        data = tuple(row[j0:j1] for row in self.entries)
        return Matrix._trusted(self.ring, self.rows, j1 - j0, data)

    def select_columns(self, indices) -> "Matrix":
        idx = list(indices)
        data = tuple(tuple(row[j] for j in idx) for row in self.entries)
        return Matrix._trusted(self.ring, self.rows, len(idx), data)

    def column(self, j: int) -> "Matrix":
        return self.cols_slice(j, j + 1)

    def to_ring(self, ring: Ring) -> "Matrix":
        """Move entries into another ring where an exact meaning exists.

        Z -> Q and Z -> Z/m are the coefficient changes; Z/m -> Z lifts
        the canonical representatives; Q -> Z requires every entry to be
        integral.
        """
        if ring == self.ring:
            return self
        src, dst = self.ring.kind, ring.kind
        if src == "Z" and dst in ("Q", "Zmod"):
            return Matrix(ring, self.rows, self.cols, self.entries)
        if src == "Zmod" and dst == "Z":
            return Matrix(ring, self.rows, self.cols, self.entries)
        if src == "Q" and dst == "Z":
            for row in self.entries:
                for x in row:
                    if x.denominator != 1:
                        raise ValueError(f"entry {x} is not an integer")
            data = tuple(tuple(int(x) for x in row) for row in self.entries)
            return Matrix(ring, self.rows, self.cols, data)
        raise ValueError(f"no canonical map from {self.ring} to {ring}")


def block_matrix(ring: Ring, heights, widths, blocks) -> Matrix:
    """Assemble a matrix from blocks on a grid of given sizes.

    Block row i has heights[i] rows and block column j has widths[j]
    columns.  blocks maps (i, j) to a Matrix of exactly that shape over
    ring; every block not given is zero.  The rows are built in one
    pass and become one Matrix at the end.
    """
    heights, widths = list(heights), list(widths)
    offsets = [0]
    for w in widths:
        offsets.append(offsets[-1] + w)
    z = ring.zero
    strips = [[[z] * offsets[-1] for _ in range(h)] for h in heights]
    for (i, j), blk in blocks.items():
        if not (0 <= i < len(heights) and 0 <= j < len(widths)):
            raise ShapeMismatch(f"block ({i}, {j}) lies outside the block grid")
        if blk.ring != ring or blk.shape != (heights[i], widths[j]):
            raise ShapeMismatch(
                f"block ({i}, {j}) is {blk.shape} over {blk.ring}, "
                f"expected {(heights[i], widths[j])} over {ring}"
            )
        j0, j1 = offsets[j], offsets[j + 1]
        for row, entries in zip(strips[i], blk.entries):
            row[j0:j1] = entries
    data = tuple(tuple(row) for strip in strips for row in strip)
    return Matrix._trusted(ring, len(data), offsets[-1], data)


def _is_identity(a: Matrix) -> bool:
    """Whether a is a square identity, read row by row up to the first
    row that is not an identity row; no identity is built to compare.
    A row of n entries with a 1 at i and n - 1 zeros is zero off i."""
    n = a.rows
    if n != a.cols:
        return False
    i = 0
    for row in a.entries:
        if row[i] != 1 or row.count(0) != n - 1:
            return False
        i += 1
    return True


# Over Z a product whose right factor is at least this wide computes
# each entry of a dense left row, one with at most a quarter zeros, as
# one dot product with a column of the right factor.  The dense Smith
# data of bench/'s homology workload, up to 40 x 40, make such products;
# none of its contraction or towers workloads is wider than 7.
_DOT_WIDTH = 16


def _product_rows(arows, brows, zero_row, m) -> tuple:
    """The rows of a product over Z (m None) or Z/m: row i is the sum
    of a_ik times row k of brows, reduced % m.  A row of arows whose
    only nonzero entry is a 1 at k is brows[k], taken whole.

    Over Z, when brows has at least _DOT_WIDTH columns and at least
    two rows, a row of arows with at most a quarter zeros takes one
    dot product per entry, sum(map(mul, row, column)), instead of one
    new list per nonzero entry; the columns of brows are found once,
    at the first such row.  Such a row has two nonzero entries at
    least, so a unit row is never dense.  Sparse rows, narrower
    products and Z/m keep the row loop."""
    dots = m is None and len(zero_row) >= _DOT_WIDTH and len(brows) > 1
    cols = None
    data = []
    for arow in arows:
        if dots and 4 * arow.count(0) <= len(arow):
            if cols is None:
                cols = list(zip(*brows))
            data.append(tuple([sum(map(mul, arow, col)) for col in cols]))
            continue
        acc = None
        for aik, brow in zip(arow, brows):
            if aik:
                if acc is None:
                    acc = brow if aik == 1 else [aik * b for b in brow]
                else:
                    acc = [s + aik * b for s, b in zip(acc, brow)]
        if acc is None:
            data.append(zero_row)
        elif acc.__class__ is tuple:
            data.append(acc)
        elif m is None:
            data.append(tuple(acc))
        else:
            data.append(tuple(s % m for s in acc))
    return tuple(data)


def _rational_product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over Q, computed as a product over Z.

    Row i of a is scaled by the lcm s_i of its denominators and all of
    b by the lcm t of its denominators; row i of the integer product,
    divided by s_i * t, is row i of a @ b, one Fraction per nonzero
    entry.  The integer rows are multiplied by _product_rows, so the
    result is the only Matrix built.  Matrix.__matmul__ calls it only
    when neither factor is a square identity, so a product with an
    identity clears no denominators.
    """
    brows, bscales = _cleared_rows(b.entries)
    t = lcm(*bscales)
    if t != 1:
        brows = tuple([tuple([x * (t // u) for x in row]) for row, u in zip(brows, bscales)])
    arows, ascales = _cleared_rows(a.entries)
    data = []
    for s, row in zip(ascales, _product_rows(arows, brows, (0,) * b.cols, None)):
        den = s * t
        if den == 1:
            data.append(tuple([Fraction(x) if x else _Q_ZERO for x in row]))
        else:
            data.append(tuple([Fraction(x, den) if x else _Q_ZERO for x in row]))
    return Matrix._trusted(a.ring, a.rows, b.cols, tuple(data))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; (i*b.rows + u, j*b.cols + v) entry is a[i,j] * b[u,v].

    Zero entries of either factor are copied, not multiplied.
    """
    if a.ring != b.ring:
        raise ShapeMismatch(f"ring mismatch: {a.ring} vs {b.ring}")
    m = a.ring.modulus
    zeros = (a.ring.zero,) * b.cols
    data = []
    for arow in a.entries:
        for brow in b.entries:
            row = []
            for x in arow:
                if not x:
                    row.extend(zeros)
                elif m is None:
                    row.extend([x * y if y else y for y in brow])
                else:
                    row.extend([x * y % m if y else y for y in brow])
            data.append(tuple(row))
    return Matrix._trusted(a.ring, a.rows * b.rows, a.cols * b.cols, tuple(data))


def vec_row_major(m: Matrix) -> Matrix:
    """Flatten row by row into a column vector.

    With this convention vec(A @ X @ B) == kron(A, B.transpose()) @ vec(X).
    """
    data = tuple((x,) for row in m.entries for x in row)
    return Matrix._trusted(m.ring, m.rows * m.cols, 1, data)


def unvec_row_major(v: Matrix, rows: int, cols: int) -> Matrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise ShapeMismatch(f"cannot reshape {v.shape} into {rows}x{cols}")
    flat = [r[0] for r in v.entries]
    data = tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))
    return Matrix._trusted(v.ring, rows, cols, data)


def _factor_matrix(ring: Ring, width: int, groups) -> Matrix:
    """Rows of linear conditions on row-major vectorized matrix unknowns.

    groups lists (row_count, terms); each term (off, p, t, a, b) is X ->
    a @ X @ b on the p x t unknown at column off, with one of a and b
    None for the identity, and the unknowns of a group are distinct.  A
    left factor a puts a[i][k] at row i*t + v, column off + k*t + v, and
    a right factor b of width w puts b[k][v] at row i*w + v, column off
    + i*t + k: kron(a, I_t) and kron(I_p, b^T), without either product.
    """
    z = ring.zero
    rows = []
    for row_count, terms in groups:
        group = [[z] * width for _ in range(row_count)]
        for off, p, t, a, b in terms:
            if b is None:
                end = off + p * t
                for i, arow in enumerate(a.entries):
                    if any(arow):
                        for v in range(t):
                            group[i * t + v][off + v:end:t] = arow
            else:
                w = b.cols
                for v, bcol in enumerate(zip(*b.entries)):
                    if any(bcol):
                        for i in range(p):
                            group[i * w + v][off + i * t:off + i * t + t] = bcol
        rows.extend(map(tuple, group))
    return Matrix._trusted(ring, len(rows), width, tuple(rows))


@record
class SNFResult:
    """Smith data:  d == p @ a @ q  with p, q invertible over the ring.

    pinv and qinv are the exact inverses of p and q: qinv accumulated
    during the reduction, pinv derived once it ends, from d == p @ a @ q
    with a @ q carried through the column steps, or from the recorded
    row steps; neither by inverting a matrix or forming a product.
    Internal callers that ask the reduction for fewer transforms get
    None in the others.
    """

    d: Matrix
    p: Matrix
    q: Matrix
    pinv: Matrix
    qinv: Matrix

    def __init__(self, d: Matrix, p: Matrix, q: Matrix, pinv: Matrix, qinv: Matrix) -> None:
        fields = self.__dict__
        fields["d"] = d
        fields["p"] = p
        fields["q"] = q
        fields["pinv"] = pinv
        fields["qinv"] = qinv

    @property
    def diagonal(self) -> tuple:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        z = self.d.ring.zero
        return sum(1 for x in self.diagonal if x != z)

    @property
    def invariant_factors(self) -> tuple:
        z = self.d.ring.zero
        return tuple(x for x in self.diagonal if x != z)


def _scaled(x, u, m):
    """The row u * x, reduced % m unless m is None."""
    if m is None:
        return [u * a for a in x]
    return [u * a % m for a in x]


def _axpy_sparse(x, y, c, m, start=0):
    """x += c * y in place from position start on, only where y is
    nonzero; each entry written is reduced % m unless m is None."""
    if m is None:
        for k in compress(range(start, len(y)), islice(y, start, None)):
            x[k] += c * y[k]
    else:
        for k in compress(range(start, len(y)), islice(y, start, None)):
            x[k] = (x[k] + c * y[k]) % m


# Finding a row's nonzero pairs costs about what reading them saves
# over two steps, so a sweep finds them only when more than this many
# targets can follow.
_SWEEP_PAIRS = 4


def _pairs(y, start=0):
    """The nonzero (position, entry) pairs of y from position start on."""
    return [p for p in enumerate(islice(y, start, None), start) if p[1]]


def _axpy_pairs(x, pairs, c, m):
    """x += c * y in place, y given by its nonzero pairs; each entry
    written is reduced % m unless m is None."""
    if m is None:
        for k, v in pairs:
            x[k] += c * v
    else:
        for k, v in pairs:
            x[k] = (x[k] + c * v) % m


TRANSFORMS = ("p", "pinv", "q", "qinv")


class _SnfWorker:
    """Mutable state for the Smith reduction with tracked elementary ops.

    Entries are raw ring values and every operation is plain arithmetic:
    integers and fractions are closed and canonical, so the only
    reduction left is % m over Z/m.

    rows holds one list per row of a: the row of d, its first c
    entries, followed by the row of p when p is kept, or else by the
    row of carry, when given.  carry thus follows each row step, and
    the worker ends with p @ carry there.  A row swap, negation,
    scaling or addition acts once per row, on d and on what rides
    along.  Both reductions keep every row at or below the current
    pivot t zero left of column t, and every finished pivot row zero
    off its diagonal.  So add_row(i, j, c) starts at column min(i, j),
    and negate_row(t) and scale_row(t, u), which only ever act on the
    pivot row, start at column t: the entries before are known zero.

    q only ever sees column operations, so it is kept transposed (q_t),
    which turns each of them into a row operation; qinv sees the
    inverse steps as row operations.  follow, when given, takes the
    place of qinv, so that the worker ends with qinv @ follow: rows
    indexed like the columns of a that follow each column step with its
    inverse.  Every row update, on rows, q_t and qinv alike, is made in
    place, only where the source row is nonzero.  add_row and add_col
    find those positions with _axpy_sparse, unless the caller passes
    the source row's nonzero pairs: a sweep from one pivot row, or from
    one row of q_t, finds them once (_pairs) and hands them to each
    step, since none of its steps changes its source.

    Only the transforms named in keep are built and updated; the others
    stay None.  The operations on d do not depend on keep, so every
    kept transform is the same whichever others are kept.  pinv is not
    updated inline.  With pinv kept, the row steps are recorded in
    steps, and a @ q is carried as aq_t, kept transposed like q_t: it
    starts as a transposed, c rows of length r (c empty rows for a 0 x
    c input), and each column swap and column addition updates it as
    it updates q_t, in place where the source row is nonzero.  result()
    reads pinv off aq_t when every row of d has a pivot and replays the
    steps on the identity otherwise (see _pinv); it forms no product.
    """

    def __init__(self, a: Matrix, keep=TRANSFORMS, carry=None, follow=None):
        self.a = a
        self.ring = a.ring
        self.mod = a.ring.modulus
        self.r = r = a.rows
        self.c = a.cols
        self.keep = keep
        if "p" in keep:
            z, o = self.ring.zero, self.ring.one
            self.rows = [[*row, *(z,) * i, o, *(z,) * (r - 1 - i)] for i, row in enumerate(a.entries)]
        elif carry is not None:
            self.rows = [[*row, *tail] for row, tail in zip(a.entries, carry)]
        else:
            self.rows = [list(row) for row in a.entries]
        self.q_t = self._eye(self.c) if "q" in keep else None
        self.qinv = self._eye(self.c) if "qinv" in keep else follow
        # a @ q transposed, one row per column of a (c empty rows when a
        # has none): every column step acts on it as on q_t.
        self.aq_t = [[row[j] for row in a.entries] for j in range(self.c)] if "pinv" in keep else None
        # Each row step as it acts on the rows of pinv transposed:
        # (i, j, c) adds c times row j to row i, (i, j, None) swaps
        # rows i and j, and (i, None, u) scales row i by u.
        self.steps = [] if "pinv" in keep else None

    def _eye(self, n):
        z, o = self.ring.zero, self.ring.one
        rows = [[z] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = o
        return rows

    def swap_rows(self, i, j):
        if i == j:
            return
        rows = self.rows
        rows[i], rows[j] = rows[j], rows[i]
        if self.steps is not None:
            self.steps.append((i, j, None))

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.rows:
            row[i], row[j] = row[j], row[i]
        for rows in (self.q_t, self.aq_t, self.qinv):
            if rows is not None:
                rows[i], rows[j] = rows[j], rows[i]

    def add_row(self, i, j, c, pairs=None):
        """row_i += c * row_j from column min(i, j) on, reading pairs, when
        given, as _pairs(row_j, min(i, j)); the inverse step is recorded for pinv."""
        if pairs is None:
            _axpy_sparse(self.rows[i], self.rows[j], c, self.mod, i if i < j else j)
        else:
            _axpy_pairs(self.rows[i], pairs, c, self.mod)
        if self.steps is not None:
            self.steps.append((j, i, -c))

    def add_col(self, j, i, c, pairs=None):
        """col_j += c * col_i (on d, q and a @ q), reading pairs, when
        given, as _pairs(q_t[i]); inverse op recorded on qinv."""
        m = self.mod
        for row in self.rows:
            x = row[i]
            if x:
                row[j] = row[j] + c * x if m is None else (row[j] + c * x) % m
        if pairs is not None:
            _axpy_pairs(self.q_t[j], pairs, c, m)
        elif self.q_t is not None:
            _axpy_sparse(self.q_t[j], self.q_t[i], c, m)
        if self.aq_t is not None:
            _axpy_sparse(self.aq_t[j], self.aq_t[i], c, m)
        if self.qinv is not None:
            _axpy_sparse(self.qinv[i], self.qinv[j], -c, m)

    def negate_row(self, i):
        """row_i *= -1 (over Z only) from column i on, for pivot row i."""
        x = self.rows[i]
        x[i:] = [-v for v in x[i:]]
        if self.steps is not None:
            self.steps.append((i, None, -1))

    def scale_row(self, i, u):
        """row_i *= u for a unit u (fields only) from column i on, for pivot row i."""
        x = self.rows[i]
        x[i:] = _scaled(x[i:], u, self.mod)
        if self.steps is not None:
            self.steps.append((i, None, self.ring.invert(u)))

    def diagonal(self) -> list:
        rows = self.rows
        return [rows[i][i] for i in range(min(self.r, self.c))]

    def q_columns(self, start: int = 0, stop: int | None = None) -> Matrix:
        """Columns start, ..., stop - 1 of q, stop c by default; q must be kept."""
        c = self.c
        cols = self.q_t[start:stop]
        data = tuple(zip(*cols)) if cols else ((),) * c
        return Matrix._trusted(self.ring, c, len(cols), data)

    def _pinv(self) -> Matrix:
        """p^-1, derived from the finished reduction.

        When d has a nonzero diagonal entry in every row, pinv @ d ==
        a @ q determines pinv: its column j is row j of aq_t divided by
        d_jj, exactly over Z; over a field every d_jj is 1.  Otherwise
        the recorded row steps are replayed on the identity, so the
        reduction never runs twice.
        """
        ring, r, m = self.ring, self.r, self.mod
        diag = self.diagonal()
        if len(diag) == r and all(diag):
            cols = self.aq_t[:r]
            for j, e in enumerate(diag):
                if e != 1:
                    quotients = [divmod(x, e) for x in cols[j]]
                    if any(rem for _, rem in quotients):
                        raise AssertionError("a @ q is not a multiple of the Smith diagonal")
                    cols[j] = [x for x, _ in quotients]
            return Matrix._trusted(ring, r, r, tuple(zip(*cols)))
        pt = self._eye(r)
        for i, j, c in self.steps:
            if j is None:
                pt[i] = _scaled(pt[i], c, m)
            elif c is None:
                pt[i], pt[j] = pt[j], pt[i]
            else:
                _axpy_sparse(pt[i], pt[j], c, m)
        return Matrix._trusted(ring, r, r, tuple(zip(*pt)))

    def result(self) -> SNFResult:
        """The Smith data; a transform that was not kept is None."""
        ring, r, c, keep, rows = self.ring, self.r, self.c, self.keep, self.rows
        return SNFResult(
            d=Matrix._trusted(ring, r, c, tuple(tuple(row[:c]) for row in rows)),
            p=Matrix._trusted(ring, r, r, tuple(tuple(row[c:]) for row in rows)) if "p" in keep else None,
            q=self.q_columns() if "q" in keep else None,
            pinv=self._pinv() if "pinv" in keep else None,
            qinv=Matrix._trusted(ring, c, c, tuple(map(tuple, self.qinv))) if "qinv" in keep else None,
        )


def _smith(a: Matrix, keep=TRANSFORMS, carry=None) -> _SnfWorker:
    """The Smith reduction of smith_normal_form, building only the
    transforms named in keep and carrying carry (see _SnfWorker)."""
    ring = a.ring
    field = ring.is_field()
    if ring.kind == "Zmod" and not field:
        raise ValueError(
            "smith_normal_form over Z/m with composite m is not supported; "
            "lift the problem to Z"
        )
    # Over Z and Z/p no nonzero entry has a key below 1, so the scan
    # may stop at the first key of 1; over Q smaller keys exist.
    stop_at_one = ring.kind != "Q"
    w = _SnfWorker(a, keep, carry)
    d = w.rows
    t = 0
    limit = min(w.r, w.c)
    # The key of the last pass at position t, None when t has just
    # been reached, and how many passes in a row have had it.
    last, repeats = None, 0
    while t < limit:
        best = None
        bi = bj = -1
        for i in range(t, w.r):
            row = d[i]
            for j in range(t, w.c):
                v = row[j]
                if v:
                    key = abs(v)
                    if best is None or key < best:
                        best, bi, bj = key, i, j
                        if key == 1 and stop_at_one:
                            break
            if best == 1 and stop_at_one:
                break
        if best is None:
            break
        # A pass that repeats position t follows a sweep that left a
        # remainder, so the key falls, or the divisibility step, after
        # which the key stays once and the column sweep leaves a
        # remainder.  Over a field no pass repeats.
        if last is not None and (field or best > last or (best == last and repeats == 2)):
            raise AssertionError(f"the Smith pivot key at position {t} went {last} -> {best}")
        repeats = repeats + 1 if best == last else 1
        last = best
        w.swap_rows(t, bi)
        w.swap_cols(t, bj)
        if field:
            w.scale_row(t, ring.invert(d[t][t]))
        elif d[t][t] < 0:
            w.negate_row(t)
        piv = d[t][t]
        restart = False
        # No step of a sweep changes its source row, d[t] or q_t[t].
        pairs = _pairs(d[t], t) if w.r - t - 1 > _SWEEP_PAIRS else None
        for i in range(t + 1, w.r):
            x = d[i][t]
            if not x:
                continue
            qq = x if field else x // piv  # over a field the pivot is 1
            if qq:
                w.add_row(i, t, -qq, pairs)
            if d[i][t]:
                restart = True
        if restart:
            continue
        top = d[t]
        pairs = _pairs(w.q_t[t]) if w.q_t is not None and w.c - t - 1 > _SWEEP_PAIRS else None
        for j in range(t + 1, w.c):
            x = top[j]
            if not x:
                continue
            qq = x if field else x // piv
            if qq:
                w.add_col(j, t, -qq, pairs)
            if top[j]:
                restart = True
        if restart:
            continue
        if not field and piv != 1:
            bad_row = -1
            for i in range(t + 1, w.r):
                # Past column c a joined row holds p or the carried b.
                if any(x % piv for x in d[i][t + 1:w.c]):
                    bad_row = i
                    break
            if bad_row >= 0:
                # Pull the offending row up so the Euclidean steps see it.
                w.add_row(t, bad_row, 1)
                continue
        t += 1
        last = None
    return w


def smith_normal_form(a: Matrix) -> SNFResult:
    """Diagonalize with invertible row and column operations.

    Over Z the diagonal is nonnegative with each entry dividing the
    next.  Over a field the diagonal consists of ones followed by
    zeros.  Z/m with composite m is rejected: kernel_basis and
    solve_linear work there, and cycle_quotient_mod gives homology.
    """
    return _smith(a).result()


def invariant_factors(a: Matrix) -> tuple:
    """The nonzero Smith diagonal of a, found without any transform.

    Over Z these are the invariant factors d_1 | d_2 | ..., over a
    field rank(a) ones.  Z/m with composite m is rejected.
    """
    return tuple(x for x in _smith(a, ()).diagonal() if x)


def _eliminate(m, cols, ring, reduced):
    """Eliminate the rows m in place over their first cols columns.

    ring is ZZ for integer rows, eliminated fraction-free, or Z/p.  The
    pivot is the first nonzero entry of its column at or below the rows
    already pivoted.  Over ZZ a pivot p in column col turns every row x
    with entry f there into (p * x - f * y) // prev, y the pivot row and
    prev the previous pivot (Bareiss, Math. Comp. 22, 1968): every entry
    stays a minor of the input, so the division is exact.  Over Z/p the
    pivot row is scaled to 1 and its multiples are subtracted.  The rows
    below the pivot are zero left of col, so they are updated from col
    on.  reduced also clears the rows above the pivot (Gauss-Jordan;
    Nakos, Turner and Williams, SIGSAM Bull. 31(3), 1997); over ZZ
    those are not zero left of col, so they change over their full
    width.  Returns (pivot columns, sign of the row permutation, last
    pivot over ZZ, product of the pivots over Z/p); for a square input
    of full rank, sign times that is its determinant, and over ZZ after
    reduced every pivot row holds the last pivot at its pivot column.
    """
    mod = ring.modulus
    n = len(m)
    pivots = []
    sign = prev = 1
    t = 0
    for col in range(cols):
        if t == n:
            break
        for sel in range(t, n):
            if m[sel][col]:
                break
        else:
            continue
        if sel != t:
            m[t], m[sel] = m[sel], m[t]
            sign = -sign
        y = m[t]
        p = y[col]
        if mod is None:
            for lo, ys, block in ((col, y[col:], range(t + 1, n)), (0, y, range(t) if reduced else ())):
                for i in block:
                    x = m[i]
                    f = x[col]
                    if f:
                        x[lo:] = [(p * u - f * v) // prev for u, v in zip(x[lo:], ys)]
                    elif p != prev:
                        x[lo:] = [p * u // prev for u in x[lo:]]
            prev = p
        else:
            prev = prev * p % mod
            y[col:] = _scaled(y[col:], ring.invert(p), mod)
            for i in range(0 if reduced else t + 1, n):
                f = m[i][col]
                if f and i != t:
                    _axpy_sparse(m[i], y, -f, mod, col)
        pivots.append(col)
        t += 1
    return pivots, sign, prev


def _rref(a: Matrix):
    """Reduced row echelon form over a field; returns (rows, pivot columns).

    Over Q the rows are cleared of their denominators, which leaves
    their span alone, and eliminated fraction-free; the reduced row
    echelon form is unique, so dividing by the last pivot at the end
    gives exactly the form that Fraction arithmetic reaches.
    """
    ring = a.ring
    if ring.kind == "Q":
        m = [list(row) for row in _cleared_rows(a.entries)[0] if any(row)]
        pivots, _, prev = _eliminate(m, a.cols, ZZ, True)
        m = [[Fraction(u, prev) if u else _Q_ZERO for u in row] for row in m]
    else:
        m = [list(row) for row in a.entries if any(row)]
        pivots = _eliminate(m, a.cols, ring, True)[0]
    m += [[ring.zero] * a.cols for _ in range(a.rows - len(m))]
    return m, pivots


def _solve_field(a: Matrix, b: Matrix) -> Matrix | None:
    aug = a.hstack(b)
    m, pivots = _rref(aug)
    if any(p >= a.cols for p in pivots):
        return None
    x = [[a.ring.zero] * b.cols for _ in range(a.cols)]
    for idx, p in enumerate(pivots):
        for j in range(b.cols):
            x[p][j] = m[idx][a.cols + j]
    return Matrix(a.ring, a.cols, b.cols, tuple(tuple(r) for r in x))


def _diagonalize(a: Matrix, keep=(), carry=None):
    """(worker, pivots) of d = p a q: _smith over Z, _diagonalize_mod over
    composite Z/m.  The pivots are the nonzero diagonal entries of d, in
    order; keep and carry go to the worker (see _SnfWorker)."""
    if a.ring.kind == "Z":
        w = _smith(a, keep, carry)
        return w, list(filter(None, w.diagonal()))
    w = _SnfWorker(a, keep, carry)
    return w, _diagonalize_mod(w)


def _solve_diagonal(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve d y == p b row by row on d = p a q over Z or composite Z/m.

    The rows of b ride along the row steps and end as p b.  A row past
    the pivots has a solution only where p b is zero; a row with pivot
    e needs e to divide each entry, in Z or in Z/m (_multiplier), and
    then y holds the multipliers, the row itself when e is 1.  y is
    zero past the pivots, so x = q y needs only the pivot columns of q.
    """
    m, cols = a.ring.modulus, a.cols
    w, pivots = _diagonalize(a, ("q",), b.entries)
    rows, r = w.rows, len(pivots)
    for row in rows[r:]:
        if any(row[cols:]):
            return None
    y = []
    for e, row in zip(pivots, rows):
        if e == 1:
            y.append(tuple(row[cols:]))
            continue
        ys = []
        for x in row[cols:]:
            k = _multiplier(e, x, m)[0]
            if k is None:
                return None
            ys.append(k)
        y.append(tuple(ys))
    return w.q_columns(0, r) @ Matrix._trusted(a.ring, r, b.cols, tuple(y))


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """Find any exact x with a @ x == b, or None when no solution exists.

    b may have several columns; each is solved simultaneously.
    """
    if a.ring != b.ring:
        raise ShapeMismatch(f"ring mismatch: {a.ring} vs {b.ring}")
    if a.rows != b.rows:
        raise ShapeMismatch(f"a has {a.rows} rows but b has {b.rows}")
    if a.cols == 0:
        # Only the empty x exists; it solves exactly when b is zero.
        return Matrix.zero(a.ring, 0, b.cols) if b.is_zero() else None
    if a.ring.is_field():
        return _solve_field(a, b)
    return _solve_diagonal(a, b)


def _kernel_field(a: Matrix):
    m, pivots = _rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    z, o = a.ring.zero, a.ring.one
    columns, left = [], []
    for f in free:
        v = [z] * a.cols
        v[f] = o
        left.append(tuple(v))
        for idx, p in enumerate(pivots):
            v[p] = -m[idx][f]
        columns.append(v)
    return Matrix.from_columns(a.ring, columns, a.cols), Matrix._trusted(a.ring, len(free), a.cols, tuple(left))


def _kernel_diagonal(a: Matrix):
    """(k, l) read off d = p a q over Z or composite Z/m: k is q times
    the kernel of d.  Over Z/m that kernel sums Z/gcd(e, m) over the
    pivots e and Z/m over the other columns; those gcds divide each
    other and none is m, so it is free exactly when all of them are 1.
    Then k is the columns of q past the pivots and l those rows of qinv.
    """
    w, pivots = _diagonalize(a, ("q", "qinv"))
    m = a.ring.modulus
    if m is not None:
        bad = [g for g in (gcd(e, m) for e in pivots) if g > 1]
        if bad:
            raise NonFreeKernel(
                f"kernel over {a.ring} is not free: cyclic pieces of sizes {bad}"
            )
    r = len(pivots)
    return w.q_columns(r), Matrix._trusted(a.ring, a.cols - r, a.cols, tuple(map(tuple, w.qinv[r:])))


def _diagonalize_mod(w: _SnfWorker) -> list:
    """Diagonalize w.d over Z/m, m = w.mod; return the pivots.

    Only unimodular steps are taken, with every entry reduced % m:
    swaps, additions of one row to another, and extended-gcd steps on
    two rows or two columns, each a run of Euclidean additions.  An
    entry in the ideal of the pivot a is cleared in one addition: with
    g = gcd(a, m), a is a unit times g, so x = k * a for
    k = (x / g) * (a / g)^-1 mod m / g.  Otherwise Euclid leaves the
    pivot gcd(a, x), whose gcd with m is a proper divisor of g, so the
    pivot can shrink only finitely often.  Each pivot has the least gcd
    with m in the remaining block.  The search for the next pivot also
    checks that every entry of the block lies in the ideal of the last
    pivot, as the Smith reduction over Z does: when one does not, its
    row is added to the pivot row and that pivot is redone, which
    shrinks its gcd with m.  So the pivots' gcds with m divide each
    other.  When m is a prime power the check always passes, and after
    a unit pivot it is not made.  Pivot t ends at d[t][t] and all else
    is zero.
    """
    d, m = w.rows, w.mod
    t = 0
    while t < min(w.r, w.c):
        ideal = gcd(d[t - 1][t - 1], m) if t else 1
        best, bi, bj, outside = 0, -1, -1, -1
        for i in range(t, w.r):
            row = d[i]
            for j in range(t, w.c):
                if row[j]:
                    g = gcd(row[j], m)
                    if ideal != 1 and g % ideal:
                        outside = i
                        break
                    if not best or g < best:
                        best, bi, bj = g, i, j
                        if g == 1:
                            break
            if best == 1 or outside >= 0:
                break
        if outside >= 0:
            w.add_row(t - 1, outside, 1)
            t -= 1
            continue
        if not best:
            break
        w.swap_rows(t, bi)
        w.swap_cols(t, bj)
        # As in _smith, each sweep finds its source's pairs once, and
        # again after each Euclid swap replaces the source.
        pairs = _pairs(d[t], t) if w.r - t - 1 > _SWEEP_PAIRS else None
        for i in range(t + 1, w.r):
            while d[i][t]:
                k, q = _multiplier(d[t][t], d[i][t], m)
                w.add_row(i, t, -(q if k is None else k), pairs)
                if k is not None:
                    break
                w.swap_rows(t, i)
                pairs = None if pairs is None else _pairs(d[t], t)
        top = d[t]
        pairs = _pairs(w.q_t[t]) if w.q_t is not None and w.c - t - 1 > _SWEEP_PAIRS else None
        for j in range(t + 1, w.c):
            while top[j]:
                k, q = _multiplier(top[t], top[j], m)
                w.add_col(j, t, -(q if k is None else k), pairs)
                if k is not None:
                    break
                w.swap_cols(t, j)
                pairs = None if pairs is None else _pairs(w.q_t[t])
        if not any(d[i][t] for i in range(t + 1, w.r)):
            t += 1
    return [d[i][i] for i in range(t)]


def _multiplier(a, x, m):
    """(k, None) with x == k * a mod m when gcd(a, m) divides x, else
    (None, x // a); over Z (m is None), x == k * a when a divides x."""
    if m is None:
        k, rem = divmod(x, a)
        return (None, k) if rem else (k, None)
    g = gcd(a, m)
    if x % g:
        return None, x // a
    h = m // g
    return x // g * pow(a // g, -1, h) % h, None


def _invariant_chain(orders) -> tuple:
    """Invariant factors of the sum of the cyclic groups Z/o, o in orders.

    Pairing Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b) leaves each entry
    dividing all later ones; the trivial groups are dropped.
    """
    o = [x for x in orders if x > 1]
    for i in range(len(o)):
        for j in range(i + 1, len(o)):
            g = gcd(o[i], o[j])
            o[i], o[j] = g, o[i] // g * o[j]
    return tuple(x for x in o if x > 1)


def _cyclic_orders(pivots, count, m) -> list:
    """Orders of Z/m^count modulo a diagonal with these pivots."""
    return [gcd(e, m) for e in pivots] + [m] * (count - len(pivots))


def cycle_quotient_mod(d_n: Matrix, d_next: Matrix) -> tuple:
    """Invariant factors of ker d_n / im d_next over Z/m, without factoring m.

    d_n maps C_n to C_(n-1) and d_next maps C_(n+1) to C_n, with
    d_n @ d_next == 0.  Diagonalizing d_n while d_next follows its
    column steps gives coordinates of C_n in which the cycles are
    the sum of the cyclic groups (m / g_i) Z/m, g_i = gcd(pivot_i, m),
    or g_i = m where d_n has no pivot.  Row i of d_next, a boundary
    coordinate, is then a multiple of m / g_i.  Dividing it out gives
    the relation matrix [rows / (m / g_i) | diag(g_i)] on generators
    of order g_i, and a second diagonalization reads off its cyclic
    orders.  Each diagonalization is skipped where it has nothing to
    do: when d_n is zero every coordinate is a cycle, and d_next alone
    gives the relations; when no boundary meets the cycles, the
    relations are diag(g_i).
    """
    m = d_n.ring.modulus
    if d_n.is_zero():
        pivots = _diagonalize_mod(_SnfWorker(d_next, ()))
        return _invariant_chain(_cyclic_orders(pivots, d_n.cols, m))
    w = _SnfWorker(d_n, (), follow=[list(row) for row in d_next.entries])
    orders = _cyclic_orders(_diagonalize_mod(w), d_n.cols, m)
    kept = [(g, row) for g, row in zip(orders, w.qinv) if g > 1]
    if not any(any(row) for _, row in kept):
        return _invariant_chain(orders)
    relations = []
    for i, (g, row) in enumerate(kept):
        step = m // g
        if any(x % step for x in row):
            raise AssertionError("a boundary is not a cycle")
        diag = [0] * len(kept)
        diag[i] = g % m
        relations.append(tuple(x // step for x in row) + tuple(diag))
    shape = (len(kept), d_next.cols + len(kept))
    pivots = _diagonalize_mod(_SnfWorker(Matrix._trusted(d_n.ring, *shape, tuple(relations)), ()))
    return _invariant_chain(_cyclic_orders(pivots, len(kept), m))


def kernel_basis(a: Matrix) -> Matrix:
    """Columns forming a basis of {x : a @ x == 0}.

    Over Z the basis spans the kernel as a direct summand (it is
    saturated).  Over Z/m with composite m the kernel may fail to be
    free, in which case NonFreeKernel is raised.
    """
    return _kernel(a)[0]


def _kernel(a: Matrix):
    """(k, l): the basis of kernel_basis and a left inverse, l @ k == 1.
    Over a field l's rows are unit rows at the free columns, where k's
    rows are the identity's; _coordinates relies on that."""
    if a.ring.is_field():
        return _kernel_field(a)
    return _kernel_diagonal(a)


def _rows(a: Matrix, indices) -> Matrix:
    return Matrix._trusted(a.ring, len(indices), a.cols, tuple(a.entries[i] for i in indices))


def _coordinates(k: Matrix, l: Matrix, v: Matrix, what: str) -> Matrix:
    """The only x with k @ x == v, l @ v as l @ k == 1; AssertionError(what)
    when v leaves the span of k, where solve_linear(k, v) gives None.
    Over a field x is v's rows at the unit rows of l, where k @ x == v
    holds by construction, so only k's pivot rows are checked."""
    if k.ring.is_field():
        free = [row.index(k.ring.one) for row in l.entries]
        pivots = sorted(set(range(k.rows)).difference(free))
        k, v, x = _rows(k, pivots), _rows(v, pivots), _rows(v, free)
    else:
        x = l @ v
    if k @ x != v:
        raise AssertionError(what)
    return x


def inverse(a: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix, or None."""
    if not a.is_square():
        raise ShapeMismatch("only square matrices can be inverted")
    x = solve_linear(a, Matrix.identity(a.ring, a.rows))
    if x is None:
        return None
    if (x @ a) != Matrix.identity(a.ring, a.rows):
        return None
    return x


def is_split_injection(a: Matrix) -> Matrix | None:
    """Retraction r with r @ a == identity, or None when a is not split injective."""
    x = solve_linear(a.transpose(), Matrix.identity(a.ring, a.cols))
    if x is None:
        return None
    return x.transpose()


def is_split_surjection(a: Matrix) -> Matrix | None:
    """Section s with a @ s == identity, or None when a is not split surjective."""
    return solve_linear(a, Matrix.identity(a.ring, a.rows))


def _is_onto(a: Matrix) -> bool:
    """Whether a is split surjective, decided without a section: over a
    field its rank is a.rows; over Z and composite Z/m, d = p a q has
    a pivot in every row and every pivot is a unit, gcd(e, m) == 1
    (with m = 0 over Z, where gcd(e, 0) == e for the positive pivots)."""
    if a.ring.is_field():
        return rank(a) == a.rows
    m = a.ring.modulus or 0
    pivots = _diagonalize(a)[1]
    return len(pivots) == a.rows and all(gcd(e, m) == 1 for e in pivots)


def split_with_complement(a: Matrix):
    """Splitting data for a split injection a.

    Returns (r, comp, proj) with

        r @ a == identity            (retraction, compatible with comp)
        a @ r + comp @ proj == identity
        proj @ comp == identity
        r @ comp == 0 and proj @ a == 0

    so the columns of comp complete the image of a to a basis.  Returns
    None when a is not a split injection.  With l the left inverse of
    comp, a kernel basis of r, [r; l - (l @ a) @ r] inverts [a | comp].
    """
    r = is_split_injection(a)
    if r is None:
        return None
    comp, left = _kernel(r)
    proj = left - (left @ a) @ r
    if a @ r + comp @ proj != Matrix.identity(a.ring, a.rows):
        raise AssertionError("image plus complement failed to span")
    return r, comp, proj


def _cleared_rows(entries):
    """Rational rows, each scaled by the lcm of its denominators.

    Returns (the integer rows as a tuple of tuples, the scale of each row).
    """
    rows, scales = [], []
    for row in entries:
        s = lcm(*[x.denominator for x in row])
        if s == 1:
            rows.append(tuple([x.numerator for x in row]))
        else:
            rows.append(tuple([x.numerator * (s // x.denominator) for x in row]))
        scales.append(s)
    return tuple(rows), scales


def det(a: Matrix):
    """Exact determinant in the base ring from one row echelon form: in
    Z/p itself, else fraction-free over Z, of the entries, their lifts
    over composite Z/m or the rows cleared of denominators over Q."""
    if not a.is_square():
        raise ShapeMismatch("determinant needs a square matrix")
    kind = a.ring.kind
    rows, scales = _cleared_rows(a.entries) if kind == "Q" else (a.entries, ())
    ring = a.ring if kind == "Zmod" and a.ring.is_field() else ZZ
    pivots, sign, prev = _eliminate([list(row) for row in rows], a.cols, ring, False)
    d = sign * prev if len(pivots) == a.rows else 0
    if kind == "Zmod":
        return d % a.ring.modulus
    if kind == "Q":
        return Fraction(d, prod(scales))
    return d


def rank(a: Matrix) -> int:
    """Rank over Z or over a field (not defined for composite Z/m).

    The number of pivots of one row echelon form: fraction-free over Z
    and over Q, there after clearing each row's denominators, and mod p
    over Z/p.
    """
    ring = a.ring
    if ring.kind == "Zmod" and not ring.is_field():
        raise ValueError("rank over Z/m with composite m is not well defined")
    if ring.kind == "Q":
        ring, rows = ZZ, _cleared_rows(a.entries)[0]
    else:
        rows = a.entries
    return len(_eliminate([list(row) for row in rows if any(row)], a.cols, ring, False)[0])
