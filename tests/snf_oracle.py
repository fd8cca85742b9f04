"""Reference implementations kept as test oracles.

smith_normal_form and homology_at below are the library's earlier
versions, kept verbatim, and so are _rref with the field solve and
kernel built on it, the rational determinant loop, the three
elimination loops that the library's one _eliminate replaced (the
integer Bareiss elimination _bareiss with _det_bareiss on it, which
ranked over Z and Q and gave every determinant, and the fraction-free
Gauss-Jordan elimination _rref_rational over Q), the composite Z/m
lattice routes (kernel_lattice_basis_mod, the kernel and the solve
built on it, _kernel_zmod_composite and _solve_zmod_composite, and the
homology one, _homology_mod_composite), the composite homology that
read every degree off the full differentials before the library
removed the unit pivots of the whole complex first
(homology_per_degree_mod) with cycle_quotient_mod as it was before it
skipped a diagonalization with nothing to do, the solves over Z and over
composite Z/m that kept p in the Smith worker and then multiplied
p @ b (solve_integer_via_p and solve_zmod_composite_via_p), the four
routes that read solves and kernels off the diagonal d = p a q one
ring at a time before the library's one read-off (_solve_integer and
_kernel_integer over Z, solve_zmod_composite_diagonal and
kernel_zmod_composite_diagonal over composite Z/m) with the
three-branch _is_onto that solved for a section over composite Z/m,
the trial-division invariant factors of a sum of cyclic groups that
fuzz once built its expected homology with
(invariant_factors_of_cyclics), the Smith worker that kept d, p
and carry as separate lists and updated whole rows (DenseSnfWorker),
with the composite kernel and solve run on it, and the row and column
steps that found the nonzero positions of their source row again on
every step (StepwiseSnfWorker).  The lattice routes
solve and take kernels over Z with this module's _solve_integer and
_kernel_integer, not with the library's read-off that they check.
The Smith reduction normalises every entry through Ring.normalize
after each elementary operation, builds one (key, row, column) tuple
per candidate pivot and rescans the trailing block for divisibility
after every pivot.  homology_at reads H_n off the cycle lattice: a
kernel basis of d_n, the coordinates of d_(n+1) in that basis found by
a solve, and a Smith form of those coordinates.  Over a field it
counts the cycles and the boundaries with this module's own _rref, so
that no library elimination stands on both sides of a comparison;
det and the rank loops here never call the library's _rref, rank or
det either.  The old _rref
normalises every entry it writes through Ring.normalize, det
eliminates with fractions over Q, and each lattice route lifts the
problem to the lattice {x in Z^c : a x == 0 mod m} and solves and
Smith-reduces over Z on its own.  The two solves via p run the
library's own elimination and keep p, where the library now carries
the rows of b through the row steps.  The library computes the same
results more cheaply, or from one shared routine; the tests require
the two to agree exactly, except against the lattice routes over
composite Z/m: there neither a kernel basis nor a solution is unique,
so a basis need only have as many columns and span the same module,
and a solve need only find a solution exactly when the oracle does.
"""

from __future__ import annotations

from chainbench.chains import ChainComplex, HomologySummary
from fractions import Fraction
from itertools import compress, islice

from chainbench import exact_linalg

from chainbench.exact_linalg import (
    ZZ,
    Matrix,
    NonFreeKernel,
    Ring,
    ShapeMismatch,
    SNFResult,
    _Q_ZERO,
    _cleared_rows,
    kernel_basis,
    solve_linear,
)


class _SnfWorker:
    """Mutable state for the Smith reduction with tracked elementary ops."""

    def __init__(self, a: Matrix):
        self.ring = a.ring
        self.r = a.rows
        self.c = a.cols
        self.d = [list(row) for row in a.entries]
        self.p = self._eye(self.r)
        self.pinv = self._eye(self.r)
        self.q = self._eye(self.c)
        self.qinv = self._eye(self.c)

    def _eye(self, n):
        z, o = self.ring.zero, self.ring.one
        return [[o if i == j else z for j in range(n)] for i in range(n)]

    def swap_rows(self, i, j):
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.p[i], self.p[j] = self.p[j], self.p[i]
        for row in self.pinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.q:
            row[i], row[j] = row[j], row[i]
        self.qinv[i], self.qinv[j] = self.qinv[j], self.qinv[i]

    def add_row(self, i, j, c):
        """row_i += c * row_j (on d and p); inverse op recorded on pinv."""
        norm = self.ring.normalize
        di, dj = self.d[i], self.d[j]
        for k in range(self.c):
            di[k] = norm(di[k] + c * dj[k])
        pi, pj = self.p[i], self.p[j]
        for k in range(self.r):
            pi[k] = norm(pi[k] + c * pj[k])
        for row in self.pinv:
            row[j] = norm(row[j] - c * row[i])

    def add_col(self, j, i, c):
        """col_j += c * col_i (on d and q); inverse op recorded on qinv."""
        norm = self.ring.normalize
        for row in self.d:
            row[j] = norm(row[j] + c * row[i])
        for row in self.q:
            row[j] = norm(row[j] + c * row[i])
        qi, qj = self.qinv[i], self.qinv[j]
        for k in range(self.c):
            qi[k] = norm(qi[k] - c * qj[k])

    def negate_row(self, i):
        norm = self.ring.normalize
        self.d[i] = [norm(-x) for x in self.d[i]]
        self.p[i] = [norm(-x) for x in self.p[i]]
        for row in self.pinv:
            row[i] = norm(-row[i])

    def scale_row(self, i, u):
        """row_i *= u for a unit u (fields only)."""
        norm = self.ring.normalize
        uinv = self.ring.invert(u)
        self.d[i] = [norm(u * x) for x in self.d[i]]
        self.p[i] = [norm(u * x) for x in self.p[i]]
        for row in self.pinv:
            row[i] = norm(uinv * row[i])

    def result(self) -> SNFResult:
        ring = self.ring
        mk = lambda rows, rr, cc: Matrix(ring, rr, cc, tuple(tuple(r) for r in rows))
        return SNFResult(
            d=mk(self.d, self.r, self.c),
            p=mk(self.p, self.r, self.r),
            q=mk(self.q, self.c, self.c),
            pinv=mk(self.pinv, self.r, self.r),
            qinv=mk(self.qinv, self.c, self.c),
        )


def _abs_key(ring: Ring, x):
    if ring.kind == "Zmod":
        return x
    return abs(x)


def smith_normal_form(a: Matrix) -> SNFResult:
    """Diagonalize with invertible row and column operations.

    Over Z the diagonal is nonnegative with each entry dividing the
    next.  Over a field the diagonal consists of ones followed by
    zeros.  Z/m with composite m is rejected: work with an integer lift
    instead.
    """
    ring = a.ring
    field = ring.is_field()
    if ring.kind == "Zmod" and not field:
        raise ValueError(
            "smith_normal_form over Z/m with composite m is not supported; "
            "lift the problem to Z"
        )
    w = _SnfWorker(a)
    z = ring.zero
    t = 0
    limit = min(w.r, w.c)
    while t < limit:
        best = None
        bi = bj = -1
        for i in range(t, w.r):
            for j in range(t, w.c):
                v = w.d[i][j]
                if v == z:
                    continue
                key = (_abs_key(ring, v), i, j)
                if best is None or key < best:
                    best = key
                    bi, bj = i, j
        if best is None:
            break
        w.swap_rows(t, bi)
        w.swap_cols(t, bj)
        if field:
            w.scale_row(t, ring.invert(w.d[t][t]))
        elif w.d[t][t] < 0:
            w.negate_row(t)
        piv = w.d[t][t]
        restart = False
        for i in range(t + 1, w.r):
            x = w.d[i][t]
            if x == z:
                continue
            if field:
                qq = x  # pivot is 1
            else:
                qq = x // piv
            if qq != z:
                w.add_row(i, t, -qq)
            if w.d[i][t] != z:
                restart = True
        if restart:
            continue
        for j in range(t + 1, w.c):
            x = w.d[t][j]
            if x == z:
                continue
            if field:
                qq = x
            else:
                qq = x // piv
            if qq != z:
                w.add_col(j, t, -qq)
            if w.d[t][j] != z:
                restart = True
        if restart:
            continue
        if not field:
            bad_row = -1
            for i in range(t + 1, w.r):
                if any(w.d[i][j] % piv != 0 for j in range(t + 1, w.c)):
                    bad_row = i
                    break
            if bad_row >= 0:
                # Pull the offending row up so the Euclidean steps see it.
                w.add_row(t, bad_row, ring.one)
                continue
        t += 1
    return w.result()


def homology_at(c: ChainComplex, n: int) -> HomologySummary:
    ring = c.ring
    modulus = ring.modulus if ring.kind == "Zmod" else None
    if c.rank(n) == 0:
        return HomologySummary(0, (), modulus)
    if ring.is_field():
        cycles = _kernel_field(c.diff(n)).cols
        image = len(_rref(c.diff(n + 1))[1])
        return HomologySummary(cycles - image, (), modulus)
    if ring.kind == "Z":
        cycles = kernel_basis(c.diff(n))
        in_cycle_coords = solve_linear(cycles, c.diff(n + 1))
        if in_cycle_coords is None:
            raise AssertionError("boundaries fell outside the cycle lattice")
        snf = smith_normal_form(in_cycle_coords)
        betti = cycles.cols - snf.rank
        torsion = tuple(int(x) for x in snf.invariant_factors if x != 1)
        return HomologySummary(betti, torsion, None)
    return _homology_mod_composite(c, n)


def _homology_mod_composite(c: ChainComplex, n: int) -> HomologySummary:
    # Z/m with composite m: compare the cycle lattice with the lattice
    # spanned by boundaries together with m times everything.
    m = c.ring.modulus
    basis = kernel_lattice_basis_mod(c.diff(n).to_ring(ZZ), m)
    cn = c.rank(n)
    gens = c.diff(n + 1).to_ring(ZZ).hstack(Matrix.identity(ZZ, cn).scale(m))
    coords = solve_linear(basis, gens)
    if coords is None:
        raise AssertionError("boundaries fell outside the cycle lattice mod m")
    factors = smith_normal_form(coords).diagonal
    if any(x == 0 for x in factors):
        raise AssertionError("homology mod m came out infinite")
    torsion = tuple(int(x) for x in factors if x != 1)
    return HomologySummary(0, torsion, m)


def homology_per_degree_mod(c: ChainComplex, n: int) -> HomologySummary:
    """H_n over composite Z/m read off the full d_n and d_(n+1) by
    cycle_quotient_mod below, with no unit pivot removed first."""
    return HomologySummary(0, cycle_quotient_mod(c.diff(n), c.diff(n + 1)), c.ring.modulus)


def cycle_quotient_mod(d_n: Matrix, d_next: Matrix) -> tuple:
    """Invariant factors of ker d_n / im d_next over Z/m: two
    diagonalizations on every input, even when d_n is zero or no
    boundary meets the cycles."""
    m = d_n.ring.modulus
    w = exact_linalg._SnfWorker(d_n, (), follow=[list(row) for row in d_next.entries])
    orders = exact_linalg._cyclic_orders(exact_linalg._diagonalize_mod(w), d_n.cols, m)
    kept = [(g, row) for g, row in zip(orders, w.qinv) if g > 1]
    relations = []
    for i, (g, row) in enumerate(kept):
        step = m // g
        if any(x % step for x in row):
            raise AssertionError("a boundary is not a cycle")
        diag = [0] * len(kept)
        diag[i] = g % m
        relations.append(tuple(x // step for x in row) + tuple(diag))
    shape = (len(kept), d_next.cols + len(kept))
    relation_matrix = Matrix(d_n.ring, *shape, tuple(relations))
    pivots = exact_linalg._diagonalize_mod(exact_linalg._SnfWorker(relation_matrix, ()))
    return exact_linalg._invariant_chain(exact_linalg._cyclic_orders(pivots, len(kept), m))


def _rref(a: Matrix):
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    ring = a.ring
    z = ring.zero
    m = [list(row) for row in a.entries]
    pivots = []
    prow = 0
    for col in range(a.cols):
        sel = -1
        for i in range(prow, a.rows):
            if m[i][col] != z:
                sel = i
                break
        if sel < 0:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        inv = ring.invert(m[prow][col])
        m[prow] = [ring.normalize(inv * x) for x in m[prow]]
        for i in range(a.rows):
            if i != prow and m[i][col] != z:
                f = m[i][col]
                mi, mp = m[i], m[prow]
                m[i] = [ring.normalize(xi - f * xp) for xi, xp in zip(mi, mp)]
        pivots.append(col)
        prow += 1
        if prow == a.rows:
            break
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


def _kernel_field(a: Matrix) -> Matrix:
    m, pivots = _rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    z, o = a.ring.zero, a.ring.one
    columns = []
    for f in free:
        v = [z] * a.cols
        v[f] = o
        for idx, p in enumerate(pivots):
            v[p] = a.ring.normalize(-m[idx][f])
        columns.append(v)
    return Matrix.from_columns(a.ring, columns, a.cols)


# ---------------------------------------------------------------------------
# The solves, kernels and onto-test over Z and composite Z/m, read off
# the diagonal route by route before exact_linalg read them off once


def _solve_integer(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve d y == p b entry by entry on the Smith form d = p a q; the
    rows of b ride along the row steps and end as p b."""
    w = exact_linalg._smith(a, ("q",), carry=b.entries)
    cols = a.cols
    y = []
    for i, row in enumerate(w.rows):
        di = row[i] if i < cols else 0
        if di == 0:
            if any(row[cols:]):
                return None
            y.append(row[cols:])
            continue
        ys = []
        for cij in row[cols:]:
            yij, rem = divmod(cij, di)
            if rem:
                return None
            ys.append(yij)
        y.append(ys)
    y = tuple(map(tuple, y[:cols])) + ((0,) * b.cols,) * (cols - len(y))
    return w.q_columns() @ Matrix._trusted(ZZ, cols, b.cols, y)


def solve_zmod_composite_diagonal(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve d y == p b entry by entry on the diagonalization d = p a q;
    the rows of b ride along the row steps and end as p b."""
    m = a.ring.modulus
    w = exact_linalg._SnfWorker(a, ("q",), carry=b.entries)
    pivots = exact_linalg._diagonalize_mod(w)
    cols = a.cols
    if any(any(row[cols:]) for row in w.rows[len(pivots):]):
        return None
    y = []
    for e, row in zip(pivots, w.rows):
        ks = tuple(exact_linalg._multiplier(e, x, m)[0] for x in row[cols:])
        if None in ks:
            return None
        y.append(ks)
    y += [(0,) * b.cols] * (cols - len(pivots))
    return w.q_columns() @ Matrix._trusted(a.ring, cols, b.cols, tuple(y))


def _kernel_integer(a: Matrix) -> Matrix:
    w = exact_linalg._smith(a, ("q",))
    return w.q_columns(sum(1 for x in w.diagonal() if x))


def kernel_zmod_composite_diagonal(a: Matrix) -> Matrix:
    """The kernel read off the diagonalization d = a q over Z/m.

    It is q times the kernel of d, the sum of the annihilators of the
    pivots, cyclic of order gcd(pivot, m), and Z/m for every column
    without a pivot.  That sum is free exactly when its invariant
    factors are all m.  The pivots' gcds with m divide each other, so
    then every pivot is a unit and the columns of q past the pivots
    are a basis.
    """
    m = a.ring.modulus
    w = exact_linalg._SnfWorker(a, ("q",))
    pivots = exact_linalg._diagonalize_mod(w)
    orders = exact_linalg._cyclic_orders(pivots, a.cols, m)
    bad = [x for x in exact_linalg._invariant_chain(orders) if x != m]
    if bad:
        raise NonFreeKernel(
            f"kernel over {a.ring} is not free: cyclic pieces of sizes {bad}"
        )
    return w.q_columns(len(pivots))


def _is_onto(a: Matrix) -> bool:
    """Whether a is split surjective, decided without a section where
    the ring allows: over a field its rank is a.rows; over Z its
    invariant factors are a.rows ones; over composite Z/m a section is
    solved for, as is_split_surjection does (here on the solve above,
    which is_split_surjection reached through solve_linear)."""
    if a.ring.is_field():
        return exact_linalg.rank(a) == a.rows
    if a.ring.kind == "Z":
        factors = exact_linalg.invariant_factors(a)
        return len(factors) == a.rows and all(x == 1 for x in factors)
    return solve_zmod_composite_diagonal(a, Matrix.identity(a.ring, a.rows)) is not None


def kernel_lattice_basis_mod(a: Matrix, m: int) -> Matrix:
    """Basis of the lattice {x in Z^cols : a @ x == 0 mod m} for integer a.

    The lattice contains m Z^cols, so it always has full rank and the
    result is a square invertible integer matrix whose columns generate
    exactly the solutions of the congruence system.
    """
    if a.ring != ZZ:
        raise ShapeMismatch("kernel_lattice_basis_mod expects an integer matrix")
    c = a.cols
    aug = a.hstack(Matrix.identity(ZZ, a.rows).scale(m))
    gens = _kernel_integer(aug).rows_slice(0, c)
    snf_g = smith_normal_form(gens)
    cols = []
    for i in range(snf_g.rank):
        di = snf_g.d.entries[i][i]
        cols.append([snf_g.pinv.entries[k][i] * di for k in range(c)])
    basis = Matrix.from_columns(ZZ, cols, c)
    if basis.cols != c:
        raise AssertionError("congruence kernel lattice lost full rank")
    return basis


def _kernel_zmod_composite(a: Matrix) -> Matrix:
    ring = a.ring
    m = ring.modulus
    # Integer vectors x with a x == 0 mod m form a full-rank lattice L
    # inside Z^c (it contains m Z^c).  The kernel over Z/m is L / m Z^c,
    # which is free exactly when its invariant factors are all 1 or m:
    # read them off one Smith form of the coordinates of m Z^c in a
    # basis of L.
    basis = kernel_lattice_basis_mod(a.to_ring(ZZ), m)
    coords = _solve_integer(basis, Matrix.identity(ZZ, a.cols).scale(m))
    if coords is None:
        raise AssertionError("generators fell outside the congruence lattice")
    snf_c = smith_normal_form(coords)
    factors = snf_c.diagonal
    if any(f == 0 for f in factors):
        raise AssertionError("congruence quotient came out infinite")
    bad = [int(f) for f in factors if f not in (1, m)]
    if bad:
        raise NonFreeKernel(
            f"kernel over {ring} is not free: cyclic pieces of sizes {bad}"
        )
    picked = [i for i, f in enumerate(factors) if f == m]
    generators = (basis @ snf_c.pinv).select_columns(picked)
    return generators.to_ring(ring)


def _solve_zmod_composite(a: Matrix, b: Matrix) -> Matrix | None:
    m = a.ring.modulus
    a_lift = a.to_ring(ZZ)
    b_lift = b.to_ring(ZZ)
    aug = a_lift.hstack(Matrix.identity(ZZ, a.rows).scale(m))
    x_full = _solve_integer(aug, b_lift)
    if x_full is None:
        return None
    return x_full.rows_slice(0, a.cols).to_ring(a.ring)


def solve_integer_via_p(a: Matrix, b: Matrix) -> Matrix | None:
    snf = exact_linalg._smith(a, ("p", "q")).result()
    c = snf.p @ b
    y = [[0] * b.cols for _ in range(a.cols)]
    n = min(a.rows, a.cols)
    for i in range(a.rows):
        di = snf.d.entries[i][i] if i < n else 0
        for j in range(b.cols):
            cij = c.entries[i][j]
            if di == 0:
                if cij != 0:
                    return None
            else:
                if cij % di != 0:
                    return None
                y[i][j] = cij // di
    return snf.q @ Matrix(ZZ, a.cols, b.cols, tuple(tuple(r) for r in y))


def solve_zmod_composite_via_p(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve d y == p b entry by entry on the diagonalization d = p a q."""
    m = a.ring.modulus
    w = exact_linalg._SnfWorker(a, ("p", "q"))
    pivots = exact_linalg._diagonalize_mod(w)
    snf = w.result()
    c = (snf.p @ b).entries
    if any(map(any, c[len(pivots):])):
        return None
    y = []
    for e, row in zip(pivots, c):
        ks = tuple(exact_linalg._multiplier(e, x, m)[0] for x in row)
        if None in ks:
            return None
        y.append(ks)
    y += [(0,) * b.cols] * (a.cols - len(pivots))
    return snf.q @ Matrix._trusted(a.ring, a.cols, b.cols, tuple(y))


def _bareiss(rows):
    """Fraction-free elimination of integer rows (Bareiss, Math. Comp. 22, 1968).

    Each step clears the column under a pivot with 2x2 cross products
    divided exactly by the previous pivot, so every entry stays a minor
    of the input and no fraction arises.  A column with no pivot is
    skipped.  Returns (rank, sign, pivot): sign is that of the row
    permutation and pivot the last pivot, which for a nonsingular square
    input is sign times its determinant.
    """
    m = [r for r in rows if any(r)]
    rank, sign, prev = 0, 1, 1
    while m and m[0]:
        sel = next((i for i, row in enumerate(m) if row[0]), -1)
        if sel < 0:
            m = [row[1:] for row in m]
            continue
        if sel:
            m[0], m[sel] = m[sel], m[0]
            sign = -sign
        top = m[0]
        piv, tail = top[0], top[1:]
        m = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in m[1:]]
        prev = piv
        rank += 1
    return rank, sign, prev


def _det_bareiss(rows) -> int:
    """Determinant of a square integer matrix given as rows."""
    rank, sign, pivot = _bareiss(rows)
    return sign * pivot if rank == len(rows) else 0


def _rref_rational(a: Matrix):
    """_rref over Q by fraction-free Gauss-Jordan elimination on integers.

    Each row is cleared of its denominators, which leaves its row space
    alone.  A pivot p in column col turns every other row x, whose
    entry there is f, into (p * x - f * y) // prev, y the pivot row and
    prev the previous pivot (Nakos, Turner and Williams, SIGSAM Bull.
    31(3), 1997).  As in Bareiss elimination every entry stays a minor
    of the input, so the division is exact, and every pivot row ends
    with the last pivot at its pivot column.  The reduced row echelon
    form is unique, so dividing those rows by the last pivot gives
    exactly the form that Fraction arithmetic reaches.
    """
    m = [row for row in _cleared_rows(a.entries)[0] if any(row)]
    pivots = []
    prev = 1
    prow = 0
    for col in range(a.cols):
        sel = -1
        for i in range(prow, len(m)):
            if m[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        y = m[prow]
        p = y[col]
        for i, x in enumerate(m):
            if i == prow:
                continue
            f = x[col]
            if f:
                m[i] = [(p * u - f * v) // prev for u, v in zip(x, y)]
            elif p != prev:
                m[i] = [p * u // prev for u in x]
        pivots.append(col)
        prev = p
        prow += 1
        if prow == len(m):
            break
    rows = [[Fraction(u, prev) if u else _Q_ZERO for u in row] for row in m]
    rows += [[_Q_ZERO] * a.cols for _ in range(a.rows - len(m))]
    return rows, pivots


def det(a: Matrix):
    """Exact determinant in the base ring."""
    if not a.is_square():
        raise ShapeMismatch("determinant needs a square matrix")
    if a.ring.kind == "Z":
        return _det_bareiss(a.entries)
    if a.ring.kind == "Zmod":
        return _det_bareiss(a.entries) % a.ring.modulus
    # Rational: eliminate with exact fractions.
    n = a.rows
    m = [list(row) for row in a.entries]
    sign = 1
    out = Fraction(1)
    for k in range(n):
        sel = -1
        for i in range(k, n):
            if m[i][k] != 0:
                sel = i
                break
        if sel < 0:
            return Fraction(0)
        if sel != k:
            m[k], m[sel] = m[sel], m[k]
            sign = -sign
        piv = m[k][k]
        out *= piv
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / piv
                m[i] = [xi - f * xk for xi, xk in zip(m[i], m[k])]
    return out * sign


def invariant_factors_of_cyclics(orders) -> tuple:
    """Invariant factor chain of a direct sum of cyclic groups Z/n.

    Orders equal to 1 are dropped; 0 is not allowed here.  The result
    lists d_1 | d_2 | ... | d_k largest last.
    """
    buckets = {}
    for n in orders:
        if n == 1:
            continue
        if n <= 0:
            raise ValueError("cyclic orders must be positive")
        left = n
        f = 2
        while f * f <= left:
            if left % f == 0:
                power = 1
                while left % f == 0:
                    left //= f
                    power *= f
                buckets.setdefault(f, []).append(power)
            f += 1
        if left > 1:
            buckets.setdefault(left, []).append(left)
    for plist in buckets.values():
        plist.sort(reverse=True)
    depth = max((len(v) for v in buckets.values()), default=0)
    chain = []
    for slot in range(depth):
        factor = 1
        for plist in buckets.values():
            if slot < len(plist):
                factor *= plist[slot]
        chain.append(factor)
    return tuple(reversed(chain))


# ---------------------------------------------------------------------------
# The composite kernel and solve on the dense worker


def _axpy(x, y, c, m):
    """The row x + c * y, reduced % m unless m is None."""
    if m is None:
        return [a + c * b for a, b in zip(x, y)]
    return [(a + c * b) % m for a, b in zip(x, y)]


class DenseSnfWorker:
    """The Smith worker before its rows were joined.

    d, p and carry are separate lists, and every step acts on whole
    rows; each column step on q_t and qinv is a whole-row update.  The
    code is the library's as it was, except that rows also names d, the
    list that exact_linalg._diagonalize_mod reads, and that add_row and
    add_col take the pairs that a long sweep passes and ignore them, so
    that the library's composite diagonalization runs its exact step
    sequence on these dense rows.  Its earlier docstring follows.

    Entries are raw ring values and every operation is plain arithmetic
    on whole rows: integers and fractions are closed and canonical, so
    the only reduction left is % m over Z/m.  q only ever sees column
    operations, so it is kept transposed (q_t), which turns each of
    those into a row operation too.  Only the transforms named in keep
    are built and updated; the others stay None.  The operations on d
    do not depend on keep, so every kept transform is the same whichever
    others are kept.

    pinv is not updated inline.  With pinv kept, the row steps are
    recorded in steps, and result() derives pinv from d == p @ a @ q
    when it can and replays the steps on the identity otherwise (see
    _pinv).  carry, when given, takes the place of p, so that the
    worker ends with p @ carry: rows indexed like the rows of a that
    follow each row step.  follow, when given, takes the place of qinv,
    so that the worker ends with qinv @ follow: rows indexed like the
    columns of a that follow each column step with its inverse.
    """

    def __init__(self, a: Matrix, keep=exact_linalg.TRANSFORMS, carry=None, follow=None):
        self.a = a
        self.ring = a.ring
        self.mod = a.ring.modulus
        self.r = a.rows
        self.c = a.cols
        self.keep = keep
        self.d = [list(row) for row in a.entries]
        self.rows = self.d
        self.p = self._eye(self.r) if "p" in keep else carry
        self.q_t = self._eye(self.c) if "q" in keep else None
        self.qinv = self._eye(self.c) if "qinv" in keep else follow
        # Each row step as it acts on the rows of pinv transposed:
        # (i, j, c) adds c times row j to row i, (i, j, None) swaps
        # rows i and j, and (i, None, u) scales row i by u.
        self.steps = [] if "pinv" in keep else None
        # The lists whose rows a row swap or negation moves, and those
        # whose rows a column swap moves.
        self._row_lists = [x for x in (self.d, self.p) if x is not None]
        self._col_lists = [x for x in (self.q_t, self.qinv) if x is not None]

    def _eye(self, n):
        z, o = self.ring.zero, self.ring.one
        return [[o if i == j else z for j in range(n)] for i in range(n)]

    def swap_rows(self, i, j):
        if i == j:
            return
        for rows in self._row_lists:
            rows[i], rows[j] = rows[j], rows[i]
        if self.steps is not None:
            self.steps.append((i, j, None))

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for rows in self._col_lists:
            rows[i], rows[j] = rows[j], rows[i]

    def add_row(self, i, j, c, pairs=None):
        """row_i += c * row_j (on d and p); the inverse step is recorded for pinv."""
        d, p, m = self.d, self.p, self.mod
        d[i] = _axpy(d[i], d[j], c, m)
        if p is not None:
            p[i] = _axpy(p[i], p[j], c, m)
        if self.steps is not None:
            self.steps.append((j, i, -c))

    def add_col(self, j, i, c, pairs=None):
        """col_j += c * col_i (on d and q); inverse op recorded on qinv."""
        m = self.mod
        for row in self.d:
            x = row[i]
            if x:
                row[j] = row[j] + c * x if m is None else (row[j] + c * x) % m
        qt, qinv = self.q_t, self.qinv
        if qt is not None:
            qt[j] = _axpy(qt[j], qt[i], c, m)
        if qinv is not None:
            qinv[i] = _axpy(qinv[i], qinv[j], -c, m)

    def negate_row(self, i):
        """row_i *= -1 (over Z only)."""
        for rows in self._row_lists:
            rows[i] = [-x for x in rows[i]]
        if self.steps is not None:
            self.steps.append((i, None, -1))

    def scale_row(self, i, u):
        """row_i *= u for a unit u (fields only)."""
        m = self.mod
        self.d[i] = exact_linalg._scaled(self.d[i], u, m)
        if self.p is not None:
            self.p[i] = exact_linalg._scaled(self.p[i], u, m)
        if self.steps is not None:
            self.steps.append((i, None, self.ring.invert(u)))

    def diagonal(self) -> list:
        return [self.d[i][i] for i in range(min(self.r, self.c))]

    def _pinv(self, q: Matrix | None) -> Matrix:
        """p^-1, derived from the finished reduction.

        When q is kept and d has a nonzero diagonal entry in every row,
        pinv @ d == a @ q determines pinv: its column j is column j of
        a @ q divided by d_jj, exactly over Z; over a field every d_jj
        is 1.  Otherwise the recorded row steps are replayed on the
        identity, so the reduction never runs twice.
        """
        ring, r, m = self.ring, self.r, self.mod
        diag = self.diagonal()
        if q is not None and len(diag) == r and all(diag):
            aq = self.a @ (q if r == self.c else q.cols_slice(0, r))
            divided = [j for j, e in enumerate(diag) if e != 1]
            if not divided:
                return aq
            data = []
            for row in aq.entries:
                row = list(row)
                for j in divided:
                    row[j], rem = divmod(row[j], diag[j])
                    if rem:
                        raise AssertionError("a @ q is not a multiple of the Smith diagonal")
                data.append(tuple(row))
            return Matrix._trusted(ring, r, r, tuple(data))
        pt = self._eye(r)
        for i, j, c in self.steps:
            if j is None:
                pt[i] = exact_linalg._scaled(pt[i], c, m)
            elif c is None:
                pt[i], pt[j] = pt[j], pt[i]
            else:
                pt[i] = _axpy(pt[i], pt[j], c, m)
        return Matrix._trusted(ring, r, r, tuple(zip(*pt)))

    def result(self) -> SNFResult:
        """The Smith data; a transform that was not kept is None."""
        ring, r, c, keep = self.ring, self.r, self.c, self.keep

        def mk(rows, rr, cc):
            return Matrix._trusted(ring, rr, cc, tuple(map(tuple, rows)))

        q = Matrix._trusted(ring, c, c, tuple(zip(*self.q_t))) if "q" in keep else None
        return SNFResult(
            d=mk(self.d, r, c),
            p=mk(self.p, r, r) if "p" in keep else None,
            q=q,
            pinv=self._pinv(q) if "pinv" in keep else None,
            qinv=mk(self.qinv, c, c) if "qinv" in keep else None,
        )


def kernel_zmod_composite_dense(a: Matrix) -> Matrix:
    """kernel_zmod_composite_diagonal on DenseSnfWorker."""
    m = a.ring.modulus
    w = DenseSnfWorker(a, ("q",))
    pivots = exact_linalg._diagonalize_mod(w)
    orders = exact_linalg._cyclic_orders(pivots, a.cols, m)
    bad = [x for x in exact_linalg._invariant_chain(orders) if x != m]
    if bad:
        raise NonFreeKernel(
            f"kernel over {a.ring} is not free: cyclic pieces of sizes {bad}"
        )
    return w.result().q.cols_slice(len(pivots), a.cols)


def solve_zmod_composite_dense(a: Matrix, b: Matrix) -> Matrix | None:
    """solve_zmod_composite_diagonal on DenseSnfWorker, b carried."""
    m = a.ring.modulus
    w = DenseSnfWorker(a, ("q",), carry=[list(row) for row in b.entries])
    pivots = exact_linalg._diagonalize_mod(w)
    c = w.p
    if any(map(any, c[len(pivots):])):
        return None
    y = []
    for e, row in zip(pivots, c):
        ks = tuple(exact_linalg._multiplier(e, x, m)[0] for x in row)
        if None in ks:
            return None
        y.append(ks)
    y += [(0,) * b.cols] * (a.cols - len(pivots))
    return w.result().q @ Matrix._trusted(a.ring, a.cols, b.cols, tuple(y))


# ---------------------------------------------------------------------------
# The Smith worker that reads its source row on every step


def _axpy_sparse(x, y, c, m, start=0):
    """x += c * y in place from position start on, only where y is
    nonzero; each entry written is reduced % m unless m is None."""
    if m is None:
        for k in compress(range(start, len(y)), islice(y, start, None)):
            x[k] += c * y[k]
    else:
        for k in compress(range(start, len(y)), islice(y, start, None)):
            x[k] = (x[k] + c * y[k]) % m


class StepwiseSnfWorker(exact_linalg._SnfWorker):
    """The library's Smith worker with its row and column steps as they
    were before a sweep handed them its source row's nonzero pairs: each
    add_row and add_col ignores pairs and finds the nonzero positions of
    its source row again with _axpy_sparse.  Everything else is
    inherited, so with this class in place of exact_linalg._SnfWorker the
    library runs its exact step sequence on it."""

    def add_row(self, i, j, c, pairs=None):
        """row_i += c * row_j from column min(i, j) on; the inverse step is recorded for pinv."""
        _axpy_sparse(self.rows[i], self.rows[j], c, self.mod, i if i < j else j)
        if self.steps is not None:
            self.steps.append((j, i, -c))

    def add_col(self, j, i, c, pairs=None):
        """col_j += c * col_i (on d and q); inverse op recorded on qinv."""
        m = self.mod
        for row in self.rows:
            x = row[i]
            if x:
                row[j] = row[j] + c * x if m is None else (row[j] + c * x) % m
        if self.q_t is not None:
            _axpy_sparse(self.q_t[j], self.q_t[i], c, m)
        if self.qinv is not None:
            _axpy_sparse(self.qinv[i], self.qinv[j], -c, m)
