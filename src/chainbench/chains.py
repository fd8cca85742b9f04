"""Bounded chain complexes of finitely generated free modules.

A ChainComplex stores per-degree ranks and differentials as exact
matrices acting on column vectors, so composing maps is plain matrix
multiplication: the matrix of g after f is M(g) @ M(f).

A GradedMap of degree d sends degree n to degree n + d.  Its graded
differential follows the commutator convention

    (df)_n = boundary(n + d) @ f_n - (-1)^d * f_(n-1) @ boundary(n)

so chain maps are exactly the maps with df == 0, null-homotopies of f
are maps H with dH == f, and d(g after f) == dg after f + (-1)^deg(g)
g after df.  GradedMap.leibniz computes each block as one product,
[boundary(n + d) | f_(n-1)] @ [f_n ; -(-1)^d boundary(n)], and each
complex keeps its negated differentials once, for the maps of even
degree, so no block is negated, added or subtracted.

On top of the two core types this module provides homology with exact
torsion data, a null-homotopy solver, mapping cones and cylinders,
suspensions, direct sums, pushouts along levelwise split injections,
short exact sequence handling with rotation, and an independent
homology-equivalence test that never builds a cone.  Every
sum-shaped complex and every map into or out of one has one layout:
each part sits in a slot at a degree shift, and _block_map places a
map's nonzero blocks between the slots of its source and target.  The
boundary of _block_sum is such a map of degree -1, and _slot and
_diagonal_map give slot and block-diagonal maps, so no map of a sum is
composed from inclusions and projections.  block_matrix assembles
every block matrix from its nonzero blocks alone, so nothing here pads
with zero matrices.

homology, homology_at, is_acyclic and same_homology all read one
generator, _homology, the only place that asks which ring a complex
is over.  It costs one elimination per stored differential and reads
only what that elimination leaves: over Z the Smith diagonal, built
without transforms, and over Q and Z/p the rank, the pivot count of
one row echelon form: fraction-free over Q, on rows cleared of their
denominators.  H_n is read off the data of d_n and
d_(n+1), and a differential that is not stored costs nothing.  Over
composite Z/m the complex first loses every unit pivot, an entry u
with gcd(u, m) == 1, by one Schur-complement step each
(_without_unit_pivots).  Each degree is then read off the unit-free
residual by exact_linalg.cycle_quotient_mod, which works in Z/m
itself: it diagonalizes d_n with d_(n+1) following its column steps,
then diagonalizes the relations among the cycles.  Neither step
factors m.  homology_at(c, n) is the generator on the window of c
from degree n - 1 to n + 1, which holds d_n and d_(n+1) alone.

Null-homotopies, chain maps and tower morphisms are kernel or preimage
certificates of one operator, the graded differential on blocks of
maps.  _BlockSystem collects such systems: its unknowns are matrix
blocks named by keys and vectorised row-major, and each condition is
a group of rows given by the factors a, b of its terms X -> a @ X @ b,
which exact_linalg._factor_matrix writes into rows.  _leibniz_rows
appends the rows of df for one pair of complexes; leibniz_system, the
tower systems of the ladder module and the fuzzers are all built on
it.  A general null-homotopy solves that system for every block of the
unknown map at once.  A contraction, a null-homotopy of the identity,
is cheaper: it is built one degree at a time from the bottom up,
solving d_(n+1) k_n == 1 - k_(n-1) d_n with one small solve per
degree, on the right-hand side [1 | k_(n-1)] @ [1 ; -d_n], one
product of the identity blocks and negated differentials the complex
keeps.  The right-hand side is always a cycle, so a degree where it
is not a boundary proves H_n != 0, and hence that no contraction
exists.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from ._record import record
from .exact_linalg import (
    Matrix,
    Ring,
    ShapeMismatch,
    _axpy_sparse,
    _coordinates,
    _factor_matrix,
    _is_onto,
    _kernel,
    block_matrix,
    cycle_quotient_mod,
    invariant_factors,
    kernel_basis,
    rank as matrix_rank,
    is_split_surjection,
    solve_linear,
    split_with_complement,
    unvec_row_major,
    vec_row_major,
)


# Largest total rank of a complex that loading or a path composite may
# produce; exact elimination on total rank r costs about r^3 time.
MAX_TOTAL_RANK = 4096

# Largest Leibniz system, rows times columns, that leibniz_system
# assembles.  Assembly and solve hold it densely, at about 40 bytes an
# entry: `homotopy` on a 2809 x 2809 system over Z peaked at 320 MB of
# memory, while complexes far inside MAX_TOTAL_RANK give systems of
# many gigabytes.
_MAX_LEIBNIZ_ENTRIES = 1 << 23


@record
class ChainComplex:
    """Ranks and differentials indexed by integer degree.

    ranks is a sorted tuple of (degree, positive rank) pairs; diffs is a
    sorted tuple of (degree, matrix) pairs where the matrix in slot n
    maps degree n to degree n - 1.  Zero ranks and zero differentials
    are never stored, so structural equality is canonical.
    """

    ring: Ring
    ranks: tuple
    diffs: tuple

    def __init__(self, ring: Ring, ranks: tuple, diffs: tuple) -> None:
        d = self.__dict__
        d["ring"] = ring
        d["ranks"] = ranks
        d["diffs"] = diffs

    @staticmethod
    def build(ring: Ring, ranks, diffs=None, validate: bool = True) -> "ChainComplex":
        rank_items = ranks.items() if isinstance(ranks, dict) else ranks
        rk = {}
        for n, r in rank_items:
            n, r = int(n), int(r)
            if r < 0:
                raise ValueError(f"negative rank {r} in degree {n}")
            if r > 0:
                rk[n] = r
        df = {}
        if diffs:
            diff_items = diffs.items() if isinstance(diffs, dict) else diffs
            for n, mat in diff_items:
                n = int(n)
                if mat.ring != ring:
                    raise ShapeMismatch(f"differential in degree {n} uses {mat.ring}, complex uses {ring}")
                want = (rk.get(n - 1, 0), rk.get(n, 0))
                if mat.shape != want:
                    raise ShapeMismatch(
                        f"differential in degree {n} has shape {mat.shape}, expected {want}"
                    )
                if not mat.is_zero():
                    df[n] = mat
        c = ChainComplex(ring, tuple(sorted(rk.items())), tuple(sorted(df.items())))
        if validate:
            c.validate()
        return c

    @staticmethod
    def zero_complex(ring: Ring) -> "ChainComplex":
        return ChainComplex.build(ring, {}, {})

    @cached_property
    def _rank_map(self):
        return dict(self.ranks)

    @cached_property
    def _diff_map(self):
        return dict(self.diffs)

    @cached_property
    def _identity_blocks(self):
        """The blocks of GradedMap.identity(self), made once per complex.

        Only the blocks are kept, not a map pointing back at self, so no
        reference cycle forms.  GradedMap.compose recognizes a map whose
        blocks are this very tuple as the identity.
        """
        return tuple((n, Matrix.identity(self.ring, r)) for n, r in self.ranks)

    @cached_property
    def _negated_diffs(self):
        """-d_n for every stored d_n, by degree, made once per complex.

        The graded differential of an even-degree map and the right-hand
        side of find_contraction read them, so no map negates a
        differential per call.  Like _identity_blocks, they hold no
        reference back to self.
        """
        return {n: -d for n, d in self.diffs}

    def rank(self, n: int) -> int:
        return self._rank_map.get(n, 0)

    def diff(self, n: int) -> Matrix:
        got = self._diff_map.get(n)
        if got is not None:
            return got
        return Matrix.zero(self.ring, self.rank(n - 1), self.rank(n))

    def degrees(self) -> tuple:
        return tuple(n for n, _ in self.ranks)

    @property
    def total_rank(self) -> int:
        return sum(r for _, r in self.ranks)

    @property
    def min_degree(self):
        return self.ranks[0][0] if self.ranks else None

    @property
    def max_degree(self):
        return self.ranks[-1][0] if self.ranks else None

    def validate(self) -> None:
        diff_map = self._diff_map
        for n, d in self.diffs:
            below = diff_map.get(n - 1)
            if below is not None and not (below @ d).is_zero():
                raise ValueError(f"boundary twice is nonzero from degree {n}")

    def describe(self) -> str:
        if not self.ranks:
            return "0"
        return " ".join(f"{n}:{r}" for n, r in self.ranks)


@record
class GradedMap:
    """Degree-homogeneous map between complexes, one block per degree.

    blocks is a sorted tuple of (degree, matrix) pairs; the block in
    slot n maps source degree n to target degree n + degree.  Zero
    blocks are never stored, and compose, leibniz and + visit only the
    stored blocks and the stored differentials.  build checks the ring
    and shape of every block it is given; compose, leibniz, +, -, scale
    and negation build their results from blocks of known ring and
    shape with _unchecked, which only drops the zero blocks.  identity
    hands out the blocks its complex keeps, and compose returns the
    other factor when one factor is such an identity.  leibniz takes
    one product per block of df, on the source's negated differentials
    when the degree is even.
    """

    source: ChainComplex
    target: ChainComplex
    degree: int
    blocks: tuple

    def __init__(self, source: ChainComplex, target: ChainComplex, degree: int, blocks: tuple) -> None:
        d = self.__dict__
        d["source"] = source
        d["target"] = target
        d["degree"] = degree
        d["blocks"] = blocks

    @staticmethod
    def build(source, target, degree, blocks) -> "GradedMap":
        if source.ring != target.ring:
            raise ShapeMismatch("source and target live over different rings")
        items = blocks.items() if isinstance(blocks, dict) else blocks
        bl = {}
        for n, mat in items:
            n = int(n)
            if mat.ring != source.ring:
                raise ShapeMismatch(f"block in degree {n} uses the wrong ring")
            want = (target.rank(n + degree), source.rank(n))
            if mat.shape != want:
                raise ShapeMismatch(
                    f"block in degree {n} has shape {mat.shape}, expected {want}"
                )
            if not mat.is_zero():
                bl[n] = mat
        return GradedMap(source, target, int(degree), tuple(sorted(bl.items())))

    @staticmethod
    def _unchecked(source, target, degree: int, blocks: dict) -> "GradedMap":
        """A map from blocks of the right ring and shape, as arithmetic
        on maps produces them; only the zero blocks are dropped."""
        kept = sorted((n, m) for n, m in blocks.items() if not m.is_zero())
        return GradedMap(source, target, degree, tuple(kept))

    @staticmethod
    def zero(source, target, degree=0) -> "GradedMap":
        return GradedMap.build(source, target, degree, {})

    @staticmethod
    def identity(c: ChainComplex) -> "GradedMap":
        return GradedMap(c, c, 0, c._identity_blocks)

    def _is_identity(self) -> bool:
        """Whether self is GradedMap.identity of its source, by object
        identity alone: its blocks are the ones the source stores."""
        c = self.source
        return self.target is c and self.degree == 0 and self.blocks is c.__dict__.get("_identity_blocks")

    @cached_property
    def _block_map(self):
        return dict(self.blocks)

    def block(self, n: int) -> Matrix:
        got = self._block_map.get(n)
        if got is not None:
            return got
        return Matrix.zero(self.source.ring, self.target.rank(n + self.degree), self.source.rank(n))

    def is_zero(self) -> bool:
        return not self.blocks

    def _require_parallel(self, other: "GradedMap") -> None:
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise ShapeMismatch("maps are not parallel")

    def __add__(self, other: "GradedMap") -> "GradedMap":
        self._require_parallel(other)
        out = dict(self.blocks)
        for n, m in other.blocks:
            out[n] = out[n] + m if n in out else m
        return GradedMap._unchecked(self.source, self.target, self.degree, out)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        self._require_parallel(other)
        out = dict(self.blocks)
        for n, m in other.blocks:
            out[n] = out[n] - m if n in out else -m
        return GradedMap._unchecked(self.source, self.target, self.degree, out)

    def __neg__(self) -> "GradedMap":
        return GradedMap._unchecked(
            self.source, self.target, self.degree,
            {n: -m for n, m in self.blocks},
        )

    def scale(self, c) -> "GradedMap":
        return GradedMap._unchecked(
            self.source, self.target, self.degree,
            {n: m.scale(c) for n, m in self.blocks},
        )

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other; a factor that is GradedMap.identity returns
        the other factor unchanged."""
        if other.target is self.source:
            if self._is_identity():
                return other
            if other._is_identity():
                return self
        elif other.target != self.source:
            raise ShapeMismatch("composition needs other.target == self.source")
        mine = self._block_map
        out = {}
        for n, m in other.blocks:
            left = mine.get(n + other.degree)
            if left is not None:
                out[n] = left @ m
        return GradedMap._unchecked(other.source, self.target, self.degree + other.degree, out)

    def __matmul__(self, other: "GradedMap") -> "GradedMap":
        if not isinstance(other, GradedMap):
            return NotImplemented
        return self.compose(other)

    def leibniz(self) -> "GradedMap":
        """Graded differential df; chain maps are the maps with df == 0.

        Each block is one product,

            (df)_n = [d_tgt(n + deg) | f_(n-1)] @ [f_n ; -(-1)^deg d_src(n)],

        and a degree where only one of the two terms exists is that
        term's product alone.  An odd-degree map reads the source's
        stored differentials and an even-degree map the negated ones
        the source keeps, so nothing is negated, added or subtracted
        here; over Q the sum is taken inside one integer product.
        """
        deg = self.degree
        d_tgt = self.target._diff_map
        d_src = self.source._diff_map if deg % 2 else self.source._negated_diffs
        mine = self._block_map
        out = {}
        for n, f in self.blocks:
            d = d_tgt.get(n + deg)
            below = mine.get(n - 1)
            e = None if below is None else d_src.get(n)
            if e is None:
                if d is not None:
                    out[n] = d @ f
            elif d is None:
                out[n] = below @ e
            else:
                out[n] = d.hstack(below) @ f.vstack(e)
            if n + 1 not in mine:
                e = d_src.get(n + 1)
                if e is not None:
                    out[n + 1] = f @ e
        return GradedMap._unchecked(self.source, self.target, deg - 1, out)

    def is_chain_map(self) -> bool:
        return self.leibniz().is_zero()


def _require_chain_map(f: GradedMap, degree=None, what="map"):
    if degree is not None and f.degree != degree:
        raise ValueError(f"{what} must have degree {degree}, got {f.degree}")
    if not f.is_chain_map():
        raise ValueError(f"{what} does not commute with the boundaries")


# ---------------------------------------------------------------------------
# Homology


@record
class HomologySummary:
    """Invariant-factor description of one homology module.

    Over Z: free rank betti plus cyclic pieces Z/t for t in torsion
    (each dividing the next).  Over a field: betti is the dimension and
    torsion is empty.  Over Z/m with m composite the module is a finite
    abelian group recorded entirely in torsion, and betti is 0.
    """

    betti: int
    torsion: tuple
    modulus: int | None = None

    def __init__(self, betti: int, torsion: tuple, modulus: int | None = None) -> None:
        d = self.__dict__
        d["betti"] = betti
        d["torsion"] = torsion
        d["modulus"] = modulus

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion


def _composite(ring: Ring) -> bool:
    return ring.kind == "Zmod" and not ring.is_field()


def _without_unit_pivots(c: ChainComplex) -> ChainComplex:
    """The complex left when every unit pivot leaves c's differentials.

    c is over composite Z/m.  A unit pivot is an entry u of some d_n,
    in row a and column b, with gcd(u, m) == 1.  Removing it is one
    Schur-complement step: every other row k of d_n loses
    d_n[k][b] * u^-1 times row a, row a and column b leave d_n, row b
    leaves d_(n+1) and column a leaves d_(n-1).  After a change of
    basis, b and d_n(b) span a contractible summand, so the result has
    the same homology in every degree (Kaczynski, Mrozek and
    Slusarek, Comput. Math. Appl. 35, 1998).  The step leaves column b
    zero in every other row, so the search never meets it again, and
    a row without a unit is searched again only after a step changed
    it.  The differentials are taken in increasing degree, each until
    no unit is left in it; a pivot of d_(n+1) only cuts columns
    of d_n, which stays unit-free.  Every entry stays reduced mod m,
    and m is never factored.
    """
    m = c.ring.modulus
    ranks = dict(c.ranks)
    kept, cut = {}, {}
    for n, d in c.diffs:
        skip = cut.get(n, ())
        rows = [list(row) for i, row in enumerate(d.entries) if i not in skip]
        live, pivot_rows, pivot_cols = list(range(len(rows))), set(), set()
        scan = live[:]
        while scan:
            touched = set()
            for a in scan:
                row = rows[a]
                for b, u in enumerate(row):
                    if u and gcd(u, m) == 1:
                        break
                else:
                    continue
                live.remove(a)
                w = -pow(u, -1, m)
                for k in live:
                    f = rows[k][b]
                    if f:
                        _axpy_sparse(rows[k], row, f * w % m, m)
                        touched.add(k)
                pivot_rows.add(a)
                pivot_cols.add(b)
            scan = [k for k in live if k in touched]
        cols = [j for j in range(d.cols) if j not in pivot_cols]
        kept[n] = [[rows[i][j] for j in cols] for i in live]
        if pivot_rows and n - 1 in kept:
            kept[n - 1] = [[x for j, x in enumerate(row) if j not in pivot_rows] for row in kept[n - 1]]
        ranks[n - 1] -= len(pivot_rows)
        ranks[n] -= len(pivot_cols)
        cut[n + 1] = pivot_cols
    diffs = tuple(
        (n, Matrix(c.ring, ranks[n - 1], ranks[n], tuple(map(tuple, rows))))
        for n, rows in kept.items()
        if any(map(any, rows))
    )
    return ChainComplex(c.ring, tuple((n, r) for n, r in ranks.items() if r), diffs)


def _homology(c: ChainComplex, degrees):
    """Yield (n, H_n) for each n of degrees; every homology entry point
    reads this generator, and only it asks which ring c is over.

    Over Z and over a field each stored differential is eliminated
    once, when first needed: invariant_factors over Z, rank over a
    field.  H_n has betti rank C_n - rank d_n - rank d_(n+1), and its
    torsion is the non-unit invariant factors of d_(n+1).  This holds
    because the cycles Z_n are a direct summand of C_n, since
    C_n / Z_n embeds in the free module C_(n-1), so d_(n+1) has the
    same invariant factors as a map into Z_n.  Over composite Z/m,
    _without_unit_pivots first removes every unit pivot from the whole
    complex, once, and each degree is then read off the unit-free
    residual with exact_linalg.cycle_quotient_mod, or is (Z/m)^rank
    when the residual keeps neither of its differentials.  Both give
    the invariant factors of the same module, which are canonical.
    """
    ring = c.ring
    if _composite(ring):
        residual = _without_unit_pivots(c)
        for n in degrees:
            if n in residual._diff_map or n + 1 in residual._diff_map:
                torsion = cycle_quotient_mod(residual.diff(n), residual.diff(n + 1))
            else:
                torsion = (ring.modulus,) * residual.rank(n)
            yield n, HomologySummary(0, torsion, ring.modulus)
        return
    data = {}

    def eliminated(k):
        if k not in data:
            d = c._diff_map.get(k)
            if d is None:
                data[k] = 0, ()
            elif ring.kind == "Z":
                factors = invariant_factors(d)
                data[k] = len(factors), tuple(x for x in factors if x != 1)
            else:
                data[k] = matrix_rank(d), ()
        return data[k]

    for n in degrees:
        (below, _), (above, torsion) = eliminated(n), eliminated(n + 1)
        yield n, HomologySummary(c.rank(n) - below - above, torsion, ring.modulus)


def homology_at(c: ChainComplex, n: int) -> HomologySummary:
    """H_n: _homology on the window of degrees n - 1 to n + 1, which
    holds d_n and d_(n+1) alone, so nothing else is eliminated."""
    ranks = tuple((k, c.rank(k)) for k in (n - 1, n, n + 1) if c.rank(k))
    diffs = tuple((k, c._diff_map[k]) for k in (n, n + 1) if k in c._diff_map)
    return next(_homology(ChainComplex(c.ring, ranks, diffs), (n,)))[1]


def homology(c: ChainComplex) -> dict:
    return dict(_homology(c, c.degrees()))


def is_acyclic(c: ChainComplex) -> bool:
    return all(h.is_trivial() for _, h in _homology(c, c.degrees()))


def _modules(c: ChainComplex) -> dict:
    """Degree -> (betti, torsion) of every nonzero H_n of c; two
    complexes have isomorphic homology exactly when these are equal."""
    return {n: (h.betti, h.torsion) for n, h in _homology(c, c.degrees()) if not h.is_trivial()}


def same_homology(a: ChainComplex, b: ChainComplex) -> bool:
    return _modules(a) == _modules(b)


# ---------------------------------------------------------------------------
# Null-homotopies


class _BlockSystem:
    """Linear conditions on a family of matrix unknowns.

    Each unknown is a matrix block named by a key.  Its coordinates are
    the row-major vectorization of the block, and the blocks are
    stacked in the order their keys were registered; blocks with no
    entries are not registered.  A condition appends a group of rows,
    the row-major vectorization of a sum of terms (key, a, b), each the
    map X -> a @ X @ b on the unknown block X named by key, where
    exactly one of a and b is None and stands for the identity.  The
    keys within one condition are distinct, and terms on keys that are
    not registered are dropped.  matrix() hands the conditions to
    exact_linalg._factor_matrix, and stack() the unknowns, as block
    rows, to exact_linalg.block_matrix.
    """

    def __init__(self, ring):
        self.ring = ring
        self.sizes = {}
        self.offsets = {}
        self.total = 0
        self.row_groups = []

    def unknown(self, key, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0 or key in self.sizes:
            return
        self.sizes[key] = (rows, cols)
        self.offsets[key] = self.total
        self.total += rows * cols

    def has(self, key) -> bool:
        return key in self.sizes

    def condition(self, row_count: int, terms) -> None:
        """Add row_count rows; terms are (key, a, b) with one factor None."""
        if row_count == 0:
            return
        kept = []
        for key, a, b in terms:
            if key not in self.sizes:
                continue
            p, t = self.sizes[key]
            fits = (a.cols, a.rows * t) == (p, row_count) if b is None else (b.rows, p * b.cols) == (t, row_count)
            if not fits:
                raise ShapeMismatch(f"a factor of a {p}x{t} block does not give {row_count} rows")
            kept.append((self.offsets[key], p, t, a, b))
        self.row_groups.append((row_count, kept))

    def matrix(self) -> Matrix:
        return _factor_matrix(self.ring, self.total, self.row_groups)

    def slice_rows(self, stacked: Matrix, key) -> Matrix:
        """Rows of a solution matrix belonging to one unknown block."""
        if key not in self.sizes:
            return Matrix.zero(self.ring, 0, stacked.cols)
        off = self.offsets[key]
        p, t = self.sizes[key]
        return stacked.rows_slice(off, off + p * t)

    def block(self, vector: Matrix, key) -> Matrix:
        """One registered unknown block of a coordinate column, as a matrix."""
        return unvec_row_major(self.slice_rows(vector, key), *self.sizes[key])

    def stack(self, placements, width: int) -> Matrix:
        """Coordinate matrix with `width` columns, zero outside placements.

        placements maps unknown keys to matrices whose rows are the
        coordinates of that block; a zero placement on a key that is
        not registered is allowed and ignored.
        """
        slot = {key: j for j, key in enumerate(self.sizes)}
        blocks = {}
        for key, mat in placements.items():
            if key not in self.sizes:
                if not mat.is_zero():
                    raise AssertionError("placement targets an absent unknown block")
                continue
            p, t = self.sizes[key]
            if mat.shape != (p * t, width):
                raise AssertionError("placement shape mismatch")
            blocks[(slot[key], 0)] = mat
        return block_matrix(self.ring, [p * t for p, t in self.sizes.values()], [width], blocks)


def _leibniz_rows(system: _BlockSystem, src: ChainComplex, tgt: ChainComplex, degree: int, key) -> None:
    """Append the rows of df for the degree-`degree` map f: src -> tgt.

    The block of f at source degree n is the unknown key(n).  For each
    source degree n in increasing order, one row group holds
    vec((df)_n) = vec(d f_n - (-1)^degree f_(n-1) d), so the rows are
    laid out like the unknowns of a degree-(degree - 1) map.  Like
    GradedMap.leibniz, an even degree reads the negated differentials
    that src keeps; a zero differential gives no term.
    """
    signed = src._diff_map if degree % 2 else src._negated_diffs
    for n, t in src.ranks:
        p = tgt.rank(n + degree - 1)
        if p == 0:
            continue
        terms = [(key(n), tgt.diff(n + degree), None)]
        d = signed.get(n)
        if d is not None:
            terms.append((key(n - 1), None, d))
        system.condition(p * t, terms)


def _map_system(src: ChainComplex, tgt: ChainComplex, degree: int) -> _BlockSystem:
    """Unknowns for the blocks of a degree-`degree` map, keyed by source degree."""
    system = _BlockSystem(src.ring)
    for n, t in src.ranks:
        system.unknown(n, tgt.rank(n + degree), t)
    return system


def leibniz_system(src: ChainComplex, tgt: ChainComplex, degree: int):
    """Matrix of the graded differential acting on degree-`degree` maps.

    Returns (a, system).  The columns of a are the coordinates of the
    unknown blocks of system, keyed by source degree; its rows are the
    coordinates of the resulting degree-(degree - 1) map, laid out like
    _map_system(src, tgt, degree - 1).  Kernel vectors of a are
    precisely the chain maps, and solving a x == b finds preimages
    under d.  Raises ValueError, before assembling anything, when the
    system has more than _MAX_LEIBNIZ_ENTRIES entries.
    """
    rows = sum(t * tgt.rank(n + degree - 1) for n, t in src.ranks)
    cols = sum(t * tgt.rank(n + degree) for n, t in src.ranks)
    if rows * cols > _MAX_LEIBNIZ_ENTRIES:
        raise ValueError(
            f"the Leibniz system has {rows} rows and {cols} columns, "
            f"{rows * cols} entries, over the limit of {_MAX_LEIBNIZ_ENTRIES}"
        )
    system = _map_system(src, tgt, degree)
    _leibniz_rows(system, src, tgt, degree, lambda n: n)
    return system.matrix(), system


def find_null_homotopy(f: GradedMap):
    """Solve dH == f for H of degree f.degree + 1, or return None.

    Raises ValueError when df != 0, since dH is always a cycle.
    """
    if not f.leibniz().is_zero():
        raise ValueError("df is nonzero, so no H with dH == f can exist")
    src, tgt, d = f.source, f.target, f.degree
    a, system = leibniz_system(src, tgt, d + 1)
    if a.rows == 0:
        return GradedMap.zero(src, tgt, d + 1)
    b = _map_system(src, tgt, d).stack({n: vec_row_major(m) for n, m in f.blocks}, 1)
    x = solve_linear(a, b)
    if x is None:
        return None
    h = GradedMap.build(src, tgt, d + 1, {n: system.block(x, n) for n in system.sizes})
    if h.leibniz() != f:
        raise AssertionError("solver produced a wrong homotopy")
    return h


def find_contraction(c: ChainComplex):
    """Homotopy k with dk == identity, or None when c is not contractible.

    k is built one degree at a time from the bottom up: at degree n it
    solves d_(n+1) k_n == 1 - k_(n-1) d_n with a single solve_linear
    call, taking k_(n-1) == 0 below the bottom degree and across any
    degree of rank 0.  The right-hand side is one product,
    [1 | k_(n-1)] @ [1 ; -d_n], on the identity blocks and the negated
    differentials that c keeps, or the identity block alone when
    k_(n-1) or d_n is zero.  The right-hand side is always a cycle, since
    d_n (1 - k_(n-1) d_n) == k_(n-2) d_(n-1) d_n == 0 by induction.
    When c is contractible its cycles are boundaries and every step
    solves, because the source is free.  When a step has no solution,
    one of its columns is a cycle that is not a boundary, so H_n is
    nonzero and no contraction exists; this holds over Z, Q and Z/m.
    """
    negated = c._negated_diffs
    blocks = {}
    for n, eye in c._identity_blocks:
        below, d = blocks.get(n - 1), negated.get(n)
        rhs = eye if below is None or d is None else eye.hstack(below) @ eye.vstack(d)
        k_n = solve_linear(c.diff(n + 1), rhs)
        if k_n is None:
            return None
        blocks[n] = k_n
    k = GradedMap.build(c, c, 1, blocks)
    if k.leibniz() != GradedMap.identity(c):
        raise AssertionError("solver produced a wrong contraction")
    return k


def is_contractible(c: ChainComplex) -> bool:
    return find_contraction(c) is not None


def witness_left_compose(h: GradedMap, witness: GradedMap) -> GradedMap:
    """Turn dW == f into a witness for h after f, for a chain map h."""
    _require_chain_map(h, what="left factor")
    sign = 1 if h.degree % 2 == 0 else -1
    return (h @ witness).scale(sign)


def witness_right_compose(witness: GradedMap, k: GradedMap) -> GradedMap:
    """Turn dW == f into a witness for f after k, for a chain map k."""
    _require_chain_map(k, what="right factor")
    return witness @ k


# ---------------------------------------------------------------------------
# Standard constructions


def suspend(c: ChainComplex, k: int = 1) -> ChainComplex:
    """Shift degrees up by k and scale boundaries by (-1)^k."""
    sign = 1 if k % 2 == 0 else -1
    ranks = {n + k: r for n, r in c.ranks}
    diffs = {n + k: m.scale(sign) for n, m in c.diffs}
    return ChainComplex.build(c.ring, ranks, diffs, validate=False)


def shift_unsigned(c: ChainComplex, k: int) -> ChainComplex:
    """Shift degrees up by k without touching the boundaries."""
    ranks = {n + k: r for n, r in c.ranks}
    diffs = {n + k: m for n, m in c.diffs}
    return ChainComplex.build(c.ring, ranks, diffs, validate=False)


@record
class DirectSumData:
    complex: ChainComplex
    inclusions: tuple
    projections: tuple


def _sizes(parts, n: int) -> list:
    """The slot ranks of a layout in degree n."""
    return [c.rank(n - k) for c, k in parts]


def _block_map(source: ChainComplex, src_parts, target: ChainComplex, tgt_parts, degree: int, pieces) -> GradedMap:
    """The one layout of a map between sum-shaped complexes.

    A layout lists (complex, shift) parts: slot j holds its complex in
    degree n - shift_j, and a plain complex c is the layout ((c, 0),).
    pieces lists (i, j, blocks, negate): block (i, j) out of source
    degree n, from source slot j to target slot i, is blocks[n - shift_j],
    negated if asked; a block not given is zero.  GradedMap.build checks
    that the slot ranks add up to the ranks of source and target.
    """
    src_parts, tgt_parts = (((p, 0),) if isinstance(p, ChainComplex) else p for p in (src_parts, tgt_parts))
    placed = {}
    for i, j, stored, neg in pieces:
        for m, b in stored.items():
            placed.setdefault(m + src_parts[j][1], {})[i, j] = -b if neg else b
    out = {
        n: block_matrix(source.ring, _sizes(tgt_parts, n + degree), _sizes(src_parts, n), blocks)
        for n, blocks in placed.items()
    }
    return GradedMap.build(source, target, degree, out)


def _block_sum(ring: Ring, parts, pieces) -> ChainComplex:
    """The one layout of a sum-shaped complex, unvalidated: its boundary
    is the degree -1 _block_map of pieces from parts to parts."""
    degrees = sorted({n + k for c, k in parts for n in c.degrees()})
    bare = ChainComplex(ring, tuple((n, sum(_sizes(parts, n))) for n in degrees), ())
    return ChainComplex(ring, bare.ranks, _block_map(bare, parts, bare, parts, -1, pieces).blocks)


def _slot(total: ChainComplex, parts, j: int):
    """Slot j's inclusion into total, of degree +shift_j, and its
    projection out of total, of degree -shift_j."""
    c, k = parts[j]
    eye = dict(c._identity_blocks)
    inc = _block_map(c, c, total, parts, k, ((j, 0, eye, False),))
    return inc, _block_map(total, parts, c, c, -k, ((0, j, eye, False),))


def _diagonal_map(source: ChainComplex, target: ChainComplex, *maps: GradedMap) -> GradedMap:
    """The block-diagonal map of maps, from the direct sum of their
    sources to the direct sum of their targets."""
    src, tgt = tuple((f.source, 0) for f in maps), tuple((f.target, 0) for f in maps)
    pieces = tuple((i, i, f._block_map, False) for i, f in enumerate(maps))
    return _block_map(source, src, target, tgt, maps[0].degree, pieces)


def _sum_complex(*parts: ChainComplex) -> ChainComplex:
    """direct_sum(*parts).complex, without its inclusions and projections."""
    if not parts:
        raise ValueError("direct_sum needs at least one summand")
    ring = parts[0].ring
    if any(p.ring != ring for p in parts):
        raise ShapeMismatch("summands live over different rings")
    pieces = tuple((i, i, p._diff_map, False) for i, p in enumerate(parts))
    return _block_sum(ring, tuple((p, 0) for p in parts), pieces)


def direct_sum(*parts: ChainComplex) -> DirectSumData:
    total = _sum_complex(*parts)
    layout = tuple((p, 0) for p in parts)
    inclusions, projections = zip(*(_slot(total, layout, i) for i in range(len(parts))))
    return DirectSumData(total, inclusions, projections)


@record
class ConeData:
    """Mapping cone of a chain map f: A -> B.

    The degree-n piece is A_(n-1) + B_n with boundary
    [[-dA, 0], [-f, dB]].  inclusion embeds B as a subcomplex;
    projection reads off the A coordinate and is a degree -1 cycle.
    """

    complex: ChainComplex
    inclusion: GradedMap
    projection: GradedMap


def cone(f: GradedMap) -> ConeData:
    _require_chain_map(f, degree=0, what="cone input")
    return _cone(f)


def _cone_layout(f: GradedMap):
    """The parts and pieces of the cone of f: A shifted up by one, then
    B, with boundary [[-dA, 0], [-f, dB]]."""
    a, b = f.source, f.target
    return ((a, 1), (b, 0)), ((0, 0, a._diff_map, True), (1, 0, f._block_map, True), (1, 1, b._diff_map, False))


def _cone_complex(f: GradedMap) -> ChainComplex:
    """The complex of the cone of f, without its structure maps, for a
    caller that has checked f is a degree-0 chain map and reads only
    the complex; d^2 == 0 follows from that, unchecked."""
    return _block_sum(f.source.ring, *_cone_layout(f))


def _cone(f: GradedMap) -> ConeData:
    """The cone of f with its structure maps, for a caller that has
    checked f is a degree-0 chain map; the inclusion of B and the
    projection onto A are chain maps by their block form, unchecked."""
    parts, pieces = _cone_layout(f)
    cx = _block_sum(f.source.ring, parts, pieces)
    return ConeData(cx, _slot(cx, parts, 1)[0], _slot(cx, parts, 0)[1])


@record
class CylinderData:
    """Mapping cylinder of f: A -> B with its structure maps.

    The degree-n piece is A_n + A_(n-1) + B_n.  incl_source and
    incl_target are the two end inclusions, proj collapses onto B,
    quotient kills the source end and identifies the rest with the
    cone, and homotopy witnesses identity versus incl_target after
    proj.
    """

    complex: ChainComplex
    cone: ConeData
    incl_source: GradedMap
    incl_target: GradedMap
    proj: GradedMap
    quotient: GradedMap
    homotopy: GradedMap


def cylinder(f: GradedMap) -> CylinderData:
    _require_chain_map(f, degree=0, what="cylinder input")
    a, b = f.source, f.target
    cn = _cone(f)
    eye_a, eye_b = dict(a._identity_blocks), dict(b._identity_blocks)
    parts = ((a, 0), (a, 1), (b, 0))
    pieces = (
        (0, 0, a._diff_map, False), (0, 1, eye_a, False), (1, 1, a._diff_map, True),
        (2, 1, f._block_map, True), (2, 2, b._diff_map, False),
    )
    # f is checked, so d^2 == 0 and the structure maps are chain maps by
    # their block forms; only the deformation homotopy is checked below.
    # The cone's layout is the cylinder's without its first slot.
    cx = _block_sum(a.ring, parts, pieces)
    incl_source = _slot(cx, parts, 0)[0]
    incl_target = _slot(cx, parts, 2)[0]
    proj = _block_map(cx, parts, b, b, 0, ((0, 0, f._block_map, False), (0, 2, eye_b, False)))
    quotient = _block_map(cx, parts, cn.complex, parts[1:], 0, ((0, 1, eye_a, False), (1, 2, eye_b, False)))
    homotopy = _block_map(cx, parts, cx, parts, 1, ((1, 0, eye_a, False),))
    want = GradedMap.identity(cx) - incl_target @ proj
    if homotopy.leibniz() != want:
        raise AssertionError("cylinder homotopy does not witness the deformation")
    return CylinderData(cx, cn, incl_source, incl_target, proj, quotient, homotopy)


# ---------------------------------------------------------------------------
# Pushouts along levelwise split injections


@record
class PushoutData:
    """Pushout of Z <-g- A -f-> Y where every f_n is a split injection.

    complex is the pushout W, from_target embeds Y, from_other embeds
    Z, and the stored complements describe how Y splits over A.
    """

    complex: ChainComplex
    along: GradedMap
    attached: GradedMap
    from_target: GradedMap
    from_other: GradedMap
    complements: tuple

    def complement(self, n: int) -> Matrix:
        for k, m in self.complements:
            if k == n:
                return m
        y = self.along.target
        return Matrix.zero(y.ring, y.rank(n), self.complex.rank(n) - self.attached.target.rank(n))


def pushout_along_cofibration(f: GradedMap, g: GradedMap) -> PushoutData:
    _require_chain_map(f, degree=0, what="cofibration")
    _require_chain_map(g, degree=0, what="attaching map")
    if f.source != g.source:
        raise ShapeMismatch("pushout legs must share a source")
    a, y, z = f.source, f.target, g.target
    ring = a.ring
    splits = {}
    for n in y.degrees():
        got = split_with_complement(f.block(n))
        if got is None:
            raise ValueError(f"map is not a split injection in degree {n}")
        splits[n] = got
    # The complement slot: the complement columns of each splitting,
    # with the boundary of y read through them in the pieces below.
    comp = ChainComplex.build(ring, {n: s[1].cols for n, s in splits.items()})
    to_z, to_comp = {}, {}
    for n in splits:
        if n - 1 in splits:
            # y.diff(n) is zero unless y has both degrees, hence both splittings.
            (ra, _, pk), kk = splits[n - 1], splits[n][1]
            to_z[n] = g.block(n - 1) @ ra @ y.diff(n) @ kk
            to_comp[n] = pk @ y.diff(n) @ kk
    parts = ((z, 0), (comp, 0))
    w = _block_sum(ring, parts, ((0, 0, z._diff_map, False), (0, 1, to_z, False), (1, 1, to_comp, False)))
    w.validate()
    from_y = (
        (0, 0, {n: g.block(n) @ sp[0] for n, sp in splits.items()}, False),
        (1, 0, {n: sp[2] for n, sp in splits.items()}, False),
    )
    from_other = _slot(w, parts, 0)[0]
    from_target = _block_map(y, y, w, parts, 0, from_y)
    if not from_other.is_chain_map() or not from_target.is_chain_map():
        raise AssertionError("pushout structure maps failed to be chain maps")
    if from_target @ f != from_other @ g:
        raise AssertionError("pushout square does not commute")
    comps = tuple(sorted((n, splits[n][1]) for n in splits))
    return PushoutData(w, f, g, from_target, from_other, comps)


def pushout_factor(data: PushoutData, u: GradedMap, w_map: GradedMap) -> GradedMap:
    """Unique chain map h out of the pushout with h after from_other == u
    and h after from_target == w_map, given a commuting cocone (u, w_map)."""
    _require_chain_map(u, degree=0, what="cocone leg from the attached complex")
    _require_chain_map(w_map, degree=0, what="cocone leg from the ambient complex")
    if u.source != data.from_other.source or w_map.source != data.from_target.source:
        raise ShapeMismatch("cocone legs start at the wrong complexes")
    if u.target != w_map.target:
        raise ShapeMismatch("cocone legs end at different complexes")
    if u @ data.attached != w_map @ data.along:
        raise ValueError("cocone does not commute over the shared source")
    blocks = {}
    for n in data.complex.degrees():
        blocks[n] = u.block(n).hstack(w_map.block(n) @ data.complement(n))
    h = GradedMap.build(data.complex, u.target, 0, blocks)
    if not h.is_chain_map():
        raise AssertionError("pushout factorization failed to be a chain map")
    if h @ data.from_other != u or h @ data.from_target != w_map:
        raise AssertionError("pushout factorization missed the cocone")
    return h


# ---------------------------------------------------------------------------
# Short exact sequences


@record
class SESData:
    """Levelwise split short exact sequence of complexes.

    incl and proj are chain maps; section and retraction are degreewise
    only.  The stored identities are

        proj @ incl == 0            proj @ section == identity
        retraction @ incl == identity
        incl @ retraction + section @ proj == identity
        retraction @ section == 0
    """

    incl: GradedMap
    proj: GradedMap
    section: GradedMap
    retraction: GradedMap

    @property
    def sub(self) -> ChainComplex:
        return self.incl.source

    @property
    def middle(self) -> ChainComplex:
        return self.incl.target

    @property
    def quotient(self) -> ChainComplex:
        return self.proj.target


def validate_ses(incl: GradedMap, proj: GradedMap) -> SESData:
    """Check exactness degreewise and return the splitting data.

    Raises ValueError when the pair is not a levelwise split short
    exact sequence of free modules.
    """
    _require_chain_map(incl, degree=0, what="sub inclusion")
    _require_chain_map(proj, degree=0, what="quotient projection")
    if incl.target != proj.source:
        raise ShapeMismatch("inclusion target differs from projection source")
    x, y, z = incl.source, incl.target, proj.target
    if not (proj @ incl).is_zero():
        raise ValueError("projection after inclusion is nonzero")
    ring = y.ring
    section = {}
    retraction = {}
    for n in y.degrees():
        if x.rank(n) + z.rank(n) != y.rank(n):
            raise ValueError(f"ranks do not add up in degree {n}")
        t = is_split_surjection(proj.block(n))
        if t is None:
            raise ValueError(f"projection is not split surjective in degree {n}")
        residual = Matrix.identity(ring, y.rank(n)) - t @ proj.block(n)
        rho = solve_linear(incl.block(n), residual)
        if rho is None:
            raise ValueError(f"sequence is not exact in degree {n}")
        if rho @ incl.block(n) != Matrix.identity(ring, x.rank(n)):
            raise ValueError(f"inclusion is not split injective in degree {n}")
        if not t.is_zero():
            section[n] = t
        if not rho.is_zero():
            retraction[n] = rho
    return SESData(
        incl,
        proj,
        GradedMap.build(z, y, 0, section),
        GradedMap.build(y, x, 0, retraction),
    )


@record
class RotatedSES:
    """Rotation of a short exact sequence one step to the left.

    The quotient, shifted down with negated boundary, becomes the new
    sub; the old middle becomes the new quotient; the new middle is the
    old sub plus an acyclic padding complex.  connecting is the chain
    map realizing the boundary morphism of the long exact sequence on
    the shifted quotient.
    """

    ses: SESData
    connecting: GradedMap
    padding: ChainComplex


def rotate_ses(data: SESData) -> RotatedSES:
    x, y, z = data.sub, data.middle, data.quotient
    ring = y.ring
    t = data.section
    # The section fails to be a chain map by a boundary-commutator that
    # lands in the sub; pulling it back gives the connecting map.
    dt = t.leibniz()
    gamma_blocks = {}
    for n in z.degrees():
        got = solve_linear(data.incl.block(n - 1), dt.block(n))
        if got is None:
            raise AssertionError("section commutator escaped the subcomplex")
        gamma_blocks[n] = got
    down = suspend(z, -1)
    gamma = GradedMap.build(down, x, 0, {n - 1: m for n, m in gamma_blocks.items()})
    if not gamma.is_chain_map():
        raise AssertionError("connecting map failed to be a chain map")
    ident = GradedMap.identity(down)
    pad_parts, pad_pieces = _cone_layout(ident)
    pad = _block_sum(ring, pad_parts, pad_pieces)
    # The new middle is x, then the padding cone's two slots: down
    # shifted up by one (z in degree n), then down.
    parts = ((x, 0),) + pad_parts
    summed = _block_sum(
        ring, parts,
        ((0, 0, x._diff_map, False),) + tuple((i + 1, j + 1, b, neg) for i, j, b, neg in pad_pieces),
    )
    incl_pieces = ((0, 0, gamma._block_map, False), (2, 0, ident._block_map, False))
    new_incl = _block_map(down, down, summed, parts, 0, incl_pieces)
    pieces = (
        (0, 0, data.incl._block_map, False),
        (0, 1, {n - 1: m for n, m in t.blocks}, False),
        (0, 2, (data.incl @ gamma)._block_map, True),
    )
    new_proj = _block_map(summed, parts, y, y, 0, pieces)
    rotated = validate_ses(new_incl, new_proj)
    return RotatedSES(rotated, gamma, pad)


# ---------------------------------------------------------------------------
# Homology equivalences, tested without cones


def is_homology_equivalence(f: GradedMap) -> bool:
    """Decide whether a chain map induces isomorphisms on all homology.

    Works degree by degree: the homology modules must agree, and the
    induced map must be surjective; finitely generated modules over Z
    or a field admit no proper surjective self-maps, so the two checks
    together give bijectivity.  Composite moduli are rejected.
    """
    _require_chain_map(f, degree=0, what="map")
    ring = f.source.ring
    if _composite(ring):
        raise ValueError("homology equivalence over composite Z/m is not supported")
    src, tgt = f.source, f.target
    target = _modules(tgt)
    if _modules(src) != target:
        return False
    for n in target:
        ks = kernel_basis(src.diff(n))
        kt, lt = _kernel(tgt.diff(n))
        induced = _coordinates(kt, lt, f.block(n) @ ks, "cycles were not carried into cycles")
        bt = _coordinates(kt, lt, tgt.diff(n + 1), "boundaries escaped the cycle lattice")
        if not _is_onto(induced.hstack(bt)):
            return False
    return True
