"""The lean matrix layer against its normalizing original.

matrix_oracle keeps the Matrix operations and GradedMap methods as
they were when every result went through the normalizing constructor.
On seeded fuzz inputs over Z, Q, Z/4 and Z/5, with empty shapes and
maps with unstored blocks among them, the library must return equal
values whose entries are canonical: field equality alone would not
notice an int over Q, since Fraction(2) == 2.  compose_oracle keeps
the two-product GradedMap.leibniz; the library's one product per
block must give the same maps by repr.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import chainbench
import compose_oracle
import matrix_oracle as oracle
from chainbench.chains import ChainComplex, GradedMap
from chainbench.exact_linalg import (
    QQ,
    ZZ,
    Matrix,
    ShapeMismatch,
    Zmod,
    _is_identity,
    block_matrix,
    kron,
    smith_normal_form,
    unvec_row_major,
    vec_row_major,
)
from chainbench.fuzz import random_chain_map, random_complex, random_graded_map, random_matrix
from chainbench.serialize import load_matrix

RINGS = (ZZ, QQ, Zmod(4), Zmod(5))


def assert_canonical(m: Matrix) -> None:
    """Tuples of the declared shape holding int, Fraction or range(m) entries."""
    assert type(m.entries) is tuple and len(m.entries) == m.rows
    for row in m.entries:
        assert type(row) is tuple and len(row) == m.cols
        for x in row:
            if m.ring.kind == "Q":
                assert type(x) is Fraction
            else:
                assert type(x) is int
                if m.ring.kind == "Zmod":
                    assert 0 <= x < m.ring.modulus


def assert_same(got: Matrix, want: Matrix) -> None:
    assert got == want
    assert_canonical(got)


def assert_same_map(got: GradedMap, want: GradedMap) -> None:
    assert got == want
    for _, m in got.blocks:
        assert_canonical(m)


def sparse_matrix(rng, ring, rows, cols):
    """A random matrix with some rows and entries forced to zero."""
    m = random_matrix(rng, ring, rows, cols, bound=2)
    data = [
        [0 if rng.random() < 0.3 else x for x in row] if rng.random() < 0.7 else [0] * cols
        for row in m.entries
    ]
    return Matrix(ring, rows, cols, tuple(map(tuple, data)))


def scalars(ring):
    out = [0, 1, -1, 2, 7]
    if ring.kind == "Q":
        out.append(Fraction(-3, 2))
    return out


def test_arithmetic_matches_oracle():
    for index, ring in enumerate(RINGS):
        rng = random.Random(7100 + index)
        for _ in range(40):
            r, k, c = (rng.randrange(0, 5) for _ in range(3))
            a, a2 = sparse_matrix(rng, ring, r, k), random_matrix(rng, ring, r, k)
            b = sparse_matrix(rng, ring, k, c)
            assert_same(a @ b, oracle.matmul(a, b))
            assert_same(a @ Matrix.zero(ring, k, c), oracle.matmul(a, Matrix.zero(ring, k, c)))
            assert_same(a + a2, oracle.add(a, a2))
            assert_same(a - a2, oracle.sub(a, a2))
            assert_same(-a, oracle.neg(a))
            for s in scalars(ring):
                assert_same(a.scale(s), oracle.scale(a, s))
            assert_same(a.transpose(), oracle.transpose(a))
            assert_same(kron(a, b), oracle.kron(a, b))
            eye = Matrix.identity(ring, rng.randrange(0, 4))
            assert_same(kron(a, eye), oracle.kron(a, eye))
            assert_same(kron(eye, a), oracle.kron(eye, a))


def test_empty_shapes_match_oracle():
    for ring in RINGS:
        for r, k, c in ((0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (0, 2, 0)):
            a, b = Matrix.zero(ring, r, k), Matrix.zero(ring, k, c)
            assert_same(a @ b, oracle.matmul(a, b))
            assert_same(a.transpose(), oracle.transpose(a))
            assert_same(kron(a, b), oracle.kron(a, b))
            assert_same(kron(b, Matrix.identity(ring, 2)), oracle.kron(b, Matrix.identity(ring, 2)))
            assert_same(kron(Matrix.identity(ring, 2), a), oracle.kron(Matrix.identity(ring, 2), a))
            assert_same(a + a, oracle.add(a, a))
            assert_same(vec_row_major(a), Matrix(ring, r * k, 1, tuple((x,) for row in a.entries for x in row)))
            assert_same(unvec_row_major(vec_row_major(a), r, k), a)


def test_block_matrix_matches_oracle():
    for index, ring in enumerate(RINGS):
        rng = random.Random(7200 + index)
        for _ in range(25):
            heights = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 4))]
            widths = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 4))]
            blocks = {
                (i, j): sparse_matrix(rng, ring, h, w)
                for i, h in enumerate(heights)
                for j, w in enumerate(widths)
                if rng.random() < 0.5
            }
            assert_same(
                block_matrix(ring, heights, widths, blocks),
                oracle.block_matrix(ring, heights, widths, blocks),
            )


def test_rearrangements_and_smith_data_are_canonical():
    """Stacks, slices, reshapes and Smith data equal their normalized selves."""
    for index, ring in enumerate(RINGS):
        rng = random.Random(7300 + index)
        for _ in range(20):
            r, c = rng.randrange(0, 5), rng.randrange(1, 5)
            a, b = sparse_matrix(rng, ring, r, c), sparse_matrix(rng, ring, r, c)
            j0 = rng.randrange(0, c + 1)
            i0 = rng.randrange(0, r + 1)
            made = [
                a.hstack(b),
                a.vstack(b),
                a.rows_slice(i0, r),
                a.cols_slice(j0, c),
                a.select_columns([c - 1, 0, c - 1]),
                vec_row_major(a),
                unvec_row_major(vec_row_major(a), r, c),
                Matrix.zero(ring, r, c),
                Matrix.identity(ring, c),
            ]
            if ring.is_field() or ring.kind == "Z":
                snf = smith_normal_form(a)
                made += [snf.d, snf.p, snf.q, snf.pinv, snf.qinv]
            for m in made:
                assert_same(m, Matrix(ring, m.rows, m.cols, m.entries))
            assert_same(Matrix.identity(ring, c), Matrix(ring, c, c, tuple(
                tuple(1 if i == j else 0 for j in range(c)) for i in range(c)
            )))


def test_slices_outside_the_matrix_raise():
    a = Matrix.identity(ZZ, 3)
    for bad in ((2, 4), (2, 1), (-1, 2)):
        with pytest.raises(ShapeMismatch):
            a.rows_slice(*bad)
        with pytest.raises(ShapeMismatch):
            a.cols_slice(*bad)


def _sparse_map(rng, src, tgt, degree):
    """A random graded map with some of its blocks not stored."""
    f = random_graded_map(rng, src, tgt, degree)
    return GradedMap.build(src, tgt, degree, {n: m for n, m in f.blocks if rng.random() < 0.6})


def test_graded_map_methods_match_oracle():
    for index, ring in enumerate(RINGS):
        rng = random.Random(7400 + index)
        for _ in range(12):
            a, b, c = (random_complex(rng, ring, max_atoms=3, degree_span=3).complex for _ in range(3))
            for degree in (-1, 0, 1):
                f, f2 = _sparse_map(rng, a, b, degree), _sparse_map(rng, a, b, degree)
                g = _sparse_map(rng, b, c, rng.choice((-1, 0, 1)))
                assert_same_map(f.leibniz(), oracle.leibniz(f))
                assert_same_map(f + f2, oracle.map_add(f, f2))
                assert_same_map(f + GradedMap.zero(a, b, degree), oracle.map_add(f, GradedMap.zero(a, b, degree)))
                zero = GradedMap.zero(a, b, degree)
                for x, y in ((f, f2), (f, f), (f, zero), (zero, f)):
                    assert_same_map(x - y, oracle.map_sub(x, y))
                for s in scalars(ring):
                    assert_same_map(f.scale(s), oracle.map_scale(f, s))
                if ring == Zmod(4):
                    # 2 is a zero divisor: twice 2 kills every block, and
                    # the killed blocks are dropped, not kept as zeros.
                    assert f.scale(2).scale(2).blocks == ()
                assert_same_map(g @ f, oracle.compose(g, f))
                assert_same_map(g.compose(f), oracle.compose(g, f))
            if ring.kind == "Z" or ring.is_field():
                h = random_chain_map(rng, a, b)
                assert h.is_chain_map() and oracle.leibniz(h).is_zero()


IDENTITY_RINGS = (ZZ, QQ, Zmod(2), Zmod(4), Zmod(6), Zmod(18446744073709551557))


def _near_identities(ring, n):
    """Square matrices one step away from the n x n identity: an
    off-diagonal entry or a 2 in the last row, so every row above it is
    an identity row, and the cyclic shift of the rows."""
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    out = []
    edits = [(n - 1, n - 1, 2)] if n else []
    if n >= 2:
        edits.append((n - 1, 0, 1))
        out.append(Matrix(ring, n, n, tuple(map(tuple, eye[1:] + eye[:1]))))
    for i, j, x in edits:
        rows = [list(row) for row in eye]
        rows[i][j] = x
        out.append(Matrix(ring, n, n, tuple(map(tuple, rows))))
    return out


def test_identity_factors_match_oracle(monkeypatch):
    """A product with a square identity factor is one new Matrix on the
    other factor's entries; near-identities, whose rows may still be
    taken whole, give the oracle's product."""
    made = []
    original = Matrix.__post_init__

    def counted(self, canonical):
        made.append(canonical)
        original(self, canonical)

    for index, ring in enumerate(IDENTITY_RINGS):
        rng = random.Random(7500 + index)
        for n in range(5):
            eye = Matrix.identity(ring, n)
            assert _is_identity(eye)
            for _ in range(4):
                k = rng.randrange(0, 4)
                a, b = sparse_matrix(rng, ring, k, n), sparse_matrix(rng, ring, n, k)
                monkeypatch.setattr(Matrix, "__post_init__", counted)
                made.clear()
                left, right, both = eye @ b, a @ eye, eye @ eye
                monkeypatch.undo()
                assert made == [True] * 3
                assert_same(left, oracle.matmul(eye, b))
                assert_same(right, oracle.matmul(a, eye))
                assert_same(both, oracle.matmul(eye, eye))
                for near in _near_identities(ring, n):
                    assert not _is_identity(near)
                    assert_same(near @ b, oracle.matmul(near, b))
                    assert_same(a @ near, oracle.matmul(a, near))
                if n:
                    tall = eye.vstack(Matrix.zero(ring, 1, n))
                    assert not _is_identity(tall) and not _is_identity(tall.transpose())
                    assert_same(tall @ b, oracle.matmul(tall, b))
                    assert_same(b.transpose() @ tall.transpose(), oracle.matmul(b.transpose(), tall.transpose()))


def _leibniz_terms(f):
    """Per degree n of df, which of d f_n and f_(n-1) d exist."""
    mine, d_tgt, d_src = f._block_map, f.target._diff_map, f.source._diff_map
    terms = {}
    for n in set(mine) | {n + 1 for n in mine}:
        left = n in mine and n + f.degree in d_tgt
        right = n - 1 in mine and n in d_src
        if left or right:
            terms[n] = (left, right)
    return terms


def test_leibniz_takes_one_product_per_block_and_matches_the_two_product_route(monkeypatch):
    """GradedMap.leibniz against compose_oracle.leibniz, which took two
    products per degree and added or subtracted them, by repr.  Maps of
    degree -1 to 2 (both parities) between random and zero complexes,
    with some blocks not stored, so that degrees with both terms and
    with only one of them all occur.  Each block of df is one product,
    and no matrix is added, subtracted or negated once the source's
    negated differentials are cached."""
    counts = {"product": 0, "sum": 0}

    def counting(name, kind):
        original = getattr(Matrix, name)

        def counted(self, *args):
            counts[kind] += 1
            return original(self, *args)
        monkeypatch.setattr(Matrix, name, counted)

    seen = set()
    for index, ring in enumerate(IDENTITY_RINGS):
        rng = random.Random(7600 + index)
        zero = ChainComplex.zero_complex(ring)
        for _ in range(5):
            a, b = (random_complex(rng, ring, max_atoms=3, degree_span=3).complex for _ in range(2))
            for src, tgt in ((a, b), (a, a), (a, zero), (zero, b), (zero, zero)):
                for degree in range(-1, 3):
                    for f in (_sparse_map(rng, src, tgt, degree), random_graded_map(rng, src, tgt, degree)):
                        want = compose_oracle.leibniz(f)
                        terms = _leibniz_terms(f)
                        seen.update((degree % 2, both) for both in terms.values())
                        src._negated_diffs  # made once per complex, outside the count
                        counting("__matmul__", "product")
                        for name in ("__add__", "__sub__", "__neg__"):
                            counting(name, "sum")
                        counts.update(product=0, sum=0)
                        got = f.leibniz()
                        monkeypatch.undo()
                        assert counts == {"product": len(terms), "sum": 0}
                        assert repr(got) == repr(want)
                        for _, m in got.blocks:
                            assert_canonical(m)
    assert seen == {(p, t) for p in (0, 1) for t in ((True, False), (False, True), (True, True))}


def test_validate_still_rejects_a_boundary_that_does_not_square_to_zero():
    for ring in RINGS:
        one = Matrix.from_rows(ring, [[1]])
        with pytest.raises(ValueError, match="boundary twice is nonzero from degree 2"):
            ChainComplex.build(ring, {0: 1, 1: 1, 2: 1}, {1: one, 2: one})
        ChainComplex.build(ring, {0: 1, 1: 1, 2: 1, 3: 1}, {1: one, 3: one})


def test_public_constructors_still_normalize():
    with pytest.raises((TypeError, ValueError)):
        Matrix(ZZ, 1, 1, ((1.5,),))
    with pytest.raises(ValueError):
        Matrix(ZZ, 1, 1, ((Fraction(1, 2),),))
    assert Matrix(Zmod(4), 1, 2, ((5, -1),)).entries == ((1, 3),)
    assert Matrix.from_rows(Zmod(4), [[5]]).entries == ((1,),)
    assert Matrix.from_columns(Zmod(4), [[6], [-5]], 1).entries == ((2, 3),)
    for m in (Matrix(QQ, 1, 1, ((2,),)), Matrix.from_rows(QQ, [[2]]), Matrix.from_columns(QQ, [[2]], 1)):
        assert type(m.entries[0][0]) is Fraction
    assert_same(Matrix.from_rows(ZZ, [[3, -2]]).to_ring(QQ), Matrix.from_rows(QQ, [[3, -2]]))
    assert Matrix.from_rows(ZZ, [[5, -1]]).to_ring(Zmod(4)).entries == ((1, 3),)
    with pytest.raises(ShapeMismatch):
        Matrix(ZZ, 2, 1, ((1,),))
    loaded = load_matrix([["5", "-1"]], Zmod(4), 1, 2, "m")
    assert loaded.entries == ((1, 3),)
    rational = load_matrix([["2", "1/2"]], QQ, 1, 2, "m")
    assert_canonical(rational)
    assert rational.entries == ((Fraction(2), Fraction(1, 2)),)


def test_only_exact_linalg_builds_trusted_matrices():
    package = Path(chainbench.__file__).resolve().parent
    def users(name):
        return {p.stem for p in package.glob("*.py") if re.search(rf"\b{name}\b", p.read_text(encoding="utf-8"))}

    assert users("_trusted") == {"exact_linalg"}
    assert users("_canonical") == {"exact_linalg"}


def test_every_construction_runs_post_init(monkeypatch):
    """Trusted and normalizing builds are one constructor, so a hook on
    __post_init__ sees every Matrix that is made."""
    seen = []
    original = Matrix.__post_init__

    def counted(self, canonical):
        seen.append(canonical)
        original(self, canonical)

    monkeypatch.setattr(Matrix, "__post_init__", counted)
    i = Matrix.identity(ZZ, 3)
    assert seen == [True]
    assert i @ Matrix.from_rows(ZZ, [[1], [2], [3]]) == Matrix(ZZ, 3, 1, ((1,), (2,), (3,)))
    assert seen == [True, False, True, False]

