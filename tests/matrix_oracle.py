"""The matrix layer as it was before results skipped normalization.

Each function below is the library's earlier version of a Matrix
operation or GradedMap method, kept as a test oracle.  Every result
goes through the normalizing Matrix constructor, products index
other.entries[k][j] one scalar at a time, and the graded-map methods
visit every degree of the source, multiplying zero matrices where no
block is stored.  tests/test_lean_matrix.py requires the library's
results to be equal to these, entry types included.

product_rows is the library's _product_rows as it was before a dense
left row of a wide product took one dot product per entry: every left
row is built as a sum of whole rows of the right factor, one term per
nonzero entry.  tests/test_dense_products.py puts it in place of the
library's and requires every product to be equal by repr.
"""

from __future__ import annotations

from chainbench.chains import GradedMap
from chainbench.exact_linalg import Matrix, ShapeMismatch


def add(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_shape(b)
    data = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries))
    return Matrix(a.ring, a.rows, a.cols, data)


def sub(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_shape(b)
    data = tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries))
    return Matrix(a.ring, a.rows, a.cols, data)


def neg(a: Matrix) -> Matrix:
    data = tuple(tuple(-x for x in row) for row in a.entries)
    return Matrix(a.ring, a.rows, a.cols, data)


def scale(a: Matrix, c) -> Matrix:
    c = a.ring.normalize(c)
    data = tuple(tuple(c * x for x in row) for row in a.entries)
    return Matrix(a.ring, a.rows, a.cols, data)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ring != b.ring:
        raise ShapeMismatch(f"ring mismatch: {a.ring} vs {b.ring}")
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
    z = a.ring.zero
    data = []
    for i in range(a.rows):
        arow = a.entries[i]
        out = []
        for j in range(b.cols):
            s = z
            for k in range(a.cols):
                aik = arow[k]
                if aik != z:
                    s = s + aik * b.entries[k][j]
            out.append(s)
        data.append(tuple(out))
    return Matrix(a.ring, a.rows, b.cols, tuple(data))


def product_rows(arows, brows, zero_row, m) -> tuple:
    """The rows of a product over Z (m None) or Z/m: row i is the sum
    of a_ik times row k of brows, reduced % m.  A row of arows whose
    only nonzero entry is a 1 at k is brows[k], taken whole."""
    data = []
    for arow in arows:
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


def transpose(a: Matrix) -> Matrix:
    data = tuple(tuple(a.entries[i][j] for i in range(a.rows)) for j in range(a.cols))
    return Matrix(a.ring, a.cols, a.rows, data)


def kron(a: Matrix, b: Matrix) -> Matrix:
    if a.ring != b.ring:
        raise ShapeMismatch(f"ring mismatch: {a.ring} vs {b.ring}")
    z = a.ring.zero
    data = []
    for i in range(a.rows):
        for u in range(b.rows):
            row = []
            for j in range(a.cols):
                aij = a.entries[i][j]
                if aij == z:
                    row.extend(z for _ in range(b.cols))
                else:
                    row.extend(aij * b.entries[u][v] for v in range(b.cols))
            data.append(tuple(row))
    return Matrix(a.ring, a.rows * b.rows, a.cols * b.cols, tuple(data))


def block_matrix(ring, heights, widths, blocks) -> Matrix:
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
    data = [row for strip in strips for row in strip]
    return Matrix(ring, len(data), offsets[-1], data)


def map_add(f: GradedMap, g: GradedMap) -> GradedMap:
    f._require_parallel(g)
    out = {}
    for n in set(f._block_map) | set(g._block_map):
        out[n] = add(f.block(n), g.block(n))
    return GradedMap.build(f.source, f.target, f.degree, out)


def map_sub(f: GradedMap, g: GradedMap) -> GradedMap:
    f._require_parallel(g)
    out = {}
    for n in set(f._block_map) | set(g._block_map):
        out[n] = sub(f.block(n), g.block(n))
    return GradedMap.build(f.source, f.target, f.degree, out)


def map_scale(f: GradedMap, c) -> GradedMap:
    out = {n: scale(f.block(n), c) for n in f.source.degrees()}
    return GradedMap.build(f.source, f.target, f.degree, out)


def compose(f: GradedMap, g: GradedMap) -> GradedMap:
    """f after g."""
    if g.target != f.source:
        raise ShapeMismatch("composition needs other.target == self.source")
    out = {}
    for n in g.source.degrees():
        out[n] = matmul(f.block(n + g.degree), g.block(n))
    return GradedMap.build(g.source, f.target, f.degree + g.degree, out)


def leibniz(f: GradedMap) -> GradedMap:
    sign = 1 if f.degree % 2 == 0 else -1
    out = {}
    for n in f.source.degrees():
        term = matmul(f.target.diff(n + f.degree), f.block(n))
        corr = scale(matmul(f.block(n - 1), f.source.diff(n)), sign)
        out[n] = sub(term, corr)
    return GradedMap.build(f.source, f.target, f.degree - 1, out)
