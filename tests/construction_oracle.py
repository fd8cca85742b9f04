"""The block constructions as they were before block_matrix assembled them.

Each construction below pads its blocks with explicit zero matrices and
joins them with hstack and vstack, exactly as the library did before
exact_linalg.block_matrix became the one block assembler.  They return
the library's own value classes, so tests/test_block_assembler.py can
require every construction to be equal, field for field, to its
oracle.  _coeff_tensor_then is the entrywise fill that ladder replaced
by a reshape and a Kronecker product.  tensor_with_bimodule and
tensor_map_with_bimodule rebuild the tensored complex and map from
kron(m, I_s) at every rank s, rank 1 included, as diagrams did before it
returned its argument for a rank-1 bimodule.
exact_square_total_by_cones is the route the library took before it
wrote the square's total complex as one block matrix per degree: a
direct sum, four composed graded maps and two cones, built with the
library's own direct_sum, _cone_complex and tensor functions.
detect_probe rebuilds each candidate probe through ladder.test_object
on every call, as the library did before it kept its candidates.
d0_direct_sum and dcomplex_direct_sum build each block-diagonal map
of a levelwise or vertexwise sum as inc_x f proj_x + inc_y g proj_y,
composed from the inclusions and projections of chains.direct_sum,
tensored with diagrams.tensor_map_with_bimodule, as the library did
before chains._block_map placed the two blocks directly.
random_unimodular and _conjugated are fuzz's change of basis as it
was before _conjugated carried each inverse along its steps: the
matrix is built over Z and moved into the ring, and each inverse is
solved for by exact_linalg.inverse.
"""

from __future__ import annotations

import random

from chainbench import chains, diagrams, exact_linalg, ladder
from chainbench.chains import (
    ChainComplex,
    ConeData,
    CylinderData,
    DirectSumData,
    GradedMap,
    PushoutData,
    RotatedSES,
    SESData,
    _require_chain_map,
    suspend,
    validate_ses,
)
from chainbench.diagrams import Bimodule
from chainbench.exact_linalg import ZZ, Matrix, Ring, ShapeMismatch, inverse, kron, solve_linear, split_with_complement
from chainbench.ladder import D0Complex


def tensor_with_bimodule(c: ChainComplex, s: Bimodule) -> ChainComplex:
    if c.ring != s.base:
        raise ShapeMismatch("complex and bimodule over different rings")
    eye = Matrix.identity(c.ring, s.rank)
    ranks = {n: r * s.rank for n, r in c.ranks}
    diffs = {n: kron(m, eye) for n, m in c.diffs}
    return ChainComplex.build(c.ring, ranks, diffs, validate=False)


def tensor_map_with_bimodule(f: GradedMap, s: Bimodule) -> GradedMap:
    eye = Matrix.identity(f.source.ring, s.rank)
    return GradedMap.build(
        tensor_with_bimodule(f.source, s),
        tensor_with_bimodule(f.target, s),
        f.degree,
        {n: kron(m, eye) for n, m in f.blocks},
    )


def block_matrix(grid) -> Matrix:
    """Assemble a matrix from a rectangular grid of blocks.

    Every entry of the grid must be a Matrix; block heights must agree
    along each row of the grid and widths along each column.
    """
    if not grid or not grid[0]:
        raise ShapeMismatch("block_matrix needs a nonempty grid")
    ring = grid[0][0].ring
    ncols_blocks = len(grid[0])
    for row in grid:
        if len(row) != ncols_blocks:
            raise ShapeMismatch("ragged block grid")
    out = None
    for row in grid:
        strip = row[0]
        for blk in row[1:]:
            strip = strip.hstack(blk)
        out = strip if out is None else out.vstack(strip)
    if out.ring != ring:
        raise ShapeMismatch("ring mismatch inside block grid")
    return out


def direct_sum(*parts: ChainComplex) -> DirectSumData:
    if not parts:
        raise ValueError("direct_sum needs at least one summand")
    ring = parts[0].ring
    if any(p.ring != ring for p in parts):
        raise ShapeMismatch("summands live over different rings")
    degrees = sorted({n for p in parts for n in p.degrees()})
    ranks = {n: sum(p.rank(n) for p in parts) for n in degrees}
    diffs = {}
    for n in degrees:
        grid = []
        for i, pi in enumerate(parts):
            row = []
            for j, pj in enumerate(parts):
                if i == j:
                    row.append(pi.diff(n))
                else:
                    row.append(Matrix.zero(ring, pi.rank(n - 1), pj.rank(n)))
            grid.append(row)
        diffs[n] = block_matrix(grid)
    total = ChainComplex.build(ring, ranks, diffs, validate=False)
    inclusions = []
    projections = []
    for i, p in enumerate(parts):
        inc = {}
        prj = {}
        for n in p.degrees():
            before = sum(q.rank(n) for q in parts[:i])
            eye = Matrix.identity(ring, p.rank(n))
            top = Matrix.zero(ring, before, p.rank(n))
            bot = Matrix.zero(ring, total.rank(n) - before - p.rank(n), p.rank(n))
            inc[n] = top.vstack(eye).vstack(bot)
        for n in total.degrees():
            before = sum(q.rank(n) for q in parts[:i])
            eye = Matrix.identity(ring, p.rank(n))
            left = Matrix.zero(ring, p.rank(n), before)
            right = Matrix.zero(ring, p.rank(n), total.rank(n) - before - p.rank(n))
            prj[n] = left.hstack(eye).hstack(right)
        inclusions.append(GradedMap.build(p, total, 0, inc))
        projections.append(GradedMap.build(total, p, 0, prj))
    return DirectSumData(total, tuple(inclusions), tuple(projections))


def cone(f: GradedMap) -> ConeData:
    _require_chain_map(f, degree=0, what="cone input")
    a, b = f.source, f.target
    ring = a.ring
    degrees = sorted({n for n in b.degrees()} | {n + 1 for n in a.degrees()})
    ranks = {n: a.rank(n - 1) + b.rank(n) for n in degrees}
    diffs = {}
    for n in degrees:
        top = (-a.diff(n - 1)).hstack(Matrix.zero(ring, a.rank(n - 2), b.rank(n)))
        bot = (-f.block(n - 1)).hstack(b.diff(n))
        diffs[n] = top.vstack(bot)
    cx = ChainComplex.build(ring, ranks, diffs, validate=True)
    incl = {}
    for n in b.degrees():
        incl[n] = Matrix.zero(ring, a.rank(n - 1), b.rank(n)).vstack(
            Matrix.identity(ring, b.rank(n))
        )
    proj = {}
    for n in cx.degrees():
        proj[n] = Matrix.identity(ring, a.rank(n - 1)).hstack(
            Matrix.zero(ring, a.rank(n - 1), b.rank(n))
        )
    inclusion = GradedMap.build(b, cx, 0, incl)
    projection = GradedMap.build(cx, a, -1, proj)
    if not inclusion.is_chain_map():
        raise AssertionError("cone inclusion failed to be a chain map")
    if not projection.leibniz().is_zero():
        raise AssertionError("cone projection failed to be a cycle")
    return ConeData(cx, inclusion, projection)


def cylinder(f: GradedMap) -> CylinderData:
    _require_chain_map(f, degree=0, what="cylinder input")
    a, b = f.source, f.target
    ring = a.ring
    cn = cone(f)
    degrees = sorted(
        {n for n in a.degrees()} | {n + 1 for n in a.degrees()} | set(b.degrees())
    )
    ranks = {n: a.rank(n) + a.rank(n - 1) + b.rank(n) for n in degrees}
    diffs = {}
    for n in degrees:
        an, an1, bn = a.rank(n), a.rank(n - 1), b.rank(n)
        am1, am2, bm1 = a.rank(n - 1), a.rank(n - 2), b.rank(n - 1)
        row1 = a.diff(n).hstack(Matrix.identity(ring, an1)).hstack(Matrix.zero(ring, am1, bn))
        row2 = (
            Matrix.zero(ring, am2, an)
            .hstack(-a.diff(n - 1))
            .hstack(Matrix.zero(ring, am2, bn))
        )
        row3 = (
            Matrix.zero(ring, bm1, an)
            .hstack(-f.block(n - 1))
            .hstack(b.diff(n))
        )
        diffs[n] = row1.vstack(row2).vstack(row3)
    cx = ChainComplex.build(ring, ranks, diffs, validate=True)
    j1 = {}
    for n in a.degrees():
        an = a.rank(n)
        j1[n] = (
            Matrix.identity(ring, an)
            .vstack(Matrix.zero(ring, a.rank(n - 1), an))
            .vstack(Matrix.zero(ring, b.rank(n), an))
        )
    j2 = {}
    for n in b.degrees():
        bn = b.rank(n)
        j2[n] = (
            Matrix.zero(ring, a.rank(n), bn)
            .vstack(Matrix.zero(ring, a.rank(n - 1), bn))
            .vstack(Matrix.identity(ring, bn))
        )
    pr = {}
    for n in cx.degrees():
        pr[n] = (
            f.block(n)
            .hstack(Matrix.zero(ring, b.rank(n), a.rank(n - 1)))
            .hstack(Matrix.identity(ring, b.rank(n)))
        )
    qt = {}
    for n in cx.degrees():
        width = a.rank(n - 1) + b.rank(n)
        qt[n] = Matrix.zero(ring, width, a.rank(n)).hstack(
            Matrix.identity(ring, width)
        )
    ht = {}
    for n in cx.degrees():
        an, an1, bn = a.rank(n), a.rank(n - 1), b.rank(n)
        up_a = a.rank(n + 1)
        block = (
            Matrix.zero(ring, up_a, an)
            .hstack(Matrix.zero(ring, up_a, an1))
            .hstack(Matrix.zero(ring, up_a, bn))
        )
        mid = (
            Matrix.identity(ring, an)
            .hstack(Matrix.zero(ring, an, an1))
            .hstack(Matrix.zero(ring, an, bn))
        )
        low = (
            Matrix.zero(ring, b.rank(n + 1), an)
            .hstack(Matrix.zero(ring, b.rank(n + 1), an1))
            .hstack(Matrix.zero(ring, b.rank(n + 1), bn))
        )
        ht[n] = block.vstack(mid).vstack(low)
    incl_source = GradedMap.build(a, cx, 0, j1)
    incl_target = GradedMap.build(b, cx, 0, j2)
    proj = GradedMap.build(cx, b, 0, pr)
    quotient = GradedMap.build(cx, cn.complex, 0, qt)
    homotopy = GradedMap.build(cx, cx, 1, ht)
    for m_, name in (
        (incl_source, "source end"),
        (incl_target, "target end"),
        (proj, "projection"),
        (quotient, "quotient"),
    ):
        if not m_.is_chain_map():
            raise AssertionError(f"cylinder {name} failed to be a chain map")
    want = GradedMap.identity(cx) - incl_target @ proj
    if homotopy.leibniz() != want:
        raise AssertionError("cylinder homotopy does not witness the deformation")
    return CylinderData(cx, cn, incl_source, incl_target, proj, quotient, homotopy)


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
    degrees = sorted(set(y.degrees()) | set(z.degrees()))
    kcols = {}
    for n in degrees:
        kcols[n] = splits[n][1].cols if n in splits else 0
    ranks = {n: z.rank(n) + kcols[n] for n in degrees}

    def _ra(n):
        if n in splits:
            return splits[n][0]
        return Matrix.zero(ring, a.rank(n), y.rank(n))

    def _kk(n):
        if n in splits:
            return splits[n][1]
        return Matrix.zero(ring, y.rank(n), 0)

    def _pk(n):
        if n in splits:
            return splits[n][2]
        return Matrix.zero(ring, 0, y.rank(n))

    diffs = {}
    for n in degrees:
        topright = g.block(n - 1) @ _ra(n - 1) @ y.diff(n) @ _kk(n)
        botright = _pk(n - 1) @ y.diff(n) @ _kk(n)
        top = z.diff(n).hstack(topright)
        bot = Matrix.zero(ring, kcols.get(n - 1, 0), z.rank(n)).hstack(botright)
        diffs[n] = top.vstack(bot)
    w = ChainComplex.build(ring, ranks, diffs, validate=True)
    inc_z = {}
    for n in z.degrees():
        inc_z[n] = Matrix.identity(ring, z.rank(n)).vstack(
            Matrix.zero(ring, kcols.get(n, 0), z.rank(n))
        )
    inc_y = {}
    for n in y.degrees():
        inc_y[n] = (g.block(n) @ _ra(n)).vstack(_pk(n))
    from_other = GradedMap.build(z, w, 0, inc_z)
    from_target = GradedMap.build(y, w, 0, inc_y)
    if not from_other.is_chain_map() or not from_target.is_chain_map():
        raise AssertionError("pushout structure maps failed to be chain maps")
    if from_target @ f != from_other @ g:
        raise AssertionError("pushout square does not commute")
    comps = tuple(sorted((n, splits[n][1]) for n in splits))
    return PushoutData(w, f, g, from_target, from_other, comps)


def rotate_ses(data: SESData) -> RotatedSES:
    x, y, z = data.sub, data.middle, data.quotient
    ring = y.ring
    t, rho = data.section, data.retraction
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
    pad = cone(GradedMap.identity(down))
    summed = direct_sum(x, pad.complex)
    new_incl_blocks = {}
    for n in down.degrees():
        zn1 = down.rank(n)  # this is rank of Z in degree n + 1
        zn = z.rank(n)
        top = gamma.block(n)
        mid = Matrix.zero(ring, zn, zn1)
        bot = Matrix.identity(ring, zn1)
        new_incl_blocks[n] = top.vstack(mid).vstack(bot)
    new_proj_blocks = {}
    for n in summed.complex.degrees():
        left = data.incl.block(n)
        midp = t.block(n)
        right = -(data.incl.block(n) @ gamma.block(n))
        new_proj_blocks[n] = left.hstack(midp).hstack(right)
    new_incl = GradedMap.build(down, summed.complex, 0, new_incl_blocks)
    new_proj = GradedMap.build(summed.complex, y, 0, new_proj_blocks)
    rotated = validate_ses(new_incl, new_proj)
    return RotatedSES(rotated, gamma, pad.complex)


def _coeff_tensor_then(b: Matrix, p: int, s: int) -> Matrix:
    """Coefficient of X -> vec(kron(X, I_s) @ B), X with p rows.

    B has r*s rows and the result keeps row-major vec ordering on both
    sides, with the tensor factor fastest among the rows of kron(X, I).
    """
    r = b.rows // s
    t = b.cols
    ring = b.ring
    z = ring.zero
    grid = [[z] * (p * r) for _ in range(p * s * t)]
    for u in range(p):
        for v in range(s):
            for w in range(t):
                row = grid[(u * s + v) * t + w]
                for col in range(r):
                    row[u * r + col] = b[col * s + v, w]
    if p * s * t == 0 or p * r == 0:
        return Matrix.zero(ring, p * s * t, p * r)
    return Matrix.from_rows(ring, grid)


def exact_square_total(c: D0Complex, m: int) -> ChainComplex:
    """Total complex deciding exactness of the square at index m.

    The square has the ascent on top, descents on the sides, and the
    tensored lower ascent below.  Fold it into a three-term column
    via the cone: the column is level m, then level m + 1 plus the
    tensored level m - 1, then tensored level m.  The square is exact,
    both a homotopy pushout and pullback, exactly when this total
    complex is acyclic.
    """
    if not 1 <= m <= c.top_index - 1:
        raise ValueError(f"no square at index {m}")
    s = c.bimodule
    mid = direct_sum(c.level(m + 1), tensor_with_bimodule(c.level(m - 1), s))
    first = mid.inclusions[0] @ c.lambda_map(m) + mid.inclusions[1] @ c.alpha_map(m)
    second = (
        c.alpha_map(m + 1) @ mid.projections[0]
        - tensor_map_with_bimodule(c.lambda_map(m - 1), s) @ mid.projections[1]
    )
    folded = cone(first)
    target = tensor_with_bimodule(c.level(m), s)
    blocks = {}
    for n in folded.complex.degrees():
        pad = Matrix.zero(c.bimodule.base, target.rank(n), c.level(m).rank(n - 1))
        blocks[n] = pad.hstack(second.block(n))
    closing = GradedMap.build(folded.complex, target, 0, blocks)
    if not closing.is_chain_map():
        raise AssertionError("folded square map failed to be a chain map")
    return cone(closing).complex


def exact_square_total_by_cones(c: D0Complex, m: int) -> ChainComplex:
    """exact_square_total through the library's direct sum and cones:
    level m + 1 and the tensored level m - 1 are summed, the maps into
    and out of the sum are composed from its inclusions and
    projections, and two unchecked cones fold the square."""
    if not 1 <= m <= c.top_index - 1:
        raise ValueError(f"no square at index {m}")
    s = c.bimodule
    mid = chains.direct_sum(c.level(m + 1), diagrams.tensor_with_bimodule(c.level(m - 1), s))
    first = mid.inclusions[0] @ c.lambda_map(m) + mid.inclusions[1] @ c.alpha_map(m)
    second = (
        c.alpha_map(m + 1) @ mid.projections[0]
        - diagrams.tensor_map_with_bimodule(c.lambda_map(m - 1), s) @ mid.projections[1]
    )
    folded = chains._cone_complex(first)
    target = diagrams.tensor_with_bimodule(c.level(m), s)
    blocks = {
        n: exact_linalg.block_matrix(
            s.base, [target.rank(n)], [c.level(m).rank(n - 1), mid.complex.rank(n)],
            {(0, 1): second.block(n)},
        )
        for n in folded.degrees()
    }
    return chains._cone_complex(GradedMap.build(folded, target, 0, blocks))


def detect_probe(d: D0Complex):
    m = next((i for i, c in enumerate(d.levels) if c.total_rank), None)
    if m is None:
        return None, None
    if d == ladder.test_object("g_m", m, d.top_index, d.bimodule):
        return "g_m", m
    if m < d.top_index and d == ladder.test_object("g_m_cone", m, d.top_index, d.bimodule):
        return "g_m_cone", m
    return None, None


def d0_direct_sum(x: D0Complex, y: D0Complex) -> D0Complex:
    if x.bimodule != y.bimodule:
        raise ShapeMismatch("towers use different bimodules")
    if x.top_index != y.top_index:
        raise ShapeMismatch("towers have different lengths")
    s = x.bimodule
    sums = [chains.direct_sum(x.level(i), y.level(i)) for i in range(x.top_index + 1)]
    ascents = []
    for i in range(x.top_index):
        here, up = sums[i], sums[i + 1]
        ascents.append(
            up.inclusions[0] @ x.lambda_map(i) @ here.projections[0]
            + up.inclusions[1] @ y.lambda_map(i) @ here.projections[1]
        )
    descents = []
    for i in range(1, x.top_index + 1):
        here, down = sums[i], sums[i - 1]
        descents.append(
            diagrams.tensor_map_with_bimodule(down.inclusions[0], s) @ x.alpha_map(i) @ here.projections[0]
            + diagrams.tensor_map_with_bimodule(down.inclusions[1], s) @ y.alpha_map(i) @ here.projections[1]
        )
    return D0Complex.build(
        s,
        [t.complex for t in sums],
        ascents,
        descents,
        max(x.stabilization, y.stabilization),
    )


def dcomplex_direct_sum(x, y):
    if x.diagram != y.diagram:
        raise ShapeMismatch("direct sum needs the same diagram of bimodules")
    diagram = x.diagram
    sums = {v: chains.direct_sum(x.complex_at(v), y.complex_at(v)) for v, _ in diagram.vertices}
    maps = {}
    for e in diagram.edges:
        src_sum = sums[e.source]
        tgt_sum = sums[e.target]
        fx, fy = x.map_for(e.name), y.map_for(e.name)
        inc_x = diagrams.tensor_map_with_bimodule(tgt_sum.inclusions[0], e.bimodule)
        inc_y = diagrams.tensor_map_with_bimodule(tgt_sum.inclusions[1], e.bimodule)
        maps[e.name] = (
            inc_x @ fx @ src_sum.projections[0]
            + inc_y @ fy @ src_sum.projections[1]
        )
    return diagrams.DComplex.build(
        diagram, {v: sums[v].complex for v, _ in diagram.vertices}, maps
    )


def random_unimodular(rng: random.Random, ring: Ring, n: int, steps: int = 6) -> Matrix:
    """Random product of elementary matrices; invertible over any ring."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n) if n else 0
        j = rng.randrange(n) if n else 0
        if n == 0 or i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return Matrix.from_rows(ZZ, rows).to_ring(ring) if n else Matrix.zero(ring, 0, 0)


def _conjugated(rng: random.Random, c: ChainComplex):
    """c with a random unimodular change of basis in every degree.

    Returns (mixed, basis, inverses): basis[n] carries c_n onto mixed_n
    and inverses[n] carries it back.  Conjugation moves no homology and
    no splitting property.
    """
    basis = {n: random_unimodular(rng, c.ring, r) for n, r in c.ranks}
    inverses = {n: inverse(u) for n, u in basis.items()}
    diffs = {n: basis[n - 1] @ d @ inverses[n] for n, d in c.diffs}
    return ChainComplex.build(c.ring, dict(c.ranks), diffs), basis, inverses
