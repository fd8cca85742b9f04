"""Seeded random generators with known-by-construction answers.

Every generator here carries a proof obligation in its construction:
random complexes are direct sums of two-term atoms with recorded
homology, conjugated by unimodular changes of basis that cannot change
homology; random chain maps are sampled from the exact kernel of the
chain condition; random extensions twist by a boundary so the total
complex is conjugate to the direct sum.  Tests lean on these knowns as
oracles that are independent of the code paths under test.

Every change of basis goes through _conjugated, which draws it with
random_unimodular's elementary steps and carries its inverse along
them, so no inverse is solved for.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from ._record import record
from .exact_linalg import Matrix, Ring, ZZ, _invariant_chain, kernel_basis
from .chains import (
    ChainComplex,
    GradedMap,
    HomologySummary,
    _block_map,
    _block_sum,
    _slot,
    leibniz_system,
)


def _elementary_steps(rng: random.Random, n: int, steps: int):
    """The steps row i += c * row j of a random n x n unimodular matrix.

    Each of the steps draws i and j, and a c only when i != j; a draw
    with i == j is no step.  Consume the steps before the next draw
    from rng.
    """
    for _ in range(steps if n else 0):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i != j:
            yield i, j, rng.choice([-2, -1, 1, 2])


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def random_unimodular(rng: random.Random, ring: Ring, n: int, steps: int = 6) -> Matrix:
    """Random product of elementary matrices; invertible over any ring."""
    rows = _identity_rows(n)
    for i, j, c in _elementary_steps(rng, n, steps):
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix.from_rows(ring, rows)


def random_matrix(rng: random.Random, ring: Ring, rows: int, cols: int, bound: int = 3) -> Matrix:
    if rows == 0 or cols == 0:
        return Matrix.zero(ring, rows, cols)
    if ring.kind == "Zmod":
        data = [[rng.randrange(ring.modulus) for _ in range(cols)] for _ in range(rows)]
    elif ring.kind == "Q":
        data = [
            [Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 2])) for _ in range(cols)]
            for _ in range(rows)
        ]
    else:
        data = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(ring, data)


# Invariant factor chain of a direct sum of cyclic groups Z/n, n >= 1,
# largest last.  Orders are paired by gcd and lcm and never factored.
invariant_factors_of_cyclics = _invariant_chain


def _conjugated(rng: random.Random, c: ChainComplex):
    """c with a random unimodular change of basis in every degree.

    Returns (mixed, basis, inverses): basis[n] carries c_n onto mixed_n
    and inverses[n] carries it back.  Conjugation moves no homology and
    no splitting property.  basis[n] is random_unimodular's matrix for
    the same draws, and each of its steps row i += c * row j is undone
    on the inverse as column j -= c * column i, so nothing is solved.
    """
    basis, inverses = {}, {}
    for n, r in c.ranks:
        u, v = _identity_rows(r), _identity_rows(r)
        for i, j, k in _elementary_steps(rng, r, 6):
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
            for row in v:
                row[j] -= k * row[i]
        basis[n], inverses[n] = Matrix.from_rows(c.ring, u), Matrix.from_rows(c.ring, v)
    diffs = {n: basis[n - 1] @ d @ inverses[n] for n, d in c.diffs}
    return ChainComplex.build(c.ring, dict(c.ranks), diffs), basis, inverses


@record
class RandomComplex:
    """A generated complex together with its homology known by construction."""

    complex: ChainComplex
    expected: dict


def random_complex(
    rng: random.Random,
    ring: Ring,
    max_atoms: int = 4,
    degree_span: int = 3,
    force_acyclic: bool = False,
) -> RandomComplex:
    """Direct sum of two-term and free atoms, conjugated degreewise.

    Each two-term atom contributes a single multiplication map in some
    degree; a free atom contributes one generator with zero boundary.
    Homology of the sum is read off the atoms; a final unimodular
    change of basis in every degree mixes the summands without touching
    homology.
    """
    atoms = []
    n_atoms = rng.randint(1, max_atoms)
    for _ in range(n_atoms):
        top = rng.randint(0, degree_span)
        if force_acyclic:
            kind = "unit"
        else:
            kind = rng.choice(["free", "mult", "mult", "unit"])
        if kind == "free":
            atoms.append(("free", top, 0))
        elif kind == "unit":
            atoms.append(("mult", top, rng.choice([1, -1])))
        else:
            atoms.append(("mult", top, rng.choice([0, 2, 3, 4, 6, -2])))
    ranks = {}
    entries = {}
    free_at = {}
    cyclic_at = {}

    def bump(n):
        ranks[n] = ranks.get(n, 0) + 1
        return ranks[n] - 1

    placed = []
    for kind, top, mult in atoms:
        if kind == "free":
            idx = bump(top)
            free_at[top] = free_at.get(top, 0) + 1
            placed.append((kind, top, mult, idx, None))
        else:
            i_top = bump(top)
            i_bot = bump(top - 1)
            placed.append((kind, top, mult, i_top, i_bot))
            if ring.kind == "Z":
                if mult == 0:
                    free_at[top] = free_at.get(top, 0) + 1
                    free_at[top - 1] = free_at.get(top - 1, 0) + 1
                elif abs(mult) > 1:
                    cyclic_at.setdefault(top - 1, []).append(abs(mult))
            elif ring.kind == "Q":
                if mult == 0:
                    free_at[top] = free_at.get(top, 0) + 1
                    free_at[top - 1] = free_at.get(top - 1, 0) + 1
            else:
                g = gcd(mult % ring.modulus, ring.modulus)
                if g == ring.modulus:
                    free_at[top] = free_at.get(top, 0) + 1
                    free_at[top - 1] = free_at.get(top - 1, 0) + 1
                elif g > 1:
                    cyclic_at.setdefault(top, []).append(g)
                    cyclic_at.setdefault(top - 1, []).append(g)
    diffs = {}
    for kind, top, mult, i_top, i_bot in placed:
        if kind == "mult":
            block = entries.setdefault(top, {})
            block[(i_bot, i_top)] = mult
    for n, block in entries.items():
        rows = ranks.get(n - 1, 0)
        cols = ranks.get(n, 0)
        data = [[block.get((i, j), 0) for j in range(cols)] for i in range(rows)]
        diffs[n] = Matrix.from_rows(ZZ, data).to_ring(ring) if rows and cols else None
    diffs = {n: m for n, m in diffs.items() if m is not None}
    mixed, _, _ = _conjugated(rng, ChainComplex.build(ring, ranks, diffs))
    expected = {}
    if ring.kind == "Zmod" and not ring.is_field():
        for n in mixed.degrees():
            orders = list(cyclic_at.get(n, []))
            orders.extend(ring.modulus for _ in range(free_at.get(n, 0)))
            expected[n] = HomologySummary(0, invariant_factors_of_cyclics(orders), ring.modulus)
    else:
        modulus = ring.modulus if ring.kind == "Zmod" else None
        for n in mixed.degrees():
            torsion = invariant_factors_of_cyclics(cyclic_at.get(n, [])) if ring.kind == "Z" else ()
            expected[n] = HomologySummary(free_at.get(n, 0), torsion, modulus)
    return RandomComplex(mixed, expected)


def random_graded_map(rng: random.Random, src: ChainComplex, tgt: ChainComplex, degree: int, bound: int = 2) -> GradedMap:
    """Unconstrained random blocks; no chain condition imposed."""
    blocks = {}
    for n in src.degrees():
        blocks[n] = random_matrix(rng, src.ring, tgt.rank(n + degree), src.rank(n), bound)
    return GradedMap.build(src, tgt, degree, blocks)


def random_chain_map(rng: random.Random, src: ChainComplex, tgt: ChainComplex, degree: int = 0, bound: int = 2) -> GradedMap:
    """Uniformly structured sample from the module of chain maps.

    Takes a random small-coefficient combination of a kernel basis of
    the chain condition, so the result commutes with the boundaries on
    the nose.  Over composite Z/m the kernel may fail to be free; use
    explicit constructions there instead.
    """
    a, system = leibniz_system(src, tgt, degree)
    if not system.total:
        return GradedMap.zero(src, tgt, degree)
    k = kernel_basis(a)
    x = k @ random_matrix(rng, src.ring, k.cols, 1, bound)
    return GradedMap.build(src, tgt, degree, {n: system.block(x, n) for n in system.sizes})


def random_null_homotopic(rng: random.Random, src: ChainComplex, tgt: ChainComplex, degree: int = 0, bound: int = 2):
    """Pair (f, H) with dH == f; f is then a null-homotopic chain map."""
    h = random_graded_map(rng, src, tgt, degree + 1, bound)
    return h.leibniz(), h


@record
class RandomExtension:
    """Levelwise split extension with middle conjugate to sub + quotient."""

    incl: GradedMap
    proj: GradedMap
    sub: ChainComplex
    quotient: ChainComplex
    middle: ChainComplex


def random_extension(rng: random.Random, sub: ChainComplex, quotient: ChainComplex, bound: int = 2) -> RandomExtension:
    """Twist the direct sum by a boundary so homology stays the known sum.

    The twist block is d of a random degree-0 map, which keeps the
    square of the boundary zero and makes the extension conjugate to
    the untwisted sum by an upper-triangular change of basis.
    """
    w = random_graded_map(rng, quotient, sub, 0, bound)
    parts = ((sub, 0), (quotient, 0))
    pieces = ((0, 0, sub._diff_map, False), (0, 1, w.leibniz()._block_map, False), (1, 1, quotient._diff_map, False))
    plain = _block_sum(sub.ring, parts, pieces)
    plain.validate()
    mixed, basis, inverses = _conjugated(rng, plain)
    incl_plain, proj_plain = _slot(plain, parts, 0)[0], _slot(plain, parts, 1)[1]
    incl = GradedMap.build(sub, mixed, 0, {n: basis[n] @ m for n, m in incl_plain.blocks})
    proj = GradedMap.build(mixed, quotient, 0, {n: m @ inverses[n] for n, m in proj_plain.blocks})
    return RandomExtension(incl, proj, sub, quotient, mixed)


def random_cofibration(rng: random.Random, sub: ChainComplex, quotient: ChainComplex, bound: int = 2) -> GradedMap:
    """Levelwise split chain injection with the given sub and cokernel shape."""
    return random_extension(rng, sub, quotient, bound).incl


def random_module_lowering(
    rng: random.Random, ring: Ring, rank: int, s_rank: int, bound: int = 2
) -> Matrix:
    """Matrix C -> C (x) S that strictly lowers the module index.

    Entry at (module row i, factor u; column j) may be nonzero only for
    i < j, so every application of any path step lowers the module
    index and length-`rank` composites vanish identically.
    """
    data = [[0] * rank for _ in range(rank * s_rank)]
    for j in range(rank):
        for i in range(j):
            for u in range(s_rank):
                if ring.kind == "Zmod":
                    data[i * s_rank + u][j] = rng.randrange(ring.modulus)
                else:
                    data[i * s_rank + u][j] = rng.randint(-bound, bound)
    return Matrix.from_rows(ring, data)


@record
class RandomLadder:
    """A generated tower whose locality answers are known by construction.

    Every positive level is built as (fresh + previous) + previous (x) S
    with the descent projecting onto the tensor part, then the maps are
    twisted by a unipotent automorphism and every level is conjugated
    degreewise.  Neither step moves homology, so level i is acyclic
    exactly when all fresh pieces up to i are, and the induced map
    between adjacent descent kernels is an equivalence exactly when the
    next fresh piece and the twice-lowered level are both acyclic.
    fresh_acyclic records, per positive level, whether the fresh piece
    was acyclic.
    """

    complex: object
    fresh_acyclic: tuple
    fresh: tuple


def random_reduced_ladder(
    rng: random.Random,
    ring: Ring,
    n_levels: int = 3,
    s_rank: int = 1,
    acyclic_levels=None,
    fresh_complexes=None,
    degree_span: int = 2,
    bound: int = 2,
    scramble: bool = True,
) -> RandomLadder:
    """Reduced tower of cofibrations with descent kernels known by shape.

    acyclic_levels, when given, lists the positive levels whose fresh
    piece must be acyclic; the others get a single free generator.
    fresh_complexes overrides the fresh pieces outright.  All descents
    are degreewise split surjective by construction, all ascents split
    injective, and the stabilization index is the top level.
    """
    from .chains import direct_sum, is_acyclic
    from .diagrams import Bimodule, tensor_map_with_bimodule, tensor_with_bimodule
    from .ladder import D0Complex

    s = Bimodule(ring, s_rank)
    zero = ChainComplex.zero_complex(ring)
    levels = [zero]
    ascents = []
    descents = []
    flags = []
    fresh = []
    lam_prev = None
    alpha_prev = None
    for i in range(1, n_levels + 1):
        if fresh_complexes is not None:
            f_i = fresh_complexes[i - 1]
            make_acyclic = is_acyclic(f_i)
        else:
            if acyclic_levels is None:
                make_acyclic = rng.random() < 0.5
            else:
                make_acyclic = i in acyclic_levels
            if make_acyclic:
                f_i = random_complex(
                    rng, ring, max_atoms=1, degree_span=degree_span, force_acyclic=True
                ).complex
            else:
                f_i = ChainComplex.build(ring, {rng.randint(0, degree_span): 1}, {})
        flags.append(make_acyclic)
        fresh.append(f_i)
        prev = levels[-1]
        bs = tensor_with_bimodule(prev, s)
        ksum = direct_sum(f_i, prev)
        level = direct_sum(ksum.complex, bs)
        inc_k, inc_bs = level.inclusions
        proj_k, proj_bs = level.projections
        inc_f, inc_b = ksum.inclusions
        r_map = random_chain_map(rng, prev, f_i, 0, bound)
        if i >= 2:
            x_map = tensor_map_with_bimodule(lam_prev, s) @ alpha_prev
        else:
            x_map = GradedMap.zero(prev, bs, 0)
        lam = inc_k @ (inc_f @ r_map + inc_b) + inc_bs @ x_map
        alpha = proj_bs
        ident = GradedMap.identity(level.complex)
        a_twist = inc_k @ random_chain_map(rng, bs, ksum.complex, 0, bound) @ proj_bs
        b_twist = inc_bs @ random_chain_map(rng, ksum.complex, bs, 0, bound) @ proj_k
        theta = (ident + a_twist) @ (ident + b_twist)
        theta_inv = (ident - b_twist) @ (ident - a_twist)
        lam = theta @ lam
        alpha = alpha @ theta_inv
        levels.append(level.complex)
        ascents.append(lam)
        descents.append(alpha)
        lam_prev = lam
        alpha_prev = alpha
    if scramble:
        levels, ascents, descents = conjugate_tower(rng, s, levels, ascents, descents)
    tower = D0Complex.build(s, levels, ascents, descents, n_levels)
    return RandomLadder(tower, tuple(flags), tuple(fresh))


def conjugate_tower(rng: random.Random, s, levels, ascents, descents):
    """Change basis degreewise in every positive level of a tower.

    Conjugation by unimodular matrices hides any block structure the
    construction left behind while preserving every homological and
    splitting property, so generators use it as a final scrambling
    pass.  Level zero is left alone.
    """
    from .diagrams import tensor_map_with_bimodule

    n_levels = len(levels) - 1
    mixed = [levels[0]]
    isos = [GradedMap.identity(levels[0])]
    inv = [GradedMap.identity(levels[0])]
    for old in levels[1:]:
        new, basis, inverses = _conjugated(rng, old)
        mixed.append(new)
        isos.append(GradedMap.build(old, new, 0, basis))
        inv.append(GradedMap.build(new, old, 0, inverses))
    new_ascents = [isos[i + 1] @ ascents[i] @ inv[i] for i in range(n_levels)]
    new_descents = [
        tensor_map_with_bimodule(isos[i - 1], s) @ descents[i - 1] @ inv[i]
        for i in range(1, n_levels + 1)
    ]
    return mixed, new_ascents, new_descents


@record
class RandomKernelTower:
    """A tower all of whose descent kernels are copies of the first level.

    Level n+1 stacks the kernel complex on top of the tensored level
    below it, with a boundary-shaped twist in the corner so the slot
    splittings genuinely fail to commute with the differentials.  The
    ascents are arranged to carry the kernel slot identically across
    levels, which is exactly the shape the splitting derivation needs.
    """

    complex: object
    kernel: ChainComplex


def random_kernel_tower(
    rng: random.Random,
    ring: Ring,
    n_levels: int = 3,
    s_rank: int = 1,
    max_atoms: int = 2,
    degree_span: int = 2,
    bound: int = 1,
    twist: bool = True,
    scramble: bool = True,
    kernel: ChainComplex | None = None,
) -> RandomKernelTower:
    """Reduced tower whose splittings derivation succeeds by construction.

    With twist=False the differentials stay block diagonal, so the
    derived splittings come out as chain maps and every boundary defect
    vanishes.  With twist=True the corner of each differential carries
    an exact boundary, which leaves all homology alone but makes the
    defects nonzero.  scramble hides the block structure afterwards.
    """
    from .diagrams import Bimodule, tensor_map_with_bimodule, tensor_with_bimodule
    from .ladder import D0Complex

    s = Bimodule(ring, s_rank)
    zero = ChainComplex.zero_complex(ring)
    if kernel is None:
        kernel = random_complex(rng, ring, max_atoms=max_atoms, degree_span=degree_span).complex
        while kernel.total_rank == 0:
            kernel = random_complex(
                rng, ring, max_atoms=max_atoms, degree_span=degree_span
            ).complex
    levels = [zero, kernel]
    mus = [GradedMap.zero(zero, kernel, 0)]
    betas = [GradedMap.zero(kernel, tensor_with_bimodule(zero, s), 0)]
    j_map = GradedMap.identity(kernel)
    v_prev = None
    theta_slot_prev = GradedMap.identity(kernel)
    for i in range(1, n_levels):
        base = levels[-1]
        bs = tensor_with_bimodule(base, s)
        if twist:
            v_i = random_graded_map(rng, bs, kernel, 0, bound)
        else:
            v_i = GradedMap.zero(bs, kernel, 0)
        parts = ((kernel, 0), (bs, 0))
        pieces = ((0, 0, kernel._diff_map, False), (0, 1, v_i.leibniz()._block_map, False), (1, 1, bs._diff_map, False))
        level_next = _block_sum(ring, parts, pieces)
        level_next.validate()
        inc_k, theta_slot = _slot(level_next, parts, 0)
        beta_next = _slot(level_next, parts, 1)[1]
        q_i = tensor_map_with_bimodule(mus[-1], s) @ betas[-1]
        if i == 1:
            n_i = GradedMap.identity(kernel)
        else:
            n_i = theta_slot_prev + v_prev @ betas[-1]
        p_i = n_i - v_i @ q_i
        # D0Complex.build below checks that every ascent is a chain map.
        mu_pieces = ((0, 0, p_i._block_map, False), (1, 0, q_i._block_map, False))
        mu_i = _block_map(base, base, level_next, parts, 0, mu_pieces)
        j_map = mu_i @ j_map
        if j_map != inc_k:
            raise AssertionError("ascent moved the kernel slot")
        levels.append(level_next)
        mus.append(mu_i)
        betas.append(beta_next)
        v_prev = v_i
        theta_slot_prev = theta_slot
    if scramble:
        levels, mus, betas = conjugate_tower(rng, s, levels, mus, betas)
    tower = D0Complex.build(s, levels, mus, betas, n_levels)
    return RandomKernelTower(tower, tower.level(1))


def random_single_degree_loop(
    rng: random.Random,
    ring: Ring,
    s_rank: int = 1,
    max_rank: int = 4,
    degree: int = 0,
    lowering: bool = True,
    bound: int = 2,
):
    """Loop object on a complex concentrated in one degree.

    With no differential the chain condition is vacuous, so any matrix
    gives a valid loop; with lowering=True the loop is nilpotent by
    construction.  Returns the loop object from the diagrams module.
    """
    from .diagrams import Bimodule, loop_object, tensor_with_bimodule

    rank = rng.randrange(1, max_rank + 1)
    c = ChainComplex.build(ring, {degree: rank}, {})
    s = Bimodule(ring, s_rank)
    if lowering:
        block = random_module_lowering(rng, ring, rank, s_rank, bound)
    else:
        block = random_matrix(rng, ring, rank * s_rank, rank, bound)
    f = GradedMap.build(c, tensor_with_bimodule(c, s), 0, {degree: block})
    return loop_object(f, s)
