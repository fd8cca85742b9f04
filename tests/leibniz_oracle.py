"""Reference implementations of the Leibniz systems, kept as test oracles.

The functions below are the library's earlier versions, kept verbatim.
leibniz_system assembles the graded differential on degree-`degree`
maps from Kronecker strips joined by hstack and vstack, and returns
(a, var_ns, var_size, eq_ns); graded_map_from_vector, find_null_homotopy
and random_chain_map are built on it.  _BlockSystem, _coeff_left,
_coeff_right, _chain_conditions, _leibniz_matrix and morphism_space are
the tower-side assemblers, where _leibniz_matrix places the boundary of
the family complex with its own grid loop; hom_complex, _unit_probe_iso,
_stack_into and _capped_probe_ses build the family complex on it, and
solve against each kernel basis, with the descent kernels and their
induced ascent from kernel_oracle.  annihilator_exponent sweeps
the divisors of the squared homology exponent, one exact solve per
candidate, with the helper _homology_exponent that reads a second
homology table.  The library now assembles every one of these systems with
one block assembler and one Leibniz function, and finds the annihilator
with one solve; the tests require the results to agree exactly.

_register_family and _compat_conditions are the library's versions from
when every condition was a Kronecker coefficient matrix, on
_coeff_left, _coeff_right and construction_oracle._coeff_tensor_then;
the library now passes each condition as the factors of its terms and
writes them into rows itself.  So hom_complex and morphism_space here
share no assembly code with the library.
"""

from __future__ import annotations

import random
from math import lcm

from chainbench.chains import ChainComplex, GradedMap, homology, shift_unsigned, validate_ses
from chainbench.exact_linalg import (
    Matrix,
    ShapeMismatch,
    kernel_basis,
    kron,
    solve_linear,
    unvec_row_major,
    vec_row_major,
)
from chainbench.fuzz import random_matrix
from chainbench.ladder import (
    D0Complex,
    D0Morphism,
    HomComplex,
    MorphismSpace,
    _climb_column,
    _connecting_matches,
    detect_probe,
    reduction_certificates,
)
from chainbench.orders import (
    AnnihilatorReport,
    _require_integers,
    homology_order,
)
from construction_oracle import _coeff_tensor_then
from kernel_oracle import kernel_complex, kernel_lambda


def leibniz_system(src: ChainComplex, tgt: ChainComplex, degree: int):
    """Matrix of the graded differential acting on degree-`degree` maps.

    Returns (a, var_ns, var_size, eq_ns).  Columns of a correspond to
    the stacked row-major vectorizations of the blocks in var_ns; rows
    to the vectorized blocks of the resulting degree-(degree - 1) map
    in eq_ns.  Kernel vectors of a are precisely the chain conditions,
    and solving a x == vec(f) finds preimages under d.
    """
    ring = src.ring
    ns = list(src.degrees())
    var_size = {n: tgt.rank(n + degree) * src.rank(n) for n in ns}
    active = [n for n in ns if var_size[n] > 0]
    sign = 1 if degree % 2 == 0 else -1
    strips = []
    eq_ns = []
    for n in ns:
        eq_rows = tgt.rank(n + degree - 1) * src.rank(n)
        if eq_rows == 0:
            continue
        if active:
            pieces = []
            for k in active:
                if k == n:
                    pieces.append(kron(tgt.diff(n + degree), Matrix.identity(ring, src.rank(n))))
                elif k == n - 1:
                    blk = kron(
                        Matrix.identity(ring, tgt.rank(n + degree - 1)),
                        src.diff(n).transpose(),
                    )
                    pieces.append(blk.scale(-sign))
                else:
                    pieces.append(Matrix.zero(ring, eq_rows, var_size[k]))
            strip = pieces[0]
            for p in pieces[1:]:
                strip = strip.hstack(p)
        else:
            strip = Matrix.zero(ring, eq_rows, 0)
        strips.append(strip)
        eq_ns.append(n)
    total_vars = sum(var_size[k] for k in active)
    if strips:
        a = strips[0]
        for s in strips[1:]:
            a = a.vstack(s)
    else:
        a = Matrix.zero(ring, 0, total_vars)
    return a, active, var_size, eq_ns


def graded_map_from_vector(src, tgt, degree, active, var_size, x) -> GradedMap:
    """Reassemble a GradedMap from a stacked coefficient column vector."""
    blocks = {}
    offset = 0
    for n in active:
        size = var_size[n]
        blocks[n] = unvec_row_major(
            x.rows_slice(offset, offset + size), tgt.rank(n + degree), src.rank(n)
        )
        offset += size
    return GradedMap.build(src, tgt, degree, blocks)


def find_null_homotopy(f: GradedMap):
    """Solve dH == f for H of degree f.degree + 1, or return None.

    Raises ValueError when df != 0, since dH is always a cycle.
    """
    if not f.leibniz().is_zero():
        raise ValueError("df is nonzero, so no H with dH == f can exist")
    src, tgt, d = f.source, f.target, f.degree
    a, active, var_size, eq_ns = leibniz_system(src, tgt, d + 1)
    if not eq_ns:
        return GradedMap.zero(src, tgt, d + 1)
    rhs = [vec_row_major(f.block(n)) for n in eq_ns]
    b = rhs[0]
    for r in rhs[1:]:
        b = b.vstack(r)
    x = solve_linear(a, b)
    if x is None:
        return None
    h = graded_map_from_vector(src, tgt, d + 1, active, var_size, x)
    if h.leibniz() != f:
        raise AssertionError("solver produced a wrong homotopy")
    return h


def random_chain_map(rng: random.Random, src: ChainComplex, tgt: ChainComplex, degree: int = 0, bound: int = 2) -> GradedMap:
    """Uniformly structured sample from the module of chain maps.

    Takes a random small-coefficient combination of a kernel basis of
    the chain condition, so the result commutes with the boundaries on
    the nose.  Over composite Z/m the kernel may fail to be free; use
    explicit constructions there instead.
    """
    a, active, var_size, _ = leibniz_system(src, tgt, degree)
    if not active:
        return GradedMap.zero(src, tgt, degree)
    k = kernel_basis(a)
    coeffs = random_matrix(rng, src.ring, k.cols, 1, bound)
    return graded_map_from_vector(src, tgt, degree, active, var_size, k @ coeffs)


class _BlockSystem:
    """Assembler for linear conditions on a family of matrix unknowns."""

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
        """Add row_count rows; terms pairs unknown keys with coefficients."""
        if row_count == 0:
            return
        kept = [(k, m) for k, m in terms if k in self.sizes]
        self.row_groups.append((row_count, kept))

    def matrix(self) -> Matrix:
        rows = sum(r for r, _ in self.row_groups)
        z = self.ring.zero
        grid = [[z] * self.total for _ in range(rows)]
        base = 0
        for row_count, kept in self.row_groups:
            for key, coeff in kept:
                off = self.offsets[key]
                for r in range(coeff.rows):
                    row = grid[base + r]
                    for s in range(coeff.cols):
                        v = coeff[r, s]
                        if v != z:
                            row[off + s] = self.ring.normalize(row[off + s] + v)
            base += row_count
        if rows == 0:
            return Matrix.zero(self.ring, 0, self.total)
        return Matrix.from_rows(self.ring, grid)

    def slice_rows(self, stacked: Matrix, key) -> Matrix:
        """Rows of a solution matrix belonging to one unknown block."""
        if key not in self.sizes:
            return Matrix.zero(self.ring, 0, stacked.cols)
        off = self.offsets[key]
        p, t = self.sizes[key]
        return stacked.rows_slice(off, off + p * t)


def _coeff_left(a: Matrix, t: int) -> Matrix:
    """Coefficient of X -> vec(A X) for X with t columns, row-major."""
    return kron(a, Matrix.identity(a.ring, t))


def _coeff_right(b: Matrix, p: int) -> Matrix:
    """Coefficient of X -> vec(X B) for X with p rows, row-major."""
    return kron(Matrix.identity(b.ring, p), b.transpose())


def _register_family(sys_: _BlockSystem, d: D0Complex, c: D0Complex, q: int) -> None:
    for i in range(d.top_index + 1):
        for l in d.level(i).degrees():
            sys_.unknown(("f", i, l), c.level(i).rank(l + q), d.level(i).rank(l))


def _compat_conditions(sys_: _BlockSystem, d: D0Complex, c: D0Complex, q: int) -> None:
    s = d.bimodule.rank
    for i in range(d.top_index):
        lam_d, lam_c = d.lambda_map(i), c.lambda_map(i)
        for l in d.level(i).degrees():
            t = d.level(i).rank(l)
            p1 = c.level(i + 1).rank(l + q)
            if t == 0 or p1 == 0:
                continue
            sys_.condition(
                p1 * t,
                [
                    (("f", i + 1, l), _coeff_right(lam_d.block(l), p1)),
                    (("f", i, l), -_coeff_left(lam_c.block(l + q), t)),
                ],
            )
    for i in range(1, d.top_index + 1):
        alpha_d, alpha_c = d.alpha_map(i), c.alpha_map(i)
        for l in d.level(i).degrees():
            t = d.level(i).rank(l)
            p2 = c.level(i - 1).rank(l + q)
            if t == 0 or p2 == 0:
                continue
            sys_.condition(
                p2 * s * t,
                [
                    (("f", i, l), _coeff_left(alpha_c.block(l + q), t)),
                    (("f", i - 1, l), -_coeff_tensor_then(alpha_d.block(l), p2, s)),
                ],
            )


def _chain_conditions(sys_: _BlockSystem, d: D0Complex, c: D0Complex) -> None:
    for i in range(d.top_index + 1):
        dc, cc = d.level(i), c.level(i)
        for l in dc.degrees():
            t = dc.rank(l)
            p_out = cc.rank(l - 1)
            if t == 0 or p_out == 0:
                continue
            sys_.condition(
                p_out * t,
                [
                    (("f", i, l), _coeff_left(cc.diff(l), t)),
                    (("f", i, l - 1), -_coeff_right(dc.diff(l), p_out)),
                ],
            )


def _leibniz_matrix(sys_q: _BlockSystem, sys_p: _BlockSystem, d: D0Complex, c: D0Complex, q: int) -> Matrix:
    """Matrix of the boundary operator on raw degree-q families."""
    ring = c.bimodule.base
    sign = ring.normalize(-1) if q % 2 == 0 else ring.one
    z = ring.zero
    grid = [[z] * sys_q.total for _ in range(sys_p.total)]

    def place(out_key, in_key, coeff):
        if not (sys_p.has(out_key) and sys_q.has(in_key)) or coeff.is_zero():
            return
        roff = sys_p.offsets[out_key]
        coff = sys_q.offsets[in_key]
        for r in range(coeff.rows):
            row = grid[roff + r]
            for s_ in range(coeff.cols):
                v = coeff[r, s_]
                if v != z:
                    row[coff + s_] = ring.normalize(row[coff + s_] + v)

    for i in range(d.top_index + 1):
        dc, cc = d.level(i), c.level(i)
        for l in dc.degrees():
            t = dc.rank(l)
            p = cc.rank(l + q)
            if t == 0 or p == 0:
                continue
            place(("f", i, l), ("f", i, l), _coeff_left(cc.diff(l + q), t))
            place(
                ("f", i, l + 1),
                ("f", i, l),
                _coeff_right(dc.diff(l + 1), p).scale(sign),
            )
    if sys_p.total == 0 or sys_q.total == 0:
        return Matrix.zero(ring, sys_p.total, sys_q.total)
    return Matrix.from_rows(ring, grid)



def hom_complex(d: D0Complex, c: D0Complex) -> HomComplex:
    if d.bimodule != c.bimodule:
        raise ShapeMismatch("towers must share the bimodule")
    if d.top_index != c.top_index:
        raise ShapeMismatch("towers must have the same length")
    if reduction_certificates(c) is None:
        raise ValueError("descents must be degreewise split surjective")
    ring = c.bimodule.base
    qs = set()
    for i in range(d.top_index + 1):
        for l in d.level(i).degrees():
            for nc in c.level(i).degrees():
                qs.add(nc - l)
    systems = {}
    for q in sorted(qs):
        sys_ = _BlockSystem(ring)
        _register_family(sys_, d, c, q)
        _compat_conditions(sys_, d, c, q)
        systems[q] = (sys_, kernel_basis(sys_.matrix()))
    ranks = {q: k.cols for q, (_, k) in systems.items()}
    diffs = {}
    for q in sorted(qs):
        if q - 1 not in systems:
            continue
        sys_q, kq = systems[q]
        sys_p, kp = systems[q - 1]
        if kq.cols == 0:
            continue
        image = _leibniz_matrix(sys_q, sys_p, d, c, q) @ kq
        if kp.cols == 0:
            if not image.is_zero():
                raise AssertionError("boundary left the compatible families")
            continue
        sol = solve_linear(kp, image)
        if sol is None:
            raise AssertionError("boundary left the compatible families")
        diffs[q] = sol
    hom = ChainComplex.build(ring, ranks, diffs, validate=True)
    kind, m = detect_probe(d)
    kernel = to_kernel = from_kernel = None
    sub_kernel = ses = connecting = None
    if kind == "g_m":
        kernel = kernel_complex(c, m)
        to_kernel, from_kernel = _unit_probe_iso(systems, hom, c, m, kernel)
    elif kind == "g_m_cone":
        kernel = kernel_complex(c, m)
        sub_kernel = kernel_complex(c, m + 1)
        ses = _capped_probe_ses(systems, hom, c, m, kernel, sub_kernel)
        lam_tilde = kernel_lambda(c, m, kernel, sub_kernel)
        connecting = _connecting_matches(ses, kernel, sub_kernel, lam_tilde)
    return HomComplex(
        hom, kind, m, kernel, to_kernel, from_kernel, sub_kernel, ses, connecting
    )


def _unit_probe_iso(systems, hom, c, m, kernel):
    """Mutually inverse chain maps between the family complex and Ker(alpha_m)."""
    ring = c.bimodule.base
    to_blocks, from_blocks = {}, {}
    for q, (sys_q, kq) in systems.items():
        dim = kq.cols
        kdim = kernel.complex.rank(q)
        if dim != kdim:
            raise AssertionError("family complex rank differs from the kernel rank")
        if dim == 0:
            continue
        evaluated = sys_q.slice_rows(kq, ("f", m, 0))
        x = solve_linear(kernel.inclusion.block(q), evaluated)
        if x is None:
            raise AssertionError("unit evaluation escaped the descent kernel")
        to_blocks[q] = x
        raw = Matrix.zero(ring, sys_q.total, kdim)
        climbed = _climb_column(c, m, q, kernel.inclusion.block(q))
        raw = _stack_into(sys_q, raw, {("f", i, 0): mat for i, mat in climbed.items()})
        y = solve_linear(kq, raw)
        if y is None:
            raise AssertionError("kernel family failed the compatibility conditions")
        from_blocks[q] = y
    to_kernel = GradedMap.build(hom, kernel.complex, 0, to_blocks)
    from_kernel = GradedMap.build(kernel.complex, hom, 0, from_blocks)
    if not to_kernel.is_chain_map() or not from_kernel.is_chain_map():
        raise AssertionError("kernel identification failed to be a chain map")
    if (to_kernel @ from_kernel) != GradedMap.identity(kernel.complex):
        raise AssertionError("kernel identification is not a retraction")
    if (from_kernel @ to_kernel) != GradedMap.identity(hom):
        raise AssertionError("kernel identification is not a section")
    return to_kernel, from_kernel


def _stack_into(sys_, raw: Matrix, placements) -> Matrix:
    """Overwrite unknown-block row slices of a raw-coordinate matrix."""
    rows = [list(r) for r in raw.entries]
    for key, mat in placements.items():
        if not sys_.has(key):
            if not mat.is_zero():
                raise AssertionError("placement targets an absent unknown block")
            continue
        off = sys_.offsets[key]
        p, t = sys_.sizes[key]
        if mat.rows != p * t:
            raise AssertionError("placement shape mismatch")
        for r in range(mat.rows):
            for s_ in range(mat.cols):
                rows[off + r][s_] = mat[r, s_]
    return Matrix.from_rows(raw.ring, rows)


def _capped_probe_ses(systems, hom, c, m, kernel, sub_kernel):
    """Short exact sequence around the capped-probe family complex."""
    ring = c.bimodule.base
    sub_shift = shift_unsigned(sub_kernel.complex, -1)
    i_blocks, p_blocks = {}, {}
    for q, (sys_q, kq) in systems.items():
        dim = kq.cols
        if dim:
            evaluated = sys_q.slice_rows(kq, ("f", m, 0))
            x = solve_linear(kernel.inclusion.block(q), evaluated)
            if x is None:
                raise AssertionError("unit evaluation escaped the descent kernel")
            p_blocks[q] = x
        kdim = sub_kernel.complex.rank(q + 1)
        if dim == 0 or kdim == 0:
            continue
        raw = Matrix.zero(ring, sys_q.total, kdim)
        climbed = _climb_column(c, m + 1, q + 1, sub_kernel.inclusion.block(q + 1))
        raw = _stack_into(sys_q, raw, {("f", i, 1): mat for i, mat in climbed.items()})
        y = solve_linear(kq, raw)
        if y is None:
            raise AssertionError("capped-slot family failed the compatibility conditions")
        i_blocks[q] = y
    i_map = GradedMap.build(sub_shift, hom, 0, i_blocks)
    pi_map = GradedMap.build(hom, kernel.complex, 0, p_blocks)
    if not i_map.is_chain_map() or not pi_map.is_chain_map():
        raise AssertionError("sequence maps failed to be chain maps")
    return validate_ses(i_map, pi_map)

def morphism_space(d: D0Complex, c: D0Complex) -> MorphismSpace:
    """All degree-0 tower morphisms, as an exact kernel computation."""
    if d.bimodule != c.bimodule:
        raise ShapeMismatch("towers must share the bimodule")
    if d.top_index != c.top_index:
        raise ShapeMismatch("towers must have the same length")
    ring = d.bimodule.base
    sys_ = _BlockSystem(ring)
    _register_family(sys_, d, c, 0)
    _compat_conditions(sys_, d, c, 0)
    _chain_conditions(sys_, d, c)
    k = kernel_basis(sys_.matrix())
    basis = []
    for col in range(k.cols):
        vec = k.cols_slice(col, col + 1)
        components = []
        for i in range(d.top_index + 1):
            blocks = {}
            for l in d.level(i).degrees():
                key = ("f", i, l)
                if not sys_.has(key):
                    continue
                p, t = sys_.sizes[key]
                chunk = sys_.slice_rows(vec, key)
                rows = [
                    [chunk[r * t + s_, 0] for s_ in range(t)] for r in range(p)
                ]
                blocks[l] = Matrix.from_rows(ring, rows)
            components.append(GradedMap.build(d.level(i), c.level(i), 0, blocks))
        basis.append(D0Morphism.build(d, c, components))
    return MorphismSpace(k.cols, tuple(basis))


def _sorted_divisors(n: int) -> list:
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f * f != n:
                large.append(n // f)
        f += 1
    large.reverse()
    return small + large


def _homology_exponent(c: ChainComplex) -> int:
    """Least positive integer killing every homology group."""
    e = 1
    for s in homology(c).values():
        for t in s.torsion:
            e = lcm(e, t)
    return e


def annihilator_exponent(c: ChainComplex) -> AnnihilatorReport:
    """Search for the least multiple of the identity that bounds.

    Any N that works is a multiple of the homology exponent e, and the
    annihilating multiples form an ideal whose generator divides e
    squared, so sweeping the divisors of e squared in increasing order
    finds the minimum.  Each candidate is decided by an exact solve.
    """
    _require_integers(c)
    if not homology_order(c).finite:
        return AnnihilatorReport(None, None)
    e = _homology_exponent(c)
    for n in _sorted_divisors(e * e):
        witness = find_null_homotopy(GradedMap.identity(c).scale(n))
        if witness is not None:
            return AnnihilatorReport(n, witness)
    raise AssertionError(
        "no divisor of the squared homology exponent annihilates the complex"
    )
