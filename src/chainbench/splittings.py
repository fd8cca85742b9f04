"""Compatible splittings of a tower pair and the homotopy calculus on them.

Given a probe tower A with split ascents and a target tower B whose
descents split degreewise and whose descent kernels are all carried
onto each other by the ascents, every level splits in two compatible
ways: A-levels into the previous level plus a quotient, B-levels into
a fixed kernel complex K plus the tensored level below.  The chosen
splittings are not chain maps; their failure to commute with the
boundaries is measured by two degree minus-one families, phi on the
A side and delta on the B side, and everything downstream is built
from those.

The calculus proceeds in three stages.  The T operators contract
iterated tensor factors of K through the sigma splittings and end in
delta; they satisfy a quadratic differential relation.  Maps F from
the assembled total space of A into K correspond bijectively to
levelwise families A_n -> B_n, and under that correspondence the
levelwise boundary becomes a twisted differential on F built from the
T operators.  Finally, when the total space is contractible, the
twisted differential is inverted by an explicit finite series, giving
an exact preimage for every cycle.

All identities here are exact matrix equations, checked eagerly; no
approximation or genericity assumption enters anywhere.
"""

from __future__ import annotations

from itertools import product

from ._record import record
from .exact_linalg import Matrix, ShapeMismatch, inverse
from .chains import ChainComplex, GradedMap, _block_map, _block_sum, _slot, find_contraction
from .diagrams import Bimodule, tensor_map_with_bimodule, tensor_with_bimodule
from .ladder import D0Complex, reduction_certificates


def tensor_power(c: ChainComplex, s: Bimodule, i: int) -> ChainComplex:
    """The complex c (x) S^i, in one step: S^i is free of rank s.rank ** i."""
    if i == 0:
        return c
    return tensor_with_bimodule(c, Bimodule(s.base, s.rank ** i))


def tensor_power_map(f: GradedMap, s: Bimodule, i: int) -> GradedMap:
    """The map f (x) id on i extra tensor factors of the bimodule."""
    if i == 0:
        return f
    return tensor_map_with_bimodule(f, Bimodule(s.base, s.rank ** i))


@record
class TotalSpace:
    """The probe tower assembled into one complex of stacked quotients.

    complex carries the quotient slots C_1..C_N with the boundary
    transported from the top level through the assembly isomorphism.
    lambda_inf[n-1] includes level n, alpha_total is the transported
    descent (nilpotent of the recorded order, with successive powers
    precomputed), and contraction is a homotopy inverse of the
    identity when the total space is contractible, else None.
    inclusions and projections are the degreewise slot maps; they are
    not chain maps because the transported boundary mixes slots.
    """

    complex: ChainComplex
    assembly: GradedMap
    lambda_inf: tuple
    alpha_total: GradedMap
    alpha_powers: tuple
    nilpotency: int
    contraction: object
    inclusions: tuple
    projections: tuple

    def alpha_power(self, i: int) -> GradedMap | None:
        """The i-fold descent composite, or None once it has vanished."""
        if i < 1:
            raise ValueError("power index starts at one")
        if i > len(self.alpha_powers):
            return None
        return self.alpha_powers[i - 1]


@record
class SplittingData:
    """All chosen splittings for one probe/target tower pair.

    Indexing is by tower level (1-based, level 0 is the zero base).
    The A side stores quotients C_n with projections pi_n, sections
    v_n, retractions u_{n-1} of the ascents, and boundary defects
    phi_n = d(u_{n-1}) v_n.  The B side stores kernel inclusions j_n,
    kernel retractions theta_n, descent sections sigma_n, and boundary
    defects delta_n = d(theta_{n+1}) sigma_{n+1}.  The split-exactness
    identities, the compatibility theta_{n+1} mu_n = theta_n, and the
    four boundary identities are all verified exactly on construction.
    """

    probe: D0Complex
    target: D0Complex
    kernel: ChainComplex
    quotients: tuple
    pis: tuple
    vs: tuple
    us: tuple
    phis: tuple
    js: tuple
    thetas: tuple
    sigmas: tuple
    deltas: tuple
    total: TotalSpace

    @property
    def top_index(self) -> int:
        return self.probe.top_index

    def quotient(self, n: int) -> ChainComplex:
        return self.quotients[n - 1]

    def pi_map(self, n: int) -> GradedMap:
        return self.pis[n - 1]

    def v_map(self, n: int) -> GradedMap:
        return self.vs[n - 1]

    def u_map(self, n: int) -> GradedMap:
        """Retraction of the ascent out of level n (valid for 0 <= n < N)."""
        return self.us[n]

    def phi_map(self, n: int) -> GradedMap:
        return self.phis[n - 1]

    def j_map(self, n: int) -> GradedMap:
        return self.js[n - 1]

    def theta_map(self, n: int) -> GradedMap:
        return self.thetas[n - 1]

    def sigma_map(self, n: int) -> GradedMap:
        return self.sigmas[n - 1]

    def delta_map(self, n: int) -> GradedMap:
        """Boundary defect out of level n+1 (valid for 0 <= n < N)."""
        return self.deltas[n]

    def lambda_map(self, n: int) -> GradedMap:
        return self.probe.lambda_map(n)

    def alpha_map(self, n: int) -> GradedMap:
        return self.probe.alpha_map(n)


def _ascent_splitting(tower: D0Complex, n: int):
    """Per-degree (retraction, complement, projection) of ascent n, complete."""
    lam = tower.lambda_map(n)
    ring = tower.bimodule.base
    stored = tower.ascent_witness(n)
    if stored is None:
        raise ValueError(f"ascent {n} carries no splitting witness")
    out = {}
    for deg in lam.target.degrees():
        t = lam.target.rank(deg)
        if deg in stored:
            out[deg] = stored[deg]
        else:
            out[deg] = (
                Matrix.zero(ring, lam.source.rank(deg), t),
                Matrix.identity(ring, t),
                Matrix.identity(ring, t),
            )
    return out


def _probe_side(a: D0Complex):
    """Quotient complexes and the u, v, pi, phi families for the probe."""
    ring = a.bimodule.base
    quotients, pis, vs, us, phis = [], [], [], [], []
    for n in range(a.top_index):
        lam = a.lambda_map(n)
        split = _ascent_splitting(a, n)
        tgt = lam.target
        ranks = {deg: split[deg][1].cols for deg in tgt.degrees()}
        v_blocks = {deg: split[deg][1] for deg in tgt.degrees()}
        p_blocks = {deg: split[deg][2] for deg in tgt.degrees()}
        u_blocks = {deg: split[deg][0] for deg in tgt.degrees()}
        diffs = {}
        for deg in tgt.degrees():
            rows = ranks.get(deg - 1, 0)
            cols = ranks.get(deg, 0)
            if rows and cols:
                diffs[deg] = p_blocks[deg - 1] @ tgt.diff(deg) @ v_blocks[deg]
        quot = ChainComplex.build(ring, ranks, diffs, validate=True)
        v = GradedMap.build(quot, tgt, 0, v_blocks)
        pi = GradedMap.build(tgt, quot, 0, p_blocks)
        u = GradedMap.build(tgt, lam.source, 0, u_blocks)
        if not pi.is_chain_map():
            raise AssertionError("quotient projection failed to be a chain map")
        quotients.append(quot)
        pis.append(pi)
        vs.append(v)
        us.append(u)
        phis.append(u.leibniz() @ v)
    return tuple(quotients), tuple(pis), tuple(vs), tuple(us), tuple(phis)


def _target_side(b: D0Complex):
    """Kernel inclusions j, retractions theta, sections sigma, defects delta.

    Each sigma corrects the degreewise descent section that
    ladder.reduction_certificates solves for; _verify_splittings checks them.
    """
    s = b.bimodule
    sections = reduction_certificates(b)
    if sections is None:
        raise ValueError("target descents must be degreewise split surjective")
    kernel = b.level(1)
    js = [GradedMap.identity(kernel)]
    sigmas = [GradedMap.zero(tensor_with_bimodule(b.level(0), s), b.level(1), 0)]
    thetas = [GradedMap.identity(kernel)]
    for n in range(1, b.top_index):
        beta_next = b.alpha_map(n + 1)
        level_next = b.level(n + 1)
        j_next = b.lambda_map(n) @ js[-1]
        if not (beta_next @ j_next).is_zero():
            raise ValueError("kernel-stable targets required")
        sigma_prime = sections[n]
        mu_prev_s = tensor_power_map(b.lambda_map(n - 1), s, 1)
        witness = _ascent_splitting(b, n - 1)
        r_blocks = {deg: r for deg, (r, _, _) in witness.items()}
        retraction = GradedMap.build(b.level(n), b.level(n - 1), 0, r_blocks)
        big_r = tensor_power_map(retraction, s, 1)
        ident = GradedMap.identity(beta_next.target)
        sigma_next = (b.lambda_map(n) @ sigmas[-1] @ big_r) + (
            sigma_prime @ (ident - (mu_prev_s @ big_r))
        )
        theta_blocks = {}
        for deg in level_next.degrees():
            jb = j_next.block(deg)
            sb = sigma_next.block(deg)
            if jb.cols + sb.cols != level_next.rank(deg):
                raise ValueError("kernel-stable targets required")
            square = jb.hstack(sb)
            inv = inverse(square)
            if inv is None:
                raise ValueError("kernel-stable targets required")
            theta_blocks[deg] = inv.rows_slice(0, jb.cols)
        theta_next = GradedMap.build(level_next, kernel, 0, theta_blocks)
        js.append(j_next)
        sigmas.append(sigma_next)
        thetas.append(theta_next)
    deltas = [GradedMap.zero(tensor_with_bimodule(b.level(0), s), kernel, -1)]
    for n in range(1, b.top_index):
        deltas.append(thetas[n].leibniz() @ sigmas[n])
    return kernel, tuple(js), tuple(thetas), tuple(sigmas), tuple(deltas)


def _assemble_total(a: D0Complex, quotients, vs):
    """Stack the quotients and transport the top level's structure onto them."""
    ring = a.bimodule.base
    s = a.bimodule
    top = a.top_index
    top_level = a.level(top)
    chains_up = []
    for k in range(1, top + 1):
        acc = GradedMap.identity(a.level(k))
        for i in range(k, top):
            acc = a.lambda_map(i) @ acc
        chains_up.append(acc)
    columns = []
    for k in range(1, top + 1):
        v_k = (
            GradedMap.identity(a.level(1))
            if k == 1
            else vs[k - 1]
        )
        columns.append(chains_up[k - 1] @ v_k)
    # The quotients' own boundaries are not pieces: the total's boundary
    # is the top level's, transported through the assembly below.
    parts = tuple((col.source, 0) for col in columns)
    stacked = _block_sum(ring, parts, ())
    pieces = tuple((0, k, col._block_map, False) for k, col in enumerate(columns))
    phi = _block_map(stacked, parts, top_level, top_level, 0, pieces)
    degrees = sorted(set(top_level.degrees()) | set(stacked.degrees()))
    phi_inv, diffs = {}, {}
    for deg in degrees:
        if stacked.rank(deg) != top_level.rank(deg):
            raise AssertionError("stacked quotients do not fill the top level")
        phi_inv[deg] = inverse(phi.block(deg))
        if phi_inv[deg] is None:
            raise AssertionError("quotient assembly is not invertible")
        if deg - 1 in phi_inv:
            diffs[deg] = phi_inv[deg - 1] @ top_level.diff(deg) @ phi.block(deg)
    total = ChainComplex.build(ring, stacked.ranks, diffs, validate=True)
    assembly = GradedMap.build(total, top_level, 0, phi.blocks)
    if not assembly.is_chain_map():
        raise AssertionError("assembly failed to be a chain map")
    lambda_inf = []
    for k in range(1, top + 1):
        blocks = {
            deg: phi_inv[deg] @ chains_up[k - 1].block(deg)
            for deg in a.level(k).degrees()
            if deg in phi_inv
        }
        f = GradedMap.build(a.level(k), total, 0, blocks)
        if not f.is_chain_map():
            raise AssertionError("level inclusion into the total space broke")
        lambda_inf.append(f)
    inv_map = GradedMap.build(top_level, total, 0, phi_inv)
    alpha_total = (
        tensor_power_map(inv_map, s, 1)
        @ tensor_power_map(a.lambda_map(top - 1), s, 1)
        @ a.alpha_map(top)
        @ assembly
    )
    if not alpha_total.is_chain_map():
        raise AssertionError("transported descent failed to be a chain map")
    for n in range(1, top + 1):
        lhs = alpha_total @ lambda_inf[n - 1]
        low = (
            tensor_power_map(lambda_inf[n - 2], s, 1) @ a.alpha_map(n)
            if n >= 2
            else GradedMap.zero(a.level(1), tensor_with_bimodule(total, s), 0)
        )
        if lhs != low:
            raise AssertionError("transported descent disagrees with the tower descent")
    powers = []
    acc = alpha_total
    while not acc.is_zero():
        powers.append(acc)
        if len(powers) > top + 1:
            raise AssertionError("transported descent is not nilpotent within the bound")
        acc = tensor_power_map(alpha_total, s, len(powers)) @ acc
    nilpotency = len(powers) + 1
    slots = [_slot(total, parts, k) for k in range(len(parts))]
    return TotalSpace(
        total,
        assembly,
        tuple(lambda_inf),
        alpha_total,
        tuple(powers),
        nilpotency,
        find_contraction(total),
        tuple(inc for inc, _ in slots),
        tuple(prj for _, prj in slots),
    )


def _verify_splittings(s: SplittingData) -> None:
    a, b = s.probe, s.target
    top = s.top_index
    for n in range(top):
        lam = a.lambda_map(n)
        ident_src = GradedMap.identity(lam.source)
        ident_tgt = GradedMap.identity(lam.target)
        if s.u_map(n) @ lam != ident_src:
            raise AssertionError(f"u is not a retraction of the ascent at {n}")
        if s.pi_map(n + 1) @ s.v_map(n + 1) != GradedMap.identity(s.quotient(n + 1)):
            raise AssertionError(f"v is not a section of the projection at {n + 1}")
        if (lam @ s.u_map(n)) + (s.v_map(n + 1) @ s.pi_map(n + 1)) != ident_tgt:
            raise AssertionError(f"the A-side splitting does not sum to one at {n + 1}")
        if s.u_map(n).leibniz() != s.phi_map(n + 1) @ s.pi_map(n + 1):
            raise AssertionError(f"du differs from phi pi at {n}")
        if s.v_map(n + 1).leibniz() != (lam @ s.phi_map(n + 1)).scale(-1):
            raise AssertionError(f"dv differs from -lambda phi at {n + 1}")
    for n in range(1, top + 1):
        ident_k = GradedMap.identity(s.kernel)
        ident_b = GradedMap.identity(b.level(n))
        if s.theta_map(n) @ s.j_map(n) != ident_k:
            raise AssertionError(f"theta is not a retraction of j at {n}")
        beta = b.alpha_map(n)
        if beta @ s.sigma_map(n) != GradedMap.identity(beta.target):
            raise AssertionError(f"sigma is not a section of the descent at {n}")
        if (s.j_map(n) @ s.theta_map(n)) + (s.sigma_map(n) @ beta) != ident_b:
            raise AssertionError(f"the B-side splitting does not sum to one at {n}")
        if not (s.theta_map(n) @ s.sigma_map(n)).is_zero():
            raise AssertionError(f"theta does not kill sigma at {n}")
        if s.theta_map(n).leibniz() != s.delta_map(n - 1) @ beta:
            raise AssertionError(f"d theta differs from delta beta at {n}")
        if s.sigma_map(n).leibniz() != (s.j_map(n) @ s.delta_map(n - 1)).scale(-1):
            raise AssertionError(f"d sigma differs from -j delta at {n}")
    for n in range(1, top):
        if s.theta_map(n + 1) @ b.lambda_map(n) != s.theta_map(n):
            raise AssertionError(f"theta is not compatible with the ascent at {n}")


def derive_splittings(a: D0Complex, b: D0Complex) -> SplittingData:
    """Choose compatible splittings for the pair deterministically.

    The probe's ascent witnesses supply the A-side splittings; the
    target's descent sections are solved degreewise and then corrected
    level by level so the kernel retractions are carried into each
    other by the ascents.  Fails when the target's levels are not
    kernel plus tensored-lower-level shaped, since then no common
    kernel complex exists.
    """
    if a.bimodule != b.bimodule:
        raise ShapeMismatch("towers must share the bimodule")
    if a.top_index != b.top_index:
        raise ShapeMismatch("towers must have the same length")
    if a.top_index < 1:
        raise ValueError("need at least one positive level")
    quotients, pis, vs, us, phis = _probe_side(a)
    kernel, js, thetas, sigmas, deltas = _target_side(b)
    total = _assemble_total(a, quotients, vs)
    data = SplittingData(
        a, b, kernel, quotients, pis, vs, us, phis, js, thetas, sigmas, deltas, total
    )
    _verify_splittings(data)
    return data


@record
class TOperator:
    """One contraction operator K (x) S^{p+1} -> K of degree minus one."""

    index: int
    map: GradedMap


def t_operator(s: SplittingData, p: int) -> TOperator:
    """Contract p+1 tensor factors through sigma splittings into delta.

    Returns the zero operator when the ladder runs out of levels.  The
    composite is computed at level one; when level two is available the
    computation is repeated there and the two results are asserted
    equal, which is the level-independence this operator relies on.
    """
    if p < 0:
        raise ValueError("operator index must be nonnegative")
    bim = s.probe.bimodule
    src = tensor_power(s.kernel, bim, p + 1)
    built = _t_at_level(s, p, 1, src)
    if built is None:
        return TOperator(p, GradedMap.zero(src, s.kernel, -1))
    check = _t_at_level(s, p, 2, src)
    if check is not None and built != check:
        raise AssertionError("contraction operator depends on the level")
    return TOperator(p, built)


def _t_at_level(s, p, n, src):
    if n + p > s.top_index - 1:
        return None
    bim = s.probe.bimodule
    acc = tensor_power_map(s.j_map(n), bim, p + 1)
    for k in range(1, p + 1):
        acc = tensor_power_map(s.sigma_map(n + k), bim, p + 1 - k) @ acc
    out = s.delta_map(n + p) @ acc
    if out.source != src:
        raise AssertionError("contraction operator has the wrong domain")
    return out


def t_differential_holds(s: SplittingData, p: int) -> bool:
    """Check dT_p against the quadratic sum of lower operators, exactly.

    The identity is a statement about the genuine operator, so the
    tower must be tall enough to express it: index p needs top level
    p + 2.  Beyond that t_operator only returns the zero stub, and
    comparing the stub against the sum would refute nothing.
    """
    if p > s.top_index - 2:
        raise ValueError("tower too short to express the operator differential")
    bim = s.probe.bimodule
    lhs = t_operator(s, p).map.leibniz()
    rhs = GradedMap.zero(lhs.source, lhs.target, lhs.degree)
    for i in range(p):
        j = p - 1 - i
        rhs = rhs + (t_operator(s, i).map @ tensor_power_map(t_operator(s, j).map, bim, i + 1))
    return lhs == rhs


def _coordinates(s: SplittingData, F: GradedMap):
    """Slot restrictions f_n = F iota_n of a map from the total space."""
    return tuple(F @ inc for inc in s.total.inclusions)


def fhat_from_F(s: SplittingData, F: GradedMap):
    """Levelwise family built from a map on the total space.

    Each level map sums over descent routes: descend from level n to
    some level k, include the tensored kernel image of F there, and
    climb back up through the sigma sections.  The output is verified
    against the one-step recursion before being returned.
    """
    if F.source != s.total.complex or F.target != s.kernel:
        raise ShapeMismatch("map must go from the total space to the kernel")
    bim = s.probe.bimodule
    top = s.top_index
    fams = []
    for n in range(1, top + 1):
        out = GradedMap.zero(s.probe.level(n), s.target.level(n), F.degree)
        for k in range(1, n + 1):
            extra = n - k
            descend = GradedMap.identity(s.probe.level(n))
            for i in range(n, k, -1):
                descend = tensor_power_map(s.alpha_map(i), bim, n - i) @ descend
            route = tensor_power_map(s.total.lambda_inf[k - 1], bim, extra) @ descend
            route = tensor_power_map(F, bim, extra) @ route
            route = tensor_power_map(s.j_map(k), bim, extra) @ route
            for i in range(k + 1, n + 1):
                route = tensor_power_map(s.sigma_map(i), bim, n - i) @ route
            out = out + route
        fams.append(out)
    coords = _coordinates(s, F)
    for n in range(1, top):
        recursion = (
            s.j_map(n + 1) @ s.theta_map(n) @ fams[n - 1] @ s.u_map(n)
            + s.sigma_map(n + 1) @ tensor_power_map(fams[n - 1], bim, 1) @ s.alpha_map(n + 1)
            + s.j_map(n + 1) @ coords[n] @ s.pi_map(n + 1)
        )
        if fams[n] != recursion:
            raise AssertionError(f"closed formula disagrees with the recursion at {n + 1}")
    base = s.j_map(1) @ F @ s.total.lambda_inf[0]
    if fams[0] != base:
        raise AssertionError("closed formula disagrees with the base case")
    return tuple(fams)


def F_from_fhat(s: SplittingData, fams) -> GradedMap:
    """Reassemble a total-space map from a levelwise family."""
    fams = tuple(fams)
    if len(fams) != s.top_index:
        raise ShapeMismatch("need one family member per positive level")
    degree = fams[0].degree
    coords = [s.theta_map(1) @ fams[0]]
    for n in range(1, s.top_index):
        coords.append(
            s.theta_map(n + 1) @ fams[n] @ s.v_map(n + 1)
            - s.theta_map(n) @ fams[n - 1] @ s.u_map(n) @ s.v_map(n + 1)
        )
    out = GradedMap.zero(s.total.complex, s.kernel, degree)
    for n, c in enumerate(coords):
        out = out + c @ s.total.projections[n]
    return out


def delta_differential(s: SplittingData, F: GradedMap) -> GradedMap:
    """The twisted differential on maps out of the total space.

    Subtracts from the plain boundary every contraction of F through
    the T operators against powers of the transported descent; the
    sums are finite because both families vanish beyond the tower
    bounds.
    """
    if F.source != s.total.complex or F.target != s.kernel:
        raise ShapeMismatch("map must go from the total space to the kernel")
    bim = s.probe.bimodule
    out = F.leibniz()
    for i in range(s.top_index - 1):
        power = s.total.alpha_power(i + 1)
        if power is None:
            break
        t_i = t_operator(s, i).map
        if t_i.is_zero():
            continue
        out = out - (t_i @ tensor_power_map(F, bim, i + 1) @ power)
    return out


def inversion_sign(p: int, degree: int) -> int:
    """Sign carried by every series term with p contraction factors."""
    return -1 if ((p + 1) * degree) % 2 else 1


def invert_homotopy(s: SplittingData, t: TotalSpace, F: GradedMap) -> GradedMap:
    """Exact preimage of a cycle under the twisted differential.

    Runs the finite alternating series of contraction chains against
    the total-space contraction.  Requires the input to be a cycle and
    the total space to be contractible; verifies the output maps back
    to the input exactly before returning it.
    """
    if not delta_differential(s, F).is_zero():
        raise ValueError("input is not a cycle for the twisted differential")
    k = t.contraction
    if k is None:
        raise ValueError("total space is not contractible")
    bim = s.probe.bimodule
    span = t.complex.max_degree - t.complex.min_degree if t.complex.total_rank else 0
    i_max = s.top_index - 2
    out = GradedMap.zero(t.complex, s.kernel, F.degree + 1)
    for p in range(span + 1):
        layer = _inversion_layer(s, t, F, k, p, i_max, bim)
        if p <= span - 1:
            out = out + layer
        elif not layer.is_zero():
            raise AssertionError("inversion series failed to terminate")
    result = delta_differential(s, out)
    if result != F:
        raise AssertionError("inversion did not invert the twisted differential")
    return out


def _inversion_layer(s, t, F, k, p, i_max, bim):
    sign = inversion_sign(p, F.degree)
    total = GradedMap.zero(t.complex, s.kernel, F.degree + 1)
    if p == 0:
        term = F @ k
        return term.scale(sign) if sign < 0 else term
    if i_max < 0:
        return total
    for indices in product(range(i_max + 1), repeat=p):
        acc = k
        passengers = 0
        skip = False
        for i in reversed(indices):
            power = t.alpha_power(i + 1)
            if power is None:
                skip = True
                break
            acc = tensor_power_map(power, bim, passengers) @ acc
            passengers += i + 1
            acc = tensor_power_map(k, bim, passengers) @ acc
        if skip:
            continue
        acc = tensor_power_map(F, bim, passengers) @ acc
        for i in indices:
            passengers -= i + 1
            acc = tensor_power_map(t_operator(s, i).map, bim, passengers) @ acc
        total = total + acc
    return total.scale(sign) if sign < 0 else total
