"""Every block construction against its zero-padded original.

construction_oracle keeps the constructions as they were built before
exact_linalg.block_matrix assembled them.  On seeded fuzz inputs over
Z, Q, Z/3 and Z/4 the library must return value objects equal to the
oracle's, and the seeded fuzz generators that assemble blocks must
reproduce the outputs recorded before the change.  A sha256 over the
reprs of 540 seeded cones, cylinders, direct sums, rotations,
pushouts, exact-square totals and check_an_local reports pins every
sum-shaped construction as it was before chains._block_sum laid them
out.  exact_square_total
must also equal, by repr, construction_oracle.exact_square_total_by_cones,
the direct sum and two cones it replaced.  A second sha256 pins seeded
tower sums, splitting totals, kernel towers and loop sums as they were
before chains._block_map placed their maps, and d0_direct_sum and
dcomplex_direct_sum must equal, by repr, the compositional routes they
replaced.

chains._BlockSystem takes each term of a condition as the factors of
X -> a @ X @ b and writes them into rows itself; a derandomized
property test requires its matrix to equal, by repr, the one that
leibniz_oracle._BlockSystem assembles from Kronecker coefficients.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import construction_oracle as oracle
import leibniz_oracle as oracle_leibniz
import snf_oracle
from chainbench import exact_linalg
from chainbench.chains import (
    ChainComplex,
    GradedMap,
    _BlockSystem,
    _cone_complex,
    cone,
    cylinder,
    direct_sum,
    pushout_along_cofibration,
    rotate_ses,
    validate_ses,
)
from chainbench.exact_linalg import QQ, ZZ, Matrix, ShapeMismatch, Zmod
from chainbench.fuzz import (
    random_chain_map,
    random_complex,
    random_extension,
    random_kernel_tower,
    random_matrix,
    random_null_homotopic,
    random_reduced_ladder,
)
from chainbench.diagrams import Bimodule, dcomplex_direct_sum, loop_object, tensor_with_bimodule
from chainbench.fuzz import random_single_degree_loop
from chainbench.ladder import D0Complex, check_an_local, d0_direct_sum, exact_square_total
from chainbench.splittings import derive_splittings

RINGS = (ZZ, QQ, Zmod(3), Zmod(4))


def _small(rng, ring):
    return random_complex(rng, ring, max_atoms=2, degree_span=2).complex


def _chain_maps(rng, a, b):
    """Degree-0 chain maps a -> b that exist over every ring."""
    maps = [random_null_homotopic(rng, a, b, 0)[0]]
    if a.ring.kind == "Z" or a.ring.is_field():
        maps.append(random_chain_map(rng, a, b, 0))
    return maps


def test_constructions_match_oracle():
    counts = dict.fromkeys(("direct_sum", "cone", "cylinder", "pushout", "rotate"), 0)
    for index, ring in enumerate(RINGS):
        rng = random.Random(8100 + index)
        for _ in range(6):
            a, b, c = _small(rng, ring), _small(rng, ring), _small(rng, ring)
            for parts in ((a,), (a, b), (a, b, c), (b, ChainComplex.zero_complex(ring), b)):
                assert direct_sum(*parts) == oracle.direct_sum(*parts)
                counts["direct_sum"] += 1
            ext = random_extension(rng, a, b)
            maps = [GradedMap.identity(a), ext.incl, ext.proj] + _chain_maps(rng, a, c)
            for f in maps:
                assert cone(f) == oracle.cone(f)
                assert cylinder(f) == oracle.cylinder(f)
                counts["cone"] += 1
                counts["cylinder"] += 1
            for g in [GradedMap.identity(a)] + _chain_maps(rng, a, c):
                got = pushout_along_cofibration(ext.incl, g)
                assert got == oracle.pushout_along_cofibration(ext.incl, g)
                counts["pushout"] += 1
            ses = validate_ses(ext.incl, ext.proj)
            assert rotate_ses(ses) == oracle.rotate_ses(ses)
            counts["rotate"] += 1
    assert min(counts.values()) >= 24, counts


def test_exact_square_total_matches_oracle():
    compared = 0
    for index, ring in enumerate(RINGS):
        for seed in range(3):
            rng = random.Random(8200 + 10 * index + seed)
            towers = (
                random_reduced_ladder(rng, ring).complex,
                random_kernel_tower(rng, ring, s_rank=1 + seed % 2).complex,
            )
            for tower in towers:
                for m in range(1, tower.top_index):
                    assert exact_square_total(tower, m) == oracle.exact_square_total(tower, m)
                    compared += 1
    assert compared >= 24


def test_exact_square_total_matches_the_cone_route():
    """One block matrix per degree against the direct sum and two cones,
    by repr, on towers with rank-1 and rank-2 bimodules whose levels
    spread over one or two degrees; an index without a square raises
    the same error."""
    compared = 0
    for index, ring in enumerate(RINGS + (Zmod(5),)):
        for seed in range(4):
            rng = random.Random(8300 + 10 * index + seed)
            span = 1 + seed % 2
            towers = (
                random_reduced_ladder(rng, ring, n_levels=4, s_rank=1 + seed // 2, degree_span=span).complex,
                random_kernel_tower(rng, ring, n_levels=4, s_rank=1 + seed // 2, degree_span=span).complex,
            )
            for tower in towers:
                for m in range(1, tower.top_index):
                    got = exact_square_total(tower, m)
                    assert repr(got) == repr(oracle.exact_square_total_by_cones(tower, m))
                    compared += 1
                for m in (0, tower.top_index):
                    with pytest.raises(ValueError, match=f"^no square at index {m}$"):
                        exact_square_total(tower, m)
                    with pytest.raises(ValueError, match=f"^no square at index {m}$"):
                        oracle.exact_square_total_by_cones(tower, m)
    assert compared >= 80


# Term kinds of a condition: a left factor, a right factor, and
# kron(X, I_s) @ B, given to the library as the right factor R whose row
# k joins rows k*s .. k*s + s - 1 of B.
KINDS = ("left", "right", 1, 2, 3)
PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)


def _entries(ring):
    if ring.kind == "Q":
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if ring.kind == "Z":
        return st.integers(-4, 4)
    return st.integers(0, ring.modulus - 1)


@st.composite
def _matrices(draw, ring, rows, cols):
    flat = draw(st.lists(_entries(ring), min_size=rows * cols, max_size=rows * cols))
    return Matrix(ring, rows, cols, tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)))


@st.composite
def block_systems(draw, ring, seen):
    """A library _BlockSystem and the oracle's Kronecker one with equal
    conditions; adds (kind, registered) of every term drawn to seen.

    Unknowns of a zero dimension are never registered, and the key
    "absent" is never declared; terms on either are dropped by both.
    """
    shapes = {key: (draw(st.integers(0, 3)), draw(st.integers(0, 3))) for key in range(draw(st.integers(1, 4)))}
    system, kron_system = _BlockSystem(ring), oracle_leibniz._BlockSystem(ring)
    for key, (p, t) in shapes.items():
        system.unknown(key, p, t)
        kron_system.unknown(key, p, t)
    shapes["absent"] = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(0, 4))):
        # The condition is the row-major vectorization of a rows x cols matrix.
        first = draw(st.sampled_from(sorted(shapes, key=str)))
        kind = draw(st.sampled_from(KINDS))
        p, t = shapes[first]
        rows = draw(st.integers(0, 3)) if kind == "left" else p * (1 if kind == "right" else kind)
        cols = t if kind == "left" else draw(st.integers(0, 3))
        terms, kron_terms = [], []
        drawn = []
        for key in draw(st.permutations(sorted(shapes, key=str))):
            p, t = shapes[key]
            fits = [x for x in KINDS if (t == cols if x == "left" else p * (1 if x == "right" else x) == rows)]
            if key != first and (not fits or draw(st.booleans())):
                continue
            this = kind if key == first else draw(st.sampled_from(fits))
            sign = draw(st.sampled_from((1, -1)))
            drawn.append((this, system.has(key)))
            if this == "left":
                a = draw(_matrices(ring, rows, p)).scale(sign)
                terms.append((key, a, None))
                kron_terms.append((key, oracle_leibniz._coeff_left(a, t)))
            elif this == "right":
                b = draw(_matrices(ring, t, cols)).scale(sign)
                terms.append((key, None, b))
                kron_terms.append((key, oracle_leibniz._coeff_right(b, p)))
            else:
                s = this
                b = draw(_matrices(ring, t * s, cols)).scale(sign)
                r = Matrix(ring, t, s * cols, tuple(sum(b.entries[j:j + s], ()) for j in range(0, b.rows, s)))
                terms.append((key, None, r))
                kron_terms.append((key, oracle._coeff_tensor_then(b, p, s)))
        system.condition(rows * cols, terms)
        kron_system.condition(rows * cols, kron_terms)
        if rows * cols:
            seen.update(drawn)
    return system, kron_system


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)), ids=str)
def test_block_system_matches_kronecker_oracle(ring):
    seen = set()

    @PROPERTY
    @given(st.data())
    def check(data):
        system, kron_system = data.draw(block_systems(ring, seen))
        assert repr(system.matrix()) == repr(kron_system.matrix())

    check()
    assert seen == {(kind, registered) for kind in KINDS for registered in (True, False)}


def test_block_system_writes_factors_in_layout():
    system = _BlockSystem(ZZ)
    system.unknown("x", 1, 2)
    system.unknown("empty", 3, 0)
    system.unknown("y", 1, 1)
    assert system.total == 3 and not system.has("empty")
    left = Matrix.from_rows(ZZ, [[3]])
    system.condition(2, [("x", left, None), ("absent", Matrix.identity(ZZ, 1), None), ("empty", None, left)])
    system.condition(2, [("y", None, Matrix.from_rows(ZZ, [[5, 6]]))])
    system.condition(0, [("x", Matrix.zero(ZZ, 0, 1), None)])
    assert system.matrix() == Matrix.from_rows(ZZ, [[3, 0, 0], [0, 3, 0], [0, 0, 5], [0, 0, 6]])
    with pytest.raises(ShapeMismatch):
        system.condition(3, [("x", left, None)])


# sha256 of the reprs of four seeded outputs (seeds 9100..9103) per
# generator and ring, recorded before block_matrix assembled them.  The
# towers over Z/4 draw through composite kernels and solves, whose
# bases and solutions were recorded on the congruence-lattice routes;
# those two cases run on them, kept in snf_oracle.
PINNED = {
    "random_extension Z": "fa8af0e04ff84b3d8491d0c3e2f9ac9461be5b3c02f9f93d32401fee8f33026e",
    "random_extension Q": "948f4ca1f782b1cd96d914de7f37d51500804ec7dcab182b51c00f311a97e1f0",
    "random_extension Z/3": "1b4a3e12988cf964c9ae7b8619502f9a9dfc8110bc939a04e1d5f5b7c7ed6eb6",
    "random_extension Z/4": "ca748b1917cf005ec0fbf2affabe3ba5b0e38eba71bbb0b70a81d34a9cd781f0",
    "random_kernel_tower Z": "eeb7780701cc1ad252f7dd95c5db97551783877af1c282a02b1b1882915a199e",
    "random_kernel_tower Q": "220c2c80cd6750972c4ed0c00f652a473d5f760463f8502826b1b8bb6df9eeae",
    "random_kernel_tower Z/3": "61a4c3148aeb011e5cf18466020034e10e974bc7ee3de02bcbaf01c15ec51414",
    "random_kernel_tower Z/4": "d5c5f78818f28f90bd479ee48eecb1e0323cb5460a6eba64d5e8665b76f5af87",
    "random_reduced_ladder Z": "a749e3edc4ea9d5776a17dba8652eb4d4c524dcc80e9a01b17afa79190b1931e",
    "random_reduced_ladder Q": "a4c107263e62db1f8b2d80234d1c19ea2d02f2aa90a3e9a179984fdb31ad7f7a",
    "random_reduced_ladder Z/3": "4e4b1b53d7032371b17ab977a10714c40546b636128a49aa63e749ab3160a55d",
    "random_reduced_ladder Z/4": "175bc525c37bf0f3b98600fc2f3b7f148b780718f552f929536dd4ea8368198c",
}

GENERATORS = {
    "random_extension": lambda rng, ring: random_extension(rng, _small(rng, ring), _small(rng, ring)),
    "random_kernel_tower": lambda rng, ring: random_kernel_tower(rng, ring, s_rank=rng.choice([1, 2])),
    "random_reduced_ladder": random_reduced_ladder,
}


LATTICE_ROUTES = ("random_kernel_tower Z/4", "random_reduced_ladder Z/4")


@pytest.mark.parametrize("key", sorted(PINNED))
def test_seeded_fuzz_outputs_pinned(key, monkeypatch):
    name, label = key.split(" ")
    if key in LATTICE_ROUTES:
        # The read-off serves Z and composite Z/m; only Z/m goes to the lattice.
        kernel, solve = exact_linalg._kernel_diagonal, exact_linalg._solve_diagonal

        def lattice_kernel(a):
            if a.ring.kind != "Zmod":
                return kernel(a)
            # The library reads coordinates through a left inverse of the
            # basis; any one gives the same, since the basis is injective.
            k = snf_oracle._kernel_zmod_composite(a)
            left_t = snf_oracle._solve_zmod_composite(k.transpose(), Matrix.identity(a.ring, k.cols))
            return k, left_t.transpose()

        def lattice_solve(a, b):
            return snf_oracle._solve_zmod_composite(a, b) if a.ring.kind == "Zmod" else solve(a, b)

        monkeypatch.setattr(exact_linalg, "_kernel_diagonal", lattice_kernel)
        monkeypatch.setattr(exact_linalg, "_solve_diagonal", lattice_solve)
    ring = {"Z": ZZ, "Q": QQ, "Z/3": Zmod(3), "Z/4": Zmod(4)}[label]
    digest = hashlib.sha256()
    for seed in range(4):
        digest.update(repr(GENERATORS[name](random.Random(9100 + seed), ring)).encode())
    assert digest.hexdigest() == PINNED[key]


# sha256 of the reprs of 540 seeded constructions, nine per ring and
# seed, recorded before chains._block_sum laid out every sum-shaped
# complex.
CONSTRUCTIONS_PINNED = "8fdfac60dc8a27ceef68e15691fda35e51fdf1be62f9f78f04da049cd102d689"


def test_seeded_constructions_pinned():
    digest = hashlib.sha256()
    count = 0
    for ring in (ZZ, QQ, Zmod(3), Zmod(4), Zmod(5)):
        for seed in range(12):
            rng = random.Random(seed)
            a = random_complex(rng, ring, max_atoms=4).complex
            b = random_complex(rng, ring, max_atoms=4).complex
            f = random_null_homotopic(rng, a, b, 0)[0]
            outs = [cone(f), cylinder(f), direct_sum(a, b), _cone_complex(f), direct_sum(a, b, a)]
            ext = random_extension(rng, a, b)
            outs += [rotate_ses(validate_ses(ext.incl, ext.proj)), pushout_along_cofibration(ext.incl, f)]
            tower = random_reduced_ladder(rng, ring, n_levels=3).complex
            outs += [exact_square_total(tower, 1), check_an_local(tower, 1)]
            for out in outs:
                digest.update(repr(out).encode())
                count += 1
    assert count == 540
    assert digest.hexdigest() == CONSTRUCTIONS_PINNED


def _seeded_tower_sums():
    """(tower x, tower y, probe ladder) triples, same bimodule and length,
    over Z, Q and Z/3, seeds 9200..9205."""
    for ring in (ZZ, QQ, Zmod(3)):
        for seed in range(6):
            rng = random.Random(9200 + seed)
            s_rank = rng.choice([1, 2])
            x = random_kernel_tower(rng, ring, s_rank=s_rank)
            y = random_kernel_tower(rng, ring, s_rank=s_rank)
            a = random_reduced_ladder(rng, ring, s_rank=s_rank, acyclic_levels={1, 2, 3}).complex
            yield x, y, a


def _seeded_loop_sums():
    """(x, y) pairs of loops on one bimodule over Z, Q, Z/3 and Z/6,
    seeds 9300..9305: two single-degree loops, then a null-homotopic
    loop on a random complex with the first of them."""
    for ring in (ZZ, QQ, Zmod(3), Zmod(6)):
        for seed in range(6):
            rng = random.Random(9300 + seed)
            s = Bimodule(ring, rng.choice([1, 2]))
            x = random_single_degree_loop(rng, ring, s_rank=s.rank)
            y = random_single_degree_loop(rng, ring, s_rank=s.rank)
            c = random_complex(rng, ring, max_atoms=2).complex
            soft = loop_object(random_null_homotopic(rng, c, tensor_with_bimodule(c, s))[0], s)
            yield x, y
            yield soft, x


# sha256 of the reprs of 102 seeded outputs, recorded before
# chains._block_map placed the maps into and out of sums: per tower
# triple the kernel tower, d0_direct_sum and derive_splittings(...).total,
# and per loop pair dcomplex_direct_sum.
BLOCK_MAPS_PINNED = "669e1a8b1df9bb1b34bc0dc597da7bb58e6cb4cd761389bfb904bd120460206f"


def test_seeded_block_maps_pinned():
    digest = hashlib.sha256()
    count = 0
    for x, y, a in _seeded_tower_sums():
        for out in (x, d0_direct_sum(x.complex, y.complex), derive_splittings(a, x.complex).total):
            digest.update(repr(out).encode())
            count += 1
    for x, y in _seeded_loop_sums():
        digest.update(repr(dcomplex_direct_sum(x, y)).encode())
        count += 1
    assert count == 102
    assert digest.hexdigest() == BLOCK_MAPS_PINNED


def test_direct_sums_match_the_compositional_route():
    for x, y, _ in _seeded_tower_sums():
        for p, q in ((x.complex, y.complex), (y.complex, x.complex), (x.complex, x.complex)):
            assert repr(d0_direct_sum(p, q)) == repr(oracle.d0_direct_sum(p, q))
    for x, y in _seeded_loop_sums():
        for p, q in ((x, y), (y, x)):
            assert repr(dcomplex_direct_sum(p, q)) == repr(oracle.dcomplex_direct_sum(p, q))


def test_direct_sum_of_a_tower_holding_bools_is_equal_to_the_compositional_route():
    """ZZ.normalize(True) is True, so a tower over Z can hold bool
    entries.  The compositional route adds inc f proj terms, which
    turns True into 1; the block route copies the entry.  The two sums
    are equal by ==, and only their reprs differ."""
    s = Bimodule(ZZ, 1)
    zero = ChainComplex.zero_complex(ZZ)
    c = ChainComplex.build(ZZ, {0: 1}, {})
    up = GradedMap.build(c, c, 0, {0: Matrix.from_rows(ZZ, [[True]])})
    tower = D0Complex.build(
        s, [zero, c, c], [GradedMap.zero(zero, c, 0), up],
        [GradedMap.zero(c, zero, 0), GradedMap.zero(c, c, 0)], 1,
    )
    assert d0_direct_sum(tower, tower) == oracle.d0_direct_sum(tower, tower)
