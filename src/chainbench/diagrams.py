"""Diagrams of bimodules over small quivers, and their chain realizations.

A diagram assigns a ring to each vertex, a free bimodule to each edge,
and optionally a list of formal relations: pairs of composable edge
paths that realizations must satisfy on the nose.  A realization
(DComplex) puts a chain complex on each vertex and, on each edge
f: a -> b, a degree-0 chain map C_a -> C_b (x) S_f.

Bimodules here are free of finite rank.  A twist would act on scalars
through one ring endomorphism per generator, but every unital ring
endomorphism of the supported base rings fixes 1 and therefore every
element, so the twist list is validated and collapses to the identity.
Tensoring is then pure Kronecker bookkeeping.  The basis convention is
module-major: the module index varies slowest, and bimodule factors
created later sit closer to the module index than older ones.

Composites along paths accumulate twists on the right: travelling e1
then e2 lands in C (x) S_e2 (x) S_e1.  A realization is nilpotent of
degree n when every composite of length n + 1 is null-homotopic; a
null-homotopy for one length yields witnesses for all longer lengths
by composing with the extra edge maps, so the scan below is monotone.
"""

from __future__ import annotations

from ._record import record
from .exact_linalg import Matrix, Ring, ShapeMismatch, kron
from .chains import MAX_TOTAL_RANK, ChainComplex, GradedMap, _diagonal_map, _sum_complex, find_null_homotopy

# Most path composites, over all lengths, that one nilpotency_degree
# search examines.  D1, D2 and D3 have at most three paths per length;
# a three-level D0_truncated passes the cap at length 13.
_MAX_COMPOSITES = 4096


@record
class Bimodule:
    """Free bimodule of finite rank with per-generator twists.

    The twist list holds one ring endomorphism per generator, encoded
    by the image of 1.  Unitality forces every entry to equal one, so
    valid twists are stored as all-ones; anything else is rejected.
    """

    base: Ring
    rank: int
    twist: tuple = None

    def __init__(self, base: Ring, rank: int, twist: tuple = None) -> None:
        if rank < 1:
            raise ValueError("bimodule rank must be positive")
        if twist is not None:
            twist = tuple(twist)
            if len(twist) != rank:
                raise ValueError("need one twist endomorphism per generator")
            for t in twist:
                if base.normalize(t) != base.one:
                    raise ValueError(
                        "twist endomorphisms must be unital, hence identity here"
                    )
        d = self.__dict__
        d["base"] = base
        d["rank"] = rank
        d["twist"] = (1,) * rank


def identity_bimodule(base: Ring) -> Bimodule:
    return Bimodule(base, 1)


def tensor_bimodules(s: Bimodule, t: Bimodule) -> Bimodule:
    if s.base != t.base:
        raise ShapeMismatch("bimodules over different rings")
    return Bimodule(s.base, s.rank * t.rank)


def tensor_with_bimodule(c: ChainComplex, s: Bimodule) -> ChainComplex:
    """C (x) S: ranks multiply, boundaries act on the module index.

    A rank-1 bimodule is the ring itself, so C (x) S is C and c comes
    back unchanged.
    """
    if c.ring != s.base:
        raise ShapeMismatch("complex and bimodule over different rings")
    if s.rank == 1:
        return c
    eye = Matrix.identity(c.ring, s.rank)
    ranks = {n: r * s.rank for n, r in c.ranks}
    diffs = {n: kron(m, eye) for n, m in c.diffs}
    return ChainComplex.build(c.ring, ranks, diffs, validate=False)


def tensor_map_with_bimodule(f: GradedMap, s: Bimodule) -> GradedMap:
    """f (x) identity on S, between the tensored complexes; f itself when S has rank 1."""
    source = tensor_with_bimodule(f.source, s)
    if s.rank == 1:
        return f
    eye = Matrix.identity(f.source.ring, s.rank)
    return GradedMap.build(
        source,
        tensor_with_bimodule(f.target, s),
        f.degree,
        {n: kron(m, eye) for n, m in f.blocks},
    )


@record
class Edge:
    name: str
    source: str
    target: str
    bimodule: Bimodule


@record
class DiagramOfBimodules:
    """Quiver with a ring per vertex, a bimodule per edge, relations.

    vertices: tuple of (name, Ring).  edges: tuple of Edge.  relations:
    tuple of (path, path) pairs, each path a tuple of edge names; the
    two sides must be composable with equal endpoints and equal total
    bimodule rank, and every realization must satisfy them exactly.
    """

    vertices: tuple
    edges: tuple
    relations: tuple = ()

    def __post_init__(self) -> None:
        names = [v for v, _ in self.vertices]
        if len(set(names)) != len(names):
            raise ValueError("vertex names must be distinct")
        edge_names = [e.name for e in self.edges]
        if len(set(edge_names)) != len(edge_names):
            raise ValueError("edge names must be distinct")
        for e in self.edges:
            for endpoint in (e.source, e.target):
                if endpoint not in names:
                    raise ValueError(f"edge {e.name[:40]!r} touches unknown vertex {endpoint[:40]!r}")
            if (
                self.vertex_ring(e.source) != e.bimodule.base
                or self.vertex_ring(e.target) != e.bimodule.base
            ):
                raise ValueError(f"edge {e.name[:40]!r} mixes rings")
        for left, right in self.relations:
            a0, a1, ra = self._path_profile(left)
            b0, b1, rb = self._path_profile(right)
            if (a0, a1) != (b0, b1):
                raise ValueError("relation sides have different endpoints")
            if ra != rb:
                raise ValueError("relation sides have different bimodule ranks")

    def vertex_ring(self, name: str) -> Ring:
        for v, ring in self.vertices:
            if v == name:
                return ring
        raise KeyError(f"no vertex named {name}")

    def edge(self, name: str) -> Edge:
        for e in self.edges:
            if e.name == name:
                return e
        raise KeyError(f"no edge named {name}")

    def _path_profile(self, path):
        """(start, end, accumulated bimodule rank) of a nonempty path."""
        path = tuple(path)
        if not path:
            raise ValueError("relation paths must be nonempty")
        edges = {e.name: e for e in self.edges}
        for name in path:
            if name not in edges:
                raise ValueError(f"relation path names unknown edge {name[:40]!r}")
        start = here = edges[path[0]].source
        rank = 1
        for name in path:
            e = edges[name]
            if e.source != here:
                raise ValueError(f"path breaks at edge {name[:40]!r}")
            here = e.target
            rank *= e.bimodule.rank
        return start, here, rank


def preset_diagram(
    name: str,
    ring: Ring,
    s_rank: int = 1,
    t_rank: int = 1,
    u_rank: int = 1,
    levels: int = 3,
) -> DiagramOfBimodules:
    """Builtin diagrams: D1, D2, D3, D0_truncated.

    D1 is one vertex with a loop over a rank-s_rank bimodule.  D2 has
    two vertices with edges alpha (over S) and beta (over T) in
    opposite directions.  D3 is a directed three-cycle.  D0_truncated
    has vertices 0..levels, ascent edges up{i}: i -> i+1 over the
    trivial bimodule, descent edges down{i}: i -> i-1 over S, and the
    commutation relations up-then-down = down-then-up at every level
    where both composites exist.
    """
    if name == "D1":
        return DiagramOfBimodules(
            (("v", ring),),
            (Edge("x", "v", "v", Bimodule(ring, s_rank)),),
        )
    if name == "D2":
        return DiagramOfBimodules(
            (("a", ring), ("b", ring)),
            (
                Edge("alpha", "a", "b", Bimodule(ring, s_rank)),
                Edge("beta", "b", "a", Bimodule(ring, t_rank)),
            ),
        )
    if name == "D3":
        return DiagramOfBimodules(
            (("a", ring), ("b", ring), ("c", ring)),
            (
                Edge("alpha", "a", "b", Bimodule(ring, s_rank)),
                Edge("beta", "b", "c", Bimodule(ring, t_rank)),
                Edge("gamma", "c", "a", Bimodule(ring, u_rank)),
            ),
        )
    if name == "D0_truncated":
        if levels < 1:
            raise ValueError("D0_truncated needs at least one level")
        vertices = tuple((str(i), ring) for i in range(levels + 1))
        edges = []
        for i in range(levels):
            edges.append(Edge(f"up{i}", str(i), str(i + 1), Bimodule(ring, 1)))
        for i in range(1, levels + 1):
            edges.append(Edge(f"down{i}", str(i), str(i - 1), Bimodule(ring, s_rank)))
        relations = tuple(
            ((f"up{i}", f"down{i + 1}"), (f"down{i}", f"up{i - 1}"))
            for i in range(1, levels)
        )
        return DiagramOfBimodules(vertices, tuple(edges), relations)
    raise ValueError(f"unknown preset diagram {name[:40]!r}")


@record
class DComplex:
    """Realization of a diagram: complexes on vertices, maps on edges."""

    diagram: DiagramOfBimodules
    vertex_complexes: tuple
    edge_maps: tuple

    @staticmethod
    def build(diagram, vertex_complexes, edge_maps) -> "DComplex":
        ctable = dict(
            vertex_complexes.items()
            if isinstance(vertex_complexes, dict)
            else vertex_complexes
        )
        mtable = dict(edge_maps.items() if isinstance(edge_maps, dict) else edge_maps)
        missing = [v for v, _ in diagram.vertices if v not in ctable]
        if missing:
            raise ValueError(f"vertices without complexes: {missing}")
        missing = [e.name for e in diagram.edges if e.name not in mtable]
        if missing:
            raise ValueError(f"edges without maps: {missing}")
        out = DComplex(
            diagram,
            tuple(sorted(ctable.items())),
            tuple(sorted(mtable.items())),
        )
        out.validate()
        return out

    def complex_at(self, vertex: str) -> ChainComplex:
        for v, c in self.vertex_complexes:
            if v == vertex:
                return c
        raise KeyError(f"no complex at vertex {vertex}")

    def map_for(self, edge_name: str) -> GradedMap:
        for name, f in self.edge_maps:
            if name == edge_name:
                return f
        raise KeyError(f"no map for edge {edge_name}")

    def validate(self) -> None:
        for v, ring in self.diagram.vertices:
            if self.complex_at(v).ring != ring:
                raise ValueError(f"complex at vertex {v} is over the wrong ring")
        for e in self.diagram.edges:
            f = self.map_for(e.name)
            src = self.complex_at(e.source)
            tgt = tensor_with_bimodule(self.complex_at(e.target), e.bimodule)
            if f.source != src or f.target != tgt:
                raise ShapeMismatch(
                    f"map on edge {e.name[:40]!r} has the wrong source or target"
                )
            if f.degree != 0 or not f.is_chain_map():
                raise ValueError(f"map on edge {e.name[:40]!r} is not a chain map")
        for left, right in self.diagram.relations:
            if path_composite(self, left).map != path_composite(self, right).map:
                raise ValueError(
                    f"relation {left} = {right} fails for this realization"
                )


def loop_object(f: GradedMap, s: Bimodule) -> DComplex:
    """One-vertex realization of D1 with loop map f: C -> C (x) S."""
    diagram = preset_diagram("D1", f.source.ring, s_rank=s.rank)
    return DComplex.build(diagram, {"v": f.source}, {"x": f})


def composable_paths(diagram: DiagramOfBimodules, length: int, start: str | None = None):
    """All edge-name sequences of the given length that compose."""
    if length == 0:
        return [()]
    paths = []
    frontier = [
        (e.name,) for e in diagram.edges if start is None or e.source == start
    ]
    while frontier:
        p = frontier.pop()
        if len(p) == length:
            paths.append(p)
            continue
        tip = diagram.edge(p[-1]).target
        for e in diagram.edges:
            if e.source == tip:
                frontier.append(p + (e.name,))
    return sorted(paths)


@record
class PathComposite:
    path: tuple
    map: GradedMap
    bimodule: Bimodule


def path_composite(x: DComplex, path, start: str | None = None) -> PathComposite:
    """Composite along a path; twist factors accumulate on the right.

    The empty path is the identity, reported at `start` (which may be
    omitted when the diagram has a single vertex).  Raises ValueError
    naming the path when the target of the composite would have total
    rank above MAX_TOTAL_RANK.
    """
    path = tuple(path)
    if not path:
        if start is None:
            if len(x.diagram.vertices) != 1:
                raise ValueError("empty path needs a start vertex")
            start = x.diagram.vertices[0][0]
        c = x.complex_at(start)
        return PathComposite((), GradedMap.identity(c), identity_bimodule(c.ring))
    # Check the whole path before composing anything.
    edges = [x.diagram.edge(name) for name in path]
    rank = edges[0].bimodule.rank
    for prev, e in zip(edges, edges[1:]):
        if e.source != prev.target:
            raise ValueError(f"path breaks at edge {e.name[:40]!r}")
        rank *= e.bimodule.rank
        size = x.complex_at(e.target).total_rank * rank
        if size > MAX_TOTAL_RANK:
            raise ValueError(
                f"composite along path {list(path)} reaches total rank {size}, "
                f"over the limit of {MAX_TOTAL_RANK}"
            )
    acc, out = edges[0].bimodule, x.map_for(path[0])
    for e in edges[1:]:
        out = tensor_map_with_bimodule(x.map_for(e.name), acc) @ out
        acc = tensor_bimodules(e.bimodule, acc)
    return PathComposite(path, out, acc)


def _path_counts(diagram: DiagramOfBimodules):
    """Yield len(composable_paths(diagram, k)) for k = 0, 1, ..., counted
    one step per length from the edges, listing no path."""
    yield 1
    ending = {v: 1 for v, _ in diagram.vertices}
    while True:
        ending = {v: sum(ending[e.source] for e in diagram.edges if e.target == v) for v in ending}
        yield sum(ending.values())


def nilpotency_degree(x: DComplex, max_n: int):
    """Smallest n <= max_n with every length-(n+1) composite
    null-homotopic, or None.  Longer composites inherit witnesses by
    composition, so the first length that works is the answer.  A
    length whose paths would take the composites over _MAX_COMPOSITES
    raises ValueError before they are listed."""
    counts, examined = _path_counts(x.diagram), 0
    next(counts)
    for n, count in zip(range(max_n + 1), counts):
        examined += count
        if examined > _MAX_COMPOSITES:
            raise ValueError(
                f"{examined} composites up to length {n + 1}, {count} of that length, "
                f"are over the limit of {_MAX_COMPOSITES}"
            )
        paths = composable_paths(x.diagram, n + 1)
        if all(
            find_null_homotopy(path_composite(x, p).map) is not None
            for p in paths
        ):
            return n
    return None


def collapse_d2_to_d1(x: DComplex, base: str = "b") -> DComplex:
    """Collapse a two-vertex cycle to the loop of its round trip.

    The loop at the base vertex is the composite of the two edges
    starting with the one leaving base; its bimodule is the tensor of
    the two edge bimodules.  Which tensor order the label carries is a
    bookkeeping choice with no content for free bimodules.  Nilpotency
    can only improve: a round trip of length k uses 2k edges, so every
    witness at length n + 1 upstream yields one for the loop.
    """
    names = {e.name for e in x.diagram.edges}
    if names != {"alpha", "beta"} or len(x.diagram.vertices) != 2:
        raise ValueError("expected a D2-shaped realization")
    route = ("beta", "alpha") if base == "b" else ("alpha", "beta")
    composite = path_composite(x, route)
    return loop_object(composite.map, composite.bimodule)


def dcomplex_direct_sum(x: DComplex, y: DComplex) -> DComplex:
    """Vertexwise direct sum of two realizations of the same diagram."""
    if x.diagram != y.diagram:
        raise ShapeMismatch("direct sum needs the same diagram of bimodules")
    diagram = x.diagram
    sums = {v: _sum_complex(x.complex_at(v), y.complex_at(v)) for v, _ in diagram.vertices}
    maps = {}
    for e in diagram.edges:
        target = tensor_with_bimodule(sums[e.target], e.bimodule)
        maps[e.name] = _diagonal_map(sums[e.source], target, x.map_for(e.name), y.map_for(e.name))
    return DComplex.build(diagram, sums, maps)
