"""Abstract simplicial complexes, finite posets, and the neighborhood
complexes of digraphs.

Conventions
-----------
Two degenerate complexes are distinguished throughout the package:

* the *void* complex has no faces at all (not even the empty face);
* the *empty* complex has the empty face as its only face.

The distinction matters for reduced homology (the empty complex has one
unit of homology in degree -1, the void complex has none) and comes up
naturally: the out-neighborhood complex of an edgeless digraph is empty,
not void.

Faces are ``frozenset`` objects over the complex's vertex labels.  Labels
can be any hashable values; ordering questions (orientation of simplices,
deterministic enumeration) always go through the position of a label in
the complex's ``vertices`` tuple, never through comparing labels.
Inside a complex each nonempty face is a bitmask over those positions:
the one-block case of the packed cells of a hom complex, so both kinds
of complex share one chain-complex builder (``homology._cellular_chains``).
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable

from . import _graph
from .digraph import DEFAULT_CAP, Digraph, _bits, _faces, _mask_of
from .errors import (
    EmptyComplex,
    FaceNotInComplex,
    InvalidVertex,
    SizeCapExceeded,
)

Face = frozenset


def _face_order(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key of a face mask: dimension, then face key."""
    return mask.bit_count(), tuple(_bits(mask))


class SimplicialComplex:
    """An abstract simplicial complex given by generating sets.

    Dominated generators are dropped so ``facets`` holds exactly the
    maximal faces.  Pass no generating sets for the void complex, or a
    single empty set for the empty complex.

    A simplicial complex is the one-block case of a cell complex: each
    nonempty face is stored once as a bitmask over vertex positions (bit
    ``i`` for ``vertices[i]``), the same packed encoding a hom complex
    uses with one block per source vertex.  These masks, sorted ascending
    ("packed order"), are enumerated once and cached; face counts are
    popcounts over them.
    """

    __slots__ = ("vertices", "facets", "_pos", "_masks")

    def __init__(self, vertices: Iterable[Hashable], faces: Iterable[Iterable[Hashable]]):
        vs = tuple(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        if len(pos) != len(vs):
            raise InvalidVertex("duplicate vertex label")
        candidates = {frozenset(f) for f in faces}
        for f in candidates:
            for v in f:
                if v not in pos:
                    raise InvalidVertex(f"face {set(f)} mentions unknown vertex {v!r}")
        # A generator is a facet when no other one holds all its vertices:
        # the AND over its vertices of their holders' bitsets is its own bit.
        gens = list(candidates)
        holders: dict[Hashable, int] = {}
        for k, f in enumerate(gens):
            for v in f:
                holders[v] = holders.get(v, 0) | 1 << k
        everyone = (1 << len(gens)) - 1
        facets = []
        for k, f in enumerate(gens):
            common = everyone
            for v in f:
                common &= holders[v]
            if common == 1 << k:
                facets.append(f)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "facets", frozenset(facets))
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_masks", None)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("SimplicialComplex is immutable")

    # -- queries -----------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty(self) -> bool:
        return self.facets == frozenset({frozenset()})

    def face_key(self, face: Face) -> tuple[int, ...]:
        """Deterministic sort key: positions of the face's vertices."""
        return tuple(sorted(self._pos[v] for v in face))

    def _face_masks(self, cap: int | None = None) -> list[int]:
        """The nonempty faces as position bitmasks, in ascending order.

        With ``cap`` set, raises :class:`SizeCapExceeded` once the running
        count of distinct faces passes ``cap``, checked after each facet;
        the masks are cached only when every face has been found."""
        if self._masks is None:
            out: set[int] = set()
            for f in self.facets:
                top = _mask_of(self._pos[v] for v in f)
                sub = top
                while sub:
                    out.add(sub)
                    sub = (sub - 1) & top
                if cap is not None and len(out) > cap:
                    raise SizeCapExceeded(f"face poset would have over {cap} elements")
            object.__setattr__(self, "_masks", sorted(out))
        elif cap is not None and len(self._masks) > cap:
            raise SizeCapExceeded(
                f"face poset would have {len(self._masks)} elements (cap {cap})"
            )
        return self._masks

    def _face(self, mask: int) -> Face:
        return frozenset(self.vertices[i] for i in _bits(mask))

    def faces(self) -> frozenset[Face]:
        """All faces, including the empty face unless the complex is void."""
        out = frozenset(map(self._face, self._face_masks()))
        return out if self.is_void else out | {frozenset()}

    def has_face(self, face: Iterable[Hashable]) -> bool:
        f = frozenset(face)
        return any(f <= g for g in self.facets)

    def faces_by_dimension(self) -> dict[int, list[Face]]:
        """Faces grouped by dimension, each group sorted by face key.

        Includes the empty face at dimension ``-1`` when present.
        """
        grouped: dict[int, list[Face]] = {} if self.is_void else {-1: [frozenset()]}
        for m in sorted(self._face_masks(), key=_face_order):
            grouped.setdefault(m.bit_count() - 1, []).append(self._face(m))
        return grouped

    def f_vector(self) -> tuple[int, ...]:
        """Counts of faces in dimensions ``0 .. dim``."""
        counts = [0] * (self.dimension() + 1)
        for m in self._face_masks():
            counts[m.bit_count() - 1] += 1
        return tuple(counts)

    def dimension(self) -> int:
        """Top dimension; ``-1`` for the empty complex, ``-2`` for void."""
        if self.is_void:
            return -2
        return max(len(f) for f in self.facets) - 1

    def euler_characteristic(self) -> int:
        """Unreduced Euler characteristic (a point gives 1)."""
        return sum((-1) ** d * c for d, c in enumerate(self.f_vector()))

    # -- derived complexes ---------------------------------------------------

    def link(self, face: Iterable[Hashable]) -> "SimplicialComplex":
        f = frozenset(face)
        if not self.has_face(f):
            raise FaceNotInComplex(f"{set(face)} is not a face")
        cofacets = [g - f for g in self.facets if f <= g]
        support = frozenset().union(*cofacets) if cofacets else frozenset()
        return SimplicialComplex(
            (v for v in self.vertices if v in support), cofacets
        )

    def induced(self, keep: Iterable[Hashable]) -> "SimplicialComplex":
        s = frozenset(keep)
        return SimplicialComplex(
            (v for v in self.vertices if v in s),
            (f & s for f in self.facets),
        )

    def suspension(self) -> "SimplicialComplex":
        """Join with two fresh cone points (labels ``("susp", 0/1)``)."""
        apexes = (("susp", 0), ("susp", 1))
        for a in apexes:
            if a in self._pos:
                raise InvalidVertex(f"vertex label {a!r} already used")
        facets = [f | {a} for f in self.facets for a in apexes]
        return SimplicialComplex(self.vertices + apexes, facets)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.vertices, self.facets))

    def __repr__(self) -> str:
        shown = sorted(map(self.face_key, self.facets))
        return f"SimplicialComplex({len(self.vertices)} vertices, facets={shown})"


def void_complex() -> SimplicialComplex:
    return SimplicialComplex((), ())


def empty_complex() -> SimplicialComplex:
    return SimplicialComplex((), (frozenset(),))


def simplex_boundary(n: int) -> SimplicialComplex:
    """The boundary of the ``n``-simplex: a triangulated ``(n-1)``-sphere."""
    verts = range(n + 1)
    return SimplicialComplex(verts, itertools.combinations(verts, n))


def full_simplex(n: int) -> SimplicialComplex:
    return SimplicialComplex(range(n + 1), [range(n + 1)])


class Poset:
    """A finite poset on an explicit tuple of element labels.

    The strict order is stored as per-element bitmasks over element
    indices, so comparability and cover queries stay cheap even for a few
    thousand elements.  The relation passed to the constructor is validated
    (irreflexive, antisymmetric, transitive); :meth:`from_covers` skips the
    transitivity check by construction.
    """

    __slots__ = ("elements", "_pos", "_up")

    def __init__(
        self,
        elements: Iterable[Hashable],
        less_than: Iterable[tuple[Hashable, Hashable]],
        *,
        _up: list[int] | None = None,
    ):
        elems = tuple(elements)
        pos = {x: i for i, x in enumerate(elems)}
        if len(pos) != len(elems):
            raise ValueError("duplicate poset element")
        if _up is None:
            up = [0] * len(elems)
            for a, b in less_than:
                i, j = pos[a], pos[b]
                if i == j:
                    raise ValueError(f"relation is not irreflexive: {a!r} < {a!r}")
                up[i] |= 1 << j
            for i in range(len(elems)):
                if up[i] >> i & 1:
                    raise ValueError("relation is not irreflexive")
                for j in _bits(up[i]):
                    if up[j] >> i & 1:
                        raise ValueError("relation is not antisymmetric")
                    if up[j] & ~up[i]:
                        raise ValueError("relation is not transitive")
        else:
            up = _up
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_up", tuple(up))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Poset is immutable")

    @classmethod
    def from_covers(
        cls,
        elements: Iterable[Hashable],
        covers: Iterable[tuple[Hashable, Hashable]],
    ) -> "Poset":
        """Build a poset as the transitive closure of covering pairs.

        The cover relation must be acyclic (it always is when it comes from
        an actual poset).
        """
        elems = tuple(elements)
        pos = {x: i for i, x in enumerate(elems)}
        succ: list[list[int]] = [[] for _ in elems]
        for a, b in covers:
            succ[pos[a]].append(pos[b])
        order = _graph.topological_order(succ)
        if order is None:
            raise ValueError("cover relation has a cycle")
        up = [0] * len(elems)
        for v in reversed(order):
            m = 0
            for w in succ[v]:
                m |= up[w] | (1 << w)
            up[v] = m
        return cls(elems, (), _up=up)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, x: Hashable) -> int:
        return self._pos[x]

    def _find(self, x: Hashable) -> int | None:
        """The index of ``x``, or ``None`` when it is not an element."""
        return self._pos.get(x)

    def lt(self, a: Hashable, b: Hashable) -> bool:
        return bool(self._up[self._pos[a]] >> self._pos[b] & 1)

    def lt_index(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)

    def down_masks(self) -> list[int]:
        down = [0] * len(self.elements)
        for i, m in enumerate(self._up):
            for j in _bits(m):
                down[j] |= 1 << i
        return down

    def covering_index_pairs(self) -> list[tuple[int, int]]:
        """Covers ``(i, j)``: ``i < j`` with nothing strictly between."""
        down = self.down_masks()
        out = []
        for i, m in enumerate(self._up):
            for j in _bits(m):
                if not (m & down[j]):
                    out.append((i, j))
        return out

    def _lower_covers(self, js: Iterable[int]) -> list[list[int]]:
        """The indices of the elements that element ``j`` covers, for each
        ``j`` in ``js``."""
        below: list[list[int]] = [[] for _ in self.elements]
        for i, j in self.covering_index_pairs():
            below[j].append(i)
        return [below[j] for j in js]

    def covering_pairs(self) -> list[tuple[Hashable, Hashable]]:
        e = self.elements
        return [(e[i], e[j]) for i, j in self.covering_index_pairs()]

    def minimal_elements(self) -> list[Hashable]:
        down = self.down_masks()
        return [x for i, x in enumerate(self.elements) if not down[i]]

    def maximal_elements(self) -> list[Hashable]:
        return [x for i, x in enumerate(self.elements) if not self._up[i]]

    def is_connected(self) -> bool:
        """Connectivity of the comparability graph (empty poset: False)."""
        adj: list[list[int]] = [[] for _ in self.elements]
        for i, j in self.covering_index_pairs():
            adj[i].append(j)
            adj[j].append(i)
        return len(_graph.components(adj)) == 1

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements)"


def poset_product(p: Poset, q: Poset) -> Poset:
    """Componentwise order on pairs of elements."""
    elems = [(a, b) for a in p.elements for b in q.elements]
    np_, nq = len(p.elements), len(q.elements)
    up: list[int] = []
    pu, qu = p._up, q._up
    for i in range(np_):
        pi = pu[i] | (1 << i)
        for j in range(nq):
            qj = qu[j] | (1 << j)
            m = 0
            for i2 in _bits(pi):
                for j2 in _bits(qj):
                    m |= 1 << (i2 * nq + j2)
            m &= ~(1 << (i * nq + j))
            up.append(m)
    return Poset(elems, (), _up=up)


# ---------------------------------------------------------------------------
# Digraph-derived complexes
# ---------------------------------------------------------------------------


def out_neighborhood_complex(g: Digraph) -> SimplicialComplex:
    """The complex generated by the out-neighborhoods of ``g``.

    Its vertices are the digraph vertices of positive in-degree.  With no
    edges at all this is the empty complex (the empty set is the only
    out-neighborhood).
    """
    vertices = [v for v in range(g.n) if g.in_degree(v) > 0]
    return SimplicialComplex(vertices, (g.out_neighbors(v) for v in range(g.n)))


def in_neighborhood_complex(g: Digraph) -> SimplicialComplex:
    """Mirror of :func:`out_neighborhood_complex` (in-neighborhoods)."""
    return out_neighborhood_complex(g.reverse())


def universality_graph(x: SimplicialComplex) -> Digraph:
    """A digraph whose out-neighborhood complex realizes ``x``.

    Vertices ``0 .. k-1`` stand for the vertices of ``x`` (in ``x.vertices``
    order); one extra apex vertex per facet points at that facet's members.
    Raises :class:`EmptyComplex` for the void complex.
    """
    if x.is_void:
        raise EmptyComplex("cannot realize the void complex")
    k = len(x.vertices)
    facets = sorted(x.facets, key=x.face_key)
    edges = []
    for r, f in enumerate(facets):
        for v in f:
            edges.append((k + r, x.vertices.index(v)))
    return Digraph(k + len(facets), edges)


def face_poset(x: SimplicialComplex, cap: int = DEFAULT_CAP) -> Poset:
    """Poset of nonempty faces ordered by inclusion.

    Faces are listed by dimension, then by face key, so the element order
    is deterministic.  Raises :class:`SizeCapExceeded` when the number of
    nonempty faces exceeds ``cap``: before enumerating any face when one
    facet alone has more than ``cap`` nonempty faces, and otherwise after
    the facet whose faces take the running count past ``cap``, so at most
    ``2 * cap`` faces are ever formed.
    """
    largest = 2 ** max(map(len, x.facets), default=0) - 1
    if largest > cap:
        raise SizeCapExceeded(f"a facet has {largest} nonempty faces (cap {cap})")
    masks = sorted(x._face_masks(cap), key=_face_order)
    face = {m: x._face(m) for m in masks}
    faces = _faces(masks, 1, max(len(x.vertices), 1))
    covers = [(face[f], face[m]) for m, fs in zip(masks, faces) for f in fs]
    return Poset.from_covers(face.values(), covers)


def order_complex(p: Poset, cap: int = DEFAULT_CAP) -> SimplicialComplex:
    """The complex of chains of ``p``; vertices are the poset elements.

    The empty poset yields the empty complex.  Raises
    :class:`SizeCapExceeded` when the total number of nonempty chains
    exceeds ``cap``.
    """
    n = len(p.elements)
    if n == 0:
        return empty_complex()
    down = p.down_masks()
    order = sorted(range(n), key=lambda i: down[i].bit_count())
    chains_ending = [0] * n
    total = 0
    for i in order:
        c = 1
        m = down[i]
        while m:
            low = m & -m
            c += chains_ending[low.bit_length() - 1]
            m ^= low
        chains_ending[i] = c
        total += c
        if total > cap:
            raise SizeCapExceeded(f"order complex would have over {cap} chains")
    # Maximal chains: saturated cover-paths from minimal to maximal elements.
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in p.covering_index_pairs():
        succ[i].append(j)
    elems = p.elements
    facets: list[frozenset] = []
    stack: list[int] = []

    def walk(i: int) -> None:
        stack.append(i)
        if not succ[i]:
            facets.append(frozenset(elems[j] for j in stack))
        else:
            for j in succ[i]:
                walk(j)
        stack.pop()

    for i in range(n):
        if not down[i]:
            walk(i)
    return SimplicialComplex(elems, facets)


def directed_clique_complex(g: Digraph, max_vertices: int = 16) -> SimplicialComplex:
    """Faces are vertex sets that admit an ordering ``v0, ..., vk`` with
    every forward pair ``(vi, vj)``, ``i < j``, an edge.  Loops are ignored.

    A directed 3-cycle therefore gives a hollow triangle: all three edges
    are faces but the full triple admits no such ordering.

    The subset dynamic program is exponential in ``g.n``; graphs above
    ``max_vertices`` vertices are rejected with :class:`SizeCapExceeded`.
    """
    if g.n > max_vertices:
        raise SizeCapExceeded(
            f"directed clique complex supported up to {max_vertices} vertices"
        )
    n = g.n
    om = [g.out_mask(v) & ~(1 << v) for v in range(n)]
    ok = [False] * (1 << n)
    ok[0] = True
    faces = []
    for s in range(1, 1 << n):
        m = s
        while m:
            low = m & -m
            v = low.bit_length() - 1
            rest = s ^ low
            # v can come first iff it points at everything else
            if om[v] & rest == rest and ok[rest]:
                ok[s] = True
                break
            m ^= low
        if ok[s]:
            faces.append(frozenset(_bits(s)))
    return SimplicialComplex(range(n), faces)
