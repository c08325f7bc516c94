"""Finite directed graphs and their categorical operations.

Vertices are always the dense integer labels ``0 .. n-1``.  Loops are
allowed; at most one edge exists per ordered pair.  Graphs are immutable
and hashable, and equality is label-sensitive (two isomorphic graphs with
different labelings compare unequal).

Vertex subsets are manipulated internally as integer bitmasks, which keeps
the homomorphism machinery fast.  The public API only ever exposes plain
``int`` vertices, ``frozenset`` neighborhoods and :class:`VertexMap`
objects.
"""

from __future__ import annotations

import itertools
from operator import index
from typing import Callable, Iterable, Iterator, Sequence

from . import _graph
from .errors import (
    InvalidRange,
    InvalidVertex,
    MalformedPartition,
    ShapeMismatch,
    SizeCapExceeded,
)

# ``_arrows`` keeps one value per byte, so this stays at most 256.
MAX_VERTICES = 64
DEFAULT_CAP = 10**6


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class _Frozen:
    """Base of the package's immutable classes: their constructors set
    each attribute once through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


def _check_vertex_count(n: int) -> None:
    """Raise :class:`SizeCapExceeded` for more than ``MAX_VERTICES``
    vertices.  :class:`Digraph` calls it before it reads an edge, so a
    constructor that passes its edges as a generator needs no check of its
    own; one that builds anything else first calls it itself."""
    if n > MAX_VERTICES:
        raise SizeCapExceeded(f"at most {MAX_VERTICES} vertices supported, got {n}")


class Digraph(_Frozen):
    """An immutable directed graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.  Must be between 0 and 64; larger vertex sets
        are rejected with :class:`SizeCapExceeded` because neighborhoods
        are stored as 64-bit masks.
    edges:
        Iterable of ordered pairs ``(u, v)``, read only after ``n`` has
        passed the size check.  Loops ``(v, v)`` are fine, duplicates
        collapse.
    """

    __slots__ = ("n", "edges", "_out", "_in")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count must be non-negative, got {n}")
        _check_vertex_count(n)
        out = [0] * n
        inn = [0] * n
        pairs = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) out of range for {n} vertices")
            # Plain ints, whatever int-like type the caller passed.
            u, v = index(u), index(v)
            out[u] |= 1 << v
            inn[v] |= 1 << u
            pairs.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_out", tuple(out))
        object.__setattr__(self, "_in", tuple(inn))
        object.__setattr__(self, "edges", frozenset(pairs))

    # -- basic accessors ---------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertex(f"vertex {v} out of range for {self.n} vertices")

    def out_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(_bits(self._out[v]))

    def in_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(_bits(self._in[v]))

    def out_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._out[v]

    def in_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return self.out_mask(v).bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._out[u] >> v & 1)

    def has_loop(self, v: int) -> bool:
        return self.has_edge(v, v)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def reverse(self) -> "Digraph":
        """The digraph with every edge flipped."""
        g = object.__new__(Digraph)
        object.__setattr__(g, "n", self.n)
        object.__setattr__(g, "_out", self._in)
        object.__setattr__(g, "_in", self._out)
        object.__setattr__(g, "edges", frozenset((v, u) for (u, v) in self.edges))
        return g

    def is_acyclic(self) -> bool:
        """True when the digraph has no directed cycle (loops count)."""
        return _graph.topological_order([list(_bits(m)) for m in self._out]) is not None

    def weak_components(self) -> list[frozenset[int]]:
        """Connected components of the underlying undirected graph."""
        adj = [list(_bits(o | i)) for o, i in zip(self._out, self._in)]
        return [frozenset(c) for c in _graph.components(adj)]

    def is_weakly_connected(self) -> bool:
        return self.n <= 1 or len(self.weak_components()) == 1

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph({self.n}, {sorted(self.edges)})"


class VertexMap(_Frozen):
    """A vertex map ``f : {0..k-1} -> ints``, stored as an image tuple.

    This is plain data: whether it is a homomorphism between specific
    graphs is checked by :func:`is_homomorphism`.  Maps order and hash by
    their image tuple, so sorted containers of maps are lexicographic.
    """

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        object.__setattr__(self, "image", tuple(image))

    @property
    def domain_size(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __iter__(self) -> Iterator[int]:
        return iter(self.image)

    def __len__(self) -> int:
        return len(self.image)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VertexMap):
            return self.image == other.image
        return NotImplemented

    def __lt__(self, other: "VertexMap") -> bool:
        return self.image < other.image

    def __le__(self, other: "VertexMap") -> bool:
        return self.image <= other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"VertexMap({list(self.image)})"


# ---------------------------------------------------------------------------
# Categorical operations
# ---------------------------------------------------------------------------


def product(g: Digraph, h: Digraph) -> Digraph:
    """Categorical product.

    Vertex ``(a, b)`` is flattened to ``a * h.n + b``; ``((a,b),(c,d))`` is
    an edge iff ``(a,c)`` and ``(b,d)`` both are.
    """
    k = h.n
    edges = ((a * k + b, c * k + d) for a, c in g.edges for b, d in h.edges)
    return Digraph(g.n * k, edges)


def coproduct(g: Digraph, h: Digraph) -> Digraph:
    """Disjoint union; the second summand's labels are shifted by ``g.n``."""
    shifted = ((u + g.n, v + g.n) for (u, v) in h.edges)
    return Digraph(g.n + h.n, itertools.chain(g.edges, shifted))


def exponential(h: Digraph, g: Digraph, cap: int = DEFAULT_CAP) -> Digraph:
    """The exponential digraph ``h ** g``.

    Vertices are *all* vertex maps ``V(g) -> V(h)`` in lexicographic image
    order; ``(f, f')`` is an edge iff for every edge ``(v, w)`` of ``g``
    the pair ``(f(v), f'(w))`` is an edge of ``h``.  Looped vertices are
    therefore exactly the homomorphisms ``g -> h``.

    Raises :class:`SizeCapExceeded` when ``h.n ** g.n`` exceeds ``cap`` or
    the 64-vertex representation limit.
    """
    count = h.n**g.n
    if count > cap:
        raise SizeCapExceeded(f"exponential would have {count} vertices (cap {cap})")
    if count > MAX_VERTICES:
        raise SizeCapExceeded(
            f"exponential would have {count} vertices (limit {MAX_VERTICES})"
        )
    width = max(h.n, 1)
    cells = [_pack([1 << t for t in f.image], g.n, width) for f in exponential_maps(h, g)]
    succ = _arrows(g, h, cells)
    return Digraph(count, ((i, j) for i in range(count) for j in _bits(succ(i))))


def exponential_maps(h: Digraph, g: Digraph) -> list[VertexMap]:
    """The vertex labeling used by :func:`exponential` (lexicographic)."""
    return [VertexMap(img) for img in itertools.product(range(h.n), repeat=g.n)]


def quotient(g: Digraph, classes: Sequence[Iterable[int]]) -> Digraph:
    """Quotient of ``g`` by a vertex partition.

    ``classes[i]`` becomes vertex ``i``.  The blocks must be nonempty,
    disjoint and cover ``0 .. g.n - 1`` exactly, otherwise
    :class:`MalformedPartition` is raised.
    """
    owner = [-1] * g.n
    for i, block in enumerate(classes):
        block = list(block)
        if not block:
            raise MalformedPartition(f"class {i} is empty")
        for v in block:
            if not (0 <= v < g.n):
                raise MalformedPartition(f"class {i} mentions unknown vertex {v}")
            if owner[v] != -1:
                raise MalformedPartition(f"vertex {v} appears in two classes")
            owner[v] = i
    missing = [v for v in range(g.n) if owner[v] == -1]
    if missing:
        raise MalformedPartition(f"vertices {missing} not covered by any class")
    return Digraph(len(classes), {(owner[u], owner[v]) for (u, v) in g.edges})


def induced_subgraph(g: Digraph, vertices: Iterable[int]) -> Digraph:
    """Subgraph induced on ``vertices``, relabeled order-preservingly."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < g.n):
            raise InvalidVertex(f"vertex {v} out of range for {g.n} vertices")
    index = {v: i for i, v in enumerate(vs)}
    keep = set(vs)
    edges = [(index[u], index[v]) for (u, v) in g.edges if u in keep and v in keep]
    return Digraph(len(vs), edges)


def _split(g: Digraph) -> list[tuple[list[int], Digraph]]:
    """The weak components of ``g``, each as its sorted vertex list and the
    subgraph it induces; ``g`` itself, whole, when it has fewer than two.

    The hom complex of a disjoint union is the product of the factors'
    complexes, ``Hom(G1 ⊔ G2, H) = Hom(G1, H) × Hom(G2, H)``, so answers
    about it can be read off the factors.
    """
    comps = g.weak_components()
    if len(comps) < 2:
        return [(list(range(g.n)), g)]
    return [(vs, induced_subgraph(g, vs)) for vs in map(sorted, comps)]


def underlying_symmetrization(g: Digraph) -> Digraph:
    """Replace every edge by the pair of opposite edges."""
    edges = set(g.edges)
    edges.update((v, u) for (u, v) in g.edges)
    return Digraph(g.n, edges)


def looped_part(g: Digraph) -> Digraph:
    """Induced subgraph on the looped vertices."""
    return induced_subgraph(g, (v for v in range(g.n) if g.has_loop(v)))


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


def is_homomorphism(f: VertexMap, g: Digraph, h: Digraph) -> bool:
    """Check that ``f`` maps every edge of ``g`` to an edge of ``h``.

    Raises :class:`ShapeMismatch` when the image tuple has the wrong
    length or mentions vertices outside ``h``.
    """
    if len(f.image) != g.n:
        raise ShapeMismatch(
            f"map has domain size {len(f.image)}, graph has {g.n} vertices"
        )
    for t in f.image:
        if not (0 <= t < h.n):
            raise ShapeMismatch(f"image vertex {t} out of range for {h.n} vertices")
    return all(h.has_edge(f(u), f(v)) for (u, v) in g.edges)


def enumerate_homomorphisms(g: Digraph, h: Digraph) -> list[VertexMap]:
    """All homomorphisms ``g -> h`` in lexicographic image order."""
    return _decode_maps(_multihoms(g, h, max_dim=0), g.n, max(h.n, 1))


def has_homomorphism(g: Digraph, h: Digraph) -> bool:
    """Early-exit existence test for a homomorphism ``g -> h``."""
    return bool(_multihoms(g, h, max_dim=0, limit=1))


def _shifts(n: int, w: int) -> range:
    """The bit offset of each of ``n`` blocks of ``w`` bits, vertex 0 first.

    This is the one cell layout: a multihomomorphism ``g -> h`` is an int
    holding ``v``'s mask at ``_shifts(g.n, max(h.n, 1))[v]``, so ascending
    ints are the cells in lexicographic order of their mask tuples."""
    return range((n - 1) * w, -1, -w)


def _pack(masks: Sequence[int], n: int, w: int) -> int | None:
    """The cell of ``n`` masks below ``1 << w``; ``None`` for other ``masks``."""
    if len(masks) != n:
        return None
    acc = 0
    for m in masks:
        if m >> w:
            return None
        acc = acc << w | m
    return acc


def _unpack(cells: Iterable[int], n: int, w: int) -> Iterator[tuple[int, ...]]:
    """The per-vertex masks of each of ``cells``."""
    full = (1 << w) - 1
    shifts = _shifts(n, w)
    for c in cells:
        yield tuple([c >> s & full for s in shifts])


def _faces(cells: Iterable[int], n: int, w: int) -> Iterator[list[int]]:
    """The faces of each of ``cells``: drop one member of a block that
    holds two or more, blocks in vertex order and members ascending.

    This is the one face rule of a cell (a product of simplices).  A
    simplicial complex is the case ``n == 1``, a face's bitmask as one
    block."""
    full = (1 << w) - 1
    shifts = _shifts(n, w)
    for c in cells:
        out = []
        for s in shifts:
            m = c >> s & full
            if m & (m - 1):
                while m:
                    low = m & -m
                    out.append(c ^ low << s)
                    m ^= low
        yield out


def _decode_maps(cells: Iterable[int], n: int, w: int) -> list[VertexMap]:
    """The vertex maps of the 0-cells ``cells``."""
    return [VertexMap(m.bit_length() - 1 for m in c) for c in _unpack(cells, n, w)]


def _multihoms(
    g: Digraph, h: Digraph, max_dim: int | None = None, limit: int | None = None
) -> list[int]:
    """The multihomomorphisms ``g -> h`` as cells in ascending order.

    The search has two modes: every cell (``max_dim=None``), or the 0-cells
    alone (``max_dim=0``), the homomorphisms.

    With a positive ``limit`` the search stops after ``limit`` cells and
    returns the first ``limit`` cells it found, ascending: all of them when
    there are at most ``limit``, otherwise cells that need not be the
    smallest.

    Backtracks over the vertices in maximum-cardinality search order over
    the undirected adjacency of ``g``: next the vertex with the most
    already-placed neighbors, then the highest degree, then the lowest
    label.  Each assignment set is restricted to the common neighborhoods
    of the values of the placed in- and out-neighbors.  Every vertex after
    the first of its weak component has a placed neighbor, and each
    component is finished before the next starts, so arcs that point back
    to lower labels prune as soon as forward ones do; the labels only break
    ties.  Each set is packed at its vertex's own block, and one sort
    restores the ascending order.

    A search node is a position of the order with its allowed values, and
    it checks forward to the next position: first it meets that vertex's
    other placed neighbors once, then for every cell it drops each single
    value under which the next allowed set is empty, since every set
    holding that value leaves it empty too.  For every cell a node walks
    each subset of the values left, for the 0-cells each single value in
    ascending order; each set meets the next allowed set with one lookup
    per arc to the next vertex, and only a nonempty one is handed down.
    The last vertex of the order makes no call: its single values, and
    for every cell its sets, go into the cell list as they are walked, and
    the walk tests each cell against ``limit`` only when it could pass it.
    """
    n = g.n
    if not n:
        return [0]  # the one empty map
    if not (limit and limit > 0):
        limit = None
    full = (1 << h.n) - 1
    shifts = _shifts(n, max(h.n, 1))
    out, inn = h._out, h._in
    looped = _mask_of(t for t in range(h.n) if out[t] >> t & 1)
    adj = [(o | i) & ~(1 << v) for v, (o, i) in enumerate(zip(g._out, g._in))]
    start = [looped if o >> v & 1 else full for v, o in enumerate(g._out)]
    order = []
    placed = 0
    rest = set(range(n))
    while rest:
        v = min(
            rest,
            key=lambda v: (-(adj[v] & placed).bit_count(), -adj[v].bit_count(), v),
        )
        rest.remove(v)
        order.append(v)
        placed |= 1 << v
    # Per position before the last: the vertex, its block offset and
    # whether it is looped; then, for the next vertex ``w``, its values
    # before any neighbor, its in- and out-neighbors placed before this
    # position, and whether the arcs ``v -> w`` and ``w -> v`` exist.
    steps = []
    placed = 0
    for v, w in zip(order, order[1:]):
        steps.append(
            (
                v,
                shifts[v],
                bool(g._out[v] >> v & 1),
                start[w],
                tuple(_bits(g._in[w] & placed)),
                tuple(_bits(g._out[w] & placed)),
                bool(g._out[v] >> w & 1),
                bool(g._in[v] >> w & 1),
            )
        )
        placed |= 1 << v
    last = order[-1]
    tail_shift, tail_loop = shifts[last], bool(g._out[last] >> last & 1)
    if n == 1 and max_dim == 0:
        return [1 << t for t in _bits(start[last])][:limit]
    # The common out- and in-neighborhoods in ``h`` of the value sets met
    # so far, read inline: the empty set's is every vertex, and the single
    # values' are there from the start.
    co = {0: full, **{1 << t: m for t, m in enumerate(out)}}
    ci = {0: full, **{1 << t: m for t, m in enumerate(inn)}}
    cells: list[int] = []

    def emit(acc: int, allowed: int) -> bool:
        """Append ``acc`` joined with each set of the last vertex inside
        ``allowed``, a clique when that vertex is looped; True once
        ``limit`` is hit."""
        # A walk that cannot reach ``limit`` skips the per-cell test.
        count = limit and len(cells) + (1 << allowed.bit_count()) > limit
        s = 0
        while s := (s - allowed) & allowed:
            if tail_loop:
                if (x := co.get(s)) is None:
                    x = _meet(co, out, s)
                if s & ~x:
                    continue
            cells.append(acc | s << tail_shift)
            if count and len(cells) == limit:
                return True
        return False

    if n == 1:
        emit(0, start[last])
        return cells
    masks = [0] * n
    end = n - 2

    def rec(i: int, acc: int, allowed: int) -> bool:
        """Extend the first ``i`` placements, packed in ``acc``, by the
        sets of position ``i`` inside ``allowed``; True once ``limit`` is
        hit."""
        v, shift, loop, base, ins, outs, fwd, bwd = steps[i]
        # The next vertex's values that its placed neighbors other than
        # ``v`` allow.
        for u in ins:
            if (x := co.get(masks[u])) is None:
                x = _meet(co, out, masks[u])
            base &= x
        for u in outs:
            if (x := ci.get(masks[u])) is None:
                x = _meet(ci, inn, masks[u])
            base &= x
        if not base:
            return False
        if max_dim == 0:
            # A looped vertex only allows looped values, so a single value
            # needs no clique test.
            while s := allowed & -allowed:
                allowed ^= s
                nxt = base
                if fwd:
                    nxt &= co[s]
                if bwd:
                    nxt &= ci[s]
                if not nxt:
                    continue
                if i == end:
                    a = acc | s << shift
                    while t := nxt & -nxt:
                        nxt ^= t
                        cells.append(a | t << tail_shift)
                    if limit and len(cells) >= limit:
                        del cells[limit:]
                        return True
                else:
                    masks[v] = s
                    if rec(i + 1, acc | s << shift, nxt):
                        return True
            return False
        if fwd or bwd:
            # A value that empties the next set is dead, and so is every
            # set holding it.
            rest = allowed
            while x := rest & -rest:
                rest ^= x
                if not (base & (co[x] if fwd else full) & (ci[x] if bwd else full)):
                    allowed ^= x
        # A looped vertex's set must be a clique of looped values: inside
        # its own common out-neighborhood.
        s = 0
        while s := (s - allowed) & allowed:
            nxt = base
            if loop or fwd:
                if (x := co.get(s)) is None:
                    x = _meet(co, out, s)
                if loop and s & ~x:
                    continue
                if fwd:
                    nxt &= x
            if bwd:
                if (x := ci.get(s)) is None:
                    x = _meet(ci, inn, s)
                nxt &= x
            if not nxt:
                continue
            if i == end:
                if emit(acc | s << shift, nxt):
                    return True
            else:
                masks[v] = s
                if rec(i + 1, acc | s << shift, nxt):
                    return True
        return False

    rec(0, 0, start[order[0]])
    cells.sort()
    return cells


def _meet(memo: dict[int, int], nbrs: Sequence[int], mask: int) -> int:
    """Store in ``memo`` and return the intersection of ``nbrs[x]`` over
    the bits ``x`` of ``mask``, a set ``memo`` lacks.  The entry is filled
    from ``mask`` less its lowest bit, one AND per set new to ``memo``;
    ``memo`` holds the empty set, so the recursion ends."""
    low = mask & -mask
    if (x := memo.get(mask ^ low)) is None:
        x = _meet(memo, nbrs, mask ^ low)
    x = memo[mask] = x & nbrs[low.bit_length() - 1]
    return x


def _arrows(g: Digraph, h: Digraph, cells: Sequence[int]) -> Callable[[int], int]:
    """The arrow rule of ``h ** g`` among the packed maps ``cells``: a
    function taking ``k`` to the successor bitset of ``cells[k]``, computed
    when asked.

    Bit ``j`` of ``succ(k)`` is set when ``cells[k] -> cells[j]``, that is
    when ``(f(v), f2(w))`` is an edge of ``h`` for every edge ``(v, w)`` of
    ``g``.  With ``at[w][t]`` the bitset of maps taking value ``t`` at
    ``w``, the successors of ``f`` are the AND over ``w`` of the OR of
    ``at[w][t]`` over the common out-neighborhood of ``f``'s values on the
    in-neighbors of ``w``: no per-pair test.  Maps that agree on those
    in-neighbors share the OR, so it is memoized per head and allowed set;
    nothing is kept per map.  The predecessors are the arrows of
    ``g.reverse()`` into ``h.reverse()``.
    """
    width = max(h.n, 1)
    block = (1 << width) - 1
    shifts = _shifts(g.n, width)
    # A vertex with no in-neighbor constrains nothing.  Each other vertex
    # keeps its in-neighbors' block offsets, its ``at`` row and its memo of
    # unions.
    heads = []
    for w in range(g.n):
        if g._in[w]:
            s = shifts[w]
            # Byte k is map k's value at ``w``, last map first, so each row
            # is one translation to binary digits: linear in the maps.  A
            # value fits in a byte as ``MAX_VERTICES <= 256``.
            values = bytes([(c >> s & block).bit_length() - 1 for c in reversed(cells)])
            at = [0] * h.n
            for t in set(values):
                at[t] = int(values.translate(b"0" * t + b"1" + b"0" * (255 - t)), 2)
            heads.append(([shifts[v] for v in _bits(g._in[w])], at, {}))
    full = (1 << h.n) - 1
    everything = (1 << len(cells)) - 1
    out = h._out

    def succ(k: int) -> int:
        c, s = cells[k], everything
        for tails, at, memo in heads:
            allowed = full
            for t in tails:
                allowed &= out[(c >> t & block).bit_length() - 1]
            if (union := memo.get(allowed)) is None:
                # The rows are disjoint, so their sum is their union.
                union = memo[allowed] = sum(at[t] for t in _bits(allowed))
            s &= union
        return s

    return succ


def contains_bipartite(g: Digraph, m: int, n: int) -> bool:
    """Does ``g`` contain a complete bipartite sub-digraph with all edges
    directed from an ``m``-set to a disjoint ``n``-set?

    The two sets need not be independent; only the ``m * n`` forward edges
    are required.
    """
    if m < 1 or n < 1:
        raise InvalidRange(f"block sizes must be at least 1, got ({m}, {n})")
    if m + n > g.n:
        return False
    full = (1 << g.n) - 1
    for src in itertools.combinations(range(g.n), m):
        common = full
        for a in src:
            common &= g.out_mask(a)
            if not common:
                break
        common &= ~_mask_of(src)
        if common.bit_count() >= n:
            return True
    return False
