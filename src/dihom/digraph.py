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

import functools
import itertools
from typing import Iterable, Iterator, Sequence

from . import _graph
from .errors import (
    InvalidRange,
    InvalidVertex,
    MalformedPartition,
    ShapeMismatch,
    SizeCapExceeded,
)

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


class Digraph:
    """An immutable directed graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.  Must be between 0 and 64; larger vertex sets
        are rejected with :class:`SizeCapExceeded` because neighborhoods
        are stored as 64-bit masks.
    edges:
        Iterable of ordered pairs ``(u, v)``.  Loops ``(v, v)`` are fine,
        duplicates collapse.
    """

    __slots__ = ("n", "edges", "_out", "_in")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count must be non-negative, got {n}")
        if n > MAX_VERTICES:
            raise SizeCapExceeded(f"at most {MAX_VERTICES} vertices supported, got {n}")
        out = [0] * n
        inn = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) out of range for {n} vertices")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_out", tuple(out))
        object.__setattr__(self, "_in", tuple(inn))
        object.__setattr__(
            self,
            "edges",
            frozenset((u, v) for u in range(n) for v in _bits(out[u])),
        )

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Digraph is immutable")

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


class VertexMap:
    """A vertex map ``f : {0..k-1} -> ints``, stored as an image tuple.

    This is plain data: whether it is a homomorphism between specific
    graphs is checked by :func:`is_homomorphism`.  Maps order and hash by
    their image tuple, so sorted containers of maps are lexicographic.
    """

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        object.__setattr__(self, "image", tuple(image))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("VertexMap is immutable")

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
    n = g.n * h.n
    edges = []
    for a, c in g.edges:
        for b, d in h.edges:
            edges.append((a * h.n + b, c * h.n + d))
    return Digraph(n, edges)


def coproduct(g: Digraph, h: Digraph) -> Digraph:
    """Disjoint union; the second summand's labels are shifted by ``g.n``."""
    edges = list(g.edges)
    edges.extend((u + g.n, v + g.n) for (u, v) in h.edges)
    return Digraph(g.n + h.n, edges)


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
    maps = exponential_maps(h, g)
    edges = [(i, j) for i, succ in enumerate(_arrows(g, h, maps)) for j in succ]
    return Digraph(count, edges)


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
    """The multihomomorphisms ``g -> h`` of dimension at most ``max_dim``,
    as cells in ascending order, stopping after ``limit`` cells.

    Backtracks vertex by vertex, restricting each assignment set to the
    common neighborhoods of the already-assigned neighbors and trying the
    sets in increasing mask order.
    """
    n = g.n
    full = (1 << h.n) - 1
    shifts = _shifts(n, max(h.n, 1))
    looped = _mask_of(t for t in range(h.n) if h._out[t] >> t & 1)
    co = functools.cache(lambda mask: _common(h._out, mask, full))
    ci = functools.cache(lambda mask: _common(h._in, mask, full))
    in_masks = [g._in[v] & ((1 << v) - 1) for v in range(n)]
    out_masks = [g._out[v] & ((1 << v) - 1) for v in range(n)]
    loops = [bool(g._out[v] >> v & 1) for v in range(n)]
    cells: list[int] = []
    masks = [0] * n

    def rec(v: int, acc: int, budget: int | None) -> bool:
        """Extend the first ``v`` assignments, packed in ``acc``, spending
        at most ``budget`` extra values; True once ``limit`` is hit."""
        if v == n:
            cells.append(acc)
            return len(cells) == limit
        allowed = looped if loops[v] else full
        for u in _bits(in_masks[v]):
            allowed &= co(masks[u])
        for u in _bits(out_masks[v]):
            allowed &= ci(masks[u])
        shift = shifts[v]
        if budget is None:
            s = 0
            while s := (s - allowed) & allowed:
                if not loops[v] or s & ~co(s) == 0:
                    masks[v] = s
                    if rec(v + 1, acc | s << shift, None):
                        return True
            return False
        # Form only the sets of at most budget + 1 values: walking every
        # subset of ``allowed`` and discarding the big ones costs 2**|allowed|.
        values = [1 << t for t in _bits(allowed)]
        sizes = range(1, min(budget + 1, len(values)) + 1)
        sets = [sum(c) for k in sizes for c in itertools.combinations(values, k)]
        for s in sorted(sets):
            if not loops[v] or s & ~co(s) == 0:
                masks[v] = s
                if rec(v + 1, acc | s << shift, budget + 1 - s.bit_count()):
                    return True
        return False

    rec(0, 0, max_dim)
    return cells


def _common(nbrs: Sequence[int], mask: int, full: int) -> int:
    """The intersection of ``full`` and ``nbrs[x]`` over the bits of ``mask``."""
    for x in _bits(mask):
        full &= nbrs[x]
    return full


def _arrows(g: Digraph, h: Digraph, maps: Sequence[VertexMap]) -> list[list[int]]:
    """Successor lists of the arrows of ``h ** g`` among ``maps``.

    ``f -> f2`` when ``(f(v), f2(w))`` is an edge of ``h`` for every edge
    ``(v, w)`` of ``g``.  Each map is packed as one bit per (vertex, value)
    and each map's reach as, at every vertex ``w``, the common
    out-neighborhood of its values on the in-neighbors of ``w``; an arrow is
    then one mask test.
    """
    full, shifts = (1 << h.n) - 1, _shifts(g.n, max(h.n, 1))
    packed = [sum(1 << t << s for t, s in zip(f.image, shifts)) for f in maps]
    succ = []
    for f in maps:
        reach = 0
        for w, s in enumerate(shifts):
            values = _mask_of(f.image[v] for v in _bits(g._in[w]))
            reach |= _common(h._out, values, full) << s
        succ.append([j for j, p in enumerate(packed) if not p & ~reach])
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
