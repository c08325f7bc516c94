"""Homomorphism complexes of digraph pairs.

A *multihomomorphism* from ``G`` to ``H`` assigns a nonempty set of
``H``-vertices to every ``G``-vertex so that every edge of ``G`` maps to a
complete set of edges: ``a(u) x a(v)`` must lie in ``E(H)`` for every edge
``(u, v)`` (loops included, so a looped ``G``-vertex needs its whole
assignment set mutually adjacent and looped in ``H``).

Ordered under pointwise inclusion, the multihomomorphisms form the face
poset of a polyhedral complex: :func:`hom_poset` materializes it.  Its
minimal cells are the plain homomorphisms; cells where a single vertex
carries a doubled assignment are the edges of :func:`hom_one_skeleton`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from . import _graph
from .complexes import (
    Poset,
    SimplicialComplex,
    face_poset,
    out_neighborhood_complex,
)
from .constructions import transitive_tournament
from .digraph import (
    DEFAULT_CAP,
    Digraph,
    VertexMap,
    _Frozen,
    _bits,
    _decode_maps,
    _faces,
    _multihoms,
    _pack,
    _shifts,
    _unpack,
)
from .errors import EmptyComplex, InvalidRange, ShapeMismatch, SizeCapExceeded


class MultiHom(_Frozen):
    """A tuple of nonempty vertex sets, one per source vertex.

    Pure data, stored as bitmasks; whether it actually is a
    multihomomorphism for a given graph pair is the business of
    :func:`is_multihom` and :func:`hom_poset`.
    """

    __slots__ = ("_masks",)

    def __init__(self, assignments: Iterable[Iterable[int]]):
        masks = []
        for s in assignments:
            m = 0
            for v in s:
                if v < 0:
                    raise ShapeMismatch(f"negative vertex {v} in assignment")
                m |= 1 << v
            if m == 0:
                raise ShapeMismatch("assignment sets must be nonempty")
            masks.append(m)
        object.__setattr__(self, "_masks", tuple(masks))

    @classmethod
    def _from_masks(cls, masks: tuple[int, ...]) -> "MultiHom":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_masks", masks)
        return obj

    @property
    def masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def assignments(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_bits(m)) for m in self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self._masks[v]))

    def dimension(self) -> int:
        """Cell dimension: total assignment size minus the vertex count."""
        return sum(m.bit_count() - 1 for m in self._masks)

    def leq(self, other: "MultiHom") -> bool:
        """Pointwise containment."""
        return len(self._masks) == len(other._masks) and all(
            a & ~b == 0 for a, b in zip(self._masks, other._masks)
        )

    def is_singleton(self) -> bool:
        return all(m.bit_count() == 1 for m in self._masks)

    def singleton_map(self) -> VertexMap:
        if not self.is_singleton():
            raise ShapeMismatch("cell has a non-singleton assignment")
        return VertexMap(m.bit_length() - 1 for m in self._masks)

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Deterministic sort key: per-vertex sorted member tuples.

        This is not the order of :attr:`HomPoset.cells`, which sorts by
        mask tuple (``(1,)`` before ``(0, 1)``)."""
        return tuple(tuple(_bits(m)) for m in self._masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiHom):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"MultiHom({[sorted(s) for s in self.assignments]})"


def multihom_of_map(f: VertexMap) -> MultiHom:
    """The all-singleton cell of a vertex map."""
    return MultiHom._from_masks(tuple(1 << t for t in f.image))


def is_multihom(a: MultiHom, g: Digraph, h: Digraph) -> bool:
    """Does ``a`` satisfy the edge condition for the pair ``(g, h)``?

    Raises :class:`ShapeMismatch` when the assignment tuple has the wrong
    length or mentions vertices outside ``h``.
    """
    if len(a) != g.n:
        raise ShapeMismatch(f"cell has {len(a)} assignments, graph has {g.n} vertices")
    full = (1 << h.n) - 1
    for m in a.masks:
        if m & ~full:
            raise ShapeMismatch("assignment mentions a vertex outside the target")
    for u, v in g.edges:
        target = a.masks[v]
        for x in _bits(a.masks[u]):
            if target & ~h.out_mask(x):
                return False
    return True


class HomPoset(_Frozen):
    """The poset of all multihomomorphisms ``g -> h`` under pointwise
    inclusion.

    Each cell is stored as one packed int, ``w = max(h.n, 1)`` bits per
    source vertex with vertex 0 in the most significant block, and the
    cells are sorted by that int: lexicographic by mask tuple, which is
    not :meth:`MultiHom.key` order (``{0, 1}`` comes after ``{1}``).  The
    0-cells are still in lexicographic map order.  The sorted packed
    cells are all that is kept per cell: ``in`` and :meth:`index` bisect
    them, and :class:`MultiHom` is only the view at the boundary
    (:attr:`cells` is built on first use).
    A cell's faces come from :func:`digraph._faces` (drop one member of
    a block that holds two or more), the same rule the chain complex,
    the one-skeleton and the Morse check use; because the cell set is
    closed downwards, the covers are exactly the faces of each cell.  The
    constructor raises :class:`ShapeMismatch` for a cell that is not a
    multihomomorphism ``source -> target`` or whose face is missing, and
    when a 1-cell between two of the 0-cells is missing: the components
    are read off the 0-cells, which would join them.
    """

    __slots__ = ("source", "target", "_width", "_packed", "_cells")

    def __init__(self, source: Digraph, target: Digraph, cells: Iterable[MultiHom]):
        n, w = source.n, max(target.n, 1)
        packed = {}
        for c in cells:
            k = _pack(c.masks, n, w) if isinstance(c, MultiHom) else None
            if k is None:
                raise ShapeMismatch(f"{c!r} is not a cell of {n} sets in 0..{w - 1}")
            if not is_multihom(c, source, target):
                raise ShapeMismatch(f"{c!r} is not a multihomomorphism")
            packed[k] = c
        for c, faces in zip(packed.values(), _faces(packed, n, w)):
            if not all(f in packed for f in faces):
                raise ShapeMismatch(f"{c!r} is in the cells but a face of it is not")
        self._fill(source, target, sorted(packed))
        # Each 1-cell here joins two of the 0-cells, so equal counts mean
        # that every edge the one-skeleton reads off the 0-cells is here.
        edges = sum(map(len, _skeleton(self._maps(), source, target))) // 2
        if edges != sum(k.bit_count() == n + 1 for k in packed):
            raise ShapeMismatch("a 1-cell between two of the 0-cells is missing")

    def _fill(self, source: Digraph, target: Digraph, packed: list[int]) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_width", max(target.n, 1))
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "_cells", None)

    def _views(self, packed: Iterable[int]) -> Iterator[MultiHom]:
        return map(MultiHom._from_masks, _unpack(packed, self.source.n, self._width))

    @property
    def cells(self) -> tuple[MultiHom, ...]:
        if self._cells is None:
            object.__setattr__(self, "_cells", tuple(self._views(self._packed)))
        return self._cells

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[MultiHom]:
        return iter(self.cells)

    def _find(self, cell: object) -> int | None:
        """The index of ``cell``, or ``None`` when it is not a cell here."""
        if not isinstance(cell, MultiHom):
            return None
        return self._position(_pack(cell.masks, self.source.n, self._width))

    def _position(self, k: int | None) -> int | None:
        """The index of the packed cell ``k``, or ``None`` when it is not a
        cell here."""
        # A mask that ``_pack`` rejects is ``None``, which equals no cell.
        i = bisect_left(self._packed, k or 0)
        return i if self._packed[i : i + 1] == [k] else None

    def __contains__(self, cell: object) -> bool:
        return self._find(cell) is not None

    def index(self, cell: MultiHom) -> int:
        i = self._find(cell)
        if i is None:
            raise KeyError(cell)
        return i

    def leq(self, a: MultiHom, b: MultiHom) -> bool:
        return a.leq(b)

    def _maps(self) -> list[int]:
        """The packed 0-cells, ascending."""
        return [c for c in self._packed if c.bit_count() == self.source.n]

    def minimal_cells(self) -> list[MultiHom]:
        """The honest homomorphisms (all-singleton cells)."""
        return list(self._views(self._maps()))

    def homomorphisms(self) -> list[VertexMap]:
        return [c.singleton_map() for c in self.minimal_cells()]

    def maximal_cells(self) -> list[MultiHom]:
        below = {i for i, _ in self.covering_index_pairs()}
        return [c for i, c in enumerate(self.cells) if i not in below]

    def covering_index_pairs(self) -> list[tuple[int, int]]:
        """All covers ``(i, j)``: cell ``i`` is cell ``j`` minus one member."""
        index = {c: i for i, c in enumerate(self._packed)}
        faces = _faces(self._packed, self.source.n, self._width)
        return [(index[f], j) for j, fs in enumerate(faces) for f in fs]

    def dimension_census(self) -> dict[int, int]:
        n = self.source.n
        census: dict[int, int] = {}
        for c in self._packed:
            d = c.bit_count() - n
            census[d] = census.get(d, 0) + 1
        return census

    def euler_characteristic(self) -> int:
        """Alternating cell count of the polyhedral complex."""
        return sum((-1) ** d * k for d, k in self.dimension_census().items())

    def components(self) -> list[list[MultiHom]]:
        """The cells of each component, in order of their least cell.

        A cell lies in the component of the 0-cell below it that keeps the
        lowest member of each block, so only the one-skeleton, read off the
        0-cells, is searched.  That 0-cell is also the least of the cells it
        is assigned, hence the order."""
        maps = self._maps()
        comps = _graph.components(_skeleton(maps, self.source, self.target))
        label = {maps[i]: k for k, comp in enumerate(comps) for i in comp}
        # Every block is nonempty, so subtracting one from each borrows
        # nothing across blocks, and ``c & ~(c - ones)`` keeps the lowest
        # member of each.
        ones = sum(1 << s for s in _shifts(self.source.n, self._width))
        out: list[list[MultiHom]] = [[] for _ in comps]
        for c, view in zip(self._packed, self.cells):
            out[label[c & ~(c - ones)]].append(view)
        return out

    def is_connected(self) -> bool:
        # A complex is connected exactly when its one-skeleton is.
        adj = _skeleton(self._maps(), self.source, self.target)
        return len(_graph.components(adj)) == 1

    def as_poset(self) -> Poset:
        covers = [
            (self.cells[i], self.cells[j]) for i, j in self.covering_index_pairs()
        ]
        return Poset.from_covers(self.cells, covers)

    def __repr__(self) -> str:
        return f"HomPoset({len(self)} cells)"


def hom_poset(g: Digraph, h: Digraph, cap: int = DEFAULT_CAP) -> HomPoset:
    """Materialize the full multihomomorphism poset of ``(g, h)``; raises
    :class:`SizeCapExceeded` after ``cap`` cells."""
    cells = _multihoms(g, h, limit=max(cap, 0) + 1)
    if len(cells) > max(cap, 0):
        raise SizeCapExceeded(f"hom poset exceeds cap of {cap} cells")
    # The search's cells are strictly ascending already.
    p = object.__new__(HomPoset)
    p._fill(g, h, cells)
    return p


def _factor_posets(
    parts: Sequence[tuple[list[int], Digraph]], h: Digraph, cap: int = DEFAULT_CAP
) -> list[HomPoset]:
    """The hom posets into ``h`` of the factor sources ``parts`` of a
    disjoint union (:func:`digraph._split`), whose product is the union's
    hom poset; for one part, the whole hom poset.

    An empty factor makes the product empty, so it alone is returned, even
    when another factor exceeds ``cap``.  Otherwise raises
    :class:`SizeCapExceeded`, as :func:`hom_poset` does, when the product
    has more than ``cap`` cells.
    """
    posets = []
    over = False
    for _, g in parts:
        try:
            p = hom_poset(g, h, cap)
        except SizeCapExceeded:
            over = True
            continue
        if not len(p):
            return [p]
        posets.append(p)
    if over or math.prod(map(len, posets)) > max(cap, 0):
        raise SizeCapExceeded(f"hom poset exceeds cap of {cap} cells")
    return posets


class HomSkeleton(_Frozen):
    """The homomorphisms ``g -> h`` with the adjacency of the complex's
    one-skeleton.

    Two maps are adjacent when they differ at exactly one vertex *and* the
    doubled assignment at that vertex is still a multihomomorphism.  The
    second condition is what loops in ``g`` add: at a looped vertex the two
    values must also be joined both ways in ``h`` (see the tests for a
    two-looped-vertices example where the skeleton stays edgeless).  So the
    adjacency is read off the maps alone, with no search for 1-cells.

    Only the maps, their ascending neighbour tuples and the map index are
    stored; :attr:`edges` is derived from the neighbours when it is read.
    """

    __slots__ = ("maps", "_adj", "_index")

    def __init__(self, maps: Iterable[VertexMap], adj: Iterable[Iterable[int]]):
        ms = tuple(maps)
        object.__setattr__(self, "maps", ms)
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(ms)})

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The adjacent pairs ``(i, j)`` of map indices, ``i < j``."""
        return frozenset((i, j) for i, js in enumerate(self._adj) for j in js if i < j)

    def index(self, f: VertexMap) -> int:
        return self._index[f]

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def bfs_distances(self, start: int) -> list[int]:
        return _graph.bfs_distances(self._adj, start)

    def components(self) -> list[list[int]]:
        return _graph.components(self._adj)

    def is_connected(self) -> bool:
        return len(self.maps) > 0 and len(self.components()) == 1

    def __repr__(self) -> str:
        return f"HomSkeleton({len(self.maps)} maps, {len(self.edges)} edges)"


def hom_one_skeleton(g: Digraph, h: Digraph) -> HomSkeleton:
    """Vertices and edges of the homomorphism complex of ``(g, h)``."""
    maps = _multihoms(g, h, max_dim=0)
    return HomSkeleton(_decode_maps(maps, g.n, max(h.n, 1)), _skeleton(maps, g, h))


def _skeleton(maps: Sequence[int], g: Digraph, h: Digraph) -> list[list[int]]:
    """The one-skeleton of the hom complex of ``(g, h)``, read off its
    ascending 0-cells ``maps``: ``adj[i]`` lists the positions of the
    neighbours of ``maps[i]``, ascending.

    A 1-cell doubles one vertex's block, so two maps are joined when they
    differ at exactly one vertex ``v``; if ``v`` has a loop in ``g``, their
    two values there must also be joined both ways in ``h``.  So for each
    vertex the maps are grouped by their other blocks, and the pairs inside
    a group are its edges.  Every connectivity and reconfiguration question
    reads this builder.
    """
    full = (1 << h.n) - 1
    adj: list[list[int]] = [[] for _ in maps]
    for v, s in enumerate(_shifts(g.n, max(h.n, 1))):
        loop = g.has_loop(v)
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(maps):
            groups.setdefault(c & ~(full << s), []).append(i)
        for group in groups.values():
            if len(group) > 1:
                for k, i in enumerate(group):
                    if loop:
                        # The values joined both ways to ``t``, map
                        # ``i``'s value at ``v``, placed in ``v``'s block.
                        t = (maps[i] >> s & full).bit_length() - 1
                        ok = (h._out[t] & h._in[t]) << s
                        adj[i] += [j for j in group if maps[j] & ok and j != i]
                    else:
                        adj[i] += group[:k] + group[k + 1 :]
    for js in adj:
        js.sort()
    return adj


# ---------------------------------------------------------------------------
# The nu closure operator
# ---------------------------------------------------------------------------


class NuReduction(_Frozen):
    """The closure operator ``X -> outN(inN(X))`` on the nonempty faces of
    the out-neighborhood complex, together with its image.

    ``order_complex_dimension`` is the longest-chain dimension of the image
    poset, which is what the dimension bounds for bipartite-free digraphs
    are about.
    """

    __slots__ = ("face_poset", "mapping", "image_poset", "image_complex")

    def __init__(
        self,
        poset: Poset,
        mapping: dict[frozenset, frozenset],
        image_poset: Poset,
        image_complex: SimplicialComplex,
    ):
        object.__setattr__(self, "face_poset", poset)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "image_poset", image_poset)
        object.__setattr__(self, "image_complex", image_complex)

    @property
    def order_complex_dimension(self) -> int:
        """Length (in edges) of the longest chain in the image poset."""
        p = self.image_poset
        succ: list[list[int]] = [[] for _ in p.elements]
        for i, j in p.covering_index_pairs():
            succ[i].append(j)
        return max(_graph.levels(succ), default=-1)

    def __repr__(self) -> str:
        return (
            f"NuReduction({len(self.face_poset.elements)} faces -> "
            f"{len(self.image_poset.elements)} closed faces)"
        )


def closure_nu(g: Digraph, cap: int = DEFAULT_CAP) -> NuReduction:
    """Compute the closure operator on the out-neighborhood face poset.

    Raises :class:`EmptyComplex` when the digraph has no edges (so the
    complex has no nonempty faces).
    """
    nb = out_neighborhood_complex(g)
    p = face_poset(nb, cap)
    if not p.elements:
        raise EmptyComplex("the out-neighborhood complex has no nonempty faces")
    full = (1 << g.n) - 1

    def nu(face: frozenset) -> frozenset:
        senders = full
        for x in face:
            senders &= g.in_mask(x)
        closed = full
        for y in _bits(senders):
            closed &= g.out_mask(y)
        return frozenset(_bits(closed))

    mapping = {f: nu(f) for f in p.elements}
    image = sorted(set(mapping.values()), key=nb.face_key)
    relation = [
        (a, b) for a, b in itertools.permutations(image, 2) if a < b
    ]
    image_poset = Poset(image, relation)
    image_complex = SimplicialComplex(nb.vertices, image)
    return NuReduction(p, mapping, image_poset, image_complex)


# ---------------------------------------------------------------------------
# Staircase cells
# ---------------------------------------------------------------------------


class StaircaseCell(_Frozen):
    """A maximal cell of the hom poset of two transitive tournaments,
    packaged with the interval-partition certificate."""

    __slots__ = ("cell", "blocks", "target_size")

    def __init__(self, cell: MultiHom, target_size: int):
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "blocks", cell.key())
        object.__setattr__(self, "target_size", target_size)

    @property
    def is_staircase(self) -> bool:
        """Do the blocks form consecutive intervals partitioning the target?

        Blocks are sorted and nonempty, so this holds exactly when there is
        a block and the blocks read in order spell ``0 .. target_size-1``.
        """
        return bool(self.blocks) and [v for b in self.blocks for v in b] == list(
            range(self.target_size)
        )

    def __repr__(self) -> str:
        return f"StaircaseCell({[list(b) for b in self.blocks]})"


def staircase_cells(m: int, n: int, cap: int = DEFAULT_CAP) -> list[StaircaseCell]:
    """Maximal cells of the hom poset of transitive tournaments ``m <= n``.

    Every maximal cell partitions ``0 .. n-1`` into ``m`` consecutive
    intervals, so there are ``C(n-1, m-1)`` of them; the certificates let
    callers verify that shape directly.
    """
    if not (2 <= m <= n):
        raise InvalidRange(f"need 2 <= m <= n, got ({m}, {n})")
    p = hom_poset(transitive_tournament(m), transitive_tournament(n), cap)
    return [StaircaseCell(c, n) for c in p.maximal_cells()]
