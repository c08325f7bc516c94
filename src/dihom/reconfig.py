"""Reconfiguration of homomorphisms and oriented colorings.

Connectivity questions about the one-skeleton of the hom complex: can one
homomorphism be turned into another by single-vertex moves, and how many
moves are needed?  Against transitive tournaments the answer is tight —
the pointwise minimum of two homomorphisms is a homomorphism, and walking
through it realizes the Hamming distance exactly.  So into ``T_n`` the
skeleton is connected when nonempty, with diameter the count of vertices
where the pointwise min and max of all maps differ.  For any target, both
:func:`is_connected_hom` and :func:`diameter` search for the
homomorphisms alone and read the adjacency that ``homcomplex._skeleton``
builds from them: two maps are joined when they differ at one vertex,
whose two values, if it has a loop, are joined both ways in the target.
The first labels its components.  The second runs a breadth-first
search from every map, apart on each weak component of the source,
since distances in a product add.  Neither builds a vertex map.
``dihom reconfig`` builds no adjacency at all: into ``T_n`` it counts
the edges off the maps.
"""

from __future__ import annotations

from . import _graph
from .constructions import enumerate_tournaments, transitive_tournament
from .digraph import (
    Digraph,
    VertexMap,
    _multihoms,
    _split,
    has_homomorphism,
    is_homomorphism,
)
from .errors import (
    Disconnected,
    EmptyHom,
    HasLoop,
    NotAHomomorphism,
    SizeCapExceeded,
)
from .homcomplex import _skeleton


def is_connected_hom(g: Digraph, h: Digraph) -> bool:
    """Is the one-skeleton of the hom complex connected?

    Raises :class:`EmptyHom` when there are no homomorphisms at all.
    """
    adj = _skeleton(_multihoms(g, h, max_dim=0), g, h)
    if not adj:
        raise EmptyHom("no homomorphisms to connect")
    return len(_graph.components(adj)) == 1


def diameter(g: Digraph, h: Digraph) -> int:
    """Largest reconfiguration distance between homomorphisms ``g -> h``.

    Runs a breadth-first search from every map, for any target (into
    ``T_n`` it is the count of vertices where ⊥ and ⊤, the pointwise min
    and max of all maps, differ).  A source of two or more weak components
    has the product complex, whose one-skeleton is the Cartesian product
    of the factors' skeletons, so the diameter is the sum of the factors'
    diameters and each factor is searched on its own.  Raises
    :class:`EmptyHom` when there are no maps, which every factor is
    checked for first, and :class:`Disconnected` when some pair is
    unreachable.
    """
    factors = [f for _, f in _split(g)]
    adjs = [_skeleton(_multihoms(f, h, max_dim=0), f, h) for f in factors]
    if not all(adjs):
        raise EmptyHom("no homomorphisms")
    if any(len(_graph.components(adj)) > 1 for adj in adjs):
        raise Disconnected("the hom complex is not connected")
    return sum(
        max(max(_graph.bfs_distances(adj, i)) for i in range(len(adj)))
        for adj in adjs
    )


def meet_path(
    f: VertexMap, g: VertexMap, source: Digraph, n: int
) -> list[VertexMap]:
    """A reconfiguration path from ``f`` to ``g`` in the hom complex of
    ``(source, T_n)`` through their pointwise minimum.

    The path changes vertices where the minimum disagrees with ``f`` in
    increasing order of their ``g``-value, then walks back up to ``g``
    symmetrically; its length is exactly the Hamming distance between the
    endpoints.  Both endpoints are included in the returned list.
    """
    target = transitive_tournament(n)
    for m in (f, g):
        if not is_homomorphism(m, source, target):
            raise NotAHomomorphism(f"{m!r} is not a homomorphism into T_{n}")

    def leg(start: VertexMap, other: VertexMap) -> list[VertexMap]:
        # Walk from start down to the meet, lowering vertices where the
        # other map is smaller, in increasing other-value order.
        moved = sorted(
            (v for v in range(source.n) if other.image[v] < start.image[v]),
            key=lambda v: (other.image[v], v),
        )
        path = [start]
        current = list(start.image)
        for v in moved:
            current[v] = other.image[v]
            path.append(VertexMap(current))
        return path

    down = leg(f, g)  # f .. meet
    up = leg(g, f)  # g .. meet
    return down + up[-2::-1]


def oriented_chromatic_number(g: Digraph) -> tuple[int, Digraph]:
    """Smallest tournament size admitting a homomorphism from ``g``,
    together with a witness tournament.

    Only defined for loopless digraphs (:class:`HasLoop` otherwise).  The
    search is exhaustive over tournaments on up to 7 vertices; digraphs
    needing more raise :class:`SizeCapExceeded`, and so at once does
    anything with a bidirected pair, which can never map to a tournament.
    """
    for v in range(g.n):
        if g.has_loop(v):
            raise HasLoop(f"vertex {v} has a loop")
    for u, v in sorted(g.edges):
        if g.has_edge(v, u):
            raise SizeCapExceeded(
                f"the bidirected pair ({u}, {v}) maps to no tournament"
            )
    if g.n == 0:
        return 0, Digraph(0)
    for n in range(1, 8):
        for t in enumerate_tournaments(n):
            if has_homomorphism(g, t):
                return n, t
    raise SizeCapExceeded(
        "no tournament on up to 7 vertices admits a homomorphism"
    )
