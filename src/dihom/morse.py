"""Discrete Morse matchings and collapsibility.

A partial matching on a poset pairs elements along covering relations.  It
is *acyclic* when the Hasse diagram, with matched covers pointing up and
all other covers pointing down, has no directed cycle.  An acyclic
matching with one critical cell on the face poset of a complex certifies
collapsibility.

Besides the generic checker this module provides the explicit matching
that collapses homomorphism posets into transitive tournaments, and two
facet-driven collapsing engines for simplicial complexes.
"""

from __future__ import annotations

import itertools
import random
from typing import Hashable, Iterable, Sequence

from . import _graph
from .complexes import Poset, SimplicialComplex
from .constructions import transitive_tournament
from .digraph import DEFAULT_CAP, Digraph, _shifts
from .errors import (
    EmptyHom,
    InvalidMatching,
    InvalidVariant,
    NotAcyclic,
    ShapeMismatch,
)
from .homcomplex import HomPoset, hom_poset


class Matching:
    """A partial matching: ``pairs`` of (lower, upper) cells plus the
    leftover ``critical`` cells.  Plain data; validation against a poset
    happens in :func:`is_acyclic_matching`."""

    __slots__ = ("pairs", "critical")

    def __init__(
        self,
        pairs: Iterable[tuple[Hashable, Hashable]],
        critical: Iterable[Hashable],
    ):
        object.__setattr__(self, "pairs", tuple((a, b) for a, b in pairs))
        object.__setattr__(self, "critical", tuple(critical))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Matching is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return set(self.pairs) == set(other.pairs) and set(self.critical) == set(
            other.critical
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.pairs), frozenset(self.critical)))

    def __repr__(self) -> str:
        return f"Matching({len(self.pairs)} pairs, {len(self.critical)} critical)"


def is_acyclic_matching(p: Poset | HomPoset, m: Matching) -> bool:
    """Validate ``m`` against ``p`` and check acyclicity.

    Raises :class:`InvalidMatching` when a pair is not a covering relation,
    an element is matched twice, or pairs and critical cells fail to
    partition the poset.  Returns ``False`` exactly when the modified Hasse
    diagram has a directed cycle.  A :class:`Poset` and a
    :class:`HomPoset` take the same path, through their covers.
    """
    locate = p._find
    # Lower covers of each cell; after the flips below they are the
    # successor lists of the modified Hasse diagram.
    succ: list[list[int]] = [[] for _ in range(len(p))]
    for i, j in p.covering_index_pairs():
        succ[j].append(i)
    matched = []
    used: set[int] = set()
    for a, b in m.pairs:
        ia, ib = locate(a), locate(b)
        if ia is None or ib is None:
            raise InvalidMatching(f"pair ({a!r}, {b!r}) mentions unknown cells")
        if ia not in succ[ib]:
            raise InvalidMatching(f"({a!r}, {b!r}) is not a covering pair")
        if ia in used or ib in used:
            raise InvalidMatching("a cell appears in two pairs")
        used.update((ia, ib))
        matched.append((ia, ib))
    crit = set()
    for c in m.critical:
        ic = locate(c)
        if ic is None:
            raise InvalidMatching(f"unknown critical cell {c!r}")
        if ic in used or ic in crit:
            raise InvalidMatching(f"cell {c!r} is both matched and critical")
        crit.add(ic)
    if len(used) + len(crit) != len(p):
        raise InvalidMatching("pairs and critical cells do not partition the poset")

    # Modified Hasse diagram: matched covers point up, the rest point down.
    for i, j in matched:
        succ[j].remove(i)
        succ[i].append(j)
    return _graph.topological_order(succ) is not None


def _peel_levels(g: Digraph) -> list[int]:
    """Longest-path-from-vertex levels of a DAG (sinks are level 0)."""
    succ = [list(g.out_neighbors(v)) for v in range(g.n)]
    order = _graph.topological_order(succ)
    if order is None:
        raise NotAcyclic("digraph has a directed cycle")
    level = [0] * g.n
    for v in reversed(order):
        level[v] = max((level[w] + 1 for w in succ[v]), default=0)
    return level


def tournament_matching(
    g: Digraph,
    n: int,
    cap: int = DEFAULT_CAP,
    poset: HomPoset | None = None,
) -> Matching:
    """The acyclic matching that collapses the hom poset of ``(g, T_n)``
    (``T_n`` the transitive tournament) to a single critical cell.

    Peels the DAG ``g`` one sink layer at a time.  A sink at peel level
    ``l`` gets the value ``n - 1 - l``; among the cells agreeing with all
    previously frozen sinks, those containing the value at the current sink
    are matched with the cells obtained by removing it.  The single
    unmatched cell is the homomorphism sending each vertex to its level
    value.

    Raises :class:`NotAcyclic` for non-DAGs, :class:`EmptyHom` when
    there is no homomorphism (a directed path on more than ``n`` vertices)
    and :class:`ShapeMismatch` when ``poset`` is given but is not the hom
    poset of ``(g, T_n)``.
    """
    level = _peel_levels(g)
    if g.n and max(level) >= n:
        raise EmptyHom(
            f"no homomorphism: longest directed path has {max(level) + 1} vertices"
        )
    t = transitive_tournament(n)
    if poset is None:
        poset = hom_poset(g, t, cap)
    elif poset.source != g or poset.target != t:
        raise ShapeMismatch(f"{poset!r} is not the hom poset of the source into T_{n}")
    by_level: dict[int, list[int]] = {}
    for v in range(g.n):
        by_level.setdefault(level[v], []).append(v)
    # Work on the packed cells: vertex a's assignment is the block at
    # ``offsets[a]``.
    full = (1 << poset._width) - 1
    offsets = _shifts(g.n, poset._width)
    uppers: list[int] = []
    lowers: list[int] = []
    live = poset._packed
    for lvl in sorted(by_level):
        bit = 1 << n - 1 - lvl
        for a in sorted(by_level[lvl]):
            offset = offsets[a]
            survivors = []
            for c in live:
                mask = c >> offset & full
                if mask == bit:
                    survivors.append(c)
                elif mask & bit:
                    uppers.append(c)
                    lowers.append(c ^ bit << offset)
                # cells without the bit are exactly the lowers added above
            live = survivors
    pairs = zip(poset._views(lowers), poset._views(uppers))
    return Matching(pairs, poset._views(live))


# ---------------------------------------------------------------------------
# Facet-driven collapsing of simplicial complexes
# ---------------------------------------------------------------------------


class _FacetComplex:
    """Mutable working copy of a complex: facets plus, for every face, the
    number of facets containing it.  A face is *free* when that count is 1
    and it is not itself the facet."""

    def __init__(self, x: SimplicialComplex):
        self.positions = {v: i for i, v in enumerate(x.vertices)}
        self.facets: set[frozenset] = set()
        self.count: dict[frozenset, int] = {}
        for f in x.facets:
            self.add_facet(f)

    def key(self, face: frozenset) -> tuple[int, ...]:
        return tuple(sorted(self.positions[v] for v in face))

    def add_facet(self, f: frozenset) -> None:
        self.facets.add(f)
        elems = tuple(f)
        for k in range(len(elems) + 1):
            for sub in itertools.combinations(elems, k):
                s = frozenset(sub)
                self.count[s] = self.count.get(s, 0) + 1

    def remove_facet(self, f: frozenset) -> None:
        self.facets.discard(f)
        elems = tuple(f)
        for k in range(len(elems) + 1):
            for sub in itertools.combinations(elems, k):
                s = frozenset(sub)
                c = self.count[s] - 1
                if c:
                    self.count[s] = c
                else:
                    del self.count[s]

    def free_faces(self) -> list[frozenset]:
        return [
            f
            for f, c in self.count.items()
            if c == 1 and f and f not in self.facets
        ]

    def facet_over(self, face: frozenset) -> frozenset:
        for f in self.facets:
            if face <= f:
                return f
        raise KeyError(face)

    def collapse(self, tau: frozenset, sigma: frozenset) -> None:
        """Remove the interval ``[tau, sigma]``; re-expose the rest of the
        boundary of ``sigma`` as new facets where needed."""
        self.remove_facet(sigma)
        for t in tau:
            delta = sigma - {t}
            if self.count.get(delta, 0) == 0:
                self.add_facet(delta)

    def to_complex(self, vertices: Sequence) -> SimplicialComplex:
        return SimplicialComplex(vertices, self.facets)


class CollapseResult:
    """Outcome of :func:`collapse_free_pairs`: the fixpoint complex and the
    ordered, replayable log of removed free pairs."""

    __slots__ = ("complex", "log")

    def __init__(self, complex: SimplicialComplex, log: tuple):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "log", log)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("CollapseResult is immutable")

    def __repr__(self) -> str:
        return f"CollapseResult({len(self.log)} collapses)"


def collapse_free_pairs(
    x: SimplicialComplex,
    strategy: str = "lex",
    seed: int | None = None,
) -> CollapseResult:
    """Repeatedly remove free pairs until none remain.

    A free pair is a face ``tau`` properly contained in exactly one facet
    ``sigma``; removing it deletes the whole interval ``[tau, sigma]``.

    * ``strategy="lex"`` picks the smallest pair by
      ``(dim tau, dim sigma, key tau, key sigma)`` each round, so the run
      is fully deterministic.
    * ``strategy="random"`` draws the free face uniformly using ``seed``.

    The returned log can be replayed with :func:`replay_collapses`.
    """
    if strategy not in ("lex", "random"):
        raise InvalidVariant(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    work = _FacetComplex(x)
    log: list[tuple[frozenset, frozenset]] = []
    while True:
        free = work.free_faces()
        if not free:
            break
        if strategy == "lex":
            min_dim = min(len(f) for f in free)
            best = None
            for tau in free:
                if len(tau) != min_dim:
                    continue
                sigma = work.facet_over(tau)
                cand = (len(sigma), work.key(tau), work.key(sigma), tau, sigma)
                if best is None or cand[:3] < best[:3]:
                    best = cand
            tau, sigma = best[3], best[4]
        else:
            tau = rng.choice(sorted(free, key=work.key))
            sigma = work.facet_over(tau)
        work.collapse(tau, sigma)
        log.append((tau, sigma))
    return CollapseResult(work.to_complex(x.vertices), tuple(log))


def replay_collapses(
    x: SimplicialComplex, log: Iterable[tuple[frozenset, frozenset]]
) -> SimplicialComplex:
    """Re-apply a collapse log, verifying every step is a free pair."""
    work = _FacetComplex(x)
    for step, (tau, sigma) in enumerate(log):
        if work.count.get(tau, 0) != 1 or tau in work.facets or not tau:
            raise ValueError(f"step {step}: {set(tau)} is not a free face")
        if work.facet_over(tau) != sigma:
            raise ValueError(f"step {step}: {set(sigma)} is not the facet over the face")
        work.collapse(tau, sigma)
    return work.to_complex(x.vertices)


def random_discrete_morse(x: SimplicialComplex, seed: int) -> tuple[int, ...]:
    """Random discrete Morse vector: collapse random free pairs, and when
    stuck remove a random top-dimensional facet as a critical cell.

    Returns the per-dimension critical cell counts, indexed from 0 to the
    dimension of the input.  A collapsible complex can report an optimal
    ``(1, 0, ..., 0)``, but random runs may do worse; the counts always
    bound the Betti numbers from above.
    """
    rng = random.Random(seed)
    top = max((len(f) - 1 for f in x.facets), default=-1)
    counts = [0] * (top + 1)
    work = _FacetComplex(x)
    while work.facets and work.facets != {frozenset()}:
        free = work.free_faces()
        if free:
            tau = rng.choice(sorted(free, key=work.key))
            work.collapse(tau, work.facet_over(tau))
            continue
        dim = max(len(f) for f in work.facets) - 1
        tops = sorted((f for f in work.facets if len(f) - 1 == dim), key=work.key)
        sigma = rng.choice(tops)
        counts[dim] += 1
        work.collapse(sigma, sigma)  # just the facet; its boundary stays
    return tuple(counts)
