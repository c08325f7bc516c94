"""Integral homology via Smith normal form: of simplicial complexes, and of
hom complexes through their cellular chains.

Both kinds of complex are products of simplices, and one function,
:func:`_cellular_chains`, builds every boundary matrix.  A hom complex
cell is a packed int of one vertex-set block per source vertex; a
simplicial complex is the one-block case, each face a bitmask over the
complex's vertex positions.  A cell's faces drop one member of a block
that holds two or more, and dropping member bit ``b`` of cell ``c`` has
sign ``(-1)^popcount(c & ((1 << b) - 1))``, the simplicial sign of the
cell's members in ascending bit order; for a simplex that is the usual
sign by position.

Everything here is *reduced* homology of the augmented chain complex: a
point has trivial homology everywhere, and the empty complex (whose only
face is the empty set) has one unit of homology in degree ``-1``.  The
void complex has no homology at all.

The Smith normal form routine is a sparse, pure-integer elimination;
Python's arbitrary-precision arithmetic means entry growth is a speed
concern, not a correctness one.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from .complexes import Poset, SimplicialComplex, _face_order, order_complex
from .digraph import DEFAULT_CAP, _faces
from .homcomplex import HomPoset


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors and rank of an integer matrix.

    Returns ``(factors, rank)`` where ``factors`` is the full chain of
    positive invariant factors ``d1 | d2 | ... | dr`` (units included) and
    ``rank == len(factors)``.
    """
    rows: dict[int, dict[int, int]] = {}
    for r, row in enumerate(matrix):
        entries = {c: int(v) for c, v in enumerate(row) if v}
        if entries:
            rows[r] = entries
    return _snf_sparse(rows)


def _snf_sparse(rows: dict[int, dict[int, int]]) -> tuple[tuple[int, ...], int]:
    cols: dict[int, dict[int, int]] = {}
    for r, row in rows.items():
        for c, v in row.items():
            cols.setdefault(c, {})[r] = v
    diagonal: list[int] = []

    def set_entry(r: int, c: int, v: int) -> None:
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
        else:
            row = rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del rows[r]
            col = cols.get(c)
            if col and r in col:
                del col[r]
                if not col:
                    del cols[c]

    def add_col(dst: int, src: int, q: int) -> None:
        # column dst += q * column src
        for r, v in list(cols.get(src, {}).items()):
            set_entry(r, dst, rows.get(r, {}).get(dst, 0) + q * v)

    def add_row(dst: int, src: int, q: int) -> None:
        for c, v in list(rows.get(src, {}).items()):
            set_entry(dst, c, rows.get(dst, {}).get(c, 0) + q * v)

    # An emptied column never fills again (entries are only ever written
    # into columns that hold an entry of the pivot row), so one pass over
    # the columns in order finds each pivot column.
    order = iter(sorted(cols))
    lead = next(order, None)
    while rows:
        while lead not in cols:
            lead = next(order)
        # Pivot: the entry of least magnitude in the first live column, on
        # the shortest row among those.
        col = cols[lead]
        pr = min(col, key=lambda r: (abs(col[r]), len(rows[r])))
        pc = lead
        # Euclidean steps until the pivot divides its whole row and column.
        while True:
            v = rows[pr][pc]
            offender = next(
                (c for c, x in rows[pr].items() if c != pc and x % v), None
            )
            if offender is not None:
                q = rows[pr][offender] // v
                add_col(offender, pc, -q)
                pc = offender  # remainder is strictly smaller
                continue
            offender = next(
                (r for r, x in cols[pc].items() if r != pr and x % v), None
            )
            if offender is not None:
                q = cols[pc][offender] // v
                add_row(offender, pr, -q)
                pr = offender
                continue
            break
        v = rows[pr][pc]
        for c in [c for c in rows[pr] if c != pc]:
            add_col(c, pc, -(rows[pr][c] // v))
        for r in [r for r in cols[pc] if r != pr]:
            add_row(r, pr, -(cols[pc][r] // v))
        diagonal.append(abs(v))
        set_entry(pr, pc, 0)

    # The elimination yields an equivalent diagonal matrix; sort it into a
    # divisibility chain with gcd/lcm exchanges.
    changed = True
    while changed:
        changed = False
        diagonal.sort()
        for i in range(len(diagonal) - 1):
            a, b = diagonal[i], diagonal[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diagonal[i], diagonal[i + 1] = g, a * b // g
                changed = True
    return tuple(diagonal), len(diagonal)


class HomologyGroups:
    """Finitely generated graded abelian groups, i.e. a rank and a torsion
    tuple per degree.  Zero groups are never stored, so two results compare
    equal iff they describe the same homology."""

    __slots__ = ("_ranks", "_torsion")

    def __init__(
        self,
        ranks: Mapping[int, int] | None = None,
        torsion: Mapping[int, Iterable[int]] | None = None,
    ):
        rs = {d: int(r) for d, r in (ranks or {}).items() if r}
        ts = {}
        for d, factors in (torsion or {}).items():
            t = tuple(int(f) for f in factors if int(f) > 1)
            if t:
                ts[d] = t
        object.__setattr__(self, "_ranks", rs)
        object.__setattr__(self, "_torsion", ts)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("HomologyGroups is immutable")

    def rank(self, degree: int) -> int:
        return self._ranks.get(degree, 0)

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self._torsion.get(degree, ())

    def degrees(self) -> list[int]:
        return sorted(set(self._ranks) | set(self._torsion))

    @property
    def is_trivial(self) -> bool:
        return not self._ranks and not self._torsion

    def is_trivial_from(self, degree: int) -> bool:
        return all(d < degree for d in self.degrees())

    def shifted(self, offset: int) -> "HomologyGroups":
        return HomologyGroups(
            {d + offset: r for d, r in self._ranks.items()},
            {d + offset: t for d, t in self._torsion.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomologyGroups):
            return NotImplemented
        return self._ranks == other._ranks and self._torsion == other._torsion

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted(self._ranks.items())),
                tuple(sorted(self._torsion.items())),
            )
        )

    def __repr__(self) -> str:
        if self.is_trivial:
            return "HomologyGroups(trivial)"
        parts = []
        for d in self.degrees():
            desc = []
            if self.rank(d):
                desc.append(f"Z^{self.rank(d)}" if self.rank(d) > 1 else "Z")
            desc.extend(f"Z/{t}" for t in self.torsion(d))
            parts.append(f"{d}: " + " + ".join(desc))
        return "HomologyGroups({" + ", ".join(parts) + "})"


def sphere_homology(n: int) -> HomologyGroups:
    """Reduced homology of the ``n``-sphere (``n = -1`` gives the empty
    complex's single unit in degree ``-1``)."""
    return HomologyGroups({n: 1})


class ChainComplex:
    """The augmented simplicial chain complex of a finite complex.

    A view over :func:`_cellular_chains` with the complex as one-block
    cells: within each dimension the faces come in packed order, i.e.
    ascending by their bitmask over vertex positions (not face-key
    order), and the empty face is the one cell in dimension ``-1``
    unless the complex is void.  Boundary matrices carry the usual
    alternating signs by position, so ``boundary . boundary == 0`` (the
    test suite checks it).
    """

    __slots__ = ("_x", "_ranks", "_boundaries")

    def __init__(self, x: SimplicialComplex):
        ranks, boundaries = _simplicial_chains(x)
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_boundaries", boundaries)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("ChainComplex is immutable")

    @property
    def faces(self) -> dict[int, list[frozenset]]:
        """The faces of each dimension, in row and column order."""
        x = self._x
        out: dict[int, list[frozenset]] = {} if x.is_void else {-1: [frozenset()]}
        for m in x._face_masks():
            out.setdefault(m.bit_count() - 1, []).append(x._face(m))
        return out

    def dimensions(self) -> list[int]:
        return sorted(self._ranks)

    def rank(self, d: int) -> int:
        return self._ranks.get(d, 0)

    def boundary_matrix(self, d: int) -> list[list[int]]:
        """Dense boundary matrix from ``d``-chains to ``(d-1)``-chains."""
        m = [[0] * self.rank(d) for _ in range(self.rank(d - 1))]
        for r, row in self._boundaries.get(d, {}).items():
            for j, s in row.items():
                m[r][j] = s
        return m

    def boundary_sparse(self, d: int) -> dict[int, dict[int, int]]:
        """Sparse boundary matrix ``{row: {column: entry}}``, a fresh copy."""
        return {r: dict(row) for r, row in self._boundaries.get(d, {}).items()}


def _simplicial_chains(
    x: SimplicialComplex,
) -> tuple[dict[int, int], dict[int, dict[int, dict[int, int]]]]:
    """The augmented chain complex of ``x``: its faces are cells of one
    block, so :func:`_cellular_chains` builds it.  The void complex, which
    lacks even the empty face, has no cells."""
    if x.is_void:
        return {}, {}
    return _cellular_chains(x._face_masks(), 1, max(len(x.vertices), 1))


def reduced_homology(x: SimplicialComplex) -> HomologyGroups:
    """Reduced integral homology of a simplicial complex."""
    return _homology(*_simplicial_chains(x))


def _homology(
    ranks: Mapping[int, int], boundaries: Mapping[int, dict[int, dict[int, int]]]
) -> HomologyGroups:
    """Homology of a chain complex with ``ranks[d]`` cells in degree ``d``
    and sparse boundary matrices ``boundaries[d]`` (rows are the
    ``(d-1)``-cells, columns the ``d``-cells; a missing degree is zero)."""
    snf = {d: _snf_sparse(b) for d, b in boundaries.items()}
    out = {}
    torsion = {}
    for d, n in ranks.items():
        factors_in, rank_in = snf.get(d + 1, ((), 0))
        out[d] = n - snf.get(d, ((), 0))[1] - rank_in
        torsion[d] = factors_in
    return HomologyGroups(out, torsion)


def _cellular_chains(
    cells: Iterable[int], n: int, w: int
) -> tuple[dict[int, int], dict[int, dict[int, dict[int, int]]]]:
    """Cell counts and boundary matrices of the augmented cellular chain
    complex of a hom complex, from its packed cells of ``n`` ``w``-bit blocks.
    A simplicial complex is the case ``n == 1``: a face is one block, the
    bitmask of its vertex positions.

    The facets of a cell are its faces under :func:`digraph._faces`.
    Dropping member bit ``b`` from cell ``c`` has sign
    ``(-1)^popcount(c & ((1 << b) - 1))``: the simplicial sign of the
    cell's members in ascending bit order.  For one block that is the
    usual sign by position.  For a product of simplices it is still an
    incidence function of the regular CW complex (every entry is ±1,
    ``∂∂ = 0``, the two ends of an edge get opposite signs), so the
    homology is the cellular homology (Massey, *A Basic Course in
    Algebraic Topology*, ch. IX).  Every 0-cell has boundary ``1 * ()``,
    the augmentation cell in degree ``-1``.  The cell set must be closed
    under dropping members.
    """
    index: dict[int, dict[int, int]] = {-1: {-1: 0}}  # the augmentation cell
    for c in cells:
        level = index.setdefault(c.bit_count() - n, {})
        level[c] = len(level)
    boundaries: dict[int, dict[int, dict[int, int]]] = {}
    if 0 in index:
        boundaries[0] = {0: dict.fromkeys(range(len(index[0])), 1)}
    for d, level in index.items():
        if d < 1:
            continue
        lower = index[d - 1]
        rows = boundaries[d] = {}
        for (c, j), faces in zip(level.items(), _faces(level, n, w)):
            for f in faces:
                below = c & (c ^ f) - 1
                rows.setdefault(lower[f], {})[j] = -1 if below.bit_count() & 1 else 1
    return {d: len(level) for d, level in index.items()}, boundaries


def homology_of_poset(p: Poset | HomPoset, cap: int = DEFAULT_CAP) -> HomologyGroups:
    """Reduced homology of a poset's order complex.

    A :class:`HomPoset` is the face poset of the hom complex, so its order
    complex is the hom complex subdivided: the homology is computed from
    the hom complex's own cellular chains (one cell per multihomomorphism,
    a product of simplices), and no order complex is built.  ``cap`` then
    plays no part, since :func:`hom_poset` already bounded the cells.  A
    plain :class:`Poset` goes through :func:`order_complex`, which raises
    :class:`SizeCapExceeded` beyond ``cap`` chains.
    """
    if isinstance(p, Poset):
        return reduced_homology(order_complex(p, cap))
    return _homology(*_cellular_chains(p._packed, p.source.n, p._width))


class LerayCertificate:
    """Outcome of a Leray check; truthy iff the property holds.

    On failure, ``witness_face`` and ``witness_degree`` identify a face
    whose link has nontrivial reduced homology in too high a degree.
    """

    __slots__ = ("holds", "witness_face", "witness_degree")

    def __init__(self, holds: bool, face=None, degree=None):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witness_face", face)
        object.__setattr__(self, "witness_degree", degree)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("LerayCertificate is immutable")

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        if self.holds:
            return "LerayCertificate(holds)"
        return (
            f"LerayCertificate(fails: link of {set(self.witness_face)} has "
            f"homology in degree {self.witness_degree})"
        )


def is_n_leray(x: SimplicialComplex, n: int) -> LerayCertificate:
    """Check that every link (the empty face included, so the complex
    itself too) has trivial reduced homology in degrees ``>= n``.

    Faces are visited by dimension, then by face key, and the first
    failing one is the witness.  The link of face ``f`` is read off the
    face masks as ``{g ^ f : g ⊋ f}`` and goes straight to the chains.
    """
    if x.is_void:
        return LerayCertificate(True)
    masks = x._face_masks()
    w = max(len(x.vertices), 1)
    for f in [0, *sorted(masks, key=_face_order)]:
        link = [g ^ f for g in masks if g & f == f and g != f]
        for d in _homology(*_cellular_chains(link, 1, w)).degrees():
            if d >= n:
                return LerayCertificate(False, x._face(f), d)
    return LerayCertificate(True)
