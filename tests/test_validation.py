"""Argument checks that reject bad input with a named error.

One row per check: the call, the error class it must raise and a fragment
of the message.
"""

from __future__ import annotations

import pytest

from dihom import (
    Digraph,
    InvalidSize,
    InvalidVertex,
    MalformedPartition,
    Poset,
    ShapeMismatch,
    SimplicialComplex,
    SizeCapExceeded,
    VertexMap,
    contains_bipartite,
    exponential,
    induced_subgraph,
    interval_directed_looped,
    is_homomorphism,
    line_digraph,
    quotient,
)

_CASES = {
    "complex duplicate label": (
        lambda: SimplicialComplex([0, 0], []),
        InvalidVertex,
        "duplicate vertex label",
    ),
    "complex unknown face vertex": (
        lambda: SimplicialComplex([0, 1], [[0, 2]]),
        InvalidVertex,
        "unknown vertex 2",
    ),
    "suspension label clash": (
        lambda: SimplicialComplex([("susp", 0)], [[("susp", 0)]]).suspension(),
        InvalidVertex,
        "already used",
    ),
    "poset duplicate element": (
        lambda: Poset(["a", "a"], []),
        ValueError,
        "duplicate poset element",
    ),
    "poset a < a": (
        lambda: Poset(["a"], [("a", "a")]),
        ValueError,
        "not irreflexive",
    ),
    "poset unknown element": (
        lambda: Poset(["a"], [("a", "b")]),
        ValueError,
        "unknown poset element 'b'",
    ),
    "poset covers unknown element": (
        lambda: Poset.from_covers(["a"], [("b", "a")]),
        ValueError,
        "unknown poset element 'b'",
    ),
    "poset index of a non-element": (
        lambda: Poset(["a"], []).index("b"),
        KeyError,
        "'b'",
    ),
    "looped interval negative length": (
        lambda: interval_directed_looped(-1),
        InvalidSize,
        "non-negative",
    ),
    "line digraph negative length": (
        lambda: line_digraph(-1, []),
        InvalidSize,
        "non-negative",
    ),
    "negative vertex count": (
        lambda: Digraph(-1),
        InvalidVertex,
        "non-negative",
    ),
    "out_neighbors out of range": (
        lambda: Digraph(2).out_neighbors(2),
        InvalidVertex,
        "vertex 2 out of range",
    ),
    "exponential above 64 vertices": (
        lambda: exponential(Digraph(3), Digraph(4)),
        SizeCapExceeded,
        "81 vertices (limit 64)",
    ),
    "quotient empty class": (
        lambda: quotient(Digraph(2), [[0, 1], []]),
        MalformedPartition,
        "class 1 is empty",
    ),
    "quotient unknown vertex": (
        lambda: quotient(Digraph(2), [[0, 5]]),
        MalformedPartition,
        "unknown vertex 5",
    ),
    "induced subgraph out of range": (
        lambda: induced_subgraph(Digraph(2), [0, 2]),
        InvalidVertex,
        "vertex 2 out of range",
    ),
    "homomorphism image out of range": (
        lambda: is_homomorphism(VertexMap((0, 5)), Digraph(2), Digraph(2)),
        ShapeMismatch,
        "image vertex 5 out of range",
    ),
}


@pytest.mark.parametrize("call, error, fragment", _CASES.values(), ids=_CASES)
def test_bad_argument_is_named(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


def test_poset_strict_order_by_index():
    p = Poset(["a", "b"], [("a", "b")])
    assert p.index("b") == 1
    assert p.lt_index(0, 1) and not p.lt_index(1, 0)


def test_no_bipartite_in_an_edgeless_digraph():
    # Room for both blocks, but no edge to form them.
    assert not contains_bipartite(Digraph(3), 1, 1)
