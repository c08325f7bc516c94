"""Command line front end.

Graphs travel as small JSON documents::

    {"vertices": 3, "edges": [[0, 1], [1, 2]], "labels": ["a", "b", "c"]}

``labels`` is optional and purely cosmetic.  All subcommands print a JSON
object by default (``--format table`` renders the same data as aligned
text); given identical inputs and flags the output is byte-identical
between runs.  The JSON is indented by two spaces, has its keys sorted,
escapes every non-ASCII character and ends in a newline: it is exactly
``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, as is the text of
:func:`emit_digraph`.

Exit codes: 0 on success, 1 for domain errors (bad input files, empty hom
sets, caps exceeded, ...), 2 for usage errors.

:func:`run` may be called any number of times in one process.  It builds
its parser on the first call and reuses it for every later one, so a call
pays only for its own arguments, files and result; :func:`build_parser`
returns a fresh parser each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from collections import Counter
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import and_
from typing import Any, Sequence

from . import __version__
from .complexes import in_neighborhood_complex, out_neighborhood_complex
from .constructions import (
    _tournament_classes,
    digraph_from_key,
    enumerate_tournaments,
    mycielskian,
    sphere_tournament,
    transitive_tournament,
)
from .digraph import (
    DEFAULT_CAP,
    Digraph,
    VertexMap,
    _decode_maps,
    _multihoms,
    _split,
)
from .errors import DihomError, EmptyHom, NotAcyclic, ParseError, SizeCapExceeded
from .homcomplex import _factor_posets
from .homology import (
    HomologyGroups,
    _kunneth,
    homology_of_poset,
    is_n_leray,
    reduced_homology,
)
from .homotopy import _fold_to_stiff, _HomRelations, _is_looped_point
from .morse import _stage_matching, _stages, is_acyclic_matching
from .reconfig import meet_path

# Posets larger than this skip the homology computation in `hom` output.
_HOMOLOGY_CELL_LIMIT = 4000


# ---------------------------------------------------------------------------
# Graph (de)serialization
# ---------------------------------------------------------------------------


def parse_digraph(text: str) -> Digraph:
    """Parse the JSON graph format; raise :class:`ParseError` on trouble.

    Syntax errors carry the line and column; semantic errors (duplicate
    edges, out-of-range endpoints, bad labels) name the offending entry.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object at the top level")
    unknown = set(doc) - {"vertices", "edges", "labels"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    if "vertices" not in doc:
        raise ParseError('missing required field "vertices"')
    n = doc["vertices"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError('"vertices" must be a non-negative integer')
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be an array of [u, v] pairs')
    # Edge -> its index; a duplicate raises, so the keys are the edges in
    # input order.
    seen: dict[tuple[int, int], int] = {}
    # ``json.loads`` builds exact lists and ints, so exact type tests
    # accept what it gives and still reject ``true`` as an endpoint.
    for i, entry in enumerate(raw_edges):
        if not (
            type(entry) is list
            and len(entry) == 2
            and type(entry[0]) is int
            and type(entry[1]) is int
        ):
            raise ParseError(f"edge {i} must be a pair of integers, got {entry!r}")
        u, v = entry
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {i} = [{u}, {v}] out of range for {n} vertices")
        if (u, v) in seen:
            raise ParseError(
                f"edge {i} = [{u}, {v}] duplicates edge {seen[(u, v)]}"
            )
        seen[(u, v)] = i
    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != n
            or not all(isinstance(s, str) for s in labels)
        ):
            raise ParseError(f'"labels" must be an array of {n} strings')
    return Digraph(n, seen)


def _graph_json(g: Digraph) -> dict[str, Any]:
    return {"vertices": g.n, "edges": sorted(map(list, g.edges))}


def emit_digraph(g: Digraph, labels: Sequence[str] | None = None) -> str:
    """Canonical text form of a digraph (sorted edges, stable key order)."""
    doc = _graph_json(g)
    if labels is not None:
        doc["labels"] = list(labels)
    return _json(doc, "\n") + "\n"


def _load_graph(path: str) -> Digraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text (byte {e.start})") from None
    try:
        return parse_digraph(text)
    except ParseError as e:
        location = f":{e.line}:{e.column}" if e.line is not None else ""
        raise ParseError(f"{path}{location}: {e}") from None


def _parse_map(text: str) -> VertexMap:
    try:
        return VertexMap(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# Shared rendering helpers
# ---------------------------------------------------------------------------


def _homology_json(h: HomologyGroups) -> list[dict[str, Any]]:
    return [
        {"dim": d, "rank": h.rank(d), "torsion": list(h.torsion(d))}
        for d in h.degrees()
    ]


_CONSTANTS = {None: "null", True: "true", False: "false"}
_INT = {int}
_STR = {str}


def _json(obj: Any, nl: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with each newline
    written as ``nl``, the newline and indent of the enclosing level.

    The stdlib's C encoder does not take ``indent`` before Python 3.14, so
    the call runs its pure-Python encoder.  This writer builds the same
    text from exact lists, ints, strs, str-keyed dicts, bools and None,
    with a list of ints joined in one call; any other value is handed to
    ``json.dumps`` and re-indented, so every value gives the stdlib's text.
    """
    t = type(obj)
    if t is list:
        if not obj:
            return "[]"
        inner = nl + "  "
        if set(map(type, obj)) == _INT:
            items = map(int.__repr__, obj)
        else:
            items = [_json(x, inner) for x in obj]
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if t is int:
        return int.__repr__(obj)
    if t is dict and set(map(type, obj)) == _STR:
        inner = nl + "  "
        items = [
            f"{encode_basestring_ascii(k)}: {_json(obj[k], inner)}" for k in sorted(obj)
        ]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if t is str:
        return encode_basestring_ascii(obj)
    if obj is None or t is bool:
        return _CONSTANTS[obj]
    # Floats, tuples, empty dicts, dicts with other keys, subclasses of int
    # or bool.  JSON text holds no raw newline inside a string, so the
    # replace only re-indents.
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _render(obj: Any, fmt: str) -> str:
    if fmt == "json":
        return _json(obj, "\n") + "\n"
    return _render_table(obj)


def _render_table(obj: Any, indent: str = "") -> str:
    lines: list[str] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{indent}{key}:")
                lines.append(_render_table(value, indent + "  ").rstrip("\n"))
            else:
                lines.append(f"{indent}{key}: {_scalar(value)}")
    elif isinstance(obj, list):
        if obj and all(isinstance(row, dict) for row in obj):
            keys = sorted({k for row in obj for k in row})
            table = [[_scalar(row.get(k, "")) for k in keys] for row in obj]
            widths = [
                max(len(keys[c]), *(len(r[c]) for r in table)) for c in range(len(keys))
            ]
            lines.append(
                indent + "  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()
            )
            for r in table:
                lines.append(
                    indent + "  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
                )
        else:
            for value in obj:
                lines.append(f"{indent}- {_scalar(value)}")
    else:
        lines.append(f"{indent}{_scalar(obj)}")
    return "\n".join(lines) + "\n"


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_hom(ns: argparse.Namespace) -> Any:
    g = _load_graph(ns.source)
    h = _load_graph(ns.target)
    # A source of two or more weak components has the product of their
    # hom posets, so only the factors are built.
    posets = _factor_posets(_split(g), h, ns.cap)
    # A product cell's dimension is the sum of its factors' dimensions.
    census = posets[0].dimension_census()
    for p in posets[1:]:
        product: Counter[int] = Counter()
        for d, k in census.items():
            for e, m in p.dimension_census().items():
                product[d + e] += k * m
        census = product
    cells = math.prod(map(len, posets))
    # The 0-cells are the homomorphisms, and the Euler characteristic is
    # the alternating sum of the same census.
    out: dict[str, Any] = {
        "cells": cells,
        "dimension_census": [[d, c] for d, c in sorted(census.items())],
        "euler_characteristic": sum((-1) ** d * c for d, c in census.items()),
        "homomorphisms": census.get(0, 0),
    }
    if 0 < cells <= _HOMOLOGY_CELL_LIMIT:
        homology = _kunneth([homology_of_poset(p, ns.cap) for p in posets])
        # A nonempty complex is connected exactly when its reduced H_0 is
        # zero, so no one-skeleton is built.
        out["connected"] = not homology.rank(0)
        out["homology"] = _homology_json(homology)
    else:
        out["connected"] = all(p.is_connected() for p in posets)
        out["homology"] = None
    return out


def _cmd_nbd(ns: argparse.Namespace) -> Any:
    g = _load_graph(ns.graph)
    nb = out_neighborhood_complex(g)
    h = reduced_homology(nb)
    # The Euler characteristic is read off the homology, so no face is
    # enumerated.  A graph with no vertices gives the void complex, which
    # has no faces and characteristic 0.  The sign is an int: the complex
    # {∅} has its homology in degree -1, where (-1) ** d is a float.
    euler = 0 if nb.is_void else 1 + sum(
        -h.rank(d) if d % 2 else h.rank(d) for d in h.degrees()
    )
    # The in-complex always has the same homology, so one block covers both.
    out: dict[str, Any] = {
        "vertices": list(nb.vertices),
        "out_facets": sorted(sorted(f) for f in nb.facets),
        "in_facets": sorted(sorted(f) for f in in_neighborhood_complex(g).facets),
        "euler_characteristic": euler,
        "homology": _homology_json(h),
    }
    if ns.check_leray is not None:
        cert = is_n_leray(nb, ns.check_leray)
        out["leray"] = {
            "n": ns.check_leray,
            "holds": cert.holds,
            "witness_face": sorted(cert.witness_face) if not cert.holds else None,
            "witness_degree": cert.witness_degree,
        }
    return out


def _cmd_fold(ns: argparse.Namespace) -> Any:
    g = _load_graph(ns.graph)
    trace, stiff = _fold_to_stiff(g)
    return {
        # Fold pairs refer to the labels at the step they were taken
        # (deleting a vertex shifts the labels above it down).
        "fold_trace": [list(f) for f in trace],
        "stiff": _graph_json(stiff),
        "dismantlable": _is_looped_point(stiff),
    }


def _cmd_reconfig(ns: argparse.Namespace) -> Any:
    g = _load_graph(ns.graph)
    cap = max(ns.cap, 0)
    t = transitive_tournament(ns.n)
    # A map into T_n exists exactly when the source has the stages of the
    # collapse, so a source without one fails before any search.
    try:
        _stages(g, ns.n)
    except (NotAcyclic, EmptyHom):
        raise EmptyHom(
            f"no homomorphisms into the transitive tournament T_{ns.n}"
        ) from None
    maps = _multihoms(g, t, max_dim=0, limit=cap + 1)
    # The source is loopless, so two maps are joined exactly when they
    # differ at one vertex: per vertex block, C(m, 2) edges for each m maps
    # that are equal once the block is masked out.
    edges = 0
    for s in range(0, g.n * ns.n, ns.n):
        if len(maps) + edges <= cap:
            counts = Counter(map(and_, maps, repeat(~((1 << ns.n) - 1 << s))))
            edges += sum(m * (m - 1) // 2 for m in counts.values())
    if len(maps) + edges > cap:
        raise SizeCapExceeded(f"hom one-skeleton exceeds cap of {ns.cap} cells")
    # Into T_n the skeleton is connected, and its diameter is the Hamming
    # distance of the pointwise min and max maps, the first and the last.
    out: dict[str, Any] = {
        "homomorphisms": len(maps),
        "edges": edges,
        "connected": True,
        "diameter": (maps[0] ^ maps[-1]).bit_count() // 2,
    }
    if ns.seed is not None:
        rng = random.Random(ns.seed)
        ends = rng.choice(maps), rng.choice(maps)
    else:
        ends = maps[0], maps[-1]
    a, b = _decode_maps(ends, g.n, ns.n)
    path = meet_path(a, b, g, ns.n)
    out["sample_path"] = {
        "from": list(a.image),
        "to": list(b.image),
        "length": len(path) - 1,
        "path": [list(m.image) for m in path],
    }
    return out


def _cmd_homotopy(ns: argparse.Namespace) -> Any:
    g = _load_graph(ns.source)
    h = _load_graph(ns.target)
    f1 = _parse_map(ns.f)
    f2 = _parse_map(ns.g)
    rel = _HomRelations(g, h, ns.cap)
    return {
        "f": list(f1.image),
        "g": list(f2.image),
        "bihomotopic": rel.bihomotopic(f1, f2),
        "dihomotopic": rel.dihomotopic(f1, f2),
        "dihomotopic_reverse": rel.dihomotopic(f2, f1),
        "line_homotopic": rel.line_homotopic(f1, f2),
    }


def _cmd_table1(ns: argparse.Namespace) -> Any:
    rows = []
    for i, t in enumerate(enumerate_tournaments(5)):
        nb = out_neighborhood_complex(t)
        degrees = sorted((t.out_degree(v) for v in range(5)), reverse=True)
        rows.append(
            {
                "index": i,
                "outdegree_sequence": degrees,
                "edges": sorted(map(list, t.edges)),
                "homology": _homology_json(reduced_homology(nb)),
            }
        )
    return {"count": len(rows), "tournaments": rows}


def _cmd_tournaments(ns: argparse.Namespace) -> Any:
    classes = _tournament_classes(ns.n)
    return {
        "count": len(classes),
        "tournaments": [
            {
                "edges": sorted(map(list, digraph_from_key(ns.n, key).edges)),
                "automorphisms": count,
            }
            for key, count in classes
        ],
    }


def _cmd_mycielski(ns: argparse.Namespace) -> Any:
    g = _load_graph(ns.graph)
    return _graph_json(mycielskian(g, ns.variant))


def _cmd_sphere(ns: argparse.Namespace) -> Any:
    t = sphere_tournament(ns.n)
    nb = out_neighborhood_complex(t)
    return {
        "graph": _graph_json(t),
        "facets": sorted(sorted(f) for f in nb.facets),
    }


def _cmd_morse(ns: argparse.Namespace) -> Any:
    g = _load_graph(ns.graph)
    # The whole source is checked against T_n before any search, as
    # tournament_matching does.
    t = transitive_tournament(ns.n)
    stages = _stages(g, ns.n)
    # A source of two or more weak components has the product of the
    # factors' posets, and the product of their matchings: a cell is
    # critical when all its factors are, and otherwise pairs by the first
    # factor whose cell is matched.  That matching is acyclic when each
    # factor's is (Patchwork theorem, Kozlov 2008, Thm 11.10).
    parts = _split(g)
    posets = _factor_posets(parts, t, ns.cap)
    # A vertex's level is a longest path inside its own component, and the
    # peel sorts stably by label, so a factor's own peel is the whole
    # peel's stages at its vertices, relabelled.
    matchings = []
    for (vs, _), p in zip(parts, posets):
        index = {v: i for i, v in enumerate(vs)}
        own = [(index[a], bit) for a, bit in stages if a in index]
        matchings.append(_stage_matching(p, own))
    # Each factor has one critical cell, so the product has one, put back
    # together in source vertex order.
    critical: list[list[int]] = [[]] * g.n
    for (vs, _), m in zip(parts, matchings):
        (c,) = m.critical
        for v, s in zip(vs, c.assignments):
            critical[v] = sorted(s)
    cells = math.prod(map(len, posets))
    return {
        "cells": cells,
        "pairs": (cells - 1) // 2,
        "critical": [critical],
        "acyclic": all(is_acyclic_matching(m._poset, m) for m in matchings),
    }


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dihom",
        description="Homomorphism complexes of directed graphs.",
    )
    parser.add_argument("--version", action="version", version=f"dihom {__version__}")
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help="cell/chain cap for enumerations (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="seed for randomized choices"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="hom poset of a graph pair")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("nbd", help="out/in neighborhood complexes of a graph")
    p.add_argument("graph")
    p.add_argument("--check-leray", type=int, default=None, metavar="N")
    p.set_defaults(func=_cmd_nbd)

    p = sub.add_parser("fold", help="fold to the stiff reduction")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("reconfig", help="reconfiguration into a transitive tournament")
    p.add_argument("graph")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_reconfig)

    p = sub.add_parser("homotopy", help="compare two homomorphisms")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_homotopy)

    p = sub.add_parser("table1", help="classify 5-vertex tournaments by homology")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("tournaments", help="tournaments up to isomorphism")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_tournaments)

    p = sub.add_parser("mycielski", help="directed Mycielskian of a graph")
    p.add_argument("graph")
    p.add_argument("variant", type=int, choices=(1, 2, 3))
    p.set_defaults(func=_cmd_mycielski)

    p = sub.add_parser("sphere", help="sphere tournament and its facets")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_sphere)

    p = sub.add_parser("morse", help="collapsing matching onto a tournament target")
    p.add_argument("graph")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_morse)

    return parser


# One parser per process, built on first use; parse_args leaves it as it was.
_parser = functools.cache(build_parser)


def run(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        result = ns.func(ns)
    except DihomError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(_render(result, ns.format))
    return 0


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
