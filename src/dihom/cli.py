"""Command line front end.

Graphs travel as small JSON documents::

    {"vertices": 3, "edges": [[0, 1], [1, 2]], "labels": ["a", "b", "c"]}

``labels`` is optional and purely cosmetic.  All subcommands print a JSON
object by default (``--format table`` renders the same data as aligned
text); given identical inputs and flags the output is byte-identical
between runs.

Exit codes: 0 on success, 1 for domain errors (bad input files, empty hom
sets, caps exceeded, ...), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Sequence

from . import __version__
from .complexes import in_neighborhood_complex, out_neighborhood_complex
from .constructions import (
    automorphism_group_order,
    enumerate_tournaments,
    mycielskian,
    sphere_tournament,
    transitive_tournament,
)
from .digraph import DEFAULT_CAP, Digraph, VertexMap, _decode_maps, _multihoms
from .errors import DihomError, EmptyHom, ParseError, SizeCapExceeded
from .homcomplex import hom_poset
from .homology import HomologyGroups, homology_of_poset, is_n_leray, reduced_homology
from .homotopy import _fold_to_stiff, _HomRelations, _is_looped_point
from .morse import is_acyclic_matching, tournament_matching
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
    seen: dict[tuple[int, int], int] = {}
    edges = []
    for i, entry in enumerate(raw_edges):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
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
        edges.append((u, v))
    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != n
            or not all(isinstance(s, str) for s in labels)
        ):
            raise ParseError(f'"labels" must be an array of {n} strings')
    return Digraph(n, edges)


def emit_digraph(g: Digraph, labels: Sequence[str] | None = None) -> str:
    """Canonical text form of a digraph (sorted edges, stable key order)."""
    doc: dict[str, Any] = {"vertices": g.n, "edges": sorted(map(list, g.edges))}
    if labels is not None:
        doc["labels"] = list(labels)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_graph(path: str) -> Digraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
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


def _graph_json(g: Digraph) -> dict[str, Any]:
    return {"vertices": g.n, "edges": sorted(map(list, g.edges))}


def _render(obj: Any, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
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
    p = hom_poset(g, h, ns.cap)
    census = sorted(p.dimension_census().items())
    out: dict[str, Any] = {
        "cells": len(p),
        "dimension_census": [[d, c] for d, c in census],
        "euler_characteristic": p.euler_characteristic(),
        "homomorphisms": len(p.minimal_cells()),
        "connected": p.is_connected(),
    }
    if 0 < len(p) <= _HOMOLOGY_CELL_LIMIT:
        out["homology"] = _homology_json(homology_of_poset(p, ns.cap))
    else:
        out["homology"] = None
    return out


def _cmd_nbd(ns: argparse.Namespace) -> Any:
    g = _load_graph(ns.graph)
    nb = out_neighborhood_complex(g)
    # The in-complex always has the same homology, so one block covers both.
    out: dict[str, Any] = {
        "vertices": list(nb.vertices),
        "out_facets": sorted(sorted(f) for f in nb.facets),
        "in_facets": sorted(sorted(f) for f in in_neighborhood_complex(g).facets),
        "euler_characteristic": nb.euler_characteristic(),
        "homology": _homology_json(reduced_homology(nb)),
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
    cells = _multihoms(g, transitive_tournament(ns.n), max_dim=1, limit=cap + 1)
    if len(cells) > cap:
        raise SizeCapExceeded(f"hom one-skeleton exceeds cap of {ns.cap} cells")
    maps = [c for c in cells if c.bit_count() == g.n]
    if not maps:
        raise EmptyHom(f"no homomorphisms into the transitive tournament T_{ns.n}")
    # Into T_n the skeleton is connected, and its diameter is the Hamming
    # distance of the pointwise min and max maps, the first and the last.
    out: dict[str, Any] = {
        "homomorphisms": len(maps),
        "edges": len(cells) - len(maps),
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
    rel = _HomRelations(g, h)
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
    ts = enumerate_tournaments(ns.n)
    return {
        "count": len(ts),
        "tournaments": [
            {
                "edges": sorted(map(list, t.edges)),
                "automorphisms": automorphism_group_order(t),
            }
            for t in ts
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
    p = hom_poset(g, transitive_tournament(ns.n), ns.cap)
    matching = tournament_matching(g, ns.n, ns.cap, poset=p)
    return {
        "cells": len(p),
        "pairs": matching._sizes()[0],
        "critical": [
            [sorted(s) for s in c.assignments] for c in matching.critical
        ],
        "acyclic": is_acyclic_matching(p, matching),
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


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
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
