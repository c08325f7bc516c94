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

:func:`run` may be called any number of times in one process.  The
grammar is one command table, ``_COMMANDS``.  Argv of the exact form
(global ``--flag value`` pairs, the subcommand, then its positionals and
its own ``--flag value`` pairs in any order) is read from that table with
no parser.  Help, version, ``--opt=value``, abbreviations, negative
numbers, ``--`` and every usage error go through argparse unchanged; its
parser is built from the same table on first need and reused.
:func:`build_parser` returns a fresh parser each time.
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
from typing import Any, Callable, NamedTuple, Sequence

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


class _Positional(NamedTuple):
    dest: str
    type: Callable[[str], Any] | None = None
    choices: tuple[Any, ...] | None = None


class _Option(NamedTuple):
    flag: str
    dest: str
    type: Callable[[str], Any] | None = None
    default: Any = None
    metavar: str | None = None
    choices: tuple[Any, ...] | None = None
    help: str | None = None


class _Command(NamedTuple):
    func: Callable[[argparse.Namespace], Any] | None
    help: str
    positionals: tuple[_Positional, ...] = ()
    options: tuple[_Option, ...] = ()


# The grammar of the command line, read by both build_parser and
# _read_argv.  The entry under None is the program itself: its help is the
# description and its options are the global ones.
_COMMANDS: dict[str | None, _Command] = {
    None: _Command(
        None,
        "Homomorphism complexes of directed graphs.",
        options=(
            _Option(
                "--format",
                "format",
                default="json",
                choices=("json", "table"),
                help="output format",
            ),
            _Option(
                "--cap",
                "cap",
                int,
                DEFAULT_CAP,
                help="cell/chain cap for enumerations (default %(default)s)",
            ),
            _Option("--seed", "seed", int, help="seed for randomized choices"),
        ),
    ),
    "hom": _Command(
        _cmd_hom,
        "hom poset of a graph pair",
        (_Positional("source"), _Positional("target")),
    ),
    "nbd": _Command(
        _cmd_nbd,
        "out/in neighborhood complexes of a graph",
        (_Positional("graph"),),
        (_Option("--check-leray", "check_leray", int, metavar="N"),),
    ),
    "fold": _Command(_cmd_fold, "fold to the stiff reduction", (_Positional("graph"),)),
    "reconfig": _Command(
        _cmd_reconfig,
        "reconfiguration into a transitive tournament",
        (_Positional("graph"), _Positional("n", int)),
    ),
    "homotopy": _Command(
        _cmd_homotopy,
        "compare two homomorphisms",
        tuple(map(_Positional, ("source", "target", "f", "g"))),
    ),
    "table1": _Command(_cmd_table1, "classify 5-vertex tournaments by homology"),
    "tournaments": _Command(
        _cmd_tournaments, "tournaments up to isomorphism", (_Positional("n", int),)
    ),
    "mycielski": _Command(
        _cmd_mycielski,
        "directed Mycielskian of a graph",
        (_Positional("graph"), _Positional("variant", int, (1, 2, 3))),
    ),
    "sphere": _Command(
        _cmd_sphere, "sphere tournament and its facets", (_Positional("n", int),)
    ),
    "morse": _Command(
        _cmd_morse,
        "collapsing matching onto a tournament target",
        (_Positional("graph"), _Positional("n", int)),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    def add_arguments(p: argparse.ArgumentParser, command: _Command) -> None:
        for a in command.positionals:
            p.add_argument(a.dest, type=a.type, choices=a.choices)
        for o in command.options:
            p.add_argument(
                o.flag,
                dest=o.dest,
                type=o.type,
                default=o.default,
                metavar=o.metavar,
                choices=o.choices,
                help=o.help,
            )

    main = _COMMANDS[None]
    parser = argparse.ArgumentParser(prog="dihom", description=main.help)
    parser.add_argument("--version", action="version", version=f"dihom {__version__}")
    add_arguments(parser, main)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        if name is not None:
            p = sub.add_parser(name, help=command.help)
            add_arguments(p, command)
            p.set_defaults(func=command.func)
    return parser


# One parser per process, built on first use; parse_args leaves it as it was.
_parser = functools.cache(build_parser)


def _value(arg: _Positional | _Option, text: str) -> Any:
    """``text`` through ``arg``'s type and choices, as argparse checks it;
    ``ValueError`` where argparse reports a usage error."""
    value = text if arg.type is None else arg.type(text)
    if arg.choices is not None and value not in arg.choices:
        raise ValueError(text)
    return value


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, read off
    ``_COMMANDS`` in one pass; ``None`` unless ``argv`` has the exact form.

    The exact form is global ``--flag value`` pairs, the subcommand, then
    its positionals and its own ``--flag value`` pairs in any order, each
    flag at most once.  Anything else is left to argparse: any other token
    led by ``-`` (help, version, ``--opt=value``, an abbreviation, a
    negative number, ``--``), a repeated flag, a value that fails its type
    or choices, a missing value or a wrong number of positionals.
    """
    command = _COMMANDS[None]
    name = None
    given: dict[str, tuple[_Positional | _Option, str]] = {}
    positionals = []
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            if name is None:
                name = token
                command = _COMMANDS.get(token)
                if command is None:
                    return None
            else:
                positionals.append(token)
            continue
        for option in command.options:
            if option.flag == token:
                break
        else:
            return None
        text = next(tokens, None)
        if text is None or text[:1] == "-" or option.dest in given:
            return None
        given[option.dest] = option, text
    if name is None or len(positionals) != len(command.positionals):
        return None
    for arg, text in zip(command.positionals, positionals):
        given[arg.dest] = arg, text
    values = {o.dest: o.default for o in _COMMANDS[None].options + command.options}
    try:
        for dest, (arg, text) in given.items():
            values[dest] = _value(arg, text)
    except ValueError:
        return None
    values["command"] = name
    values["func"] = command.func
    # Filled in place: Namespace(**values) sets the attributes one by one.
    ns = argparse.Namespace()
    vars(ns).update(values)
    return ns


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ns = _read_argv(argv)
    if ns is None:
        parser = _parser()
        try:
            ns = parser.parse_args(argv)
            # argparse of Python 3.10-3.13.0 reads a "--" that stands for a
            # positional, as in `hom -- a --`, as the value [].
            if [] in vars(ns).values():
                parser.error("'--' given where a value was expected")
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
