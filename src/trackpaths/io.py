"""Line-oriented instance format, rendering, and path reconstruction.

Format (1-indexed vertex ids, "#" starts a comment):

    p track <n> <m>
    s <v>
    t <v>
    e <u> <v>        (m lines)
    w <v> <rational> (optional; unlisted vertices weigh 1)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from trackpaths.graph import Graph, Instance
from trackpaths.paths import simple_st_paths
from trackpaths.verify import DEFAULT_PATH_CAP


class ParseError(ValueError):
    """Malformed instance text; the message names the offending line."""


def parse_instance(text: str, declared_class: str = "general") -> Instance:
    n = m = None
    s = t = None
    edges: list[tuple[int, int]] = []
    weights: dict[int, Fraction] = {}

    def fail(lineno: int, msg: str):
        raise ParseError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if n is not None:
                fail(lineno, "duplicate header")
            if len(parts) != 4 or parts[1] != "track":
                fail(lineno, "header must be 'p track <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                fail(lineno, "header counts must be integers")
            if n < 1 or m < 0:
                fail(lineno, "header counts out of range")
            continue
        if n is None:
            fail(lineno, "header 'p track <n> <m>' must come first")
        if kind in ("s", "t"):
            if len(parts) != 2:
                fail(lineno, f"'{kind}' takes one vertex id")
            v = _vertex(parts[1], n, lineno, fail)
            if kind == "s":
                if s is not None:
                    fail(lineno, "duplicate s")
                s = v
            else:
                if t is not None:
                    fail(lineno, "duplicate t")
                t = v
        elif kind == "e":
            if len(parts) != 3:
                fail(lineno, "'e' takes two vertex ids")
            u = _vertex(parts[1], n, lineno, fail)
            v = _vertex(parts[2], n, lineno, fail)
            if u == v:
                fail(lineno, f"self-loop at vertex {u + 1}")
            e = (u, v) if u < v else (v, u)
            if e in edges:
                fail(lineno, f"duplicate edge {u + 1} {v + 1}")
            edges.append(e)
        elif kind == "w":
            if len(parts) != 3:
                fail(lineno, "'w' takes a vertex id and a rational weight")
            v = _vertex(parts[1], n, lineno, fail)
            try:
                w = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                fail(lineno, f"bad weight {parts[2]!r}")
            if w < 0:
                fail(lineno, "weights must be nonnegative")
            weights[v] = w
        else:
            fail(lineno, f"unknown directive {kind!r}")
    if n is None:
        raise ParseError("missing header 'p track <n> <m>'")
    if s is None:
        raise ParseError("missing s line")
    if t is None:
        raise ParseError("missing t line")
    if s == t:
        raise ParseError("s and t must differ")
    if m is not None and len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    w = tuple(weights.get(v, Fraction(1)) for v in range(n))
    return Instance(Graph(n, edges), s, t, w, declared_class)


def _vertex(token: str, n: int, lineno: int, fail) -> int:
    try:
        v = int(token)
    except ValueError:
        fail(lineno, f"bad vertex id {token!r}")
    if not (1 <= v <= n):
        fail(lineno, f"vertex id {v} out of range 1..{n}")
    return v - 1


def render_instance(instance: Instance) -> str:
    g = instance.graph
    lines = [f"p track {g.n} {g.m}", f"s {instance.s + 1}", f"t {instance.t + 1}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u + 1} {v + 1}")
    for v, w in enumerate(instance.weights):
        if w != 1:
            lines.append(f"w {v + 1} {w}")
    return "\n".join(lines) + "\n"


class ReconstructionError(ValueError):
    pass


def reconstruct_path(
    instance: Instance,
    trackers: Iterable[int],
    sequence: Sequence[int],
    cap: int = DEFAULT_PATH_CAP,
) -> list[int]:
    """The unique simple s-t path whose tracker subsequence equals
    ``sequence``.  The trackers must form a valid tracking set: one pass over
    the paths rejects the first repeated subsequence, as ``verify_by_paths``
    would, and remembers the path that matches."""
    tset = set(trackers)
    want = tuple(sequence)
    seen: set[tuple[int, ...]] = set()
    match: Optional[tuple[int, ...]] = None
    for path in simple_st_paths(instance.graph, instance.s, instance.t, cap=cap):
        sig = tuple(filter(tset.__contains__, path))
        if sig in seen:
            raise ReconstructionError("the given vertices are not a tracking set")
        seen.add(sig)
        if sig == want:
            match = path
    if match is None:
        raise ReconstructionError("no such path")
    return list(match)
