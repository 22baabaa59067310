"""Seeded instance generation, the timed operations, and the output checks.

Everything here runs inside a worker process, which imports the package from
``src/``.  Package functions are looked up on their modules at call time, so
the tracer's wrappers (installed on those module bindings) see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from trackpaths import approx, eptas, exact, generators, kernel, reduction, verify
from trackpaths.cover import VCConfig
from trackpaths.graph import CapExceededError, Graph, Instance

from workloads import Family

EPTAS_R = 9
# Path-verifier cap for the output check; above it the check falls back to
# the cycle verifier on the kernel (and says so).  Every 5x5 and 6x5 grid of
# the corpus has fewer s-t paths; most 6x6 grids and ER-18 graphs have more.
CHECK_PATH_CAP = 60_000


@dataclass(frozen=True)
class Block:
    """One generated chain block: its core vertices (no pendant), entry, exit."""

    vertices: tuple[int, ...]
    entry: int
    exit: int


@dataclass(frozen=True)
class Case:
    instance: Instance
    blocks: tuple[Block, ...] = ()  # chain only
    k: int = 0  # chain only: the max-degree lower bound, from the generator
    expect: Optional[dict] = None  # chain only: predicted kernelize outcome


def make_case(family: Family, seed: int, draw: int) -> Case:
    """Draw ``draw`` of a family under a workload seed.

    The shape of the draw (which grid edges are removed, which ER graph,
    which chain of blocks) comes from a corpus fixed per family and draw
    index; the seed picks the labelling of that shape: a random relabelling
    of all vertices (ER, chain) or one of the grid's mirror images that keep
    ids in row-major order (grids, whose id order the disjoint-paths program
    relies on).  So a seed fixes every input, different seeds give different
    inputs, and every seed measures the same shapes; see NOTES.md.  String
    seeds hash with SHA-512, so draws are stable across processes.
    """
    shape = random.Random(f"corpus/{family.name}/{draw}")
    variant = random.Random(f"{seed}/{family.name}/{draw}")
    level = family.levels[draw % len(family.levels)]
    if family.kind == "grid":
        width, height = family.params
        base = generators.grid(width, height, level, shape.randrange(2**32))
        return Case(mirror(base, width, height, variant.randrange(4 if width == height else 2)))
    if family.kind == "er":
        (p,) = family.params
        while True:
            inst = generators.random_reduced(level, p, shape.randrange(2**32))
            if inst is not None:
                return Case(relabel(inst, permutation(inst.graph.n, variant)))
    if family.kind == "chain":
        case = chain_case(level, shape)
        perm = permutation(case.instance.graph.n, variant)
        blocks = tuple(
            Block(tuple(sorted(perm[v] for v in b.vertices)), perm[b.entry], perm[b.exit])
            for b in case.blocks
        )
        expect = dict(case.expect, core=frozenset(perm[v] for v in case.expect["core"]))
        return Case(relabel(case.instance, perm), blocks, case.k, expect)
    raise ValueError(f"unknown family kind {family.kind!r}")


def permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(inst: Instance, perm: list[int]) -> Instance:
    """The same instance with vertex v renamed perm[v]."""
    weights = [None] * inst.graph.n
    for v, w in enumerate(inst.weights):
        weights[perm[v]] = w
    return Instance(
        Graph(inst.graph.n, [(perm[u], perm[v]) for u, v in inst.graph.edges]),
        perm[inst.s], perm[inst.t], tuple(weights), inst.declared_class,
    )


def mirror(inst: Instance, width: int, height: int, image: int) -> Instance:
    """One of the mirror images of a corner-to-corner grid that keep s = 0,
    t = n - 1 and row-major ids: 0 identity, 1 rotation by 180 degrees,
    2 transpose, 3 both (2 and 3 only for square grids)."""
    n = width * height

    def place(v: int) -> int:
        r, c = divmod(v, width)
        if image & 2:
            r, c = c, r
        v = r * width + c
        return n - 1 - v if image & 1 else v

    perm = [place(v) for v in range(n)]
    out = relabel(inst, perm)
    if image & 1:  # the rotation swapped the corners; the problem is symmetric
        out = Instance(out.graph, out.t, out.s, out.weights, out.declared_class)
    return out


# Block shapes: (vertex count, edges, entry, exit).  All are 2-connected.
SHAPES = {
    "k4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 0, 3),
    "c4chord": (4, ((0, 1), (1, 3), (3, 2), (2, 0), (1, 2)), 0, 3),
    "grid2x3": (6, ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)), 0, 5),
}


def chain_case(blocks: int, rng: random.Random) -> Case:
    """An s-t chain of ``blocks`` blocks, the shapes in equal shares (up to
    one) and shuffled, so chains of one length cost about the same.  In each
    block one edge is subdivided twice and a pendant path of 1-3 vertices
    hangs off a random block vertex.  The reduced size and the lower bound
    are predicted here from the construction alone, for the kernelize check."""
    edges: list[tuple[int, int]] = []
    core_edges: list[tuple[int, int]] = []
    out: list[Block] = []
    n, entry = 1, 0
    names = [sorted(SHAPES)[i % len(SHAPES)] for i in range(blocks)]
    rng.shuffle(names)
    for name in names:
        size, shape_edges, b_in, b_out = SHAPES[name]
        local = {b_in: entry}
        for v in range(size):
            if v != b_in:
                local[v] = n
                n += 1
        block_edges = [(local[u], local[v]) for u, v in shape_edges]
        u, v = block_edges.pop(rng.randrange(len(block_edges)))
        z1, z2 = n, n + 1
        n += 2
        block_edges += [(u, z1), (z1, z2), (z2, v)]
        verts = tuple(sorted(set(local.values()) | {z1, z2}))
        prev = rng.choice(verts)
        for _ in range(rng.randint(1, 3)):
            edges.append((prev, n))
            prev = n
            n += 1
        edges += block_edges
        core_edges += block_edges
        out.append(Block(verts, entry, local[b_out]))
        entry = local[b_out]
    instance = Instance(Graph(n, edges), 0, entry)
    k, expect = _predict_kernel(out, core_edges, 0, entry)
    return Case(instance, tuple(out), k, expect)


def _predict_kernel(blocks, core_edges, s, t) -> tuple[int, dict]:
    """Rules 1-3 on a generated chain, from its construction: Rule 1 drops
    the pendant paths, Rule 2 does nothing (s and t have degree >= 2), and
    Rule 3 shrinks every maximal run of degree-2 non-terminals to one vertex.
    The lower bound is the max degree over non-cut vertices, minus 2."""
    adj: dict[int, set[int]] = {}
    for u, v in core_edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    two = {v for v, nb in adj.items() if len(nb) == 2 and v not in (s, t)}
    removed, seen = 0, set()
    for v in sorted(two):
        if v in seen:
            continue
        run, stack = 0, [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            run += 1
            for y in adj[x]:
                if y in two and y not in seen:
                    seen.add(y)
                    stack.append(y)
        removed += run - 1
    n_red = len(adj) - removed
    m_red = len(core_edges) - removed
    cuts = {b.exit for b in blocks[:-1]}
    k = max(0, max(len(nb) for v, nb in adj.items() if v not in cuts) - 2)
    if n_red > 4 * k * k + 9 * k - 5 or m_red > 5 * k * k + 11 * k - 6:
        decision, reason = "trivial_no", "rule5"
    else:
        decision, reason = "kernel", None
    core = frozenset(adj)
    return k, {"n": n_red, "decision": decision, "reason": reason, "core": core}


def run_op(method: str, case: Case, seed: int):
    """The timed call.  Module attributes are read here, not bound at import."""
    inst = case.instance
    if method == "greedy":
        return approx.approx_logn_weighted(inst)
    if method == "bg":
        return approx.approx_logopt_unweighted(inst, VCConfig(rng_seed=seed))
    if method == "eptas":
        return eptas.eptas_solve(inst, r=EPTAS_R)
    if method == "exact":
        return exact.exact_tracking_set(inst)
    if method == "kernelize":
        return kernel.kernelize(inst, case.k)
    raise ValueError(f"unknown method {method!r}")


def clear_caches() -> None:
    """Empty the verifier's module-global caches, those that still exist."""
    for name in ("_conn_cache", "_pair_cache"):
        cache = getattr(verify, name, None)
        if cache is not None:
            cache.clear()
    cached = getattr(verify, "_rule1_reduced", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def check(method: str, case: Case, result) -> tuple[bool, bool, str]:
    """(ok, fell back to the cycle verifier, reason) for one op's output."""
    if method == "kernelize":
        exp = case.expect
        got_core = frozenset().union(*result.trace.origin_map)
        if (result.decision, result.reason) != (exp["decision"], exp["reason"]):
            return False, False, f"decision {result.decision}/{result.reason}"
        if len(result.trace.origin_map) != exp["n"] or got_core != exp["core"]:
            return False, False, "reduced vertex set differs from the prediction"
        return True, False, ""
    if not result.valid:
        return False, False, "solver reported valid=False"
    trackers = set(result.trackers)
    inst = case.instance
    if not trackers <= set(range(inst.graph.n)):
        return False, False, "tracker outside the graph"
    if case.blocks:
        # tracking is per block on an s-t chain: every path crosses every
        # block entry to exit, so the check runs block by block
        for block in case.blocks:
            index = {v: i for i, v in enumerate(block.vertices)}
            sub = Instance(
                Graph(len(index), [(index[u], index[v]) for u, v in inst.graph.edges
                                   if u in index and v in index]),
                index[block.entry],
                index[block.exit],
            )
            local = {index[v] for v in trackers if v in index}
            if not verify.verify_by_paths(sub, local).valid:
                return False, False, f"block at {block.entry} untracked"
        return True, False, ""
    try:
        report, fallback = verify.verify_by_paths(inst, trackers, cap=CHECK_PATH_CAP), False
    except CapExceededError:
        # more paths than the cap: check the kernel with the cycle verifier,
        # mapping each kernel vertex to a tracker when its origin set has one
        reduced, trace = reduction.reduce_all(inst)
        kernel_set = {kv for kv, orig in enumerate(trace.origin_map) if orig & trackers}
        report, fallback = verify.verify_by_cycles(reduced, kernel_set), True
    return report.valid, fallback, "" if report.valid else "verifier found a witness"
