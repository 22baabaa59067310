"""Workload definitions of the solve-pipeline benchmark (pure data).

A workload is a tuple of families.  A family names how its instances are
drawn and which operations run on each draw.  Round ``r`` of a workload takes
draws ``r * per_round`` to ``(r + 1) * per_round - 1`` of every family; the
size parameter of draw ``d`` is ``levels[d % len(levels)]``, and levels are
ordered so that every round holds the same mix of easy and hard draws.  A run
always ends on a round boundary, so it measures whole rounds.  How a draw is
generated from the seed is in ``instances.make_case``.

Each method runs in its own worker process, so no worker ever sees the same
input twice (see NOTES.md, "Cache isolation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

METHODS = ("greedy", "bg", "eptas", "exact", "kernelize")


@dataclass(frozen=True)
class Family:
    name: str
    kind: str  # "grid" | "er" | "chain"
    params: tuple  # grid: (width, height); er: (edge probability,); chain: ()
    levels: tuple[int, ...]  # grid: edges removed; er: n; chain: blocks
    methods: tuple[str, ...]
    per_round: int


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[Family, ...]
    tail_pct: int  # fixed so that the seed code has at least ten ops beyond it
    # op_s_p50, op_s_tail and peak_rss_mb are taken over the ops of the first
    # ``rounds`` rounds, which the seed code completes in every 25 s run: the
    # draws differ in cost, and a run that completes one round more would
    # otherwise move the percentiles by the draws it adds
    rounds: int

    @property
    def methods(self) -> tuple[str, ...]:
        seen = {m for fam in self.families for m in fam.methods}
        return tuple(m for m in METHODS if m in seen)


# Grids remove 1-4 random edges; pairing 1 with 4 and 2 with 3 gives rounds of
# nearly equal cost.  Op times cluster by method and size, and a percentile
# that falls between two clusters jumps between them from run to run; the
# mixes below put the median and ``tail_pct`` inside a cluster (cover: greedy
# and bg on ER-18, and on 6x5; small-exact: a greedy or bg op, and exact on
# 5x3).  Chains instead take every length from 12 to 22 blocks, paired so that
# each round costs about the same: their op costs form one continuous spread,
# with no gap or narrow cluster for the median or the tail to jump across
# when the shared host switches between its fast and slow spells (NOTES.md).
PAIRED = (1, 4, 2, 3)
CHAIN_LENGTHS = (12, 22, 13, 21, 14, 20, 15, 19, 16, 18, 17, 17)
CHAIN_OPS = ("greedy", "bg", "kernelize")
SMALL_OPS = ("exact", "greedy", "bg")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cover",
            (
                Family("grid5x5", "grid", (5, 5), PAIRED, ("greedy", "bg", "eptas"), 2),
                Family("grid6x5", "grid", (6, 5), PAIRED, ("greedy", "bg", "eptas"), 2),
                Family("grid6x6", "grid", (6, 6), PAIRED, ("eptas",), 2),
                Family("er18", "er", (0.35,), (18,), ("greedy", "bg"), 2),
            ),
            85,
            4,
        ),
        Workload(
            "chain",
            (Family("chain", "chain", (), CHAIN_LENGTHS, CHAIN_OPS, 2),),
            80,
            12,
        ),
        Workload(
            "small-exact",
            (
                Family("er12-14", "er", (0.35,), (12, 13, 14), SMALL_OPS, 3),
                Family("grid4x4", "grid", (4, 4), PAIRED, SMALL_OPS + ("eptas",), 2),
                Family("grid5x3", "grid", (5, 3), PAIRED, SMALL_OPS + ("eptas",), 2),
            ),
            90,
            6,
        ),
    )
}


def schedule(workload: Workload) -> Iterator[list[tuple[int, int, str]]]:
    """Endless rounds, each a list of ops (family index, draw index, method)."""
    rnd = 0
    slots = max(fam.per_round for fam in workload.families)
    while True:
        yield [
            (fi, rnd * fam.per_round + j, method)
            for j in range(slots)
            for fi, fam in enumerate(workload.families)
            if j < fam.per_round
            for method in fam.methods
        ]
        rnd += 1


def first_round(workload: Workload, method: str) -> list[tuple[int, int]]:
    """The (family index, draw) pairs a method's worker needs before op one."""
    return [(fi, draw) for fi, draw, m in next(schedule(workload)) if m == method]
