"""A 200,000-vertex cycle: the block and cycle searches must not recurse.

Runs under pytest, or without it as a plain script:

    PYTHONPATH=src python tests/test_long_cycle.py
"""

import sys

from trackpaths.graph import Graph, Instance, find_cycle, st_blocks
from trackpaths.reduction import rule1

N = 200_000


def test_long_cycle_needs_no_recursion():
    limit = sys.getrecursionlimit()
    g = Graph(N, [(v, (v + 1) % N) for v in range(N)])
    reduced, trace = rule1(Instance(g, 0, N // 2))
    assert reduced.graph == g
    assert (reduced.s, reduced.t) == (0, N // 2)
    assert trace.applied_rules == ()
    assert st_blocks(g, 0, N // 2) == [set(range(N))]
    cycle = find_cycle(g)
    assert cycle is not None and sorted(cycle) == list(range(N))
    assert sys.getrecursionlimit() == limit


if __name__ == "__main__":
    test_long_cycle_needs_no_recursion()
    print("ok")
