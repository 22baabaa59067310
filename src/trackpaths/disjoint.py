"""Exact two-vertex-disjoint-paths decision via a frontier dynamic program.

Decides whether vertex-disjoint paths a->b and c->d exist, with each path
restricted to its own allowed vertex set.  Vertices are processed along a
linear order chosen to keep the frontier (processed vertices that still have
unprocessed neighbors) narrow; the DP state is the set of open partial path
segments with ends on the frontier.  Exact whenever the frontier stays within
the width cap; grid-like graphs have frontier about sqrt(n).

No solver calls it: the pair oracle in ``verify`` answers every 2-linkage
query itself.  It stays as an independent reference for the oracle's tests.
"""

from __future__ import annotations

from collections import deque

from trackpaths.graph import CapExceededError, Graph

DEFAULT_WIDTH_CAP = 14
DEFAULT_STATE_CAP = 400_000

_CAP = -1  # segment end resting on one of the four terminals


def _bfs_order(graph: Graph, vertices: set[int]) -> list[int]:
    order: list[int] = []
    seen: set[int] = set()
    for root in sorted(vertices):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in graph.adjacency[u]:
                if v in vertices and v not in seen:
                    seen.add(v)
                    queue.append(v)
    return order


def _max_frontier(graph: Graph, order: list[int]) -> int:
    position = {v: i for i, v in enumerate(order)}
    last = dict(position)
    for u in order:
        for v in graph.adjacency[u]:
            if v in position:
                last[u] = max(last[u], position[v])
    worst = 0
    active = 0
    events = [0] * (len(order) + 1)
    for u in order:
        events[position[u]] += 1
        events[last[u]] -= 1  # still counted at its last index
    for i in range(len(order)):
        active += events[i]
        worst = max(worst, active + 1)
    return worst


def _choose_order(graph: Graph, vertices: set[int]) -> list[int]:
    """The narrower of id order and BFS order (id order suits grids)."""
    identity = sorted(vertices)
    bfs = _bfs_order(graph, vertices)
    if _max_frontier(graph, identity) <= _max_frontier(graph, bfs):
        return identity
    return bfs


def two_disjoint_paths(
    graph: Graph,
    a: int,
    b: int,
    c: int,
    d: int,
    allowed1: set[int],
    allowed2: set[int],
    width_cap: int = DEFAULT_WIDTH_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """True iff vertex-disjoint paths a->b (within allowed1) and c->d (within
    allowed2) exist.  The four terminals must be distinct.

    Raises CapExceededError when the frontier exceeds ``width_cap`` or the
    state table exceeds ``state_cap``.
    """
    if len({a, b, c, d}) != 4:
        raise ValueError("terminals must be distinct")
    if a not in allowed1 or b not in allowed1 or c not in allowed2 or d not in allowed2:
        return False
    vertices = (allowed1 | allowed2) & set(range(graph.n))
    order = _choose_order(graph, vertices)
    position = {v: i for i, v in enumerate(order)}
    last_needed = dict(position)
    for u in order:
        for v in graph.adjacency[u]:
            if v in position:
                last_needed[u] = max(last_needed[u], position[v])
    term_pid = {a: 1, b: 1, c: 2, d: 2}

    # state = (sorted tuple of open segments, done1, done2); a segment is
    # (pid, end1, end2) with ends open frontier vertices or _CAP on a terminal
    states: set[tuple] = {((), False, False)}
    for idx, v in enumerate(order):
        width = sum(1 for u in order[: idx + 1] if last_needed[u] >= idx)
        if width > width_cap:
            raise CapExceededError(
                f"disjoint-paths frontier {width} exceeds cap {width_cap}"
            )
        prev = {u for u in graph.adjacency[v] if position.get(u, len(order)) < idx}
        is_terminal = v in term_pid
        roles = [] if is_terminal else [0]
        for pid, allowed in ((1, allowed1), (2, allowed2)):
            if v in allowed and term_pid.get(v, pid) == pid:
                roles.append(pid)
        # vertices leaving the frontier now: their open ends can never extend
        expiring = {u for u in order[: idx + 1] if last_needed[u] <= idx}
        new_states: set[tuple] = set()
        add = new_states.add
        for segments, done1, done2 in states:
            # segments with an end dying now: every surviving option must
            # consume them, and may not create new dying ends
            exp_idx = tuple(
                i
                for i, (_, e1, e2) in enumerate(segments)
                if (e1 != _CAP and e1 in expiring) or (e2 != _CAP and e2 in expiring)
            )
            for role in roles:
                if role == 0:
                    if not exp_idx:
                        add((segments, done1, done2))
                    continue
                pid = role
                donep = done1 if pid == 1 else done2
                # open neighbor ends of this pid, with their segment index
                ends = [
                    (i, e)
                    for i, (p, e1, e2) in enumerate(segments)
                    if p == pid
                    for e in ((e1,) if e1 == e2 else (e1, e2))
                    if e in prev
                ]
                # each candidate: (segments to drop, replacement segment or
                # None, completes-path flag)
                if is_terminal:
                    options = [((), (pid, _CAP, v), False)]
                    for i, e in ends:
                        p, e1, e2 = segments[i]
                        other = e2 if e1 == e else e1
                        if other == _CAP:
                            options.append(((i,), None, True))
                        else:
                            options.append(((i,), (pid, _CAP, other), False))
                else:
                    options = [((), (pid, v, v), False)]
                    for i, e in ends:
                        p, e1, e2 = segments[i]
                        other = e2 if e1 == e else e1
                        seg = (pid, other, v) if other <= v else (pid, v, other)
                        options.append(((i,), seg, False))
                    for x in range(len(ends)):
                        i, e = ends[x]
                        p, e1, e2 = segments[i]
                        o1 = e2 if e1 == e else e1
                        for y in range(x + 1, len(ends)):
                            j, f = ends[y]
                            if i == j:
                                continue  # same segment: joining closes a cycle
                            q, f1, f2 = segments[j]
                            o2 = f2 if f1 == f else f1
                            if o1 == _CAP and o2 == _CAP:
                                options.append(((i, j), None, True))
                            else:
                                seg = (pid, o1, o2) if o1 <= o2 else (pid, o2, o1)
                                options.append(((i, j), seg, False))
                for drop, seg, completes in options:
                    if completes and donep:
                        continue
                    if any(i not in drop for i in exp_idx):
                        continue  # a dying open end can never be extended
                    if seg is not None and (
                        (seg[1] != _CAP and seg[1] in expiring)
                        or (seg[2] != _CAP and seg[2] in expiring)
                    ):
                        continue
                    segs = [s for i, s in enumerate(segments) if i not in drop]
                    if seg is not None:
                        segs.append(seg)
                    d1 = done1 or (completes and pid == 1)
                    d2 = done2 or (completes and pid == 2)
                    if d1 and d2 and not segs:
                        return True  # both paths closed in the prefix
                    add((tuple(sorted(segs)), d1, d2))
        states = new_states
        if len(states) > state_cap:
            raise CapExceededError(
                f"disjoint-paths state table {len(states)} exceeds cap {state_cap}"
            )
        if not states:
            return False
    return False
