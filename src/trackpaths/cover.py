"""Greedy weighted set cover, the Bronnimann-Goodrich hitting-set scheme, and
the exact implicit hitting-set engine behind every exact oracle."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence


class UncoverableError(ValueError):
    """An element of the universe belongs to no candidate set."""


class ConvergenceError(RuntimeError):
    """The doubling scheme ran out of rounds at its final size guess."""


@dataclass(frozen=True)
class SetSystem:
    """A weighted set system with both cover and hitting-set views."""

    universe: tuple
    sets: tuple  # of (set_id, frozenset of elements, Fraction weight)
    incidence: dict = field(compare=False, default=None)
    M: int = 0  # maximum set cardinality
    freq: int = 0  # maximum element frequency

    @staticmethod
    def build(universe: Iterable, sets: Iterable[tuple]) -> "SetSystem":
        uni = tuple(universe)
        built = tuple((sid, frozenset(elems), Fraction(w)) for sid, elems, w in sets)
        incidence: dict = {u: [] for u in uni}
        for sid, elems, _ in built:
            for e in elems:
                if e in incidence:
                    incidence[e].append(sid)
        m = max((len(elems) for _, elems, _ in built), default=0)
        freq = max((len(v) for v in incidence.values()), default=0)
        return SetSystem(uni, built, incidence, m, freq)

    def uncovered_elements(self) -> list:
        return [u for u in self.universe if not self.incidence[u]]


@dataclass(frozen=True)
class VCConfig:
    d: int = 9
    net_sample_factor: int = 4
    max_doubling_rounds: int = 2000
    rng_seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("VC-dimension bound must be >= 1")


def greedy_weighted_set_cover(system: SetSystem) -> tuple[list, Fraction]:
    """Pick sets by max (newly covered / weight); ties by lowest set id.

    Guarantees the classic H(M) <= 1 + ln M ratio.  Zero-weight sets are
    taken as soon as they cover anything.
    """
    bad = system.uncovered_elements()
    if bad:
        raise UncoverableError(f"element {bad[0]!r} is in no candidate set")
    remaining = set(system.universe)
    chosen: list = []
    total = Fraction(0)
    sets = sorted(system.sets, key=lambda entry: entry[0])
    while remaining:
        best = None
        best_ratio = None
        for sid, elems, w in sets:
            newly = len(elems & remaining)
            if newly == 0:
                continue
            if w == 0:  # free coverage beats any finite ratio
                best = (sid, elems, w)
                break
            ratio = Fraction(newly) / w
            if best_ratio is None or ratio > best_ratio:
                best, best_ratio = (sid, elems, w), ratio
        if best is None:
            raise UncoverableError("remaining elements cannot be covered")
        sid, elems, w = best
        chosen.append(sid)
        total += w
        remaining -= elems
        sets = [entry for entry in sets if entry[0] != sid]
    return chosen, total


def _weighted_sample(rng: random.Random, items: Sequence, weights: Sequence[int], k: int) -> set:
    """k independent draws by integer weights (exact, bigint-safe)."""
    total = sum(weights)
    cumulative = []
    acc = 0
    for w in weights:
        acc += w
        cumulative.append(acc)
    out = set()
    import bisect

    for _ in range(k):
        r = rng.randrange(total)
        out.add(items[bisect.bisect_right(cumulative, r)])
    return out


def bg_hitting_set(
    universe: Iterable,
    ranges: Sequence[Iterable],
    cfg: VCConfig = VCConfig(),
    start_guess: int = 1,
) -> set:
    """Bronnimann-Goodrich iterative-reweighting hitting set.

    Doubling scheme over the optimal-size guess c: draw weighted epsilon-net
    samples with eps = 1/(2c); when a sample misses a light range, double the
    weights of that range's elements.  The returned set is always verified
    against every range before being returned.
    """
    elements = list(universe)
    range_sets = [frozenset(r) for r in ranges]
    for i, r in enumerate(range_sets):
        if not r:
            raise ValueError(f"range {i} is empty")
        if not r & set(elements):
            raise ValueError(f"range {i} is disjoint from the universe")
    if not range_sets:
        return set()
    rng = random.Random(cfg.rng_seed)
    index = {e: i for i, e in enumerate(elements)}
    c = max(1, start_guess)
    while True:
        exponents = [0] * len(elements)  # weights stored as powers of two
        eps = Fraction(1, 2 * c)
        sample_size = max(
            1,
            math.ceil(cfg.net_sample_factor * (cfg.d / eps) * math.log(1 / eps))
            if eps < 1
            else cfg.net_sample_factor * cfg.d * 2,
        )
        if sample_size >= len(elements):
            candidate = set(elements)
            if _hits_all(candidate, range_sets):
                return candidate
        for _ in range(cfg.max_doubling_rounds):
            weights = [1 << e for e in exponents]
            candidate = _weighted_sample(rng, elements, weights, sample_size)
            violated = _first_missed(candidate, range_sets)
            if violated is None:
                return candidate
            total = sum(weights)
            range_weight = sum(weights[index[e]] for e in violated if e in index)
            if 2 * c * range_weight <= total:
                # light range: reweight (the epsilon-net test failed honestly)
                for e in violated:
                    if e in index:
                        exponents[index[e]] += 1
            # heavy ranges mean the sample was not a net; just resample
        if c >= len(elements):
            raise ConvergenceError("did not converge at the final size guess")
        c *= 2


def _hits_all(candidate: set, range_sets: list[frozenset]) -> bool:
    return all(candidate & r for r in range_sets)


def _first_missed(candidate: set, range_sets: list[frozenset]) -> Optional[frozenset]:
    for r in range_sets:
        if not candidate & r:
            return r
    return None


def min_weight_hitting_set(
    universe: Iterable[int],
    weights: Mapping | Sequence,
    violated: Callable[[list[int]], Iterable[Iterable[int]]],
) -> list[int]:
    """The least accepted subset of ``universe`` under the key (total weight,
    sorted vertex tuple), by the implicit-hitting-set loop of Moreno-Centeno
    and Karp (Oper. Res. 2013).

    ``violated(chosen)`` gets a sorted candidate and returns ranges that it
    misses and that every accepted set hits; an empty result accepts it.  Each
    round solves the hitting-set problem over the ranges seen so far exactly,
    so the first accepted candidate is the answer: the true optimum hits every
    range, so no set under a smaller key hits them all.  ``weights[v]`` is a
    nonnegative rational for each element ``v``.
    """
    elems = sorted(universe)
    index = {v: i for i, v in enumerate(elems)}
    scale = math.lcm(*(Fraction(weights[v]).denominator for v in elems))
    wt = [int(Fraction(weights[v]) * scale) for v in elems]
    bits = range(len(elems))
    ranges: list[int] = []  # bitmasks over elems, none containing another

    def cheapest(inc: int, exc: int, lo: int, hi: int) -> Optional[int]:
        """Least weight, at most ``hi``, of a set hitting every range that
        contains ``inc`` and avoids ``exc``; the search stops at ``lo``, a
        weight known to be the least possible."""
        best = hi + 1

        def branch(inc: int, exc: int, w: int) -> None:
            nonlocal best
            open_ = sorted((r & ~exc for r in ranges if not r & inc), key=int.bit_count)
            lb = used = 0  # disjoint open ranges each cost their lightest element
            for r in open_:
                if not r:
                    return
                if not r & used:
                    used |= r
                    lb += min(wt[i] for i in bits if r >> i & 1)
            if w + lb >= best:
                return
            if not open_:
                best = w
                return
            for i in bits:
                if open_[0] >> i & 1:
                    branch(inc | 1 << i, exc, w + wt[i])
                    if best <= lo:
                        return
                    exc |= 1 << i

        branch(inc, exc, sum(wt[i] for i in bits if inc >> i & 1))
        return best if best <= hi else None

    total = 0
    while True:
        total = cheapest(0, 0, total, sum(wt))
        # fix elements in increasing order, taking each one that some set of
        # weight ``total`` still has along with those taken so far; once the
        # taken ones hit every range they are that set, ahead of any longer one
        inc = exc = 0
        for i in bits:
            open_ = [r for r in ranges if not r & inc]
            if not open_:
                break
            b = 1 << i
            if wt[i] == 0 or (
                any(r & b for r in open_) and cheapest(inc | b, exc, total, total) is not None
            ):
                inc |= b
            else:
                exc |= b
        chosen = [elems[i] for i in bits if inc >> i & 1]
        found = list(violated(chosen))
        if not found:
            return chosen
        for vs in found:
            r = sum(1 << index[v] for v in set(vs))
            if not r or r & inc:
                raise ValueError(f"range {sorted(vs)} is empty or hit by {chosen}")
            ranges = [e for e in ranges if e & r != r] + [r]
