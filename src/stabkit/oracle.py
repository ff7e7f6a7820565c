"""Exact ground-truth solver and the classical greedy cover baseline.

The exact solver treats the problem as weighted set cover: rectangles are
elements, candidate segments are sets, and a depth-first branch-and-bound
finds the minimum total length.  It prunes a state already entered at no
higher cost (a memo on the uncovered mask) and one whose LP-dual lower bound
reaches the incumbent (a dual-fitting pass that stops once it does).  A pass
that runs to the end also gives each candidate's reduced cost, and a child
whose reduced cost lifts the bound to the incumbent is skipped unentered.
The search seeds its own incumbent with the primal-dual cover read off the
dual pass at its root; it is also the PTAS chunk solver.  The greedy
baseline is the lazy (Minoux) greedy over one heap per last known
newly-stabbed count.  Both run on the candidate table, whose rows are
integers on the instance's view: an ``(a, b, y)`` key, a stab mask and a
length.  No ``Fraction`` is built for a row; each solver maps only the rows
of its answer back to the rects' own coordinates.  The exact search lists
each rect's rows from the masks; greedy never reads them.

Both split the instance into blocks: groups of rects whose x-projections
chain together by closed overlap, with a positive gap between one block
and the next.  A row spanning a gap is dearer than its pieces, so neither
the exact optimum nor greedy ever takes one: the table is swept once per
block without them, and the exact search runs once per block.  Only the
long-segment guesses of the QPTAS read the full table, since a guess may
need a row across a gap.  The oracle is capped at small instance sizes and
serves as the ground truth for every approximation-ratio test in the suite.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BudgetError,
    Instance,
    OracleLimitError,
    Segment,
    Solution,
    _as_int,
    _built,
    stabs,
)

ORACLE_LIMIT = 20  # exact_opt's default rect cap; qptas's exact leaf never runs with a lower one


@dataclass(frozen=True)
class Candidate:
    """A segment together with the bitmask of rect positions it stabs."""

    segment: Segment
    stab_set: int


def reduce_candidates(inst: Instance, cands: list[Segment]) -> list[Candidate]:
    """Keep one minimum-length candidate per distinct stab-set, drop dominated ones.

    A candidate is dominated when another candidate stabs a superset of its
    rects at no greater length.  The optimal cover cost over the reduced list
    equals that over the full list.  Ties resolve to the lexicographically
    smallest segment (by (xl, xr, y)) so the result is deterministic.  This is
    the definition: each set is tested against every other one.  No solver
    calls it; the candidate table's per-span sweep is tested against it.
    """
    shortest: dict[int, tuple] = {}  # stab set -> smallest (length, xl, xr, y)
    for s in cands:
        mask = sum(1 << p for p, r in enumerate(inst.rects) if stabs(s, r))
        entry = (s.length, s.xl, s.xr, s.y)
        if mask and (mask not in shortest or entry < shortest[mask]):
            shortest[mask] = entry
    pool = sorted(shortest.items(), key=lambda kv: kv[1][1:])
    return [
        Candidate(Segment(*entry[1:]), mask)
        for mask, entry in pool
        if not any(
            other != mask and mask | other == other and entry[0] >= other_entry[0] for other, other_entry in pool
        )
    ]


def _x_blocks(inst: Instance) -> list[list[int]]:
    """The rect positions of each block of ``inst``, blocks in x order.  A
    block is a connected component of the closed overlap graph of the rects'
    x-projections: rects that share only an endpoint are in one block, so a
    positive gap separates each block from the next."""
    g = inst._grid
    blocks: list[list[int]] = []
    reach = 0
    for p in sorted(range(len(g.xl)), key=g.xl.__getitem__):
        if blocks and g.xl[p] <= reach:
            blocks[-1].append(p)
            reach = max(reach, g.xr[p])
        else:
            blocks.append([p])
            reach = g.xr[p]
    return blocks


def _candidate_table(
    inst: Instance, blocks: list[list[int]] | None = None
) -> tuple[list[tuple[int, int, int]], list[int], list[int]]:
    """The reduced candidates of ``inst`` on its integer view, as three
    parallel lists in key order: their ``(a, b, y)`` keys, the row
    ``[a, b] x y`` with a and b over the view's dx and y over its dy; their
    stab sets as rect-position bit masks; and their lengths ``b - a``.  No
    ``Fraction`` is built: ``_fraction_keys`` maps the rows of an answer
    back to the rects' own coordinates, and ``_covering`` lists the rows
    that stab each rect for the solvers that read it.

    The rows are those ``reduce_candidates`` keeps of ``candidate_segments``,
    found by a sweep that visits only *tight* segments: at each top edge y,
    ``[a, b] x y`` for a left edge a and a right edge b of the rects alive at
    y (``yb <= y <= yt``).  Any grid segment with stab set S at y contains
    ``[min xl(S), max xr(S)] x y``, which stabs exactly S and is strictly
    shorter unless it is that same segment; so the least (length, xl, xr, y)
    per stab set S lies on its *span* ``[min xl(S), max xr(S)]``, at the
    lowest level that meets S.  The sweep visits levels bottom up and, at
    each level, meets every set at its span first (see the comment on the
    order of left edges), so it records each set where it first meets it.

    Domination is settled per span.  A strict superset T of S spans at least
    [a, b], the span of S, so it is no longer than S only when it spans
    exactly [a, b]: S is dropped when another set recorded at its own span
    contains it, and no global pass over all sets is needed.

    A sweep, of a block or of the whole instance, visits only the levels
    ``tops[bisect_left(tops, yb)]`` of its rects: per rect, the lowest top
    edge of the instance at or above its bottom, its *first* level.  At any
    other top edge y, every rect alive at y is alive at the highest visited
    level y' below y, so each tight segment at y is one at y' too, of the
    same length and stabbing a superset: its row is dominated, or repeats
    the row at y', which wins the tie on y.  Levels are the instance's top
    edges, not the block's, since the lowest top edge with a stab set
    decides its row's y.

    At each level only the sets that hold a *newborn* rect, one whose first
    level it is, are recorded.  Every other rect alive at y was alive at the
    previous level y' of the sweep, so a set S without a newborn has, at
    y', the tight segment on its span, stabbing a set S' that contains S
    and spans the same [a, b].  By induction over the levels, S' is
    recorded at [a, b] or contained in a set recorded there, so S either
    was recorded already or is dominated at its span.  A set with a newborn
    p starts at or left of xl(p), so only the left edges at or left of the
    largest left edge of a newborn are tried as starts.  The two rules go
    together: with a start skipped, a set without a newborn may first be
    met left of its span, where nothing dominates it.  A block of one rect
    has one row, its span at its first level, taken directly; a span with
    one recorded set needs no domination test.  One span holds one set per
    level, recorded bottom up, so sorting the spans puts the rows in key
    order.

    Given ``blocks``, the position lists of ``_x_blocks(inst)``, the sweep
    runs once per block over that block's rects, and the table is the one
    above less every row that spans a gap between two blocks.  Such a row
    costs strictly more than the block pieces of its tight segment, so no
    optimum holds it and greedy never picks it; ``guess_long`` reads the
    full table, since a guess of at most k rows may need one.
    A row inside a block stabs the same rects whichever rects are swept, and
    no row spanning a gap dominates it, being strictly longer, so the kept
    rows are the full table's with the same keys in the same order.
    """
    g = inst._grid
    tops = sorted(set(g.yt))
    # each rect's right edge, left edge, bit, first level and top edge
    edges = [
        (b, a, 1 << p, tops[bisect_left(tops, lo)], hi) for p, (a, b, lo, hi) in enumerate(zip(g.xl, g.xr, g.yb, g.yt))
    ]
    level: dict[int, int] = {}  # stab set -> the lowest level it was recorded at
    at_span: dict[tuple[int, int], list[int]] = {}  # span -> the stab sets recorded at it, levels ascending
    end = (math.inf, math.inf, 0)  # past every right edge: flushes the last mask
    for by_right in [edges] if blocks is None else [[edges[p] for p in block] for block in blocks]:
        if len(by_right) == 1:
            ((b, a, bit, first, _),) = by_right
            level[bit] = first
            at_span[a, b] = [bit]
            continue
        by_right.sort()
        for y in sorted({first for _, _, _, first, _ in by_right}):
            alive = []
            newborn = 0
            reach = -math.inf  # the largest left edge of a newborn rect
            for right, left, bit, first, hi in by_right:
                if first <= y <= hi:
                    alive.append((left, right, bit))
                    if first == y:
                        newborn |= bit
                        if left > reach:
                            reach = left
            alive.append(end)
            # left edges in order of the least right edge of a rect starting
            # there: a set S is met at its span before any other [a, b] that
            # stabs exactly S, since every rect starting at such an a ends
            # past b, later than a rect of S starting at min xl(S)
            for a in dict.fromkeys([left for left, _, _ in alive if left <= reach]):
                # [a, b] x y stabs the alive rects with xl >= a and xr <= b; a
                # mask is recorded only once every rect ending at b is in it
                mask = 0
                for left, right, bit in alive:
                    if left >= a:
                        if mask & newborn and right != b and mask not in level:
                            level[mask] = y
                            at_span.setdefault((a, b), []).append(mask)
                        mask |= bit
                        b = right
    # spans in order, and each span's sets by level: the rows in key order
    keys, masks, lengths = [], [], []
    for (a, b), sets in sorted(at_span.items()):
        if len(sets) > 1:
            sets = [mask for mask in sets if not any(other != mask and other & mask == mask for other in sets)]
        for mask in sets:
            keys.append((a, b, level[mask]))
            masks.append(mask)
            lengths.append(b - a)
    return keys, masks, lengths


def _covering(masks: list[int], n: int) -> list[list[int]]:
    """Per rect position below n, the indices of the rows whose ``masks``
    stab it, ascending."""
    covering: list[list[int]] = [[] for _ in range(n)]
    for ci, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            covering[low.bit_length() - 1].append(ci)
            mask ^= low
    return covering


def _fraction_keys(inst: Instance, keys) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The ``(xl, xr, y)`` coordinates of the candidate-table rows ``keys``,
    each a rect's own ``Fraction``: a row's ends are a left and a right edge
    of rects and its height a top edge, so each is looked up, none built.
    A lookup scans the view, which beats building maps of every rect for
    the few rows of an answer."""
    rects, g = inst.rects, inst._grid
    return [(rects[g.xl.index(a)].xl, rects[g.xr.index(b)].xr, rects[g.yt.index(y)].yt) for a, b, y in keys]


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetError(f"node budget of {self.limit} exhausted")


def _dual_bound(uncovered: int, order, covering, lengths, gap) -> tuple[int, list[int] | None]:
    """A lower bound, on the table's integer scale, on the cost of stabbing
    the rects in ``uncovered``, with the slacks it leaves: one dual-fitting
    pass for the set-cover LP that raises each uncovered rect's dual, in
    ``order``, to the least slack left among its candidates.  Weak duality
    makes it a bound in any order.

    The pass stops as soon as its running sum reaches ``gap``, so the bound
    is the full bound when that is below ``gap`` and at least ``gap``
    otherwise; pass ``math.inf`` for the full bound.  A pass that runs to
    the end returns ``(bound, slack)``, ``slack[ci]`` being candidate ci's
    length less the duals of the uncovered rects it stabs: its reduced
    cost.  An early exit returns ``(bound, None)``: the search prunes that
    node, so it has no use for the slacks.
    """
    slack = lengths[:]
    total = 0
    for i in order:
        if uncovered >> i & 1:
            row = covering[i]
            y = min(map(slack.__getitem__, row))
            if y:
                total += y
                if total >= gap:
                    return total, None
                for ci in row:
                    slack[ci] -= y
    return total, slack


def _greedy(masks: list[int], lengths: list[int], full: int) -> list[int]:
    """The indices greedy picks, in pick order: each time the candidate with
    the most newly stabbed rects per unit length, ties to the shorter, then
    to the lower index.

    Lazy (Minoux): a candidate's newly stabbed count only falls as rects get
    covered, so each sits in the heap of ``(length, index)`` of its last
    known count.  A pick compares the heap tops only, whose order within a
    heap is the tie order, and re-counts the winner: it is picked if its
    count held (every other candidate's real ratio is at most its stored
    one), and otherwise moves to the heap of its new count.  Every length is
    at least 1 (a rect has xl < xr), so ratios compare by integer
    cross-multiplication.
    """
    heaps: dict[int, list[tuple[int, int]]] = {}
    for ci, (mask, length) in enumerate(zip(masks, lengths)):
        heaps.setdefault(mask.bit_count(), []).append((length, ci))
    for heap in heaps.values():
        heapq.heapify(heap)
    covered = 0
    picked: list[int] = []
    while covered != full:
        count = 0
        for newly, heap in heaps.items():
            if count:
                # keep the incumbent top unless newly/length beats its ratio,
                # or ties it at a shorter length (an equal ratio at an equal
                # length is an equal count: the same heap)
                lhs, rhs = newly * top[0], count * heap[0][0]
                if lhs < rhs or lhs == rhs and heap[0][0] > top[0]:
                    continue
            count, top = newly, heap[0]
        heap = heaps[count]
        heapq.heappop(heap)
        if not heap:
            del heaps[count]
        ci = top[1]
        newly = (masks[ci] & ~covered).bit_count()
        if newly == count:
            covered |= masks[ci]
            picked.append(ci)
        elif newly:
            heapq.heappush(heaps.setdefault(newly, []), top)
    return picked


def _dual_cover(uncovered: int, slack: list[int], lengths, covering) -> list[int]:
    """A cover of the rects in ``uncovered`` read off the slacks of a
    ``_dual_bound`` pass over them that ran to the end: the rows that stab
    one of them at zero slack, of which the pass leaves every such rect at
    least one, less the redundant ones, dropped longest first, ties to the
    lower index (the primal-dual cover with reverse delete)."""
    rows: dict[int, list[int]] = {}  # zero-slack row -> the positions in uncovered it stabs
    times: dict[int, int] = {}  # position -> the number of rows still held that stab it
    rest = uncovered
    while rest:
        low = rest & -rest
        p = low.bit_length() - 1
        for ci in covering[p]:
            if not slack[ci]:
                rows.setdefault(ci, []).append(p)
                times[p] = times.get(p, 0) + 1
        rest ^= low
    cover = []
    for ci in sorted(rows, key=lambda ci: (-lengths[ci], ci)):
        if all(times[p] > 1 for p in rows[ci]):
            for p in rows[ci]:
                times[p] -= 1
        else:
            cover.append(ci)
    return cover


def _search(positions, masks, lengths, covering, budget) -> list[int]:
    """The rows, in choice order, of the first cheapest way to stab the rects
    at ``positions``; one tick of ``budget`` per node entered.  See
    ``_branch_and_bound``."""
    order = sorted(positions, key=lambda i: (len(covering[i]), i))
    best: list[int] = []
    best_cost = math.inf
    chosen: list[int] = []
    seen: dict[int, int] = {}  # uncovered mask -> least cost it was entered at

    def descend(uncovered: int, cost: int) -> None:
        nonlocal best, best_cost
        budget.tick()
        if not uncovered:
            if cost < best_cost:
                best, best_cost = chosen[:], cost
            return
        if seen.get(uncovered, math.inf) <= cost:
            return
        seen[uncovered] = cost
        gap = best_cost - cost
        bound, slack = _dual_bound(uncovered, order, covering, lengths, gap)
        if bound >= gap:
            return
        if not chosen:
            # the root: no incumbent yet, so the pass ran to the end
            best_cost = sum(lengths[ci] for ci in _dual_cover(uncovered, slack, lengths, covering)) + 1
        for ci in covering[(uncovered & -uncovered).bit_length() - 1]:
            # every leaf under this child costs at least cost + bound + slack[ci]
            if bound + slack[ci] >= best_cost - cost:
                continue
            chosen.append(ci)
            descend(uncovered & ~masks[ci], cost + lengths[ci])
            chosen.pop()

    descend(sum(1 << p for p in positions), 0)
    return best


def _branch_and_bound(inst: Instance, node_budget: int | None = None) -> Solution:
    """The cheapest solution; BudgetError after ``node_budget`` nodes.

    The search runs once per block of ``_x_blocks``, on the table without
    the rows that span a gap.  No such row is in an optimum, and no row
    stabs rects of two blocks, so OPT and the subset DP's choices add up
    over blocks: each block's search, on its own rows in table order, makes
    the choices a search of the whole instance makes there, and the answer
    is their union.

    Each block's search goes depth-first over the table: branch on the
    lowest unstabbed rect, try its candidates in table order.  A state, the
    uncovered mask, is pruned when it was entered before at no higher cost,
    or when cost plus ``_dual_bound``, stopped at the gap to the incumbent,
    reaches the incumbent.  When the bound falls short, its pass ran to the
    end and left each candidate's reduced cost ``slack[ci]``; the duals of
    the rects still uncovered after picking ci stay feasible, so every leaf
    under that child costs at least cost + bound + ``slack[ci]``, and the
    child is skipped, unentered and uncounted, when that reaches the
    incumbent as it stands at the child.

    The search seeds its own incumbent.  At the root there is none, so the
    pass runs to the end, and ``_dual_cover`` reads a cover off its slacks;
    the incumbent becomes one above that cover's cost H.  H is the cost of
    a cover, so the incumbent lies above the optimum, and it yields only to
    strict improvements: a skipped child holds no leaf that would replace
    it.  An earlier entry of a state searched the same subtree from no
    higher cost against an incumbent no lower, so the memo drops no first
    optimal leaf; the answer is the first optimal choice sequence: the one
    the subset DP over rect bitmasks, ``tests/helpers.py::exact_opt_subset_dp``,
    reconstructs.

    The node budget counts entered nodes only, over all blocks, each
    block's root included; a block of one rect, which has one row, takes it
    at its root.  An instance of one rect is that block alone: its one row
    is its own span at its top edge, the lowest level that meets it, and it
    is returned without a table, at one node.
    """
    if len(inst.rects) == 1:
        _Budget(node_budget).tick()
        r = inst.rects[0]
        return Solution((_built(Segment, r.xl, r.xr, r.yt),))
    blocks = _x_blocks(inst)
    keys, masks, lengths = _candidate_table(inst, blocks)
    covering = _covering(masks, len(inst.rects))
    budget = _Budget(node_budget)
    best = []
    for block in blocks:
        if len(block) == 1:
            # one rect has one row; the root counts
            budget.tick()
            best += covering[block[0]]
        else:
            best += _search(block, masks, lengths, covering, budget)
    # rows are in key order, so the answer is sorted by row index
    return Solution(tuple(_built(Segment, *key) for key in _fraction_keys(inst, [keys[ci] for ci in sorted(best)])))


def _oracle_limit(limit: int) -> int:
    """``limit`` as a size limit of the exact oracle; a non-integer or
    negative one is a parameter error, wherever it is given."""
    return _as_int(limit, "oracle_limit", 0)


def exact_opt(inst: Instance, limit: int = ORACLE_LIMIT) -> Solution:
    """Minimum-total-length solution, by ``_branch_and_bound``.

    Raises OracleLimitError when the instance has more than `limit` rects,
    ParameterError for a negative `limit`.  Deterministic: ties go to the
    optimum the subset DP ``tests/helpers.py::exact_opt_subset_dp`` would
    reconstruct.
    """
    _oracle_limit(limit)
    n = len(inst.rects)
    if n > limit:
        raise OracleLimitError(f"instance has {n} rects, oracle limit is {limit}")
    return _branch_and_bound(inst)


def greedy_cover(inst: Instance) -> Solution:
    """Classical set-cover greedy: repeatedly pick the candidate maximizing
    newly-stabbed count per unit length.

    Ties break toward smaller length, then lexicographic segment order, so
    the output is deterministic.  Guarantees the (1 + ln n) set-cover ratio.
    Runs on the table without the rows across a gap between blocks: such a
    row stabs n1 + n2 new rects at more than the length l1 + l2 of its
    pieces, a ratio below the better piece's, so greedy never picks it.
    """
    keys, masks, lengths = _candidate_table(inst, _x_blocks(inst))
    picked = _greedy(masks, lengths, (1 << len(inst.rects)) - 1)
    return Solution(tuple(_built(Segment, *key) for key in _fraction_keys(inst, [keys[ci] for ci in picked])))
