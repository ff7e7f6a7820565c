"""Approximation schemes: a PTAS for bounded width ratio and a recursive QPTAS.

Both run the shifted-grid decomposition to break the instance into chunks of
bounded optimum.  The PTAS can afford to solve every chunk outright because a
minimum width delta caps the number of segments a chunk optimum may use.  The
QPTAS instead guesses the chunk's long segments (length at least half the
current width scale), which must stab every wide rectangle, and recurses on
the leftover narrow ones with the width scale halved; the recursion therefore
bottoms out after about log2(n/eps) levels.

All asymptotic constants are instantiated explicitly from the decomposition
guarantees with c = 8: a chunk optimum is at most 8w/eps^2 + w/eps, so a
chunk holds at most ceil(2 * (8/mu^2 + 1/mu)) long segments and a
delta-bounded chunk optimum uses at most ceil((8/eps^2 + 1/eps)/delta)
segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    Instance,
    InfeasibleError,
    OracleLimitError,
    ParameterError,
    Segment,
    Solution,
    _as_int,
    _built,
    _length,
    _rational,
    _unit,
    ceil_log2,
    denormalize,
    normalize,
)
from .decompose import _chunk_bound, decompose
from .oracle import (
    ORACLE_LIMIT,
    _branch_and_bound,
    _Budget,
    _candidate_table,
    _oracle_limit,
    _Table,
    exact_opt,
)


@dataclass(frozen=True)
class SchemeParams:
    """Resolved parameters for one scheme run; ``derive`` sets every default.

    ``mu`` is the per-level decomposition accuracy eps / (17 * (d + 1)), where
    d = ceil(log2(n/eps)) is the number of levels the width scale can halve
    through, for the rect count n (an integer; 0 derives as 1, negative is a
    parameter error); ``klong`` the cap on long segments per guess.  Either may be
    overridden for desk-scale runs; the certified approximation factor then
    follows the overridden values.  ``node_budget`` caps the recursion nodes
    plus the subsets ``guess_long`` reaches in a ``qptas`` run, or None for
    no cap.  A record checks its own fields, however it is built: mu in
    (0, 1), klong >= 1, oracle_limit >= 0 and node_budget None or >= 0.
    """

    mu: Fraction
    klong: int
    oracle_limit: int
    node_budget: int | None

    def __post_init__(self):
        object.__setattr__(self, "mu", _unit(self.mu, "mu"))
        _as_int(self.klong, "klong", 1)
        _oracle_limit(self.oracle_limit)
        _node_budget(self.node_budget)

    @classmethod
    def derive(
        cls,
        n: int,
        eps,
        mu=None,
        klong=None,
        oracle_limit=None,
        node_budget=None,
    ) -> "SchemeParams":
        _as_int(n, "n", 0)
        eps = _unit(eps, "eps")
        if mu is None:
            mu = eps / (17 * (ceil_log2(Fraction(max(n, 1)) / eps) + 1))
        if klong is None:
            # the default follows mu, so a given mu is read as mu first
            klong = math.ceil(2 * _chunk_bound(_unit(mu, "mu")))
        return cls(mu, klong, ORACLE_LIMIT if oracle_limit is None else oracle_limit, node_budget)


def _node_budget(budget: int | None) -> int | None:
    """``budget`` as a search node budget, None for none; a non-integer or
    negative one is a parameter error."""
    return budget if budget is None else _as_int(budget, "node_budget", 0)


@dataclass
class RunStats:
    """Mutable accounting filled in by a scheme run when the caller asks.

    ``nodes`` counts the recursion nodes entered, the root and every guess
    branch recursed on; the node budget counts these, every subset
    ``guess_long`` reaches and no exact leaf's search node, so a guessing
    run needs more budget than ``nodes``.  ``guesses`` counts every guess
    ``guess_long`` returns, skipped or not, so (nodes - 1) / guesses is the
    share of guesses recursed on.  The costs sum the normalized output's
    segments by the part each is tagged with: normalized = paid + base + guess.
    """

    max_depth: int = 0
    nodes: int = 0
    guesses: int = 0
    paid_cost: Fraction = field(default_factory=lambda: Fraction(0))
    guess_cost: Fraction = field(default_factory=lambda: Fraction(0))
    base_cost: Fraction = field(default_factory=lambda: Fraction(0))
    normalized_cost: Fraction = field(default_factory=lambda: Fraction(0))


def solve_small(inst: Instance, k: int, node_budget: int | None = None) -> Solution:
    """The exact optimum ``_branch_and_bound(inst, node_budget)``, checked
    to use at most k segments: InfeasibleError when it uses more, and
    BudgetError when the search exhausts ``node_budget`` nodes.  The PTAS
    chunk solver, where k is the paper's bound on a chunk optimum's
    segments, so the error means that bound broke.
    """
    _as_int(k, "k", 1)
    sol = _branch_and_bound(inst, _node_budget(node_budget))
    if len(sol.segments) > k:
        raise InfeasibleError(f"the optimum uses {len(sol.segments)} segments, more than {k}")
    return sol


def ptas(inst: Instance, eps, delta) -> Solution:
    """(1 + 17 eps)-approximation when all normalized widths lie in [delta, 1].

    Normalizes, decomposes with accuracy eps, solves every chunk exactly
    with ``solve_small``, and maps the union of paid and chunk segments back
    to original coordinates.  eps must lie in (0, 1) and delta in (0, 1];
    anything else is a parameter error.  Each segment of a chunk optimum
    alone stabs some rect, so it is at least delta long, and the chunk's OPT
    of at most 8/eps^2 + 1/eps uses at most k = ceil((8/eps^2 + 1/eps)/delta)
    segments; a chunk optimum with more raises InfeasibleError.
    """
    eps, delta = _unit(eps, "eps"), _unit(delta, "delta", closed=True)
    if not inst.rects:
        return Solution(())

    norm, transform = normalize(inst, eps)
    g = norm._grid
    if any((b - a) * delta.denominator < delta.numerator * g.dx for a, b in zip(g.xl, g.xr)):
        raise ParameterError("instance violates the minimum width delta after normalization")

    k = math.ceil(_chunk_bound(eps) / delta)
    dec = decompose(norm, eps)
    segments = list(dec.paid_segments)
    for chunk in dec.sub_instances:
        segments.extend(solve_small(chunk, k).segments)
    return denormalize(Solution(tuple(segments)), transform)


def guess_long(
    inst: Instance, min_len, k: int, _budget: _Budget | None = None, _table: _Table | None = None
) -> list[tuple[int, int, tuple]]:
    """The subsets of at most k reduced candidates of length >= min_len whose
    union stabs every rect of width >= min_len, as ``(union, total, keys)``
    rows: the union of their stab sets as a rect-position bit mask, their
    integer total length over ``inst._grid.dx``, and the ``(xl, xr, y)``
    coordinates of their candidate-table rows in table order.

    The empty set counts, and qualifies when no rect is that wide.  Guesses
    with the same union of stab-sets are interchangeable up to total length,
    so one guess is kept per union: its least qualifying subset by the key
    (total, size, rows), rows being candidate indices ascending, in
    canonical order.  The same key orders the output, so the order does not
    depend on the walk.  One depth-first walk reaches every subset it needs
    once.  A subset is not extended once its union together with every
    candidate after its last row misses a wide rect: no extension of it
    could stab them all.  Nor is it extended by a row that adds no rect to
    its union: dropping that row keeps the union and lowers both size and
    total, so the key never picks a subset holding such a row.  Every
    subset reached ticks ``_budget``; no ``Segment`` is built, and only the
    rows of the returned guesses are mapped back to coordinates.

    ``_table`` is the record ``_candidate_table(inst)``, the full table,
    when the caller has built it.
    """
    min_len = _rational(min_len, "min_len")
    _as_int(k, "k", 0)
    table = _candidate_table(inst) if _table is None else _table
    g = inst._grid
    # a length l over dx is at least min_len when l * per >= bar
    per, bar = min_len.denominator, min_len.numerator * g.dx
    pool = [(mask, cost, ci) for ci, (mask, cost) in enumerate(zip(table.masks, table.lengths)) if cost * per >= bar]
    wide = sum(1 << i for i, (a, b) in enumerate(zip(g.xl, g.xr)) if (b - a) * per >= bar)
    reach = [0] * (len(pool) + 1)  # reach[i]: the union of pool[i:]
    for i in range(len(pool) - 1, -1, -1):
        reach[i] = reach[i + 1] | pool[i][0]
    cheapest: dict[int, tuple] = {}  # union -> least (integer total, size, rows)
    todo = [(0, 0, 0, ())]  # subsets as (next index, union, total, rows)
    while todo:
        start, union, total, rows = todo.pop()
        if _budget is not None:
            _budget.tick()
        if not wide & ~union:
            key = (total, len(rows), rows)
            cheapest[union] = min(cheapest.get(union, key), key)
        if len(rows) < k:
            # reach only shrinks as i grows, so the first dead end ends the run
            for i in range(start, len(pool)):
                if wide & ~(union | reach[i]):
                    break
                mask, cost, ci = pool[i]
                if not mask & ~union:
                    continue
                todo.append((i + 1, union | mask, total + cost, rows + (ci,)))
    unions = sorted(cheapest, key=cheapest.__getitem__)
    used = list({ci for union in unions for ci in cheapest[union][2]})
    coords = dict(zip(used, table.coords(used)))
    return [(union, cheapest[union][0], tuple(coords[i] for i in cheapest[union][2])) for union in unions]


def qptas(
    inst: Instance,
    eps,
    params: SchemeParams | None = None,
    stats: RunStats | None = None,
) -> Solution:
    """(1 + eps)-approximation in quasi-polynomial time.

    Each level decomposes with accuracy mu, then per chunk either solves
    exactly (small chunks) or guesses the optimum's long segments: subsets of
    at most klong candidates of length >= half the level's width scale.  A
    correct guess stabs every wide rectangle (width >= half the scale), and
    ``guess_long`` returns only such guesses, so every guess leaves a
    residual with all widths below half the scale, recursed on with the
    scale halved.

    A guess is skipped, unentered, once a bound shows it cannot beat the
    best branch so far: when its total plus ``_Table.dual`` of its residual
    over the chunk's full candidate table reaches the best cost.  Every
    candidate segment of the residual is dominated by a row of that table,
    so the bound is at most the residual's optimum, and so at most the cost
    of the recursion on it; the guesses keep their order and only a strictly
    cheaper branch replaces the best, so a skipped guess is never the one
    kept: among branches of equal cost, the guess with the least
    ``guess_long`` key, (total, size, rows), wins.  One ``_Table`` per
    chunk serves ``guess_long`` and every bound.
    ``stats`` splits the cost exactly, summing the output's segments by the
    part that paid for each: the decomposition, a guess or an exact leaf.
    ``params.node_budget`` caps the nodes entered plus the subsets
    ``guess_long`` reaches (BudgetError), not the exact leaves' search.  A
    chunk with no qualifying guess above the exact leaf's limit,
    max(oracle_limit, ORACLE_LIMIT), raises OracleLimitError.
    """
    eps = _unit(eps, "eps")
    if params is None:
        params = SchemeParams.derive(len(inst.rects), eps)
    if stats is None:
        stats = RunStats()

    norm, transform = normalize(inst, eps)
    budget = _Budget(params.node_budget)
    limit = max(params.oracle_limit, ORACLE_LIMIT)

    def leaf(node: Instance) -> tuple[Fraction, list[tuple[str, Segment]]]:
        sol = exact_opt(node, limit=limit)
        return sol.cost, [("base", s) for s in sol.segments]

    # each call returns its output's cost and the output as (part, segment)
    # pairs in output order, part "paid", "guess" or "base"; a discarded
    # guess branch leaves nothing in the output, so the root's tags split the
    # output cost exactly
    def recurse(current: Instance, scale: Fraction, depth: int) -> tuple[Fraction, list[tuple[str, Segment]]]:
        budget.tick()
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        if len(current.rects) <= params.oracle_limit:
            # a small node, an empty residual too, is solved by the exact leaf
            return leaf(current)
        dec = decompose(current, params.mu)
        cost = _length(dec.paid_segments)
        tagged = [("paid", s) for s in dec.paid_segments]
        half = scale / 2
        for chunk in dec.sub_instances:
            best: tuple | None = None  # (cost, guess keys, rest)
            if len(chunk.rects) > params.oracle_limit:
                table = _candidate_table(chunk)
                n, dx = len(chunk.rects), chunk._grid.dx
                full = (1 << n) - 1
                order = table.order(range(n))
                for union, total, keys in guess_long(chunk, half, params.klong, budget, table):
                    stats.guesses += 1
                    assert len(keys) <= params.klong
                    assert all(xr - xl >= half for xl, xr, _ in keys)
                    if best is not None:
                        # the least integer bound b with total + b >= best cost * dx
                        gap = -(-best[0].numerator * dx // best[0].denominator) - total
                        if table.dual(full & ~union, order, gap)[0] >= gap:
                            continue
                    residual = chunk._restrict([i for i in range(n) if not union >> i & 1])
                    rest_cost, rest = recurse(residual, half, depth + 1)
                    branch = Fraction(total, dx) + rest_cost
                    if best is None or branch < best[0]:
                        best = (branch, keys, rest)
            if best is None:
                # the exact leaf: a small chunk, or one that no guess fits
                if len(chunk.rects) > limit:
                    raise OracleLimitError(
                        f"a chunk of {len(chunk.rects)} rects has no guess of at most klong={params.klong} long"
                        f" segments and is above the exact leaf's limit of {limit}"
                    )
                leaf_cost, rest = leaf(chunk)
                best = (leaf_cost, (), rest)
            cost += best[0]
            tagged += [("guess", _built(Segment, *key)) for key in best[1]]
            tagged += best[2]
        return cost, tagged

    _, tagged = recurse(norm, norm.max_width, 0) if norm.rects else (0, [])
    solved = Solution(tuple(s for _, s in tagged))
    stats.paid_cost, stats.guess_cost, stats.base_cost = (
        _length([s for p, s in tagged if p == part]) for part in ("paid", "guess", "base")
    )
    stats.normalized_cost = solved.cost
    return denormalize(solved, transform)
