"""Independent reference implementations used as oracles by the tests.

Nothing here shares code paths with the solvers under test beyond the plain
data types and the stabbing predicate, except that the subset DP, the
unmemoized search and the greedy scan read the candidate table, which the
tests check against ``reduce_candidates``, the pairwise definition of the
reduced candidates that no solver calls, and the decomposition
references price with ``approx8`` and find crossed rects with
``crossing_rects``, and the rounding reference reads ``ceil_log2``, each
tested on its own.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations

from stabkit import (
    CutResult,
    Instance,
    ParameterError,
    Rect,
    RunStats,
    SchemeParams,
    Segment,
    Solution,
    Strip,
    StripPartition,
    VerifyReport,
    approx8,
    candidate_segments,
    decompose,
    denormalize,
    exact_opt,
    guess_long,
    normalize,
    ceil_log2,
    crossing_rects,
    gen_bounded_ratio,
    gen_laminar,
    gen_uniform,
    pow2,
    stabs,
)
from stabkit.decompose import CUT_FACTOR
from stabkit.oracle import ORACLE_LIMIT, _candidate_table


def brute_force_opt(inst: Instance) -> Fraction:
    """Minimum cover cost by exhaustive enumeration of candidate subsets.

    A minimal optimal solution uses at most one segment per rectangle, so
    subsets up to size n suffice.  Exponential; keep n tiny.
    """
    if not inst.rects:
        return Fraction(0)
    cands = candidate_segments(inst)
    best = None
    for s in range(0, len(inst.rects) + 1):
        for sub in combinations(cands, s):
            if all(any(stabs(seg, r) for seg in sub) for r in inst.rects):
                cost = sum((seg.length for seg in sub), Fraction(0))
                if best is None or cost < best:
                    best = cost
    return best


def exact_opt_subset_dp(inst: Instance) -> Solution:
    """Minimum-total-length solution by subset DP over rect bitmasks:
    dp[mask] = min over candidates c stabbing the lowest set bit of
    dp[mask \\ c.stab_set] + |c|, first strict improvement kept.

    Reference for ``exact_opt``, which must return this very solution.  It
    reads the candidate table the solvers use; 2^n states, so keep n small.
    """
    n = len(inst.rects)
    if n == 0:
        return Solution(())
    keys, masks, lengths, covering = _candidate_table(inst)
    size = 1 << n
    dp = [0] * size
    choice = [-1] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        best = None
        for ci in covering[low]:
            val = dp[mask & ~masks[ci]] + lengths[ci]
            if best is None or val < best:
                best, choice[mask] = val, ci
        dp[mask] = best
    segments = []
    mask = size - 1
    while mask:
        ci = choice[mask]
        segments.append(Segment(*keys[ci]))
        mask &= ~masks[ci]
    return Solution(tuple(sorted(segments, key=lambda s: (s.xl, s.xr, s.y))))


def greedy_scan(inst: Instance) -> Solution:
    """Greedy set cover by a full scan per pick: every candidate's newly
    stabbed count is recomputed, and the best ratio wins, ties to the shorter
    length, then to the earlier row of the candidate table.

    Reference for ``greedy_cover``, which must return this very solution.
    """
    keys, masks, lengths, _ = _candidate_table(inst)
    return Solution(tuple(Segment(*keys[ci]) for ci in _greedy_scan_picks(masks, lengths, len(inst.rects))))


def _greedy_scan_picks(masks: list[int], lengths: list[int], n: int) -> list[int]:
    covered = 0
    picked: list[int] = []
    while covered != (1 << n) - 1:
        best = (0, 1, -1)  # (newly, length, index); ratio 0 loses to any newly > 0
        for ci, (mask, length) in enumerate(zip(masks, lengths)):
            newly = (mask & ~covered).bit_count()
            if newly == 0:
                continue
            lhs = newly * best[1]
            rhs = best[0] * length
            if lhs > rhs or (lhs == rhs and length < best[1]):
                best = (newly, length, ci)
        covered |= masks[best[2]]
        picked.append(best[2])
    return picked


def branch_and_bound_unmemoized(inst: Instance) -> Solution:
    """The cheapest solution by the depth-first search over the candidate
    table with no memo and the full dual bound at every node.

    It branches on the lowest unstabbed rect over its covering row in table
    order, prunes when cost plus the full one-pass dual bound reaches the
    incumbent, starts the incumbent one above ``greedy_scan``'s cost and
    keeps only strict improvements.  Reference for ``exact_opt`` and
    ``solve_small``, which must return this very solution.  Exponential
    without the memo; keep n small.
    """
    keys, masks, lengths, covering = _candidate_table(inst)
    n = len(covering)
    order = sorted(range(n), key=lambda i: (len(covering[i]), i))

    def full_bound(uncovered: int) -> int:
        slack = lengths[:]
        total = 0
        for i in order:
            if uncovered >> i & 1:
                row = covering[i]
                y = min(slack[ci] for ci in row)
                total += y
                for ci in row:
                    slack[ci] -= y
        return total

    best_cost = sum(lengths[ci] for ci in _greedy_scan_picks(masks, lengths, n)) + 1
    best: list[int] = []
    chosen: list[int] = []

    def descend(uncovered: int, cost: int) -> None:
        nonlocal best, best_cost
        if not uncovered:
            if cost < best_cost:
                best, best_cost = chosen[:], cost
            return
        if cost + full_bound(uncovered) >= best_cost:
            return
        for ci in covering[(uncovered & -uncovered).bit_length() - 1]:
            chosen.append(ci)
            descend(uncovered & ~masks[ci], cost + lengths[ci])
            chosen.pop()

    descend((1 << n) - 1, 0)
    return Solution(tuple(sorted((Segment(*keys[ci]) for ci in best), key=lambda s: (s.xl, s.xr, s.y))))


def guess_long_all(inst: Instance, min_len: Fraction, k: int) -> list[tuple[int, int, tuple]]:
    """Every union of stab sets of at most k reduced candidates of length >=
    min_len, with the cheapest subset per union, in the order of each
    union's first sighting over the subsets (sizes ascending, candidates in
    table order); the empty set included.  Rows are ``(union, total, keys)``:
    the union, the subset's integer total over the grid's dx and its
    candidate-table keys.

    Reference for ``guess_long``, which keeps only the unions stabbing every
    rect of width >= min_len.
    """
    keys, masks, lengths, _ = _candidate_table(inst)
    pool = [(mask, length, key) for key, mask, length in zip(keys, masks, lengths) if key[1] - key[0] >= min_len]
    reps: dict[int, tuple[int, tuple]] = {}
    for size in range(min(k, len(pool)) + 1):
        for combo in combinations(pool, size):
            union = 0
            for mask, _, _ in combo:
                union |= mask
            total = sum(length for _, length, _ in combo)
            if union not in reps or total < reps[union][0]:
                reps[union] = (total, combo)
    return [(union, total, tuple(key for _, _, key in combo)) for union, (total, combo) in reps.items()]


def qptas_every_guess(inst: Instance, eps: Fraction, params: SchemeParams) -> tuple[Solution, RunStats]:
    """``qptas`` that recurses on every guess ``guess_long`` returns, with its
    run's ``RunStats``: no guess is skipped, so its nodes count every guess.

    Reference for ``qptas``, which skips a guess once a bound shows that its
    branch cannot be strictly cheaper than the best so far, and must return
    this very solution and cost split.  Ties between branches go to the
    earlier guess in both.
    """
    stats = RunStats()
    norm, transform = normalize(inst, eps)
    limit = max(params.oracle_limit, ORACLE_LIMIT)

    def leaf(node: Instance) -> tuple[Fraction, list[tuple[str, Segment]]]:
        sol = exact_opt(node, limit=limit)
        return sol.cost, [("base", s) for s in sol.segments]

    def recurse(current: Instance, scale: Fraction, depth: int) -> tuple[Fraction, list[tuple[str, Segment]]]:
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        if len(current.rects) <= params.oracle_limit:
            return leaf(current)
        dec = decompose(current, params.mu)
        cost = Solution(dec.paid_segments).cost
        tagged = [("paid", s) for s in dec.paid_segments]
        half = scale / 2
        for chunk in dec.sub_instances:
            best = None
            if len(chunk.rects) > params.oracle_limit:
                for union, total, keys in guess_long(chunk, half, params.klong):
                    stats.guesses += 1
                    residual = Instance(tuple(r for i, r in enumerate(chunk.rects) if not union >> i & 1))
                    rest_cost, rest = recurse(residual, half, depth + 1)
                    branch = Fraction(total, chunk._grid.dx) + rest_cost
                    if best is None or branch < best[0]:
                        best = (branch, keys, rest)
            if best is None:
                leaf_cost, rest = leaf(chunk)
                best = (leaf_cost, (), rest)
            cost += best[0]
            tagged += [("guess", Segment(*key)) for key in best[1]] + best[2]
        return cost, tagged

    tagged = recurse(norm, norm.max_width, 0)[1] if norm.rects else []
    solved = Solution(tuple(s for _, s in tagged))
    stats.paid_cost, stats.guess_cost, stats.base_cost = (
        Solution(tuple(s for p, s in tagged if p == part)).cost for part in ("paid", "guess", "base")
    )
    stats.normalized_cost = solved.cost
    return denormalize(solved, transform), stats


def is_laminar_pairwise(inst: Instance) -> bool:
    """Laminarity by testing every pair of distinct x-projections: nested or
    interior-disjoint (shared endpoints count as disjoint)."""
    spans = sorted({(r.xl, r.xr) for r in inst.rects})
    for i, (a0, a1) in enumerate(spans):
        for b0, b1 in spans[i + 1 :]:
            disjoint = a1 <= b0 or b1 <= a0
            nested = (a0 <= b0 and b1 <= a1) or (b0 <= a0 and a1 <= b1)
            if not (disjoint or nested):
                return False
    return True


def solve_laminar_full_scan(inst: Instance) -> Solution:
    """The laminar box DP with ranks on Fractions, in which every box scans
    all n rank tuples for the rects inside it.

    Reference for ``solve_laminar``, which must return this very solution.
    It recurses once per nested box, so keep n far below the recursion limit.
    """
    if not is_laminar_pairwise(inst):
        raise ParameterError("instance is not laminar")
    rects = inst.rects
    xs = sorted({r.xl for r in rects} | {r.xr for r in rects})
    ys = sorted({r.yb for r in rects} | {r.yt for r in rects})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    den = math.lcm(*(v.denominator for v in xs))
    # (-width * den, id, xl, xr, yb, yt): min() picks the widest, lowest id
    ranks = [(int((r.xl - r.xr) * den), r.id, xi[r.xl], xi[r.xr], yi[r.yb], yi[r.yt]) for r in rects]
    tops = sorted({t[5] for t in ranks})
    memo: dict[tuple, tuple] = {}

    def solve(i, j, u, v):
        if u > v or i >= j:
            return 0
        if (i, j, u, v) not in memo:
            group = [t for t in ranks if i <= t[2] and t[3] <= j and u <= t[4] and t[5] <= v]
            if not group:
                memo[i, j, u, v] = (0, None)
            elif len(group) == 1:
                neg_width, _, a, b, _, yt = group[0]
                memo[i, j, u, v] = (-neg_width, (a, b, yt))
            else:
                neg_width, _, a, b, yb, yt = min(group)
                best = None
                for t in tops[bisect_left(tops, yb) : bisect_right(tops, yt)]:
                    cost = solve(a, b, u, t - 1) + solve(a, b, t + 1, v)
                    if best is None or cost < best[0]:
                        best = (cost, t)
                cost = -neg_width + solve(i, a, u, v) + solve(b, j, u, v) + best[0]
                memo[i, j, u, v] = (cost, (a, b, best[1]))
        return memo[i, j, u, v][0]

    def collect(i, j, u, v):
        stab = memo.get((i, j, u, v), (0, None))[1]
        if stab is not None:
            a, b, t = stab
            yield Segment(xs[a], xs[b], ys[t])
            for box in ((i, a, u, v), (b, j, u, v), (a, b, u, t - 1), (a, b, t + 1, v)):
                yield from collect(*box)

    root = (0, len(xs) - 1, 0, len(ys) - 1)
    total = solve(*root)
    sol = Solution(tuple(sorted(collect(*root), key=lambda s: (s.xl, s.xr, s.y))))
    assert sol.cost == Fraction(total, den)
    return sol


def horizontal_cuts_all_levels(strip: Instance, eps: Fraction) -> CutResult:
    """The horizontal-cut sweep that prices the rects below every distinct y
    level, bottom edges included, and prices the final chunk once more.

    Reference for ``horizontal_cuts`` given the strip's own max width and
    x-range (``strip_span``) as its width and span; the pricing is the same
    ``approx8``.
    """
    threshold = CUT_FACTOR * strip.max_width / eps**2
    x0 = min(r.xl for r in strip.rects)
    x1 = max(r.xr for r in strip.rects)
    remaining = list(strip.rects)
    cuts, chunks, costs = [], [], []
    while remaining:
        trigger = None
        for z in sorted({r.yb for r in remaining} | {r.yt for r in remaining}):
            below = [r for r in remaining if r.yt <= z]
            cost = approx8(Instance(tuple(below))).cost
            if cost > threshold:
                trigger = (z, cost)
                break
        if trigger is None:
            chunk = Instance(tuple(remaining))
            chunks.append(chunk)
            costs.append(approx8(chunk).cost)
            break
        z, cost = trigger
        cuts.append(Segment(x0, x1, z))
        closed = [r for r in remaining if r.yt < z]
        if closed:
            chunks.append(Instance(tuple(closed)))
            costs.append(cost)
        remaining = [r for r in remaining if r.yb > z]
    return CutResult(tuple(cuts), tuple(chunks), tuple(costs))


def strip_span(strip: Instance) -> tuple[Fraction, Fraction]:
    """The x-range from the leftmost to the rightmost edge of the strip."""
    return min(r.xl for r in strip.rects), max(r.xr for r in strip.rects)


def crossing_rects_floor(inst: Instance, z: Fraction, spacing: Fraction) -> list[Rect]:
    """Rects crossed by some line x = z + i * spacing, found by locating the
    lowest line right of each left edge with a floor division.

    Reference for ``crossing_rects``, which uses one residue test instead.
    """
    hit = []
    for r in inst.rects:
        first = math.floor((r.xl - z) / spacing) + 1  # lowest i with line > xl
        if z + first * spacing < r.xr:
            hit.append(r)
    return hit


def verify_pairwise(inst: Instance, sol: Solution) -> VerifyReport:
    """Feasibility by testing every rect against every segment with the
    plain predicate, and the cost as a sum of Fraction lengths.

    Reference for ``verify``.
    """
    unstabbed = tuple(
        sorted(r.id for r in inst.rects if not any(stabs(s, r) for s in sol.segments))
    )
    cost = sum((s.length for s in sol.segments), Fraction(0))
    return VerifyReport(feasible=not unstabbed, unstabbed_ids=unstabbed, recomputed_cost=cost)


def shrink_solution_pairwise(inst: Instance, sol: Solution) -> Solution:
    """Each rect to the first segment that stabs it, found by testing every
    segment against every rect with the plain predicate; each segment then
    spans its rects' Fraction extremes, and unassigned ones are dropped.

    Reference for ``shrink_solution``.
    """
    assigned: dict[int, list[Rect]] = {}
    taken: set[int] = set()
    for i, s in enumerate(sol.segments):
        for r in inst.rects:
            if r.id not in taken and stabs(s, r):
                assigned.setdefault(i, []).append(r)
                taken.add(r.id)
    out = []
    for i, s in enumerate(sol.segments):
        group = assigned.get(i)
        if not group:
            continue
        out.append(Segment(min(r.xl for r in group), max(r.xr for r in group), s.y))
    return Solution(tuple(out))


def stab_mask(inst: Instance, s: Segment) -> int:
    """Bitmask of the rect positions s stabs, from the plain predicate."""
    return sum(1 << i for i, r in enumerate(inst.rects) if stabs(s, r))


def _affine(x: Fraction) -> Fraction:
    return x / 3 + Fraction(1, 7)


def affine_instance(inst: Instance) -> Instance:
    """The instance under x -> x/3 + 1/7, which puts every x coordinate on a
    grid whose common denominator has odd factors (3 and 7).

    The map is affine and increasing, so stab sets and every order between
    coordinates or lengths are kept, and each length shrinks by exactly 3.
    """
    return Instance(tuple(Rect(r.id, _affine(r.xl), _affine(r.xr), r.yb, r.yt) for r in inst.rects))


GENERATED_KINDS = ["uniform", "bounded", "laminar", "affine"]


def generated_instance(kind: str, n: int, seed: int) -> Instance:
    """A seeded instance of one of GENERATED_KINDS; "affine" is a uniform one
    under ``affine_instance``."""
    if kind == "uniform":
        return gen_uniform(n, seed)
    if kind == "bounded":
        return gen_bounded_ratio(n, Fraction(1, 2), seed)
    if kind == "laminar":
        return gen_laminar(n, seed)
    return affine_instance(gen_uniform(n, seed))


def affine_solution(sol: Solution) -> Solution:
    """The solution under the same x -> x/3 + 1/7 as ``affine_instance``."""
    return Solution(tuple(Segment(_affine(s.xl), _affine(s.xr), s.y) for s in sol.segments))


def canonicalize_segment(inst: Instance, s: Segment) -> Segment | None:
    """Rewrite a segment onto the candidate grid without shrinking its stab-set.

    Shrinks the span onto the extreme edges of the rects it stabs, then
    shifts it up to the nearest top edge.  Returns None when s stabs nothing.
    """
    stabbed = [r for r in inst.rects if stabs(s, r)]
    if not stabbed:
        return None
    xl = min(r.xl for r in stabbed)
    xr = max(r.xr for r in stabbed)
    y = min(r.yt for r in inst.rects if r.yt >= s.y)
    return Segment(xl, xr, y)


def round_rect_fraction(r: Rect) -> Rect:
    """The rect widened to the power of two 2^t with 2^(t-1) < width <= 2^t
    and left-aligned to the grid of multiples of 2^t, all on Fractions.

    Reference for ``to_laminar`` and the integer rounding
    ``approx8._rounded_spans`` behind it.
    """
    w2 = pow2(ceil_log2(r.width))
    left = math.floor(r.xl / w2) * w2
    return Rect(r.id, left, left + w2, r.yb, r.yt)


def round_segment_pow2(s: Segment) -> Segment:
    """Round a segment's endpoints outward to multiples of 2^t where
    2^(t-1) < |s| <= 2^t.  Zero-length segments are returned unchanged."""
    if s.length == 0:
        return s
    grid = pow2(ceil_log2(s.length))
    xl = math.floor(s.xl / grid) * grid
    xr = math.ceil(s.xr / grid) * grid
    return Segment(xl, xr, s.y)


def per_rect_solution(inst: Instance) -> Solution:
    """The trivially feasible solution spanning every rect at its own top edge."""
    return Solution(tuple(Segment(r.xl, r.xr, r.yt) for r in inst.rects))


def strip_partition_all_shifts(inst: Instance, eps: Fraction) -> StripPartition:
    """The strip partition that tests every grid shift k * max_width * eps / n
    below the spacing max_width / eps with ``crossing_rects``, prices each
    distinct crossed set by ``approx8`` and keeps the first of equal costs.

    Reference for ``strip_partition``, which visits only the shifts where the
    crossed set changes; n/eps^2 shifts, so keep n and 1/eps small.
    """
    if not inst.rects:
        return StripPartition((), (), Fraction(0), Fraction(0))
    w = inst.max_width
    spacing = w / eps
    step = w * eps / len(inst.rects)
    covers: dict[frozenset[int], tuple[Solution, Fraction]] = {}
    for k in range(math.ceil(spacing / step)):
        crossed = crossing_rects(inst, k * step, spacing)
        ids = frozenset(r.id for r in crossed)
        if ids not in covers:
            covers[ids] = (approx8(Instance(tuple(crossed))), k * step)
    crossed_ids, (cover, z_star) = min(covers.items(), key=lambda item: item[1][0].cost)
    groups: dict[int, list[Rect]] = {}
    for r in inst.rects:
        if r.id not in crossed_ids:
            groups.setdefault(math.floor((r.xl - z_star) / spacing), []).append(r)
    strips = tuple(
        Strip(Instance(tuple(groups[i])), z_star + i * spacing, z_star + (i + 1) * spacing)
        for i in sorted(groups)
    )
    return StripPartition(cover.segments, strips, z_star, spacing)
