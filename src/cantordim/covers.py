"""Cylinder covers: lambda / gamma-groupable verification and builders.

Covers store only cylinder words; in the ultrametric this is lossless (any
covering set sits inside a cylinder of the same diameter) and keeps all
diameter arithmetic exact.  "All but finitely many" verdicts are always
truncation-parameterized by a group horizon J and a trace depth D; the
toolkit never claims an infinite-horizon verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, repeat
from operator import lshift

from .errors import BuildError, SpecFormatError
from .hfun import DyadicHFn, grid_index_floor
from .measures import Filtration, _argmin_words, _dp_bounds
from .treeset import Budget, TreeSet, _budget
from .words import check_words, interleave


@dataclass(frozen=True)
class Cover:
    """A finite cylinder cover, optionally grouped and eps-tagged.

    ``groups`` are half-open index intervals [a, b) partitioning an initial
    segment of the element list, in order; ``eps`` tags the per-element
    fineness targets d(U_n) <= eps_n.  ``group_offset`` records the true
    index of the first group when the cover realizes a tail of witnessing
    groups (size bounds like |G_j| <= j count from there).  The words are
    validated here, once: the checks that read a cover do not again.
    """

    elements: tuple
    groups: tuple | None = None
    eps: tuple | None = None
    group_offset: int = 0

    def __post_init__(self):
        check_words(self.elements)
        if self.groups is not None:
            pos = 0
            for a, b in self.groups:
                if a != pos or b < a:
                    raise SpecFormatError("groups must partition an initial segment in order")
                pos = b
            if pos > len(self.elements):
                raise SpecFormatError("groups overrun the element list")
        if self.eps is not None and len(self.eps) < len(self.elements):
            raise SpecFormatError("eps sequence shorter than the element list")

    @classmethod
    def from_groups(cls, groups, eps=None, group_offset: int = 0) -> "Cover":
        """The cover listing the word groups one after another, with one
        half-open interval per group."""
        elements, intervals = [], []
        for g in groups:
            intervals.append((len(elements), len(elements) + len(g)))
            elements.extend(g)
        return cls(tuple(elements), tuple(intervals), eps, group_offset)

    @property
    def group_count(self) -> int:
        return len(self.groups) if self.groups else 0

    def group_elements(self, j: int):
        a, b = self.groups[j]
        return self.elements[a:b]

    def diameters(self, interleaved: bool = False):
        return tuple(Fraction(1, 1 << (len(w) // 2 if interleaved else len(w)))
                     for w in self.elements)

    def check_fineness(self, interleaved: bool = False):
        """Exact per-index check of d(U_n) <= eps_n; returns first bad index."""
        if self.eps is None:
            raise SpecFormatError("cover carries no eps sequence")
        for i, d in enumerate(self.diameters(interleaved)):
            if d > self.eps[i]:
                return i
        return None


def _growth(fn, n: int) -> int | Fraction:
    """fn(n) for a callable bound, fn[n] for a table; an int or a Fraction as is."""
    v = fn(n) if callable(fn) else fn[n]
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _least_threshold(outcomes) -> int | None:
    """The least index from which every (index, ok) outcome holds; None when
    the last one fails or there are none."""
    n0 = None
    for idx, ok in reversed(outcomes):
        if ok:
            n0 = idx
        else:
            break
    return n0


# A chunk int holds 2^CHUNK_BITS nodes: those of one depth that differ only
# in their first CHUNK_BITS bits.
CHUNK_BITS = 10
# _FOLD[j]: the chunk bits at multiples of 2^j, where the nodes of depth
# CHUNK_BITS - j sit (a repunit in base 2^(2^j))
_FOLD = tuple(((1 << (1 << CHUNK_BITS)) - 1) // ((1 << (1 << j)) - 1)
              for j in range(CHUNK_BITS + 1))


def _by_length(words, n: int) -> dict:
    """{d: the words of length d} for the lengths d <= n, in increasing d."""
    out: dict = {}
    for d, ws in groupby(sorted(words, key=len), len):
        if d > n:
            break
        out[d] = list(ws)
    return out


def _tag_classes(words, tag) -> dict:
    """{t: the words w with tag(w) == t}, in increasing t."""
    return {t: list(ws) for t, ws in groupby(sorted(words, key=tag), tag)}


def _covering_groups(e: TreeSet, ends: dict, budget: Budget | None) -> int:
    """Bitmask of the groups that cover E at the depth the words reach, in
    one forward sweep.

    ``ends`` maps each depth d to {tag: the cover words of length d with
    that tag}, where a word's tag is the bitmask of the groups that list it
    and each word sits in one class.  The words are read as integers once;
    the call consumes ``ends``.

    The sweep follows E's trace one depth at a time.  The frontier maps
    (E state, mask) to the nodes that reach that state with that OR of the
    tags of the words they extend, so one ``children`` call serves a whole
    bucket.  A node stops where no longer word lies below it (every trace
    node has a descendant, so its mask holds for all leaves below, and at
    the callers' depth n nothing is longer) or where its mask cannot grow.
    Bit j of the AND over all stops is set iff every depth-n trace node
    lies under a word of group j.  Each expanded node costs one budget
    node: when some group covers, that is every trace node with a word
    strictly below it and a mask short of the OR of all tags.

    Each set of depth-d nodes is a chunked bitset, a dict from a chunk key
    to an int whose set bits are the nodes.  With C = CHUNK_BITS, a node v
    of depth d >= C sits in chunk ``v & (2^(d-C) - 1)`` at bit
    ``v >> (d-C)``: nodes that differ only in their first C bits share one
    int.  Below C every node sits in chunk 0 at bit ``v << (C-d)``.  A
    child appends a bit at the low end, so it keeps its parent's first C
    bits: the children of chunk k through bit b are chunk ``k << 1 | b``
    with the same int, and below C chunk 0 shifted by ``b << (C-d-1)``.
    A parent drops the low bit, so chunks k and k ^ 1 OR into chunk
    ``k >> 1``, and below C the int folds onto the bits of depth d - 1.
    Splits, subsets and counts are per-chunk ANDs and bit counts.
    """
    full = 0
    for by_tag in ends.values():
        for tag in by_tag:
            full |= tag
    if not full:
        return 0
    # live[d]: the depth-d nodes with a word strictly below them, built
    # bottom-up as the words of each length are read into chunks
    live = [{}] * (max(ends) + 1)
    for d in range(len(live) - 1, -1, -1):
        by_tag = ends.get(d, {})
        s = d - CHUNK_BITS
        for tag, ws in by_tag.items():
            vs = map(int, ws, repeat(2)) if d else (0,)
            if s <= 0:
                by_tag[tag] = {0: sum(map(lshift, repeat(1), map(lshift, set(vs), repeat(-s))))}
            else:
                low, chunks = (1 << s) - 1, {}
                for v in vs:
                    k = v & low
                    chunks[k] = chunks.get(k, 0) | 1 << (v >> s)
                by_tag[tag] = chunks
        if not d:
            break
        up: dict = {}
        if s > 0:
            for below in (live[d], *by_tag.values()):
                for k, x in below.items():
                    up[k >> 1] = up.get(k >> 1, 0) | x
        else:
            x = live[d].get(0, 0)
            for below in by_tag.values():
                x |= below[0]
            # odd nodes fold onto their even siblings' bits, the parents'
            if x := (x | x >> (1 << -s)) & _FOLD[1 - s]:
                up[0] = x
        live[d - 1] = up
    covered = full
    children, spend = e.children, _budget(budget).spend
    frontier = {(e.root_state(), 0): {0: 1}}
    for d, live_d in enumerate(live):
        ends_d = ends.pop(d, {})
        live[d] = None  # a depth's tables go once the sweep has passed it
        lget = live_d.get
        grown: dict = {}  # (state, mask) -> the depth-d nodes to expand
        for (state, mask), nodes in frontier.items():
            parts = []  # (mask, nodes) in the order they are pooled
            for tag, tagged in ends_d.items():
                small, big = (nodes, tagged) if len(nodes) <= len(tagged) else (tagged, nodes)
                hit = {}
                for k, x in small.items():
                    if y := x & big.get(k, 0):
                        hit[k] = y
                if hit:
                    for k, x in hit.items():  # nodes -= hit, in place
                        if y := nodes[k] ^ x:
                            nodes[k] = y
                        else:
                            del nodes[k]
                    if mask | tag != full:
                        parts.append((mask | tag, hit))
                    if not nodes:
                        break
            if nodes:
                parts.append((mask, nodes))
            for m, part in parts:
                kept = {}
                for k, x in part.items():
                    if y := x & lget(k, 0):
                        kept[k] = y
                    if y != x:  # some node stops here
                        covered &= m
                if kept:
                    held = grown.setdefault((state, m), kept)
                    if held is not kept:
                        for k, x in kept.items():
                            held[k] = held.get(k, 0) | x
        if not covered or not grown:
            break
        frontier = {}
        shift = 1 << (CHUNK_BITS - d - 1) if d < CHUNK_BITS else 0
        for (state, mask), nodes in grown.items():
            spend(sum(map(int.bit_count, nodes.values())))
            for bit, child in children(state, d):
                if shift:
                    kids = {0: nodes[0] << shift if bit else nodes[0]}
                else:
                    kids = {}
                    for k, x in nodes.items():
                        kids[k << 1 | bit] = x
                held = frontier.setdefault((child, mask), kids)
                if held is not kids:
                    for k, x in kids.items():
                        held[k] = held.get(k, 0) | x
    return covered


def _covered_groups(e: TreeSet, groups, n: int, budget: Budget | None) -> int:
    """Bit j set iff the words of groups[j] cover E at depth n.

    Each group is bucketed by length once, and words longer than n are
    dropped before any parse.  A depth that one group lists keeps that
    group's words as one tag class; where several groups list words of one
    length, each meets only the words already seen there, so the build is
    linear in the words listed.  The callers have validated the words.
    """
    at: dict = {}  # d -> [(tag, the group's words of length d)]
    for j, g in enumerate(groups):
        for d, ws in _by_length(g, n).items():
            at.setdefault(d, []).append((1 << j, ws))
    ends: dict = {}
    for d in sorted(at):
        if len(at[d]) == 1:
            ends[d] = dict(at[d])
            continue
        tag_of: dict = {}  # a word listed by several groups gets the OR of their tags
        for tag, ws in at[d]:
            mine = dict.fromkeys(ws, tag)
            for w in mine.keys() & tag_of.keys():
                mine[w] |= tag_of[w]
            tag_of.update(mine)
        ends[d] = _tag_classes(tag_of, tag_of.__getitem__)
    return _covering_groups(e, ends, budget)


def is_cover_at_depth(e: TreeSet, elements, n: int,
                      budget: Budget | None = None) -> bool:
    """Every depth-n trace node of E lies under some listed cylinder."""
    check_words(elements)
    return bool(_covered_groups(e, (elements,), n, budget))


@dataclass(frozen=True)
class LambdaVerdict:
    status: str          # "holds" | "fails"
    horizon: int         # J
    depth: int
    failure_index: int | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def verify_lambda(e: TreeSet, cover: Cover, horizon: int, depth: int,
                  budget: Budget | None = None) -> LambdaVerdict:
    """Truncated lambda-cover criterion: for each j <= J the tail
    {U_n : n >= j} still covers E at the trace depth."""
    # element i lies in every tail j <= i, and past the horizon in every
    # tail; the tags nest, so a word listed twice keeps its later tag
    cut = max(horizon, 0)
    tag_of = {w: (2 << i) - 1 for i, w in enumerate(cover.elements[:cut])}
    tag_of.update(dict.fromkeys(cover.elements[cut:], (1 << max(horizon + 1, 0)) - 1))
    covered = _covering_groups(e, {d: _tag_classes(ws, tag_of.__getitem__)
                                   for d, ws in _by_length(tag_of, depth).items()}, budget)
    j = ((covered + 1) & ~covered).bit_length() - 1  # the lowest zero bit
    if j <= horizon:
        return LambdaVerdict("fails", horizon, depth, j)
    return LambdaVerdict("holds", horizon, depth)


@dataclass(frozen=True)
class GammaVerdict:
    status: str                 # "holds" | "fails"
    j0: int | None              # least group index from which all groups cover
    horizon: int
    depth: int
    group_failures: tuple = ()

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def verify_gamma_groupable(e: TreeSet, cover: Cover, horizon: int, depth: int,
                           budget: Budget | None = None) -> GammaVerdict:
    """Find the least j0 such that every group in [j0, J] covers E at depth D.

    The per-group failure list isolates broken groups even when a later
    suffix still qualifies.
    """
    if cover.groups is None:
        raise SpecFormatError("cover carries no witnessing groups")
    top = min(horizon, cover.group_count - 1)
    covered = _covered_groups(e, [cover.group_elements(j) for j in range(top + 1)],
                              depth, budget)
    outcomes = [(j, bool(covered >> j & 1)) for j in range(top + 1)]
    failures = tuple(j for j, good in outcomes if not good)
    j0 = _least_threshold(outcomes)
    return GammaVerdict("fails" if j0 is None else "holds", j0, top, depth, failures)


def gamma_grouped_sum(cover: Cover, h: DyadicHFn, interleaved: bool = False) -> Fraction:
    """Exact partial Hausdorff sum of the cover's elements.

    Uses the certified upper samples of the gauge, so the returned value
    bounds the true sum from above (and is exact for exact gauges).
    """
    scales = [len(w) // 2 if interleaved else len(w) for w in cover.elements]
    den, _, hi = h.numerators(max(scales, default=0))
    return Fraction(sum(hi[n] for n in scales), den)  # numerators over den


# ---------------------------------------------------------------------------
# Builders


def epsilons_for_gauge(h: DyadicHFn, count: int):
    """A fineness sequence with h(eps_n) <= 2^-n (1-based), read off the grid."""
    out = []
    idx = 0
    for n in range(1, count + 1):
        target = Fraction(1, 1 << n)
        while idx <= h.n_max and h.hi_at(idx) > target:
            idx += 1
        if idx > h.n_max:
            raise BuildError(f"gauge table bottoms out before h <= 2^-{n}")
        out.append(Fraction(1, 1 << idx))
    return tuple(out)


def build_fine_lambda(e: TreeSet, eps, h: DyadicHFn, witness: Cover,
                      horizon: int = 8, depth: int = 16,
                      budget: Budget | None = None) -> Cover:
    """Sort a small-sum lambda-cover into an eps-fine one.

    Preconditions follow the sorting argument: h comes from
    hfn_from_epsilons(eps) so h(eps_n) >= 1/(n+1) at index n, and the
    witness's Hausdorff sum is below 1 (callers rescale their witness by
    taking a deeper null cover when it is not).  Sorting by nonincreasing
    diameter then forces d(U_n) <= eps_n, which is re-checked exactly.
    """
    bud = _budget(budget)
    eps = tuple(Fraction(x) for x in eps)
    lam = verify_lambda(e, witness, horizon, depth, bud)
    if not lam.holds:
        raise BuildError(f"witness is not a lambda-cover (tail {lam.failure_index})")
    elems = sorted(witness.elements, key=len)  # nonincreasing diameter
    total = sum(h.hi_at(e.scale_of_depth(len(w))) for w in elems)
    if total >= 1:
        raise BuildError(f"witness Hausdorff sum {total} is not below 1")
    if len(eps) < len(elems):
        raise BuildError("eps sequence shorter than the witness")
    out = Cover(tuple(elems), None, eps)
    bad = out.check_fineness(e.interleaved)
    if bad is not None:
        raise BuildError(f"fineness failed at index {bad} "
                         f"(diameter {out.diameters(e.interleaved)[bad]} > eps)")
    return out


def build_gamma_groupable(filtration: Filtration, h: DyadicHFn, max_scale: int = 48,
                          depth: int = 24, budget: Budget | None = None) -> Cover:
    """Concatenate per-level covers of cost < 2^-n into a grouped cover.

    Level covers are taken from the DP argmin at the shallowest scale whose
    cost clears the threshold; a scale is priced from its DP's root, and
    words are read only at the accepted one.  The total Hausdorff sum stays
    below 2 and the gamma-groupable verdict is re-checked against the
    filtration's top set.
    """
    bud = _budget(budget)
    groups = []
    for n, x in enumerate(filtration.sets):
        cyls = None
        for m in range(n + 1, max_scale + 1):
            if m > h.n_max:
                break
            depth_m = x.depth_of_scale(min(m + 8, max_scale))
            memo, den = _dp_bounds(x, h, m, depth_m, bud)
            root = memo[x.root_state(), 0]
            if root[1] << n < den:  # cost below 2^-n: read the words
                cyls = tuple(_argmin_words(memo, root, bud))
                break
        if cyls is None:
            raise BuildError(f"no level-{n} cover of cost below 2^-{n} "
                             f"within scale {max_scale}")
        groups.append(cyls)
    cover = Cover.from_groups(groups)
    total = gamma_grouped_sum(cover, h, filtration.sets[-1].interleaved)
    if not total < 2:
        raise BuildError(f"total Hausdorff sum {total} is not below 2")
    check_depth = max(depth, max(map(len, cover.elements)))
    verdict = verify_gamma_groupable(filtration.sets[-1], cover,
                                     len(filtration) - 1, check_depth, bud)
    if not verdict.holds:
        raise BuildError(f"grouped cover failed verification: {verdict}")
    return cover


def build_bounded_groups(filtration: Filtration, g: DyadicHFn, eps,
                         horizon: int | None = None, depth: int = 32,
                         budget: Budget | None = None) -> Cover:
    """Groups of size |G_j| <= j via the compressed scale sequence.

    delta_n = eps_{0+1+...+n} after sorting eps decreasing; each level k gets
    groups at the scales n in [n_k, n_{k+1}) where its content clears
    N * g < 1, and the proof's ordering makes the concatenated cover
    eps-fine.  Requires g(delta_n) > 1/n on the used range.
    """
    bud = _budget(budget)
    eps = sorted((Fraction(x) for x in eps), reverse=True)
    triangle = []
    t = 0
    for n in range(len(eps)):
        t += n
        if t >= len(eps):
            break
        triangle.append(eps[t])  # delta_n = eps_{0+1+...+n}
    if horizon is None:
        horizon = len(triangle) - 1
    if horizon >= len(triangle):
        raise BuildError("eps sequence too short for the requested horizon")
    deltas = triangle[:horizon + 1]
    scales = [grid_index_floor(d) for d in deltas]
    for n in range(1, len(deltas)):
        if scales[n] > g.n_max:
            raise BuildError("gauge table too short for the compressed scales")
        if not g.lo_at(scales[n]) * n > 1:
            raise BuildError(f"precondition g(delta_{n}) > 1/{n} fails")

    levels = filtration.sets
    n_marks = []
    cursor = 1
    for k, x in enumerate(levels):
        counts = x.trace_counts(x.depth_of_scale(max(scales[cursor:], default=0)), bud)
        # the least n >= cursor with N * g < 1 at every n2 >= n
        found = _least_threshold(
            [(n, counts[x.depth_of_scale(scales[n])] * g.hi_at(scales[n]) < 1)
             for n in range(cursor, len(deltas))])
        if found is None:
            raise BuildError(f"no content witness for level {k} within the horizon")
        n_marks.append(found)
        cursor = found + 1

    groups = []
    for j in range(n_marks[0], len(deltas)):
        k = max(i for i, nm in enumerate(n_marks) if nm <= j)
        x = levels[k]
        cyls = x.trace(x.depth_of_scale(scales[j]), bud)
        if not len(cyls) <= j:
            raise BuildError(f"group {j} has {len(cyls)} > {j} elements")
        groups.append(cyls)
    cover = Cover.from_groups(groups, tuple(eps[:sum(map(len, groups))]), n_marks[0])
    bad = cover.check_fineness(levels[0].interleaved)
    if bad is not None:
        raise BuildError(f"eps-fineness failed at element {bad}")
    check_depth = max(depth, max(map(len, cover.elements)))
    verdict = verify_gamma_groupable(levels[-1], cover, len(groups) - 1,
                                     check_depth, bud)
    if not verdict.holds:
        raise BuildError(f"bounded-group cover failed verification: {verdict}")
    return cover


# ---------------------------------------------------------------------------
# Family-style witnesses (gamma-covers of family unions)


@dataclass(frozen=True)
class FamilyVerdict:
    status: str
    n0: int | None
    horizon: int
    depth: int
    fineness_failures: tuple = ()
    size_failures: tuple = ()
    coverage_failures: tuple = ()

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def verify_combPnull_witness(e: TreeSet, eps, families, f_bound,
                             horizon: int, depth: int,
                             budget: Budget | None = None) -> FamilyVerdict:
    """Families F_n with d(F_n) <= eps_n, |F_n| <= f(n), whose unions form a
    gamma-cover of E at truncation (J, D): the directed check on every
    n <= J."""
    top = min(horizon, len(families) - 1)
    return verify_combDnull_witness(e, eps, range(top + 1), families, f_bound,
                                    top, depth, budget)


def verify_combDnull_witness(e: TreeSet, eps, index_set, families, f_bound,
                             horizon: int, depth: int,
                             budget: Budget | None = None) -> FamilyVerdict:
    """The directed variant: the same checks restricted to n in I, holding
    when fineness and size never fail and coverage holds from some n0 in I
    on."""
    eps = [Fraction(x) for x in eps]
    idx = [n for n in sorted(index_set) if n <= horizon]
    check_words(list(chain.from_iterable(families[n] for n in idx)))
    fine_bad, size_bad = [], []
    for n in idx:
        fam = families[n]
        p, q = eps[n].numerator, eps[n].denominator  # 2^-k > p/q iff q > p 2^k
        if any(q > p << e.scale_of_depth(len(w)) for w in fam):
            fine_bad.append(n)
        if len(fam) > _growth(f_bound, n):
            size_bad.append(n)
    mask = _covered_groups(e, [families[n] for n in idx], depth, budget)
    outcomes = [(n, bool(mask >> i & 1)) for i, n in enumerate(idx)]
    n0 = _least_threshold(outcomes)
    ok = not fine_bad and not size_bad and n0 is not None
    return FamilyVerdict("holds" if ok else "fails", n0, horizon, depth,
                         tuple(fine_bad), tuple(size_bad),
                         tuple(n for n, good in outcomes if not good))


@dataclass(frozen=True)
class DpNullWitness:
    """(eps, I, families along I) for one set."""

    eps: tuple
    index_set: tuple
    families: dict

    def family(self, n: int):
        return self.families[n]


def build_dpnull_witness(filtration: Filtration, eps,
                         budget: Budget | None = None) -> DpNullWitness:
    """Realize the directed combinatorial witness from a filtration.

    Each level k gets a threshold m_k, the first eps index past m_{k-1}
    where N_{X_k}(eps_n) <= n holds; the index set collects every later n
    where the deepest applicable level still clears the bound, with the
    family given by that level's trace cylinders at the snapped scale.
    Levels beyond their threshold are covered by every later family, which
    is what the gamma-tail condition needs.
    """
    bud = _budget(budget)
    eps = tuple(Fraction(x) for x in eps)
    levels = filtration.sets
    thresholds = []
    cursor = 1
    for k, x in enumerate(levels):
        found = None
        for n in range(cursor, len(eps)):
            scale = grid_index_floor(eps[n])
            if x.trace_count(x.depth_of_scale(scale), bud) <= n:
                found = n
                break
        if found is None:
            raise BuildError(f"no eps index with N_(level {k}) <= n available")
        thresholds.append(found)
        cursor = found + 1
    index_set = []
    families = {}
    # level k is the deepest applicable one on [thresholds[k], thresholds[k+1])
    for k, end in enumerate(thresholds[1:] + [len(eps)]):
        x = levels[k]
        depths = {n: x.depth_of_scale(grid_index_floor(eps[n]))
                  for n in range(thresholds[k], end)}
        counts = x.trace_counts(max(depths.values()), bud)
        for n, d in depths.items():
            if counts[d] <= n:
                families[n] = tuple(x.trace(d, bud))
                index_set.append(n)
    return DpNullWitness(eps, tuple(index_set), families)


def merge_diagonal(witnesses, budget: Budget | None = None) -> DpNullWitness:
    """Diagonal merge of directed witnesses over a shared eps sequence.

    Picks increasing indices n_i >= i+1 common to the first i+1 index sets
    and unions their families; group sizes obey |G_i| <= n_i^2 and the
    merged witness verifies against the union set with f(n) = n^2.
    """
    ws = list(witnesses)
    if not ws:
        raise BuildError("nothing to merge")
    eps0 = ws[0].eps
    for w in ws:
        if w.eps != eps0:
            raise BuildError("mismatched eps sequences")
    merged_idx = []
    merged_fams = {}
    prev = 0
    pool = set(ws[0].index_set)
    for i, new in enumerate(ws):
        pool &= set(new.index_set)  # the indices common to the first i + 1 sets
        cands = sorted(n for n in pool if n > prev and n >= i + 1)
        if not cands:
            raise BuildError(f"no common index available at diagonal step {i}")
        n_i = cands[0]
        fam = []
        for w in ws[:i + 1]:
            fam.extend(w.families[n_i])
        fam = tuple(dict.fromkeys(fam))
        if len(fam) > n_i * n_i:
            raise BuildError(f"merged group at {n_i} exceeds n^2")
        merged_idx.append(n_i)
        merged_fams[n_i] = fam
        prev = n_i
    return DpNullWitness(eps0, tuple(merged_idx), merged_fams)


# ---------------------------------------------------------------------------
# Product covers


def product_cover(v_elements, u_cover: Cover, h: DyadicHFn,
                  product_set: TreeSet | None = None, depth: int | None = None,
                  budget: Budget | None = None) -> Cover:
    """The W-cover {V_j x U : U in group j} on the interleaved coding.

    Requires d(V_j) <= min{d(U) : U in group j}; each rectangle is realized
    as the interleaved cylinder of the trimmed pair (trimming the finer
    V-word preserves both coverage and the diameter d(U)), so the Hausdorff
    sum equals the U-side sum exactly.
    """
    if u_cover.groups is None:
        raise SpecFormatError("the U-cover must carry witnessing groups")
    bud = _budget(budget)
    groups = []
    for j in range(u_cover.group_count):
        us = u_cover.group_elements(j)
        if not us:
            raise BuildError(f"group {j} of the U-cover is empty")
        eps_j = min(len(u) for u in us)
        if j >= len(v_elements):
            raise BuildError("V-cover shorter than the U-groups")
        v = v_elements[j]
        if len(v) < eps_j:
            raise BuildError(
                f"fineness mismatch: d(V_{j}) = 2^-{len(v)} > 2^-{eps_j}")
        groups.append([interleave(v[:len(u)], u) for u in us])
    cover = Cover.from_groups(groups)
    u_sum = gamma_grouped_sum(u_cover, h)
    w_sum = gamma_grouped_sum(cover, h, interleaved=True)
    if w_sum != u_sum:
        raise AssertionError("product cover sum drifted from the U-side sum")
    if product_set is not None and depth is not None:
        if not _covered_groups(product_set, (cover.elements,), depth, bud):
            raise BuildError("product cover fails coverage at the check depth")
    return cover
