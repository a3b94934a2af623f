"""Block-family combinatorics on the cube: S(f,F) predicates, the inclusion
criterion, clopen block tests, and the witness pipelines that compile gauges
into block partitions and grouped covers.

Block partitions are strictly increasing (plateaus of nondecreasing inputs
are collapsed at ingestion, since the combinatorics needs nonempty blocks).
"For all but finitely many" is always reported as a least threshold within
an explicit horizon, never extrapolated.  The S(f,F) sets themselves are
G-delta objects and are deliberately not tree sets; the closed approximants
exposed here (level sets, X-tilde levels) are block-constraint sets.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .covers import Cover, _growth, _least_threshold
from .errors import BuildError, DepthExceededError, SpecFormatError
from .hfun import DyadicHFn
from .measures import Filtration
from .treeset import BlockConstraintSet, Budget, FullCube, _budget
from .words import Word, all_words, check_word, xor_words

# ---------------------------------------------------------------------------
# Partitions, families, points


@dataclass(frozen=True)
class BlockPartition:
    """A strictly increasing table f(0) < f(1) < ... defining the blocks
    [f(n), f(n+1))."""

    table: tuple

    def __post_init__(self):
        t = self.table
        if len(t) < 2 or t[0] < 0 or any(a >= b for a, b in zip(t, t[1:])):
            raise SpecFormatError("partition table must be strictly increasing "
                                  "with at least two entries")

    @classmethod
    def from_nondecreasing(cls, values) -> "BlockPartition":
        out = []
        for v in values:
            if not out or v > out[-1]:
                out.append(int(v))
        return cls(tuple(out))

    def __call__(self, n: int) -> int:
        return self.table[n]

    @property
    def block_count(self) -> int:
        return len(self.table) - 1

    def block(self, n: int) -> tuple[int, int]:
        return self.table[n], self.table[n + 1]

    def block_width(self, n: int) -> int:
        return self.table[n + 1] - self.table[n]

    def restrict(self, x: Word, n: int) -> Word:
        a, b = self.block(n)
        if len(x) < b:
            raise DepthExceededError(
                f"prefix of length {len(x)} does not reach block {n} end {b}")
        return x[a:b]

    def compose(self, g: "BlockPartition") -> "BlockPartition":
        """f o g, the coarser partition with boundaries f(g(n))."""
        if g.table[-1] > self.block_count:
            raise SpecFormatError("g runs past f's table")
        return BlockPartition(tuple(self.table[v] for v in g.table))


@dataclass(frozen=True)
class BlockFamily:
    """Families F_n of block words with the smallness bound
    |F_n| / 2^f(n+1) <= 2^-n."""

    partition: BlockPartition
    families: tuple

    def __post_init__(self):
        if len(self.families) > self.partition.block_count:
            raise SpecFormatError("more families than blocks")
        for n, fam in enumerate(self.families):
            width = self.partition.block_width(n)
            for w in fam:
                check_word(w)
                if len(w) != width:
                    raise SpecFormatError(f"family {n} word {w!r} has wrong width")
            if len(fam) * (1 << n) > (1 << self.partition(n + 1)):
                raise SpecFormatError(f"family {n} violates the smallness bound")

    @property
    def count(self) -> int:
        return len(self.families)

    def family(self, n: int):
        return self.families[n]

    def shifted(self, x: Word) -> "BlockFamily":
        """The translated family {z + x|block : z in F_n}; same sizes, so the
        smallness bound is preserved."""
        out = []
        for n, fam in enumerate(self.families):
            block = self.partition.restrict(x, n)
            out.append(tuple(sorted(xor_words(z, block) for z in fam)))
        return BlockFamily(self.partition, tuple(out))


@dataclass(frozen=True)
class EventualPoint:
    """An eventually periodic point of the cube."""

    preperiod: str
    period: str

    def __post_init__(self):
        check_word(self.preperiod)
        check_word(self.period)
        if not self.period:
            raise SpecFormatError("point needs a nonempty period")

    def prefix(self, n: int) -> Word:
        return self.segment(0, n)

    def segment(self, a: int, b: int) -> Word:
        """Bits a..b-1 of the point, read by period arithmetic in O(b - a)."""
        pre, per = self.preperiod, self.period
        start = max(a, len(pre)) - len(pre)  # offset of the periodic part
        width = b - len(pre) - start
        if width <= 0:
            return pre[a:b]
        tail = per[start % len(per):] + per * (width // len(per) + 1)
        return pre[a:] + tail[:width]


ZERO_POINT = EventualPoint("", "0")


# ---------------------------------------------------------------------------
# S(f, F) membership and the inclusion criterion


@dataclass(frozen=True)
class SMembershipReport:
    count: int
    hits: tuple
    blocks_checked: int


def s_membership_count(fam: BlockFamily, x: Word) -> SMembershipReport:
    """How often x's blocks land in the families (the 'frequently' count)."""
    v = _blockwise_check(fam.partition, dict(enumerate(fam.families)), x, 0, fam.count)
    hits = tuple(n for n, ok in v.outcomes if ok)
    return SMembershipReport(len(hits), hits, fam.count)


@dataclass(frozen=True)
class EincVerdict:
    n0: int | None          # least n from which every checked coarse block passes
    failures: tuple         # failing (n, k) pairs within the horizon
    horizon: int


def _block_pairs(g: BlockPartition, fam: BlockFamily, n_lo: int, n_hi: int):
    """The (n, k) with n in [n_lo, n_hi), k in [g(n), g(n+1)) and a family F_k."""
    for n in range(n_lo, n_hi):
        for k in range(g(n), min(g(n + 1), fam.count)):
            yield n, k


def _shadows(f: BlockPartition, g: BlockPartition, gfam: BlockFamily,
             n: int, k: int) -> set:
    """G_n's shadow on block k: the k-block restrictions of its words."""
    a, b = f.block(k)
    big_lo = f(g(n))
    return {t[a - big_lo:b - big_lo] for t in gfam.family(n)}


def einc_inclusion(f: BlockPartition, g: BlockPartition, fam: BlockFamily,
                   gfam: BlockFamily, horizon: int) -> EincVerdict:
    """The blockwise inclusion criterion for S(f,F) inside S(f o g, G):
    for n and every k in [g(n), g(n+1)), each word of F_k appears as the
    k-block restriction of some word of G_n."""
    if gfam.partition != f.compose(g):
        raise SpecFormatError("G must live on the composed partition f o g")
    top = min(horizon, gfam.count)
    failures = tuple((n, k) for n, k in _block_pairs(g, fam, 0, top)
                     if not set(fam.family(k)) <= _shadows(f, g, gfam, n, k))
    failed = {n for n, _ in failures}
    n0 = _least_threshold([(n, n not in failed) for n in range(top)])
    return EincVerdict(n0, failures, horizon)


def ank_test(x: Word, n: int, k: int, f: BlockPartition, g: BlockPartition,
             fam: BlockFamily, gfam: BlockFamily) -> bool:
    """The clopen block test: with y = x|[f(k), f(k+1)), every z in F_k has
    some t in G_n whose k-block restriction equals z + y."""
    if not g(n) <= k < g(n + 1):
        raise ValueError(f"k={k} is not in [g({n}), g({n}+1))")
    y = f.restrict(x, k)
    shadows = _shadows(f, g, gfam, n, k)
    return all(xor_words(z, y) in shadows for z in fam.family(k))


def xtilde_level_set(f: BlockPartition, g: BlockPartition, fam: BlockFamily,
                     gfam: BlockFamily, n0: int) -> BlockConstraintSet:
    """The closed level set {x : for all n >= n0 and applicable k, the block
    test holds}, as a block-constraint set (free below f(g(n0)) and beyond
    the supplied horizon): block k admits the y in z + G_n's shadow for
    every z in F_k.  The full X-tilde is the increasing union over n0,
    exposed by xtilde_filtration."""
    if n0 >= gfam.count:
        raise ValueError("n0 beyond the supplied G families")
    pairs = list(_block_pairs(g, fam, n0, gfam.count))
    if not pairs:
        return FullCube()
    blocks = []
    for n, k in pairs:
        if fam.family(k):
            shadows = _shadows(f, g, gfam, n, k)
            allowed = set.intersection(*({xor_words(z, t) for t in shadows}
                                         for z in fam.family(k)))
        else:
            allowed = all_words(f.block_width(k))
        if not allowed:
            raise BuildError(f"no admissible block words at (n={n}, k={k}): "
                             "empty survivor")
        blocks.append(allowed)
    return BlockConstraintSet([f(k) for k in range(pairs[0][1], pairs[-1][1] + 2)], blocks)


def xtilde_filtration(f, g, fam, gfam) -> Filtration:
    return Filtration(tuple(xtilde_level_set(f, g, fam, gfam, n0)
                            for n0 in range(gfam.count)))


# ---------------------------------------------------------------------------
# Meager-additive pipeline (ShelahM)


@dataclass(frozen=True)
class ShelahMWitness:
    f: BlockPartition
    g: BlockPartition
    y: EventualPoint


@dataclass(frozen=True)
class ThresholdVerdict:
    """Per-index outcomes plus the least threshold within the horizon."""

    outcomes: tuple           # (index, bool)
    n0: int | None
    horizon: int


def shelahM_check(w: ShelahMWitness, x: Word, n_lo: int, n_hi: int) -> ThresholdVerdict:
    """For each n: is there a full f-block inside [g(n), g(n+1)) on which x
    agrees with y?"""
    outcomes, f = [], w.f.table
    for n in range(n_lo, min(n_hi + 1, w.g.block_count)):
        hit = False
        # the f-blocks k with g(n) <= f(k) and f(k+1) <= g(n+1), in order
        for k in range(bisect_left(f, w.g(n)), bisect_right(f, w.g(n + 1)) - 1):
            block = w.f.restrict(x, k)
            a, b = w.f.block(k)
            if block == w.y.segment(a, b):
                hit = True
                break
        outcomes.append((n, hit))
    return ThresholdVerdict(tuple(outcomes), _least_threshold(outcomes), n_hi)


def _least_partition(k_max: int, ok, limit, fail,
                     first=lambda k, f: f + 1) -> BlockPartition:
    """The minimal recursion f(0) = 0, f(k+1) = the least m > f(k) with
    ok(k, f(k), m), searched from first(k, f(k)) up to ``limit``
    (BuildError(fail(k, f(k))) past it), then re-checked at every step."""
    table = [0]
    for k in range(k_max):
        m = first(k, table[-1])
        while m <= limit and not ok(k, table[-1], m):
            m += 1
        if m > limit:
            raise BuildError(fail(k, table[-1]))
        table.append(m)
    part = BlockPartition(tuple(table))
    for k in range(k_max):
        if not ok(k, part(k), part(k + 1)):
            raise AssertionError("recursion postcondition failed")
    return part


def me_fbuilder(h: DyadicHFn, k_max: int) -> BlockPartition:
    """The minimal recursion 2^f(k) * h(2^-f(k+1)) <= 2^-k.

    Each f(k+1) is the least grid index past f(k) satisfying the displayed
    inequality; a gauge whose table bottoms out first (e.g. a non-vanishing
    table) raises.  For h = r^s the least index is ceil((k + f(k)) / s),
    read off directly, so the table may run past the gauge's stored grid.
    """
    ok = lambda k, f, m: h.below_dyadic(k + f, m) is True
    fail = lambda k, f: (f"gauge {h.name} never reaches 2^-{k + f} within its "
                         "table (not vanishing fast enough)")
    if h.symbolic is not None and h.symbolic.t == 0:
        s = h.symbolic.s
        return _least_partition(k_max, ok, math.inf, fail, lambda k, f: max(
            f + 1, -(-(k + f) * s.denominator // s.numerator)))
    return _least_partition(k_max, ok, h.n_max, fail)


def me_sums(f: BlockPartition, h: DyadicHFn, k_max: int):
    """Closed-form per-block Hausdorff sums 2^f(k) * h(2^-f(k+1))."""
    return tuple((1 << f(k)) * h.hi_at(f(k + 1)) for k in range(min(k_max, f.block_count)))


def me_cover(w: ShelahMWitness, h: DyadicHFn, k_max: int,
             element_limit: int = 1 << 16):
    """The grouped cover B_k = {[p + y|block_k] : p in 2^f(k)}.

    Returns (cover, per-block exact sums).  Groups collect the B_k whose
    block start falls in [g(n), g(n+1)); element counts grow like 2^f(k), so
    materialization is capped by element_limit (sums stay closed-form via
    me_sums regardless).
    """
    f = w.f
    k_top = min(k_max, f.block_count)
    total_elems = sum(1 << f(k) for k in range(k_top))
    if total_elems > element_limit:
        raise BuildError(f"cover would need {total_elems} cylinders "
                         f"(> limit {element_limit}); lower k_max")
    elements, starts = [], [0]  # starts[k]: the offset of block k's first word
    for k in range(k_top):
        yblock = w.y.segment(*f.block(k))
        elements.extend(p + yblock for p in all_words(f(k)))
        starts.append(len(elements))
    # group n ends where the first block at or past g(n+1) starts; the groups
    # stop at the one that takes the last block, or short of it when g ends first
    ends = []
    for hi in w.g.table[1:]:
        k = bisect_left(f.table, hi, 0, k_top)
        ends.append(starts[k])
        if k == k_top:
            break
    cover = Cover(tuple(elements), tuple(zip([0] + ends, ends)))
    return cover, me_sums(f, h, k_top)


# ---------------------------------------------------------------------------
# Blockwise witnesses: families H_n with |H_n| bounded on the blocks of f


@dataclass(frozen=True)
class BoxCheckRow:
    level: int
    scale: int
    count: int
    content: Fraction
    ok: bool


@dataclass(frozen=True)
class BoxCheckReport:
    ok: bool
    rows: tuple

    def __bool__(self):
        return self.ok


def _check_families(f: BlockPartition, families: dict, bound) -> None:
    """Each H_n names a block of f, is nonempty, holds words of the block's
    width, and has at most bound(n) words (no bound when bound(n) is None);
    a witness needs at least one family."""
    if not families:
        raise SpecFormatError("the witness has no families")
    for n, fam in families.items():
        if not 0 <= n < f.block_count:
            raise SpecFormatError(f"H_{n} names no block of f")
        if not fam:
            raise SpecFormatError(f"H_{n} is empty")
        width = f.block_width(n)
        for word in fam:
            check_word(word)
            if len(word) != width:
                raise SpecFormatError(f"H_{n} word has wrong width")
        limit = bound(n)
        if limit is not None and len(fam) > limit:
            raise SpecFormatError(f"|H_{n}| = {len(fam)} exceeds {limit}")


def _blockwise_check(f: BlockPartition, families: dict, x: Word, n_lo: int,
                     n_hi: int) -> ThresholdVerdict:
    """Blockwise membership x|[f(n), f(n+1)) in H_n, for each n in [n_lo,
    n_hi] with a family."""
    outcomes = [(n, f.restrict(x, n) in set(families[n]))
                for n in sorted(families) if n_lo <= n <= n_hi]
    return ThresholdVerdict(tuple(outcomes), _least_threshold(outcomes), n_hi)


def _block_levels(f: BlockPartition, families: dict) -> Filtration:
    """X_k = {x : block n of x lies in H_n for every n >= k with a family},
    for k up to the last such n, as block-constraint sets increasing in k;
    blocks without a family are free."""
    top = max(families)
    levels = []
    for k in range(top + 1):
        lo = min(n for n in families if n >= k)
        levels.append(BlockConstraintSet(
            [f(j) for j in range(lo, top + 2)],
            [list(families[j]) if j in families else None for j in range(lo, top + 1)]))
    return Filtration(tuple(levels))


def _box_rows(filtration: Filtration, targets, budget: Budget | None) -> BoxCheckReport:
    """Exact trace counts of each level against its targets: targets[k]
    lists level k's (scale, count bound, gauge sample) triples, and a row
    holds when count <= bound and count * sample <= 1.  Each level with a
    target is counted once, to its largest target scale."""
    bud = _budget(budget)
    rows = []
    for k, (x, triples) in enumerate(zip(filtration.sets, targets)):
        if not triples:
            continue
        counts = x.trace_counts(max(scale for scale, _, _ in triples), bud)
        for scale, bound, sample in triples:
            count = counts[scale]
            content = count * sample
            rows.append(BoxCheckRow(k, scale, count, content,
                                    count <= bound and content <= 1))
    return BoxCheckReport(all(row.ok for row in rows), tuple(rows))


# ---------------------------------------------------------------------------
# Null-additive pipeline (ShelahN): a family on every block


@dataclass(frozen=True)
class ShelahNWitness:
    f: BlockPartition
    families: tuple   # H_k as word tuples, |H_k| <= k required at k >= 1

    def __post_init__(self):
        _check_families(self.f, self._by_block(), lambda k: k or None)

    def _by_block(self) -> dict:
        return dict(enumerate(self.families))


def shelahN_check(w: ShelahNWitness, x: Word, n_lo: int, n_hi: int) -> ThresholdVerdict:
    """Blockwise membership x|[f(k), f(k+1)) in H_k.

    The level sets quantify over all blocks k >= n, each block tested
    against its own family H_k.
    """
    return _blockwise_check(w.f, w._by_block(), x, n_lo, n_hi)


def shelahN_filtration(w: ShelahNWitness) -> Filtration:
    """The level sets X_n = {x : for all k >= n, block k lies in H_k} as
    block-constraint sets, increasing in n."""
    return _block_levels(w.f, w._by_block())


def nadd_fbuilder(growth, k_max: int, search_limit: int = 1 << 14) -> BlockPartition:
    """Minimal recursion 2^f(n) * (n+1)! <= growth(f(n+1))."""
    return _least_partition(
        k_max,
        lambda n, f, m: _growth(growth, m) >= (1 << f) * math.factorial(n + 1),
        search_limit,
        lambda n, f: ("growth function cannot absorb the recursion "
                      f"at step {n} (constant or too slow)"))


def nadd_box_check(w: ShelahNWitness, growth, h: DyadicHFn, i_max: int,
                   budget: Budget | None = None) -> BoxCheckReport:
    """Exact trace counts of the level sets against the product bound and
    the content target N * h(2^(1-i)) <= 1.

    Pre: growth(i) <= 1 / h(2^(1-i)) on the checked range.
    """
    samples = []  # samples[i - 1] = h(2^(1-i)), each read once
    for i in range(1, i_max + 1):
        samples.append(h.hi_at(i - 1))
        if _growth(growth, i) * samples[-1] > 1:
            raise BuildError(f"growth({i}) exceeds 1/h(2^(1-{i}))")
    f, sizes = w.f, [len(fam) for fam in w.families]
    targets = []
    for n in range(len(sizes)):
        triples = []
        for i in range(f(n + 1), i_max + 1):
            # blocks n..k meet the first i bits
            k = max(kk for kk in range(len(sizes)) if f(kk) <= i)
            bound = (1 << f(n)) * math.prod(sizes[n:k + 1])
            triples.append((i, bound, samples[i - 1]))
        targets.append(triples)
    return _box_rows(shelahN_filtration(w), targets, budget)


# ---------------------------------------------------------------------------
# T-prime pipeline: families only along an index set I


@dataclass(frozen=True)
class TPrimeWitness:
    f: BlockPartition
    g: object                 # growth bound on |H_n|, callable or table
    index_set: tuple          # finite sample of the infinite I
    families: dict            # H_n for n in index_set

    def __post_init__(self):
        for n in self.index_set:
            if n not in self.families:
                raise SpecFormatError(f"I names {n} but H has no H_{n}")
            if not callable(self.g) and not 0 <= n < len(self.g):
                raise SpecFormatError(f"the g table has no entry g({n})")
        _check_families(self.f, self._by_block(), lambda n: _growth(self.g, n))

    def _by_block(self) -> dict:
        return {n: self.families[n] for n in self.index_set}


def tprime_check(w: TPrimeWitness, x: Word, n_lo: int, n_hi: int) -> ThresholdVerdict:
    return _blockwise_check(w.f, w._by_block(), x, n_lo, n_hi)


def tprime_fbuilder(growth, g, k_max: int, search_limit: int = 1 << 14) -> BlockPartition:
    """Minimal recursion 2^f(n) * g(n) <= growth(f(n+1))."""
    return _least_partition(
        k_max, lambda n, f, m: _growth(growth, m) >= (1 << f) * _growth(g, n),
        search_limit,
        lambda n, f: f"growth function cannot absorb the recursion at step {n}")


def tprime_level_sets(w: TPrimeWitness) -> Filtration:
    """X_k = intersection over n >= k, n in I of the block sets F_n, with
    unconstrained gaps at indices outside I."""
    return _block_levels(w.f, w._by_block())


def tprime_lbox_check(w: TPrimeWitness, growth, h: DyadicHFn,
                      budget: Budget | None = None) -> BoxCheckReport:
    """Along eps_n = 2^-f(n+1), n in I: exact counts of the level sets
    against 2^f(n) * g(n) <= growth(f(n+1)) and content <= 1, so the
    liminf window along I stays at most 1."""
    idx = sorted(w._by_block())
    samples = []  # h(eps_n) for n in idx, each read once
    for n in idx:
        samples.append(h.hi_at(w.f(n + 1)))
        if _growth(growth, w.f(n + 1)) * samples[-1] > 1:
            raise BuildError(f"growth(f({n}+1)) exceeds 1/h(eps_{n})")
    triples = [(w.f(n + 1), (1 << w.f(n)) * _growth(w.g, n), sample)
               for n, sample in zip(idx, samples)]
    targets = [[t for n, t in zip(idx, triples) if n >= k] for k in range(idx[-1] + 1)]
    return _box_rows(tprime_level_sets(w), targets, budget)


def tprime_from_dpnull_witness(eps, index_set, families,
                               f: BlockPartition) -> TPrimeWitness:
    """Extract H_n = {p|[f(n), f(n+1)) : p generates a family cylinder}.

    Families must consist of cylinder generators of length exactly f(n+1),
    the depth forced by the fineness choice eps_n = 2^-f(n+1).
    """
    eps = tuple(Fraction(x) for x in eps)
    out = {}
    for n in sorted(index_set):
        fam = families[n]
        if len(fam) > n:
            raise SpecFormatError(f"family at {n} larger than {n}")
        words = []
        for p in fam:
            check_word(p)
            if len(p) != f(n + 1):
                raise SpecFormatError(
                    f"family member at {n} is not a cylinder generator of "
                    f"length f({n}+1) = {f(n + 1)}")
            words.append(p[f(n):f(n + 1)])
        out[n] = tuple(dict.fromkeys(words))
    return TPrimeWitness(f, lambda n: n, tuple(sorted(index_set)), out)
