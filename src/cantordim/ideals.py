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
from dataclasses import dataclass
from fractions import Fraction

from .errors import BuildError, DepthExceededError, SpecFormatError
from .hfun import DyadicHFn
from .measures import Filtration
from .treeset import BlockConstraintSet, Budget, FullCube, _budget
from .words import ISpec, Word, all_words, check_word, xor_words

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

    def bit(self, n: int) -> str:
        if n < len(self.preperiod):
            return self.preperiod[n]
        return self.period[(n - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        return "".join(self.bit(i) for i in range(n))


ZERO_POINT = EventualPoint("", "0")


# ---------------------------------------------------------------------------
# S(f, F) membership and the inclusion criterion


@dataclass(frozen=True)
class SMembershipReport:
    count: int
    hits: tuple
    blocks_checked: int

    @property
    def density(self) -> Fraction:
        return Fraction(self.count, self.blocks_checked) if self.blocks_checked else Fraction(0)


def s_membership_count(fam: BlockFamily, x: Word,
                       blocks: int | None = None) -> SMembershipReport:
    """How often x's blocks land in the families (the 'frequently' count)."""
    top = fam.count if blocks is None else min(blocks, fam.count)
    hits = []
    for n in range(top):
        if fam.partition.restrict(x, n) in set(fam.family(n)):
            hits.append(n)
    return SMembershipReport(len(hits), tuple(hits), top)


@dataclass(frozen=True)
class EincVerdict:
    n0: int | None          # least n past which the inclusion condition holds
    failures: tuple         # failing (n, k) pairs within the horizon
    horizon: int

    @property
    def holds_everywhere(self) -> bool:
        return self.n0 == 0


def einc_inclusion(f: BlockPartition, g: BlockPartition, fam: BlockFamily,
                   gfam: BlockFamily, horizon: int) -> EincVerdict:
    """The blockwise inclusion criterion for S(f,F) inside S(f o g, G):
    for n and every k in [g(n), g(n+1)), each word of F_k appears as the
    k-block restriction of some word of G_n."""
    fg = f.compose(g)
    if gfam.partition != fg:
        raise SpecFormatError("G must live on the composed partition f o g")
    failures = []
    for n in range(min(horizon, gfam.count)):
        big_lo = fg(n)
        gwords = gfam.family(n)
        for k in range(g(n), g(n + 1)):
            if k >= fam.count:
                break
            a, b = f.block(k)
            shadows = {w[a - big_lo:b - big_lo] for w in gwords}
            if not set(fam.family(k)) <= shadows:
                failures.append((n, k))
    n0 = 0
    if failures:
        n0 = max(n for n, _ in failures) + 1
        if n0 >= min(horizon, gfam.count):
            n0 = None
    return EincVerdict(n0, tuple(failures), horizon)


def ank_test(x: Word, n: int, k: int, f: BlockPartition, g: BlockPartition,
             fam: BlockFamily, gfam: BlockFamily) -> bool:
    """The clopen block test: with y = x|[f(k), f(k+1)), every z in F_k has
    some t in G_n whose k-block restriction equals z + y."""
    if not g(n) <= k < g(n + 1):
        raise ValueError(f"k={k} is not in [g({n}), g({n}+1))")
    y = f.restrict(x, k)
    a, b = f.block(k)
    big_lo = f(g(n))
    shadows = {t[a - big_lo:b - big_lo] for t in gfam.family(n)}
    return all(xor_words(z, y) in shadows for z in fam.family(k))


def xtilde_level_set(f: BlockPartition, g: BlockPartition, fam: BlockFamily,
                     gfam: BlockFamily, n0: int) -> BlockConstraintSet:
    """The closed level set {x : for all n >= n0 and applicable k, the block
    test holds}, as a block-constraint set (free below f(g(n0)) and beyond
    the supplied horizon).  The full X-tilde is the increasing union over
    n0, exposed by xtilde_filtration."""
    n_top = gfam.count
    if n0 >= n_top:
        raise ValueError("n0 beyond the supplied G families")
    boundaries = []
    blocks = []
    for n in range(n0, n_top):
        big_lo = f(g(n))
        for k in range(g(n), g(n + 1)):
            if k >= fam.count:
                break
            a, b = f.block(k)
            shadows = {t[a - big_lo:b - big_lo] for t in gfam.family(n)}
            allowed = [y for y in all_words(b - a)
                       if all(xor_words(z, y) in shadows for z in fam.family(k))]
            if not allowed:
                raise BuildError(f"no admissible block words at (n={n}, k={k}): "
                                 "empty survivor")
            if not boundaries:
                boundaries.append(a)
            blocks.append(allowed)
            boundaries.append(b)
    if not blocks:
        return FullCube()
    return BlockConstraintSet(boundaries, blocks)


def xtilde_filtration(f, g, fam, gfam, depth_hint: int = 0) -> Filtration:
    levels = []
    for n0 in range(gfam.count):
        levels.append(xtilde_level_set(f, g, fam, gfam, n0))
    levels = tuple(levels)
    for lvl in levels:
        lvl.natural_filtration = Filtration(levels)
    return Filtration(levels)


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

    @property
    def holds_from(self) -> int | None:
        return self.n0


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


def shelahM_check(w: ShelahMWitness, x: Word, n_lo: int, n_hi: int) -> ThresholdVerdict:
    """For each n: is there a full f-block inside [g(n), g(n+1)) on which x
    agrees with y?"""
    outcomes = []
    for n in range(n_lo, n_hi + 1):
        if n + 1 >= len(w.g.table):
            break
        hit = False
        for k in range(w.f.block_count):
            if w.g(n) <= w.f(k) and w.f(k + 1) <= w.g(n + 1):
                block = w.f.restrict(x, k)
                a, b = w.f.block(k)
                if block == w.y.prefix(b)[a:b]:
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
    from .covers import Cover

    f = w.f
    k_top = min(k_max, f.block_count)
    total_elems = sum(1 << f(k) for k in range(k_top))
    if total_elems > element_limit:
        raise BuildError(f"cover would need {total_elems} cylinders "
                         f"(> limit {element_limit}); lower k_max")
    elements = []
    spans = []
    for k in range(k_top):
        a, b = f.block(k)
        yblock = w.y.prefix(b)[a:b]
        start = len(elements)
        for p in all_words(f(k)):
            elements.append(p + yblock)
        spans.append((k, start, len(elements)))
    groups = []
    cursor = 0
    for n in range(len(w.g.table) - 1):
        hi = w.g(n + 1)
        start = 0 if not groups else groups[-1][1]
        end = start
        while cursor < len(spans) and f(spans[cursor][0]) < hi:
            end = spans[cursor][2]
            cursor += 1
        groups.append((start, end))
        if cursor >= len(spans):
            break
    cover = Cover(tuple(elements), tuple(groups))
    return cover, me_sums(f, h, k_top)


# ---------------------------------------------------------------------------
# Null-additive pipeline (ShelahN)


@dataclass(frozen=True)
class ShelahNWitness:
    f: BlockPartition
    families: tuple   # H_k as word tuples, |H_k| <= k required at k >= 1

    def __post_init__(self):
        if len(self.families) > self.f.block_count:
            raise SpecFormatError("more H families than blocks")
        for k, fam in enumerate(self.families):
            if not fam:
                raise SpecFormatError(f"H_{k} is empty")
            width = self.f.block_width(k)
            for word in fam:
                check_word(word)
                if len(word) != width:
                    raise SpecFormatError(f"H_{k} word has wrong width")
            if k >= 1 and len(fam) > k:
                raise SpecFormatError(f"|H_{k}| = {len(fam)} exceeds {k}")


def shelahN_check(w: ShelahNWitness, x: Word, n_lo: int, n_hi: int) -> ThresholdVerdict:
    """Blockwise membership x|[f(k), f(k+1)) in H_k.

    The level sets quantify over all blocks k >= n, each block tested
    against its own family H_k.
    """
    outcomes = []
    for k in range(n_lo, min(n_hi + 1, len(w.families))):
        block = w.f.restrict(x, k)
        outcomes.append((k, block in set(w.families[k])))
    return ThresholdVerdict(tuple(outcomes), _least_threshold(outcomes), n_hi)


def shelahN_filtration(w: ShelahNWitness) -> Filtration:
    """The level sets X_n = {x : for all k >= n, block k lies in H_k} as
    block-constraint sets, increasing in n."""
    k_top = len(w.families)
    levels = []
    for n in range(k_top):
        boundaries = [w.f(k) for k in range(n, k_top + 1)]
        blocks = [list(w.families[k]) for k in range(n, k_top)]
        levels.append(BlockConstraintSet(boundaries, blocks))
    filt = Filtration(tuple(levels))
    for lvl in levels:
        lvl.natural_filtration = filt
    return filt


def _growth(fn, n: int) -> Fraction:
    """fn(n) for a callable bound, fn[n] for a table."""
    return Fraction(fn(n) if callable(fn) else fn[n])


def nadd_fbuilder(growth, k_max: int, search_limit: int = 1 << 14) -> BlockPartition:
    """Minimal recursion 2^f(n) * (n+1)! <= growth(f(n+1))."""
    return _least_partition(
        k_max,
        lambda n, f, m: _growth(growth, m) >= (1 << f) * math.factorial(n + 1),
        search_limit,
        lambda n, f: ("growth function cannot absorb the recursion "
                      f"at step {n} (constant or too slow)"))


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


def nadd_box_check(w: ShelahNWitness, growth, h: DyadicHFn, i_max: int,
                   budget: Budget | None = None) -> BoxCheckReport:
    """Exact trace counts of the level sets against the product bound and
    the content target N * h(2^(1-i)) <= 1.

    Pre: growth(i) <= 1 / h(2^(1-i)) on the checked range.
    """
    bud = _budget(budget)
    for i in range(1, i_max + 1):
        if _growth(growth, i) * h.hi_at(i - 1) > 1:
            raise BuildError(f"growth({i}) exceeds 1/h(2^(1-{i}))")
    filt = shelahN_filtration(w)
    rows = []
    ok = True
    k_top = len(w.families)
    for n, x in enumerate(filt.sets):
        if n + 1 >= len(w.f.table):
            break
        if w.f(n + 1) > i_max:
            continue
        counts = x.trace_counts(i_max, bud)
        for i in range(w.f(n + 1), i_max + 1):
            count = counts[i]
            k = max(kk for kk in range(k_top) if w.f(kk) <= i)
            bound = 1 << w.f(n)
            for j in range(n, k + 1):
                bound *= len(w.families[j])
            content = count * h.hi_at(i - 1)
            good = count <= bound and content <= 1
            rows.append(BoxCheckRow(n, i, count, content, good))
            ok = ok and good
    return BoxCheckReport(ok, tuple(rows))


# ---------------------------------------------------------------------------
# T-prime pipeline


@dataclass(frozen=True)
class TPrimeWitness:
    f: BlockPartition
    g: object                 # growth bound on |H_n|, callable or table
    index_set: tuple          # finite sample of the infinite I
    families: dict            # H_n for n in index_set

    def __post_init__(self):
        for n in self.index_set:
            fam = self.families[n]
            if not fam:
                raise SpecFormatError(f"H_{n} is empty")
            width = self.f.block_width(n)
            for word in fam:
                check_word(word)
                if len(word) != width:
                    raise SpecFormatError(f"H_{n} word has wrong width")
            if len(fam) > _growth(self.g, n):
                raise SpecFormatError(f"|H_{n}| exceeds g({n})")


def tprime_check(w: TPrimeWitness, x: Word, n_lo: int, n_hi: int) -> ThresholdVerdict:
    outcomes = []
    for n in sorted(w.index_set):
        if not n_lo <= n <= n_hi:
            continue
        block = w.f.restrict(x, n)
        outcomes.append((n, block in set(w.families[n])))
    return ThresholdVerdict(tuple(outcomes), _least_threshold(outcomes), n_hi)


def tprime_fbuilder(growth, g, k_max: int, search_limit: int = 1 << 14) -> BlockPartition:
    """Minimal recursion 2^f(n) * g(n) <= growth(f(n+1))."""
    return _least_partition(
        k_max, lambda n, f, m: _growth(growth, m) >= (1 << f) * _growth(g, n),
        search_limit,
        lambda n, f: f"growth function cannot absorb the recursion at step {n}")


def tprime_level_sets(w: TPrimeWitness) -> Filtration:
    """X_k = intersection over n >= k, n in I of the block sets F_n, with
    unconstrained gaps at indices outside I."""
    idx = sorted(w.index_set)
    k_top = idx[-1] + 1
    levels = []
    for k in range(k_top):
        active = [n for n in idx if n >= k]
        if not active:
            levels.append(FullCube())
            continue
        lo = min(active)
        boundaries = [w.f(j) for j in range(lo, active[-1] + 2)]
        blocks = []
        for j in range(lo, active[-1] + 1):
            blocks.append(list(w.families[j]) if j in w.index_set else None)
        levels.append(BlockConstraintSet(boundaries, blocks))
    filt = Filtration(tuple(levels))
    for lvl in levels:
        lvl.natural_filtration = filt
    return filt


def tprime_lbox_check(w: TPrimeWitness, growth, h: DyadicHFn,
                      budget: Budget | None = None) -> BoxCheckReport:
    """Along eps_n = 2^-f(n+1), n in I: exact counts of the level sets
    against 2^f(n) * g(n) <= growth(f(n+1)) and content <= 1, so the
    liminf window along I stays at most 1."""
    bud = _budget(budget)
    idx = sorted(w.index_set)
    for n in idx:
        if _growth(growth, w.f(n + 1)) * h.hi_at(w.f(n + 1)) > 1:
            raise BuildError(f"growth(f({n}+1)) exceeds 1/h(eps_{n})")
    filt = tprime_level_sets(w)
    rows = []
    ok = True
    for k, x in enumerate(filt.sets):
        active = [n for n in idx if n >= k]
        counts = x.trace_counts(max((w.f(n + 1) for n in active), default=0), bud)
        for n in active:
            scale = w.f(n + 1)
            count = counts[scale]
            bound = (1 << w.f(n)) * _growth(w.g, n)
            content = count * h.hi_at(scale)
            good = count <= bound and content <= 1
            rows.append(BoxCheckRow(k, scale, count, content, good))
            ok = ok and good
    return BoxCheckReport(ok, tuple(rows))


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


# ---------------------------------------------------------------------------
# Closed-form dimension data for the constraint sets


def ci_density(ispec: ISpec) -> tuple[Fraction, Fraction]:
    """Exact (lower, upper) density of the complement of I: the closed-form
    box dimension predictions for C_I."""
    return ispec.complement_density_limits()
