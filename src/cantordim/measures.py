"""Exact covering numbers, Hausdorff-measure DP, box contents and checks.

The algorithmic core is cylinder-cover optimality: in the ultrametric every
set of diameter <= 2^-n sits inside a single cylinder of the same diameter,
so gauge-weighted delta-cover costs are minimized over antichains of the
trace tree and the optimum is a min/sum dynamic program over automaton
states.  Truncation at depth D leaves an interval: depth-D leaves priced at
h(2^-D) give a certified upper bound, priced at zero a certified lower
bound.  Structural mass certificates (the mass distribution principle on
product masses) recover exact lower bounds where truncation alone cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import log2

from .errors import BuildError, DepthExceededError, SpecFormatError
from .hfun import (DyadicHFn, _derived, _lowest, finite_order,
                   grid_index_floor, multiply, power_hfn, precede)
from .treeset import (Budget, CISet, FullCube, ProductSet, TreeSet, _budget,
                      is_trace_subset)
from .words import ISpec, Word

# ---------------------------------------------------------------------------
# Covering numbers and box contents


def covering_number(e: TreeSet, n: int, budget: Budget | None = None) -> int:
    """N_E at the depth-n cylinder scale: |trace_n(E)|, exact."""
    return e.trace_count(n, budget)


@dataclass(frozen=True)
class ContentSequence:
    """Samples (n, N, N*h(2^-n)) of a box-content sequence with window stats."""

    scales: range
    counts: tuple             # N at each scale
    los: tuple                # N*h numerators over den, lower and upper
    his: tuple
    den: int
    window_start: int
    tail_sup: Fraction        # certified upper bound for sup over the window
    tail_inf: Fraction        # certified upper bound for inf over the window
    tail_inf_lo: Fraction     # certified lower bound for inf over the window

    @cached_property
    def entries(self) -> tuple:
        """(n, N, lo, hi) per scale, made on first read."""
        den = self.den
        return tuple((n, c, Fraction(a, den), Fraction(b, den)) for n, c, a, b
                     in zip(self.scales, self.counts, self.los, self.his))


def box_content_sequence(e: TreeSet, h: DyadicHFn, n_lo: int, n_hi: int,
                         budget: Budget | None = None) -> ContentSequence:
    """Contents N_E(2^-n) * h(2^-n) for metric scales n in [n_lo, n_hi]."""
    if n_lo < 0 or n_hi < n_lo:
        raise SpecFormatError(f"bad scale range {n_lo}:{n_hi}")
    counts = e.trace_counts(e.depth_of_scale(n_hi), budget)
    den, lo, hi = h.numerators(n_hi)
    scales = range(n_lo, n_hi + 1)
    ns = tuple(counts[e.depth_of_scale(n)] for n in scales)
    # contents as numerators over den; the window stats compare integers
    los = tuple(c * lo[n] for n, c in zip(scales, ns))
    his = tuple(c * hi[n] for n, c in zip(scales, ns))
    start = max(n_lo, n_hi - (n_hi - n_lo) // 2, (n_hi + 1) // 2)
    w = start - n_lo
    return ContentSequence(
        scales=scales, counts=ns, los=los, his=his, den=den,
        window_start=start,
        tail_sup=Fraction(max(his[w:]), den),
        tail_inf=Fraction(min(his[w:]), den),
        tail_inf_lo=Fraction(min(los[w:]), den),
    )


@dataclass(frozen=True)
class BoxDimensionReport:
    rows: tuple                      # (n, N, log2N/n as float)
    lower_estimate: float
    upper_estimate: float
    closed_form: tuple | None        # exact (liminf, limsup) densities for CI


def box_dimensions(e: TreeSet, n_lo: int, n_hi: int,
                   budget: Budget | None = None) -> BoxDimensionReport:
    if n_hi < max(1, n_lo):
        raise SpecFormatError(f"bad scale range {n_lo}:{n_hi}; "
                              "box dimensions need a scale n >= 1")
    counts = e.trace_counts(e.depth_of_scale(n_hi), budget)
    rows = []
    for n in range(max(1, n_lo), n_hi + 1):
        count = counts[e.depth_of_scale(n)]
        rows.append((n, count, log2(count) / n if count > 1 else 0.0))
    start = max(max(1, n_lo), (n_hi + 1) // 2)
    window = [r[2] for r in rows if r[0] >= start]
    closed = None
    if isinstance(e, CISet):
        closed = e.ispec.complement_density_limits()
    return BoxDimensionReport(tuple(rows), min(window), max(window), closed)


# ---------------------------------------------------------------------------
# Hausdorff-measure dynamic programming


@dataclass(frozen=True)
class MeasureBound:
    """Certified bracket for H^h at scale 2^-m, truncated at tree depth D."""

    lower: Fraction
    upper: Fraction
    scale_m: int
    depth: int
    gauge: str
    lower_source: str = "dp"   # "dp" | "mass"
    mass_exact: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise AssertionError("certified bounds crossed")


@dataclass(slots=True)
class _Sweep:
    """A set's cached cover DP, kept on the set by ``_dp_bounds``."""

    key: tuple    # (gauge, depth, the gauge store's denominator)
    levels: list  # levels[d] maps each state at d to its children
    charge: int   # the nodes the forward sweep looked up
    memo: dict    # the m = 0 entries, at the levels from `low` to the leaves
    low: int


def _dp_bounds(e: TreeSet, h: DyadicHFn, m: int, depth: int, bud: Budget):
    """Min-cost cover DP over (state, depth), on integer numerators.

    Costs are added and compared as integer numerators over the gauge's
    common denominator `den` (``DyadicHFn.numerators``).  Returns (memo,
    den): memo maps every reachable (state, d) with d <= depth to (lower,
    upper, b, bits, kids), the numerators, the depth b that ends the
    single-child chain from d (the first branch, or `depth` at a leaf), the
    chain's bits as an int, and the child states (c0, c1) at b + 1, or None
    when one cylinder covers the piece optimally.  A forward sweep looks up
    the children of each (state, d) with d < depth once, so the DP costs
    what ``trace_counts(depth)`` does; a backward sweep prices each level
    from the one below.

    The scale m enters only through the test scale(d) >= m, which every
    level d >= top = depth_of_scale(m) passes: there an entry is the m = 0
    entry, and above top a two-child node adds its children's entries and
    a one-child node extends its chain.  So the set keeps one `_Sweep`, for
    the last (gauge, depth, den) it was priced at: the levels, and the m = 0
    memo from the least top asked so far to the leaves.  A call on the same
    gauge object, depth and denominator (a deeper gauge read may rescale
    the store) charges the recorded nodes in one spend, so a warm call
    costs what a cold one does, also when the budget runs out; it extends
    the m = 0 memo up to its top if need be, and prices the levels above
    top into a copy of its own.
    """
    leaf_scale = e.scale_of_depth(depth)
    if leaf_scale < m:
        raise DepthExceededError(f"truncation depth {depth} does not reach "
                                 f"the cover scale {m}")
    den, lo, hi = h.numerators(leaf_scale)
    sweep = e._dp_sweep
    if sweep is not None and sweep.key == (h, depth, den):
        # one spend, which runs out where the cold sweep's lookups would
        bud.spend(min(sweep.charge, bud.limit - bud.used + 1))
    else:
        children = e.children
        levels = [{e.root_state(): None}]  # levels[d] maps each state at d to its children
        for d in range(depth):
            level, below = levels[d], {}
            for state in level:
                level[state] = kids = children(state, d, bud)
                for _, child in kids:
                    below[child] = None
            levels.append(below)
        leaf = (0, hi[leaf_scale], depth, 0, None)
        memo = {(state, depth): leaf for state in levels[depth]}
        sweep = e._dp_sweep = _Sweep((h, depth, den), levels,
                                     sum(map(len, levels[:depth])), memo, depth)
    top = max(0, e.depth_of_scale(m))
    memo = sweep.memo
    for d in reversed(range(top, sweep.low)):
        n = e.scale_of_depth(d)
        _price_level(memo, sweep.levels[d], d, lo[n], hi[n])
    sweep.low = min(sweep.low, top)
    if top:
        memo = dict(memo)
        for d in reversed(range(top)):
            _price_level(memo, sweep.levels[d], d)
    return memo, den


def _price_level(memo: dict, level: dict, d: int, one_lo=None, one_hi=None):
    """Enter the states of `level` (state -> children) at depth d in `memo`
    from the entries at d + 1; a piece that branches at d may be covered by
    one cylinder, of numerators (one_lo, one_hi), unless they are None."""
    for state, kids in level.items():
        if len(kids) == 2:
            (_, c0), (_, c1) = kids
            e0, e1 = memo[c0, d + 1], memo[c1, d + 1]
            lower, upper, kids = e0[0] + e1[0], e0[1] + e1[1], (c0, c1)
            if one_lo is not None:
                lower = min(one_lo, lower)
                if one_hi <= upper:  # ties prefer the parent cylinder
                    upper, kids = one_hi, None
            memo[state, d] = (lower, upper, d, 0, kids)
        else:
            (bit, child), = kids
            lower, upper, b, bits, kids = memo[child, d + 1]
            memo[state, d] = (lower, upper, b, bits | bit << (b - d - 1), kids)


def hausdorff_measure_delta(e: TreeSet, h: DyadicHFn, m: int, depth: int,
                            budget: Budget | None = None) -> MeasureBound:
    """Certified bounds for the delta-cover cost H^h at delta = 2^-m.

    The upper bound is the exact optimum over cylinder covers of tree depth
    <= `depth`; the lower bound is the truncation DP (leaves priced at zero)
    improved, when a structural mass certificate applies at all depths, by
    the mass distribution principle.
    """
    bud = _budget(budget)
    memo, den = _dp_bounds(e, h, m, depth, bud)
    lo, up = memo[e.root_state(), 0][:2]
    dp_up = Fraction(up, den)
    lower, source, exact = Fraction(lo, den), "dp", False
    cert = _structural_mass_lower(e, h)
    if cert is not None and cert > lower:
        lower, source, exact = cert, "mass", True
    if lower > dp_up:
        raise AssertionError("mass certificate exceeded the DP upper bound")
    return MeasureBound(lower, dp_up, m, depth, h.name, source, exact)


def extract_optimal_cover(e: TreeSet, h: DyadicHFn, m: int, depth: int,
                          budget: Budget | None = None):
    """Materialize the DP argmin: (cylinder words, certified cost).

    Reads the words from the DP's table, so it charges what the DP does
    plus one node per child piece it splits into: the table is a DAG, and
    the cover can be exponentially larger than it.  Emits the minimal enclosing cylinder of
    every chosen piece (the chain bottom), so diameters can be read off the
    words.
    """
    bud = _budget(budget)
    memo, den = _dp_bounds(e, h, m, depth, bud)
    root = memo[e.root_state(), 0]
    return _argmin_words(memo, root, bud), Fraction(root[1], den)


def _argmin_words(memo: dict, root: tuple, bud: Budget) -> list[Word]:
    """The sorted cover words of a ``_dp_bounds`` memo below its `root`
    entry, charging one node per child piece the walk splits into."""
    out: list[Word] = []
    # words are ints under a leading 1, which keeps their leading zeros
    stack = [(1, 0, root)]
    while stack:
        word, d, (_, _, b, bits, kids) = stack.pop()
        word = word << (b - d) | bits
        if kids is None:
            out.append(format(word, "b")[1:])
            continue
        bud.spend(2)
        stack.append((word << 1, b + 1, memo[kids[0], b + 1]))
        stack.append((word << 1 | 1, b + 1, memo[kids[1], b + 1]))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Mass distribution certificates


class TreeMass:
    """Weight assignment on cylinders; see the concrete subclasses."""

    depth_uniform = False

    def value_at(self, word: Word) -> Fraction:
        raise NotImplementedError


class UniformMass(TreeMass):
    """The fair-coin product measure; additive only on the full cube."""

    depth_uniform = True

    def value_at(self, word):
        return Fraction(1, 1 << len(word))


class CIProductMass(TreeMass):
    """lambda([p] cap C_I) = total * 2^-|n\\I| on surviving nodes of C_I.

    A total below 1 buys slack for gauges that dip under r at the top of
    the grid (for those only a scaled certificate can close).
    """

    depth_uniform = True

    def __init__(self, ispec: ISpec, total: Fraction = Fraction(1)):
        self.ispec = ispec
        self.total = Fraction(total)

    def value_at(self, word):
        k = self.ispec.complement_count(len(word))
        return Fraction(self.total.numerator, self.total.denominator << k)


class TableMass(TreeMass):
    """Explicit weights per word; absent words weigh zero."""

    def __init__(self, table: dict):
        self.table = {w: Fraction(v) for w, v in table.items()}

    def value_at(self, word):
        return self.table.get(word, Fraction(0))


@dataclass(frozen=True)
class MassCertificate:
    ok: bool
    value: Fraction
    exact: bool
    verified_depth: int
    failure: Word | None = None
    reason: str = ""


def _gauge_covers(lam: Fraction, h: DyadicHFn, scale_idx: int) -> bool:
    """Certified lam <= h(2^-scale_idx); inconclusive counts as failure."""
    denom = lam.denominator
    if lam.numerator == 1 and denom & (denom - 1) == 0:
        verdict = h.dominates_dyadic(denom.bit_length() - 1, scale_idx)
        if verdict is not None:
            return verdict
    return lam <= h.lo_at(scale_idx)


def _ci_mass_exact(e: CISet, h: DyadicHFn) -> bool:
    """True when 2^-|n\\I| <= h(2^-n) is certified for every n, via one
    period of slack beyond the preperiod (periodic I, symbolic power h)."""
    if h.symbolic is None or h.symbolic.t != 0:
        return False
    if e.ispec.tail[0] != "periodic":
        return False
    period = e.ispec.tail[1]
    s = h.symbolic.s
    zeros = period.count("0")
    if Fraction(zeros, len(period)) < s:
        return False
    # |n \ I| for n up to the preperiod plus two periods, counted as n runs
    gaps = accumulate((c == "0" for c in e.ispec.prefix + 2 * period), initial=0)
    return all(g * s.denominator >= s.numerator * n for n, g in enumerate(gaps))


def _structural_mass_lower(e: TreeSet, h: DyadicHFn) -> Fraction | None:
    """Mass lower bound valid at every depth, for the kinds that support it;
    worked out once per (set, gauge) and kept on the set."""
    if h not in e._mass_lower_cache:
        e._mass_lower_cache[h] = _structural_mass(e, h)
    return e._mass_lower_cache[h]


def _structural_mass(e: TreeSet, h: DyadicHFn) -> Fraction | None:
    if h.symbolic is None or h.symbolic.t != 0:
        return None
    if isinstance(e, FullCube):
        return Fraction(1) if h.symbolic.s <= 1 else None
    if isinstance(e, CISet) and _ci_mass_exact(e, h):
        return Fraction(1)
    return None


def mass_lower_certificate(e: TreeSet, h: DyadicHFn, mass: TreeMass, depth: int,
                           budget: Budget | None = None) -> MassCertificate:
    """Verify the mass distribution principle on the trace tree.

    Checks additivity of the mass and h(diam of piece) >= mass on every
    surviving node to `depth`.  On success the root mass bounds every
    cylinder-cover cost whose pieces resolve by `depth`; the bound is exact
    (valid for H^h itself) when the periodic/symbolic tail argument closes.
    """
    bud = _budget(budget)
    # look past `depth` so chain pieces resolve their diameter
    first_branch = e._branches(depth + 64, bud)

    # one level-synchronous sweep over (word, state, mass) nodes; a
    # depth-uniform mass only sees the state, so its frontier is keyed by
    # state, a table mass's by word; each key keeps the first (leftmost)
    # node that reaches it
    key = (lambda node: node[1]) if mass.depth_uniform else (lambda node: node[0])
    root = ("", e.root_state(), mass.value_at(""))
    frontier = {key(root): root}
    for d in range(depth + 1):
        nxt = {}
        for word, state, lam in frontier.values():
            if lam != 0:
                b = first_branch(state, d)
                scale_idx = min(e.scale_of_depth(b if b is not None else depth), h.n_max)
                if not _gauge_covers(lam, h, scale_idx):
                    return MassCertificate(False, Fraction(0), False, depth, word,
                                           f"h(2^-{scale_idx}) < mass at [{word}]")
            if d == depth:
                continue
            kids = []
            for bit, child in e.children(state, d, bud):
                kids.append((word + str(bit), child, mass.value_at(word + str(bit))))
            if sum(kid[2] for kid in kids) != lam:
                return MassCertificate(False, Fraction(0), False, depth, word,
                                       "additivity fails")
            for kid in kids:
                nxt.setdefault(key(kid), kid)
        frontier = nxt
    exact = mass.depth_uniform and _structural_mass_lower(e, h) is not None
    return MassCertificate(True, root[2], exact, depth)


def sparse_I_builder(h: DyadicHFn, depth: int) -> ISpec:
    """An index set I with 2^|n cap I| <= h(2^-n) / 2^-n for all n <= depth.

    Requires h strictly above r (h < 1 in the gauge order).  Indices are
    admitted greedily while the inequality survives at every n <= depth.  A
    symbolic power r^s gets the exact periodic continuation of density 1-s
    (valid at every depth); other gauges get a sparse geometric tail whose
    validity is certified only up to `depth`.
    """
    window = min(depth, h.n_max)
    if not precede(h, power_hfn(1, n_max=window), depth=window).holds:
        raise BuildError("sparse_I_builder needs h strictly above r (h < 1)")

    if h.symbolic and h.symbolic.t == 0:
        # with a/b = 1 - s the greedy admits j exactly when |(j+1) cap I|
        # may grow, i.e. floor((j+1)a/b) > floor(ja/b): the Beatty word of
        # a/b, which is also the period
        a, b = (1 - h.symbolic.s).as_integer_ratio()
        period = "".join("1" if (o + 1) * a // b > o * a // b else "0"
                         for o in range(b))
        if "1" not in period:
            raise BuildError("gauge too close to r; no admissible period")
        return ISpec((period * (depth // b + 1))[:depth], ("periodic", period))

    # every index admitted so far is below j, so |n cap I| = c at every
    # n > j, and c + 1 once j is admitted.  The test at n only gets harder
    # as the count grows, so each n is asked once for the largest count it
    # passes, and j is admitted against their minimum over n in (j, depth]
    def largest_count(n):
        # off a symbolic power, _gauge_covers(2^-e, h, n) is 2^-e <= lo(n)
        if n > h.n_max:
            return -1
        lo = h.lo_at(n)
        return n if lo >= 1 else n - grid_index_floor(lo)

    caps = list(accumulate(map(largest_count, range(depth, 0, -1)), min))[::-1]
    bits, c = [], 0
    for j in range(depth):
        ok = c + 1 <= caps[j]  # caps[j]: the minimum over n in (j, depth]
        bits.append("1" if ok else "0")
        c += ok
    return ISpec("".join(bits), ("powers", depth + 1, 4))


# ---------------------------------------------------------------------------
# Filtrations and the directed box content


@dataclass(frozen=True)
class Filtration:
    """Finitely many increasing tree sets X_0 <= X_1 <= ..."""

    sets: tuple

    def __post_init__(self):
        if not self.sets:
            raise SpecFormatError("filtration needs at least one set")

    def validate(self, depth: int, budget: Budget | None = None) -> None:
        for k in range(len(self.sets) - 1):
            witness = is_trace_subset(self.sets[k], self.sets[k + 1], depth, budget)
            if witness is not None:
                raise BuildError(
                    f"non-monotone filtration: level {k} word {witness} "
                    f"escapes level {k + 1}")

    def __len__(self):
        return len(self.sets)


def trivial_filtration(e: TreeSet) -> Filtration:
    return Filtration((e,))


@dataclass(frozen=True)
class DboxReport:
    value: Fraction              # filtration-relative upper witness
    per_set: tuple               # (index, tail-inf upper bound)
    window: tuple


def dbox_on_filtration(f: Filtration, h: DyadicHFn, n_lo: int, n_hi: int,
                       budget: Budget | None = None) -> DboxReport:
    """sup over supplied levels of the tail-inf of N * h: an upper witness
    for the directed box content relative to this filtration."""
    bud = _budget(budget)
    f.validate(f.sets[0].depth_of_scale(n_hi), bud)
    per = []
    for k, x in enumerate(f.sets):
        seq = box_content_sequence(x, h, n_lo, n_hi, bud)
        per.append((k, seq.tail_inf))
    return DboxReport(max(v for _, v in per), tuple(per), (n_lo, n_hi))


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    h_bounds: MeasureBound
    uh_alias: MeasureBound
    dbox_witness: Fraction
    ubox_tail_sup: Fraction
    failures: tuple

    def __bool__(self):
        return self.ok


def chain_check(e: TreeSet, h: DyadicHFn, m: int, depth: int,
                budget: Budget | None = None) -> ChainReport:
    """Instance check of the measure chain H <= uH <= dbox <= ubox.

    uH is aliased to H (tree-coded sets are compact); the dbox value is the
    witness of the one-set filtration, the tail inf of E's own content
    sequence; box contents are tail-window statistics.
    """
    bud = _budget(budget)
    hb = hausdorff_measure_delta(e, h, m, depth, bud)
    seq = box_content_sequence(e, h, m, e.scale_of_depth(depth), bud)
    dbox = seq.tail_inf
    failures = []
    if hb.lower > hb.upper:
        failures.append("lower > upper")
    if hb.lower > dbox:
        failures.append("H lower exceeds dbox witness")
    if dbox > seq.tail_sup:
        failures.append("dbox witness exceeds ubox tail sup")
    best_single_scale = Fraction(min(seq.his), seq.den)
    if hb.upper > best_single_scale:
        failures.append("DP upper exceeds a single-scale trace cover")
    return ChainReport(not failures, hb, hb, dbox, seq.tail_sup, tuple(failures))


# ---------------------------------------------------------------------------
# Product inequalities (box and Hausdorff versions)


@dataclass(frozen=True)
class ProductCheckReport:
    ok: bool
    counting_exact: bool          # N_prod(2^-n) == N_A * N_B at every n
    content_window_ok: bool       # sup(prod) <= sup(A) * sup(B)
    transport_ok: bool            # H-DP of product <= transported cover cost
    lower_product_ok: bool        # lowerA * lowerB <= upper of product
    finite_order_ok: bool
    empirical_c_upper: Fraction | None
    empirical_c_directed: Fraction | None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def product_inequality_check(a: TreeSet, b: TreeSet, h: DyadicHFn, g: DyadicHFn,
                             n_lo: int, n_hi: int, m: int | None = None,
                             depth: int | None = None,
                             budget: Budget | None = None) -> ProductCheckReport:
    """Finite-depth instances of the product inequalities for box contents
    and Hausdorff bounds on interleaved tree products."""
    bud = _budget(budget)
    m = n_lo if m is None else m
    depth = depth if depth is not None else n_hi
    p = ProductSet(a, b)
    hg = multiply(h, g)

    nb = b.trace_counts(max(n_hi, depth), bud)  # the transported cost reads it
    seq_a = box_content_sequence(a, h, n_lo, n_hi, bud)
    seq_b = box_content_sequence(b, g, n_lo, n_hi, bud)
    seq_p = box_content_sequence(p, hg, n_lo, n_hi, bud)
    # row n holds N at scale n: depth n of a factor, depth 2n of the product
    counting = all(c == x * y for x, y, c
                   in zip(seq_a.counts, seq_b.counts, seq_p.counts))
    window_ok = seq_p.tail_sup <= seq_a.tail_sup * seq_b.tail_sup

    bounds_a = hausdorff_measure_delta(a, h, m, depth, bud)
    bounds_b = hausdorff_measure_delta(b, g, m, depth, bud)
    bounds_p = hausdorff_measure_delta(p, hg, m, 2 * depth, bud)

    # each cover word is its piece's chain bottom (the branch depth of a
    # piece that splits, `depth` for a leaf), so on the plain factor A its
    # length is the piece's diameter scale capped at `depth`
    cover_a, _ = extract_optimal_cover(a, h, m, depth, bud)
    transported = sum((h.hi_at(k) * g.hi_at(k) * nb[k] for k in map(len, cover_a)),
                      Fraction(0))
    transport_ok = bounds_p.upper <= transported

    lower_ok = bounds_a.lower * bounds_b.lower <= bounds_p.upper

    fo = finite_order(h, min(64, h.n_max)).holds and finite_order(g, min(64, g.n_max)).holds

    # a one-set filtration's dbox witness is that set's tail_inf
    c_upper = c_directed = None
    if seq_p.tail_sup > 0:
        c_upper = (seq_a.tail_sup * seq_b.tail_inf) / seq_p.tail_sup
    if seq_p.tail_inf > 0:
        c_directed = (seq_a.tail_inf * seq_b.tail_inf) / seq_p.tail_inf

    ok = counting and window_ok and transport_ok and lower_ok
    return ProductCheckReport(ok, counting, window_ok, transport_ok, lower_ok,
                              fo, c_upper, c_directed,
                              {"upper_product": bounds_p.upper,
                               "transported": transported})


# ---------------------------------------------------------------------------
# Block-code images (Lipschitz / modulus instances)


@dataclass(frozen=True)
class BlockCode:
    """The block code that drops the first k bits of x and writes each
    remaining bit c times; identity is (0, 1), the k-shift (k, 1) and the
    repeat code (0, 2).  Two points that share n >= k bits map to points
    that share c (n - k), so the modulus is (2^k r)^c."""

    k: int = 0
    c: int = 1

    def __post_init__(self):
        for name, v, least in (("k", self.k, 0), ("c", self.c, 1)):
            if type(v) is not int or v < least:
                raise SpecFormatError(f"block code {name} must be an integer "
                                      f">= {least}, not {v!r}")

    def image(self, e: TreeSet) -> TreeSet:
        return e if (self.k, self.c) == (0, 1) else _CodeImage(e, self)


class _CodeImage(TreeSet):
    """The image of a set under a block code.  At image depth d the state is
    (S, pending): S is the frozenset of base states at input depth
    k + d // c, and pending the bit being written, None at its first copy."""

    kind = "code_image"

    def __init__(self, e: TreeSet, code: BlockCode):
        super().__init__((e,))
        self.base = e
        self.code = code

    def root_state(self):
        frontier = {self.base.root_state()}
        for d in range(self.code.k):
            frontier = {c for s in frontier for _, c in self.base.children(s, d)}
        return (frozenset(frontier), None)

    def expand(self, state, depth):
        S, pending = state
        k, c = self.code.k, self.code.c
        children, d = self.base.children, k + depth // c
        n0, n1 = set(), set()
        for s in S:
            for bit, child in children(s, d):
                (n1 if bit else n0).add(child)
        # the last copy of a bit moves on to the base children under it
        last = depth % c == c - 1
        return tuple([(bit, (frozenset(nxt), None) if last else (S, bit))
                      for bit, nxt in ((0, n0), (1, n1))
                      if nxt and pending in (None, bit)])


@dataclass(frozen=True)
class LipschitzReport:
    ok: bool
    image_bound: MeasureBound
    transported_bound: Fraction
    detail: str = ""

    def __bool__(self):
        return self.ok


def lipschitz_image_check(e: TreeSet, code: BlockCode, h: DyadicHFn,
                          m: int, depth: int,
                          budget: Budget | None = None) -> LipschitzReport:
    """Check the image bound of a block code against the source bound
    transported along its modulus (2^k r)^c: a source cover word of length
    n >= k maps into an image cylinder of length c (n - k), so the image is
    priced with h at scale c (m - k) and depth c (depth - k), and the source
    with the gauge whose sample n is h's sample at c max(0, n - k)."""
    k, c = code.k, code.c
    if k and m <= k:
        raise SpecFormatError(f"a check of a code that drops {k} bits needs "
                              f"scale m > {k}, not {m}")
    bud = _budget(budget)
    img = hausdorff_measure_delta(code.image(e), h, c * (m - k), c * (depth - k), bud)
    h.sample_at(c * max(0, depth - k))  # refuses an h too short for the source
    moved = _derived(lambda n: _lowest(*h.sample_at(c * max(0, n - k))), depth,
                     h.precision, f"({h.name})o(2^{k}r)^{c}")
    src = hausdorff_measure_delta(e, moved, m, depth, bud)
    return LipschitzReport(img.upper <= src.upper, img, src.upper,
                           f"modulus (2^{k} r)^{c}")


# ---------------------------------------------------------------------------
# Increasing-sets splitting


def increasing_sets_split(e: TreeSet, h: DyadicHFn, s: Fraction, depth: int,
                          candidate: Filtration | None = None,
                          budget: Budget | None = None) -> Filtration:
    """A filtration of E whose per-level box contents stay below s.

    Uses the supplied candidate, or else the trivial one; raises when a
    level's window content is not under s.
    """
    s = Fraction(s)
    bud = _budget(budget)
    filt = candidate or trivial_filtration(e)
    n_hi = e.scale_of_depth(depth)
    n_lo = max(0, n_hi // 2)
    for k, x in enumerate(filt.sets):
        seq = box_content_sequence(x, h, n_lo, n_hi, bud)
        if not seq.tail_sup < s:
            raise BuildError(
                f"level {k} window content {seq.tail_sup} is not below {s}")
    filt.validate(n_hi, bud)
    return filt
