"""Independent brute-force oracles.

Everything here recomputes expected values straight from definitions --
word enumeration, position-indexed cover search, exhaustive subset search --
deliberately avoiding the package's automaton/DP machinery so the two paths
can disagree.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, repeat
from math import lcm

from cantordim.errors import BuildError, DepthExceededError
from cantordim.hfun import (DEFAULT_PRECISION_BITS, DyadicHFn, grid_index_ceil,
                            grid_index_floor, iroot_floor, ln2_bounds,
                            pow2_bounds, power_hfn, precede)
from cantordim.measures import (LipschitzReport, MassCertificate, _gauge_covers,
                                _structural_mass_lower, hausdorff_measure_delta)
from cantordim.treeset import END, FREE, _budget
from cantordim.words import ISpec, all_words, check_words, xor_words


def ci_trace(contains, n):
    """Depth-n trace of C_I from the definition x|I == 0."""
    return sorted(w for w in all_words(n)
                  if all(w[i] == "0" for i in range(n) if contains(i)))


def xor_trace(trace_a, trace_b):
    """Depth-n trace of A + B as the literal XOR set."""
    return sorted({xor_words(p, q) for p in trace_a for q in trace_b})


def interleave_trace(trace_a, trace_b):
    out = set()
    for p in trace_a:
        for q in trace_b:
            w = []
            for i in range(len(p) + len(q)):
                w.append(p[i // 2] if i % 2 == 0 else q[i // 2])
            out.add("".join(w))
    return sorted(out)


def min_cylinder_cover_cost(points, h_at, m, depth):
    """Exhaustive minimal cylinder-cover cost over the zero-tail point set.

    `points` are depth-`depth` words; `h_at(k)` prices a diameter 2^-k.
    Cover candidates for the first uncovered point are its prefixes; a
    prefix containing >= 2 points costs h at the subtree's first branching
    depth (the piece diameter) and must satisfy the delta constraint; a
    single-point prefix is priced at the horizon h(2^-depth).  Position
    recursion over the sorted point list.
    """
    pts = sorted(points)
    n = len(pts)
    memo = {}

    def piece(prefix):
        members = [w for w in pts if w.startswith(prefix)]
        if len(members) == 1:
            return members, None
        branch = next(L for L in range(len(prefix), depth)
                      if len({w[L] for w in members}) == 2)
        return members, branch

    def solve(i):
        if i >= n:
            return Fraction(0)
        if i in memo:
            return memo[i]
        best = None
        for L in range(depth, -1, -1):
            prefix = pts[i][:L]
            members, branch = piece(prefix)
            if members[0] != pts[i]:
                continue  # prefix reaches back before the first uncovered point
            if branch is None:
                cost = h_at(depth)
            else:
                if branch < m:
                    continue  # piece diameter exceeds delta
                cost = h_at(branch)
            j = pts.index(members[-1])
            total = cost + solve(j + 1)
            if best is None or total < best:
                best = total
        memo[i] = best
        return best

    return solve(0)


def min_cover_count_arbitrary(points, scale):
    """Minimal number of arbitrary sets of diameter <= 2^-scale covering the
    points, by exhaustive first-uncovered set-cover search."""
    pts = sorted(points)

    def diam_ok(subset):
        for i, a in enumerate(subset):
            for b in subset[i + 1:]:
                first = next((t for t in range(len(a)) if a[t] != b[t]), None)
                if first is not None and Fraction(1, 1 << first) > Fraction(1, 1 << scale):
                    return False
        return True

    candidates = []
    n = len(pts)
    for mask in range(1, 1 << n):
        subset = tuple(pts[i] for i in range(n) if mask >> i & 1)
        if diam_ok(subset):
            candidates.append(frozenset(subset))

    best = [n]

    def search(uncovered, used):
        if used >= best[0]:
            return
        if not uncovered:
            best[0] = used
            return
        first = min(uncovered)
        for cand in candidates:
            if first in cand:
                search(uncovered - cand, used + 1)

    search(frozenset(pts), 0)
    return best[0]


def separation_count(points, scale):
    """Largest subset of points pairwise more than 2^-scale apart, by
    exhaustive subset enumeration."""
    pts = sorted(points)
    n = len(pts)
    best = 0
    for mask in range(1 << n):
        subset = [pts[i] for i in range(n) if mask >> i & 1]
        ok = True
        for i, a in enumerate(subset):
            for b in subset[i + 1:]:
                first = next((t for t in range(len(a)) if a[t] != b[t]), None)
                if first is None or Fraction(1, 1 << first) <= Fraction(1, 1 << scale):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = max(best, len(subset))
    return best


def einc_failures_by_words(f_table, g_table, F, G, horizon):
    """The inclusion criterion recomputed by full word enumeration.

    Enumerates every word of length f(g(horizon)); for each word all of
    whose f-blocks lie in the F families, every complete coarse block must
    be shadowed per-subblock by some G word.  Returns the failing (n, k)
    pairs; with all F families nonempty this is exactly the blockwise
    criterion's failure set.
    """
    total = f_table[g_table[horizon]]
    failures = set()
    for w in all_words(total):
        conforming = all(
            w[f_table[k]:f_table[k + 1]] in F[k]
            for k in range(g_table[horizon])
        )
        if not conforming:
            continue
        for n in range(horizon):
            off = f_table[g_table[n]]
            for k in range(g_table[n], g_table[n + 1]):
                blk = w[f_table[k]:f_table[k + 1]]
                if not any(t[f_table[k] - off:f_table[k + 1] - off] == blk
                           for t in G[n]):
                    failures.add((n, k))
    return failures


def ank_by_filter(x, n, k, f, g, fam, gfam):
    """The clopen block test, restricting G_n to block k afresh: every z in
    F_k, moved by x's k-block y, is the k-block restriction of some word of
    G_n."""
    if not g(n) <= k < g(n + 1):
        raise ValueError(f"k={k} is not in [g({n}), g({n}+1))")
    y = f.restrict(x, k)
    a, b = f.block(k)
    big_lo = f(g(n))
    shadows = {t[a - big_lo:b - big_lo] for t in gfam.family(n)}
    return all(xor_words(z, y) in shadows for z in fam.family(k))


def xtilde_blocks_by_filter(f, g, fam, gfam, n0):
    """(boundaries, blocks) of the X-tilde level set at n0, each block's
    admissible words found by filtering all 2^width words of its width;
    None for the full cube.  Raises BuildError on a block with no
    admissible word."""
    boundaries, blocks = [], []
    for n in range(n0, gfam.count):
        big_lo = f(g(n))
        for k in range(g(n), min(g(n + 1), fam.count)):
            a, b = f.block(k)
            shadows = {t[a - big_lo:b - big_lo] for t in gfam.family(n)}
            allowed = [y for y in all_words(b - a)
                       if all(xor_words(z, y) in shadows for z in fam.family(k))]
            if not allowed:
                raise BuildError(f"no admissible block words at (n={n}, k={k})")
            if not boundaries:
                boundaries.append(a)
            boundaries.append(b)
            blocks.append(frozenset(allowed))
    return (tuple(boundaries), tuple(blocks)) if blocks else None


def ispec_members(prefix, tail, n):
    """The members of I below n, from the definition of each tail rule."""
    start = len(prefix)
    members = {i for i in range(min(n, start)) if prefix[i] == "1"}
    kind = tail[0]
    if kind == "periodic":
        word = tail[1]
        members |= {i for i in range(start, n) if word[(i - start) % len(word)] == "1"}
        return members
    tail_members = set()
    for k in range(n.bit_length() + 1):  # c * q^k >= 2^k: later runs start past n
        if kind == "powers":
            _, c, q = tail
            tail_members.add(c * q ** k)
        else:
            _, c, d, q = tail
            tail_members.update(range(c * q ** k, min(d * q ** k, n)))
    return members | {i for i in tail_members if start <= i < n}


def covering_groups_by_words(trace, groups, n):
    """Bitmask of the groups covering a depth-n trace, word by word.

    Bit j is set iff every trace word has a prefix among the words of
    groups[j] no longer than n; an empty group covers nothing.
    """
    out = 0
    for j, words in enumerate(groups):
        short = [w for w in words if len(w) <= n]
        if short and all(any(t.startswith(w) for w in short) for t in trace):
            out |= 1 << j
    return out


def cover_walk_charge(trace, groups, n):
    """Budget nodes a one-pass cover check of a depth-n trace expands.

    Counts the depth < n trace nodes that have a cover word (of length at
    most n) strictly below them and whose tag mask, the OR of the tags of
    the cover words they extend (themselves included), is not yet the OR of
    all tags; every word listed in groups[k] carries bit k.
    """
    tags = {}
    for k, words in enumerate(groups):
        for w in words:
            if len(w) <= n:
                tags[w] = tags.get(w, 0) | 1 << k
    full = 0
    for t in tags.values():
        full |= t
    count = 0
    for v in {t[:d] for t in trace for d in range(n)}:
        below = any(len(w) > len(v) and w.startswith(v) for w in tags)
        mask = 0
        for d in range(len(v) + 1):
            mask |= tags.get(v[:d], 0)
        if below and mask != full:
            count += 1
    return count


def _pool(table: dict, key, nodes: set) -> None:
    """Add the set ``nodes`` to the set held at ``table[key]``."""
    held = table.setdefault(key, nodes)
    if held is not nodes:
        held |= nodes


def covering_groups_sets(e, runs, n, budget):
    """Bitmask of the groups that cover E at depth n, in one forward sweep,
    with every trace node its own int in a set: the sweep that
    ``covers._covering_groups`` replaced.  Verdict masks and charges must
    stay equal to it.

    ``runs`` lists (tag, words) pairs: each word carries the bitmask
    ``tag``, and a word listed by several runs carries the OR of their tags.
    The tables are built once per call: each run is bucketed by length,
    words longer than n are dropped before any parse, and the rest are
    validated in one pass and read as integers.  A depth that one run lists
    keeps that run's words as one tag class; where several runs list words
    of one length, each run meets only the words already seen there, so
    the build is linear in the words listed.

    The sweep follows E's trace one depth at a time.  The frontier maps
    (E state, mask) to the set of nodes that reach that state with that OR
    of the tags of the words they extend, so one ``children`` call serves a
    whole bucket, and set operations split it.  A node stops where no longer
    word lies below it (every trace node has a descendant, so its mask holds
    for all leaves below, and at depth n nothing is longer) or where its
    mask cannot grow.  Bit j of the AND over all stops is set iff every
    depth-n trace node lies under a word of group j.  Each expanded node
    costs one budget node: when some group covers, that is every trace node
    with a word strictly below it and a mask short of the OR of all tags.
    """
    at: dict = {}  # d -> [(tag, the run's words of length d)]
    full = 0
    for tag, words in runs:
        for d, ws in groupby(sorted(words, key=len), len):
            if d > n:
                break
            at.setdefault(d, []).append((tag, list(ws)))
            full |= tag
    check_words(list(chain.from_iterable(ws for d in sorted(at) for _, ws in at[d])))
    ends: dict = {}  # d -> {tag: the words of length d with that tag, as ints}
    for d, runs_d in at.items():
        if len(runs_d) > 1:  # a word listed by several runs gets the OR of their tags
            tag_of: dict = {}
            for tag, ws in runs_d:
                mine = dict.fromkeys(ws, tag)
                for w in mine.keys() & tag_of.keys():
                    mine[w] |= tag_of[w]
                tag_of.update(mine)
            get = tag_of.__getitem__
            runs_d = [(tag, list(ws)) for tag, ws in groupby(sorted(tag_of, key=get), get)]
        ends[d] = {tag: set(map(int, ws, repeat(2))) if d else {0} for tag, ws in runs_d}
    if not full:
        return 0
    # live[d]: the depth-d nodes with a word strictly below them
    live = [set()] * (max(ends) + 1)
    for d in range(len(live) - 1, 0, -1):
        live[d - 1] = {v >> 1 for v in chain(live[d], *ends.get(d, {}).values())}
    covered = full
    children, spend = e.children, _budget(budget).spend
    frontier = {(e.root_state(), 0): {0}}
    for d, live_d in enumerate(live):
        ends_d = ends.pop(d, {})
        live[d] = None  # a depth's tables go once the sweep has passed it
        grown: dict = {}  # (state, mask) -> the depth-d nodes to expand
        for (state, mask), nodes in frontier.items():
            for tag, tagged in ends_d.items():
                hit = nodes & tagged
                if hit:
                    nodes -= hit
                    m = mask | tag
                    if m != full:
                        if not hit <= live_d:  # some node stops here
                            hit &= live_d
                            covered &= m
                        if hit:
                            _pool(grown, (state, m), hit)
            if not nodes <= live_d:
                nodes &= live_d
                covered &= mask
            if nodes:
                _pool(grown, (state, mask), nodes)
        if not covered or not grown:
            break
        frontier = {}
        for (state, mask), nodes in grown.items():
            spend(len(nodes))
            for bit, child in children(state, d):
                _pool(frontier, (child, mask), {v << 1 | bit for v in nodes})
    return covered


def block_level_trace(f_table, families, k, n):
    """Depth-n trace of the level X_k of a blockwise witness: the words whose
    slice of every block j >= k that has a family H_j (`families` maps j to
    H_j) is a prefix of some member of H_j."""
    return [w for w in all_words(n)
            if all(any(h.startswith(w[f_table[j]:f_table[j + 1]]) for h in fam)
                   for j, fam in families.items() if j >= k)]


@lru_cache(maxsize=None)
def ln2_series(prec):
    """Outward bounds on ln 2: the partial sum of 1/(k 2^k) over k <= prec + 4,
    added term by term, and that sum plus a bound on its tail."""
    terms = prec + 4
    total = Fraction(0)
    for k in range(1, terms + 1):
        total += Fraction(1, k * (1 << k))
    return total, total + Fraction(2, terms * (1 << terms))


def gauge_sample(s, t, n, prec):
    """Outward bounds on r^s log(1/r)^t at r = 2^-n, from one `pow2_bounds`
    call and one ln 2 bracket per sample; the n = 0 sample of a log gauge is
    the n = 1 sample, since log(1/r) vanishes at r = 1."""
    if t and n == 0:
        n = 1
    lo, hi = pow2_bounds(-Fraction(s) * n, prec)
    if t == 0:
        return lo, hi
    l2lo, l2hi = ln2_series(prec)
    if t > 0:
        return lo * (l2lo * n) ** t, hi * (l2hi * n) ** t
    return lo / (l2hi * n) ** -t, hi / (l2lo * n) ** -t


def gauge_table(s, t, n_max, prec):
    """The samples 0..n_max of r^s log(1/r)^t, a log gauge's clamped to be
    nonincreasing."""
    lo, hi = zip(*(gauge_sample(s, t, n, prec) for n in range(n_max + 1)))
    lo, hi = list(lo), list(hi)
    if t:
        for n in range(1, n_max + 1):
            lo[n] = min(lo[n], lo[n - 1])
            hi[n] = min(hi[n], hi[n - 1])
    return lo, hi


def gauge_table_error(lo, hi):
    """The message a gauge table with these bounds is refused with, or None:
    every sample must satisfy 0 < lo <= hi, and both bounds must be
    nonincreasing in n; the first failing index is named."""
    if len(lo) != len(hi) or not lo:
        return "gauge table bounds must be nonempty and aligned"
    for n in range(len(lo)):
        if not 0 < lo[n] <= hi[n]:
            return f"gauge values must be positive (index {n})"
        if n and (lo[n] > lo[n - 1] or hi[n] > hi[n - 1]):
            return f"gauge values must be nonincreasing in n (index {n})"
    return None


class GaugeStoreByFractions:
    """A gauge's integer store (den, lo, hi) built the way it was built
    before samples stayed integers: each grid sample is a pair of normalized
    `Fraction`s, and each fill puts every sample over the lcm of the store's
    denominator and theirs.  Reads follow `DyadicHFn`'s policy: a symbolic
    store grows in order, within n_max to max(n, min(2 len, n_max)) and past
    it exactly to n; a power read past its store is sampled, not stored."""

    def __init__(self, s=None, t=0, prec=128, n_max=96, lo=None, hi=None):
        self.s, self.t, self.prec = Fraction(s) if s is not None else None, t, prec
        self.store = (1, [], [])
        self._roots, self._log_powers = {}, None
        if self.s is None:
            self.n_max = len(lo) - 1
            self._fill(list(zip(map(Fraction, lo), map(Fraction, hi))))
        else:
            self.n_max = n_max

    def sample(self, n):
        a, b, t, prec = self.s.numerator, self.s.denominator, self.t, self.prec
        if t:
            n = n or 1
        an = a * n
        c = -(-an // b)
        j = c * b - an
        if not j:
            lo = hi = Fraction(1, 1 << c)
        else:
            root = self._roots.get(j)
            if root is None:
                root = self._roots[j] = iroot_floor(1 << (b * prec + j), b)
            if c > prec:
                den = 1 << (prec + c)
            else:
                root, den = root >> c, 1 << prec
            lo, hi = Fraction(root, den), Fraction(root + 1, den)
        if not t:
            return lo, hi
        if self._log_powers is None:
            l2lo, l2hi = ln2_bounds(prec)
            self._log_powers = l2lo ** abs(t), l2hi ** abs(t)
        plo, phi = self._log_powers
        if t > 0:
            scale = n ** t
            return lo * plo * scale, hi * phi * scale
        scale = n ** -t
        return lo / (phi * scale), hi / (plo * scale)

    def _fill(self, samples):
        den, lo, hi = self.store
        top = lcm(den, *(v.denominator for pair in samples for v in pair))
        if top != den:
            lo, hi = [x * (top // den) for x in lo], [x * (top // den) for x in hi]
        lo.extend(v.numerator * (top // v.denominator) for v, _ in samples)
        hi.extend(v.numerator * (top // v.denominator) for _, v in samples)
        self.store = top, lo, hi

    def numerators(self, n):
        have = len(self.store[1])
        if not 0 <= n < have:
            if n < 0 or self.s is None:
                raise DepthExceededError(
                    f"gauge undefined at grid index {n} (table to {self.n_max})")
            new = [self.sample(k)
                   for k in range(have, max(n, min(2 * have, self.n_max)) + 1)]
            if self.t:
                lo, hi = self.value(have - 1) if have else new[0]
                for k, (klo, khi) in enumerate(new):
                    lo, hi = new[k] = min(klo, lo), min(khi, hi)
            self._fill(new)
        return self.store

    def value(self, n):
        if n >= len(self.store[1]) and self.s is not None and not self.t:
            return self.sample(n)
        den, lo, hi = self.numerators(n)
        return Fraction(lo[n], den), Fraction(hi[n], den)

    def lo_at(self, n):
        return self.value(n)[0]

    def hi_at(self, n):
        return self.value(n)[1]


# The derived gauges as they were built before they sampled their operands:
# each reads its operands out to n_max as Fractions when it is made and
# hands the two lists to the table constructor.


def _both_powers(h, g):
    return (h.symbolic and g.symbolic) and h.symbolic.t == g.symbolic.t == 0


def multiply_by_fractions(h, g):
    """h * g, sample by sample."""
    if _both_powers(h, g):
        return power_hfn(h.symbolic.s + g.symbolic.s,
                         min(h.n_max, g.n_max), max(h.precision, g.precision))
    top = min(h.n_max, g.n_max)
    lo = [h.lo_at(n) * g.lo_at(n) for n in range(top + 1)]
    hi = [h.hi_at(n) * g.hi_at(n) for n in range(top + 1)]
    return DyadicHFn(lo, hi, None, max(h.precision, g.precision),
                     name=f"({h.name})*({g.name})")


def compose_by_fractions(h, g):
    """h o g: h at the grid indices bracketing each sample of g, h's lower
    bound at the deep one and its upper bound at the shallow one, each side
    then made nonincreasing by a running minimum."""
    if _both_powers(h, g):
        return power_hfn(h.symbolic.s * g.symbolic.s,
                         min(h.n_max, g.n_max), max(h.precision, g.precision))
    lo, hi = [], []
    for n in range(g.n_max + 1):
        glo, ghi = g.value(n)
        j_deep, j_shallow = grid_index_floor(glo), grid_index_ceil(min(ghi, 1))
        if j_deep > h.n_max:
            raise DepthExceededError(
                f"compose needs h at grid index {j_deep} (table to {h.n_max})")
        lo.append(h.lo_at(j_deep))
        hi.append(h.hi_at(min(j_shallow, h.n_max)))
    for n in range(1, len(lo)):
        lo[n], hi[n] = min(lo[n], lo[n - 1]), min(hi[n], hi[n - 1])
    return DyadicHFn(lo, hi, None, max(h.precision, g.precision),
                     name=f"({h.name})o({g.name})")


def diagonal_dominate_by_fractions(hs):
    """The least input at m damped by 2^-(m // 4), or the power max s + 1/4
    of all-power inputs."""
    hs = list(hs)
    if not hs:
        raise BuildError("diagonal domination needs at least one gauge")
    for h in hs:
        if not h.is_vanishing:
            raise BuildError(f"gauge {h.name} is not vanishing")
    n_max = min(h.n_max for h in hs)
    if all(h.symbolic is not None and h.symbolic.t == 0 for h in hs):
        return power_hfn(max(h.symbolic.s for h in hs) + Fraction(1, 4), n_max)
    damp = [Fraction(1, 1 << (m // 4)) for m in range(n_max + 1)]
    lo = [min(h.lo_at(m) for h in hs) * damp[m] for m in range(n_max + 1)]
    hi = [min(h.hi_at(m) for h in hs) * damp[m] for m in range(n_max + 1)]
    return DyadicHFn(lo, hi, None, DEFAULT_PRECISION_BITS, name="diag")


def grid_inverse_by_fractions(g):
    """2^-j at m for the deepest j with g_j >= 2^-m, j searched from 0 at
    every m, of a strictly decreasing g."""
    if g.symbolic is not None and g.symbolic.t == 0:
        return power_hfn(1 / g.symbolic.s, g.n_max, g.precision)
    if not all(g.hi_at(n + 1) < g.lo_at(n) for n in range(g.n_max)):
        raise BuildError("grid inverse needs a strictly decreasing gauge table")
    vals = []
    for m in range(g.n_max + 1):
        j = 0
        while j < g.n_max and g.lo_at(j + 1) >= Fraction(1, 1 << m):
            j += 1
        vals.append(Fraction(1, 1 << j))
    return DyadicHFn(vals, vals, None, g.precision, name=f"inv({g.name})")


def scaled_by_fractions(h, factor, name=None):
    """factor * h, a table to h's n_max."""
    f = Fraction(factor)
    if f <= 0:
        raise ValueError("scale factor must be positive")
    return DyadicHFn([v * f for v in h.lo], [v * f for v in h.hi], None,
                     h.precision, name)


def reindex_by_fractions(h, k, c, depth):
    """The source gauge of a block code's image check: sample n is h's
    sample at c max(0, n - k), for n up to depth."""
    lo, hi = zip(*(h.value(c * max(0, n - k)) for n in range(depth + 1)))
    return DyadicHFn(lo, hi, None, h.precision, f"({h.name})o(2^{k}r)^{c}")


def coherence_holds(e, p, budget=None):
    """meets(p) iff meets(p0) or meets(p1); True for every kind by design."""
    m = e.meets(p, budget)
    m0 = e.meets(p + "0", budget)
    m1 = e.meets(p + "1", budget)
    return m == (m0 or m1)


def code_word(w, k, c):
    """w with its first k bits dropped and every other bit written c times."""
    return "".join(b * c for b in w[k:])


def verify_code_modulus(e, code, depth, budget=None):
    """Exhaustively confirm a block code's declared modulus on every pair of
    depth-`depth` trace words: the code drops k bits and writes each bit c
    times, so the images of two words whose common prefix has n bits share
    at least c (n - k) bits."""
    k, c = code.k, code.c
    words = e.trace(depth, budget)
    for i, wa in enumerate(words):
        for wb in words[i + 1:]:
            na = next((t for t in range(depth) if wa[t] != wb[t]), depth)
            fa, fb = code_word(wa, k, c), code_word(wb, k, c)
            nf = next((t for t in range(len(fa)) if fa[t] != fb[t]), len(fa))
            if nf < c * (na - k):
                return False
    return True


def lipschitz_by_cases(e, image, k, c, h, m, depth, budget=None):
    """The block-code image check written once per code, keyed on the code
    (k, c) that drops k bits and writes each bit c times; `image` is its
    image of e.  The identity (0, 1) wants the image's bound equal to the
    source's; a k-shift (k, 1) multiplies the source's bound by the
    Lipschitz factor 2^(s k) of a power r^s, rounded up; the repeat code
    (0, 2) prices the source with the composed gauge h(r^2).  Any other
    code, a shift at m <= k and a shift with a gauge that is not a power
    raise ValueError."""
    bud = _budget(budget)
    if (k, c) == (0, 1):
        src = hausdorff_measure_delta(e, h, m, depth, bud)
        img = hausdorff_measure_delta(image, h, m, depth, bud)
        return LipschitzReport(img.upper == src.upper, img, src.upper, "identity")
    if c == 1:
        if m <= k:
            raise ValueError("shift check needs scale m > k")
        src = hausdorff_measure_delta(e, h, m, depth, bud)
        img = hausdorff_measure_delta(image, h, m - k, depth - k, bud)
        if h.symbolic is None or h.symbolic.t != 0:
            raise ValueError("shift check wants a symbolic power gauge")
        transported = pow2_bounds(h.symbolic.s * k, h.precision)[1] * src.upper
        return LipschitzReport(img.upper <= transported, img, transported,
                               f"L=2^{k}")
    if (k, c) == (0, 2):
        img = hausdorff_measure_delta(image, h, 2 * m, 2 * depth, bud)
        hg = compose_by_fractions(h, power_hfn(2, n_max=max(depth, h.n_max)))
        src = hausdorff_measure_delta(e, hg, m, depth, bud)
        return LipschitzReport(img.upper <= src.upper, img, src.upper,
                               "modulus r^2")
    raise ValueError(f"no reference for the code ({k}, {c})")


def sparse_greedy(h, depth):
    """The sparse index set of a gauge h strictly above r, by the plain
    greedy: index j < depth is admitted when 2^|n cap I| <= h(2^-n) / 2^-n
    still holds at every n in (j, depth] with j in I, checked against a
    table of the counts |n cap I| kept for every n.  A symbolic power r^s
    compares counts with n (1 - s) exactly and continues with the period of
    density 1 - s; other gauges ask the gauge at each n and continue with a
    sparse geometric tail."""
    window = min(depth, h.n_max)
    verdict = precede(h, power_hfn(1, n_max=window), depth=window)
    if not verdict.holds:
        raise BuildError("sparse_I_builder needs h strictly above r (h < 1)")
    frac = 1 - h.symbolic.s if (h.symbolic and h.symbolic.t == 0) else None

    def admissible(j, cnt_after):
        for n in range(j + 1, depth + 1):
            c = cnt_after(n)
            if frac is not None:
                if c * frac.denominator > n * frac.numerator:
                    return False
            else:
                if n > h.n_max:
                    return False
                if not _gauge_covers(Fraction(1, 1 << (n - c)), h, n):
                    return False
        return True

    bits = []
    counts = [0] * (depth + 2)
    for j in range(depth):
        cand = lambda n, j=j: counts[n] + (1 if n > j else 0)
        if admissible(j, cand):
            bits.append("1")
            for n in range(j + 1, depth + 2):
                counts[n] += 1
        else:
            bits.append("0")
    prefix = "".join(bits)
    if frac is not None:
        b = frac.denominator
        period = "".join(
            "1" if (o + 1) * frac.numerator // b > o * frac.numerator // b else "0"
            for o in range(b))
        if "1" not in period:
            raise BuildError("gauge too close to r; no admissible period")
        return ISpec(prefix, ("periodic", period))
    return ISpec(prefix, ("powers", depth + 1, 4))


def dp_walk(e, h, m, depth, bud):
    """Min-cost cover DP over (state, depth), on integer numerators, as the
    per-node post-order walk that ``measures._dp_bounds`` replaced.

    Costs are added and compared as integer numerators over the gauge's
    common denominator `den` (``DyadicHFn.numerators``).  Returns (memo,
    den): memo maps every reachable (state, d) with d <= depth to (lower,
    upper, b, bits, kids), the numerators, the depth b that ends the
    single-child chain from d (the first branch, or `depth` at a leaf), the
    chain's bits as an int, and the child states (c0, c1) at b + 1, or None
    when one cylinder covers the piece optimally.  Each (state, d) with
    d < depth is looked up once, so the DP costs what ``trace_counts(depth)``
    does.  A single-child node takes its child's entry with one more chain
    bit; the walk follows such chains in a loop and keeps the branch nodes
    still to be priced on an explicit stack, c0's subtree before c1's.
    """
    leaf_scale = e.scale_of_depth(depth)
    if leaf_scale < m:
        raise DepthExceededError(f"truncation depth {depth} does not reach "
                                 f"the cover scale {m}")
    den, lo, hi = h.numerators(leaf_scale)
    # covering a piece that branches at d by one set is admissible once
    # scale(d) reaches m: the (lo, hi) numerators of that set, else None
    whole = [(lo[n], hi[n]) if (n := e.scale_of_depth(d)) >= m else None
             for d in range(depth)]
    leaf = (0, hi[leaf_scale], depth, 0, None)
    memo: dict = {}
    stack = [(e.root_state(), 0, None)]
    children, get, push = e.children, memo.get, stack.append
    while stack:
        state, d, pending = stack.pop()
        if pending is None:  # walk down from (state, d) unless it is priced
            path = []  # the single-child nodes above the chain's bottom
            while True:
                entry = get((state, d))
                if entry is not None:
                    break
                if d == depth:
                    entry = memo[state, d] = leaf
                    break
                kids = children(state, d, bud)
                if len(kids) == 2:
                    (_, c0), (_, c1) = kids
                    push((state, d, (c0, c1, path)))
                    if c1 != c0 and (c1, d + 1) not in memo:
                        push((c1, d + 1, None))
                    push((c0, d + 1, None))
                    break
                path.append((state, d, kids[0][0]))
                state, d = kids[0][1], d + 1
            if entry is None or not path:
                continue
        else:  # combine: both children are priced
            c0, c1, path = pending
            e0, e1 = memo[c0, d + 1], memo[c1, d + 1]
            lower, upper, kids = e0[0] + e1[0], e0[1] + e1[1], (c0, c1)
            if whole[d] is not None:
                one_lo, one_hi = whole[d]
                lower = min(one_lo, lower)
                if one_hi <= upper:  # ties prefer the parent cylinder
                    upper, kids = one_hi, None
            entry = memo[state, d] = (lower, upper, d, 0, kids)
        lower, upper, b, bits, kids = entry
        for state, d, bit in reversed(path):
            bits |= bit << (b - d - 1)
            memo[state, d] = (lower, upper, b, bits, kids)
    return memo, den


def mass_sweep(e, h, mass, depth, budget=None):
    """``measures.mass_lower_certificate`` with its own memoized walk to each
    node's first branch, as it ran before ``TreeSet`` owned that walk.

    One level-synchronous sweep over (word, state, mass) nodes, keyed by
    state for a depth-uniform mass and by word otherwise; each node checks
    h at its piece's first branch and the additivity of its children.
    """
    bud = _budget(budget)
    horizon = depth + 64
    branch: dict = {}  # (state, d) -> first branch at or below d, or None

    def first_branch(state, d):
        path = []
        while (state, d) not in branch and d < horizon:
            kids = e.children(state, d, bud)
            if len(kids) == 2:
                branch[state, d] = d
                break
            path.append((state, d))
            state, d = kids[0][1], d + 1
        b = branch.get((state, d))
        for key in path:
            branch[key] = b
        return b

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


def point_prefix_by_bits(y, n):
    """The first n bits of an eventually periodic point, bit by bit."""
    return "".join(y.preperiod[i] if i < len(y.preperiod)
                   else y.period[(i - len(y.preperiod)) % len(y.period)]
                   for i in range(n))


def shelahM_by_scan(w, x, n_lo, n_hi):
    """(outcomes, n0) of ``ideals.shelahM_check``, scanning every f-block
    for each coarse n and rebuilding y's prefix for each candidate.

    n0 is the least n from which every outcome holds, None when the last
    fails or there is none.  A block past x's end raises DepthExceededError
    when it is reached, as ``BlockPartition.restrict`` does.
    """
    outcomes = []
    for n in range(n_lo, min(n_hi + 1, w.g.block_count)):
        hit = False
        for k in range(w.f.block_count):
            a, b = w.f.table[k], w.f.table[k + 1]
            if w.g.table[n] <= a and b <= w.g.table[n + 1]:
                if len(x) < b:
                    raise DepthExceededError(f"x ends before block {k}")
                if x[a:b] == point_prefix_by_bits(w.y, b)[a:b]:
                    hit = True
                    break
        outcomes.append((n, hit))
    n0 = None
    for n, ok in reversed(outcomes):
        if not ok:
            break
        n0 = n
    return tuple(outcomes), n0


def interned_trie(words, tail: str):
    """Root state and transition rows of the words' trie, hash-consed.

    Built bottom-up one depth at a time, with the node words at depth d read
    as d-bit integers.  A node is keyed by whether it ends a word and by its
    children's keys, so one key stands for one set of suffixes left to read.
    A key that ends a word has state END; every other key gets its own
    integer state, whose row holds the (child0, child1) states, None where
    no suffix continues.  END's row keeps a free tail under either bit and a
    zeros tail only under 0.

    This is the bottom-up build that ``treeset._interned_trie`` replaced: it
    touches every prefix node once, where the top-down build expands each
    distinct suffix set once per depth.
    """
    rows = [(END, END) if tail == "free" else (END, None)]
    keys: dict = {}  # (ends a word, child key 0, child key 1) -> key id
    state_of: dict = {None: None}  # key id -> state
    ends_at: dict = {}  # d -> the words of length d
    for w in words:
        ends_at.setdefault(len(w), set()).add(int(w, 2) if w else 0)
    level: dict = {}  # node at depth d + 1 -> key id
    for d in range(max(ends_at), -1, -1):
        ends = ends_at.get(d, set())
        below, level = level, {}
        for v in ends.union(q >> 1 for q in below):
            key = (v in ends, below.get(v << 1), below.get(v << 1 | 1))
            kid = keys.get(key)
            if kid is None:
                kid = keys[key] = len(keys)
                if key[0]:
                    state_of[kid] = END
                else:
                    state_of[kid] = len(rows)
                    rows.append((state_of[key[1]], state_of[key[2]]))
            level[v] = kid
    return state_of[level[0]], rows


def step_by_kind(e, state, depth, bit):
    """The child of (state, depth) under `bit`, or None, one bit at a time.

    These are the per-kind ``step`` bodies from before each kind built both
    children in one pass.  Composite kinds recurse into this oracle for
    their operands, so no engine cache is read; a C_I set asks its ISpec
    for each index, and a trie set reads its trie's rows.
    """
    kind = e.kind
    if kind == "full_cube":
        return ()
    if kind == "ci":
        return None if bit and e.ispec.contains(depth) else ()
    if kind == "block_constraint":
        bs = e.boundaries
        j = bisect_right(bs, depth) - 1
        if depth < bs[0] or depth >= bs[-1] or e._tries[j] is None:
            return FREE
        root, rows = e._tries[j]
        nxt = rows[root if depth == bs[j] else state][bit]
        if nxt is None:
            return None
        return FREE if depth + 1 == bs[j + 1] else nxt
    if kind in ("explicit", "cylinder_union"):
        return e._rows[state][bit]
    if kind == "sumset":
        nxt = set()
        for sa, sb in state:
            for ba, ca in children_by_step(e.a, sa, depth):
                for bb, cb in children_by_step(e.b, sb, depth):
                    if ba ^ bb == bit:
                        nxt.add((ca, cb))
        return frozenset(nxt) or None
    if kind == "product":
        sa, sb = state
        if depth % 2 == 0:
            nxt = step_by_kind(e.a, sa, depth // 2, bit)
            return None if nxt is None else (nxt, sb)
        nxt = step_by_kind(e.b, sb, depth // 2, bit)
        return None if nxt is None else (sa, nxt)
    if kind == "union":
        nxt = set()
        for i, s in state:
            child = step_by_kind(e.members[i], s, depth, bit)
            if child is not None:
                nxt.add((i, child))
        return frozenset(nxt) or None
    if kind == "code_image":
        # a bit's first copy reads the base's step under it, its last copy
        # moves on to the base children, and the copies between repeat it
        S, pending = state
        c = e.code.c
        if pending is not None and bit != pending:
            return None
        nxt = frozenset(child for s in S if (child := step_by_kind(
            e.base, s, e.code.k + depth // c, bit)) is not None)
        if not nxt:
            return None
        return (nxt, None) if depth % c == c - 1 else (S, bit)
    raise ValueError(f"no per-bit oracle for kind {kind!r}")


def children_by_step(e, state, depth):
    """The ((bit, child), ...) tuple of (state, depth), from two per-bit
    steps of ``step_by_kind``."""
    return tuple((b, s) for b in (0, 1)
                 if (s := step_by_kind(e, state, depth, b)) is not None)


def driven_by_step(e):
    """e with its ``children`` replaced by ``children_by_step``, one node
    charged per lookup as the engine charges it: a copy whose walks never
    run the engine's own transitions."""
    def children(state, depth, budget=None):
        if budget is not None:
            budget.spend()
        return children_by_step(e, state, depth)

    e.children = children
    return e


def me_cover_by_spans(w, k_max):
    """(elements, groups) of ``ideals.me_cover``, with one span per f-block
    and a cursor that moves each span into the first group whose end g(n+1)
    lies past the block's start.

    The groups stop at the first one that takes the last block, so a g table
    that ends first leaves the later blocks' words in no group.
    """
    f = w.f
    elements, spans = [], []
    for k in range(min(k_max, f.block_count)):
        a, b = f.block(k)
        start = len(elements)
        for p in all_words(f(k)):
            elements.append(p + w.y.segment(a, b))
        spans.append((k, start, len(elements)))
    groups, cursor = [], 0
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
    return tuple(elements), tuple(groups)
