"""The seeded job mixes and the independent checks of their outputs.

A job is ``Job(jid, kind, params)`` with plain, comparable params, so one
seed always yields the same list.  ``KINDS[kind]`` holds the job's runner
and its check.  Runners build fresh set objects from the params on every
call, as a CLI invocation does, so transition caches start cold and node
counts repeat exactly.  Checks recompute the expected answer by a path that
does not go through the code being measured: word enumeration, membership
arithmetic on index sets, products of family sizes, or the brute-force
oracles in ``tests/oracles.py``.

Nothing here imports cantordim; runners and checks reach the package
through ``ctx.m``, which the runner fills after each timed import.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction
from typing import NamedTuple

# Seed trace_count recurses once per tree level and raises RecursionError
# past depth 496 at the default recursion limit; the cover DP does so past
# about 987.  Jobs stay well below both so that a later engine without the
# recursion is compared on the same work.
MAX_TRACE_DEPTH = 400
MAX_DP_DEPTH = 64
LAMBDA_HORIZON = 16


class Job(NamedTuple):
    jid: int
    kind: str
    params: tuple


# ---------------------------------------------------------------------------
# Seeded generation helpers


class Design:
    """The parameters that set a job's cost, the same for every seed.

    Each call returns an evenly spaced grid over the range, in an order
    fixed by the family name and the call's position, never by the seed:
    parameters zipped together pair up the same way for every seed.  Every
    seed thus runs jobs of the same sizes, without gaps at p50 or p90,
    while the seed decides the inputs themselves: index sets, block
    families, words and points.
    """

    def __init__(self, family: str):
        self.family = family
        self.calls = 0

    def spread(self, count: int, lo: int, hi: int) -> list[int]:
        span = hi - lo + 1
        values = [lo + int(span * (i + 0.5) / count) for i in range(count)]
        random.Random(f"{self.family}:{self.calls}").shuffle(values)
        self.calls += 1
        return values

    def pick(self, count: int, options) -> list:
        return [options[i] for i in self.spread(count, 0, len(options) - 1)]


def interleave_kinds(weights: dict, total: int) -> list[str]:
    """Smooth weighted round robin: every prefix keeps the kind shares."""
    wsum = sum(weights.values())
    taken = {k: 0 for k in weights}
    order = []
    for p in range(total):
        best = max(weights, key=lambda k: (weights[k] * (p + 1) / wsum - taken[k], k))
        taken[best] += 1
        order.append(best)
    return order


def words_of(width: int) -> list[str]:
    return [format(i, f"0{width}b") for i in range(1 << width)] if width else [""]


def rand_word(rng, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def rand_ispec(rng, tails=("periodic", "powers", "blocks")):
    tail = rng.choice(tails)
    if tail == "periodic":
        period = rand_word(rng, rng.randint(2, 6))
        if "1" not in period:
            period = "1" + period[1:]
        return ("periodic", rand_word(rng, rng.randint(0, 6)), period)
    if tail == "powers":
        return ("powers", rand_word(rng, rng.randint(0, 4)), rng.randint(1, 5),
                rng.randint(2, 4))
    q = rng.randint(2, 4)
    c = rng.randint(1, 3)
    return ("blocks", c, rng.randint(c + 1, c * q), q)


def rand_blocks(rng):
    """Random block-constraint spec: (boundaries, families or None), with
    4-10 blocks of width 2-5 from index 0-8 on and one gap in five."""
    b = [rng.randint(0, 8)]
    fams = []
    for _ in range(rng.randint(4, 10)):
        w = rng.randint(2, 5)
        b.append(b[-1] + w)
        if rng.random() < 0.2:
            fams.append(None)
        else:
            pool = words_of(w)
            fams.append(tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))))))
    return tuple(b), tuple(fams)


# ---------------------------------------------------------------------------
# Independent arithmetic used by the checks


def members(spec, n: int) -> list[bool]:
    """Membership of 0..n-1 in the index set, straight from the tail rule."""
    kind_ = spec[0]
    if kind_ == "periodic":
        pre, per = spec[1], spec[2]
        return [(pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]) == "1"
                for i in range(n)]
    if kind_ == "powers":
        pre, c, q = spec[1], spec[2], spec[3]
        powers, v = set(), c
        while v < n:
            powers.add(v)
            v *= q
        return [pre[i] == "1" if i < len(pre) else i in powers for i in range(n)]
    c, d, q = spec[1], spec[2], spec[3]
    out = [False] * n
    while c < n:
        for i in range(c, min(d, n)):
            out[i] = True
        c, d = c * q, d * q
    return out


def ci_counts(spec, n_hi: int) -> list[int]:
    """N(C_I) at depths 0..n_hi: 2 to the number of free indices below n."""
    mem = members(spec, n_hi)
    out, free = [1], 0
    for bit in mem:
        free += not bit
        out.append(1 << free)
    return out


def block_count(boundaries, fams, n: int) -> int:
    total, free = 1, n
    for j, fam in enumerate(fams):
        a, b = boundaries[j], boundaries[j + 1]
        if fam is None or n <= a:
            continue
        width = min(n, b) - a
        free -= width
        total *= len({w[:width] for w in fam})
    return total << free


def block_words(boundaries, fams, n: int) -> list[str]:
    """All depth-n prefixes of a block-constraint set, sorted."""
    out = [""]
    pos = 0
    segments = []
    for j, fam in enumerate(fams):
        a, b = boundaries[j], boundaries[j + 1]
        if pos < a:
            segments.append(words_of(min(a, n) - pos) if pos < n else [""])
        if a < n:
            width = min(n, b) - a
            pool = words_of(width) if fam is None else sorted({w[:width] for w in fam})
            segments.append(pool)
        pos = b
    if pos < n:
        segments.append(words_of(n - pos))
    for seg in segments:
        out = [p + s for p in out for s in seg]
    return sorted(out)


def covered_by(word: str, cyls: set) -> bool:
    return any(word[:k] in cyls for k in range(len(word) + 1))


# ---------------------------------------------------------------------------
# Object construction from params (no specio: only the cli workload parses)


def make_ispec(m, spec):
    if spec[0] == "periodic":
        return m.words.ISpec(spec[1], ("periodic", spec[2]))
    if spec[0] == "powers":
        return m.words.ISpec(spec[1], ("powers", spec[2], spec[3]))
    return m.words.ISpec("", ("blocks",) + tuple(spec[1:]))


def make_ci(m, spec):
    return m.treeset.CISet(make_ispec(m, spec))


def make_blocks(m, boundaries, fams):
    return m.treeset.BlockConstraintSet(
        list(boundaries), [None if f is None else list(f) for f in fams])


# ---------------------------------------------------------------------------
# counting family (engine): multi-scale counting


def run_ci_dims(ctx, p):
    spec, n_hi = p
    return ctx.m.measures.box_dimensions(make_ci(ctx.m, spec), 1, n_hi, ctx.budget())


def check_ci_dims(ctx, p, out):
    spec, n_hi = p
    want = ci_counts(spec, n_hi)
    return [(r[0], r[1]) for r in out.rows] == [(n, want[n]) for n in range(1, n_hi + 1)]


def run_block_dims(ctx, p):
    boundaries, fams, n_hi = p
    e = make_blocks(ctx.m, boundaries, fams)
    return ctx.m.measures.box_dimensions(e, 1, n_hi, ctx.budget())


def check_block_dims(ctx, p, out):
    boundaries, fams, n_hi = p
    return [(r[0], r[1]) for r in out.rows] == [
        (n, block_count(boundaries, fams, n)) for n in range(1, n_hi + 1)]


def run_product_dims(ctx, p):
    a, b, n_hi = p
    e = ctx.m.treeset.ProductSet(make_ci(ctx.m, a), make_ci(ctx.m, b))
    return ctx.m.measures.box_dimensions(e, 1, n_hi, ctx.budget())


def check_product_dims(ctx, p, out):
    a, b, n_hi = p
    na, nb = ci_counts(a, n_hi), ci_counts(b, n_hi)
    return [(r[0], r[1]) for r in out.rows] == [
        (n, na[n] * nb[n]) for n in range(1, n_hi + 1)]


def run_sumset_dims(ctx, p):
    a, b, n_hi = p
    e = ctx.m.treeset.SumSet(make_ci(ctx.m, a), make_ci(ctx.m, b))
    return ctx.m.measures.box_dimensions(e, 1, n_hi, ctx.budget())


def check_sumset_dims(ctx, p, out):
    # C_I + C_J = C_(I cap J): the sum is free wherever either factor is
    a, b, n_hi = p
    both = [x and y for x, y in zip(members(a, n_hi), members(b, n_hi))]
    want = [1 << (n - sum(both[:n])) for n in range(n_hi + 1)]
    return [(r[0], r[1]) for r in out.rows] == [(n, want[n]) for n in range(1, n_hi + 1)]


def _set_counts(setspec, n_hi):
    if setspec[0] == "ci":
        return ci_counts(setspec[1], n_hi)
    return [block_count(setspec[1], setspec[2], n) for n in range(n_hi + 1)]


def _make_set(m, setspec):
    if setspec[0] == "ci":
        return make_ci(m, setspec[1])
    return make_blocks(m, setspec[1], setspec[2])


def run_content_seq(ctx, p):
    setspec, gauge, n_hi = p
    return ctx.m.measures.box_content_sequence(
        _make_set(ctx.m, setspec), ctx.gauges[gauge], 1, n_hi, ctx.budget())


def check_content_seq(ctx, p, out):
    setspec, gauge, n_hi = p
    h = ctx.gauges[gauge]
    want = _set_counts(setspec, n_hi)
    rows = [(n, want[n], want[n] * h.lo_at(n), want[n] * h.hi_at(n))
            for n in range(1, n_hi + 1)]
    return list(out.entries) == rows


def shelahN_levels(f, fams):
    """Level sets X_n = {x : block k of x lies in H_k for all k >= n}."""
    top = len(fams)
    return [(tuple(f[n:top + 1]), tuple(fams[n:top])) for n in range(top)]


def run_dbox(ctx, p):
    f, fams, gauge, n_hi = p
    ideals = ctx.m.ideals
    w = ideals.ShelahNWitness(ideals.BlockPartition(f), fams)
    return ctx.m.measures.dbox_on_filtration(
        ideals.shelahN_filtration(w), ctx.gauges[gauge], 1, n_hi, ctx.budget())


def check_dbox(ctx, p, out):
    f, fams, gauge, n_hi = p
    h = ctx.gauges[gauge]
    start = max(1, n_hi - (n_hi - 1) // 2, (n_hi + 1) // 2)
    per = []
    for k, (bounds, level) in enumerate(shelahN_levels(f, fams)):
        per.append((k, min(block_count(bounds, level, n) * h.hi_at(n)
                           for n in range(start, n_hi + 1))))
    return tuple(per) == out.per_set and out.value == max(v for _, v in per)


def gen_shelahN(rng, levels):
    widths = [rng.randint(2, 4) for _ in range(levels)]
    f = [0]
    for w in widths:
        f.append(f[-1] + w)
    fams = []
    for k, w in enumerate(widths):
        pool = words_of(w)
        size = rng.randint(1, min(len(pool), k) if k else len(pool))
        fams.append(tuple(sorted(rng.sample(pool, size))))
    return tuple(f), tuple(fams)


def gen_scales(rng, counts, m):
    d, cap, c = Design("scales"), MAX_TRACE_DEPTH, counts
    out = {}
    out["ci_dims"] = [(rand_ispec(rng), n) for n in d.spread(c["ci_dims"], 128, cap)]
    out["block_dims"] = [rand_blocks(rng) + (n,) for n in d.spread(c["block_dims"], 128, 256)]
    out["product_dims"] = [(rand_ispec(rng), rand_ispec(rng), n)
                           for n in d.spread(c["product_dims"], 64, 160)]
    out["sumset_dims"] = [(rand_ispec(rng, ("periodic",)), rand_ispec(rng, ("periodic",)), n)
                          for n in d.spread(c["sumset_dims"], 128, 256)]
    out["content_seq"] = [
        (("ci", rand_ispec(rng)) if kind_ == "ci" else ("blocks",) + rand_blocks(rng), g, n)
        for kind_, g, n in zip(d.pick(c["content_seq"], ("ci", "blocks")),
                               d.pick(c["content_seq"], SCALES_GAUGES),
                               d.spread(c["content_seq"], 64, 96))]
    out["dbox"] = [gen_shelahN(rng, lv) + (g, n)
                   for lv, g, n in zip(d.spread(c["dbox"], 3, 6),
                                       d.pick(c["dbox"], POWER_GAUGES),
                                       d.spread(c["dbox"], 48, 96))]
    return out, {}


# ---------------------------------------------------------------------------
# certificate family (engine): Hausdorff certificates


def run_sparse_sweep(ctx, p):
    gauge, depth = p
    mz = ctx.m.measures
    h = ctx.gauges[gauge]
    bud = ctx.budget()
    ispec = mz.sparse_I_builder(h, depth)
    e = ctx.m.treeset.CISet(ispec)
    cert = mz.mass_lower_certificate(e, h, mz.CIProductMass(ispec), depth, bud)
    bounds = [mz.hausdorff_measure_delta(e, h, m, depth, bud) for m in range(depth + 1)]
    return ispec, cert, bounds


def check_sparse_sweep(ctx, p, out):
    gauge, depth = p
    ispec, cert, bounds = out
    s = ctx.gauges[gauge].symbolic.s
    spec = ("periodic", ispec.prefix, ispec.tail[1])
    mem = members(spec, depth)
    sparse = all(sum(mem[:n]) <= n * (1 - s) for n in range(depth + 1))
    return (sparse and cert.ok and cert.value >= 1
            and all(b.lower <= b.upper and b.upper >= cert.value for b in bounds))


def run_explicit_dp(ctx, p):
    words, gauge, m = p
    mz = ctx.m.measures
    h = ctx.gauges[gauge]
    depth = len(words[0])
    bud = ctx.budget()
    bound = mz.hausdorff_measure_delta(ctx.m.treeset.ExplicitSet(words), h, m, depth, bud)
    cover, cost = mz.extract_optimal_cover(ctx.m.treeset.ExplicitSet(words), h, m, depth, bud)
    return bound, cover, cost


def check_explicit_dp(ctx, p, out):
    words, gauge, m = p
    bound, cover, cost = out
    h = ctx.gauges[gauge]
    depth = len(words[0])
    cyls = set(cover)
    e = ctx.m.treeset.ExplicitSet(words)
    return (cost == bound.upper and bound.lower <= bound.upper
            and sum(h.hi_at(len(w)) for w in cover) == cost
            and all(m <= len(w) <= depth for w in cover)
            and all(covered_by(w, cyls) for w in words)
            and ctx.m.covers.is_cover_at_depth(e, cover, depth))


def run_small_oracle(ctx, p):
    words, gauge, m = p
    e = ctx.m.treeset.ExplicitSet(words)
    return ctx.m.measures.hausdorff_measure_delta(e, ctx.gauges[gauge], m,
                                                  len(words[0]), ctx.budget())


def check_small_oracle(ctx, p, out):
    words, gauge, m = p
    want = ctx.m.oracles.min_cylinder_cover_cost(words, ctx.gauges[gauge].hi_at,
                                                 m, len(words[0]))
    return out.upper == want and out.lower <= out.upper


def run_ci_exact(ctx, p):
    spec, n_lo, cube_depth = p
    mz, ts = ctx.m.measures, ctx.m.treeset
    r1 = ctx.gauges["r1"]
    bud = ctx.budget()
    ci = [mz.hausdorff_measure_delta(make_ci(ctx.m, spec), r1, n, n, bud)
          for n in range(n_lo, n_lo + 8)]
    cube = [mz.hausdorff_measure_delta(ts.FullCube(), r1, m, cube_depth, bud)
            for m in range(0, 9)]
    return ci, cube


def check_ci_exact(ctx, p, out):
    # the optimal cover of C_I by r^1 is its depth-n trace: 2^-|n cap I|
    spec, n_lo, _ = p
    ci, cube = out
    mem = members(spec, n_lo + 8)
    return (all(b.upper == Fraction(1, 1 << sum(mem[:n]))
                for n, b in zip(range(n_lo, n_lo + 8), ci))
            and all(b.lower == b.upper == 1 for b in cube))


def run_union_dp(ctx, p):
    members_, gauge, m, depth = p
    ts = ctx.m.treeset
    e = ts.UnionSet([ts.ExplicitSet(ws) for ws in members_])
    return ctx.m.measures.hausdorff_measure_delta(e, ctx.gauges[gauge], m, depth,
                                                  ctx.budget())


def check_union_dp(ctx, p, out):
    # any depth-n trace with n >= m is a cover costing N(n) * h(2^-n)
    members_, gauge, m, depth = p
    h = ctx.gauges[gauge]
    points = {w + "0" * (depth - len(w)) for ws in members_ for w in ws}
    best = min(len({x[:n] for x in points}) * h.hi_at(n) for n in range(m, depth + 1))
    return 0 <= out.lower <= out.upper <= best


def run_product_dp(ctx, p):
    a, b, gauge, m, depth = p
    e = ctx.m.treeset.ProductSet(make_ci(ctx.m, a), make_ci(ctx.m, b))
    return ctx.m.measures.hausdorff_measure_delta(e, ctx.gauges[gauge], m, depth,
                                                  ctx.budget())


def check_product_dp(ctx, p, out):
    a, b, gauge, m, depth = p
    h = ctx.gauges[gauge]
    na, nb = ci_counts(a, depth), ci_counts(b, depth)
    best = min(na[n] * nb[n] * h.hi_at(n) for n in range(m, depth // 2 + 1))
    return 0 <= out.lower <= out.upper <= best


def gen_certify(rng, counts, m):
    d, c = Design("certify"), counts
    out = {}
    out["sparse_sweep"] = list(zip(d.pick(c["sparse_sweep"], SPARSE_GAUGES),
                                   d.spread(c["sparse_sweep"], 48, MAX_DP_DEPTH)))
    ex = []
    for size, depth, g, m_ in zip(d.spread(c["explicit_dp"], 500, 3000),
                                  d.spread(c["explicit_dp"], 12, 16),
                                  d.pick(c["explicit_dp"], ("r1/2", "r1", "harmonic")),
                                  d.spread(c["explicit_dp"], 0, 6)):
        words = tuple(sorted(format(i, f"0{depth}b") for i in rng.sample(range(1 << depth), size)))
        ex.append((words, g, m_))
    out["explicit_dp"] = ex
    small = []
    for size, g, m_ in zip(d.spread(c["small_oracle"], 4, 32),
                           d.pick(c["small_oracle"], ("r1", "harmonic9")),
                           d.spread(c["small_oracle"], 0, 2)):
        depth = 6 if size > 8 else rng.randint(4, 6)
        words = tuple(sorted(rng.sample(words_of(depth), min(size, 1 << (depth - 1)))))
        small.append((words, g, m_))
    out["small_oracle"] = small
    out["ci_exact"] = [(rand_ispec(rng, ("periodic",)), n, depth)
                       for n, depth in zip(d.spread(c["ci_exact"], 2, 40),
                                           d.spread(c["ci_exact"], 16, 48))]
    un = []
    for depth, parts, g, m_ in zip(d.spread(c["union_dp"], 24, 48),
                                   d.spread(c["union_dp"], 2, 4),
                                   d.pick(c["union_dp"], ("r1/2", "r1", "harmonic")),
                                   d.spread(c["union_dp"], 0, 8)):
        mem = []
        for _ in range(parts):
            w = rng.randint(8, 12)
            mem.append(tuple(sorted(rand_word(rng, w) for _ in range(rng.randint(1, 40)))))
        un.append((tuple(mem), g, m_, depth))
    out["union_dp"] = un
    out["product_dp"] = [(rand_ispec(rng), rand_ispec(rng), g, m_, depth)
                         for g, m_, depth in zip(d.pick(c["product_dp"], ("r1/2", "r1")),
                                                 d.spread(c["product_dp"], 0, 8),
                                                 d.spread(c["product_dp"], 16, 48))]
    return out, {}


# ---------------------------------------------------------------------------
# cover family (engine): cover verification, cover building, witness pipelines


def sized_blocks(rng, target: int):
    """A depth-18 block-constraint set whose depth-18 trace has about
    `target` words: two free leading bits, then four 4-bit families of
    near-equal size (the last one makes up the count)."""
    side = round((target / 4) ** 0.25)
    last = max(1, min(16, round(target / (4 * side ** 3))))
    fams = tuple(tuple(sorted(rng.sample(words_of(4), k))) for k in (side,) * 3 + (last,))
    return (2, 6, 10, 14, 18), fams


def gen_lambda_instance(rng, size, cut):
    """Cover = the 24- or 28-word depth-6 trace, then the depth-D trace.  With
    `cut` = i (i < J) the depth-D word under shallow word i is left out, so
    the tail from i+1 on misses it: the verdict fails at i+1.  A fixed
    shallow group keeps the share of each tail's tree it absorbs fixed."""
    bounds, fams = sized_blocks(rng, size)
    return bounds, fams, 6, cut


def lambda_cover(p):
    bounds, fams, shallow, cut = p
    head = block_words(bounds, fams, shallow)
    tail = block_words(bounds, fams, bounds[-1])
    if cut is not None:
        tail.remove(next(t for t in tail if t.startswith(head[cut])))
    return tuple(head + tail)


def run_verify_lambda(ctx, p):
    bounds, fams, _, _ = p
    elements = ctx.inputs
    return ctx.m.covers.verify_lambda(make_blocks(ctx.m, bounds, fams),
                                      ctx.m.covers.Cover(elements),
                                      LAMBDA_HORIZON, bounds[-1], ctx.budget())


def check_verify_lambda(ctx, p, out):
    # tail j covers iff every trace word has a prefix at index >= j, so the
    # first failing tail is one past the smallest "last covering index"
    bounds, fams, _, _ = p
    depth = bounds[-1]
    last = {w: i for i, w in enumerate(ctx.inputs)}
    worst = min(max(last.get(t[:k], -1) for k in range(depth + 1))
                for t in block_words(bounds, fams, depth))
    fail = worst + 1
    if fail <= LAMBDA_HORIZON:
        return out.status == "fails" and out.failure_index == fail
    return out.status == "holds" and out.failure_index is None


def gen_gamma_instance(rng, size, broken):
    """Groups = traces at 2-5 shallow depths and at D; group `broken`, if
    any, loses a word (-1 names the depth-D group)."""
    bounds, fams = sized_blocks(rng, size)
    depths = sorted(rng.sample(range(1, 8), rng.randint(2, 5))) + [bounds[-1]]
    if broken is not None and broken < 0:
        broken += len(depths)
    return bounds, fams, tuple(depths), broken


def gamma_groups(p):
    bounds, fams, depths, broken = p
    groups = [block_words(bounds, fams, d) for d in depths]
    if broken is not None:
        groups[broken].pop(len(groups[broken]) // 2)
    return tuple(tuple(g) for g in groups)


def gamma_expect(group_count, broken):
    """(status, j0, group_failures) when every group but `broken` covers."""
    top = min(LAMBDA_HORIZON, group_count - 1)
    bad = () if broken is None or broken > top else (broken,)
    j0 = bad[0] + 1 if bad else 0
    if j0 > top:
        return "fails", None, bad
    return "holds", j0, bad


def run_verify_gamma(ctx, p):
    bounds, fams, _, _ = p
    groups = ctx.inputs
    spans, pos = [], 0
    for grp in groups:
        spans.append((pos, pos + len(grp)))
        pos += len(grp)
    cover = ctx.m.covers.Cover(tuple(w for grp in groups for w in grp), tuple(spans))
    return ctx.m.covers.verify_gamma_groupable(make_blocks(ctx.m, bounds, fams), cover,
                                               LAMBDA_HORIZON, bounds[-1], ctx.budget())


def check_verify_gamma(ctx, p, out):
    # each group is a full trace, except the one that lost a word
    got = (out.status, out.j0, out.group_failures)
    return got == gamma_expect(len(ctx.inputs), p[3])


def _nested_ci(spec, levels, step):
    """X_k = C_I for I = ones on the first step*(levels-1-k) indices plus
    the periodic tail: an increasing filtration."""
    _, pre, per = spec
    return [("periodic", "1" * (step * (levels - 1 - k)) + pre, per) for k in range(levels)]


def run_build_gamma(ctx, p):
    spec, levels, step, gauge = p
    sets = tuple(make_ci(ctx.m, s) for s in _nested_ci(spec, levels, step))
    return ctx.m.covers.build_gamma_groupable(
        ctx.m.measures.Filtration(sets), ctx.gauges[gauge], max_scale=32, depth=16,
        budget=ctx.budget())


def ci_uncovered(spec, cyls: set, depth: int):
    """Walk C_I below the cylinders; return a depth-`depth` node of C_I that
    no cylinder covers, or None."""
    mem = members(spec, depth)
    stack = [""]
    while stack:
        w = stack.pop()
        if w in cyls:
            continue
        if len(w) == depth:
            return w
        stack.append(w + "0")
        if not mem[len(w)]:
            stack.append(w + "1")
    return None


def check_build_gamma(ctx, p, out):
    # group j is a cheap cover of level j, so the last groups cover the top
    spec, levels, step, gauge = p
    h = ctx.gauges[gauge]
    depth = max(16, max(len(w) for w in out.elements))
    costs = [sum(h.hi_at(len(w)) for w in out.group_elements(j))
             for j in range(out.group_count)]
    return (out.group_count == levels and sum(costs) < 2
            and all(c < Fraction(1, 1 << j) for j, c in enumerate(costs))
            and all(ci_uncovered(level, set(out.group_elements(j)), depth) is None
                    for j, level in enumerate(_nested_ci(spec, levels, step))))


def run_dpnull_merge(ctx, p):
    points, eps_len = p
    cv, ts = ctx.m.covers, ctx.m.treeset
    eps = tuple(Fraction(1, 1 << n) for n in range(eps_len))
    bud = ctx.budget()
    ws = [cv.build_dpnull_witness(ctx.m.measures.trivial_filtration(ts.ExplicitSet([x])),
                                  eps, bud) for x in points]
    return cv.merge_diagonal(ws, bud)


def check_dpnull_merge(ctx, p, out):
    # the i-th merged family must cover the first i+1 points
    points, _ = p
    idx = out.index_set
    return (len(idx) == len(points)
            and all(a < b for a, b in zip(idx, idx[1:]))
            and all(n >= i + 1 and len(out.families[n]) <= n * n for i, n in enumerate(idx))
            and all(covered_by(x + "0" * 40, set(out.families[n]))
                    for i, n in enumerate(idx) for x in points[:i + 1]))


def run_nadd_box(ctx, p):
    k, fams, i_max = p
    iz = ctx.m.ideals
    growth = lambda n: 1 << max(0, n - 1)   # 1/h(2^(1-n)) for h = r
    f = iz.nadd_fbuilder(growth, k)
    return iz.nadd_box_check(iz.ShelahNWitness(f, fams), growth, ctx.gauges["r1"],
                             i_max, ctx.budget())


def nadd_table(k):
    """nadd_fbuilder's minimal recursion for h = r, recomputed."""
    table = [0]
    for n in range(k):
        target = (1 << table[-1]) * math.factorial(n + 1)
        m = table[-1] + 1
        while (1 << max(0, m - 1)) < target:
            m += 1
        table.append(m)
    return table


def check_nadd_box(ctx, p, out):
    k, fams, i_max = p
    f = nadd_table(k)
    rows = []
    for n, (bounds, level) in enumerate(shelahN_levels(f, fams)):
        if n + 1 >= len(f):
            break
        for i in range(f[n + 1], i_max + 1):
            count = block_count(bounds, level, i)
            bound = 1 << f[n]
            for j in range(n, max(k for k in range(len(fams)) if f[k] <= i) + 1):
                bound *= len(fams[j])
            content = count * Fraction(1, 1 << (i - 1))
            rows.append((n, i, count, content, count <= bound and content <= 1))
    got = [(r.level, r.scale, r.count, r.content, r.ok) for r in out.rows]
    return got == rows and out.ok == all(r[4] for r in rows)


def run_tprime_box(ctx, p):
    widths, index, fams = p
    iz = ctx.m.ideals
    table = [0]
    for w in widths:
        table.append(table[-1] + w)
    w = iz.TPrimeWitness(iz.BlockPartition(tuple(table)), lambda n: 1, index,
                         dict(zip(index, fams)))
    return iz.tprime_lbox_check(w, lambda n: 1 << n, ctx.gauges["r1"], ctx.budget())


def check_tprime_box(ctx, p, out):
    widths, index, fams = p
    f = [0]
    for w in widths:
        f.append(f[-1] + w)
    fam_of = dict(zip(index, fams))
    rows = []
    for k in range(index[-1] + 1):
        active = [n for n in index if n >= k]
        lo = active[0]
        bounds = tuple(f[lo:active[-1] + 2])
        level = tuple(fam_of.get(j) for j in range(lo, active[-1] + 1))
        for n in active:
            scale = f[n + 1]
            count = block_count(bounds, level, scale)
            content = count * Fraction(1, 1 << scale)
            rows.append((k, scale, count, content, count <= 1 << f[n] and content <= 1))
    got = [(r.level, r.scale, r.count, r.content, r.ok) for r in out.rows]
    return got == rows and out.ok == all(r[4] for r in rows)


def run_me_cover(ctx, p):
    k_max, pre, per = p
    iz, cv = ctx.m.ideals, ctx.m.covers
    h = ctx.gauges["r1"]
    f = iz.me_fbuilder(h, 12)
    g = iz.BlockPartition(tuple(f(k) for k in range(0, k_max + 1, 2)))
    w = iz.ShelahMWitness(f, g, iz.EventualPoint(pre, per))
    cover, sums = iz.me_cover(w, h, k_max)
    y = w.y.prefix(f(k_max))
    e = make_blocks(ctx.m, [f(k) for k in range(k_max + 1)],
                    [(y[f(k):f(k + 1)],) if k % 2 == 0 else None for k in range(k_max)])
    depth = max(len(x) for x in cover.elements)
    return cover, sums, cv.verify_gamma_groupable(e, cover, cover.group_count - 1,
                                                  depth, ctx.budget())


def check_me_cover(ctx, p, out):
    # block k of the cover is every prefix of length f(k) followed by y on
    # block k; the recursion for h = r gives f(k+1) = f(k) + k
    k_max, pre, per = p
    cover, sums, verdict = out
    f = [0]
    for k in range(k_max):
        f.append(f[-1] + max(1, k))
    y = "".join(pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]
                for i in range(f[-1]))
    want = [p_ + y[f[k]:f[k + 1]] for k in range(k_max) for p_ in words_of(f[k])]
    return (list(cover.elements) == want and sum(sums) <= 2
            and verdict.holds and verdict.j0 == 0)


def gen_einc(rng, blocks=8, coarse=3):
    """Small inclusion instance on f = identity with nonempty families."""
    gtab = sorted(rng.sample(range(1, blocks), coarse - 1))
    g = (0,) + tuple(gtab) + (blocks,)
    fams = tuple(tuple(sorted(rng.sample(["0", "1"], rng.randint(1, 2))))
                 for _ in range(blocks))
    gfams = []
    for n in range(coarse):
        width = g[n + 1] - g[n]
        pool = words_of(width)
        count = rng.randint(1, max(1, (1 << width) >> n))
        gfams.append(tuple(sorted(rng.sample(pool, count))))
    return tuple(range(blocks + 1)), g, fams, tuple(gfams)


def run_einc(ctx, p):
    f, g, fams, gfams = p
    iz = ctx.m.ideals
    fp, gp = iz.BlockPartition(f), iz.BlockPartition(g)
    return iz.einc_inclusion(fp, gp, iz.BlockFamily(fp, fams),
                             iz.BlockFamily(fp.compose(gp), gfams), len(gfams))


def check_einc(ctx, p, out):
    f, g, fams, gfams = p
    want = ctx.m.oracles.einc_failures_by_words(
        f, g, [set(x) for x in fams], [set(x) for x in gfams], len(gfams))
    return set(out.failures) == want and len(out.failures) == len(want)


def gen_covers(rng, counts, m):
    d, c = Design("covers"), counts
    out = {}
    n = c["verify_lambda"]
    cuts = [cut if fails else None for fails, cut in zip(d.pick(n, (True, False)),
                                                         d.spread(n, 10, LAMBDA_HORIZON - 1))]
    out["verify_lambda"] = [gen_lambda_instance(rng, size, cut)
                            for size, cut in zip(d.spread(n, 4096, 8192), cuts)]
    n = c["verify_gamma"]
    out["verify_gamma"] = [gen_gamma_instance(rng, size, broken)
                           for size, broken in zip(d.spread(n, 4096, 8192),
                                                   d.pick(n, (None, 0, 1, -1)))]
    out["build_gamma"] = [(("periodic", "", per), levels, step, "r1")
                          for per, levels, step in zip(d.pick(c["build_gamma"], COVER_PERIODS),
                                                       d.spread(c["build_gamma"], 4, 6),
                                                       d.spread(c["build_gamma"], 1, 3))]
    out["dpnull_merge"] = [(tuple(rand_word(rng, rng.randint(6, 10)) for _ in range(k)), 30)
                           for k in d.spread(c["dpnull_merge"], 2, 4)]
    nadd = []
    for k in d.spread(c["nadd_box"], 5, 7):
        f = nadd_table(k)
        fams = []
        for j in range(k):
            width = f[j + 1] - f[j]
            size = 1 if rng.random() < 0.7 or j == 0 else rng.randint(1, min(j, 3))
            fams.append(tuple(sorted({rand_word(rng, width) for _ in range(size)})))
        nadd.append((k, tuple(fams), min(28, f[-1])))
    out["nadd_box"] = nadd
    tp = []
    for top in d.spread(c["tprime_box"], 4, 12):
        widths = tuple(rng.randint(1, 2) for _ in range(top + 2))
        index = tuple(sorted(rng.sample(range(1, top + 1), rng.randint(1, min(4, top)))))
        tp.append((widths, index, tuple((rand_word(rng, widths[n]),) for n in index)))
    out["tprime_box"] = tp
    out["me_cover"] = [(k, rand_word(rng, rng.randint(0, 3)), rand_word(rng, rng.randint(1, 3)))
                       for k in d.spread(c["me_cover"], 4, 6)]
    out["einc"] = [gen_einc(rng) for _ in range(c["einc"])]
    return out, {}


# ---------------------------------------------------------------------------
# cli: in-process cantordim.cli.main on spec files written at set-up


def cli_once(ctx, argv):
    path = lambda a: os.path.join(ctx.workdir, a[1:]) if a.startswith("@") else a
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ctx.m.cli.main([path(a) for a in argv])
    return rc, buf.getvalue()


def run_cli(ctx, p):
    steps, _ = p
    return tuple(cli_once(ctx, argv) for argv in steps)


def check_cli(ctx, p, out):
    steps, expect = p
    again = tuple(cli_once(ctx, argv) for argv in steps)
    if again != out or [rc for rc, _ in out] != list(expect["rc"]):
        return False
    payload = json.loads(out[-1][1]) if out[-1][1] else {}
    if "counts" in expect:
        return [int(r["N"]) for r in payload["rows"]] == list(expect["counts"])
    if "status" in expect:
        return payload.get("status") == expect["status"]
    if expect.get("bracket"):
        return Fraction(payload["lower"]) <= Fraction(payload["upper"])
    if "outcomes" in expect:
        return [tuple(o) for o in payload["outcomes"]] == list(expect["outcomes"])
    return True


def _spec_I(spec):
    if spec[0] == "periodic":
        return {"preperiod": spec[1], "period": spec[2]}
    if spec[0] == "powers":
        return {"prefix": spec[1], "powers": {"c": spec[2], "q": spec[3]}}
    return {"blocks": {"c": spec[1], "d": spec[2], "q": spec[3]}}


def gen_cli(rng, counts, m):
    """Job steps plus the spec files they read, as {file name: object}."""
    files = {}
    gauges = {"h_half.json": {"symbolic": {"s": "1/2", "t": "0"}},
              "h_twothirds.json": {"symbolic": {"s": "2/3", "t": "0"}},
              "h_one.json": {"symbolic": {"s": "1", "t": "0"}},
              "h_harmonic.json": {"table": [f"1/{n + 1}" for n in range(97)]}}
    files.update(gauges)
    d = Design("cli")
    out = {k: [] for k in CLI_WEIGHTS}

    def add(name, obj):
        files[name] = obj
        return "@" + name

    for i, hi in enumerate(d.spread(counts["dim"], 32, 128)):
        spec = rand_ispec(rng)
        if i % 3 == 2:
            a, b = spec, rand_ispec(rng)
            hi //= 2
            f = add(f"dim{i}.json", {"kind": "product", "a": {"kind": "ci", "I": _spec_I(a)},
                                     "b": {"kind": "ci", "I": _spec_I(b)}})
            na, nb = ci_counts(a, hi), ci_counts(b, hi)
            counts_ = tuple(na[n] * nb[n] for n in range(1, hi + 1))
        else:
            f = add(f"dim{i}.json", {"kind": "ci", "I": _spec_I(spec)})
            counts_ = tuple(ci_counts(spec, hi)[1:])
        out["dim"].append(((("dim", f, "--range", f"1:{hi}"),), {"rc": (0,), "counts": counts_}))
    n = counts["dim_hfn"]
    for i, (hi, g) in enumerate(zip(d.spread(n, 24, 96), d.pick(n, sorted(gauges)))):
        bounds, fams = rand_blocks(rng)
        f = add(f"dimh{i}.json", {"kind": "block_constraint", "boundaries": list(bounds),
                                  "blocks": [None if x is None else list(x) for x in fams]})
        g = "@" + g
        counts_ = tuple(block_count(bounds, fams, n) for n in range(1, hi + 1))
        out["dim_hfn"].append(((("dim", f, "--range", f"1:{hi}", "--hfn", g),),
                               {"rc": (0,), "counts": counts_}))
    n = counts["measure"]
    for i, (depth, g, scale) in enumerate(zip(d.spread(n, 12, 32), d.pick(n, sorted(gauges)),
                                              d.spread(n, 0, 12))):
        spec = rand_ispec(rng)
        f = add(f"meas{i}.json", {"kind": "ci", "I": _spec_I(spec)})
        g = "@" + g
        out["measure"].append(((("measure", f, g, "--scale", str(scale), "--depth", str(depth)),),
                               {"rc": (0,), "bracket": True}))
    builtin = ("EC3", "chain-ci", "chain-fullcube", "howroyd-i")
    for i in range(counts["verify_builtin"]):
        name = builtin[i % len(builtin)]
        depth = rng.randint(8, 16)
        out["verify_builtin"].append(((("verify", name, "--depth", str(depth), "--scale", "2"),),
                                      {"rc": (0,), "status": "pass"}))
    for i in range(counts["verify_file"]):
        choice = i % 3
        if choice == 0:
            spec = rand_ispec(rng, ("periodic",))
            obj = {"check": "chain", "set": {"kind": "ci", "I": _spec_I(spec)},
                   "hfn": gauges[rng.choice(sorted(gauges))]}
            expect = {"rc": (0,), "status": "pass"}
        elif choice == 1:
            p = gen_gamma_instance(rng, rng.randint(64, 512), rng.choice((None, 0, 1, -1)))
            cover = [{"cyl": w, "group": j} for j, grp in enumerate(gamma_groups(p))
                     for w in grp]
            obj = {"check": "cover-gamma",
                   "set": {"kind": "block_constraint", "boundaries": list(p[0]),
                           "blocks": [list(x) for x in p[1]]},
                   "cover": cover}
            status = gamma_expect(len(p[2]), p[3])[0]
            expect = {"rc": (0 if status == "holds" else 1,)}
        else:
            f, g, fams, gfams = gen_einc(rng)
            obj = {"check": "einc", "f": list(f), "g": list(g),
                   "F": [list(x) for x in fams], "G": [list(x) for x in gfams]}
            fails = m.oracles.einc_failures_by_words(
                f, g, [set(x) for x in fams], [set(x) for x in gfams], len(gfams))
            n0 = max((n + 1 for n, _ in fails), default=0)
            expect = {"rc": (0 if n0 < len(gfams) else 1,)}
        f = add(f"ver{i}.json", obj)
        out["verify_file"].append(((("verify", f),), expect))
    n = counts["cover"]
    for i, (levels, per) in enumerate(zip(d.spread(n, 3, 5), d.pick(n, BUILD_PERIODS))):
        f = add(f"cov{i}.json", {"kind": "ci", "I": {"preperiod": "", "period": per}})
        out_name = f"@cover-out{i}.json"
        steps = (("cover", "build", "--set", f, "--hfn", "@h_one.json", "--levels", str(levels),
                  "--depth", "16", "--cover-out", out_name),
                 ("cover", "verify", "--set", f, "--cover", out_name, "--depth", "16"))
        out["cover"].append((steps, {"rc": (0, 0), "status": "pass"}))
    for i, k in enumerate(d.spread(counts["witness_compile"], 4, 10)):
        action = ("compile-me", "compile-nadd", "compile-tprime")[i % 3]
        g = "@" + rng.choice(("h_half.json", "h_twothirds.json", "h_one.json"))
        kk = k if action == "compile-me" else min(k, 6)
        out["witness_compile"].append(((("witness", action, "--hfn", g, "--k", str(kk)),),
                                       {"rc": (0,), "status": "pass"}))
    for i in range(counts["witness_check"]):
        f, fams = gen_shelahN(rng, rng.randint(4, 8))
        x = rand_word(rng, f[-1])
        outcomes = tuple((k, x[f[k]:f[k + 1]] in fams[k]) for k in range(len(fams)))
        ok = bool(outcomes) and outcomes[-1][1]
        w = add(f"wit{i}.json", {"kind": "shelahn", "f": list(f), "H": [list(h) for h in fams]})
        out["witness_check"].append(((("witness", "check", "--witness", w, "--x", x,
                                       "--range", f"0:{len(fams) - 1}"),),
                                     {"rc": (0 if ok else 1,), "outcomes": outcomes}))
    return out, files


# ---------------------------------------------------------------------------
# Workload table

POWER_GAUGES = ("r1/4", "r1/3", "r1/2", "r2/3", "r3/4")
SCALES_GAUGES = POWER_GAUGES + ("r1/2log",)
SPARSE_GAUGES = ("r1/2", "r2/3", "r3/4")
# zero-index densities at most 1/2, so r^1 makes the sets null and the
# cover builder finds cheap levels within scale 16
BUILD_PERIODS = ("10", "110", "1110", "101", "1101", "011")
# the covers workload adds density 2/3 ("100"), whose levels need deeper
# argmin covers: 4 ms at 4 levels up to 50 ms at 6
COVER_PERIODS = ("10", "100", "100", "1001")

CLI_WEIGHTS = {"dim": 3, "dim_hfn": 2, "measure": 3, "verify_builtin": 2,
               "verify_file": 2, "cover": 2, "witness_compile": 2,
               "witness_check": 2}


class Workload(NamedTuple):
    """One job mix; why each exists is recorded in BENCHMARK.json."""

    weights: dict          # job kind -> share of the job list
    length: int            # jobs in one pass, sized so a pass takes about 10 s
    traced: int            # leading jobs run by the traced pass (every kind)
    gauges: tuple          # gauge keys built at set-up and reused by jobs
    generate: object


def gen_engine(rng, counts, m):
    out = {}
    for gen in (gen_scales, gen_certify, gen_covers):
        out.update(gen(rng, counts, m)[0])
    return out, {}


# The engine mix joins the counting (scales), certificate (certify) and
# cover (covers) job kinds.  Kinds cheaper than verify_gamma make up 40% of
# the jobs and verify_gamma (continuous sizes, 25-45 ms) the next 23%, so
# p50 falls inside that band rather than on a gap between kinds; the heavy
# kinds (box dimensions to n = 400, 3000-word DPs, 4k-8k-cylinder lambda
# covers) make up the top 17%, p90 included.
ENGINE_WEIGHTS = {
    # cheap: under 10 ms
    "small_oracle": 1, "product_dp": 1, "einc": 1, "tprime_box": 1, "build_gamma": 1,
    "me_cover": 1, "nadd_box": 1, "dpnull_merge": 1, "ci_exact": 1, "union_dp": 2,
    # 25-45 ms
    "verify_gamma": 8,
    # 10-100 ms
    "content_seq": 3, "dbox": 3, "product_dims": 2, "sparse_sweep": 2,
    # heavy: 60-600 ms
    "ci_dims": 1, "block_dims": 1, "sumset_dims": 1, "explicit_dp": 2, "verify_lambda": 1,
}

WORKLOADS = {
    "engine": Workload(ENGINE_WEIGHTS, 200, 48,
                       SCALES_GAUGES + ("r1", "harmonic", "harmonic9"),
                       gen_engine),
    "cli": Workload(CLI_WEIGHTS, 500, 36, (), gen_cli),
}


def build_gauges(m, keys):
    hf = m.hfun
    out = {}
    for key in keys:
        if key == "harmonic":
            out[key] = hf.table_hfn([Fraction(1, n + 1) for n in range(97)])
        elif key == "harmonic9":
            out[key] = hf.table_hfn([Fraction(1, n + 1) for n in range(9)])
        elif key.endswith("log"):
            out[key] = hf.power_log_hfn(Fraction(key[1:-3]), 1)
        else:
            out[key] = hf.power_hfn(Fraction(key[1:]))
    return out


def job_list(name: str, rng, m) -> tuple[list, dict]:
    """The seeded jobs of a workload and the spec files they read."""
    wl = WORKLOADS[name]
    order = interleave_kinds(wl.weights, wl.length)
    counts = {k: order.count(k) for k in wl.weights}
    made, files = wl.generate(rng, counts, m)
    cursor = {k: 0 for k in wl.weights}
    jobs = []
    for jid, k in enumerate(order):
        jobs.append(Job(jid, k, made[k][cursor[k]]))
        cursor[k] += 1
    return jobs, files


# kind -> (prepare or None, run, check).  `prepare` turns params into bulky
# inputs (cover word lists) once per job, before the job is timed; runners
# and checks find them in ctx.inputs.
KINDS = {
    "ci_dims": (None, run_ci_dims, check_ci_dims),
    "block_dims": (None, run_block_dims, check_block_dims),
    "product_dims": (None, run_product_dims, check_product_dims),
    "sumset_dims": (None, run_sumset_dims, check_sumset_dims),
    "content_seq": (None, run_content_seq, check_content_seq),
    "dbox": (None, run_dbox, check_dbox),
    "sparse_sweep": (None, run_sparse_sweep, check_sparse_sweep),
    "explicit_dp": (None, run_explicit_dp, check_explicit_dp),
    "small_oracle": (None, run_small_oracle, check_small_oracle),
    "ci_exact": (None, run_ci_exact, check_ci_exact),
    "union_dp": (None, run_union_dp, check_union_dp),
    "product_dp": (None, run_product_dp, check_product_dp),
    "verify_lambda": (lambda_cover, run_verify_lambda, check_verify_lambda),
    "verify_gamma": (gamma_groups, run_verify_gamma, check_verify_gamma),
    "build_gamma": (None, run_build_gamma, check_build_gamma),
    "dpnull_merge": (None, run_dpnull_merge, check_dpnull_merge),
    "nadd_box": (None, run_nadd_box, check_nadd_box),
    "tprime_box": (None, run_tprime_box, check_tprime_box),
    "me_cover": (None, run_me_cover, check_me_cover),
    "einc": (None, run_einc, check_einc),
}
KINDS.update({k: (None, run_cli, check_cli) for k in CLI_WEIGHTS})
