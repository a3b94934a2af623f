"""Property tests: the engine against the independent oracles, the spec
writers against their readers and the CLI's exit codes against mutated
input, on generated instances (drawn deterministically; see conftest.py).

The seeded battery in test_covers.py fixes the depth at 7 and draws each
group from one depth of five fixed sets; here the sets, the depth (0
included) and the word lengths inside a group are all generated, and
failures shrink to a minimal instance."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (GaugeStoreByFractions, ank_by_filter, block_level_trace,
                     children_by_step, ci_trace, code_word,
                     compose_by_fractions, cover_walk_charge,
                     covering_groups_by_words, covering_groups_sets,
                     diagonal_dominate_by_fractions, driven_by_step, dp_walk,
                     gauge_table, gauge_table_error, grid_inverse_by_fractions,
                     interned_trie, ispec_members, lipschitz_by_cases,
                     mass_sweep, me_cover_by_spans, min_cylinder_cover_cost,
                     multiply_by_fractions, point_prefix_by_bits,
                     reindex_by_fractions, scaled_by_fractions,
                     shelahM_by_scan, sparse_greedy, xtilde_blocks_by_filter)

from cantordim.cli import main
from cantordim.covers import CHUNK_BITS, Cover, _covered_groups, verify_lambda
from cantordim.errors import (BuildError, CantorDimError, DepthExceededError,
                              ResourceLimitError, SpecFormatError)
from cantordim import measures
from cantordim.hfun import (DyadicHFn, compose, diagonal_dominate, grid_inverse,
                            multiply, power_hfn, power_log_hfn, table_hfn)
from cantordim.ideals import (BlockFamily, BlockPartition, EventualPoint,
                              ShelahMWitness, ShelahNWitness, TPrimeWitness,
                              _growth, ank_test, me_cover, me_fbuilder,
                              nadd_box_check, shelahM_check, shelahN_filtration,
                              tprime_lbox_check, tprime_level_sets,
                              xtilde_level_set)
from cantordim.measures import (BlockCode, CIProductMass, TableMass,
                                UniformMass, _argmin_words, _dp_bounds,
                                _structural_mass_lower, extract_optimal_cover,
                                hausdorff_measure_delta, lipschitz_image_check,
                                mass_lower_certificate, sparse_I_builder)
from cantordim.specio import (canonical_json, cover_to_obj, parse_cover,
                              parse_set, parse_witness, set_to_dict,
                              witness_to_dict)
from cantordim.treeset import (END, BlockConstraintSet, Budget, CISet,
                               CylinderUnionSet, ExplicitSet, FullCube,
                               ProductSet)
from cantordim.words import ISpec, all_words, periodic_ispec

bits = st.text("01", max_size=4)


@st.composite
def explicit_sets(draw):
    width = draw(st.integers(1, 5))
    words = draw(st.lists(st.text("01", min_size=width, max_size=width),
                          min_size=1, max_size=6))
    return ExplicitSet(words, tail=draw(st.sampled_from(("zeros", "free"))))


ci_sets = st.builds(lambda pre, period: CISet(periodic_ispec(pre, period)),
                    bits, bits.filter(lambda p: "1" in p))
plain_sets = st.one_of(explicit_sets(), ci_sets)
tree_sets = st.one_of(plain_sets, st.builds(ProductSet, plain_sets, plain_sets))

# past the cover sweep's chunk width, so that its levels below, at and
# above that width are all checked
DEEP = CHUNK_BITS + 6


@st.composite
def thin_sets(draw):
    """An explicit set with the zeros tail, of width up to DEEP: its trace
    holds at most six words at every depth."""
    width = draw(st.integers(1, DEEP))
    words = draw(st.lists(st.text("01", min_size=width, max_size=width),
                          min_size=1, max_size=6))
    return ExplicitSet(words, tail="zeros")


deep_sets = st.one_of(thin_sets(), st.builds(ProductSet, thin_sets(), thin_sets()))


@st.composite
def cover_instances(draw):
    """A set, a depth n and groups of words: trace prefixes at any depth,
    with duplicates, the empty word, stray words and words longer than n.
    Sets with small traces at every depth go as deep as DEEP; CI sets and
    free tails, whose traces grow with n, stay at n <= 6."""
    if draw(st.booleans()):
        e, n = draw(deep_sets), draw(st.sampled_from(range(DEEP // 2, DEEP + 1)))
    else:
        e, n = draw(tree_sets), draw(st.integers(0, 6))
    trace = e.trace(n)
    prefix = st.builds(lambda t, d: t[:d], st.sampled_from(trace),
                       st.sampled_from(range(n, -1, -1)))
    word = st.one_of(prefix, st.just(""), st.text("01", max_size=n + 2))
    groups = draw(st.lists(st.lists(word, max_size=8), max_size=5))
    return e, n, trace, groups


@given(cover_instances())
def test_covered_groups_match_the_word_oracle(instance):
    e, n, trace, groups = instance
    budget = Budget()
    got = _covered_groups(e, groups, n, budget)
    assert got == covering_groups_by_words(trace, groups, n)
    charge = cover_walk_charge(trace, groups, n)
    assert budget.used == charge if got else budget.used <= charge


@given(cover_instances(), st.integers(-1, 6))
def test_lambda_tails_match_the_word_oracle(instance, horizon):
    e, n, trace, groups = instance
    elements = tuple(w for g in groups for w in g)
    tail_groups = [elements[j:] for j in range(horizon + 1)]
    tails = covering_groups_by_words(trace, tail_groups, n)
    fail = next((j for j in range(horizon + 1) if not tails >> j & 1), None)
    budget = Budget()
    v = verify_lambda(e, Cover(elements), horizon, n, budget)
    assert v.failure_index == fail and v.holds == (fail is None)
    charge = cover_walk_charge(trace, tail_groups, n)
    assert budget.used == charge if tails else budget.used <= charge


@given(cover_instances(), st.integers(-1, 6))
def test_cover_sweep_equals_the_set_sweep(instance, horizon):
    # masks and charges equal the set sweep's, also where no group covers,
    # where the word oracles above only bound the charge
    e, n, _, groups = instance
    got, want = Budget(), Budget()
    assert _covered_groups(e, groups, n, got) == \
        covering_groups_sets(e, [(1 << j, g) for j, g in enumerate(groups)], n, want)
    assert got.used == want.used
    # verify_lambda's tags: element i lies in every tail j <= i, and past
    # the horizon in every tail
    elements = tuple(w for g in groups for w in g)
    cut = max(horizon, 0)
    runs = [((2 << i) - 1, (w,)) for i, w in enumerate(elements[:cut])]
    runs.append(((1 << max(horizon + 1, 0)) - 1, elements[cut:]))
    got, want = Budget(), Budget()
    tails = covering_groups_sets(e, runs, n, want)
    fail = next((j for j in range(horizon + 1) if not tails >> j & 1), None)
    assert verify_lambda(e, Cover(elements), horizon, n, got).failure_index == fail
    assert got.used == want.used


GAUGES = (power_hfn(Fraction(1, 2)), power_hfn(1),
          table_hfn([Fraction(1, n + 1) for n in range(16)]))


@given(st.integers(1, 40), st.integers(1, 12), st.integers(-2, 2),
       st.integers(1, 160), st.integers(0, 200))
def test_gauge_tables_match_the_per_sample_oracle(a, b, t, prec, n_max):
    s = Fraction(a, b)
    h = power_log_hfn(s, t, n_max, prec)
    lo, hi = gauge_table(s, t, 2 * n_max, prec)
    assert h.lo == tuple(lo[:n_max + 1]) and h.hi == tuple(hi[:n_max + 1])
    # samples past the table are the oracle's, a log gauge's still clamped
    deep = range(n_max + 1, 2 * n_max + 1)
    assert [h.value(n) for n in deep] == [(lo[n], hi[n]) for n in deep]




@st.composite
def gauges(draw):
    """A symbolic power or power-log gauge with a short or long table, or a
    table gauge: the fixed battery or a drawn nonincreasing table."""
    kind = draw(st.sampled_from(("symbolic", "battery", "table")))
    if kind == "symbolic":
        s = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))
        return power_log_hfn(s, draw(st.integers(-2, 2)), draw(st.integers(0, 24)),
                             draw(st.integers(1, 160)))
    if kind == "battery":
        return draw(st.sampled_from(GAUGES + SPARSE_TABLES))
    steps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=24))
    return table_hfn(Fraction(1, d) for d in accumulate(steps))


@given(gauges(), st.lists(st.integers(0, 48), min_size=1, max_size=3))
def test_numerators_are_the_gauge_samples(h, ns):
    # the view grows on demand: each request reads samples 0..n off one
    # common denominator, whatever was asked before
    for n in ns:
        if n > h.n_max and h.symbolic is None:
            with pytest.raises(DepthExceededError):
                h.numerators(n)
            continue
        den, lo, hi = h.numerators(n)
        assert len(lo) == len(hi) > n
        assert all((Fraction(lo[k], den), Fraction(hi[k], den)) == h.value(k)
                   for k in range(n + 1))



SPARSE_TABLES = (table_hfn([Fraction(1, n + 1) for n in range(97)]),
                 table_hfn([Fraction(1, 1 << n // 2) for n in range(101)]))


@st.composite
def sparse_gauges(draw):
    """A gauge strictly above r: a symbolic power r^(a/b), r^(a/b) log(1/r)^t
    or a table."""
    kind = draw(st.sampled_from(("power", "log", "table")))
    if kind == "table":
        return draw(st.sampled_from(SPARSE_TABLES))
    b = draw(st.integers(2, 40))
    s = Fraction(draw(st.integers(1, b - 1)), b)
    return power_log_hfn(s, 0 if kind == "power" else draw(st.sampled_from((-1, 1, 2))))


@given(sparse_gauges(), st.integers(0, 100))
def test_sparse_index_sets_match_the_greedy_oracle(h, depth):
    def outcome(build):
        try:
            return build(h, depth)
        except CantorDimError as exc:  # a refusal must match too
            return type(exc), str(exc)

    assert outcome(sparse_I_builder) == outcome(sparse_greedy)


samples = st.builds(Fraction, st.integers(-1, 6), st.just(4))


@given(st.lists(st.tuples(samples, samples), max_size=5), st.booleans())
def test_gauge_tables_are_refused_as_the_oracle_says(pairs, aligned):
    lo, hi = [p[0] for p in pairs], [p[1] for p in pairs]
    if not aligned:
        hi = hi[1:]
    try:
        DyadicHFn(lo, hi)
    except SpecFormatError as exc:
        assert str(exc) == gauge_table_error(lo, hi)
    else:
        assert gauge_table_error(lo, hi) is None


@st.composite
def stored_gauges(draw):
    """(gauge, its Fraction-built oracle): a power r^(a/b) with b <= 40 at
    precision 3..128, a power-log gauge with t in {-2, -1, 1, 2}, or a table,
    exact or an interval, over drawn denominators."""
    kind = draw(st.sampled_from(("power", "log", "table")))
    if kind == "table":
        lo = sorted(draw(st.lists(st.builds(Fraction, st.integers(1, 9),
                                            st.integers(1, 64)),
                                  min_size=1, max_size=20)), reverse=True)
        hi = lo if draw(st.booleans()) else [v * Fraction(9, 8) for v in lo]
        return DyadicHFn(lo, hi), GaugeStoreByFractions(lo=lo, hi=hi)
    s = Fraction(draw(st.integers(1, 80)), draw(st.integers(1, 40)))
    t = 0 if kind == "power" else draw(st.sampled_from((-2, -1, 1, 2)))
    prec, n_max = draw(st.integers(3, 128)), draw(st.integers(0, 40))
    return (power_log_hfn(s, t, n_max, prec),
            GaugeStoreByFractions(s, t, prec, n_max))


def _read(h, method, n):
    try:
        return getattr(h, method)(n)
    except DepthExceededError as exc:
        return str(exc)


@given(stored_gauges(), st.data())
def test_gauge_store_equals_the_fraction_built_store(gauges, data):
    # reads one index at a time, jumps past n_max and reads past the store,
    # in a drawn order, so that every rescaling path runs
    h, oracle = gauges
    for _ in range(data.draw(st.integers(1, 8))):
        have = len(oracle.store[1])
        n = data.draw(st.one_of(st.just(have), st.integers(0, h.n_max + 2),
                                st.integers(h.n_max, h.n_max + 80),
                                st.integers(have, have + 40)))
        method = data.draw(st.sampled_from(("numerators", "value", "lo_at", "hi_at")))
        got, want = _read(h, method, n), _read(oracle, method, n)
        assert got == want and type(got) is type(want)
        if method != "numerators" and not isinstance(want, str):
            assert all(type(v) is Fraction for v in (got if method == "value" else [got]))
        assert h._store == oracle.store


@st.composite
def operand_gauges(draw):
    """An operand of a derived gauge: a drawn power, power-log gauge or
    table, exact or an interval, or a strictly decreasing table, so that
    grid inverses are made as well as refused."""
    if draw(st.booleans()):
        return draw(stored_gauges())[0]
    steps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=20))
    lo = [Fraction(1, d) for d in accumulate(steps)]
    widen = draw(st.sampled_from((1, Fraction(9, 8))))
    return DyadicHFn(lo, [v * widen for v in lo])


# kind -> (engine, reference, how many operands it takes)
DERIVED = {
    "multiply": (multiply, multiply_by_fractions, (2, 2)),
    "compose": (compose, compose_by_fractions, (2, 2)),
    "diagonal_dominate": (lambda *hs: diagonal_dominate(hs),
                          lambda *hs: diagonal_dominate_by_fractions(hs), (1, 3)),
    "grid_inverse": (grid_inverse, grid_inverse_by_fractions, (1, 1)),
    "scaled": (lambda h: h.scaled(Fraction(3, 7)),
               lambda h: scaled_by_fractions(h, Fraction(3, 7)), (1, 1)),
}


def _made(build, operands):
    try:
        return build(*operands)
    except (BuildError, DepthExceededError, ValueError) as exc:
        return type(exc)


@given(st.sampled_from(sorted(DERIVED)), st.data())
def test_derived_gauges_equal_the_fraction_built_tables(kind, data):
    # a derived gauge is refused where the eager table was, and otherwise
    # gives the table's reads in a drawn order, past n_max included, and
    # its whole store once read to n_max
    build, reference, arity = DERIVED[kind]
    operands = [data.draw(operand_gauges())
                for _ in range(data.draw(st.integers(*arity)))]
    got, want = _made(build, operands), _made(reference, operands)
    if isinstance(want, type):
        assert got is want
        return
    assert (got.name, got.n_max, got.precision, got.symbolic) == \
        (want.name, want.n_max, want.precision, want.symbolic)
    for n in data.draw(st.lists(st.integers(0, want.n_max + 2), max_size=8)):
        assert _read(got, "value", n) == _read(want, "value", n)
    got.numerators(want.n_max)
    want.numerators(want.n_max)
    assert got._store == want._store
    assert got.is_vanishing == want.is_vanishing


@st.composite
def extraction_instances(draw):
    """A set, a gauge, a cover scale m and a depth >= m reaching every word."""
    e = draw(st.one_of(explicit_sets(), st.builds(
        CylinderUnionSet, st.lists(bits, min_size=1, max_size=6))))
    depth = draw(st.integers(max(map(len, e.words)), 6))
    return e, draw(st.sampled_from(GAUGES)), draw(st.integers(0, depth)), depth


@given(extraction_instances())
def test_extracted_cover_is_an_optimal_antichain(instance):
    e, h, m, depth = instance
    dp_budget, budget = Budget(), Budget()
    bound = hausdorff_measure_delta(parse_set(set_to_dict(e)), h, m, depth, dp_budget)
    words, cost = extract_optimal_cover(e, h, m, depth, budget)
    # on a fresh set, extraction charges what the DP charges plus one node
    # per child piece it splits into
    assert budget.used == dp_budget.used + 2 * (len(words) - 1)
    assert not any(v.startswith(w) for w in words for v in words if v != w)
    assert len(set(words)) == len(words)
    trace = e.trace(depth)
    assert all(any(t.startswith(w) for w in words) for t in trace)
    assert all(len(w) >= m for w in words)
    assert sum(h.hi_at(len(w)) for w in words) == cost == bound.upper
    assert cost == min_cylinder_cover_cost(trace, h.hi_at, m, depth)


@st.composite
def block_witnesses(draw):
    """A ShelahN witness (a family on every block) or a T' witness (families
    on a drawn index set, gaps included) on blocks of width 1 or 2, with the
    families by block index."""
    widths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))
    f = BlockPartition(tuple(accumulate(widths, initial=0)))

    def family(n, limit):
        words = all_words(widths[n])
        return tuple(draw(st.lists(st.sampled_from(words), min_size=1,
                                   max_size=min(limit, len(words)), unique=True)))

    if draw(st.booleans()):
        fams = {n: family(n, n or 4) for n in range(len(widths))}
        return ShelahNWitness(f, tuple(fams.values())), fams
    index = sorted(draw(st.sets(st.sampled_from(range(len(widths))), min_size=1)))
    fams = {n: family(n, 2) for n in index}
    return TPrimeWitness(f, (2,) * len(widths), tuple(index), fams), fams


@given(block_witnesses())
def test_block_levels_and_box_rows_match_the_word_oracle(instance):
    w, fams = instance
    table, r1 = w.f.table, power_hfn(1)
    shelah = isinstance(w, ShelahNWitness)
    levels = (shelahN_filtration(w) if shelah else tprime_level_sets(w)).sets
    assert len(levels) == max(fams) + 1
    for k, level in enumerate(levels):
        for n in range(table[-1] + 1):
            assert level.trace(n) == block_level_trace(table, fams, k, n)
    if shelah:
        report = nadd_box_check(w, lambda i: 1 << max(0, i - 1), r1, table[-1])
        want = [(k, i) for k in range(len(levels))
                for i in range(table[k + 1], table[-1] + 1)]
    else:
        report = tprime_lbox_check(w, lambda i: 1 << i, r1)
        want = [(k, table[n + 1]) for k in range(len(levels)) for n in fams if n >= k]
    assert [(row.level, row.scale) for row in report.rows] == want
    for row in report.rows:
        assert row.count == len(block_level_trace(table, fams, row.level, row.scale))
        sample = r1.hi_at(row.scale - 1 if shelah else row.scale)
        assert row.content == row.count * sample


@st.composite
def einc_instances(draw):
    """f on blocks of width 1 to 3, g grouping them, F on the first blocks
    of f and G on the first coarse blocks of f o g, each family drawn within
    its smallness bound (an empty one included)."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    f = BlockPartition(tuple(accumulate(widths, initial=0)))
    cuts = draw(st.lists(st.booleans(), min_size=len(widths) - 1,
                         max_size=len(widths) - 1))
    g = BlockPartition((0, *(k for k, cut in enumerate(cuts, 1) if cut), len(widths)))
    fg = f.compose(g)

    def families(part, count):
        out = []
        for n in range(count):
            width = part.block_width(n)
            limit = min(1 << width, 1 << (part(n + 1) - n), 6)
            out.append(tuple(draw(st.sets(st.text("01", min_size=width, max_size=width),
                                          max_size=limit))))
        return BlockFamily(part, tuple(out))

    fam = families(f, f.block_count - draw(st.integers(0, f.block_count)))
    gfam = families(fg, fg.block_count - draw(st.integers(0, fg.block_count - 1)))
    return f, g, fam, gfam


@given(einc_instances(), st.data())
def test_block_tests_match_the_filter_oracle(instance, data):
    f, g, fam, gfam = instance
    n0 = data.draw(st.integers(0, gfam.count - 1))
    try:
        want = xtilde_blocks_by_filter(f, g, fam, gfam, n0)
    except BuildError:
        with pytest.raises(BuildError):
            xtilde_level_set(f, g, fam, gfam, n0)
    else:
        got = xtilde_level_set(f, g, fam, gfam, n0)
        if want is None:
            assert isinstance(got, FullCube)
        else:
            assert (got.boundaries, got.blocks) == want
    x = data.draw(st.text("01", min_size=f.table[-1], max_size=f.table[-1]))
    for n in range(gfam.count):
        for k in range(g(n), min(g(n + 1), fam.count)):
            assert ank_test(x, n, k, f, g, fam, gfam) == \
                ank_by_filter(x, n, k, f, g, fam, gfam)


@st.composite
def ispec_tails(draw):
    """A prefix, which may end before, inside or past the tail's first
    runs, and one of the three tail rules."""
    prefix = draw(st.text("01", max_size=60))
    kind = draw(st.sampled_from(("periodic", "powers", "blocks")))
    if kind == "periodic":
        return prefix, (kind, draw(st.text("01", min_size=1, max_size=6).filter(
            lambda w: "1" in w)))
    c, q = draw(st.integers(1, 30)), draw(st.integers(2, 5))
    if kind == "powers":
        return prefix, (kind, c, q)
    return prefix, (kind, c, draw(st.integers(c + 1, c * q)), q)


@given(ispec_tails(), st.integers(0, 300))
def test_ispec_counts_match_the_member_oracle(spec, n):
    prefix, tail = spec
    ispec = ISpec(prefix, tail)
    members = ispec_members(prefix, tail, n)
    assert {m for m in range(n) if ispec.contains(m)} == members
    assert [ispec.count_below(m) for m in range(n + 1)] == \
        list(accumulate((m in members for m in range(n)), initial=0))


# ---------------------------------------------------------------------------
# Serialized objects round-trip: set_to_dict / witness_to_dict write what
# parse_set / parse_witness read back as the same object


def words_of(width):
    return st.text("01", min_size=width, max_size=width)


@given(ispec_tails(), st.lists(st.integers(0, 300), min_size=1, max_size=6),
       st.integers(0, 10))
def test_ci_traces_match_the_member_oracle(spec, depths, n):
    prefix, tail = spec
    members = ispec_members(prefix, tail, 301)
    # a cold set first read at drawn depths, in a drawn order
    e = CISet(ISpec(prefix, tail))
    for d in depths:
        assert [b for b, _ in e.children((), d)] == ([0] if d in members else [0, 1])
    assert e.trace_counts(300) == [1 << (d - len(members & set(range(d))))
                                   for d in range(301)]
    assert e.trace(n) == ci_trace(members.__contains__, n)
    for d in depths:
        assert e.ispec.members_below(d) == "".join(
            "1" if m in members else "0" for m in range(d))


@st.composite
def ispec_specs(draw):
    prefix = draw(bits)
    rule = draw(st.sampled_from(("periodic", "powers", "blocks")))
    if rule == "periodic":
        return {"preperiod": prefix, "period": draw(bits.filter(lambda p: "1" in p))}
    c, q = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    if rule == "powers":
        return {"prefix": prefix, "powers": {"c": c, "q": q}}
    d = draw(st.integers(c + 1, c * q))
    return {"prefix": prefix, "blocks": {"c": c, "d": d, "q": q}}


@st.composite
def block_constraint_specs(draw):
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return {"kind": "block_constraint",
            "boundaries": list(accumulate(widths, initial=draw(st.integers(0, 2)))),
            "blocks": [draw(st.none() | st.lists(words_of(w), min_size=1, max_size=3))
                       for w in widths]}


@st.composite
def explicit_specs(draw):
    width = draw(st.integers(0, 4))
    return {"kind": "explicit", "tail": draw(st.sampled_from(("zeros", "free"))),
            "words": draw(st.lists(words_of(width), min_size=1, max_size=4))}


leaf_specs = st.one_of(
    st.just({"kind": "full_cube"}),
    st.builds(lambda i: {"kind": "ci", "I": i}, ispec_specs()),
    block_constraint_specs(),
    explicit_specs(),
    st.builds(lambda c: {"kind": "cylinder_union", "cylinders": c},
              st.lists(bits, min_size=1, max_size=4)))


def combined(kids):
    """Sumsets and unions of specs that share one scale convention."""
    return st.one_of(
        st.builds(lambda a, b: {"kind": "sumset", "a": a, "b": b}, kids, kids),
        st.builds(lambda m: {"kind": "union", "members": m},
                  st.lists(kids, min_size=1, max_size=3)))


plain_specs = st.recursive(leaf_specs, combined, max_leaves=4)
product_specs = st.builds(lambda a, b: {"kind": "product", "a": a, "b": b},
                          plain_specs, plain_specs)
set_specs = st.one_of(plain_specs, st.recursive(product_specs, combined, max_leaves=3))


@given(set_specs, st.integers(0, 8), st.sampled_from(GAUGES), st.data())
def test_dp_charges_what_trace_counts_charges(spec, depth, h, data):
    # the DP looks up each reachable (state, d) with d < depth once, the
    # distinct states per depth that trace_counts(depth) expands; extraction
    # adds one node per child piece it splits into
    counted, dp, extracted = Budget(), Budget(), Budget()
    parse_set(spec).trace_counts(depth, counted)
    e = parse_set(spec)
    m = data.draw(st.integers(0, e.scale_of_depth(depth)))
    hausdorff_measure_delta(e, h, m, depth, dp)
    words, _ = extract_optimal_cover(parse_set(spec), h, m, depth, extracted)
    assert dp.used == counted.used
    assert extracted.used == dp.used + 2 * (len(words) - 1)


@given(set_specs, st.integers(0, 8), st.sampled_from(GAUGES), st.data())
def test_dp_sweeps_equal_the_walk_oracle(spec, depth, h, data):
    # every memo entry (bounds, chain end, chain bits, kids) and the charge
    # equal those of the post-order walk, each on a fresh set
    e = parse_set(spec)
    m = data.draw(st.integers(0, e.scale_of_depth(depth)))
    swept, walked = Budget(), Budget()
    assert _dp_bounds(e, h, m, depth, swept) == \
        dp_walk(parse_set(spec), h, m, depth, walked)
    assert swept.used == walked.used


@st.composite
def fresh_gauges(draw):
    """A gauge whose store starts empty: a symbolic power or power-log gauge,
    made here, or a table gauge."""
    kind = draw(st.sampled_from(("power", "log", "table")))
    s = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    if kind == "power":
        return power_hfn(s)
    if kind == "log":
        return power_log_hfn(s, draw(st.sampled_from((-1, 1, 2))))
    return table_hfn([Fraction(1, n + 1) for n in range(17)])


@given(set_specs, st.integers(0, 8), fresh_gauges(), st.data())
def test_dp_scale_sequences_equal_the_walk_oracle(spec, depth, h, data):
    # one set priced at a drawn sequence of scales, repeats included, with
    # the gauge's store grown (and perhaps rescaled) between calls: every
    # memo, bracket, cover, cost and charge equals the post-order walk's on
    # a fresh copy of the set
    e = parse_set(spec)
    scales = st.integers(0, e.scale_of_depth(depth))
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(("memo", "bracket", "cover", "grow")))
        if op == "grow":
            if h.symbolic is not None:
                h.numerators(data.draw(st.integers(0, 600)))
            continue
        m = data.draw(scales)
        fresh, got, walked = parse_set(spec), Budget(), Budget()
        memo, den = dp_walk(fresh, h, m, depth, walked)
        root = memo[fresh.root_state(), 0]
        if op == "memo":
            assert _dp_bounds(e, h, m, depth, got) == (memo, den)
        elif op == "bracket":
            bound = hausdorff_measure_delta(e, h, m, depth, got)
            lower = Fraction(root[0], den)
            cert = _structural_mass_lower(fresh, h)
            if cert is not None and cert > lower:
                lower = cert
            assert (bound.lower, bound.upper) == (lower, Fraction(root[1], den))
        else:
            words, cost = extract_optimal_cover(e, h, m, depth, got)
            assert words == _argmin_words(memo, root, walked)
            assert cost == Fraction(root[1], den)
        assert got.used == walked.used


@given(st.one_of(explicit_sets(), st.builds(
    CylinderUnionSet, st.lists(bits, min_size=1, max_size=6))), st.integers(0, 4))
def test_trie_children_are_the_stepped_children(e, beyond):
    # at every reachable (state, d), past the longest word too, so that both
    # tails are read: the set's children equal the tuple built from two
    # per-bit steps, on a fresh copy of the set, and cost one node
    fresh = parse_set(set_to_dict(e))
    frontier = {e.root_state()}
    for d in range(max(map(len, e.words)) + beyond):
        below = set()
        for state in frontier:
            got = Budget()
            kids = e.children(state, d, got)
            assert kids == children_by_step(fresh, state, d)
            assert got.used == 1
            below.update(s for _, s in kids)
        frontier = below


@st.composite
def automaton_sets(draw):
    """(make, depth): a maker of fresh copies of a set of any kind, or of
    its image under a block code (k, c), the set itself at (0, 1), and a
    depth to walk its trace to."""
    spec = draw(set_specs)
    code = BlockCode(draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    return (lambda: code.image(parse_set(spec))), draw(st.integers(0, 8))


@given(automaton_sets())
def test_children_and_steps_equal_the_per_bit_oracle(instance):
    # at every node of the trace down to the drawn depth, one copy's
    # children and another's steps under both bits, each asked cold, equal
    # the per-bit oracle's; counts and charge equal an oracle-driven copy's
    make, depth = instance
    by_children, by_step, fresh = make(), make(), make()
    frontier = {fresh.root_state()}
    for d in range(depth):
        below = set()
        for state in frontier:
            kids = children_by_step(fresh, state, d)
            assert by_children.children(state, d) == kids
            for bit in (0, 1):
                assert by_step.step(state, d, bit) == dict(kids).get(bit)
            below.update(c for _, c in kids)
        frontier = below
    got, want = Budget(), Budget()
    assert make().trace_counts(depth, got) == \
        driven_by_step(make()).trace_counts(depth, want)
    assert got.used == want.used


@given(set_specs, st.integers(0, 3), st.integers(1, 3), st.integers(0, 6))
def test_code_images_trace_the_coded_words(spec, k, c, n):
    # the image's depth-c n trace is the code of the set's depth-(k + n) trace
    image = BlockCode(k, c).image(parse_set(spec))
    words = {code_word(w, k, c) for w in parse_set(spec).trace(k + n)}
    assert image.trace(c * n) == sorted(words)


POWERS = tuple(power_hfn(s)
               for s in (1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 7)))


@given(set_specs, st.integers(0, 3), st.integers(1, 2), st.sampled_from(POWERS),
       st.data())
def test_image_check_agrees_with_the_per_code_reference(spec, k, c, h, data):
    # wherever the per-code reference answers, the engine's image bound and
    # charge equal the reference's, and so does the identity's and the
    # repeat code's transported bound; the engine passes where it passes
    code, e = BlockCode(k, c), parse_set(spec)
    m = data.draw(st.integers(k + 1 if k else 0, k + 3))
    depth = e.depth_of_scale(m) + data.draw(st.integers(0, 3))
    want = Budget()
    try:
        ref = lipschitz_by_cases(e, code.image(e), k, c, h, m, depth, want)
    except ValueError:  # a code it has no case for: the engine still passes
        assert lipschitz_image_check(parse_set(spec), code, h, m, depth).ok
        return
    got = Budget()
    rep = lipschitz_image_check(parse_set(spec), code, h, m, depth, got)
    assert rep.image_bound == ref.image_bound and got.used == want.used
    if k == 0:
        assert rep.transported_bound == ref.transported_bound
    assert rep.ok or not ref.ok


@given(set_specs, st.integers(0, 3), st.integers(1, 3), operand_gauges(),
       st.data())
def test_image_check_source_equals_the_fraction_built_table(spec, k, c, h, data):
    # the check prices its source with the table whose sample n is h's at
    # c max(0, n - k): the same bound, charge and refusal, and after the
    # check the same store
    m = data.draw(st.integers(k + 1 if k else 0, k + 3))
    depth = parse_set(spec).depth_of_scale(m) + data.draw(st.integers(0, 3))

    def priced(check):
        budget = Budget()
        try:
            return check(budget), budget.used
        except DepthExceededError as exc:
            return str(exc), budget.used

    def engine(budget):
        with mock.patch.object(measures, "hausdorff_measure_delta",
                               wraps=measures.hausdorff_measure_delta) as spy:
            rep = lipschitz_image_check(parse_set(spec), BlockCode(k, c), h, m,
                                        depth, budget)
        moved = spy.call_args_list[-1].args[1]
        return rep.transported_bound, rep.image_bound, moved.numerators(depth)

    def reference(budget):
        e = parse_set(spec)
        img = hausdorff_measure_delta(BlockCode(k, c).image(e), h, c * (m - k),
                                      c * (depth - k), budget)
        moved = reindex_by_fractions(h, k, c, depth)
        src = hausdorff_measure_delta(e, moved, m, depth, budget)
        return src.upper, img, moved.numerators(depth)

    assert priced(engine) == priced(reference)


@st.composite
def trie_specs(draw):
    """An explicit set of width 0-8 with either tail; a cylinder union of
    mixed lengths, "" and words under shorter words among them; or a
    block-constraint set with pattern families of width 1-6."""
    kind = draw(st.sampled_from(("explicit", "cylinder_union", "block_constraint")))
    if kind == "explicit":
        words = draw(st.lists(words_of(draw(st.integers(0, 8))), min_size=1, max_size=12))
        return {"kind": kind, "words": words,
                "tail": draw(st.sampled_from(("zeros", "free")))}
    if kind == "cylinder_union":
        words = draw(st.lists(st.text("01", max_size=6), min_size=1, max_size=8))
        for _ in range(draw(st.integers(0, 3))):
            words.append(draw(st.sampled_from(words)) +
                         draw(st.text("01", min_size=1, max_size=3)))
        if draw(st.booleans()):
            words.append("")
        return {"kind": kind, "cylinders": words}
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    return {"kind": kind,
            "boundaries": list(accumulate(widths, initial=draw(st.integers(0, 2)))),
            "blocks": [draw(st.none() | st.lists(words_of(w), min_size=1, max_size=12))
                       for w in widths]}


def _tries(e):
    """(trie, depth to walk it) for each trie of a trie set."""
    if isinstance(e, BlockConstraintSet):
        return [(t, e.boundaries[j + 1] - e.boundaries[j] + 2)
                for j, t in enumerate(e._tries) if t is not None]
    return [((e._root, e._rows), max(map(len, e.words)) + 2)]


def _with_oracle_tries(e):
    """The trie set e with its tries rebuilt by the bottom-up oracle."""
    if isinstance(e, BlockConstraintSet):
        e._tries = tuple(None if pats is None else interned_trie(pats, "zeros")
                         for pats in e.blocks)
    else:
        e._root, e._rows = interned_trie(e.words, e.tail)
    return e


@given(trie_specs(), st.sampled_from(GAUGES), st.data())
def test_trie_build_matches_the_bottom_up_oracle(spec, h, data):
    # walking both tries from their roots to the longest word + 2, the states
    # at each depth pair off one to one, END with END and a missing child
    # with a missing child; counts, DP roots and charges equal those of a
    # copy built from the oracle's rows
    e, copy = parse_set(spec), _with_oracle_tries(parse_set(spec))
    for ((root, rows), depth), ((oroot, orows), _) in zip(_tries(e), _tries(copy)):
        frontier = {(root, oroot)}
        for _ in range(depth + 1):
            assert len({a for a, _ in frontier}) == len(frontier)
            assert len({b for _, b in frontier}) == len(frontier)
            below = set()
            for a, b in frontier:
                assert (a == END) == (b == END)
                for c, oc in zip(rows[a], orows[b]):
                    assert (c is None) == (oc is None)
                    if c is not None:
                        below.add((c, oc))
            frontier = below
    deepest = e.boundaries[-1] if isinstance(e, BlockConstraintSet) else \
        max(map(len, e.words))
    depth = data.draw(st.integers(0, min(deepest + 2, 15)))  # the table gauge ends at 15
    got, want = Budget(), Budget()
    assert e.trace_counts(depth, got) == copy.trace_counts(depth, want)
    assert got.used == want.used
    m = data.draw(st.integers(0, depth))
    got, want = Budget(), Budget()
    root = _dp_bounds(e, h, m, depth, got)[0][e.root_state(), 0]
    oroot = _dp_bounds(copy, h, m, depth, want)[0][copy.root_state(), 0]
    assert root[:4] == oroot[:4] and (root[4] is None) == (oroot[4] is None)
    assert got.used == want.used


@st.composite
def mass_instances(draw):
    """(make, mass, depth): a maker of fresh copies of a set and a mass on
    it, the uniform mass on the full cube, a product mass on C_I, or a mass
    split evenly over a drawn set's depth-d trace words, scaled and with a
    word perhaps dropped so that additivity fails."""
    kind = draw(st.sampled_from(("uniform", "ci", "table")))
    if kind == "uniform":
        return FullCube, UniformMass(), draw(st.integers(0, 64))
    if kind == "ci":
        ispec = ISpec(*draw(ispec_tails()))
        total = draw(st.sampled_from((Fraction(1), Fraction(3, 4), Fraction(1, 4))))
        return lambda: CISet(ispec), CIProductMass(ispec, total), draw(st.integers(0, 64))
    spec, depth = draw(set_specs), draw(st.integers(0, 6))
    words = parse_set(spec).trace(depth)
    share = Fraction(draw(st.sampled_from((1, 2, 5))), len(words) << depth)
    table = {}
    for w in words:
        for k in range(depth + 1):
            table[w[:k]] = table.get(w[:k], 0) + share
    if depth and draw(st.booleans()):
        del table[draw(st.sampled_from(sorted(table)[1:]))]
    return lambda: parse_set(spec), TableMass(table), depth


@given(mass_instances(), st.sampled_from(GAUGES) | sparse_gauges(),
       st.none() | st.integers(0, 400))
def test_mass_certificate_equals_the_sweep_oracle(instance, h, limit):
    # the verdict, the failing node, the reason and the charge equal those
    # of the sweep with its own first-branch walk, each on a fresh set, also
    # where the budget runs out
    make, mass, depth = instance
    got, want = (Budget() if limit is None else Budget(limit) for _ in range(2))
    try:
        expected = mass_sweep(make(), h, mass, depth, want)
    except ResourceLimitError:
        with pytest.raises(ResourceLimitError):
            mass_lower_certificate(make(), h, mass, depth, got)
    else:
        assert mass_lower_certificate(make(), h, mass, depth, got) == expected
    assert got.used == want.used


@st.composite
def shelahM_instances(draw):
    """A witness on f-blocks of width 1 to 3 with coarse boundaries drawn
    anywhere near them, a point y with a preperiod, and x a prefix of y,
    with bits flipped or not, or random, of any length up to past f's end."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    f = BlockPartition(tuple(accumulate(widths, initial=draw(st.integers(0, 2)))))
    end = f.table[-1]
    g = BlockPartition(tuple(sorted(draw(st.sets(st.integers(0, end + 2),
                                                 min_size=2, max_size=6)))))
    y = EventualPoint(draw(bits), draw(bits.filter(bool)))
    length = draw(st.sampled_from((end, end + 2)) | st.integers(0, end))
    kind = draw(st.sampled_from(("prefix", "flipped", "random")))
    if kind == "random":
        x = draw(st.text("01", min_size=length, max_size=length))
    else:
        flips = draw(st.sets(st.integers(0, end + 1), max_size=3)) if kind == "flipped" else ()
        x = "".join("10"[int(c)] if i in flips else c
                    for i, c in enumerate(point_prefix_by_bits(y, length)))
    n_lo = draw(st.integers(0, g.block_count - 1))
    return ShelahMWitness(f, g, y), x, n_lo, draw(st.integers(n_lo - 1, g.block_count + 1))


@given(bits, bits.filter(bool), st.integers(0, 40), st.integers(0, 40))
def test_point_segments_equal_the_bitwise_prefix(pre, period, a, b):
    # any window, inside the preperiod, across it, past it, or empty
    y = EventualPoint(pre, period)
    assert y.segment(a, b) == point_prefix_by_bits(y, b)[a:b]
    assert y.prefix(b) == point_prefix_by_bits(y, b)


@given(shelahM_instances())
def test_shelahM_check_equals_the_scan_oracle(instance):
    w, x, n_lo, n_hi = instance
    for n in range(w.f.table[-1] + 3):
        assert w.y.prefix(n) == point_prefix_by_bits(w.y, n)
    try:
        want = shelahM_by_scan(w, x, n_lo, n_hi)
    except DepthExceededError:
        with pytest.raises(DepthExceededError):
            shelahM_check(w, x, n_lo, n_hi)
    else:
        got = shelahM_check(w, x, n_lo, n_hi)
        assert (got.outcomes, got.n0, got.horizon) == (*want, n_hi)


@st.composite
def me_cover_instances(draw):
    """A ShelahM witness and a k_max from 0 to past f's end, f from
    me_fbuilder or drawn widths.  The g table lies anywhere near f, or
    ends at or before the start of the last block the cover lists, or has
    unit coarse blocks, which hold no f-block start inside a wider block."""
    if draw(st.booleans()):
        f = me_fbuilder(power_hfn(draw(st.sampled_from((1, 2)))), 6)
    else:
        widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
        f = BlockPartition(tuple(accumulate(widths, initial=draw(st.integers(0, 2)))))
    k_max = draw(st.integers(0, f.block_count + 1))
    kind = draw(st.sampled_from(("near", "short", "unit")))
    if kind == "unit":
        g = range(draw(st.integers(0, 2)), f.table[-1] + draw(st.integers(1, 3)))
    else:
        last = f(max(0, min(k_max, f.block_count) - 1))
        top = max(1, last) if kind == "short" else f.table[-1] + 2
        g = sorted(draw(st.sets(st.integers(0, top), min_size=2, max_size=6)))
    y = EventualPoint(draw(bits), draw(bits.filter(bool)))
    return ShelahMWitness(f, BlockPartition(tuple(g)), y), k_max


@given(me_cover_instances())
def test_me_cover_equals_the_span_oracle(instance):
    w, k_max = instance
    cover, _ = me_cover(w, power_hfn(1), k_max)
    assert (cover.elements, cover.groups) == me_cover_by_spans(w, k_max)


@given(set_specs)
def test_set_specs_round_trip(spec):
    e = parse_set(spec)
    text = canonical_json(set_to_dict(e))
    e2 = parse_set(json.loads(text))
    assert set_to_dict(e2) == set_to_dict(e)
    assert canonical_json(set_to_dict(e2)) == text
    assert e2.trace(6) == e.trace(6)


@st.composite
def witnesses(draw):
    """A witness of each kind: block family, ShelahM, ShelahN, T' (its g a
    table or a callable)."""
    kind = draw(st.sampled_from(("block_family", "shelahm", "blockwise")))
    if kind == "blockwise":
        w, fams = draw(block_witnesses())
        if isinstance(w, ShelahNWitness):
            return w
        g = draw(st.sampled_from(("table", "callable")))
        if g == "callable":
            return TPrimeWitness(w.f, lambda n: n + 2, w.index_set, w.families)
        table = tuple(draw(st.integers(len(fams.get(n, ())), 5))
                      for n in range(max(fams) + 1))
        return TPrimeWitness(w.f, table, w.index_set, w.families)
    widths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))
    f = BlockPartition(tuple(accumulate(widths, initial=0)))
    if kind == "shelahm":
        g_widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        g = BlockPartition(tuple(accumulate(g_widths, initial=0)))
        return ShelahMWitness(f, g, EventualPoint(draw(bits), draw(bits.filter(bool))))
    # |F_n| <= 2^(f(n+1) - n), the smallness bound
    fams = tuple(tuple(draw(st.lists(words_of(widths[n]), unique=True,
                                     max_size=1 << (f(n + 1) - n))))
                 for n in range(draw(st.integers(0, len(widths)))))
    return BlockFamily(f, fams)


@given(witnesses())
def test_witnesses_round_trip(w):
    text = canonical_json(witness_to_dict(w))
    w2 = parse_witness(json.loads(text))
    assert canonical_json(witness_to_dict(w2)) == text
    if isinstance(w, TPrimeWitness):
        assert (w2.f, w2.index_set, w2.families) == (w.f, w.index_set, w.families)
        assert [_growth(w2.g, n) for n in w.index_set] == \
            [_growth(w.g, n) for n in w.index_set]
    else:
        assert w2 == w


@given(st.lists(st.integers(0, 3), max_size=6))
def test_cover_groups_are_runs_of_increasing_ids(ids):
    items = [{"cyl": "0", "group": j} for j in ids]
    if ids != sorted(ids):
        try:
            parse_cover(items)
        except SpecFormatError:
            return
        raise AssertionError("a decreasing group id was accepted")
    runs = tuple((ids.index(j), len(ids) - ids[::-1].index(j)) for j in sorted(set(ids)))
    assert parse_cover(items).groups == (runs or None)


@st.composite
def covers(draw):
    """A cover with or without groups (some may be empty, and elements may
    follow the last one), a group offset and eps tags."""
    elements = tuple(draw(st.lists(bits, max_size=6)))
    groups = None
    if draw(st.booleans()):
        ends = sorted(draw(st.lists(st.integers(0, len(elements)), max_size=4)))
        groups = tuple(zip([0, *ends], ends))
    eps = draw(st.none() | st.lists(st.sampled_from((Fraction(1), Fraction(1, 2))),
                                     min_size=len(elements), max_size=len(elements) + 2))
    return Cover(elements, groups, None if eps is None else tuple(eps),
                 draw(st.integers(0, 2)))


@given(covers())
def test_covers_round_trip_or_are_refused(cover):
    writable = cover.group_offset == 0 and (cover.groups is None or (
        cover.groups and all(a < b for a, b in cover.groups)
        and cover.groups[-1][1] == len(cover.elements)))
    try:
        text = canonical_json(cover_to_obj(cover))
    except SpecFormatError:
        assert not writable
        return
    assert writable
    back = parse_cover(json.loads(text))
    assert (back.elements, back.groups, back.group_offset) == \
        (cover.elements, cover.groups, cover.group_offset)


def json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                        st.sampled_from(("", "0", "1", "11", "1/2", "a", "1/0")))
    return st.recursive(scalars, lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(("cyl", "group", "eps", "elements")), kids,
                        max_size=3)), max_leaves=6)


def _paths(obj, path=()):
    yield path
    if isinstance(obj, (dict, list)):
        for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _paths(v, path + (k,))


COVER = {"elements": [{"cyl": "0", "group": 0}, {"cyl": "10", "group": 1},
                      {"cyl": "11", "group": 1}], "eps": ["1", "1/2", "1/2"]}


@st.composite
def mutated_covers(draw):
    """A well-formed cover file (wrapped or bare) with up to three values
    replaced or keys deleted."""
    obj = json.loads(json.dumps(draw(st.sampled_from((COVER, COVER["elements"])))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(json_values())
            continue
        parent = obj
        for k in path[:-1]:
            parent = parent[k]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values())
    return obj


@given(mutated_covers())
def test_cover_verify_survives_mutated_covers(cover):
    with tempfile.TemporaryDirectory() as tmp:
        set_path, cover_path = Path(tmp, "set.json"), Path(tmp, "cover.json")
        set_path.write_text(canonical_json({"kind": "cylinder_union",
                                            "cylinders": ["0", "11"]}))
        cover_path.write_text(canonical_json(cover))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["cover", "verify", "--set", str(set_path), "--cover",
                         str(cover_path), "--depth", "4", "--groups", "3"])
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
