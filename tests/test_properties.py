"""Property tests: the engine against the independent oracles, on
generated instances (drawn deterministically; see conftest.py).

The seeded battery in test_covers.py fixes the depth at 7 and draws each
group from one depth of five fixed sets; here the sets, the depth (0
included) and the word lengths inside a group are all generated, and
failures shrink to a minimal instance."""

from fractions import Fraction
from itertools import accumulate

from hypothesis import given
from hypothesis import strategies as st

from oracles import (block_level_trace, cover_walk_charge,
                     covering_groups_by_words, min_cylinder_cover_cost)

from cantordim.covers import Cover, _covered_groups, verify_lambda
from cantordim.hfun import power_hfn, table_hfn
from cantordim.ideals import (BlockPartition, ShelahNWitness, TPrimeWitness,
                              nadd_box_check, shelahN_filtration,
                              tprime_lbox_check, tprime_level_sets)
from cantordim.measures import extract_optimal_cover, hausdorff_measure_delta
from cantordim.specio import parse_set
from cantordim.treeset import (Budget, CISet, CylinderUnionSet, ExplicitSet,
                               ProductSet)
from cantordim.words import all_words, periodic_ispec

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


@st.composite
def cover_instances(draw):
    """A set, a depth n and groups of words: trace prefixes at any depth,
    with duplicates, the empty word, stray words and words longer than n."""
    e = draw(tree_sets)
    n = draw(st.integers(0, 6))
    trace = e.trace(n)
    prefixes = sorted({t[:d] for t in trace for d in range(n + 1)})
    word = st.one_of(st.sampled_from(prefixes), st.just(""),
                     st.text("01", max_size=n + 2))
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
    tails = covering_groups_by_words(
        trace, [elements[j:] for j in range(horizon + 1)], n)
    fail = next((j for j in range(horizon + 1) if not tails >> j & 1), None)
    v = verify_lambda(e, Cover(elements), horizon, n)
    assert v.failure_index == fail and v.holds == (fail is None)


GAUGES = (power_hfn(Fraction(1, 2)), power_hfn(1),
          table_hfn([Fraction(1, n + 1) for n in range(16)]))


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
    bound = hausdorff_measure_delta(parse_set(e.spec_dict()), h, m, depth, dp_budget)
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
