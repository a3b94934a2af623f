"""Property tests: the engine against the independent oracles, on
generated instances (drawn deterministically; see conftest.py).

The seeded battery in test_covers.py fixes the depth at 7 and draws each
group from one depth of five fixed sets; here the sets, the depth (0
included) and the word lengths inside a group are all generated, and
failures shrink to a minimal instance."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from oracles import (cover_walk_charge, covering_groups_by_words,
                     min_cylinder_cover_cost)

from cantordim.covers import Cover, _covered_groups, verify_lambda
from cantordim.hfun import power_hfn, table_hfn
from cantordim.measures import extract_optimal_cover, hausdorff_measure_delta
from cantordim.specio import parse_set
from cantordim.treeset import (Budget, CISet, CylinderUnionSet, ExplicitSet,
                               ProductSet)
from cantordim.words import periodic_ispec

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
