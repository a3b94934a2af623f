import random
from fractions import Fraction

import pytest

from oracles import (ci_trace, coherence_holds, interleave_trace,
                     interned_trie, xor_trace)

from cantordim.covers import is_cover_at_depth
from cantordim.errors import ResourceLimitError, SpecFormatError
from cantordim.hfun import power_hfn
from cantordim.measures import (TableMass, extract_optimal_cover,
                                hausdorff_measure_delta, mass_lower_certificate)
from cantordim.treeset import (END, MAX_SET_NESTING, BlockConstraintSet,
                               Budget, CISet, CylinderUnionSet, ExplicitSet,
                               FullCube, ProductSet, SumSet, TreeSet,
                               UnionSet, is_trace_subset, singleton_zero)
from cantordim.words import all_words, evens, odds, periodic_ispec


def test_meets_examples():
    assert FullCube().meets("0110")
    assert not CISet(evens()).meets("10")
    # sumset membership from the depth-2 XOR of traces
    s = SumSet(CISet(evens()), CISet(evens()))
    expected = xor_trace(ci_trace(evens().contains, 2), ci_trace(evens().contains, 2))
    assert ("01" in expected) == s.meets("01")
    assert s.meets("01")


def test_trace_examples():
    assert FullCube().trace(3) == all_words(3)
    assert CISet(evens()).trace(4) == ["0000", "0001", "0100", "0101"]
    # sumset trace identity against the brute-force XOR oracle
    a, b = CISet(evens()), CISet(periodic_ispec("", "100"))
    got = SumSet(a, b).trace(4)
    want = xor_trace(ci_trace(evens().contains, 4),
                     ci_trace(periodic_ispec("", "100").contains, 4))
    assert got == want


def test_ci_trace_matches_definition(battery):
    for name in ("ci_evens", "ci_odds", "ci_thirds", "ci_preperiod", "ci_blocks"):
        e = battery[name]
        for n in (3, 6, 8):
            assert e.trace(n) == ci_trace(e.ispec.contains, n), name


def test_sumset_algebra(battery):
    zero = singleton_zero()
    for name, e in battery.items():
        if e.interleaved:
            continue
        s = SumSet(e, zero)
        for n in (2, 5):
            assert s.trace(n) == e.trace(n), name
    # commutativity on traces
    a, b = battery["ci_evens"], battery["random_a"]
    assert SumSet(a, b).trace(6) == SumSet(b, a).trace(6)


def test_sumset_explicit_against_oracle(battery):
    a, b = battery["random_a"], battery["random_b"]
    got = SumSet(a, b).trace(6)
    want = xor_trace(a.trace(6), b.trace(6))
    assert got == want


def test_sumset_ci_intersection():
    # C_I + C_J = C_{I cap J}
    pairs = [(evens(), odds()), (evens(), evens()),
             (periodic_ispec("", "100"), evens())]
    for i, j in pairs:
        s = SumSet(CISet(i), CISet(j))
        inter = lambda n: i.contains(n) and j.contains(n)
        for depth in (4, 6):
            assert s.trace(depth) == ci_trace(inter, depth)


def test_product_counting(battery):
    for a_name, b_name in [("ci_evens", "ci_odds"), ("full_cube", "ci_evens"),
                           ("random_a", "random_b")]:
        a, b = battery[a_name], battery[b_name]
        p = ProductSet(a, b)
        for n in (2, 4, 6):
            assert p.trace_count(2 * n) == a.trace_count(n) * b.trace_count(n)
        assert p.trace(6) == interleave_trace(a.trace(3), b.trace(3))


def test_product_fullcube_and_singleton():
    p = ProductSet(FullCube(), FullCube())
    for n in (1, 2, 3):
        assert p.trace_count(2 * n) == 4 ** n
    sp = ProductSet(singleton_zero(), CISet(evens()))
    for n in (2, 4):
        assert sp.trace_count(2 * n) == CISet(evens()).trace_count(n)


def test_local_diameter():
    assert FullCube().local_diameter("", 10).scale == 0
    assert CISet(evens()).local_diameter("", 10).scale == 1
    d = ExplicitSet(["0000"]).local_diameter("", 12)
    assert d.is_point_to_depth
    # product diameters follow the max-metric scale map
    p = ProductSet(FullCube(), FullCube())
    d = p.local_diameter("0101", 12)
    assert d.scale == p.scale_of_depth(4) == 2
    assert d.value == Fraction(1, 4)


def test_coherence_property(battery, rng):
    for name, e in battery.items():
        for _ in range(25):
            depth = rng.randint(0, 6)
            p = "".join(rng.choice("01") for _ in range(depth))
            assert coherence_holds(e, p), (name, p)


def test_trace_nonempty_invariant(battery):
    for name, e in battery.items():
        assert e.trace_count(7) >= 1, name


def test_trace_counts_match_traces(battery):
    extra = {
        "block": BlockConstraintSet([1, 3, 6], [["01", "10"], ["001", "111"]]),
        "block_gap": BlockConstraintSet([0, 2, 4, 6], [["00"], None, ["11"]]),
        "explicit_free": ExplicitSet(["010", "111"], tail="free"),
        "cylinders": CylinderUnionSet(["01", "1"]),
        "sum_block": SumSet(BlockConstraintSet([0, 2], [["01"]]), CISet(evens())),
        "union_prod": UnionSet([ProductSet(CISet(evens()), FullCube()),
                                ProductSet(FullCube(), CISet(odds()))]),
    }
    for name, e in {**battery, **extra}.items():
        counts = e.trace_counts(9)
        assert counts == [len(e.trace(d)) for d in range(10)], name
        assert e.trace_count(9) == counts[9], name


def test_trace_counts_deep_without_recursion():
    assert FullCube().trace_count(1024) == 2 ** 1024
    counts = CISet(evens()).trace_counts(2000)
    assert counts[2000] == 2 ** 1000 and len(counts) == 2001
    with pytest.raises(ValueError):
        FullCube().trace_counts(-1)


WARMTH_DEPTH = 8

WARMTH_SETS = {
    "explicit": lambda: ExplicitSet(["0110", "1011", "1100"]),
    "cylinder_union": lambda: CylinderUnionSet(["00", "001", "10", "110"]),
    "ci": lambda: CISet(periodic_ispec("1", "100")),
    "product": lambda: ProductSet(CISet(evens()), CylinderUnionSet(["01", "1"])),
    "sumset": lambda: SumSet(CISet(evens()),
                             SumSet(CISet(odds()), ExplicitSet(["0110", "1011"]))),
}


def trace_mass(e):
    """An additive mass of total 2^-depth, split evenly over the depth-8
    trace words of e."""
    words = e.trace(WARMTH_DEPTH)
    share = Fraction(1, len(words) << WARMTH_DEPTH)
    table = {}
    for w in words:
        for k in range(WARMTH_DEPTH + 1):
            table[w[:k]] = table.get(w[:k], 0) + share
    return TableMass(table)


# one gauge object for every walk that reads a gauge, so that on the warm
# set the cover DP walks find the DP the other one cached
WARMTH_GAUGE = power_hfn(Fraction(1, 2))

# each walk gets the set e it charges and a fresh copy `aux` of e, from
# which it reads its other inputs without touching e's cache
WARMTH_WALKS = {
    "trace": lambda e, aux, b: e.trace(WARMTH_DEPTH, b),
    "trace_counts": lambda e, aux, b: e.trace_counts(WARMTH_DEPTH, b),
    "local_diameter": lambda e, aux, b:
        e.local_diameter(aux.trace(3)[-1], 2 * WARMTH_DEPTH, b),
    "is_trace_subset": lambda e, aux, b: is_trace_subset(e, aux, WARMTH_DEPTH, b),
    "hausdorff_measure_delta": lambda e, aux, b:
        hausdorff_measure_delta(e, WARMTH_GAUGE, 1, WARMTH_DEPTH, b),
    "extract_optimal_cover": lambda e, aux, b:
        extract_optimal_cover(e, WARMTH_GAUGE, 1, WARMTH_DEPTH, b),
    "mass_lower_certificate": lambda e, aux, b:
        mass_lower_certificate(e, WARMTH_GAUGE, trace_mass(aux),
                               WARMTH_DEPTH, b),
    "is_cover_at_depth": lambda e, aux, b:
        is_cover_at_depth(e, aux.trace(4), WARMTH_DEPTH, b),
}


@pytest.mark.parametrize("kind", WARMTH_SETS)
@pytest.mark.parametrize("walk", WARMTH_WALKS)
def test_walk_charge_ignores_cache_warmth(walk, kind):
    make = WARMTH_SETS[kind]
    cold = Budget()
    WARMTH_WALKS[walk](make(), make(), cold)
    # the same walk on a set whose cache every other walk has filled
    e, warm = make(), Budget()
    for other, run in WARMTH_WALKS.items():
        if other != walk:
            run(e, make(), Budget())
    WARMTH_WALKS[walk](e, make(), warm)
    assert warm.used == cold.used > 0


def test_trace_counts_budget_is_one_node_per_expanded_state():
    e = SumSet(ExplicitSet(["0110", "1011", "1100"], tail="free"), CISet(evens()))
    expanded = sum(len({e.state_at(w) for w in e.trace(d)}) for d in range(12))
    b = Budget()
    e.trace_counts(12, b)
    assert b.used == expanded
    with pytest.raises(ResourceLimitError):
        SumSet(e.a, e.b).trace_counts(12, Budget(expanded - 1))
    SumSet(e.a, e.b).trace_counts(12, Budget(expanded))


def _count_expansions(e, counts):
    """Wrap the expand of e and of its operands, all the way down, with a
    counter of (set, state, depth) -> calls.  Trie sets read their rows and
    have no expand."""
    if isinstance(e, ExplicitSet):
        return
    expand = e.expand

    def counted(state, depth):
        counts[e, state, depth] = counts.get((e, state, depth), 0) + 1
        return expand(state, depth)

    e.expand = counted
    for op in (*getattr(e, "members", ()), getattr(e, "a", None), getattr(e, "b", None)):
        if op is not None:
            _count_expansions(op, counts)


@pytest.mark.parametrize("make", [
    lambda: SumSet(CISet(evens()), CISet(periodic_ispec("", "100"))),
    lambda: UnionSet([ExplicitSet(["0110", "1011"]),
                      ExplicitSet(["0111", "1100"], tail="free")]),
    lambda: ProductSet(CISet(odds()), BlockConstraintSet([1, 3], [["01", "10"]])),
])
def test_each_node_is_expanded_once(make):
    # trace_counts then both steps at every node it visited: one expand per
    # (state, depth) of the set and of its operands, and step is the base
    # class's read of the cached children
    e, counts = make(), {}
    _count_expansions(e, counts)
    e.trace_counts(10)
    visited = [(state, d) for s, state, d in counts if s is e]
    for state, d in visited:
        for bit in (0, 1):
            e.step(state, d, bit)
    assert len(visited) >= 10 and set(counts.values()) == {1}
    assert all(type(s).step is TreeSet.step for s, _, _ in counts)


def test_explicit_tails():
    zeros = ExplicitSet(["01"], tail="zeros")
    assert zeros.trace(4) == ["0100"]
    free = ExplicitSet(["01"], tail="free")
    assert free.trace(4) == ["0100", "0101", "0110", "0111"]


def test_block_constraint_and_gaps():
    e = BlockConstraintSet([1, 3, 5], [["01", "10"], ["11"]])
    assert e.trace(5) == sorted(x + y + "11" for x in "01" for y in ("01", "10"))
    gap = BlockConstraintSet([0, 2, 4, 6], [["00"], None, ["11"]])
    assert gap.trace_count(6) == 4
    with pytest.raises(SpecFormatError):
        BlockConstraintSet([0, 2], [[]])


def test_block_index_edges():
    e = BlockConstraintSet([1, 3, 6], [["01", "10"], None])
    assert [e._block_index(d) for d in range(8)] == [None, 0, 0, 1, 1, 1, None, None]


def test_cylinder_union():
    c = CylinderUnionSet(["0", "10"])
    assert c.trace(2) == ["00", "01", "10"]
    assert c.trace_count(5) == 24


def test_automaton_states_share_isomorphic_subtrees():
    # nodes with the same words left to read have one state, wherever they
    # sit in the word list; that sharing is what keeps counting linear
    e = ExplicitSet(["00", "10"])
    assert e.state_at("0") == e.state_at("1")
    c = CylinderUnionSet(["0", "10"])
    assert c.state_at("0") == c.state_at("10")
    assert c.state_at("0") == c.state_at("0110") == c.state_at("101")
    assert c.state_at("11") is None


def test_explicit_states_are_interned_integers():
    e = ExplicitSet(["0110", "1011", "1100"], tail="free")
    states = {e.state_at(w) for d in range(7) for w in e.trace(d)}
    assert states and all(isinstance(s, int) for s in states)
    assert e.state_at("0110") == e.state_at("1011") == END
    assert e.step(END, 4, 1) == END
    z = ExplicitSet(["01"])
    assert z.step(END, 2, 0) == END and z.step(END, 2, 1) is None
    assert ExplicitSet([""]).root_state() == END


def test_long_explicit_words_build_without_recursion():
    rng = random.Random(4000)
    a = "".join(rng.choice("01") for _ in range(4000))
    b = a[:1999] + ("1" if a[1999] == "0" else "0") + a[2000:]
    e = ExplicitSet([a, b])
    assert e.trace_count(4000) == 2 and e.trace_count(1999) == 1
    assert e.state_at(a) == e.state_at(b) == END
    assert CylinderUnionSet([a, a[:3000]]).trace_count(3001) == 2


def _states_per_depth(root, rows, depth):
    sizes, frontier = [], {root}
    for _ in range(depth + 1):
        sizes.append(len(frontier))
        frontier = {c for s in frontier for c in rows[s] if c is not None}
    return sizes


def test_large_tries_match_the_bottom_up_oracle():
    # random 64-bit words share hardly a suffix set, so states are about
    # prefix nodes; a dense 12-bit set shares them below its top levels
    rng = random.Random(2400)
    sparse = [format(rng.getrandbits(64), "064b") for _ in range(1000)]
    dense = [format(i, "012b") for i in rng.sample(range(1 << 12), 2900)]
    for words in (sparse, dense):
        e, copy, width = ExplicitSet(words), ExplicitSet(words), len(words[0])
        copy._root, copy._rows = interned_trie(copy.words, copy.tail)
        assert _states_per_depth(e._root, e._rows, width) == \
            _states_per_depth(copy._root, copy._rows, width)
        got, want = Budget(), Budget()
        assert e.trace_counts(width + 1, got) == copy.trace_counts(width + 1, want)
        assert got.used == want.used


def test_explicit_words_share_one_length():
    with pytest.raises(SpecFormatError, match="share one length"):
        ExplicitSet(["0", "10"])
    with pytest.raises(SpecFormatError, match="share one length"):
        ExplicitSet(["0", "10"], tail="free")
    with pytest.raises(SpecFormatError):
        CylinderUnionSet([])


def test_union_members():
    u = UnionSet([ExplicitSet(["000"]), ExplicitSet(["111"])])
    assert u.trace(3) == ["000", "111"]


def test_is_trace_subset():
    ce, fc = CISet(evens()), FullCube()
    assert is_trace_subset(ce, fc, 8) is None
    w = is_trace_subset(fc, ce, 8)
    assert w is not None and not ce.meets(w)


def test_budget_guard():
    r = random.Random(7)
    words_a = r.sample(all_words(10), 400)
    words_b = r.sample(all_words(10), 400)
    s = SumSet(ExplicitSet(words_a, tail="free"), ExplicitSet(words_b, tail="free"))
    with pytest.raises(ResourceLimitError):
        s.trace(10, Budget(50))


def test_sets_nested_past_the_cap_are_refused():
    # built through the API, as a spec is capped: MAX_SET_NESTING levels of
    # sumsets still evaluate, and each compound kind refuses one more level
    e = ExplicitSet(["01", "10"])
    for _ in range(MAX_SET_NESTING):
        e = SumSet(e, ExplicitSet(["00"]))
    assert e.nesting == MAX_SET_NESTING and e.trace_counts(3) == [1, 2, 2, 2]
    for make in (lambda: SumSet(e, FullCube()), lambda: ProductSet(e, FullCube()),
                 lambda: UnionSet([FullCube(), e])):
        with pytest.raises(SpecFormatError, match="set nests deeper than 256 levels"):
            make()


def test_scale_convention_mixing_rejected():
    p = ProductSet(FullCube(), FullCube())
    with pytest.raises(SpecFormatError):
        SumSet(p, FullCube())
    with pytest.raises(SpecFormatError):
        ProductSet(p, FullCube())


def test_trace_determinism(battery):
    for e in battery.values():
        assert e.trace(6) == e.trace(6)
        assert e.trace(6) == sorted(e.trace(6))
