import random
import time
from fractions import Fraction

import pytest

from oracles import einc_failures_by_words

from cantordim.errors import BuildError, DepthExceededError, SpecFormatError
from cantordim.hfun import power_hfn, table_hfn
from cantordim.ideals import (BlockFamily, BlockPartition, EventualPoint,
                              ShelahMWitness, ShelahNWitness, TPrimeWitness,
                              ZERO_POINT, ank_test,
                              einc_inclusion, me_cover, me_fbuilder, me_sums,
                              nadd_box_check, nadd_fbuilder,
                              s_membership_count, shelahM_check,
                              shelahN_check, shelahN_filtration, tprime_check,
                              tprime_fbuilder, tprime_from_dpnull_witness,
                              tprime_lbox_check, tprime_level_sets,
                              xtilde_level_set, xtilde_filtration)
from cantordim.treeset import FullCube
from cantordim.words import all_words, evens, periodic_ispec, xor_words


def test_block_partition():
    f = BlockPartition((0, 2, 5, 9))
    assert f.block(1) == (2, 5) and f.block_width(1) == 3
    assert f.restrict("011010111", 2) == "0111"
    with pytest.raises(DepthExceededError):
        f.restrict("0110", 2)
    with pytest.raises(SpecFormatError):
        BlockPartition((0, 0, 1))
    # plateaus collapse at ingestion
    assert BlockPartition.from_nondecreasing([0, 1, 1, 3, 3, 7]).table == (0, 1, 3, 7)


def test_block_family_smallness():
    f = BlockPartition((0, 2, 4))
    # |F_0| = 4 <= 2^f(1), |F_1| = 2 <= 2^f(2)/2
    BlockFamily(f, (("00", "01", "10", "11"), ("00", "01")))
    with pytest.raises(SpecFormatError):
        # |F_1| * 2 > 2^f(2) = 16 needs 9 words; width 2 only has 4
        BlockFamily(BlockPartition((0, 1, 2)), (("0",), ("0", "1", "0")))
    with pytest.raises(SpecFormatError):
        BlockFamily(f, (("000",),))


def test_shifted_family_preserves_smallness():
    f = BlockPartition((0, 2, 4))
    fam = BlockFamily(f, (("00", "11"), ("01",)))
    shifted = fam.shifted("0110")
    assert shifted.families == (("01", "10"), ("11",))
    assert len(shifted.family(0)) == len(fam.family(0))


def test_s_membership_count():
    f = BlockPartition((0, 2, 4, 6))
    fam = BlockFamily(f, ((), ("11",), ("00", "01")))
    rep = s_membership_count(fam, "001100")
    assert rep.count == 2 and rep.hits == (1, 2)
    empty = BlockFamily(f, ((), (), ()))
    assert s_membership_count(empty, "000000").count == 0
    full = BlockFamily(f, (("00",), ("00",), ("00",)))
    assert s_membership_count(full, "000000").count == 3


def random_einc_instance(rng, blocks=8, coarse=3):
    """Random small instance on f = id with nonempty families."""
    f = BlockPartition(tuple(range(blocks + 1)))
    gtab = sorted(rng.sample(range(1, blocks), coarse - 1))
    g = BlockPartition(tuple([0] + gtab + [blocks]))
    fams = []
    for k in range(blocks):
        pool = ["0", "1"]
        fams.append(tuple(rng.sample(pool, rng.randint(1, 2))))
    F = BlockFamily(f, tuple(fams))
    fg = f.compose(g)
    gfams = []
    for n in range(fg.block_count):
        width = fg.block_width(n)
        pool = all_words(width)
        count = rng.randint(1, max(1, (1 << width) >> n))
        gfams.append(tuple(rng.sample(pool, count)))
    G = BlockFamily(fg, tuple(gfams))
    return f, g, F, G


def test_einc_against_word_oracle(rng):
    agreements = 0
    for _ in range(60):
        f, g, F, G = random_einc_instance(rng)
        horizon = G.count
        verdict = einc_inclusion(f, g, F, G, horizon)
        want = einc_failures_by_words(f.table, g.table,
                                      [set(x) for x in F.families],
                                      [set(x) for x in G.families], horizon)
        assert set(verdict.failures) == want
        # n0: the least n from which no failure remains
        assert verdict.n0 == next((n for n in range(horizon)
                                   if all(m < n for m, _ in want)), None)
        agreements += 1
    assert agreements >= 50


def test_einc_trivial_cases():
    f = BlockPartition(tuple(range(9)))
    g = BlockPartition((0, 2, 4, 6, 8))
    fg = f.compose(g)
    F = BlockFamily(f, tuple(("0",) for _ in range(8)))
    G_all = BlockFamily(fg, tuple(tuple(all_words(2)) for _ in range(4)))
    assert einc_inclusion(f, g, F, G_all, 4).n0 == 0
    # empty G against nonempty F fails at the first applicable pair
    G_thin = BlockFamily(fg, (("11",),) * 4)
    v = einc_inclusion(f, g, F, G_thin, 4)
    assert v.failures and v.failures[0] == (0, 0)


def test_einc_without_a_checked_block_has_no_threshold():
    f, g = BlockPartition((0, 1, 2)), BlockPartition((0, 2))
    F = BlockFamily(f, (("0",), ("1",)))
    G = BlockFamily(f.compose(g), (("00",),))
    v = einc_inclusion(f, g, F, G, 1)
    assert v.failures == ((0, 1),) and v.n0 is None
    for horizon in (0, -3):
        v = einc_inclusion(f, g, F, G, horizon)
        assert v.failures == () and v.n0 is None
    # a coarse block with no family of F to check passes vacuously
    G2 = BlockFamily(f.compose(BlockPartition((0, 1, 2))), (("0",), ("1",)))
    v = einc_inclusion(f, BlockPartition((0, 1, 2)), BlockFamily(f, (("0",),)), G2, 2)
    assert v.failures == () and v.n0 == 0


def test_ank_test():
    f = BlockPartition(tuple(range(9)))
    g = BlockPartition((0, 2, 4, 6, 8))
    fg = f.compose(g)
    F_empty = BlockFamily(f, ((),) * 8)
    G = BlockFamily(fg, (("00",),) * 4)
    assert ank_test("00000000", 0, 0, f, g, F_empty, G)  # vacuous
    G_all = BlockFamily(fg, tuple(tuple(all_words(2)) for _ in range(4)))
    F = BlockFamily(f, (("0", "1"),) * 8)
    assert ank_test("00000000", 1, 2, f, g, F, G_all)
    # 2-word instance against hand enumeration: y = x|{2}; need z + y in
    # the restriction of G_1 to index 2
    Gsmall = BlockFamily(fg, (("00",), ("01",), ("00",), ("00",)))
    assert ank_test("00000000", 1, 2, f, g, BlockFamily(f, (("0",),) * 8), Gsmall)
    assert not ank_test("00000000", 1, 3, f, g, BlockFamily(f, (("0",),) * 8), Gsmall)


def test_xtilde_level_sets():
    f = BlockPartition(tuple(range(9)))
    g = BlockPartition((0, 2, 4, 6, 8))
    fg = f.compose(g)
    F = BlockFamily(f, (("0",),) * 8)
    G_all = BlockFamily(fg, tuple(tuple(all_words(2)) for _ in range(4)))
    xt = xtilde_level_set(f, g, F, G_all, 0)
    assert xt.trace_count(8) == FullCube().trace_count(8)
    # G admitting only the zero continuation pins the blocks
    Gz = BlockFamily(fg, (("00",),) * 4)
    xt2 = xtilde_level_set(f, g, F, Gz, 0)
    # allowed y per k: z + y must restrict into {0}, so y = 0 everywhere
    assert xt2.trace(8) == ["00000000"]
    # monotone in n0: traces only grow
    filt = xtilde_filtration(f, g, F, Gz)
    counts = [x.trace_count(8) for x in filt.sets]
    assert counts == sorted(counts)
    # empty survivor when G misses F entirely
    G_bad = BlockFamily(fg, (("11",),) * 4)
    with pytest.raises(BuildError):
        xtilde_level_set(f, g, BlockFamily(f, (("0", "1"),) * 8), G_bad, 0)


def test_xtilde_level_set_on_a_wide_block():
    # 2^24 block words: the admissible ones are z + G_0's shadow, found
    # without listing the others
    f, g = BlockPartition((0, 24)), BlockPartition((0, 1))
    z = "011010011100101101001110"
    gwords = ("0" * 24, "1" * 24, "01" * 12, "0011" * 6, z)
    start = time.perf_counter()
    xt = xtilde_level_set(f, g, BlockFamily(f, ((z,),)),
                          BlockFamily(f.compose(g), (gwords,)), 0)
    assert time.perf_counter() - start < 0.5
    assert xt.boundaries == (0, 24)
    assert xt.blocks == (frozenset(xor_words(z, t) for t in gwords),)


def test_shelahM_check():
    f = BlockPartition((0, 2, 4, 6, 8, 10))
    g = BlockPartition((0, 4, 8, 12))
    w = ShelahMWitness(f, g, ZERO_POINT)
    # x = y: every window containing a full block hits
    v = shelahM_check(w, "0" * 12, 0, 2)
    assert v.n0 == 0 and all(ok for _, ok in v.outcomes)
    # x disagreeing everywhere: no window hits
    v2 = shelahM_check(w, "1" * 12, 0, 2)
    assert v2.n0 is None and not any(ok for _, ok in v2.outcomes)
    # agreement on alternate blocks with two blocks per window
    x = "00" + "11" + "00" + "11" + "00" + "11"
    v3 = shelahM_check(w, x, 0, 2)
    assert v3.n0 == 0
    with pytest.raises(DepthExceededError):
        shelahM_check(w, "0000", 0, 2)


def test_me_fbuilder():
    r1 = power_hfn(1)
    f = me_fbuilder(r1, 12)
    expect = [0]
    for k in range(12):
        expect.append(max(expect[-1] + 1, k + expect[-1]))
    assert f.table == tuple(expect)
    for k in range(12):
        assert (1 << f(k)) * r1.hi_at(f(k + 1)) <= Fraction(1, 1 << k)
    f_half = me_fbuilder(power_hfn(Fraction(1, 2)), 16)
    expect = [0]
    for k in range(16):
        expect.append(max(expect[-1] + 1, 2 * (k + expect[-1])))
    assert f_half.table == tuple(expect)
    with pytest.raises(BuildError):
        me_fbuilder(table_hfn([Fraction(1, 2)] * 40), 4)


def test_me_cover():
    r1 = power_hfn(1)
    f = me_fbuilder(r1, 12)
    g = BlockPartition.from_nondecreasing([f(0), f(2), f(4), f(6)])
    w = ShelahMWitness(f, g, ZERO_POINT)
    cov, sums = me_cover(w, r1, 4)
    # |B_k| = 2^f(k) cylinders of length f(k+1)
    expected_elems = sum(1 << f(k) for k in range(4))
    assert len(cov.elements) == expected_elems
    assert sums == tuple((1 << f(k)) * r1.hi_at(f(k + 1)) for k in range(4))
    assert sum(me_sums(f, r1, 12)) <= 2
    with pytest.raises(BuildError):
        me_cover(w, r1, 12, element_limit=1 << 10)


def test_me_cover_gamma_groupable_for_matching_points():
    from cantordim.covers import verify_gamma_groupable
    from cantordim.treeset import BlockConstraintSet
    r1 = power_hfn(1)
    f = me_fbuilder(r1, 6)
    g = BlockPartition.from_nondecreasing([f(0), f(2), f(4), f(6)])
    w = ShelahMWitness(f, g, ZERO_POINT)
    cov, _ = me_cover(w, r1, 6)
    # points agreeing with y on every even block pass the witness check and
    # are covered by every group
    boundaries = [f(k) for k in range(7)]
    blocks = [["0" * f.block_width(k)] if k % 2 == 0
              else None for k in range(6)]
    e = BlockConstraintSet(boundaries, blocks)
    depth = max(len(wd) for wd in cov.elements)
    for x in e.trace(f(6)):
        assert shelahM_check(w, x + "0" * 10, 0, 1).n0 == 0
    v = verify_gamma_groupable(e, cov, cov.group_count - 1, depth)
    assert v.holds and v.j0 == 0


def test_shelahN_pipeline():
    f = BlockPartition((0, 1, 2, 4, 6, 9))
    H = (("0",), ("1",), ("00", "11"), ("01", "10"), ("000",))
    w = ShelahNWitness(f, H)
    v = shelahN_check(w, "010010000", 0, 4)
    assert v.outcomes[0] == (0, True) and v.outcomes[1] == (1, True)
    # a block outside its family pushes the threshold past it
    bad = "01" + "01" + "01" + "000"  # block 2 = "01" is not in H_2
    vb = shelahN_check(w, bad, 0, 4)
    assert (2, False) in vb.outcomes and (vb.n0 is None or vb.n0 > 2)
    filt = shelahN_filtration(w)
    # trace counts never exceed the product-formula bound
    for n, x in enumerate(filt.sets):
        for i in range(f(n + 1) if n + 1 < len(f.table) else 9, 10):
            k = max(kk for kk in range(len(H)) if f(kk) <= i)
            bound = 1 << f(n)
            for j in range(n, k + 1):
                bound *= len(H[j])
            assert x.trace_count(i) <= bound
    # a block outside its family pushes the threshold past it
    bad = "010010000".replace("00", "01", 1)
    with pytest.raises(SpecFormatError):
        ShelahNWitness(f, (("0",), ("1", "0"),))  # |H_1| = 2 > 1


def test_nadd_pipeline():
    growth = lambda n: 1 << max(0, n - 1)  # 1/h(2^(1-n)) for h = r
    f = nadd_fbuilder(growth, 8)
    import math
    for n in range(8):
        assert (1 << f(n)) * math.factorial(n + 1) <= growth(f(n + 1))
    with pytest.raises(BuildError):
        nadd_fbuilder(lambda n: 4, 4)
    H = tuple(("0" * f.block_width(k),) for k in range(f.block_count))
    w = ShelahNWitness(f, H)
    rep = nadd_box_check(w, growth, power_hfn(1), min(24, f.table[-1]))
    assert rep.ok
    assert all(row.content <= 1 for row in rep.rows)


def test_tprime_pipeline():
    ft = BlockPartition(tuple(range(10)))
    I = (2, 4, 6)
    fams = {2: ("0",), 4: ("0",), 6: ("1",)}
    w = TPrimeWitness(ft, lambda n: 1, I, fams)
    v = tprime_check(w, "000000100", 0, 8)
    assert v.n0 == 2 and all(ok for _, ok in v.outcomes)
    v2 = tprime_check(w, "001000000", 0, 8)
    assert (2, False) in v2.outcomes
    with pytest.raises(BuildError):
        tprime_fbuilder(lambda n: 3, lambda n: 1, 4)
    f2 = tprime_fbuilder(lambda n: 1 << n, lambda n: 1, 6)
    for n in range(6):
        assert (1 << f2(n)) * 1 <= (1 << f2(n + 1))
    rep = tprime_lbox_check(w, lambda n: 1 << n, power_hfn(1))
    assert rep.ok and all(row.content <= 1 for row in rep.rows)


def test_fbuilders_stay_within_search_limit():
    # f(1) = 1 and f(2) = 2 solve both recursions; a limit of 1 leaves f(2)
    # no admissible value
    growth = lambda n: 4 if n >= 2 else 1
    assert nadd_fbuilder(growth, 2, search_limit=2).table == (0, 1, 2)
    with pytest.raises(BuildError):
        nadd_fbuilder(growth, 2, search_limit=1)
    assert tprime_fbuilder(growth, lambda n: 1, 2, search_limit=2).table == (0, 1, 2)
    with pytest.raises(BuildError):
        tprime_fbuilder(growth, lambda n: 1, 2, search_limit=1)


def test_tprime_level_sets_have_gaps():
    ft = BlockPartition(tuple(range(10)))
    w = TPrimeWitness(ft, lambda n: 1, (2, 4), {2: ("0",), 4: ("0",)})
    levels = tprime_level_sets(w)
    # X_0 pins blocks 2 and 4 only: 8 free bits up to depth 10... at depth 5
    assert levels.sets[0].trace_count(5) == 2 ** 3
    # X_3 pins only block 4
    assert levels.sets[3].trace_count(5) == 2 ** 4


def test_tprime_from_dpnull_witness():
    from cantordim.covers import build_dpnull_witness
    from cantordim.measures import trivial_filtration
    from cantordim.treeset import ExplicitSet
    f = BlockPartition((0, 1, 2, 3, 4, 5, 6, 7, 8))
    # eps_n = 2^-f(n+1) per the construction
    eps = tuple(Fraction(1, 1 << f(n + 1)) if n + 1 < len(f.table) else
                Fraction(1, 1 << (n + 1)) for n in range(8))
    s = ExplicitSet(["0000"])
    witness = build_dpnull_witness(trivial_filtration(s), eps)
    usable = [n for n in witness.index_set if n + 1 < len(f.table)]
    fams = {n: tuple(wd[:f(n + 1)] if len(wd) >= f(n + 1) else wd + "0" * (f(n + 1) - len(wd))
                     for wd in witness.families[n]) for n in usable}
    t = tprime_from_dpnull_witness(eps, usable, fams, f)
    assert all(len(t.families[n]) <= n for n in t.index_set)
    with pytest.raises(SpecFormatError):
        tprime_from_dpnull_witness(eps, [2], {2: ("0",)}, f)  # wrong generator length


def test_ci_density():
    assert evens().complement_density_limits() == (Fraction(1, 2), Fraction(1, 2))
    assert periodic_ispec("", "1").complement_density_limits() == (0, 0)
    from cantordim.words import geometric_blocks
    assert geometric_blocks(1, 2, 4).complement_density_limits() == \
        (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(SpecFormatError):
        periodic_ispec("", "0").complement_density_limits()


def test_point_prefix():
    p = EventualPoint("01", "10")
    assert p.prefix(6) == "011010"
    with pytest.raises(SpecFormatError):
        EventualPoint("01", "")
