import random
from fractions import Fraction

import pytest

from oracles import cover_walk_charge, covering_groups_by_words, covering_groups_sets

from cantordim.covers import (_FOLD, CHUNK_BITS, Cover, DpNullWitness,
                              _covered_groups, build_bounded_groups,
                              build_dpnull_witness, build_fine_lambda,
                              build_gamma_groupable, epsilons_for_gauge,
                              gamma_grouped_sum, is_cover_at_depth,
                              merge_diagonal, product_cover,
                              verify_combDnull_witness,
                              verify_combPnull_witness, verify_gamma_groupable,
                              verify_lambda)
from cantordim.errors import BuildError, ResourceLimitError, SpecFormatError
from cantordim.hfun import hfn_from_epsilons, power_hfn, table_hfn
from cantordim.measures import (Filtration, extract_optimal_cover,
                                hausdorff_measure_delta, trivial_filtration)
from cantordim.treeset import (BlockConstraintSet, Budget, CISet, ExplicitSet,
                               FullCube, ProductSet, UnionSet)
from cantordim.words import ISpec, all_words, evens, odds, periodic_ispec


def depth_cylinder_cover(e, depths):
    """Groups = all depth-j trace cylinders of e, one group per j."""
    elems, groups = [], []
    for j in depths:
        t = e.trace(j)
        groups.append((len(elems), len(elems) + len(t)))
        elems.extend(t)
    return Cover(tuple(elems), tuple(groups))


def test_is_cover_examples():
    assert is_cover_at_depth(FullCube(), ["0", "1"], 3)
    assert not is_cover_at_depth(CISet(evens()), ["00"], 2)
    assert is_cover_at_depth(CISet(evens()), [""], 5)


def test_cover_validation():
    with pytest.raises(SpecFormatError):
        Cover(("0", "1"), ((0, 1), (2, 2)))  # gap in the partition
    with pytest.raises(SpecFormatError):
        Cover(("0",), None, ())  # eps shorter than elements
    c = Cover(("0", "10"), None, (Fraction(1, 2), Fraction(1, 4)))
    assert c.check_fineness() is None
    c2 = Cover(("0", "1"), None, (Fraction(1, 2), Fraction(1, 4)))
    assert c2.check_fineness() == 1


def test_from_groups_lists_the_groups_one_after_another():
    eps = (Fraction(1, 2),) * 5
    got = Cover.from_groups([["0", "1"], [], ("00", "11")], eps, group_offset=3)
    assert got == Cover(("0", "1", "00", "11"), ((0, 2), (2, 2), (2, 4)), eps, 3)
    assert Cover.from_groups([]) == Cover((), ())


@pytest.mark.parametrize("bad", ["2", "0101x1", 5])
def test_non_binary_words_are_refused_where_they_enter(bad):
    # a cover validates its words when it is made; the entry points that
    # take raw word lists validate every word, those longer than the check
    # depth (3) included
    with pytest.raises(SpecFormatError):
        Cover(("0", bad))
    with pytest.raises(SpecFormatError):
        Cover.from_groups([["0"], ["1", bad]])
    with pytest.raises(SpecFormatError):
        is_cover_at_depth(FullCube(), ["0", "1", bad], 3)
    families = {1: ("0", "1"), 2: ("00", bad, "01", "1")}
    for check in (lambda: verify_combDnull_witness(
                      FullCube(), [1] * 3, [1, 2], families, lambda n: 4, 2, 3),
                  lambda: verify_combPnull_witness(
                      FullCube(), [1] * 3, [(), *families.values()], lambda n: 4, 2, 3)):
        with pytest.raises(SpecFormatError):
            check()


def test_verify_lambda():
    fc = FullCube()
    elems = []
    for k in range(5):
        elems.extend(fc.trace(k))
    assert verify_lambda(fc, Cover(tuple(elems)), 4, 5).holds
    v = verify_lambda(fc, Cover(("",)), 2, 3)
    assert not v.holds and v.failure_index == 1


def test_verify_gamma_groupable():
    fc = FullCube()
    cov = depth_cylinder_cover(fc, range(5))
    v = verify_gamma_groupable(fc, cov, 4, 6)
    assert v.holds and v.j0 == 0
    # deliberately break one group: the failure is isolated
    elems = list(cov.elements)
    a, _ = cov.groups[3]
    del elems[a]
    groups = [(x - (x > a), y - (y > a)) for x, y in cov.groups]
    broken = Cover(tuple(elems), tuple(groups))
    v2 = verify_gamma_groupable(fc, broken, 4, 6)
    assert v2.group_failures == (3,) and v2.j0 == 4
    with pytest.raises(SpecFormatError):
        verify_gamma_groupable(fc, Cover(("0", "1")), 4, 6)


def test_gamma_grouped_sum():
    assert gamma_grouped_sum(Cover(()), power_hfn(1)) == 0
    cov = depth_cylinder_cover(FullCube(), range(1, 5))
    assert gamma_grouped_sum(cov, power_hfn(1)) == 4


def test_epsilons_for_gauge():
    eps = epsilons_for_gauge(power_hfn(1), 6)
    for n, e in enumerate(eps, start=1):
        assert power_hfn(1).hi_at(n) <= Fraction(1, 1 << n) or e <= Fraction(1, 1 << n)


def test_build_fine_lambda_singleton():
    s = ExplicitSet(["0" * 8])
    eps = [Fraction(1, 1 << n) for n in range(1, 20)]
    h = hfn_from_epsilons(eps)
    witness = Cover(tuple("0" * k for k in range(6, 12)))
    out = build_fine_lambda(s, eps, h, witness, horizon=4, depth=12)
    assert out.check_fineness() is None
    assert verify_lambda(s, out, 4, 12).holds


def test_build_fine_lambda_null_ci():
    # H^h-null C_I for the harmonic-style gauge h(2^-m) ~ 1/m: forced bits
    # everywhere except at powers of 4, so trace counts grow like 2^(log4 m)
    bits = ["1"] * 200
    for k in (1, 4, 16, 64):
        bits[k] = "0"
    ispec = ISpec("".join(bits), ("periodic", "1"))
    e = CISet(ispec)
    eps = [Fraction(1, 1 << n) for n in range(1, 200)]
    h = hfn_from_epsilons(eps, n_max=200)
    elems = []
    for scale in (64, 100, 144):
        elems.extend(e.trace(scale))
    witness = Cover(tuple(elems))
    total = sum(h.hi_at(len(w)) for w in elems)
    assert total < 1
    out = build_fine_lambda(e, eps, h, witness, horizon=8, depth=150)
    assert verify_lambda(e, out, 8, 150).holds
    assert out.check_fineness() is None


def test_build_fine_lambda_prices_product_words_at_the_product_scale():
    # a word of length k on the interleaved coding has diameter 2^-(k // 2):
    # the lengths 8..13 sum to 37/30 there, and to less than 1 at 2^-k
    s = ProductSet(ExplicitSet(["0" * 8]), ExplicitSet(["0" * 8]))
    eps = [Fraction(1, 1 << n) for n in range(1, 20)]
    h = hfn_from_epsilons(eps)
    with pytest.raises(BuildError, match="37/30 is not below 1"):
        build_fine_lambda(s, eps, h, Cover(tuple("0" * k for k in range(8, 14))),
                          horizon=4, depth=16)
    out = build_fine_lambda(s, eps, h, Cover(tuple("0" * k for k in range(16, 22))),
                            horizon=4, depth=22)
    assert out.check_fineness(interleaved=True) is None


def test_build_fine_lambda_rejects_bad_witness():
    s = ExplicitSet(["0" * 8])
    eps = [Fraction(1, 1 << n) for n in range(1, 20)]
    h = hfn_from_epsilons(eps)
    fat = Cover(tuple("0" * k for k in range(0, 3)))  # huge elements, sum >= 1
    with pytest.raises(BuildError):
        build_fine_lambda(s, eps, h, fat, horizon=2, depth=8)
    not_lambda = Cover(("00000000",))
    with pytest.raises(BuildError):
        build_fine_lambda(s, eps, h, not_lambda, horizon=2, depth=8)


def test_build_gamma_groupable_pipeline():
    r1 = power_hfn(1)
    sing = ExplicitSet(["0" * 8])
    out = build_gamma_groupable(Filtration((sing, sing, sing)), r1,
                                max_scale=24, depth=12)
    total = gamma_grouped_sum(out, r1)
    assert total < 2
    ce = CISet(evens())
    out2 = build_gamma_groupable(Filtration((ce,) * 4), r1, max_scale=24, depth=16)
    assert verify_gamma_groupable(ce, out2, 3, 16).holds
    total2 = gamma_grouped_sum(out2, r1)
    assert total2 < 2
    # reverse direction: the grouped cover reproves a finite Hausdorff bound
    for j in range(out2.group_count):
        cost = sum(r1.hi_at(len(w)) for w in out2.group_elements(j))
        m = min(len(w) for w in out2.group_elements(j))
        assert hausdorff_measure_delta(ce, r1, m, m + 8).upper <= cost


def test_build_gamma_groupable_charges_a_rejected_scale_its_dp_only():
    # each scale is priced by its DP; cover words are read (two nodes per
    # split) only at the scale whose cost clears 2^-n
    r1, ce = power_hfn(1), CISet(periodic_ispec("", "10000"))
    levels, max_scale, depth = 4, 24, 16
    expected, rejected = 0, 0
    for n in range(levels):
        for m in range(n + 1, max_scale + 1):
            depth_m = min(m + 8, max_scale)
            dp = Budget()
            if hausdorff_measure_delta(ce, r1, m, depth_m, dp).upper < Fraction(1, 1 << n):
                accepted = Budget()
                extract_optimal_cover(ce, r1, m, depth_m, accepted)
                expected += accepted.used
                break
            expected += dp.used
            rejected += 1
    b = Budget()
    cover = build_gamma_groupable(Filtration((ce,) * levels), r1,
                                  max_scale=max_scale, depth=depth, budget=b)
    check = Budget()
    verify_gamma_groupable(ce, cover, levels - 1,
                           max(depth, max(map(len, cover.elements))), check)
    assert rejected == 4
    assert b.used == expected + check.used == 17324


def test_build_gamma_groupable_failure():
    fc = FullCube()
    with pytest.raises(BuildError):
        build_gamma_groupable(Filtration((fc, fc)), power_hfn(1), max_scale=12)


def seqep3_gauge(eps, horizon):
    """The lemma's own gauge choice: g(delta_n) > 1/n for the compressed
    scale sequence, read off hfn_from_epsilons with a factor of slack."""
    eps_sorted = sorted((Fraction(x) for x in eps), reverse=True)
    deltas = [eps_sorted[sum(range(n + 1))] for n in range(1, horizon + 1)]
    return hfn_from_epsilons(deltas).scaled(2, name="seqep3-g")


def test_build_bounded_groups():
    eps = [Fraction(1, 1 << n) for n in range(1, 300)]
    sing = ExplicitSet(["0" * 8])
    g = seqep3_gauge(eps, 14)
    out = build_bounded_groups(Filtration((sing,)), g, eps, horizon=12, depth=12)
    # recount independently: group j holds at most j elements
    for i, (a, b) in enumerate(out.groups):
        assert 1 <= b - a <= out.group_offset + i
    assert all(b - a == 1 for a, b in out.groups)  # singleton level
    assert out.check_fineness() is None


def test_build_bounded_groups_on_shelahn_filtration():
    # the witness must constrain blocks past the deepest compressed scale,
    # otherwise the level sets go locally free and their contents blow up
    from cantordim.ideals import (BlockPartition, ShelahNWitness,
                                  shelahN_filtration)
    f = BlockPartition(tuple(k * (k + 1) // 2 for k in range(16)))
    H = tuple(("0" * f.block_width(k),) for k in range(f.block_count))
    filt = shelahN_filtration(ShelahNWitness(f, H))
    eps = [Fraction(1, 1 << n) for n in range(1, 400)]
    g = seqep3_gauge(eps, 16)
    out = build_bounded_groups(Filtration(filt.sets[:2]), g, eps,
                               horizon=14, depth=14)
    # independent recount: group j holds at most j elements, j counted from
    # the cover's recorded first group index
    for i, (a, b) in enumerate(out.groups):
        assert b - a <= out.group_offset + i
    assert out.check_fineness() is None


def test_build_bounded_groups_precondition():
    eps = [Fraction(1, 1 << n) for n in range(1, 40)]
    sing = ExplicitSet(["0" * 8])
    with pytest.raises(BuildError):
        # gauge too small: g(delta_n) > 1/n fails
        build_bounded_groups(Filtration((sing,)),
                             table_hfn([Fraction(1, 1 << (3 * n + 4)) for n in range(40)]),
                             eps, horizon=10, depth=10)


def test_combPnull_witness():
    fc = FullCube()
    eps = [Fraction(1, 1 << n) for n in range(8)]
    families = [tuple(fc.trace(n)) for n in range(6)]
    v = verify_combPnull_witness(fc, eps, families, lambda n: 1 << n, 5, 6)
    assert v.holds and v.n0 == 0
    # oversized family flagged with its index
    fat = list(families)
    fat[3] = tuple(fc.trace(3)) + ("0000",)
    v2 = verify_combPnull_witness(fc, eps, fat, lambda n: 1 << n, 5, 6)
    assert not v2.holds and 3 in v2.size_failures


def test_combPnull_from_bounded_groups():
    eps = [Fraction(1, 1 << n) for n in range(1, 300)]
    sing = ExplicitSet(["0" * 8])
    g = seqep3_gauge(eps, 14)
    cov = build_bounded_groups(Filtration((sing,)), g, eps, horizon=12, depth=12)
    families = [cov.group_elements(j) for j in range(cov.group_count)]
    check_depth = max(len(w) for w in cov.elements)
    v = verify_combPnull_witness(sing, [Fraction(1, 2)] * len(families), families,
                                 lambda n: n + 1, len(families) - 1, check_depth)
    assert v.holds


def test_combDnull_and_merge():
    s1 = ExplicitSet(["000000"])
    s2 = ExplicitSet(["110000"])
    s3 = ExplicitSet(["001100"])
    eps = tuple(Fraction(1, 1 << n) for n in range(30))
    w1 = build_dpnull_witness(trivial_filtration(s1), eps)
    w2 = build_dpnull_witness(trivial_filtration(s2), eps)
    w3 = build_dpnull_witness(trivial_filtration(s3), eps)
    single = merge_diagonal([w1])
    assert single.index_set and all(len(single.families[n]) <= n * n
                                    for n in single.index_set)
    merged = merge_diagonal([w1, w2, w3])
    u = UnionSet([s1, s2, s3])
    v = verify_combDnull_witness(u, eps, merged.index_set, merged.families,
                                 lambda n: n * n, 29, 8)
    assert v.holds
    for i, n in enumerate(merged.index_set):
        assert len(merged.families[n]) <= n * n
    with pytest.raises(BuildError):
        merge_diagonal([w1, DpNullWitness(eps[:-1], w2.index_set, w2.families)])


def test_combDnull_witness_verifier_failures():
    s = ExplicitSet(["0000"])
    eps = tuple(Fraction(1, 1 << n) for n in range(10))
    v = verify_combDnull_witness(s, eps, (3,), {3: ("1111",)}, lambda n: n, 9, 4)
    assert not v.holds and v.coverage_failures == (3,)


def test_combDnull_fineness_reads_the_product_scale():
    # the words of length 2 on the interleaved coding have diameter 1/2
    fc2 = ProductSet(FullCube(), FullCube())
    families = {1: tuple(all_words(2))}
    for eps, fine_bad in ((Fraction(1, 4), (1,)), (Fraction(1, 2), ())):
        v = verify_combDnull_witness(fc2, [1, eps], (1,), families,
                                     lambda n: 4, 1, 2)
        assert v.fineness_failures == fine_bad and v.coverage_failures == ()


def test_product_cover():
    # singleton x singleton
    u = Cover(("0000",), ((0, 1),))
    out = product_cover(["00000"], u, power_hfn(1))
    assert out.elements == ("00000000",)
    # C_evens fine cover x a grouped null witness: sums agree with the U side
    ce, co = CISet(evens()), CISet(odds())
    ucov = depth_cylinder_cover(co, (2, 3, 4))
    v_elems = [ce.trace(max(len(w) for w in ucov.group_elements(j)))[0]
               for j in range(ucov.group_count)]
    r1 = power_hfn(1)
    w = product_cover(v_elems, ucov, r1)
    assert gamma_grouped_sum(w, r1, interleaved=True) == gamma_grouped_sum(ucov, r1)
    with pytest.raises(BuildError):
        product_cover(["0"], ucov, r1)  # V too coarse for the U fineness


def test_product_cover_covers_product_set():
    # as in the product construction, {V_j} covers the first factor (here a
    # point), so every group covers the whole product set
    x = ExplicitSet(["0" * 8])
    co = CISet(odds())
    ucov = depth_cylinder_cover(co, (2, 3))
    v_elems = []
    for j in range(ucov.group_count):
        eps_j = min(len(w) for w in ucov.group_elements(j))
        v_elems.append(x.trace(eps_j)[0])
    p = ProductSet(x, co)
    w = product_cover(v_elems, ucov, power_hfn(1), product_set=p, depth=6)
    for j in range(w.group_count):
        assert is_cover_at_depth(p, w.group_elements(j), 6)


def test_smz_direction_instance():
    # the strong-measure-zero direction at desk scale: an eps-fine cover
    # with h(eps_n) <= 2^-n certifies a finite Hausdorff bound
    h = power_hfn(1)
    eps = epsilons_for_gauge(h, 10)
    x = ExplicitSet(["0" * 12])
    elems = []
    for e in eps:
        depth = e.denominator.bit_length() - 1
        elems.append(x.trace(depth)[0])
    cov = Cover(tuple(elems), None, eps)
    assert cov.check_fineness() is None
    assert is_cover_at_depth(x, cov.elements, 12)
    cost = sum(h.hi_at(len(w)) for w in elems)
    assert cost <= 1  # sum over 2^-n, n >= 1
    assert hausdorff_measure_delta(x, h, 1, 12).upper <= cost


# ---------------------------------------------------------------------------
# The one-walk verifiers against word-by-word coverage


def random_cover_sets(r):
    """Seeded instances of every shape the walk meets: explicit sets with
    both tails, constraint sets, block constraints and interleaved products."""
    return [
        ExplicitSet(r.sample(all_words(5), 6), tail="zeros"),
        ExplicitSet(r.sample(all_words(4), 5), tail="free"),
        CISet(periodic_ispec("1", "100")),
        BlockConstraintSet([1, 3, 6], [["01", "10", "11"], ["000", "101"]]),
        ProductSet(CISet(evens()), ExplicitSet(r.sample(all_words(3), 3))),
    ]


def random_group(r, trace, n):
    """Trace prefixes at one depth, sometimes losing a word or gaining
    duplicates, the empty word, stray words or words longer than n."""
    d = r.randint(0, n)
    words = sorted({t[:d] for t in trace})
    if len(words) > 1 and r.random() < 0.4:
        words.pop(r.randrange(len(words)))
    extras = [r.choice(words) if words else "",
              "",
              format(r.getrandbits(n), f"0{n}b")[:r.randint(1, n)],
              r.choice(trace) + "01"]
    words += [w for w in extras if r.random() < 0.25]
    r.shuffle(words)
    return tuple(words)


def test_walk_matches_word_oracle():
    r = random.Random(20121)
    n = 7
    for e in random_cover_sets(r):
        trace = e.trace(n)
        for _ in range(12):
            groups = [random_group(r, trace, n) for _ in range(r.randint(0, 5))]
            if r.random() < 0.3 and groups:
                groups[r.randrange(len(groups))] = ()
            want = covering_groups_by_words(trace, groups, n)
            b = Budget()
            assert _covered_groups(e, groups, n, b) == want
            # one budget node per expanded node; a check that finds no
            # covering group may stop before it has expanded them all
            charge = cover_walk_charge(trace, groups, n)
            assert b.used == charge if want else b.used <= charge
            elems = tuple(w for g in groups for w in g)
            spans, pos = [], 0
            for g in groups:
                spans.append((pos, pos + len(g)))
                pos += len(g)
            cover = Cover(elems, tuple(spans))

            for g in groups:
                assert is_cover_at_depth(e, g, n) == bool(
                    covering_groups_by_words(trace, [g], n))

            for horizon in (0, 2, len(groups) + 2):
                v = verify_gamma_groupable(e, cover, horizon, n)
                top = min(horizon, len(groups) - 1)
                ok = [bool(want >> j & 1) for j in range(top + 1)]
                assert v.group_failures == tuple(j for j, g in enumerate(ok) if not g)
                j0 = top + 1
                while j0 > 0 and ok[j0 - 1]:
                    j0 -= 1
                assert v.j0 == (j0 if j0 <= top else None)
                assert v.holds == (j0 <= top)

                tails = covering_groups_by_words(
                    trace, [elems[j:] for j in range(horizon + 1)], n)
                fail = next((j for j in range(horizon + 1) if not tails >> j & 1), None)
                lam = verify_lambda(e, Cover(elems), horizon, n)
                assert lam.failure_index == fail and lam.holds == (fail is None)

                eps = [Fraction(1)] * len(groups)
                p = verify_combPnull_witness(e, eps, groups, lambda k: 99, horizon, n)
                assert p.coverage_failures == v.group_failures
                assert p.n0 == v.j0

                index_set = sorted(r.sample(range(len(groups)), r.randint(0, len(groups))))
                fams = {k: groups[k] for k in index_set}
                dv = verify_combDnull_witness(e, eps, index_set, fams, lambda k: 99,
                                              horizon, n)
                idx = [k for k in index_set if k <= horizon]
                good = [bool(want >> k & 1) for k in idx]
                assert dv.coverage_failures == tuple(k for k, g in zip(idx, good) if not g)
                tail = next((i for i in range(len(idx) + 1) if all(good[i:])), None)
                assert dv.n0 == (idx[tail] if tail < len(idx) else None)


def test_walk_edge_cases():
    fc = FullCube()
    leaves = fc.trace(3)
    # duplicate words change nothing
    assert is_cover_at_depth(fc, leaves + leaves, 3)
    dup = Cover(("0", "0", "1", "1"), ((0, 2), (2, 4)))
    assert verify_gamma_groupable(fc, dup, 1, 3).group_failures == (0, 1)
    # words longer than the depth are ignored
    assert not is_cover_at_depth(fc, fc.trace(4), 3)
    assert is_cover_at_depth(fc, fc.trace(4) + ["0", "1"], 3)
    # the empty word covers everything, at every depth including 0
    assert is_cover_at_depth(CISet(evens()), [""], 0)
    assert not is_cover_at_depth(fc, ["0", "1"], 0)
    assert verify_lambda(fc, Cover(("", "0", "")), 2, 4).holds
    # empty groups and families stay uncovered
    gappy = Cover(("",) + tuple(leaves), ((0, 1), (1, 1), (1, 9)))
    v = verify_gamma_groupable(fc, gappy, 5, 3)
    assert v.group_failures == (1,) and v.j0 == 2 and v.holds
    p = verify_combPnull_witness(fc, [Fraction(1)] * 3, [("",), (), ("",)],
                                 lambda k: 9, 2, 3)
    assert p.coverage_failures == (1,) and p.n0 == 2
    d = verify_combDnull_witness(fc, [Fraction(1)] * 3, (0, 2), {0: (), 2: ("",)},
                                 lambda k: 9, 2, 3)
    assert d.coverage_failures == (0,) and d.n0 == 2
    # a horizon beyond the cover length fails at the first empty tail
    lam = verify_lambda(fc, Cover(("", "")), 5, 3)
    assert lam.failure_index == 2
    # zero groups: nothing to hold
    z = verify_gamma_groupable(fc, Cover((), ()), 4, 3)
    assert (z.status, z.j0, z.horizon, z.group_failures) == ("fails", None, -1, ())
    zp = verify_combPnull_witness(fc, [], [], lambda k: 9, 4, 3)
    assert not zp.holds and zp.n0 is None and zp.coverage_failures == ()
    # a cover missing one leaf fails, and so does every tail past that
    # leaf's last listing
    for i, miss in enumerate(leaves):
        holey = tuple(w for w in leaves if w != miss)
        assert not is_cover_at_depth(fc, holey, 3)
        lam = verify_lambda(fc, Cover(tuple(leaves) + holey), 9, 3)
        assert lam.failure_index == i + 1


def test_walk_budget_charge():
    e = CISet(periodic_ispec("", "100"))
    cover = Cover(tuple(e.trace(4) + e.trace(6) + e.trace(9)))
    prefixes = {w[:k] for w in cover.elements for k in range(len(w) + 1)}
    b = Budget()
    assert verify_lambda(e, cover, 8, 9, b).holds
    assert 0 < b.used <= len(prefixes)
    # the charge does not depend on what earlier calls left in the caches
    b2 = Budget()
    verify_lambda(e, cover, 8, 9, b2)
    assert b2.used == b.used
    with pytest.raises(ResourceLimitError):
        verify_lambda(e, cover, 8, 9, Budget(3))


def test_many_single_word_groups_and_a_long_horizon():
    r = random.Random(300)
    n = 9
    e = ExplicitSet(["011010011", "011010110", "011011000", "011011111"])
    trace = e.trace(n)
    # 300 single-word groups at depth 6, repeats included: the trace splits
    # at depth 6, so none covers, and the pair appended after them does
    words = [r.choice(("011010", "011011", format(r.getrandbits(6), "06b")))
             for _ in range(300)]
    groups = [(w,) for w in words]
    b = Budget()
    got = _covered_groups(e, groups, n, b)
    assert got == covering_groups_by_words(trace, groups, n) == 0
    groups += [("011010", "011011")]
    b = Budget()
    got = _covered_groups(e, groups, n, b)
    assert got == covering_groups_by_words(trace, groups, n) == 1 << 300
    assert b.used == cover_walk_charge(trace, groups, n)
    # a lambda check with horizon 300: one single-word tag per element; past
    # element 150 nothing covers "011011111" any more
    stray = lambda: format(r.getrandbits(n + 1), "010b")[:r.randint(1, n + 1)]
    elements = tuple(r.choice(trace)[:r.randint(2, n)] if r.random() < 0.8 else stray()
                     for _ in range(150))
    elements += tuple(r.choice(trace[:3]) if r.random() < 0.8 else stray()
                      for _ in range(170))
    tails = [elements[j:] for j in range(301)]
    want = covering_groups_by_words(trace, tails, n)
    fail = next((j for j in range(301) if not want >> j & 1), None)
    assert 0 < fail < 300
    b = Budget()
    lam = verify_lambda(e, Cover(elements), 300, n, b)
    assert lam.failure_index == fail
    assert b.used == cover_walk_charge(trace, tails, n)


def test_deep_cover_check():
    r = random.Random(4000)
    words = [format(r.getrandbits(4000), "04000b") for _ in range(2)]
    e = ExplicitSet(words)
    assert is_cover_at_depth(e, words, 4000)
    assert not is_cover_at_depth(e, words[:1], 4000)
    assert verify_lambda(e, Cover(tuple(words * 2)), 2, 4000).holds
    lam = verify_lambda(e, Cover(tuple(words + words[:1])), 2, 4000)
    assert lam.failure_index == 2


def test_dense_chunks_match_closed_forms_and_the_set_sweep():
    # the fold masks: _FOLD[j] marks the chunk bits at multiples of 2^j
    assert _FOLD == tuple(sum(1 << i for i in range(0, 1 << CHUNK_BITS, 1 << j))
                          for j in range(CHUNK_BITS + 1))
    # many nodes per chunk: the whole depth-(C + 2) trace of the cube as one
    # group expands every node above it, and one word short it fails
    n = CHUNK_BITS + 2
    words = all_words(n)
    b = Budget()
    assert is_cover_at_depth(FullCube(), words, n, b)
    assert b.used == (1 << n) - 1
    r = random.Random(19)
    del words[r.randrange(len(words))]
    assert not is_cover_at_depth(FullCube(), words, n)
    # a gamma cover C + 8 deep over a block-constraint set: the traces at
    # depths 3, 9 and 13, the last a word short, then the whole trace there
    depth = CHUNK_BITS + 8
    blocks = [sorted(r.sample(all_words(6), 24)) for _ in range(3)]
    e = BlockConstraintSet([0, 6, 12, 18], blocks)
    assert depth == 18 and len(e.trace(depth)) == 24 ** 3
    groups = [e.trace(3), e.trace(9), e.trace(13), e.trace(depth)]
    del groups[2][r.randrange(len(groups[2]))]
    spans = [(sum(map(len, groups[:j])), sum(map(len, groups[:j + 1]))) for j in range(4)]
    cover = Cover(tuple(w for g in groups for w in g), tuple(spans))
    got, want = Budget(), Budget()
    v = verify_gamma_groupable(e, cover, 3, depth, got)
    mask = covering_groups_sets(e, [(1 << j, g) for j, g in enumerate(groups)], depth, want)
    assert mask == 0b1011
    assert (v.holds, v.j0, v.group_failures) == (True, 3, (2,))
    assert got.used == want.used
