import random
from fractions import Fraction

import pytest

from oracles import (min_cover_count_arbitrary, min_cylinder_cover_cost,
                     separation_count, verify_code_modulus)

from cantordim.errors import BuildError, ResourceLimitError, SpecFormatError
from cantordim.hfun import multiply, power_hfn, power_log_hfn, table_hfn
from cantordim.measures import (BlockCode, CIProductMass, Filtration,
                                TableMass, UniformMass, _ci_mass_exact,
                                box_content_sequence,
                                box_dimensions, chain_check, covering_number,
                                dbox_on_filtration, extract_optimal_cover,
                                hausdorff_measure_delta,
                                increasing_sets_split, lipschitz_image_check,
                                mass_lower_certificate,
                                product_inequality_check, sparse_I_builder,
                                trivial_filtration)
from cantordim.specio import parse_hfn
from cantordim.treeset import (Budget, CISet, CylinderUnionSet, ExplicitSet,
                               FullCube, ProductSet, UnionSet)
from cantordim.words import all_words, evens, odds, periodic_ispec


def test_covering_numbers(battery):
    fc, ce = battery["full_cube"], battery["ci_evens"]
    for n in range(0, 10):
        assert covering_number(fc, n) == 1 << n
    # C_I count equals 2^|n \ I| exactly
    for name in ("ci_evens", "ci_odds", "ci_thirds", "ci_preperiod", "ci_blocks"):
        e = battery[name]
        for n in (4, 9, 33, 64):
            assert covering_number(e, n) == 1 << e.ispec.complement_count(n)
    # products multiply covering numbers
    p = ProductSet(ce, battery["ci_odds"])
    for n in (3, 6):
        assert covering_number(p, 2 * n) == \
            covering_number(ce, n) * covering_number(battery["ci_odds"], n)


def test_covering_number_is_minimal_cover_size(battery):
    # ultrametric normal form against the arbitrary-subset exact cover search
    for name in ("ci_evens", "random_a", "two_point", "union_two"):
        e = battery[name]
        pts = e.trace(4)
        for scale in (1, 2, 3):
            assert covering_number(e, scale) == min_cover_count_arbitrary(pts, scale), name


def test_separation_equals_covering(battery):
    for name in ("ci_evens", "random_a", "two_point"):
        e = battery[name]
        pts = e.trace(4)
        for scale in (1, 2, 3):
            assert separation_count(pts, scale) == covering_number(e, scale)


def test_fullcube_normalization():
    fc, r1 = FullCube(), power_hfn(1)
    for m in range(0, 9):
        b = hausdorff_measure_delta(fc, r1, m, 16)
        assert b.lower == b.upper == 1
        assert b.lower_source == "mass" and b.mass_exact


def test_ci_upper_formula():
    ce, r1 = CISet(evens()), power_hfn(1)
    for n in range(2, 17):
        b = hausdorff_measure_delta(ce, r1, n, n)
        assert b.upper == Fraction(1, 1 << (n - n // 2))


def test_singleton_bounds():
    s = ExplicitSet(["0101"])
    for h in (power_hfn(1), power_hfn(Fraction(1, 2))):
        b = hausdorff_measure_delta(s, h, 2, 20)
        assert b.lower == 0 and b.upper <= h.hi_at(20)


def test_dp_against_bruteforce_oracle(rng):
    h = table_hfn([Fraction(1, n + 1) for n in range(10)])
    r1 = power_hfn(1)
    # r^(1/2) samples over 2^64 and 2^128, and an interval table whose lo and
    # hi sides have unrelated denominators
    halves = [power_hfn(Fraction(1, 2), precision=p) for p in (64, 128)]
    interval = parse_hfn({"table_lo": [f"1/{n + 2}" for n in range(10)],
                          "table_hi": [f"2/{2 * n + 3}" for n in range(10)]})
    assert interval.lo != interval.hi
    assert halves[0].hi_at(3) != halves[1].hi_at(3)

    def check(e, words, depth, gauge, m, where):
        got = hausdorff_measure_delta(e, gauge, m, depth)
        want = min_cylinder_cover_cost(words, gauge.hi_at, m, depth)
        assert got.upper == want, where
        # leaves priced at zero give the lower side
        free_leaves = lambda k: gauge.lo_at(k) if k < depth else Fraction(0)
        want = min_cylinder_cover_cost(words, free_leaves, m, depth)
        assert got.lower == want, where

    for trial in range(12):
        depth = rng.randint(3, 6)
        words = rng.sample(all_words(depth), rng.randint(1, 1 << (depth - 1)))
        e = ExplicitSet(words)
        for gauge in (h, r1, *halves, interval):
            for m in (0, 1, 2):
                check(e, words, depth, gauge, m, (trial, words, m, gauge.name))
    # cylinder unions whose words are prefixes of other words: the DP reads
    # the tree only to the truncation depth, where it is the trace's tree
    for trial in range(12):
        depth = rng.randint(3, 6)
        short = rng.sample(all_words(rng.randint(1, 2)), 1)
        longer = [w + x for w in short for x in rng.sample(all_words(2), 2)]
        cyls = short + longer + rng.sample(all_words(depth - 1), 3)
        c = CylinderUnionSet(cyls)
        for gauge in (h, *halves, interval):
            for m in (0, 2):
                check(c, c.trace(depth), depth, gauge, m, (trial, cyls, m, gauge.name))


def test_extract_cover_examples():
    fc, r1 = FullCube(), power_hfn(1)
    cover, cost = extract_optimal_cover(fc, r1, 0, 8)
    assert cover == [""] and cost == 1
    ce = CISet(evens())
    cover, cost = extract_optimal_cover(ce, r1, 2, 6)
    assert cost <= Fraction(1, 2)
    two = ExplicitSet(["000000", "111111"])
    cover, cost = extract_optimal_cover(two, r1, 1, 6)
    assert cover == ["000000", "111111"] and cost == 2 * Fraction(1, 64)


def test_extract_cover_matches_upper(battery, gauges):
    from cantordim.covers import is_cover_at_depth
    for name in ("ci_evens", "random_a", "two_point", "sum_evens_odds"):
        e = battery[name]
        cover, cost = extract_optimal_cover(e, gauges["r1"], 2, 8)
        assert cost == hausdorff_measure_delta(e, gauges["r1"], 2, 8).upper
        assert is_cover_at_depth(e, cover, 8)


def test_mass_certificate_examples():
    fc, r1 = FullCube(), power_hfn(1)
    cert = mass_lower_certificate(fc, r1, UniformMass(), 16)
    assert cert.ok and cert.value == 1 and cert.exact
    # additivity violation pinpoints a node
    bad = TableMass({"": 1, "0": Fraction(1, 2), "1": Fraction(1, 3)})
    res = mass_lower_certificate(FullCube(), r1, bad, 2)
    assert not res.ok and res.failure == ""
    # uniform mass on a non-branching set fails additivity
    res2 = mass_lower_certificate(ExplicitSet(["0000"]), r1, UniformMass(), 4)
    assert not res2.ok


def test_sparse_builder_certificate():
    h = power_hfn(Fraction(1, 2))
    ispec = sparse_I_builder(h, 64)
    e = CISet(ispec)
    cert = mass_lower_certificate(e, h, CIProductMass(ispec), 64)
    assert cert.ok and cert.value >= 1 and cert.exact
    for m in (8, 32, 64):
        assert hausdorff_measure_delta(e, h, m, 64).upper >= cert.value


def test_mass_sweep_charges_one_node_per_lookup():
    h = power_hfn(Fraction(1, 2))
    ispec = sparse_I_builder(h, 64)
    e, mass = CISet(ispec), CIProductMass(ispec)
    cold, warm = Budget(), Budget()
    assert mass_lower_certificate(e, h, mass, 64, cold).ok
    assert mass_lower_certificate(e, h, mass, 64, warm).ok
    # C_I keeps one state per depth, and the sweep looks up each (state, d)
    # on the way to a first branch once: the 65 checked states, each
    # branching at its own depth or, at one of the 32 indices of I below
    # 64, one depth further, where the next checked state is; then each of
    # the 64 above the horizon its children once more: 65 + 64, cold or warm
    assert cold.used == warm.used == 129
    # a table mass is checked word by word: one node for each depth's
    # branch, which FullCube shares across the depth, and one for the
    # children of each word above the horizon
    for depth, used in ((4, 20), (8, 264)):
        table = {w: Fraction(1, 1 << n) for n in range(depth + 1) for w in all_words(n)}
        budget = Budget()
        assert mass_lower_certificate(FullCube(), power_hfn(1), TableMass(table),
                                      depth, budget).ok
        assert budget.used == used


def test_mass_sweep_looks_up_each_chain_once():
    # each word is a point whose zeros tail never branches; the sweep used
    # to walk that tail out to depth + 64 from every checked word (1,501
    # lookups for 24 words), and now looks up each (state, d) on the way to
    # a first branch once: 8 above depth 4, where the points meet their one
    # shared zeros tail, and 68 on it, from 4 to 71; plus the children of
    # each of the 21 words above the horizon
    words = ["0110", "1011", "1100"]
    e = ExplicitSet(words)
    table = {w: Fraction(sum(x.ljust(8, "0").startswith(w) for x in words), 3)
             for d in range(9) for w in e.trace(d)}
    budget = Budget()
    assert mass_lower_certificate(e, power_hfn(Fraction(1, 8)), TableMass(table),
                                  8, budget).ok
    assert budget.used == 8 + 68 + 21


def test_mass_sweep_reports_the_shallowest_leftmost_failure():
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    mass = TableMass({"": 1, "0": Fraction(1, 2), "1": Fraction(1, 2),
                      "00": third, "01": sixth, "10": third, "11": sixth})
    res = mass_lower_certificate(FullCube(), power_hfn(1), mass, 2)
    # both "00" and "10" outweigh h(2^-2); the sweep meets "00" first
    assert not res.ok and res.failure == "00"
    assert res.reason == "h(2^-2) < mass at [00]"


def test_mass_sweep_is_bounded_by_the_budget():
    # a zero mass never fails a check, so only the per-node charge stops
    # the walk of 2^40 words
    with pytest.raises(ResourceLimitError):
        mass_lower_certificate(FullCube(), power_hfn(1), TableMass({}), 40,
                               Budget(10_000))


def test_sparse_builder_rejects_r1():
    with pytest.raises(BuildError):
        sparse_I_builder(power_hfn(1), 64)


def test_sparse_builder_takes_a_table_deeper_than_96():
    # the reference r is built as deep as the precede window, min(depth,
    # n_max), so a 101-sample table at depth 100 is compared, not refused
    h = table_hfn([Fraction(1, 1 << n // 2) for n in range(101)])
    ispec = sparse_I_builder(h, 100)
    assert ispec.prefix == "10" * 50
    for n in range(101):
        assert Fraction(1, 1 << ispec.complement_count(n)) <= h.lo_at(n), n


def test_sparse_builder_asks_the_gauge_once_per_scale():
    # each n's test only gets harder as the count grows, so a log gauge is
    # read once per n <= depth, not once per (j, n) pair (about depth^2 / 2)
    h = power_log_hfn(Fraction(1, 2), 1)
    reads, inside = [], []
    for name in ("value", "lo_at", "hi_at"):
        def counted(n, read=getattr(h, name)):
            if not inside:  # not a read that lo_at or hi_at hands to value
                reads.append(n)
            inside.append(n)
            try:
                return read(n)
            finally:
                inside.pop()
        setattr(h, name, counted)
    sparse_I_builder(h, 96)
    assert reads == list(range(96, 0, -1))


def test_sparse_builder_log_gauge():
    h = power_log_hfn(1, 1, 96)
    ispec = sparse_I_builder(h, 64)
    e = CISet(ispec)
    # r log(1/r) dips below r at depth 1 (ratio ln 2 < 1), so the defining
    # inequality holds wherever it is feasible at all (n >= 2), and a scaled
    # mass turns that into a positive certificate
    for n in range(2, 65):
        lam = Fraction(1, 1 << ispec.complement_count(n))
        assert lam <= h.lo_at(n), n
    # h(1) clamps to h(1/2) = ln(2)/2 < 1/2, so a quarter-mass clears it
    cert = mass_lower_certificate(e, h, CIProductMass(ispec, Fraction(1, 4)), 64)
    assert cert.ok and cert.value == Fraction(1, 4)


def test_box_contents_and_dimensions(battery):
    fc = battery["full_cube"]
    rep = box_dimensions(fc, 1, 32)
    assert rep.lower_estimate == rep.upper_estimate == 1.0
    ce = battery["ci_evens"]
    repc = box_dimensions(ce, 1, 64)
    assert repc.closed_form == (Fraction(1, 2), Fraction(1, 2))
    for n, count, _ in repc.rows:
        assert abs((count.bit_length() - 1) - n / 2) <= 1  # |log2 N - n/2| <= 1
    bi = battery["ci_blocks"]
    repb = box_dimensions(bi, 1, 64)
    assert repb.closed_form == (Fraction(1, 3), Fraction(2, 3))
    assert abs(repb.lower_estimate - 1 / 3) <= 0.05
    assert abs(repb.upper_estimate - 2 / 3) <= 0.05


def test_box_dimensions_deep_single_sweep():
    rep = box_dimensions(CISet(evens()), 1, 512)
    # the free indices below n are the odd ones: n // 2 of them
    assert [(n, count) for n, count, _ in rep.rows] == [
        (n, 2 ** (n // 2)) for n in range(1, 513)]
    seq = box_content_sequence(ProductSet(FullCube(), CISet(evens())),
                               power_hfn(Fraction(3, 2), n_max=300), 250, 300)
    assert [count for _, count, _, _ in seq.entries] == [
        2 ** (n + n // 2) for n in range(250, 301)]


def test_content_sequence_window():
    seq = box_content_sequence(FullCube(), power_hfn(1), 0, 16)
    assert seq.tail_sup == seq.tail_inf == 1
    assert all(count == 1 << n for n, count, _, _ in seq.entries)


def test_dbox_on_filtration():
    fc, r1 = FullCube(), power_hfn(1)
    rep = dbox_on_filtration(Filtration((fc, fc, fc)), r1, 0, 16)
    assert rep.value == 1
    # finite sets have vanishing lower content
    pts = Filtration((ExplicitSet(["0" * 8]),
                      ExplicitSet(["0" * 8, "1" * 8]),
                      ExplicitSet(["0" * 8, "1" * 8, "01" * 4])))
    rep2 = dbox_on_filtration(pts, r1, 1, 16)
    assert rep2.value <= Fraction(3, 1 << 8)
    with pytest.raises(BuildError):
        dbox_on_filtration(Filtration((fc, ExplicitSet(["0"]))), r1, 1, 8)


def test_dbox_on_shelahn_filtration():
    # the level sets of the null-additive pipeline keep the witnessed
    # directed content at most 1
    from cantordim.ideals import (ShelahNWitness, nadd_fbuilder,
                                  shelahN_filtration)
    growth = lambda n: 1 << max(0, n - 1)
    f = nadd_fbuilder(growth, 7)
    H = tuple(("0" * f.block_width(k),) for k in range(f.block_count))
    filt = shelahN_filtration(ShelahNWitness(f, H))
    rep = dbox_on_filtration(filt, power_hfn(1), f.table[1], f.table[-1])
    assert rep.value <= 1


def test_chain_check_battery(battery, gauges):
    for name, e in battery.items():
        for gname in ("r1", "r_half"):
            rep = chain_check(e, gauges[gname], 2, 12)
            assert rep.ok, (name, gname, rep.failures)


def test_chain_dbox_witness_is_the_one_set_filtration_witness(battery, gauges):
    for e in battery.values():
        for gname in ("r1", "r_half", "harmonic"):
            for m, depth in ((0, 8), (2, 12)):
                h = gauges[gname]
                want = dbox_on_filtration(trivial_filtration(e), h, m,
                                          e.scale_of_depth(depth)).value
                assert chain_check(e, h, m, depth).dbox_witness == want


def test_chain_check_charge_is_pinned():
    # `verify chain-fullcube` and `verify chain-ci` at the default scale 8
    # and depth 32: both sets keep one state per depth, so the DP looks up
    # 32 transitions, and the one trace-count sweep of the content
    # sequence, which also yields the dbox witness, 32 more
    for e, h in ((FullCube(), power_hfn(1)),
                 (CISet(evens()), power_hfn(Fraction(1, 2)))):
        bud = Budget()
        assert chain_check(e, h, 8, 32, budget=bud).ok
        assert bud.used == 64


def test_chain_fullcube_all_ones():
    rep = chain_check(FullCube(), power_hfn(1), 0, 16)
    assert rep.ok
    assert rep.h_bounds.lower == rep.h_bounds.upper == 1
    assert rep.dbox_witness == 1 and rep.ubox_tail_sup == 1


def test_chain_singleton_vanishes():
    rep = chain_check(ExplicitSet(["0" * 6]), power_hfn(1), 1, 16)
    assert rep.ok
    assert rep.h_bounds.upper <= Fraction(1, 1 << 16)
    assert rep.ubox_tail_sup <= Fraction(1, 1 << 8)


def test_monotonicity_in_scale_and_depth(battery, gauges):
    h = gauges["r1"]
    for name in ("ci_evens", "random_a", "sum_evens_odds"):
        e = battery[name]
        prev = None
        for m in range(0, 6):
            b = hausdorff_measure_delta(e, h, m, 10)
            if prev is not None:
                assert b.lower >= prev.lower and b.upper >= prev.upper
            prev = b
        shallow = hausdorff_measure_delta(e, h, 2, 8)
        deep = hausdorff_measure_delta(e, h, 2, 12)
        assert deep.upper <= shallow.upper and deep.lower >= shallow.lower


def test_subadditivity_at_fixed_scale(battery, gauges):
    h = gauges["r_half"]
    a, b = battery["random_a"], battery["random_b"]
    u = UnionSet([a, b])
    ua = hausdorff_measure_delta(a, h, 2, 8).upper
    ub = hausdorff_measure_delta(b, h, 2, 8).upper
    uu = hausdorff_measure_delta(u, h, 2, 8).upper
    assert uu <= ua + ub


def test_certificate_below_uppers(battery, gauges):
    # mass certificate soundness against every DP upper bound; odds is the
    # carrier whose complement count ceil(n/2) dominates n/2 at every depth
    e, h = battery["ci_odds"], gauges["r_half"]
    cert = mass_lower_certificate(e, h, CIProductMass(e.ispec), 32)
    assert cert.ok and cert.exact
    for m in range(1, 33, 6):
        assert hausdorff_measure_delta(e, h, m, 32).upper >= cert.value
    # and the evens carrier genuinely fails for r^(1/2): the root piece has
    # diameter 1/2 while the mass there is 1
    bad = mass_lower_certificate(battery["ci_evens"], h,
                                 CIProductMass(battery["ci_evens"].ispec), 32)
    assert not bad.ok and bad.failure == ""


def test_product_inequality_checks():
    ce, co = CISet(evens()), CISet(odds())
    rh = power_hfn(Fraction(1, 2))
    rep = product_inequality_check(ce, co, rh, rh, 1, 12)
    assert rep.ok and rep.counting_exact and rep.finite_order_ok
    # homogeneous case: the content identity is an exact equality
    rep2 = product_inequality_check(FullCube(), FullCube(), rh, rh, 1, 10)
    assert rep2.ok
    sa = box_content_sequence(FullCube(), rh, 1, 10)
    sp = box_content_sequence(ProductSet(FullCube(), FullCube()),
                              power_hfn(1), 1, 10)
    assert sp.tail_sup == sa.tail_sup * sa.tail_sup
    rep3 = product_inequality_check(ce, FullCube(), rh, power_hfn(1), 1, 10,
                                    m=1, depth=16)
    assert rep3.transport_ok and rep3.lower_product_ok


def random_plain_pair(rng):
    """Two plain factors, a gauge for each and a scale range lo..hi."""
    a, b = (rng.choice([FullCube(), CISet(periodic_ispec("", rng.choice(
        ["10", "01", "100", "110"]))), ExplicitSet(
        rng.sample(all_words(4), rng.randint(1, 8)), tail=rng.choice(
            ["zeros", "free"]))]) for _ in range(2))
    h, g = (rng.choice([power_hfn(Fraction(1, 2)), power_hfn(1), power_hfn(Fraction(1, 3)),
                        table_hfn([Fraction(1, n + 1) for n in range(97)])])
            for _ in range(2))
    lo = rng.randint(0, 3)
    return a, b, h, g, lo, lo + rng.randint(0, 6)


def test_product_check_constants_are_pinned(rng):
    half = power_hfn(Fraction(1, 2))
    rep = product_inequality_check(CISet(evens()), CISet(odds()), half, half, 1, 12)
    assert rep.empirical_c_upper == 1
    assert rep.empirical_c_directed == Fraction(
        7519249036500140985782305389925783029,
        10633823966279326983230456482242756608)
    # on random plain sets the constants are the ratios of the factors'
    # directed box witnesses to the product's window statistics
    for _ in range(12):
        a, b, h, g, lo, hi = random_plain_pair(rng)
        rep = product_inequality_check(a, b, h, g, lo, hi)
        na, nb = a.trace_counts(hi), b.trace_counts(hi)
        nprod = ProductSet(a, b).trace_counts(2 * hi)
        assert rep.counting_exact == all(nprod[2 * n] == na[n] * nb[n]
                                         for n in range(lo, hi + 1))
        seq_a = box_content_sequence(a, h, lo, hi)
        seq_p = box_content_sequence(ProductSet(a, b), multiply(h, g), lo, hi)
        dbox_a = dbox_on_filtration(trivial_filtration(a), h, lo, hi).value
        dbox_b = dbox_on_filtration(trivial_filtration(b), g, lo, hi).value
        want_upper = (seq_a.tail_sup * dbox_b / seq_p.tail_sup
                      if seq_p.tail_sup > 0 else None)
        want_directed = (dbox_a * dbox_b / seq_p.tail_inf
                         if seq_p.tail_inf > 0 else None)
        assert (rep.empirical_c_upper, rep.empirical_c_directed) == \
            (want_upper, want_directed)


def test_product_check_charge_is_pinned():
    # the `verify howroyd-i` instance, one node per transition lookup: 60
    # in four trace-count sweeps (B for the transported cost, then A, B
    # and A x B for their content sequences) and 60 in the three DPs and
    # the cover extraction (12, 12, 24 and 12); the transported cost reads
    # each cover word's scale off its length
    half = power_hfn(Fraction(1, 2))
    bud = Budget()
    product_inequality_check(CISet(evens()), CISet(odds()), half, half, 1, 12,
                             budget=bud)
    assert bud.used == 120


def test_transported_cost_reads_scales_off_the_cover_words():
    # the cost the product check transports from A's optimal cover equals
    # the sum priced at each word's local diameter, capped at the depth
    rng = random.Random(13)
    for _ in range(40):
        a, b, h, g, lo, hi = random_plain_pair(rng)
        depth = hi + rng.randint(0, 4)
        rep = product_inequality_check(a, b, h, g, lo, hi, depth=depth)
        nb = b.trace_counts(depth)
        want = Fraction(0)
        for word in extract_optimal_cover(a, h, lo, depth)[0]:
            diam = a.local_diameter(word, depth + 64)
            scale = min(diam.scale if not diam.is_point_to_depth else depth, depth)
            want += h.hi_at(scale) * g.hi_at(scale) * nb[scale]
        assert rep.details["transported"] == want


def test_product_xn_instance():
    # a null factor kills the product measure (finite-depth instance)
    ce = CISet(evens())
    r1 = power_hfn(1)
    p = ProductSet(ce, ce)
    b = hausdorff_measure_delta(p, power_hfn(2), 8, 32)
    factor = hausdorff_measure_delta(ce, r1, 8, 16)
    assert b.upper <= factor.upper  # product of two copies stays below one factor


def test_lipschitz_checks():
    fc, r1 = FullCube(), power_hfn(1)
    assert lipschitz_image_check(fc, BlockCode(), r1, 2, 10).ok
    rep = lipschitz_image_check(fc, BlockCode(1), r1, 3, 10)
    assert rep.ok  # image bound <= the source bound under (2 r)^1
    rep2 = lipschitz_image_check(CISet(evens()), BlockCode(0, 2),
                                 power_hfn(Fraction(1, 2)), 3, 8)
    assert rep2.ok
    assert verify_code_modulus(CISet(evens()), BlockCode(0, 2), 5)
    assert verify_code_modulus(FullCube(), BlockCode(1), 4)
    assert verify_code_modulus(CISet(odds()), BlockCode(2, 3), 6)


def test_shift_check_is_not_failed_by_rounding():
    # the source is priced with the samples the image is priced with, so
    # no rounding can put the image bound above the transported one
    assert lipschitz_image_check(CISet(evens()), BlockCode(1, 1),
                                 power_hfn(Fraction(2, 3)), 4, 10).ok


@pytest.mark.parametrize("h", [power_log_hfn(1, 1),
                               table_hfn([Fraction(1, n + 1) for n in range(97)])])
@pytest.mark.parametrize("code", [BlockCode(1), BlockCode(0, 2)])
def test_image_checks_take_log_and_table_gauges(h, code):
    assert lipschitz_image_check(CISet(evens()), code, h, 3, 10).ok


@pytest.mark.parametrize("k, c", [(-1, 1), (0, 0), (0, -2), (1.5, 1), (0, "2"),
                                  (True, 1)])
def test_out_of_range_codes_are_refused(k, c):
    with pytest.raises(SpecFormatError):
        BlockCode(k, c)


@pytest.mark.parametrize("k, m", [(1, 1), (2, 2), (3, 1)])
def test_image_check_needs_a_scale_past_the_dropped_bits(k, m):
    with pytest.raises(SpecFormatError):
        lipschitz_image_check(FullCube(), BlockCode(k), power_hfn(1), m, 10)


def test_increasing_sets_split():
    fc, r1 = FullCube(), power_hfn(1)
    filt = increasing_sets_split(fc, r1, Fraction(2), 16)
    assert len(filt) == 1
    with pytest.raises(BuildError):
        increasing_sets_split(fc, r1, Fraction(1, 2), 16)


def test_increasing_sets_split_shelahn():
    from cantordim.ideals import (BlockPartition, ShelahNWitness,
                                  shelahN_filtration)
    f = BlockPartition((0, 2, 4, 6, 8, 10))
    fams = tuple(("0" * f.block_width(k),) for k in range(f.block_count))
    w = ShelahNWitness(f, fams)
    filt = shelahN_filtration(w)
    top = filt.sets[-1]
    out = increasing_sets_split(top, power_hfn(1), Fraction(2), 10, candidate=filt)
    assert len(out) == len(filt)


def test_dp_deep_without_recursion():
    r1 = power_hfn(1)
    # the optimal r^1 cover of C_evens is its deepest trace: 2^-|3000 cap I|
    ce = hausdorff_measure_delta(CISet(evens()), r1, 8, 3000)
    assert ce.upper == Fraction(1, 1 << 1500) and ce.lower == 0
    fc = hausdorff_measure_delta(FullCube(), r1, 0, 3000)
    assert fc.lower == fc.upper == 1 and fc.lower_source == "mass"
    assert extract_optimal_cover(FullCube(), r1, 0, 3000) == ([""], 1)


def test_dp_budget_charges_are_pinned():
    # one node per transition lookup, cached or not, with one automaton
    # state per distinct set of suffixes left to read; the DP looks up each
    # reachable (state, d) with d < depth once, as trace_counts(depth) does,
    # and extraction reads the DP's table and adds one node per child piece
    # it splits into, 2 * (len(cover) - 1)
    rng = random.Random(20)
    words = sorted(format(i, "012b") for i in rng.sample(range(1 << 12), 300))
    half = power_hfn(Fraction(1, 2))
    b = Budget()
    hausdorff_measure_delta(ExplicitSet(words), half, 3, 12, b)
    assert b.used == 379
    b = Budget()
    cover, _ = extract_optimal_cover(ExplicitSet(words), half, 3, 12, b)
    assert b.used == 393 and len(cover) == 8
    # "0" and "1" have the distinct suffix sets {"0", "01"} and {"0"}
    c = CylinderUnionSet(["00", "001", "10", "110"])
    b = Budget()
    hausdorff_measure_delta(c, half, 1, 9, b)
    assert b.used == 11
    b = Budget()
    assert extract_optimal_cover(c, half, 1, 9, b)[0] == ["00", "1"]
    assert b.used == 13


def test_dp_cache_misses_once_the_gauge_store_rescales():
    # a deeper read of the gauge rescales its whole store to a larger common
    # denominator: a DP priced over the old numerators must not be reused
    e, h = FullCube(), power_hfn(Fraction(1, 3))
    first = hausdorff_measure_delta(e, h, 0, 8)
    den = h.numerators(8)[0]
    assert h.numerators(3000)[0] > den
    assert hausdorff_measure_delta(e, h, 1, 8) == hausdorff_measure_delta(FullCube(), h, 1, 8)
    assert hausdorff_measure_delta(e, h, 0, 8) == first


def test_cached_dp_runs_out_of_budget_where_a_cold_one_does():
    # a warm call charges its recorded sweep in one spend, stopping at the
    # node where the cold sweep's lookups exceed the limit
    h = power_hfn(Fraction(1, 2))
    warm_set = CISet(evens())
    hausdorff_measure_delta(warm_set, h, 1, 40)
    for limit in (0, 7, 39):
        runs = []
        for e in (CISet(evens()), warm_set):
            b = Budget(limit)
            with pytest.raises(ResourceLimitError) as err:
                hausdorff_measure_delta(e, h, 2, 40, b)
            runs.append((b.used, str(err.value)))
        assert runs[0] == runs[1] and runs[0][0] == limit + 1
    b = Budget(40)
    hausdorff_measure_delta(warm_set, h, 2, 40, b)
    assert b.used == 40


def test_extraction_charges_the_cover_it_builds():
    # the DP prices FullCube in about 2 * depth nodes, but with children
    # cheaper than their parent the optimal cover is every depth-16 word
    assert len(extract_optimal_cover(FullCube(), power_hfn(2), 0, 16)[0]) == 1 << 16
    b = Budget(10_000)
    with pytest.raises(ResourceLimitError):
        extract_optimal_cover(FullCube(), power_hfn(2), 0, 16, b)
    assert b.used <= 10_002


def test_ci_mass_exact_matches_fraction_scan():
    rng = random.Random(7)
    for trial in range(200):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        period = "".join(rng.choice("01") for _ in range(rng.randint(1, 5))) + "1"
        ispec = periodic_ispec(pre, period)
        s = Fraction(rng.randint(1, 7), rng.randint(1, 8))
        want = (Fraction(period.count("0"), len(period)) >= s
                and all(ispec.complement_count(n) >= s * n
                        for n in range(len(pre) + 2 * len(period) + 1)))
        got = _ci_mass_exact(CISet(ispec), power_hfn(s, n_max=2))
        assert got == want, (pre, period, s)
