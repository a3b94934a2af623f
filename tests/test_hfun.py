import itertools
import random
from fractions import Fraction

import pytest

from cantordim import hfun
from cantordim.errors import BuildError, DepthExceededError, SpecFormatError
from cantordim.hfun import (DyadicHFn, Symbolic, _Grid, compose,
                            diagonal_dominate, eval_at_rational, finite_order,
                            grid_index_ceil, grid_index_floor, grid_inverse,
                            hfn_from_epsilons, iroot_floor, ln2_bounds,
                            multiply, pow2_bounds, power_hfn, power_log_hfn,
                            precede, table_hfn)

POWERS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
          Fraction(1), Fraction(2)]


def test_iroot_floor():
    for x in (0, 1, 7, 63, 64, 65, 10 ** 12):
        for k in (1, 2, 3, 5):
            r = iroot_floor(x, k)
            assert r ** k <= x < (r + 1) ** k
    # roots past float range, perfect powers and their neighbours, and the
    # root of 2^(b prec + j) that an s = 1/1000 gauge takes
    cube = (2 ** 400 + 1) ** 3
    for x, k in [(cube - 1, 3), (cube, 3), (cube + 1, 3), (3 ** 5000, 7),
                 (1 << (1000 * 128 + 7), 1000)]:
        r = iroot_floor(x, k)
        assert r ** k <= x < (r + 1) ** k


def test_pow2_bounds_sound():
    rng = random.Random(3)
    for _ in range(40):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        lo, hi = pow2_bounds(q, 64)
        lo2, hi2 = pow2_bounds(q, 192)
        assert lo <= lo2 <= hi2 <= hi
        assert hi - lo <= max(hi, Fraction(1)) * Fraction(1, 1 << 20)


def test_ln2_bounds():
    lo, hi = ln2_bounds(64)
    assert lo < hi
    assert Fraction(693147, 1000000) < lo and hi < Fraction(693148, 1000000)


def _counted(monkeypatch, name, owner=hfun):
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_fresh_gauge_builds_no_sample_until_it_is_read(monkeypatch):
    built = _counted(monkeypatch, "sample", _Grid)
    h = power_log_hfn(Fraction(1, 2), 1, 10 ** 6)
    power_hfn(Fraction(2, 3), 1 << 70)
    assert built == []
    h.value(3)
    assert [n for _, n in built] == [0, 1, 2, 3]


def test_a_power_past_its_store_is_read_off_its_grid(monkeypatch):
    h = power_hfn(Fraction(1, 2))
    stored = len(h.numerators(4)[1])
    built = _counted(monkeypatch, "sample", _Grid)
    assert h.value(200_000) == pow2_bounds(Fraction(-100_000), h.precision)
    assert [n for _, n in built] == [200_000]
    assert len(h.numerators(0)[1]) == stored


@pytest.mark.parametrize("h, ns", [
    (table_hfn([Fraction(3, 2 * n + 3) for n in range(40)]), range(40)),
    # a power read past its store, which stays empty
    (power_hfn(Fraction(2, 3)), [0, 1, 7, 40, 191, 5000]),
    (power_log_hfn(Fraction(1, 2), 1, 20), range(60)),
])
def test_one_sided_reads_equal_value(monkeypatch, h, ns):
    for n in ns:
        assert (h.lo_at(n), h.hi_at(n)) == h.value(n)
    if h.symbolic and not h.symbolic.t:
        # the power's reads still go to its grid, one sample each
        built = _counted(monkeypatch, "sample", _Grid)
        assert h.lo_at(10_000) < h.hi_at(10_000)
        assert [n for _, n in built] == [10_000, 10_000]


@pytest.mark.parametrize("s", ["1/2", "2/3", "7/10", "13/7", "9/4", "3"])
@pytest.mark.parametrize("precision", [3, 128])
def test_power_table_takes_one_root_per_residue_class(monkeypatch, s, precision):
    # at precision 3 most samples take the pushed-up-exponent branch, which
    # reads the same roots
    s = Fraction(s)
    roots = _counted(monkeypatch, "iroot_floor")
    h = power_hfn(s, 96, precision)
    h.numerators(96)  # samples are built on first read, not when h is made
    residues = {-s.numerator * n % s.denominator for n in range(97)} - {0}
    assert len(roots) == len(residues) <= s.denominator - 1
    h.value(150)
    assert len(roots) == len(residues)  # deep samples reuse the table's roots


@pytest.mark.parametrize("t", [-2, 1, 2])
def test_log_gauge_takes_one_ln2_bracket(monkeypatch, t):
    brackets = _counted(monkeypatch, "ln2_bounds")
    h = power_log_hfn(Fraction(1, 2), t, 40)
    for n in range(41, 60):
        h.value(n)
    assert brackets == [(h.precision,)]
    # a second gauge pays for its own bracket: nothing is shared process-wide
    power_log_hfn(Fraction(1, 2), t, 40).value(50)
    assert len(brackets) == 2


@pytest.mark.parametrize("s,t", [("1/10", 2), ("1/20", 1), ("1/1000", 1),
                                 ("1/2", 1), ("1", 1), ("1", -1), ("2/3", 2)])
def test_log_gauges_stay_nonincreasing_past_their_table(s, t):
    h = power_log_hfn(Fraction(s), t)
    samples = [h.value(n) for n in range(h.n_max + 151)]
    for n in range(1, len(samples)):
        assert samples[n][0] <= samples[n - 1][0], (s, t, n)
        assert samples[n][1] <= samples[n - 1][1], (s, t, n)


def test_invariants_rejected():
    with pytest.raises(SpecFormatError):
        table_hfn([1, 2])            # increasing in n
    with pytest.raises(SpecFormatError):
        table_hfn([1, 0])            # zero value
    with pytest.raises(SpecFormatError):
        power_hfn(0)


def test_precede_symbolic_examples():
    # g = r^(1/2), h = r: holds exactly
    assert precede(power_hfn(Fraction(1, 2)), power_hfn(1)).holds
    assert precede(power_hfn(Fraction(1, 2)), power_hfn(1)).exact
    # identical tables stall at ratio 1
    t = table_hfn([Fraction(1, 1 << n) for n in range(65)])
    v = precede(t, t, 64)
    assert v.status == "fails" and v.index == 32
    # r against r / log(1/r), via both the symbolic and the table route;
    # the ratio is 1/(n ln 2), so tol 2^-4 clears the window at D=64 and
    # tol 2^-6 needs the deeper window starting at n=93
    assert precede(power_hfn(1), power_log_hfn(1, -1)).holds
    rlog_table = DyadicHFn(power_log_hfn(1, -1, 200).lo, power_log_hfn(1, -1, 200).hi)
    r1_table = table_hfn([Fraction(1, 1 << n) for n in range(201)])
    assert precede(r1_table, rlog_table, 64, Fraction(1, 16)).holds
    assert precede(r1_table, rlog_table, 186, Fraction(1, 64)).holds


def test_precede_strict_partial_order():
    hs = {s: power_hfn(s) for s in POWERS}
    for s in POWERS:
        assert not precede(hs[s], hs[s]).holds  # irreflexive
    for a, b in itertools.permutations(POWERS, 2):
        assert precede(hs[a], hs[b]).holds == (a < b)
    for a, b, c in itertools.permutations(POWERS, 3):
        if precede(hs[a], hs[b]).holds and precede(hs[b], hs[c]).holds:
            assert precede(hs[a], hs[c]).holds  # transitive


def test_diagonal_dominate():
    one = diagonal_dominate([power_hfn(1)])
    assert precede(power_hfn(1), one, 64).holds
    both = diagonal_dominate([power_hfn(Fraction(1, 2)), power_hfn(Fraction(1, 3))])
    assert precede(power_hfn(Fraction(1, 2)), both, 64).holds
    assert precede(power_hfn(Fraction(1, 3)), both, 64).holds
    # mixed symbolic/table input takes the damped-min route
    mixed = diagonal_dominate([power_hfn(1), table_hfn([Fraction(1, 1 << n) for n in range(80)])])
    assert precede(power_hfn(1), mixed, 64).holds
    with pytest.raises(BuildError):
        diagonal_dominate([table_hfn([Fraction(1, 2)] * 40)])  # not vanishing
    with pytest.raises(BuildError):
        diagonal_dominate([])


def test_compose_multiply_inverse():
    assert multiply(power_hfn(Fraction(1, 3)), power_hfn(Fraction(2, 3))).symbolic \
        == Symbolic(Fraction(1))
    assert compose(power_hfn(2), power_hfn(Fraction(1, 2))).symbolic == Symbolic(Fraction(1))
    gi = grid_inverse(power_hfn(2))
    for n in range(0, 20, 2):
        assert gi.value(n) == (Fraction(1, 1 << n // 2),) * 2
    # table variants
    tsq = table_hfn([Fraction(1, 1 << 2 * n) for n in range(33)])
    gi2 = grid_inverse(tsq)
    assert gi2.value(6)[0] == Fraction(1, 8)
    with pytest.raises(BuildError):
        grid_inverse(table_hfn([Fraction(1, 2)] * 10))
    comp = compose(table_hfn([Fraction(1, 1 << n) for n in range(65)]),
                   table_hfn([Fraction(1, 1 << n) for n in range(33)]))
    assert comp.value(5)[0] <= Fraction(1, 32) <= comp.value(5)[1]


def test_compose_outward_rounding_widen_only():
    h = power_hfn(Fraction(1, 2), 64)
    g = power_hfn(Fraction(1, 2), 64)
    c = compose(h, g)
    sym = compose(power_hfn(Fraction(1, 2)), power_hfn(Fraction(1, 2))).symbolic
    assert sym == Symbolic(Fraction(1, 4))
    for n in (3, 9, 17):
        exact_lo, exact_hi = power_hfn(Fraction(1, 4)).value(n)
        assert c.value(n)[0] <= exact_hi and c.value(n)[1] >= exact_lo


def test_monotonicity_of_outputs():
    outs = [
        multiply(power_hfn(Fraction(1, 2)), power_log_hfn(1, 1)),
        compose(power_log_hfn(1, 1), power_hfn(Fraction(1, 2))),
        diagonal_dominate([power_log_hfn(1, 1), power_hfn(1)]),
    ]
    for h in outs:
        for n in range(1, h.n_max + 1):
            assert h.lo[n] <= h.lo[n - 1] and h.hi[n] <= h.hi[n - 1]


def test_finite_order():
    v = finite_order(power_hfn(Fraction(1, 2)))
    assert v.holds and v.exact and v.bound >= Fraction(2) ** Fraction(1, 2) - Fraction(1, 1000)
    sq = table_hfn([Fraction(1, 1 << n * n) for n in range(65)])
    assert finite_order(sq, 64).status == "fails"
    assert finite_order(power_log_hfn(1, 1), 64).holds
    # table route for r log(1/r)
    rl = power_log_hfn(1, 1, 64)
    assert finite_order(DyadicHFn(rl.lo, rl.hi), 64).holds


def test_hfn_from_epsilons_examples():
    # eps_n = 2^-n: h(2^-n) >= 1/n, realized as roughly 1/n on the grid
    h = hfn_from_epsilons([Fraction(1, 1 << n) for n in range(1, 33)])
    for n in range(1, 33):
        assert h.lo_at(n) >= Fraction(1, n)
    # constant sequence: h(1) >= 1
    hc = hfn_from_epsilons([Fraction(1)] * 8)
    assert hc.lo_at(0) >= 1
    # eps_n = 2^-n^2 checked at the snapped evaluation points
    eps = [Fraction(1, 1 << n * n) for n in range(1, 9)]
    hq = hfn_from_epsilons(eps)
    for n, e in enumerate(eps, start=1):
        assert eval_at_rational(hq, e)[0] >= Fraction(1, n)
    # non-monotone input is sorted first
    hs = hfn_from_epsilons([Fraction(1, 4), Fraction(1, 2), Fraction(1, 16)])
    assert hs.is_vanishing


def test_outward_rounding_soundness_spot_check(rng):
    # higher-precision evaluation must stay inside the coarser interval
    for s, t in [(Fraction(1, 2), 0), (Fraction(1, 3), 0), (1, 1), (1, -1), (Fraction(2, 3), 2)]:
        sym = Symbolic(Fraction(s), t)
        coarse, fine = _Grid(sym, 96), _Grid(sym, 256)
        for _ in range(20):
            n = rng.randint(1, 80)
            lo, hi, den = coarse.sample(n)
            lo2, hi2, den2 = fine.sample(n)
            assert Fraction(lo, den) <= Fraction(lo2, den2) <= Fraction(hi2, den2) \
                <= Fraction(hi, den)


def test_grid_index_floor():
    assert grid_index_floor(Fraction(1)) == 0
    assert grid_index_floor(Fraction(1, 2)) == 1
    assert grid_index_floor(Fraction(3, 8)) == 2
    with pytest.raises(ValueError):
        grid_index_floor(Fraction(0))


def test_grid_snaps_bracket_r(rng):
    dyadic = [Fraction(1, 1 << k) for k in range(70)]
    drawn = []
    for _ in range(2000):
        q = rng.randint(1, 1 << rng.randint(1, 90))
        drawn.append(Fraction(rng.randint(1, q), q))
    for r in dyadic + drawn:
        n = grid_index_floor(r)
        assert Fraction(1, 1 << n) <= r < Fraction(2, 1 << n), r
        n = grid_index_ceil(r)
        assert Fraction(1, 2 << n) < r <= Fraction(1, 1 << n), r
    assert [grid_index_ceil(r) for r in dyadic] == list(range(70))


def test_depth_exceeded():
    short = table_hfn([1, Fraction(1, 2)])
    with pytest.raises(DepthExceededError):
        precede(short, short, 64)
    with pytest.raises(DepthExceededError):
        short.value(9)


HARMONIC = [Fraction(1, n + 1) for n in range(97)]


def test_a_derived_gauge_samples_no_operand_until_it_is_read(monkeypatch):
    h, g = power_log_hfn(1, 1), table_hfn(HARMONIC)
    reads = _counted(monkeypatch, "sample_at", DyadicHFn)
    made = [multiply(h, g), diagonal_dominate([h, g]), g.scaled(3), h.scaled(3)]
    assert reads == []
    # compose reads g where it is largest and deepest, to refuse it there
    compose(h, power_hfn(Fraction(1, 2), 8))
    assert [n for _, n in reads] == [0, 8]
    assert all(len(d._store[1]) == 0 for d in made)


def test_a_derived_gauge_reads_its_operands_as_far_as_its_store_grows(monkeypatch):
    h, g = power_hfn(Fraction(2, 3)), table_hfn(HARMONIC)
    product = multiply(h, g)
    reads = _counted(monkeypatch, "sample_at", DyadicHFn)
    product.value(12)
    assert [n for x, n in reads if x is h] == [n for x, n in reads if x is g] \
        == list(range(13))
    del reads[:]
    product.value(12)
    assert [x for x, _ in reads] == [product]  # a stored sample reads no operand
    del reads[:]
    product.value(13)  # the store doubles: samples 13..26
    assert [n for x, n in reads if x is h] == list(range(13, 27))


def test_grid_inverse_reads_each_operand_sample_a_bounded_number_of_times(monkeypatch):
    from oracles import grid_inverse_by_fractions
    g = table_hfn(HARMONIC)
    reads = _counted(monkeypatch, "sample_at", DyadicHFn)
    inverse = grid_inverse(g)
    inverse.numerators(inverse.n_max)
    engine = sum(x is g for x, _ in reads)
    del reads[:]
    grid_inverse_by_fractions(g)  # searches from j = 0 at every m
    assert engine <= 3 * (g.n_max + 1) < 8_000 < sum(x is g for x, _ in reads)


@pytest.mark.parametrize("make", [
    lambda: multiply(power_log_hfn(1, 1, 20), table_hfn(HARMONIC)),
    lambda: compose(table_hfn(HARMONIC), power_hfn(Fraction(1, 2), 20)),
    lambda: diagonal_dominate([power_hfn(1), table_hfn(HARMONIC[:21])]),
    lambda: grid_inverse(table_hfn(HARMONIC[:21])),
    lambda: power_hfn(1, 20).scaled(2),
])
def test_a_derived_gauge_is_a_table_to_its_n_max(make):
    h = make()
    assert h.symbolic is None and h.n_max == 20
    with pytest.raises(DepthExceededError, match="grid index 21 .table to 20"):
        h.value(21)
    h.value(20)  # the store holds samples 0..20 now, and still refuses 21
    with pytest.raises(DepthExceededError):
        h.numerators(21)


def test_an_unread_derived_gauge_reads_its_tail_for_the_vanishing_flag():
    flat = table_hfn([1, Fraction(1, 2)] + [Fraction(1, 4)] * 6)
    for h in (flat.scaled(2), multiply(flat, flat)):
        assert h._store[1] == [] and not h.is_vanishing
        with pytest.raises(BuildError, match="not vanishing"):
            diagonal_dominate([power_hfn(1), h])
    assert multiply(flat, power_hfn(1, 7)).is_vanishing


def test_derived_gauges_are_refused_when_they_are_made():
    g = table_hfn([Fraction(1, 1 << n) for n in range(17)])
    with pytest.raises(DepthExceededError, match="grid index 16 .table to 3"):
        compose(table_hfn([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]), g)
    with pytest.raises(ValueError):  # h o g needs g <= 1
        compose(table_hfn(HARMONIC), table_hfn([2, 1, Fraction(1, 2)]))
    with pytest.raises(BuildError, match="strictly decreasing"):
        grid_inverse(table_hfn([1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)]))
