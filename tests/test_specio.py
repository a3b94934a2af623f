import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordim import specio
from cantordim.covers import Cover
from cantordim.errors import ResourceLimitError, SpecFormatError
from cantordim.ideals import (BlockPartition, EventualPoint, ShelahMWitness,
                              ShelahNWitness, TPrimeWitness)


def test_set_roundtrip():
    specs = [
        {"kind": "full_cube"},
        {"kind": "ci", "I": {"preperiod": "1", "period": "10"}},
        {"kind": "ci", "I": {"blocks": {"c": 1, "d": 2, "q": 4}}},
        {"kind": "ci", "I": {"blocks": {"c": 1, "d": 2, "q": 4}, "prefix": "101"}},
        {"kind": "ci", "I": {"prefix": "", "powers": {"c": 1, "q": 4}}},
        {"kind": "block_constraint", "boundaries": [0, 2, 4],
         "blocks": [["00", "11"], None]},
        {"kind": "explicit", "words": ["0011", "1100"], "tail": "zeros"},
        {"kind": "explicit", "words": ["010", "111"], "tail": "free"},
        {"kind": "cylinder_union", "cylinders": ["0", "10", "1101"]},
        {"kind": "sumset", "a": {"kind": "full_cube"},
         "b": {"kind": "ci", "I": {"preperiod": "", "period": "10"}}},
        {"kind": "product", "a": {"kind": "full_cube"}, "b": {"kind": "full_cube"}},
        {"kind": "union", "members": [{"kind": "explicit", "words": ["01"], "tail": "zeros"},
                                      {"kind": "explicit", "words": ["10"], "tail": "zeros"}]},
    ]
    for d in specs:
        e = specio.parse_set(d)
        e2 = specio.parse_set(specio.set_to_dict(e))
        assert e.trace(6) == e2.trace(6)
        assert specio.set_to_dict(e2) == specio.set_to_dict(e)


def test_set_kinds_without_a_format_are_not_written():
    from cantordim.measures import BlockCode
    from cantordim.treeset import FullCube
    for image in (BlockCode(1).image(FullCube()), BlockCode(0, 2).image(FullCube())):
        with pytest.raises(SpecFormatError):
            specio.set_to_dict(image)


def test_set_parse_errors_carry_location():
    with pytest.raises(SpecFormatError) as exc:
        specio.parse_set({"kind": "sumset", "a": {"kind": "full_cube"},
                          "b": {"kind": "nope"}})
    assert "set.b" in str(exc.value)
    with pytest.raises(SpecFormatError):
        specio.parse_set({"kind": "ci", "I": {}})
    with pytest.raises(SpecFormatError):
        specio.parse_set([])


def test_hfn_roundtrip():
    h = specio.parse_hfn({"symbolic": {"s": "2/3", "t": "0"}})
    assert h.symbolic.s == Fraction(2, 3)
    h2 = specio.parse_hfn(specio.hfn_to_dict(h))
    assert h2.symbolic == h.symbolic
    t = specio.parse_hfn({"table": ["1", "1/2", "1/4"]})
    assert t.value(2) == (Fraction(1, 4), Fraction(1, 4))
    t2 = specio.parse_hfn(specio.hfn_to_dict(t))
    assert t2.lo == t.lo
    lg = specio.parse_hfn({"symbolic": {"s": "1", "t": "1"}, "n_max": 40})
    assert lg.symbolic.t == 1 and lg.n_max == 40
    with pytest.raises(SpecFormatError):
        specio.parse_hfn({"table": ["1", "x"]})
    with pytest.raises(SpecFormatError):
        specio.parse_hfn({})


def test_hfn_roundtrip_keeps_n_max_and_interval_tables():
    from cantordim.hfun import DEFAULT_N_MAX, multiply, power_log_hfn
    lg = power_log_hfn(Fraction(1, 2), 1, n_max=20)
    d = specio.hfn_to_dict(lg)
    assert d["n_max"] == 20
    lg2 = specio.parse_hfn(d)
    assert lg2.n_max == 20 and lg2.lo == lg.lo and lg2.hi == lg.hi
    # the default table depth is left implicit
    assert "n_max" not in specio.hfn_to_dict(specio.parse_hfn({"symbolic": {"s": "1"}}))
    assert specio.parse_hfn({"symbolic": {"s": "1"}}).n_max == DEFAULT_N_MAX
    # a product with a table is not exact at every sample: it travels as
    # an interval table and comes back with the same bounds
    mixed = multiply(power_log_hfn(1, 1, n_max=12),
                     specio.parse_hfn({"table": ["1"] * 13}))
    dm = specio.hfn_to_dict(mixed)
    assert set(dm) == {"table_lo", "table_hi"}
    mixed2 = specio.parse_hfn(dm)
    assert mixed2.lo == mixed.lo and mixed2.hi == mixed.hi
    with pytest.raises(SpecFormatError) as exc:
        specio.parse_hfn({"table_lo": ["1"]})
    assert "table_hi" in str(exc.value)
    with pytest.raises(SpecFormatError) as exc:
        specio.parse_hfn({"table_lo": ["1", "1/2"], "table_hi": ["1", "x"]})
    assert "hfn.table_hi[1]" in str(exc.value)
    with pytest.raises(SpecFormatError):
        specio.parse_hfn({"table_lo": ["1/2"], "table_hi": ["1/4"]})


def test_hfn_roundtrip_keeps_table_precision():
    from cantordim.hfun import multiply, power_log_hfn, table_hfn
    t = table_hfn(["1", "1/2"], 64)
    assert specio.parse_hfn(specio.hfn_to_dict(t)).precision == 64
    mixed = multiply(power_log_hfn(1, 1, n_max=1, precision=64),
                     table_hfn(["1", "1/2"], 64))
    d = specio.hfn_to_dict(mixed)
    assert "table_lo" in d and specio.parse_hfn(d).precision == 64
    # the default precision is left implicit
    assert "precision_bits" not in specio.hfn_to_dict(table_hfn(["1", "1/2"]))


def test_cover_roundtrip():
    c = Cover(("0", "1", "00"), ((0, 2), (2, 3)), (Fraction(1, 2),) * 3)
    obj = specio.cover_to_obj(c)
    c2 = specio.parse_cover(obj)
    assert c2.elements == c.elements and c2.groups == c.groups and c2.eps == c.eps
    # bare-list form without groups or eps
    bare = [{"cyl": "01"}, {"cyl": "10"}]
    c3 = specio.parse_cover(bare)
    assert c3.elements == ("01", "10") and c3.groups is None
    flat = Cover(("0", "1"))
    assert specio.parse_cover(specio.cover_to_obj(flat)).elements == flat.elements
    with pytest.raises(SpecFormatError):
        specio.parse_cover([{"cyl": "0", "group": 0}, {"cyl": "1"}])
    # covers the format would read back as other covers are refused
    for unwritable in (Cover(("0", "1"), ((0, 1), (1, 1), (1, 2))),  # empty group
                       Cover(("0", "1", "00"), ((0, 2),)),  # element past the groups
                       Cover(("0",), ((0, 1),), group_offset=2)):
        with pytest.raises(SpecFormatError):
            specio.cover_to_obj(unwritable)


def test_witness_roundtrip():
    f = BlockPartition((0, 2, 4, 6))
    wm = ShelahMWitness(f, BlockPartition((0, 4, 8)), EventualPoint("01", "0"))
    wm2 = specio.parse_witness(specio.witness_to_dict(wm))
    assert wm2.f.table == wm.f.table and wm2.y == wm.y
    wn = ShelahNWitness(f, (("00",), ("01",), ("00", "11")))
    wn2 = specio.parse_witness(specio.witness_to_dict(wn))
    assert wn2.families == wn.families
    wt = TPrimeWitness(f, lambda n: n, (2,), {2: ("00",)})
    wt2 = specio.parse_witness(specio.witness_to_dict(wt))
    assert wt2.index_set == (2,) and wt2.families[2] == ("00",)
    # kind inference from fields
    inferred = specio.parse_witness({"f": [0, 2, 4, 6], "H": [["00"], ["01"]]})
    assert isinstance(inferred, ShelahNWitness)
    # block families travel in the same file format under "F"
    from cantordim.ideals import BlockFamily
    fam = BlockFamily(BlockPartition((0, 2, 4)), (("00", "11"), ("01",)))
    fam2 = specio.parse_witness(specio.witness_to_dict(fam))
    assert isinstance(fam2, BlockFamily) and fam2.families == fam.families


def test_tprime_g_roundtrip():
    d = {"f": [0, 2, 4, 6], "I": [1], "H": {"1": ["00", "01", "10"]}, "g": [5, 5, 2]}
    w = specio.parse_witness(d)
    out = specio.witness_to_dict(w)
    assert out["g"] == [0, 5]  # g(1) = 5; entries off I are not read
    w2 = specio.parse_witness(out)
    assert w2.g[1] == 5 and specio.witness_to_dict(w2) == out
    # an identity g on I is left implicit, a callable one is tabulated
    same = TPrimeWitness(w.f, (7, 1, 9), (1,), {1: ("00",)})
    assert "g" not in specio.witness_to_dict(same)
    wide = TPrimeWitness(w.f, lambda n: n + 3, (0, 2), {0: ("00",), 2: ("01",)})
    assert specio.witness_to_dict(wide)["g"] == [3, 1, 5]
    half = TPrimeWitness(w.f, lambda n: Fraction(5, 2), (1,), {1: ("00",)})
    with pytest.raises(SpecFormatError):
        specio.witness_to_dict(half)


def test_canonical_json_deterministic():
    a = specio.canonical_json({"b": 1, "a": [2, 3]})
    b = specio.canonical_json({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}\n'


# denominators that are powers of two up to 2^300, and others
dens = st.one_of(st.integers(0, 300).map(lambda k: 1 << k), st.integers(1, 10 ** 30))


@given(st.one_of(st.just(0), st.integers(-(10 ** 40), 10 ** 40),
                 st.integers(0, 300).map(lambda k: 3 << k)), dens)
def test_ratio_str_prints_the_reduced_fraction(a, den):
    assert specio.ratio_str(a, den) == str(Fraction(a, den))


@given(st.one_of(st.integers(), st.booleans(), st.fractions()))
def test_rational_str_prints_the_fraction(x):
    assert specio.rational_str(x) == str(Fraction(x))


def test_printing_past_the_digit_limit_is_a_resource_limit():
    big = 10 ** sys.get_int_max_str_digits() + 1  # odd, one digit past the limit
    for text in (lambda: specio.ratio_str(big, 1), lambda: specio.ratio_str(1, 3 * big),
                 lambda: specio.ratio_str(big << 500, 1 << 1000),
                 lambda: specio.rational_str(big), lambda: specio.rational_str(Fraction(1, big))):
        with pytest.raises(ResourceLimitError, match="number too long to print"):
            text()
    # a power-of-two den is reduced before printing
    assert specio.ratio_str(3 << 20_000, 1 << 20_001) == "3/2"
