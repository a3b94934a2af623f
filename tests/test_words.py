from fractions import Fraction

import pytest

from cantordim.errors import SpecFormatError
from cantordim.words import (ISpec, all_words, check_word, check_words,
                             deinterleave, evens, geometric_blocks,
                             geometric_powers, interleave, periodic_ispec,
                             xor_words)


def test_xor_words():
    assert xor_words("0110", "1110") == "1000"
    assert xor_words("", "") == ""
    with pytest.raises(ValueError):
        xor_words("01", "011")


def test_interleave_roundtrip():
    assert interleave("ab"[:0], "") == ""
    assert interleave("01", "1") == "011"
    assert interleave("01", "10") == "0110"
    p, q = deinterleave("0110")
    assert (p, q) == ("01", "10")
    with pytest.raises(ValueError):
        interleave("0", "01")


def test_all_words():
    assert all_words(0) == [""]
    assert len(all_words(5)) == 32


def test_periodic_membership_and_count():
    e = evens()
    assert [e.contains(i) for i in range(6)] == [True, False] * 3
    assert e.count_below(10) == 5
    assert e.complement_count(9) == 4
    pre = periodic_ispec("11", "10")
    assert [pre.contains(i) for i in range(6)] == [True, True, True, False, True, False]
    assert pre.count_below(6) == 4


def test_periodic_density():
    assert evens().complement_density_limits() == (Fraction(1, 2), Fraction(1, 2))
    assert periodic_ispec("", "1").complement_density_limits() == (0, 0)
    assert periodic_ispec("", "100").complement_density_limits() == \
        (Fraction(2, 3), Fraction(2, 3))


def test_finite_ispec_rejected():
    with pytest.raises(SpecFormatError):
        periodic_ispec("", "0")
    with pytest.raises(SpecFormatError):
        periodic_ispec("111", "")


def test_geometric_blocks():
    # I = union of [4^k, 2*4^k)
    b = geometric_blocks(1, 2, 4)
    members = [n for n in range(40) if b.contains(n)]
    assert members == [1] + list(range(4, 8)) + list(range(16, 32))
    assert b.count_below(32) == 21
    lo, hi = b.complement_density_limits()
    assert (lo, hi) == (Fraction(1, 3), Fraction(2, 3))


def test_geometric_powers():
    p = geometric_powers(3, 2)
    members = [n for n in range(30) if p.contains(n)]
    assert members == [3, 6, 12, 24]
    assert p.count_below(25) == 4
    assert p.complement_density_limits() == (1, 1)


def test_geometric_tails_count_far_out():
    # counts and membership near 10^18 against closed forms: the tail walks
    # take one step per run, where a membership string would take n bytes
    n = 10**18
    p = geometric_powers(3, 2)  # I = {3 * 2^k}; 3 * 2^k < n iff 2^k <= (n - 1) // 3
    assert p.count_below(n) == ((n - 1) // 3).bit_length() == 59
    big = 3 << 58
    assert [p.contains(m) for m in (big - 1, big, big + 1)] == [False, True, False]
    assert (p.count_below(big), p.count_below(big + 1)) == (58, 59)
    # I = union of [5^k, 4*5^k): 5^25 < n < 4*5^25, so n falls inside run 25
    b = geometric_blocks(1, 4, 5)
    assert 5**25 < n < 4 * 5**25
    assert b.count_below(n) == sum(3 * 5**k for k in range(25)) + n - 5**25
    assert b.contains(n - 1) and not b.contains(4 * 5**25)


def test_bad_specs():
    with pytest.raises(SpecFormatError):
        ISpec("", ("blocks", 2, 1, 4))
    with pytest.raises(SpecFormatError):
        ISpec("", ("powers", 0, 4))
    with pytest.raises(SpecFormatError):
        ISpec("01x", ("periodic", "1"))


def test_check_words():
    assert check_word("") == "" and check_word("0110") == "0110"
    check_words(["", "0", "0110"])
    for bad in ("012", "x", " 01", "10\n", "0\u00e9", 3, b"01", ("0", "1")):
        with pytest.raises(SpecFormatError):
            check_word(bad)
        with pytest.raises(SpecFormatError) as exc:
            check_words(["01", bad, "1"])
        assert repr(bad) in str(exc.value)
