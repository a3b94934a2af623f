import random
from fractions import Fraction

import pytest
from hypothesis import settings

from cantordim.hfun import power_hfn, table_hfn
from cantordim.treeset import (CISet, ExplicitSet, FullCube, ProductSet,
                               SumSet, UnionSet)
from cantordim.words import (all_words, evens, geometric_blocks, odds,
                             periodic_ispec)

# Property tests draw the same examples on every run, so the suite stays
# deterministic and its running time bounded.
settings.register_profile("deterministic", derandomize=True, max_examples=150,
                          deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xC0FFEE)


def random_explicit(rng, depth=6, tail="zeros"):
    count = rng.randint(1, 1 << (depth - 1))
    words = rng.sample(all_words(depth), count)
    return ExplicitSet(words, tail=tail)


@pytest.fixture(scope="session")
def battery():
    """The fixed instance battery used across invariant tests."""
    r = random.Random(1234)
    sets = {
        "full_cube": FullCube(),
        "ci_evens": CISet(evens()),
        "ci_odds": CISet(odds()),
        "ci_thirds": CISet(periodic_ispec("", "100")),
        "ci_preperiod": CISet(periodic_ispec("11", "10")),
        "ci_blocks": CISet(geometric_blocks(1, 2, 4)),
        "sum_evens_odds": SumSet(CISet(evens()), CISet(odds())),
        "sum_evens_evens": SumSet(CISet(evens()), CISet(evens())),
        "union_two": UnionSet([ExplicitSet(["0011"]), ExplicitSet(["1100"])]),
        "singleton": ExplicitSet(["000000"]),
        "two_point": ExplicitSet(["000000", "111111"]),
        "random_a": random_explicit(r),
        "random_b": random_explicit(r),
        "prod_evens_odds": ProductSet(CISet(evens()), CISet(odds())),
        "prod_full_evens": ProductSet(FullCube(), CISet(evens())),
    }
    return sets


@pytest.fixture(scope="session")
def gauges():
    return {
        "r1": power_hfn(1),
        "r_half": power_hfn(Fraction(1, 2)),
        "r_third": power_hfn(Fraction(1, 3)),
        "harmonic": table_hfn([Fraction(1, n + 1) for n in range(97)]),
    }
