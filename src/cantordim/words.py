"""Finite binary words and index-set specifications.

Words are plain strings over {'0','1'}.  The empty word denotes the cylinder
of the whole cube.  Index sets I (for the constraint sets ``x|I == 0``) are
given by an explicit prefix of membership bits plus an infinite tail rule, so
that membership, counting and density limits stay exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecFormatError

Word = str


def check_word(p: str) -> str:
    if not isinstance(p, str) or p.strip("01"):  # nonempty iff a non-bit remains
        raise SpecFormatError(f"not a binary word: {p!r}")
    return p


def check_words(words) -> None:
    """check_word on every word, in one C-level scan when all are valid."""
    try:
        if not "".join(words).encode("ascii").translate(None, b"01"):
            return
    except (TypeError, UnicodeEncodeError):
        pass
    for w in words:
        check_word(w)


def xor_words(p: str, q: str) -> str:
    if len(p) != len(q):
        raise ValueError("xor of words of different length")
    return "".join("1" if a != b else "0" for a, b in zip(p, q))


def interleave(p: str, q: str) -> str:
    """Merge factor words, p at even indices and q at odd indices.

    Requires len(p) in {len(q), len(q)+1} so the result is a proper prefix
    in the interleaved coding.
    """
    if len(p) - len(q) not in (0, 1):
        raise ValueError("interleave needs len(p) - len(q) in {0, 1}")
    out = []
    for i in range(len(p) + len(q)):
        out.append(p[i // 2] if i % 2 == 0 else q[i // 2])
    return "".join(out)


def deinterleave(w: str) -> tuple[str, str]:
    return w[0::2], w[1::2]


def all_words(n: int) -> list[str]:
    return [format(i, f"0{n}b") if n else "" for i in range(1 << n)]


# ---------------------------------------------------------------------------
# Index-set specifications


@dataclass(frozen=True)
class ISpec:
    """An infinite set I of natural numbers with decidable structure.

    ``prefix`` gives explicit membership bits for indices [0, len(prefix));
    the tail rule covers all larger indices:

    * ``("periodic", word)`` -- membership repeats ``word`` forever,
    * ``("powers", c, q)``   -- indices of the form c * q^k,
    * ``("blocks", c, d, q)``-- the union of intervals [c*q^k, d*q^k).

    The set must be infinite (a periodic tail needs a '1'; the other tails
    are infinite by construction).
    """

    prefix: str
    tail: tuple

    def __post_init__(self):
        check_word(self.prefix)
        kind = self.tail[0]
        if kind == "periodic":
            word = self.tail[1]
            check_word(word)
            if not word or "1" not in word:
                raise SpecFormatError("periodic I-spec needs a period containing a 1 (I must be infinite)")
        elif kind == "powers":
            _, c, q = self.tail
            if c < 1 or q < 2:
                raise SpecFormatError("powers I-spec needs c >= 1, q >= 2")
        elif kind == "blocks":
            _, c, d, q = self.tail
            if not (1 <= c < d <= c * q) or q < 2:
                raise SpecFormatError("blocks I-spec needs 1 <= c < d <= c*q and q >= 2")
        else:
            raise SpecFormatError(f"unknown I-spec tail kind {kind!r}")

    # -- membership and counting ------------------------------------------

    def _tail_runs(self):
        """A geometric tail's member runs [lo, hi), increasing and endless:
        [c*q^k, c*q^k + 1) for powers, [c*q^k, d*q^k) for blocks."""
        lo, q = self.tail[1], self.tail[-1]
        width, grow = (self.tail[2] - lo, q) if self.tail[0] == "blocks" else (1, 1)
        while True:
            yield lo, lo + width
            lo, width = lo * q, width * grow

    def contains(self, n: int) -> bool:
        return self.count_below(n + 1) > self.count_below(n)

    def members_below(self, n: int) -> str:
        """The membership bits of 0..n-1, '1' for a member, in one string."""
        if self.tail[0] == "periodic":
            word = self.tail[1]
            return (self.prefix + word * (n // len(word) + 1))[:n]
        bits = bytearray(self.prefix[:n].ljust(n, "0"), "ascii")
        start = len(self.prefix)
        for lo, hi in self._tail_runs():
            if lo >= n:
                return bits.decode()
            lo, hi = max(lo, start), min(hi, n)
            bits[lo:hi] = b"1" * (hi - lo)  # nothing when the run misses [start, n)

    def count_below(self, n: int) -> int:
        """|I  n|, the number of members below n."""
        cut = min(n, len(self.prefix))
        total = self.prefix[:cut].count("1")
        if n <= len(self.prefix):
            return total
        start = len(self.prefix)
        if self.tail[0] == "periodic":
            word = self.tail[1]
            span = n - start
            full, rem = divmod(span, len(word))
            return total + full * word.count("1") + word[:rem].count("1")
        for lo, hi in self._tail_runs():
            if lo >= n:
                return total
            total += max(0, min(hi, n) - max(lo, start))

    def complement_count(self, n: int) -> int:
        return n - self.count_below(n)

    # -- exact density limits ---------------------------------------------

    def complement_density_limits(self) -> tuple[Fraction, Fraction]:
        """(liminf, limsup) of |n \\ I| / n, exact from the tail structure."""
        kind = self.tail[0]
        if kind == "periodic":
            word = self.tail[1]
            dens = Fraction(word.count("0"), len(word))
            return dens, dens
        if kind == "powers":
            return Fraction(1), Fraction(1)
        _, c, d, q = self.tail
        # I-mass ratio is lowest entering a block at c*q^K and highest leaving
        # one at d*q^K; both limits are geometric sums.
        low_i = Fraction(d - c, c * (q - 1))
        high_i = Fraction((d - c) * q, d * (q - 1))
        return 1 - high_i, 1 - low_i


def periodic_ispec(preperiod: str, period: str) -> ISpec:
    return ISpec(preperiod, ("periodic", period))


def evens() -> ISpec:
    return periodic_ispec("", "10")


def odds() -> ISpec:
    return periodic_ispec("", "01")


def geometric_blocks(c: int, d: int, q: int) -> ISpec:
    return ISpec("", ("blocks", c, d, q))


def geometric_powers(c: int, q: int) -> ISpec:
    return ISpec("", ("powers", c, q))
