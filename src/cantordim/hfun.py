"""Hausdorff functions sampled on the dyadic grid h_n = h(2^-n).

Values are exact rationals where a closed form is dyadic-rational, otherwise
outward-rounded rational intervals at a configurable precision.  Symbolic
tags (pure powers r^s and power-log pairs r^s * log(1/r)^t) decide the
limit assertions exactly; everything else returns a three-valued verdict
under an explicit depth/tolerance policy, since limits are not decidable
from finite tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise
from math import gcd, lcm, log2, prod

from .errors import (BuildError, DepthExceededError, ResourceLimitError,
                     SpecFormatError)

DEFAULT_PRECISION_BITS = 128
DEFAULT_N_MAX = 96
# the widest power of two a gauge sample may be built from, 2^-c or a root
# of 2^(b prec + j): past it the integer alone takes over 8 MiB, and an
# exponent such as 2^70 cannot be shifted at all
MAX_SAMPLE_BITS = 1 << 26
TOO_LONG = "number too long to print (a gauge sample takes over 2^26 bits)"


def iroot_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative integers, exact."""
    if x < 0 or k < 1:
        raise ValueError("iroot_floor needs x >= 0, k >= 1")
    if x in (0, 1) or k == 1:
        return x
    # Newton's steps fall from above; start just over the root, from a
    # float estimate of log2(x) / k, so a large k takes a few steps, not ~k
    lg = log2(x) / k
    whole = int(lg)
    r = int(2 ** (lg - whole + 60) * (1 + 2 ** -30)) + 1
    r = r << (whole - 60) if whole >= 60 else (r >> (60 - whole)) + 1
    while r ** k < x:
        r <<= 1
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def pow2_bounds(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Outward bounds on 2**q for rational q."""
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    if b == 1:
        v = Fraction(1 << a) if a >= 0 else Fraction(1, 1 << (-a))
        return v, v
    # 2^(a/b) = floor-root of a shifted power, giving prec bits after the point
    shift = b * prec
    root = iroot_floor(1 << (a + shift) if a + shift >= 0 else 0, b)
    if a + shift < 0:
        # push the exponent positive first
        k = (-a) // b + 1
        lo, hi = pow2_bounds(q + k, prec)
        scale = Fraction(1, 1 << k)
        return lo * scale, hi * scale
    denom = 1 << prec
    return Fraction(root, denom), Fraction(root + 1, denom)


def ln2_bounds(prec: int) -> tuple[Fraction, Fraction]:
    """Outward bounds on ln 2 via sum over k of 1/(k 2^k)."""
    terms = prec + 4
    # the partial sum over one common denominator: a single normalization
    den = lcm(*range(1, terms + 1)) << terms
    total = Fraction(sum(den // (k << k) for k in range(1, terms + 1)), den)
    # tail is below 2/(terms * 2^terms)
    tail = Fraction(2, terms * (1 << terms))
    return total, total + tail


class _Grid:
    """Samples of one symbolic gauge on the dyadic grid at one precision.

    For s = a/b, sample n is 2^-c * 2^(j/b) with c = ceil(s n) and
    j = c b - a n, so its root floor(2^(prec + j/b)) depends on n only
    through the residue j: one gauge needs at most b - 1 integer roots,
    and one ln 2 bracket.  Both are kept per grid, never process-wide, and
    every sample equals the one ``pow2_bounds`` and ``ln2_bounds`` give.
    """

    def __init__(self, sym: Symbolic, prec: int):
        self.a, self.b = sym.s.numerator, sym.s.denominator
        self.t = sym.t
        self.prec = prec
        if self.b * prec > MAX_SAMPLE_BITS:
            raise ResourceLimitError(TOO_LONG)
        self._roots: dict[int, int] = {}
        self._log_powers = None  # ln2_lo^|t| and ln2_hi^|t| as integer ratios

    def sample(self, n: int) -> tuple[int, int, int]:
        """Outward bounds on h(2^-n) as (lo, hi, den), jointly in lowest
        terms: pow2_bounds(-s n, prec), times (n ln 2)^t for a log gauge.
        A power's den is a power of two."""
        t, b, prec = self.t, self.b, self.prec
        if t:
            n = n or 1  # log(1/r) vanishes at r=1: the n=0 sample is the n=1 one
        an = self.a * n
        c = -(-an // b)
        j = c * b - an
        if c > MAX_SAMPLE_BITS:
            raise ResourceLimitError(TOO_LONG)
        if not j:
            lo, hi, e = 1, 1, c
        else:
            root = self._roots.get(j)
            if root is None:
                root = self._roots[j] = iroot_floor(1 << (b * prec + j), b)
            # past c = prec, where pow2_bounds pushes the exponent up by c:
            # the same root, over 2^(prec + c)
            lo, e = (root, prec + c) if c > prec else (root >> c, prec)
            hi = lo + 1  # one of lo, hi is odd: the pair is in lowest terms
        if not t:
            return lo, hi, 1 << e
        if self._log_powers is None:
            # ln2_lo^|t| = ln / ld and ln2_hi^|t| = hn / hd
            self._log_powers = [x ** abs(t) for v in ln2_bounds(prec)
                                for x in v.as_integer_ratio()]
        ln, ld, hn, hd = self._log_powers
        # every factor is positive, so the bracket's ends pair up directly
        if t > 0:
            scale = n ** t
            return _lowest(lo * ln * hd * scale, hi * hn * ld * scale, (ld * hd) << e)
        return _lowest(lo * hd * ln, hi * ld * hn, (hn * ln * n ** -t) << e)


def _lowest(lo: int, hi: int, den: int) -> tuple[int, int, int]:
    """(lo, hi, den) divided by gcd(lo, hi, den)."""
    g = gcd(lo, hi, den)
    return lo // g, hi // g, den // g


def _ratios(lo, hi) -> tuple[int, int, int]:
    """The table sample lo..hi as (lo, hi, den), jointly in lowest terms."""
    (a, b), (c, d) = (v.as_integer_ratio() if isinstance(v, (int, Fraction))
                      else Fraction(v).as_integer_ratio() for v in (lo, hi))
    return (a, c, b) if b == d else _lowest(a * d, c * b, b * d)


@dataclass(frozen=True)
class Symbolic:
    """Closed-form tag: r^s when t == 0, else r^s * log(1/r)^t."""

    s: Fraction
    t: int = 0


class DyadicHFn:
    """A Hausdorff function as outward-rounded samples on the dyadic grid,
    kept in one integer store (den, lo, hi): sample k is lo[k]/den, hi[k]/den.
    A table gauge fills it when made; a symbolic or derived gauge on first
    read, in order, only as far as asked, and only a symbolic one past n_max.
    """

    def __init__(self, lo=(), hi=(), symbolic: Symbolic | None = None,
                 precision: int = DEFAULT_PRECISION_BITS, name: str | None = None,
                 n_max: int | None = None):
        self.symbolic = symbolic
        self.precision = precision
        self.name = name or ("table" if symbolic is None else f"r^{symbolic.s}"
                             + (f"*log^{symbolic.t}" if symbolic.t else ""))
        self._store: tuple = (1, [], [])
        # made now, so that an oversized root is refused when the gauge is made
        self._grid = _Grid(symbolic, precision) if symbolic else None
        if symbolic is None:
            lo, hi = list(lo), list(hi)
            n_max = len(lo) - 1 if len(lo) == len(hi) else -1
        if n_max < 0:
            raise SpecFormatError("gauge table bounds must be nonempty and aligned")
        self.n_max = n_max
        if symbolic is None:
            self._fill(list(map(_ratios, lo, hi)))

    def _fill(self, samples):
        """Append samples, as (lo, hi, den) integers jointly in lowest terms,
        to the store: the only way into it, so each one is validated here."""
        den, lo, hi = self._store
        n = len(lo)
        pl, ph, pd = (lo[-1], hi[-1], den) if n else (0, 0, 1)
        # p/q <= r/s iff p s <= r q, as denominators are positive
        for l, h, d in samples:
            if not 0 < l <= h:
                raise SpecFormatError(f"gauge values must be positive (index {n})")
            if n and (l * pd > pl * d or h * pd > ph * d):
                raise SpecFormatError(f"gauge values must be nonincreasing in n (index {n})")
            pl, ph, pd = l, h, d
            n += 1
        dens = [d for _, _, d in samples]
        if den & (den - 1) or any(d & (d - 1) for d in dens):
            top = lcm(den, *dens)
            scale = lambda x, d: x * (top // d)
        else:  # powers of two: the lcm is the largest, and rescaling a shift
            top = max(den, *dens)
            scale = lambda x, d: x << (top.bit_length() - d.bit_length())
        if top != den:
            lo, hi = [scale(x, den) for x in lo], [scale(x, den) for x in hi]
        lo.extend(scale(l, d) for l, _, d in samples)
        hi.extend(scale(h, d) for _, h, d in samples)
        self._store = top, lo, hi

    def _grow(self, n: int):
        """Fill the store from the grid or the operands through sample n:
        within n_max to at least twice its length, so one-at-a-time reads
        rescale it rarely; past n_max exactly to n."""
        have = len(self._store[1])
        sample = self._grid.sample if self._grid else self._sample
        new = [sample(k) for k in range(have, max(n, min(2 * have, self.n_max)) + 1)]
        if self._grid is None or self.symbolic.t:
            # r^s log(1/r)^t can wobble upward; clamp all but a pure power
            pl, ph, pd = self.sample_at(have - 1) if have else new[0]
            for k, (l, h, d) in enumerate(new):
                if l * pd > pl * d or h * pd > ph * d:
                    new[k] = _lowest(min(l * pd, pl * d), min(h * pd, ph * d), d * pd)
                pl, ph, pd = new[k]
        self._fill(new)

    def numerators(self, n: int) -> tuple[int, list, list]:
        """(den, lo, hi): the store, holding the samples at 0..n at least,
        so that lo[k] / den and hi[k] / den are value(k).  Read only."""
        if not 0 <= n < len(self._store[1]):
            if n < 0 or self.symbolic is None and n > self.n_max:
                raise DepthExceededError(
                    f"gauge undefined at grid index {n} (table to {self.n_max})")
            self._grow(n)
        return self._store

    def sample_at(self, n: int) -> tuple[int, int, int]:
        """Sample n as integers (lo, hi, den), value(n) = (lo/den, hi/den):
        from the store, or for a power past it off the grid (it needs no clamp)."""
        if n >= len(self._store[1]) and self._grid is not None and not self.symbolic.t:
            return self._grid.sample(n)
        den, lo, hi = self.numerators(n)
        return lo[n], hi[n], den

    def value(self, n: int) -> tuple[Fraction, Fraction]:
        lo, hi, den = self.sample_at(n)
        return Fraction(lo, den), Fraction(hi, den)

    def lo_at(self, n: int) -> Fraction:
        lo, _, den = self.sample_at(n)
        return Fraction(lo, den)

    def hi_at(self, n: int) -> Fraction:
        _, hi, den = self.sample_at(n)
        return Fraction(hi, den)

    lo = property(lambda self: self._fractions(1), doc="Lower bounds at 0..n_max.")
    hi = property(lambda self: self._fractions(2), doc="Upper bounds at 0..n_max.")

    def _fractions(self, side: int) -> tuple:
        store = self.numerators(self.n_max)
        return tuple(Fraction(x, store[0]) for x in store[side][:self.n_max + 1])

    @property
    def is_vanishing(self) -> bool:
        """Certainly vanishing gauges: positive symbolic powers, or tables
        whose tail keeps strictly decreasing (a heuristic flag; builders that
        need h -> 0 additionally fail with a typed error when a table bottoms
        out before their threshold)."""
        if self.symbolic is not None:
            return self.symbolic.s > 0
        tail = self.numerators(self.n_max)[2][max(0, self.n_max - 4):]  # over one den
        return all(b < a for a, b in zip(tail, tail[1:]))

    def dominates_dyadic(self, exponent: int, n: int) -> bool | None:
        """Certified verdict of 2^-exponent <= h(2^-n); None if undecided."""
        if self.symbolic is not None and self.symbolic.t == 0:
            s = self.symbolic.s  # 2^-e <= 2^-ns  iff  e >= n*s, exactly
            return exponent * s.denominator >= s.numerator * n
        lo, hi, den = self.sample_at(n)
        # 2^-e <= x / den  iff  den <= x 2^e
        if den <= lo << exponent:
            return True
        if den > hi << exponent:
            return False
        return None

    def below_dyadic(self, exponent: int, n: int) -> bool | None:
        """Certified verdict of h(2^-n) <= 2^-exponent; None if undecided."""
        if self.symbolic is not None and self.symbolic.t == 0:
            s = self.symbolic.s
            return s.numerator * n >= exponent * s.denominator
        lo, hi, den = self.sample_at(n)
        # x / den <= 2^-e  iff  x 2^e <= den, for e of either sign
        lo, hi, den = ((lo << exponent, hi << exponent, den) if exponent >= 0
                       else (lo, hi, den << -exponent))
        if hi <= den:
            return True
        if lo > den:
            return False
        return None

    def scaled(self, factor: Fraction, name=None) -> "DyadicHFn":
        a, b = Fraction(factor).as_integer_ratio()
        if a <= 0:
            raise ValueError("scale factor must be positive")
        # (lo, hi, den) times (a, a, b), entry by entry
        return _derived(lambda n: _lowest(*map(prod, zip(self.sample_at(n), (a, a, b)))),
                        self.n_max, self.precision, name or "table")

    def __repr__(self):
        return f"<DyadicHFn {self.name} to n={self.n_max}>"


def _derived(sample, n_max: int, precision: int, name: str) -> DyadicHFn:
    """A gauge with table semantics to n_max whose sample n is sample(n):
    (lo, hi, den) jointly in lowest terms, from its operands' `sample_at`.
    The store asks for samples in increasing n, each once."""
    h = DyadicHFn.__new__(DyadicHFn)
    h.symbolic, h.precision, h.name, h.n_max = None, precision, name, n_max
    h._store, h._grid, h._sample = (1, [], []), None, sample
    return h


def power_hfn(s, n_max: int = DEFAULT_N_MAX,
              precision: int = DEFAULT_PRECISION_BITS) -> DyadicHFn:
    s = Fraction(s)
    if s <= 0:
        raise SpecFormatError("power gauge needs s > 0")
    return DyadicHFn(symbolic=Symbolic(s), precision=precision, n_max=n_max)


def power_log_hfn(s, t: int, n_max: int = DEFAULT_N_MAX,
                  precision: int = DEFAULT_PRECISION_BITS) -> DyadicHFn:
    s = Fraction(s)
    if s <= 0:
        raise SpecFormatError("power-log gauge needs s > 0")
    if not isinstance(t, int):
        raise SpecFormatError("power-log exponent t must be an integer")
    if t == 0:
        return power_hfn(s, n_max, precision)
    return DyadicHFn(symbolic=Symbolic(s, t), precision=precision, n_max=n_max)


def table_hfn(values, precision: int = DEFAULT_PRECISION_BITS) -> DyadicHFn:
    vals = list(values)
    return DyadicHFn(vals, vals, None, precision)


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class PrecedeVerdict:
    status: str               # "holds" | "fails" | "inconclusive"
    index: int | None = None  # failure index when status == "fails"
    exact: bool = False

    @property
    def holds(self) -> bool:
        return self.status == "holds"


@dataclass(frozen=True)
class FiniteOrderVerdict:
    status: str
    bound: Fraction | None = None
    exact: bool = False

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def precede(g: DyadicHFn, h: DyadicHFn, depth: int = 64,
            tol: Fraction = Fraction(1, 64)) -> PrecedeVerdict:
    """Verdict of g < h in the gauge order, i.e. h(r)/g(r) -> 0.

    Symbolic pairs are decided exactly.  Table policy on the window
    [depth/2, depth]: holds when every certified ratio upper bound is <= tol
    and the endpoint ratio does not exceed the start; fails at the first
    index whose ratio lower bound exceeds 1/tol, or when the ratio is
    nondecreasing across the whole window while staying above tol (a stalled
    ratio, e.g. identical tables); otherwise inconclusive.
    """
    tol = Fraction(tol)
    sg, sh = g.symbolic, h.symbolic
    if sg is not None and sh is not None:
        if (sh.s, -sh.t) > (sg.s, -sg.t):
            return PrecedeVerdict("holds", exact=True)
        return PrecedeVerdict("fails", index=0, exact=True)
    if depth > min(g.n_max, h.n_max):
        raise DepthExceededError("precede window exceeds a gauge table")
    window = range(depth // 2, depth + 1)
    ratio_hi = [h.hi_at(n) / g.lo_at(n) for n in window]
    ratio_lo = [h.lo_at(n) / g.hi_at(n) for n in window]
    for i, n in enumerate(window):
        if ratio_lo[i] > 1 / tol:
            return PrecedeVerdict("fails", index=n)
    if all(r <= tol for r in ratio_hi) and ratio_hi[-1] <= ratio_hi[0]:
        return PrecedeVerdict("holds")
    if all(b >= a for a, b in zip(ratio_lo, ratio_lo[1:])) and ratio_lo[-1] >= tol:
        return PrecedeVerdict("fails", index=depth // 2)
    return PrecedeVerdict("inconclusive")


def finite_order(h: DyadicHFn, depth: int = 64) -> FiniteOrderVerdict:
    """Doubling-condition verdict: is h(2r)/h(r) bounded along the tail?

    Exact for symbolic tags (always finite order, bound 2^s up to the log
    factor).  Table policy on [depth/2, depth]: holds when the window's
    ratio supremum stays within (1 + 8/depth) of its start, fails when the
    endpoint ratio at least doubles the start, else inconclusive.
    """
    if h.symbolic is not None:
        ub = pow2_bounds(h.symbolic.s, h.precision)[1]
        if h.symbolic.t:
            ub *= 2  # generous cover for the slowly-varying log factor
        return FiniteOrderVerdict("holds", bound=ub, exact=h.symbolic.t == 0)
    if depth > h.n_max:
        raise DepthExceededError("finite-order window exceeds the gauge table")
    window = range(max(1, depth // 2), depth + 1)
    ratios = [h.hi_at(n - 1) / h.lo_at(n) for n in window]
    start, end, top = ratios[0], ratios[-1], max(ratios)
    if top <= start * (1 + Fraction(8, depth)):
        return FiniteOrderVerdict("holds", bound=top)
    if end >= 2 * start:
        return FiniteOrderVerdict("fails", bound=top)
    return FiniteOrderVerdict("inconclusive", bound=top)


# ---------------------------------------------------------------------------
# Constructions


def diagonal_dominate(hs) -> DyadicHFn:
    """A gauge preceded by every input: precede(h_i, out) holds for all i.

    Grid value at m is min over the inputs of h_i(2^-m), damped by 2^-w(m)
    with w(m) = m // 4 growing slowly.  All-symbolic-power inputs produce the
    exact symbolic power max_i(s_i) + 1/4.
    """
    hs = list(hs)
    if not hs:
        raise BuildError("diagonal domination needs at least one gauge")
    for h in hs:
        if not h.is_vanishing:
            raise BuildError(f"gauge {h.name} is not vanishing")
    n_max = min(h.n_max for h in hs)
    if all(h.symbolic is not None and h.symbolic.t == 0 for h in hs):
        return power_hfn(max(h.symbolic.s for h in hs) + Fraction(1, 4), n_max)

    def sample(m):
        samples = [h.sample_at(m) for h in hs]
        den = lcm(*(d for _, _, d in samples))
        return _lowest(min(lo * (den // d) for lo, _, d in samples),
                       min(hi * (den // d) for _, hi, d in samples), den << (m // 4))
    return _derived(sample, n_max, DEFAULT_PRECISION_BITS, "diag")


def multiply(h: DyadicHFn, g: DyadicHFn) -> DyadicHFn:
    if (h.symbolic and g.symbolic) and h.symbolic.t == g.symbolic.t == 0:
        return power_hfn(h.symbolic.s + g.symbolic.s,
                         min(h.n_max, g.n_max), max(h.precision, g.precision))
    return _derived(lambda n: _lowest(*map(prod, zip(h.sample_at(n), g.sample_at(n)))),
                    min(h.n_max, g.n_max), max(h.precision, g.precision),
                    f"({h.name})*({g.name})")


def grid_index_floor(r: Fraction) -> int:
    """ceil(-log2 r): the grid index below r, so 2^-index <= r."""
    r = Fraction(r)
    if not 0 < r <= 1:
        raise ValueError("grid snapping needs r in (0, 1]")
    # for r = p/q, 2^-n <= r iff 2^n >= ceil(q/p)
    return (-(-r.denominator // r.numerator) - 1).bit_length()


def grid_index_ceil(r: Fraction) -> int:
    """floor(-log2 r): the grid index at or above r."""
    n = grid_index_floor(r)
    # 2^-n <= r < 2^-(n-1), so only r == 2^-n stays at n
    r = Fraction(r)
    return n if r.numerator == 1 and r.denominator == 1 << n else n - 1


def compose(h: DyadicHFn, g: DyadicHFn) -> DyadicHFn:
    """h o g on the grid: evaluate h at the grid snap of g's values.

    Rounding is outward: the true h(g(2^-n)) lies between the h-samples at
    the indices bracketing -log2 g_n.  Requires g <= 1 and h's table to
    reach the snapped indices, both checked where g is largest and deepest.
    """
    if (h.symbolic and g.symbolic) and h.symbolic.t == g.symbolic.t == 0:
        return power_hfn(h.symbolic.s * g.symbolic.s,
                         min(h.n_max, g.n_max), max(h.precision, g.precision))

    def snaps(n):  # 2^-deep <= g_lo and min(g_hi, 1) <= 2^-shallow
        glo, ghi = g.value(n)
        return grid_index_floor(glo), grid_index_ceil(min(ghi, 1))
    snaps(0)  # refuses a g above 1
    deep = snaps(g.n_max)[0]
    if deep > h.n_max:
        raise DepthExceededError(
            f"compose needs h at grid index {deep} (table to {h.n_max})")

    def sample(n):
        deep, shallow = snaps(n)
        (lo, _, d), (_, hi, e) = h.sample_at(deep), h.sample_at(min(shallow, h.n_max))
        return _lowest(lo * e, hi * d, d * e)
    return _derived(sample, g.n_max, max(h.precision, g.precision),
                    f"({h.name})o({g.name})")


def grid_inverse(g: DyadicHFn) -> DyadicHFn:
    """Grid inverse of a strictly decreasing gauge: value 2^-j(m) at index m,
    where j(m) is the deepest grid index with g_j >= 2^-m."""
    if g.symbolic is not None and g.symbolic.t == 0:
        return power_hfn(1 / g.symbolic.s, g.n_max, g.precision)
    pairs = pairwise(g.sample_at(n) for n in range(g.n_max + 1))
    if not all(hi * c < lo * d for (lo, _, c), (_, hi, d) in pairs):  # hi_n+1 < lo_n
        raise BuildError("grid inverse needs a strictly decreasing gauge table")
    j = 0

    def sample(m):  # m increases from call to call, so j only moves on
        nonlocal j
        while j < g.n_max and g.dominates_dyadic(m, j + 1):  # g_lo >= 2^-m
            j += 1
        return 1, 1, 1 << j
    return _derived(sample, g.n_max, g.precision, f"inv({g.name})")


def hfn_from_epsilons(eps, n_max: int | None = None) -> DyadicHFn:
    """A gauge with h(eps_n) >= 1/n for the 1-based sequence eps.

    The sequence may be non-monotone; it is sorted decreasing first.  Grid
    value at m is 1/min{n : eps_n < 2^(1-m)}, which certifies the bound at
    the snapped-down evaluation point of every eps_n, and the tail keeps
    decreasing so the gauge vanishes.
    """
    eps = sorted((Fraction(e) for e in eps), reverse=True)
    if not eps or eps[-1] <= 0:
        raise SpecFormatError("epsilons must be positive")
    eps = [min(e, Fraction(1)) for e in eps]  # cube diameters cap at 1
    deepest = grid_index_floor(min(min(eps), Fraction(1))) + 4
    top = max(n_max if n_max is not None else 0, deepest, DEFAULT_N_MAX // 2)
    vals = []
    for m in range(top + 1):
        threshold = Fraction(2, 1 << m)  # 2^(1-m)
        first = next((i + 1 for i, e in enumerate(eps) if e < threshold), None)
        vals.append(Fraction(1, first or len(eps) + 1 + max(0, m - deepest)))
    vals = list(accumulate(vals, min))
    # force a strictly decreasing tail so the vanishing flag holds
    m = len(vals) - 1
    while m > 0 and vals[m] == vals[m - 1] == vals[-1]:
        m -= 1
    for k in range(m + 1, len(vals)):
        vals[k] = vals[k - 1] * Fraction(1, 2) if vals[k] >= vals[k - 1] else vals[k]
    return DyadicHFn(vals, vals, None, name="from-eps")


def eval_at_rational(h: DyadicHFn, r: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on h(r) for rational r in (0,1], via the snapped-down sample
    (right-continuous step extension; a certified lower bound for h(r))."""
    n = grid_index_floor(Fraction(r))
    if n > h.n_max:
        raise DepthExceededError("evaluation point below the gauge table")
    return h.value(n)
