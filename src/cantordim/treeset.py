"""Tree-coded nonempty closed subsets of the Cantor cube.

Every set kind is presented as a deterministic tree automaton: a hashable
node state, a root state, and an ``expand(state, depth)`` transition that
returns the node's ((bit, child state), ...) tuple for both bits in one
pass.  ``children`` caches that tuple per node and ``step(state, depth, bit)``
reads one child from it; a sumset, product or union reads its operands'
cached children.  The depth-n trace of the automaton is, for every kind,
exactly the set of depth-n prefixes of points of the coded closed set, so
traces, covering numbers and branching diameters are exact.

States collapse isomorphic subtrees, which is what makes depth-64 work on
constraint sets cheap while sumsets and unions degrade gracefully into the
node budget.

Product sets use even/odd index interleaving (factor A on even indices) and
carry the max-metric scale map: a depth-d cylinder of a product has metric
diameter 2^-(d//2).  Plain sets have scale(d) = d.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from operator import sub

from .errors import ResourceLimitError, SpecFormatError
from .words import ISpec, Word, check_word, check_words

DEFAULT_NODE_BUDGET = 1 << 22
# Deepest nesting of sumsets, products and unions, specs included: expanding
# a node costs two frames per level (children, then expand), and about 500
# levels overflow Python's default recursion limit, so deeper sets are input
# errors.
MAX_SET_NESTING = 256


class Budget:
    """Counts automaton work; raises once the configured limit is crossed."""

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise ResourceLimitError(
                f"node budget exceeded ({self.used} > {self.limit})"
            )


def _budget(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget()


class Diameter:
    """Local diameter of E  [p]: an exact dyadic, or 'point to depth D'."""

    __slots__ = ("branch_depth", "scale", "horizon")

    def __init__(self, branch_depth: int | None, scale: int | None, horizon: int):
        self.branch_depth = branch_depth
        self.scale = scale
        self.horizon = horizon

    @property
    def is_point_to_depth(self) -> bool:
        return self.branch_depth is None

    @property
    def value(self) -> Fraction:
        if self.is_point_to_depth:
            raise ValueError("no branching up to the horizon; diameter unresolved")
        return Fraction(1, 1 << self.scale)

    def __repr__(self):
        if self.is_point_to_depth:
            return f"Diameter(point-to-depth-{self.horizon})"
        return f"Diameter(2^-{self.scale})"


def _kids_of(c0, c1):
    """The children tuple of a node whose child states under 0 and 1 are c0
    and c1, None where a bit has no child."""
    if c0 is None:
        return () if c1 is None else ((1, c1),)
    return ((0, c0),) if c1 is None else ((0, c0), (1, c1))


class TreeSet:
    """Base class; subclasses define root_state/expand and a kind tag.

    Trie sets (``ExplicitSet``) read ``children`` and ``step`` from their
    rows instead of expanding through the per-node cache."""

    kind = "abstract"
    interleaved = False
    nesting = 0  # levels of sumsets, products and unions above the leaves

    def __init__(self, operands=()):
        self._children_cache: dict = {}
        self._mass_lower_cache: dict = {}  # gauge -> measures' structural bound
        self._dp_sweep = None  # measures' cover DP for its last gauge and depth
        if operands:  # a sumset, product or union: one level above its operands
            self.nesting = 1 + max(op.nesting for op in operands)
            if self.nesting > MAX_SET_NESTING:
                raise SpecFormatError(f"set nests deeper than {MAX_SET_NESTING} levels")

    # -- automaton interface ------------------------------------------------

    def root_state(self):
        raise NotImplementedError

    def expand(self, state, depth: int) -> tuple:
        """The ((bit, child state), ...) tuple of the node, bits ascending."""
        raise NotImplementedError

    def children(self, state, depth: int, budget: Budget | None = None):
        if budget is not None:
            budget.spend()  # one node per lookup, whether cached or not
        key = (state, depth)
        hit = self._children_cache.get(key)
        if hit is None:
            hit = self._children_cache[key] = self.expand(state, depth)
        return hit

    def step(self, state, depth: int, bit: int):
        """The child state under `bit`, or None; read from ``children``."""
        for b, child in self.children(state, depth):
            if b == bit:
                return child
        return None

    # -- scale map -----------------------------------------------------------

    def scale_of_depth(self, d: int) -> int:
        return d // 2 if self.interleaved else d

    def depth_of_scale(self, n: int) -> int:
        return 2 * n if self.interleaved else n

    # -- queries --------------------------------------------------------------

    def state_at(self, p: Word, budget: Budget | None = None):
        """State of the node p, or None when [p] misses the set."""
        check_word(p)
        bud = _budget(budget)
        state = self.root_state()
        for d, c in enumerate(p):
            bud.spend()
            state = self.step(state, d, int(c))
            if state is None:
                return None
        return state

    def meets(self, p: Word, budget: Budget | None = None) -> bool:
        """True iff the cylinder [p] intersects the coded set."""
        return self.state_at(p, budget) is not None

    def trace(self, n: int, budget: Budget | None = None) -> list[Word]:
        """All depth-n prefixes of points of the set, in sorted order."""
        if n < 0:
            raise ValueError("depth must be nonnegative")
        bud = _budget(budget)
        out: list[Word] = []
        stack = [("", self.root_state())]
        while stack:
            word, state = stack.pop()
            if len(word) == n:
                out.append(word)
                continue
            # push bit 1 first so the left branch is expanded first
            for bit, child in reversed(self.children(state, len(word), bud)):
                stack.append((word + str(bit), child))
        out.sort()
        return out

    def trace_counts(self, n: int, budget: Budget | None = None) -> list[int]:
        """[|trace_0|, ..., |trace_n|] from one forward sweep.

        The frontier maps each state at depth d to the number of depth-d
        trace words that reach it; every frontier state is expanded once.
        """
        if n < 0:
            raise ValueError("depth must be nonnegative")
        bud = _budget(budget)
        frontier = {self.root_state(): 1}
        out = [1]
        for d in range(n):
            nxt: dict = {}
            for state, mult in frontier.items():
                for _, child in self.children(state, d, bud):
                    nxt[child] = nxt.get(child, 0) + mult
            frontier = nxt
            out.append(sum(nxt.values()))
        return out

    def trace_count(self, n: int, budget: Budget | None = None) -> int:
        """|trace_n|, the last entry of ``trace_counts(n)``."""
        return self.trace_counts(n, budget)[n]

    def first_branch(self, state, depth: int, horizon: int,
                     budget: Budget | None = None) -> int | None:
        """Least depth >= `depth` where the subtree splits, up to horizon."""
        return self._branches(horizon, _budget(budget))(state, depth)

    def _branches(self, horizon: int, budget: Budget):
        """first_branch up to `horizon` as a function of (state, d) whose memo
        lets the nodes of one chain share its branch: each is looked up once."""
        branch: dict = {}  # (state, d) -> first branch at or below d, or None

        def first_branch(state, d):
            path = []
            while (state, d) not in branch and d < horizon:
                kids = self.children(state, d, budget)
                if len(kids) == 2:
                    branch[state, d] = d
                    break
                path.append((state, d))
                state, d = kids[0][1], d + 1
            b = branch.get((state, d))
            for key in path:
                branch[key] = b
            return b

        return first_branch

    def local_diameter(self, p: Word, maxdepth: int,
                       budget: Budget | None = None) -> Diameter:
        """Diameter of E  [p]: 2^-scale(b) at the first branching depth b."""
        state = self.state_at(p, budget)
        if state is None:
            raise ValueError(f"[{p}] does not meet the set")
        b = self.first_branch(state, len(p), maxdepth, budget)
        if b is None:
            return Diameter(None, None, maxdepth)
        return Diameter(b, self.scale_of_depth(b), maxdepth)

    def __repr__(self):
        return f"<TreeSet {self.kind}>"


# ---------------------------------------------------------------------------
# Concrete kinds


_BOTH = ((0, ()), (1, ()))  # the children of a state () free at its depth
_ZERO = ((0, ()),)


class FullCube(TreeSet):
    kind = "full_cube"

    def root_state(self):
        return ()

    def expand(self, state, depth):
        return _BOTH


class CISet(TreeSet):
    """C_I = {x : x restricted to I is identically 0}."""

    kind = "ci"

    def __init__(self, ispec: ISpec):
        super().__init__()
        self.ispec = ispec
        self._members = ""  # I's membership bits, read ahead as depths are reached

    def root_state(self):
        return ()

    def expand(self, state, depth):
        if depth >= len(self._members):
            self._members = self.ispec.members_below(2 * depth + 64)
        return _ZERO if self._members[depth] == "1" else _BOTH


FREE = -1  # the block-constraint state outside constrained blocks
_FREE_BOTH = ((0, FREE), (1, FREE))


class BlockConstraintSet(TreeSet):
    """Per-block pattern constraints on disjoint index intervals.

    Bits below the first boundary and beyond the last are free, and a block
    whose pattern set is None is an unconstrained gap; every such bit, and
    every block boundary, has the one state FREE.  Inside a constrained
    block the state is a state of that block's pattern trie, hash-consed
    once, top-down (see ``_interned_trie``): it stands for the pattern
    suffixes still consistent with the bits chosen so far, and nodes at one
    depth of the block with equal suffix sets share it.  Emptiness at
    construction is rejected since coded sets must be nonempty.
    """

    kind = "block_constraint"

    def __init__(self, boundaries: list[int], blocks: list):
        super().__init__()
        if len(boundaries) != len(blocks) + 1:
            raise SpecFormatError("need len(boundaries) == len(blocks) + 1")
        if any(b >= c for b, c in zip(boundaries, boundaries[1:])) or boundaries[0] < 0:
            raise SpecFormatError("block boundaries must be strictly increasing and nonnegative")
        frozen = []
        for j, patterns in enumerate(blocks):
            if patterns is None:
                frozen.append(None)
                continue
            width = boundaries[j + 1] - boundaries[j]
            pats = frozenset(check_word(p) for p in patterns)
            if not pats:
                raise SpecFormatError(f"block {j} has no allowed patterns (empty survivor)")
            if any(len(p) != width for p in pats):
                raise SpecFormatError(f"block {j} patterns must have length {width}")
            frozen.append(pats)
        self.boundaries = tuple(boundaries)
        self.blocks = tuple(frozen)
        self._tries = tuple(None if pats is None else _interned_trie(pats, "zeros")
                            for pats in frozen)

    def _block_index(self, depth: int) -> int | None:
        bs = self.boundaries
        if depth < bs[0] or depth >= bs[-1]:
            return None
        return bisect_right(bs, depth) - 1

    def root_state(self):
        return FREE

    def expand(self, state, depth):
        j = self._block_index(depth)
        if j is None or self._tries[j] is None:
            return _FREE_BOTH
        root, rows = self._tries[j]
        c0, c1 = rows[root if depth == self.boundaries[j] else state]
        if depth + 1 == self.boundaries[j + 1]:  # the block ends below
            c0 = None if c0 is None else FREE
            c1 = None if c1 is None else FREE
        return _kids_of(c0, c1)


END = 0  # the explicit-set state in which a whole word has been read


def _interned_trie(words, tail: str):
    """Root state and transition rows of the words' trie, hash-consed once,
    top-down.

    Each word is read as one integer code, its bits left-aligned to the
    longest word's length and followed by its length, and the codes are
    sorted.  A node at depth d is a run of consecutive codes, split at the
    next bit by bisection.  Its set of suffixes left to read is keyed by the
    first code's bits below the node's prefix and the run's gaps between
    consecutive codes.  A node at which a word ends has state END; every
    other suffix set gets an integer state the first time it is met at its
    depth, and only then is its run split, so each distinct suffix set is
    expanded once per depth it occurs at.  Words under a shorter word stay
    in the keys, so two nodes share a state only when their whole suffix
    sets agree, hidden words included.  A state's row holds its (child0,
    child1) states, None where no suffix continues.  END's row keeps a free
    tail under either bit and a zeros tail only under 0.
    """
    rows = [(END, END) if tail == "free" else (END, None)]
    if "" in words:
        return END, rows
    top = max(map(len, words))
    width = top + top.bit_length() + 1  # code bits: the word's, then its length
    codes = sorted([int(w, 2) << (width - len(w)) | len(w) for w in words])
    gaps = tuple(map(sub, codes[1:], codes))
    rows.append(None)
    level = [(0, len(codes), 1)]  # (start, end, state) of each run to split
    for d in range(top):
        bit = 1 << (width - 1 - d)  # the code bit read at depth d
        low, seen, below = bit - 1, {}, []  # seen: key at d + 1 -> state

        def state_of(a, b):
            """The state of the run [a, b) one depth below d."""
            if a == b:
                return None
            first = codes[a] & low
            if first == d + 1:  # the first word is the node's own prefix
                return END
            key = (first, gaps[a:b - 1])
            kid = seen.get(key)
            if kid is None:
                kid = seen[key] = len(rows)
                rows.append(None)
                below.append((a, b, kid))
            return kid

        for i, j, state in level:
            m = bisect_left(codes, (codes[i] | bit) & -bit, i, j)  # first 1 at d
            rows[state] = (state_of(i, m), state_of(m, j))
        level = below
    return 1, rows


class ExplicitSet(TreeSet):
    """A set given by its depth-D trace.

    ``tail='zeros'`` codes the finite point set {w followed by zeros};
    ``tail='free'`` codes the clopen union of the cylinders [w].  The state
    is an integer standing for the set of word suffixes still to be read,
    from a trie hash-consed once, top-down (see ``_interned_trie``): nodes
    at one depth with equal suffix sets share a state, while a suffix set
    met at two depths (as in a cylinder union) may have one at each.  Once
    a word has been read the state is END, which a free tail keeps under
    either bit and a zeros tail only under 0.
    """

    kind = "explicit"

    def __init__(self, words, tail: str = "zeros"):
        super().__init__()
        words = list(words)
        check_words(words)
        ws = frozenset(words)
        if not ws:
            raise SpecFormatError(f"{self.kind} set needs at least one word")
        if self.kind == "explicit" and len({len(w) for w in ws}) != 1:
            raise SpecFormatError("explicit set words must share one length")
        if tail not in ("zeros", "free"):
            raise SpecFormatError("tail must be 'zeros' or 'free'")
        self.words = ws
        self.tail = tail
        self._root, self._rows = _interned_trie(ws, tail)

    def root_state(self):
        return self._root

    def step(self, state, depth, bit):
        return self._rows[state][bit]

    def children(self, state, depth: int, budget: Budget | None = None):
        # a state's children do not depend on the depth: read its row's
        if budget is not None:
            budget.spend()
        return self._kids[state]

    @cached_property
    def _kids(self) -> list:
        """Each state's children tuple, made from its row on the first
        ``children`` call: a set read only through ``step`` makes none."""
        return [_kids_of(c0, c1) for c0, c1 in self._rows]


class SumSet(TreeSet):
    """A + B, coordinatewise mod-2 sum.

    State is the set of factor state pairs reachable by decompositions of the
    current node word; the trace identity trace_n(A+B) = {q xor r} holds by
    construction.  Can be exponential in depth, hence the budget.
    """

    kind = "sumset"

    def __init__(self, a: TreeSet, b: TreeSet):
        super().__init__((a, b))
        if a.interleaved != b.interleaved:
            raise SpecFormatError("sumset operands must share the scale convention")
        self.a = a
        self.b = b
        self.interleaved = a.interleaved

    def root_state(self):
        return frozenset({(self.a.root_state(), self.b.root_state())})

    def expand(self, state, depth):
        a, b = self.a.children, self.b.children
        n0, n1 = set(), set()
        for sa, sb in state:
            kb = b(sb, depth)
            for ba, ca in a(sa, depth):
                for bb, cb in kb:
                    (n1 if ba ^ bb else n0).add((ca, cb))
        return _kids_of(frozenset(n0) or None, frozenset(n1) or None)


class ProductSet(TreeSet):
    """A x B via index interleaving; realizes the max metric at dyadic scales."""

    kind = "product"
    interleaved = True

    def __init__(self, a: TreeSet, b: TreeSet):
        super().__init__((a, b))
        if a.interleaved or b.interleaved:
            raise SpecFormatError("product factors must be plain (non-interleaved) sets")
        self.a = a
        self.b = b

    def root_state(self):
        return (self.a.root_state(), self.b.root_state())

    def expand(self, state, depth):
        sa, sb = state
        if depth % 2 == 0:
            return tuple([(bit, (c, sb)) for bit, c in self.a.children(sa, depth // 2)])
        return tuple([(bit, (sa, c)) for bit, c in self.b.children(sb, depth // 2)])


class UnionSet(TreeSet):
    kind = "union"

    def __init__(self, members: list[TreeSet]):
        super().__init__(members)
        if not members:
            raise SpecFormatError("union needs at least one member")
        if len({m.interleaved for m in members}) != 1:
            raise SpecFormatError("union members must share the scale convention")
        self.members = tuple(members)
        self.interleaved = members[0].interleaved

    def root_state(self):
        return frozenset((i, m.root_state()) for i, m in enumerate(self.members))

    def expand(self, state, depth):
        members = self.members
        n0, n1 = set(), set()
        for i, s in state:
            for bit, c in members[i].children(s, depth):
                (n1 if bit else n0).add((i, c))
        return _kids_of(frozenset(n0) or None, frozenset(n1) or None)


class CylinderUnionSet(ExplicitSet):
    """The clopen union of finitely many cylinders of any lengths."""

    kind = "cylinder_union"

    def __init__(self, cylinders):
        super().__init__(cylinders, tail="free")


# ---------------------------------------------------------------------------
# Set algebra helpers


def singleton_zero() -> ExplicitSet:
    """The constant-0 point, the group identity of the cube."""
    return ExplicitSet([""], tail="zeros")


def is_trace_subset(a: TreeSet, b: TreeSet, depth: int,
                    budget: Budget | None = None) -> Word | None:
    """None when trace_n(a) is contained in trace_n(b) for every n <= depth;
    otherwise a shortest witness word in a's trace missing from b's."""
    if a.interleaved != b.interleaved:
        raise SpecFormatError("subset check needs matching scale conventions")
    bud = _budget(budget)
    # (A state, B state) -> the first word reaching the pair at this depth
    frontier = {(a.root_state(), b.root_state()): ""}
    for d in range(depth):
        nxt = {}
        for (sa, sb), w in frontier.items():
            for bit, ca in a.children(sa, d, bud):
                cb = b.step(sb, d, bit)
                if cb is None:
                    return w + str(bit)
                if (ca, cb) not in nxt:
                    nxt[ca, cb] = w + str(bit)
        frontier = nxt
    return None
