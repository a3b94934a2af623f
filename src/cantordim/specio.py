"""JSON formats for sets, gauges, covers and witnesses.

This module is the only one that knows these formats: each has one reader
and one writer here, and a writer emits exactly the keys its reader reads.
All rationals travel as strings ("3/4"); every reader raises SpecFormatError
with a location so the CLI can point at bad input.  Writers are canonical
(sorted keys, fixed separators) so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd

from .covers import Cover
from .errors import ResourceLimitError, SpecFormatError
from .hfun import (DEFAULT_N_MAX, DEFAULT_PRECISION_BITS, DyadicHFn,
                   power_hfn, power_log_hfn, table_hfn)
from .ideals import (BlockFamily, BlockPartition, EventualPoint,
                     ShelahMWitness, ShelahNWitness, TPrimeWitness)
from .treeset import (MAX_SET_NESTING, BlockConstraintSet, CISet,
                      CylinderUnionSet, ExplicitSet, FullCube, ProductSet,
                      SumSet, TreeSet, UnionSet)
from .words import ISpec


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def rational(text, where: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"bad rational {text!r}: {exc}", where) from None


def rational_str(x: Fraction | int) -> str:
    """str(Fraction(x)) for an int or a Fraction, without copying it."""
    return ratio_str(x.numerator, x.denominator)


def ratio_str(p: int, den: int) -> str:
    """str(Fraction(p, den)) for den > 0, from the integers: a power-of-two
    den is reduced by p's trailing zeros, any other by a gcd."""
    if den & (den - 1):
        g = gcd(p, den)
        p, den = p // g, den // g
    else:
        z = (min(p & -p, den) if p else den).bit_length() - 1
        p, den = p >> z, den >> z
    try:
        return f"{p}/{den}" if den != 1 else str(p)
    except ValueError:  # past Python's int-to-str digit limit
        raise ResourceLimitError("number too long to print "
                                 f"(over {sys.get_int_max_str_digits()} digits)") from None


def _need(d: dict, key: str, where: str, kind: type = object):
    if key not in d:
        raise SpecFormatError(f"missing field {key!r}", where)
    if not isinstance(d[key], kind):
        raise SpecFormatError(f"field {key!r} must be a {kind.__name__}", where)
    return d[key]


def integer(value, where: str) -> int:
    """An integer field, given as a JSON integer or a string of one; `where`
    names the field."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise SpecFormatError(f"field must be an integer, not {value!r}", where)


def integers(d: dict, key: str, where: str) -> tuple:
    """The list field `key` of integers."""
    return tuple(integer(v, f"{where}.{key}[{i}]")
                 for i, v in enumerate(_need(d, key, where, list)))


def word_lists(families, where: str) -> tuple:
    """A list of word families, each given as a list (a string would be
    read as its letters)."""
    if not isinstance(families, list) or not all(isinstance(f, list) for f in families):
        raise SpecFormatError("families must be a list of word lists", where)
    return tuple(tuple(fam) for fam in families)


# ---------------------------------------------------------------------------
# Index sets and tree sets


# the parameter keys of each geometric I-spec tail rule, in tail order
_TAIL_KEYS = {"powers": "cq", "blocks": "cdq"}


def parse_ispec(d: dict, where: str = "I") -> ISpec:
    if not isinstance(d, dict):
        raise SpecFormatError("I-spec must be an object", where)
    if "period" in d:
        return ISpec(d.get("preperiod", ""), ("periodic", _need(d, "period", where)))
    for rule, keys in _TAIL_KEYS.items():
        if rule in d:
            p, at = _need(d, rule, where, dict), f"{where}.{rule}"
            return ISpec(d.get("prefix", ""),
                         (rule, *(integer(_need(p, k, at), f"{at}.{k}") for k in keys)))
    raise SpecFormatError("I-spec needs 'period', 'powers' or 'blocks'", where)


def ispec_to_dict(spec: ISpec) -> dict:
    rule, *params = spec.tail
    if rule == "periodic":
        return {"preperiod": spec.prefix, "period": params[0]}
    return {"prefix": spec.prefix, rule: dict(zip(_TAIL_KEYS[rule], params))}


def parse_set(d: dict, where: str = "set", depth: int = 0) -> TreeSet:
    if not isinstance(d, dict):
        raise SpecFormatError("set spec must be an object", where)
    if depth > MAX_SET_NESTING:
        raise SpecFormatError(f"set spec nests deeper than {MAX_SET_NESTING} levels", where)
    kind = _need(d, "kind", where)
    if kind == "full_cube":
        return FullCube()
    if kind == "ci":
        return CISet(parse_ispec(_need(d, "I", where), f"{where}.I"))
    if kind == "block_constraint":
        blocks = _need(d, "blocks", where, list)
        if not all(p is None or isinstance(p, list) for p in blocks):
            raise SpecFormatError("each 'blocks' entry must be a list or null", where)
        return BlockConstraintSet(_need(d, "boundaries", where, list), blocks)
    if kind == "explicit":
        return ExplicitSet(_need(d, "words", where, list), d.get("tail", "zeros"))
    if kind == "cylinder_union":
        return CylinderUnionSet(_need(d, "cylinders", where, list))
    if kind in ("sumset", "product"):
        a = parse_set(_need(d, "a", where), f"{where}.a", depth + 1)
        b = parse_set(_need(d, "b", where), f"{where}.b", depth + 1)
        return (SumSet if kind == "sumset" else ProductSet)(a, b)
    if kind == "union":
        return UnionSet([parse_set(m, f"{where}.members[{i}]", depth + 1)
                         for i, m in enumerate(_need(d, "members", where, list))])
    raise SpecFormatError(f"unknown set kind {kind!r}", where)


def set_to_dict(e: TreeSet) -> dict:
    """The spec of `e`, which parse_set reads back as the same set."""
    kind = e.kind
    if kind == "full_cube":
        return {"kind": kind}
    if kind == "ci":
        return {"kind": kind, "I": ispec_to_dict(e.ispec)}
    if kind == "block_constraint":
        return {"kind": kind, "boundaries": list(e.boundaries),
                "blocks": [None if b is None else sorted(b) for b in e.blocks]}
    if kind == "explicit":
        return {"kind": kind, "words": sorted(e.words), "tail": e.tail}
    if kind == "cylinder_union":
        return {"kind": kind, "cylinders": sorted(e.words)}
    if kind in ("sumset", "product"):
        return {"kind": kind, "a": set_to_dict(e.a), "b": set_to_dict(e.b)}
    if kind == "union":
        return {"kind": kind, "members": [set_to_dict(m) for m in e.members]}
    raise SpecFormatError(f"set kind {kind!r} has no spec format")


# ---------------------------------------------------------------------------
# Gauges


def _table(d: dict, key: str, where: str) -> list:
    return [rational(v, f"{where}.{key}[{i}]") for i, v in enumerate(_need(d, key, where, list))]


def parse_hfn(d: dict, where: str = "hfn",
              precision: int = DEFAULT_PRECISION_BITS) -> DyadicHFn:
    """A gauge from its spec; `precision` applies when it sets no
    ``precision_bits``."""
    if not isinstance(d, dict):
        raise SpecFormatError("gauge spec must be an object", where)
    precision = integer(d.get("precision_bits", precision), f"{where}.precision_bits")
    if precision < 0:
        raise SpecFormatError(f"field must be nonnegative, not {precision}",
                              f"{where}.precision_bits")
    n_max = integer(d.get("n_max", DEFAULT_N_MAX), f"{where}.n_max")
    if "symbolic" in d:
        sym = _need(d, "symbolic", where, dict)
        s = rational(_need(sym, "s", where), f"{where}.symbolic.s")
        t = integer(sym.get("t", 0), f"{where}.symbolic.t")
        if t == 0:
            return power_hfn(s, n_max, precision)
        return power_log_hfn(s, t, n_max, precision)
    if "table" in d:
        return table_hfn(_table(d, "table", where), precision)
    if "table_lo" in d or "table_hi" in d:
        # an interval table, as written for gauges with inexact samples
        return DyadicHFn(_table(d, "table_lo", where), _table(d, "table_hi", where),
                         None, precision)
    raise SpecFormatError("gauge needs 'symbolic', 'table' or 'table_lo'/'table_hi'",
                          where)


def hfn_to_dict(h: DyadicHFn) -> dict:
    if h.symbolic is not None:
        out = {"symbolic": {"s": rational_str(h.symbolic.s), "t": str(h.symbolic.t)},
               "precision_bits": h.precision}
        if h.n_max != DEFAULT_N_MAX:
            out["n_max"] = h.n_max
        return out
    if h.lo == h.hi:
        out = {"table": [rational_str(v) for v in h.lo]}
    else:
        out = {"table_lo": [rational_str(v) for v in h.lo],
               "table_hi": [rational_str(v) for v in h.hi]}
    if h.precision != DEFAULT_PRECISION_BITS:
        out["precision_bits"] = h.precision
    return out


# ---------------------------------------------------------------------------
# Covers


def parse_cover(obj, where: str = "cover") -> Cover:
    if isinstance(obj, dict):
        items = _need(obj, "elements", where)
        eps = obj.get("eps")
    else:
        items, eps = obj, None
    if not isinstance(items, list):
        raise SpecFormatError("cover elements must form a list", where)
    if eps is not None and not isinstance(eps, list):
        raise SpecFormatError("eps must be a list of rationals", f"{where}.eps")
    words, ids = [], []
    for i, item in enumerate(items):
        at = f"{where}[{i}]"
        if not isinstance(item, dict):
            raise SpecFormatError("cover element must be an object", at)
        words.append(_need(item, "cyl", at))
        ids.append(None if item.get("group") is None
                   else integer(item["group"], f"{at}.group"))
    groups = None
    if any(j is not None for j in ids):
        if None in ids:
            raise SpecFormatError("either every element or none carries a group", where)
        # each group is one run of equal ids, the runs in increasing id order
        cuts = [i for i in range(1, len(ids)) if ids[i] != ids[i - 1]]
        for i in cuts:
            if ids[i] < ids[i - 1]:
                raise SpecFormatError(f"group {ids[i]} follows group {ids[i - 1]}; "
                                      "groups must be consecutive runs in "
                                      "increasing order", where)
        edges = [0, *cuts, len(ids)]
        groups = tuple(zip(edges, edges[1:]))
    eps_t = tuple(rational(x, f"{where}.eps") for x in eps) if eps else None
    return Cover(tuple(words), groups, eps_t)


def cover_to_obj(cover: Cover):
    """The cover file for `cover`.  A cover the format cannot carry (no
    groups or an empty one, elements past the last group, a group offset)
    is refused rather than written as a different cover."""
    items = [{"cyl": w} for w in cover.elements]
    if cover.group_offset:
        raise SpecFormatError("cover files cannot carry a group offset")
    if cover.groups is not None:
        # the file gives groups as runs of ids, one id per element
        if not cover.groups:
            raise SpecFormatError("cover files cannot carry a grouping without groups")
        if any(a == b for a, b in cover.groups):
            raise SpecFormatError("cover files cannot carry an empty group")
        if cover.groups[-1][1] != len(items):
            raise SpecFormatError("cover files cannot carry elements past the last group")
        for j, (a, b) in enumerate(cover.groups):
            for item in items[a:b]:
                item["group"] = j
    if cover.eps is None:
        return items
    return {"elements": items,
            "eps": [rational_str(x) for x in cover.eps[:len(cover.elements)]]}


# ---------------------------------------------------------------------------
# Witnesses


def parse_witness(d: dict, where: str = "witness"):
    if not isinstance(d, dict):
        raise SpecFormatError("witness must be an object", where)
    kind = d.get("kind")
    if kind is None:
        if "y" in d:
            kind = "shelahm"
        elif "I" in d and "H" in d:
            kind = "tprime"
        elif "H" in d:
            kind = "shelahn"
        elif "F" in d:
            kind = "block_family"
        else:
            raise SpecFormatError("cannot infer witness kind", where)
    f = BlockPartition(integers(d, "f", where))
    if kind == "block_family":
        return BlockFamily(f, word_lists(_need(d, "F", where), f"{where}.F"))
    if kind == "shelahm":
        g = BlockPartition(integers(d, "g", where))
        y = _need(d, "y", where, dict)
        return ShelahMWitness(f, g, EventualPoint(y.get("preperiod", ""),
                                                  _need(y, "period", f"{where}.y")))
    if kind == "shelahn":
        return ShelahNWitness(f, word_lists(_need(d, "H", where), f"{where}.H"))
    if kind == "tprime":
        idx = integers(d, "I", where)
        raw = _need(d, "H", where)
        if isinstance(raw, dict):
            keys = [integer(k, f"{where}.H") for k in raw]
            fams = dict(zip(keys, word_lists(list(raw.values()), f"{where}.H")))
        else:
            fams = dict(zip(idx, word_lists(raw, f"{where}.H")))
        g_fn = (lambda n: n) if d.get("g") is None else integers(d, "g", where)
        return TPrimeWitness(f, g_fn, idx, fams)
    raise SpecFormatError(f"unknown witness kind {kind!r}", where)


def witness_to_dict(w) -> dict:
    if isinstance(w, BlockFamily):
        return {"kind": "block_family", "f": list(w.partition.table),
                "F": [list(fam) for fam in w.families]}
    if isinstance(w, ShelahMWitness):
        return {"kind": "shelahm", "f": list(w.f.table), "g": list(w.g.table),
                "y": {"preperiod": w.y.preperiod, "period": w.y.period}}
    if isinstance(w, ShelahNWitness):
        return {"kind": "shelahn", "f": list(w.f.table),
                "H": [list(fam) for fam in w.families]}
    if isinstance(w, TPrimeWitness):
        out = {"kind": "tprime", "f": list(w.f.table), "I": list(w.index_set),
               "H": {str(n): list(w.families[n]) for n in w.index_set}}
        # g is read on I only: the table holds g(n) there and n elsewhere
        g = list(range(max(w.index_set) + 1))
        for n in w.index_set:
            value = Fraction(w.g(n) if callable(w.g) else w.g[n])
            if value.denominator != 1:
                raise SpecFormatError(f"g({n}) = {value} is not an integer", "witness.g")
            g[n] = int(value)
        if g != list(range(len(g))):
            out["g"] = g
        return out
    raise SpecFormatError(f"unknown witness object {type(w).__name__}")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON in {path}: {exc}",
                              f"{path}:{exc.lineno}:{exc.colno}") from None
    except RecursionError:
        raise SpecFormatError(f"JSON in {path} nests too deeply to decode") from None
