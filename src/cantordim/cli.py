"""Batch command-line front end.

One command per invocation; all limits are explicit flags with conservative
defaults and every report embeds the limits used, so results are
self-describing and byte-reproducible.  Exit codes: 0 pass, 1 verification
fail, 2 input error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import covers, ideals, measures, specio
from .errors import (BuildError, CantorDimError, DepthExceededError,
                     ResourceLimitError, SpecFormatError)
from .hfun import DEFAULT_PRECISION_BITS, DyadicHFn, power_hfn
from .treeset import DEFAULT_NODE_BUDGET, Budget, CISet, FullCube
from .words import check_word, evens, odds

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

DEFAULT_DEPTH = 32
DEFAULT_GROUPS = 16
DEFAULT_SCALE = 8


@dataclass
class RunConfig:
    command: str
    depth: int
    groups: int
    scale: int
    precision: int
    budget: int
    out: str | None
    fmt: str

    def limits(self) -> dict:
        return {"depth": self.depth, "groups": self.groups, "scale": self.scale,
                "precision": self.precision, "budget": self.budget}

    def make_budget(self) -> Budget:
        return Budget(self.budget)

    def parse_hfn(self, d: dict, where: str = "hfn") -> DyadicHFn:
        """A gauge spec read at --precision unless it sets precision_bits."""
        return specio.parse_hfn(d, where, self.precision)


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg: RunConfig, payload: dict) -> None:
    _write(cfg, specio.canonical_json(payload))


def _emit_csv(cfg: RunConfig, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _write(cfg, buf.getvalue())


# ---------------------------------------------------------------------------
# Commands


def cmd_dim(cfg: RunConfig, args) -> int:
    e = specio.parse_set(specio.load_json(args.set))
    lo, hi = _parse_range(args.range, default=(1, cfg.depth))
    if args.hfn:
        # gauge given: emit the box-content sequence n, N, N*h instead
        h = cfg.parse_hfn(specio.load_json(args.hfn))
        seq = measures.box_content_sequence(e, h, lo, hi, cfg.make_budget())
        rows = [(n, specio.rational_str(count), specio.ratio_str(v_hi, seq.den))
                for n, count, v_hi in zip(seq.scales, seq.counts, seq.his)]
        if cfg.fmt == "csv":
            _emit_csv(cfg, ["n", "N", "N_times_h"], rows)
        else:
            _emit_json(cfg, {
                "rows": [{"n": n, "N": c, "N_times_h": v} for n, c, v in rows],
                "tail_sup": specio.rational_str(seq.tail_sup),
                "tail_inf": specio.rational_str(seq.tail_inf),
                "window_start": seq.window_start,
                "limits": cfg.limits(),
            })
        return EXIT_PASS
    report = measures.box_dimensions(e, lo, hi, cfg.make_budget())
    rows = [(n, specio.rational_str(c), f"{r:.6f}") for n, c, r in report.rows]
    if cfg.fmt == "csv":
        _emit_csv(cfg, ["n", "N", "log2N_over_n"], rows)
        return EXIT_PASS
    payload = {
        "rows": [{"n": n, "N": c, "log2N_over_n": r} for n, c, r in rows],
        "lower_estimate": f"{report.lower_estimate:.6f}",
        "upper_estimate": f"{report.upper_estimate:.6f}",
        "limits": cfg.limits(),
    }
    if report.closed_form is not None:
        payload["closed_form"] = {
            "complement_density_lower": specio.rational_str(report.closed_form[0]),
            "complement_density_upper": specio.rational_str(report.closed_form[1]),
        }
    _emit_json(cfg, payload)
    return EXIT_PASS


def cmd_measure(cfg: RunConfig, args) -> int:
    e = specio.parse_set(specio.load_json(args.set))
    h = cfg.parse_hfn(specio.load_json(args.hfn))
    bound = measures.hausdorff_measure_delta(e, h, cfg.scale, cfg.depth,
                                             cfg.make_budget())
    _emit_json(cfg, {
        "lower": specio.rational_str(bound.lower),
        "upper": specio.rational_str(bound.upper),
        "scale_m": bound.scale_m,
        "depth": bound.depth,
        "gauge": bound.gauge,
        "lower_source": bound.lower_source,
        "mass_exact": bound.mass_exact,
        "limits": cfg.limits(),
    })
    return EXIT_PASS


def _instance_ec3(cfg: RunConfig):
    h = power_hfn(Fraction(1, 2), precision=cfg.precision)
    ispec = measures.sparse_I_builder(h, 64)
    e = CISet(ispec)
    cert = measures.mass_lower_certificate(e, h, measures.CIProductMass(ispec), 64,
                                           cfg.make_budget())
    checks = {"certificate_ok": cert.ok and cert.value >= 1,
              "certificate": specio.rational_str(cert.value),
              "exact": cert.exact}
    uppers_ok = True
    for m in (8, 32, 64):
        b = measures.hausdorff_measure_delta(e, h, m, 64, cfg.make_budget())
        uppers_ok = uppers_ok and b.upper >= cert.value
    checks["dp_uppers_dominate"] = uppers_ok
    return all(v for v in checks.values() if isinstance(v, bool)), checks


def _instance_howroyd_i(cfg: RunConfig):
    half = power_hfn(Fraction(1, 2), precision=cfg.precision)
    rep = measures.product_inequality_check(
        CISet(evens()), CISet(odds()), half, half, 1, 12, budget=cfg.make_budget())
    return rep.counting_exact and rep.content_window_ok, {
        "counting_exact": rep.counting_exact,
        "content_window_ok": rep.content_window_ok,
    }


def _instance_chain(cfg: RunConfig, e, h):
    rep = measures.chain_check(e, h, cfg.scale, cfg.depth, budget=cfg.make_budget())
    return rep.ok, {
        "H_lower": specio.rational_str(rep.h_bounds.lower),
        "H_upper": specio.rational_str(rep.h_bounds.upper),
        "dbox_witness": specio.rational_str(rep.dbox_witness),
        "ubox_tail_sup": specio.rational_str(rep.ubox_tail_sup),
        "failures": list(rep.failures),
    }


BUILTIN_INSTANCES = {
    "EC3": _instance_ec3,
    "howroyd-i": _instance_howroyd_i,
    "chain-fullcube": lambda cfg: _instance_chain(
        cfg, FullCube(), power_hfn(1, precision=cfg.precision)),
    "chain-ci": lambda cfg: _instance_chain(
        cfg, CISet(evens()), power_hfn(Fraction(1, 2), precision=cfg.precision)),
}


def _verify_cover(cfg: RunConfig, e, cover, gamma: bool):
    """(ok, detail) of the gamma-groupable check, or of the lambda check."""
    if gamma:
        v = covers.verify_gamma_groupable(e, cover, cfg.groups, cfg.depth,
                                          cfg.make_budget())
        return v.holds, {"status": v.status, "j0": v.j0, "depth": v.depth,
                         "group_failures": list(v.group_failures)}
    v = covers.verify_lambda(e, cover, cfg.groups, cfg.depth, cfg.make_budget())
    return v.holds, {"status": v.status, "failure_index": v.failure_index,
                     "depth": v.depth}


def _verify_from_file(cfg: RunConfig, spec: dict):
    if not isinstance(spec, dict):
        raise SpecFormatError("check spec must be an object")
    check = spec.get("check")
    if check == "chain":
        e = specio.parse_set(spec.get("set", {}), "set")
        h = cfg.parse_hfn(spec.get("hfn", {}), "hfn")
        return _instance_chain(cfg, e, h)
    if check == "product":
        a = specio.parse_set(spec.get("a", {}), "a")
        b = specio.parse_set(spec.get("b", {}), "b")
        h = cfg.parse_hfn(spec.get("h", {}), "h")
        g = cfg.parse_hfn(spec.get("g", {}), "g")
        bounds = spec.get("range", [1, 12])
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise SpecFormatError("range must list two integers", "range")
        lo, hi = (specio.integer(v, f"range[{i}]") for i, v in enumerate(bounds))
        rep = measures.product_inequality_check(a, b, h, g, lo, hi,
                                                budget=cfg.make_budget())
        return rep.ok, {"counting_exact": rep.counting_exact,
                        "transport_ok": rep.transport_ok,
                        "lower_product_ok": rep.lower_product_ok}
    if check in ("cover-gamma", "cover-lambda"):
        e = specio.parse_set(spec.get("set", {}), "set")
        cover = specio.parse_cover(spec.get("cover", []), "cover")
        return _verify_cover(cfg, e, cover, check == "cover-gamma")
    if check == "einc":
        f, g = (ideals.BlockPartition(specio.integers(spec, key, "einc"))
                for key in ("f", "g"))
        fams, gfams = (specio.word_lists(specio._need(spec, key, "einc"), f"einc.{key}")
                       for key in ("F", "G"))
        fam = ideals.BlockFamily(f, fams)
        gfam = ideals.BlockFamily(f.compose(g), gfams)
        horizon = specio.integer(spec.get("horizon", cfg.groups), "einc.horizon")
        if horizon < 1:
            raise SpecFormatError("horizon must be positive", "einc.horizon")
        v = ideals.einc_inclusion(f, g, fam, gfam, horizon)
        return v.n0 is not None, {"n0": v.n0, "failures": list(v.failures)}
    raise SpecFormatError(f"unknown check {check!r}", "check")


def cmd_verify(cfg: RunConfig, args) -> int:
    name = args.instance
    if name in BUILTIN_INSTANCES:
        ok, detail = BUILTIN_INSTANCES[name](cfg)
    else:
        spec = specio.load_json(name)
        ok, detail = _verify_from_file(cfg, spec)
    _emit_json(cfg, {"instance": name, "status": "pass" if ok else "fail",
                     "detail": detail, "limits": cfg.limits()})
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_cover(cfg: RunConfig, args) -> int:
    if args.action == "build":
        e = specio.parse_set(specio.load_json(args.set))
        h = cfg.parse_hfn(_load_flag(args, "hfn"))
        filt = measures.Filtration(tuple([e] * args.levels))
        cover = covers.build_gamma_groupable(filt, h, max_scale=cfg.depth,
                                             depth=cfg.depth,
                                             budget=cfg.make_budget())
        # the depth the build checked at: a product's words reach 2 * --depth
        depth = max(cfg.depth, max(map(len, cover.elements)))
        v = covers.verify_gamma_groupable(e, cover, cover.group_count - 1,
                                          depth, cfg.make_budget())
        payload = specio.cover_to_obj(cover)
        if args.cover_out:
            with open(args.cover_out, "w", encoding="utf-8") as fh:
                fh.write(specio.canonical_json(payload))
        total = covers.gamma_grouped_sum(cover, h, e.interleaved)
        _emit_json(cfg, {"status": "pass" if v.holds else "fail",
                         "groups": cover.group_count,
                         "elements": len(cover.elements),
                         "hausdorff_sum": specio.rational_str(total),
                         "j0": v.j0, "limits": cfg.limits()})
        return EXIT_PASS if v.holds else EXIT_FAIL
    # the verify action: argparse's choices refuse any other
    e = specio.parse_set(specio.load_json(args.set))
    cover = specio.parse_cover(_load_flag(args, "cover"))
    ok, detail = _verify_cover(cfg, e, cover, cover.groups is not None)
    _emit_json(cfg, {"detail": detail, "status": "pass" if ok else "fail",
                     "limits": cfg.limits()})
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_witness(cfg: RunConfig, args) -> int:
    if args.action == "check":
        w = specio.parse_witness(_load_flag(args, "witness"))
        check_word(args.x)
        lo, hi = _parse_range(args.range, default=(0, cfg.groups))
        if isinstance(w, ideals.ShelahMWitness):
            v = ideals.shelahM_check(w, args.x, lo, hi)
        elif isinstance(w, ideals.ShelahNWitness):
            v = ideals.shelahN_check(w, args.x, lo, hi)
        elif isinstance(w, ideals.TPrimeWitness):
            v = ideals.tprime_check(w, args.x, lo, hi)
        else:
            raise SpecFormatError("witness check takes a shelahm, shelahn or "
                                  "tprime witness")
        ok = v.n0 is not None
        _emit_json(cfg, {"outcomes": [[n, flag] for n, flag in v.outcomes],
                         "n0": v.n0, "horizon": v.horizon,
                         "status": "pass" if ok else "fail",
                         "limits": cfg.limits()})
        return EXIT_PASS if ok else EXIT_FAIL
    h = cfg.parse_hfn(_load_flag(args, "hfn"))
    report, ok = {}, True
    if args.action == "compile-me":
        f = ideals.me_fbuilder(h, args.k)
        sums = ideals.me_sums(f, h, args.k)
        ok = all(s <= Fraction(1, 1 << k) for k, s in enumerate(sums))
        report = {"partial_sum": specio.rational_str(sum(sums)), "inequality_ok": ok}
    elif args.action == "compile-nadd":
        f = ideals.nadd_fbuilder(lambda n: _inverse_hi(h, max(0, n - 1)), args.k)
    else:
        f = ideals.tprime_fbuilder(lambda n: _inverse_hi(h, n), lambda n: n + 1, args.k)
    if args.witness_out:
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            fh.write(specio.canonical_json({"f": list(f.table)}))
    _emit_json(cfg, {"f": list(f.table), **report, "status": "pass" if ok else "fail",
                     "limits": cfg.limits()})
    return EXIT_PASS if ok else EXIT_FAIL


def _inverse_hi(h: DyadicHFn, n: int) -> Fraction:
    """1 / h.hi_at(n), made as one Fraction."""
    _, hi, den = h.sample_at(n)
    return Fraction(den, hi)


# ---------------------------------------------------------------------------
# Wiring


def _load_flag(args, flag: str):
    """The JSON file named by a flag that the chosen action requires."""
    path = getattr(args, flag)
    if path is None:
        raise SpecFormatError(f"{args.command} {args.action} needs --{flag}")
    return specio.load_json(path)


def _parse_range(text, default):
    if not text:
        return default
    try:
        lo, hi = map(int, text.split(":"))
        if 0 <= lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise SpecFormatError(f"bad range {text!r}; want LO:HI with 0 <= LO <= HI")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.

    ``parse_args`` leaves a parser as it found it, so callers that run
    ``main`` many times in one process pay for argparse's tree once.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    common.add_argument("--groups", type=int, default=DEFAULT_GROUPS)
    common.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    common.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS)
    common.add_argument("--budget", type=int, default=None,
                        help="node budget (env CANTORDIM_BUDGET overrides "
                             "the default)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None)

    p = argparse.ArgumentParser(prog="cantordim",
                                description="Exact fractal measures and "
                                            "witness combinatorics on the "
                                            "Cantor cube.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dim", parents=[common],
                       help="covering-number table and dimension estimates")
    d.add_argument("set")
    d.add_argument("--range", default=None)
    d.add_argument("--hfn", default=None,
                   help="emit the content sequence n, N, N*h for this gauge")

    m = sub.add_parser("measure", parents=[common],
                       help="certified Hausdorff-measure bounds")
    m.add_argument("set")
    m.add_argument("hfn")

    v = sub.add_parser("verify", parents=[common],
                       help="run a named or file-described instance")
    v.add_argument("instance")

    c = sub.add_parser("cover", parents=[common], help="build or verify covers")
    c.add_argument("action", choices=("build", "verify"))
    c.add_argument("--set", required=True)
    c.add_argument("--hfn")
    c.add_argument("--cover")
    c.add_argument("--levels", type=int, default=4)
    c.add_argument("--cover-out", dest="cover_out")

    w = sub.add_parser("witness", parents=[common],
                       help="compile or check block witnesses")
    w.add_argument("action",
                   choices=("compile-me", "compile-nadd", "compile-tprime",
                            "check"))
    w.add_argument("--hfn")
    w.add_argument("--witness")
    w.add_argument("--k", type=int, default=12)
    w.add_argument("--x", default="")
    w.add_argument("--range", default=None)
    w.add_argument("--witness-out", dest="witness_out")
    return p


COMMANDS = {
    "dim": cmd_dim,
    "measure": cmd_measure,
    "verify": cmd_verify,
    "cover": cmd_cover,
    "witness": cmd_witness,
}


def _default_budget() -> int:
    text = os.environ.get("CANTORDIM_BUDGET")
    if text is None:
        return DEFAULT_NODE_BUDGET
    try:
        return int(text)
    except ValueError:
        raise SpecFormatError(f"CANTORDIM_BUDGET={text!r} is not an integer") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        budget = args.budget if args.budget is not None else _default_budget()
        cfg = RunConfig(args.command, args.depth, args.groups, args.scale,
                        args.precision, budget, args.out, args.format)
        if min(cfg.depth, cfg.groups, cfg.precision, cfg.budget) <= 0 or cfg.scale < 0:
            raise SpecFormatError("limits must be positive (scale nonnegative)")
        return COMMANDS[args.command](cfg, args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SpecFormatError, DepthExceededError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BuildError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except CantorDimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
