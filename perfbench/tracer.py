"""Spans and counters recorded around calls into each cantordim module.

The wrappers live here, not in the package: ``Tracer.install`` replaces the
public functions and methods listed in ``SPANS`` with timing wrappers and
``Tracer.uninstall`` puts the originals back.  Per-node methods
(``TreeSet.children``/``step``, ``DyadicHFn.value``) are deliberately left
alone; their cost lands in the self time of the span that called them, and
``treeset.nodes`` reports their volume.

A span is (name, start, end, parent, job id).  Spans are kept in memory in
compact columns and written out by ``write_spans`` when the run ends.  A
layer's self time is the duration of its spans minus the time covered by
their child spans.
"""

from __future__ import annotations

import gzip
import inspect
import os
import time
from array import array
from collections import Counter

LAYERS = ("words", "treeset", "hfun", "measures", "covers", "ideals",
          "specio", "cli")

# layer -> (owner path relative to the layer module, attribute names)
SPANS = {
    "words": [("ISpec", ("contains", "count_below", "complement_count")),
              ("", ("all_words", "xor_words", "interleave"))],
    "treeset": [("TreeSet", ("trace", "trace_count", "first_branch",
                             "local_diameter", "state_at", "meets")),
                ("", ("is_trace_subset",))],
    "hfun": [("", ("power_hfn", "power_log_hfn", "table_hfn", "precede",
                   "finite_order", "diagonal_dominate", "multiply", "compose",
                   "grid_inverse", "hfn_from_epsilons", "eval_at_rational"))],
    "measures": [("", ("covering_number", "box_content_sequence",
                       "box_dimensions", "hausdorff_measure_delta",
                       "extract_optimal_cover", "mass_lower_certificate",
                       "sparse_I_builder", "dbox_on_filtration", "chain_check",
                       "product_inequality_check", "lipschitz_image_check",
                       "increasing_sets_split")),
                 ("Filtration", ("validate",))],
    "covers": [("", ("is_cover_at_depth", "verify_lambda",
                     "verify_gamma_groupable", "gamma_grouped_sum",
                     "epsilons_for_gauge", "build_fine_lambda",
                     "build_gamma_groupable", "build_bounded_groups",
                     "verify_combPnull_witness", "verify_combDnull_witness",
                     "build_dpnull_witness", "merge_diagonal",
                     "product_cover"))],
    "ideals": [("", ("s_membership_count", "einc_inclusion", "ank_test",
                     "xtilde_level_set", "xtilde_filtration", "shelahM_check",
                     "me_fbuilder", "me_sums", "me_cover", "shelahN_check",
                     "shelahN_filtration", "nadd_fbuilder", "nadd_box_check",
                     "tprime_check", "tprime_fbuilder", "tprime_level_sets",
                     "tprime_lbox_check", "tprime_from_dpnull_witness"))],
    "specio": [("", ("parse_ispec", "parse_set", "set_to_dict", "parse_hfn",
                     "hfn_to_dict", "parse_cover", "cover_to_obj",
                     "parse_witness", "witness_to_dict", "load_json",
                     "canonical_json"))],
    "cli": [("", ("main",))],
}

COUNTERS = ("treeset.nodes", "hfun.gauges_built", "measures.scales",
            "measures.result_bits", "covers.cylinders_checked",
            "covers.distinct_words", "ideals.blocks_checked",
            "specio.bytes_in", "specio.bytes_out", "cli.jobs")


def _put(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _bits(*values) -> int:
    out = 0
    for v in values:
        if v is not None:
            out = max(out, v.numerator.bit_length(), v.denominator.bit_length())
    return out


class Tracer:
    """Span recorder plus the named counters of one traced pass."""

    def __init__(self, modules):
        self.modules = modules          # name -> cantordim submodule
        self.enabled = False
        self.keep_spans = False
        self.job = -1
        self.names: list[str] = []
        self.col_name = array("i")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("i")
        self.col_job = array("i")
        self._stack: list[list] = []    # [span index, layer, start, child ns]
        self._patches: list = []
        self._job_words: set = set()
        self.cli_budgets: list = []     # budgets cli.main made for itself
        self.reset_pass()

    # -- per-pass totals ----------------------------------------------------

    def reset_pass(self):
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter({name: 0 for name in COUNTERS})

    def begin_job(self, job_id: int):
        self.job = job_id
        self._job_words = set()
        self.cli_budgets = []

    def end_job(self, budgets):
        """Add the job's node spend: the budgets the benchmark passed in and
        those the CLI built from its --budget flag."""
        self.counts["treeset.nodes"] += sum(b.used for b in budgets + self.cli_budgets)
        self.counts["covers.distinct_words"] += len(self._job_words)

    # -- spans ----------------------------------------------------------------

    def _open(self, name_id: int, layer: str):
        parent = self._stack[-1][0] if self._stack else -1
        idx = -1
        if self.keep_spans:
            idx = len(self.col_name)
            self.col_name.append(name_id)
            self.col_parent.append(parent)
            self.col_job.append(self.job)
            self.col_start.append(0)
            self.col_end.append(0)
        frame = [idx, layer, 0, 0]
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def _close(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        idx, layer, start, child = frame
        dur = end - start
        self.self_ns[layer] += dur - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][3] += dur
        if idx >= 0:
            self.col_start[idx] = start
            self.col_end[idx] = end

    def _wrap(self, layer: str, qualname: str, fn, hook):
        name_id = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        tracer = self
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open(name_id, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every listed callable wherever the package refers to it."""
        if not self._patches:
            self._build_patches()
        for container, key, _, wrapped in self._patches:
            _put(container, key, wrapped)

    def uninstall(self):
        for container, key, original, _ in reversed(self._patches):
            _put(container, key, original)

    def _build_patches(self):
        hooks = _hooks()
        replaced = {}
        for layer, groups in SPANS.items():
            mod = self.modules[layer]
            for owner_name, attrs in groups:
                owner = getattr(mod, owner_name) if owner_name else mod
                for attr in attrs:
                    original = vars(owner)[attr]
                    qual = f"{owner_name}.{attr}" if owner_name else attr
                    wrapped = self._wrap(layer, qual, original, hooks.get(f"{layer}.{qual}"))
                    self._patches.append((owner, attr, original, wrapped))
                    if not owner_name:
                        replaced[id(original)] = (original, wrapped)
        # names bound by "from .x import y" in the other modules
        done = {(id(c), k) for c, k, _, _ in self._patches}
        for mod in self.modules.values():
            for key, value in vars(mod).items():
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value and (id(mod), key) not in done:
                    self._patches.append((mod, key, value, hit[1]))
        # the CLI dispatch table holds its command functions directly
        commands = self.modules["cli"].COMMANDS
        for key, fn in commands.items():
            self._patches.append((commands, key, fn, self._wrap("cli", fn.__name__, fn, None)))
        self._patches.extend(self._construction_counters())

    def _construction_counters(self):
        """Count DyadicHFn constructions and register CLI-made budgets."""
        tracer = self
        hfn_cls = self.modules["hfun"].DyadicHFn
        init = hfn_cls.__init__

        def counted_init(obj, *args, **kwargs):
            if tracer.enabled:
                tracer.counts["hfun.gauges_built"] += 1
            init(obj, *args, **kwargs)

        cfg_cls = self.modules["cli"].RunConfig
        make_budget = cfg_cls.make_budget

        def registered_budget(cfg):
            budget = make_budget(cfg)
            tracer.cli_budgets.append(budget)
            return budget

        return [(hfn_cls, "__init__", init, counted_init),
                (cfg_cls, "make_budget", make_budget, registered_budget)]

    # -- output ------------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.col_name)

    def write_spans(self, path: str):
        """Gzipped TSV: name, start_ns, end_ns, parent index, job id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            names = self.names
            for i in range(len(self.col_name)):
                fh.write(f"{names[self.col_name[i]]}\t{self.col_start[i]}\t"
                         f"{self.col_end[i]}\t{self.col_parent[i]}\t"
                         f"{self.col_job[i]}\n")


# ---------------------------------------------------------------------------
# Counter hooks: read call arguments and results of selected spans


def _scales_range(lo_key: str, hi_key: str, floor: int = 0):
    def hook(tr, args, result):
        tr.counts["measures.scales"] += max(0, args[hi_key] - max(floor, args[lo_key]) + 1)
        if hasattr(result, "tail_sup"):
            tr.counts["measures.result_bits"] = max(
                tr.counts["measures.result_bits"],
                _bits(result.tail_sup, result.tail_inf, result.tail_inf_lo))
    return hook


def _one_scale(tr, args, result):
    tr.counts["measures.scales"] += 1
    vals = (result.lower, result.upper) if hasattr(result, "upper") else (result[1],)
    tr.counts["measures.result_bits"] = max(tr.counts["measures.result_bits"],
                                            _bits(*vals))


def _mass_bits(tr, args, result):
    tr.counts["measures.result_bits"] = max(tr.counts["measures.result_bits"],
                                            _bits(result.value))


def _cover_words(tr, args, result):
    elems = [w for w in args["elements"] if len(w) <= args["n"]]
    tr.counts["covers.cylinders_checked"] += len(elems)
    tr._job_words.update(elems)


def _blocks(count_of):
    def hook(tr, args, result):
        tr.counts["ideals.blocks_checked"] += count_of(args, result)
    return hook


def _einc_pairs(args, result):
    g, fam, gfam = args["g"], args["fam"], args["gfam"]
    total = 0
    for n in range(min(args["horizon"], gfam.count)):
        total += max(0, min(g(n + 1), fam.count) - g(n))
    return total


def _bytes_in(tr, args, result):
    tr.counts["specio.bytes_in"] += os.path.getsize(args["path"])


def _bytes_out(tr, args, result):
    tr.counts["specio.bytes_out"] += len(result.encode("utf-8"))


def _cli_job(tr, args, result):
    tr.counts["cli.jobs"] += 1


def _hooks():
    outcomes = _blocks(lambda a, r: len(r.outcomes))
    rows = _blocks(lambda a, r: len(r.rows))
    return {
        "measures.box_content_sequence": _scales_range("n_lo", "n_hi"),
        "measures.box_dimensions": _scales_range("n_lo", "n_hi", floor=1),
        "measures.hausdorff_measure_delta": _one_scale,
        "measures.extract_optimal_cover": _one_scale,
        "measures.mass_lower_certificate": _mass_bits,
        "covers.is_cover_at_depth": _cover_words,
        "ideals.einc_inclusion": _blocks(_einc_pairs),
        "ideals.s_membership_count": _blocks(lambda a, r: r.blocks_checked),
        "ideals.shelahM_check": outcomes,
        "ideals.shelahN_check": outcomes,
        "ideals.tprime_check": outcomes,
        "ideals.nadd_box_check": rows,
        "ideals.tprime_lbox_check": rows,
        "specio.load_json": _bytes_in,
        "specio.canonical_json": _bytes_out,
        "cli.main": _cli_job,
    }
