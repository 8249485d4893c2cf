"""Span tracing of brauercat's layers, installed from outside the package.

Each traced entry point is replaced, in every ``brauercat`` module that
holds a reference to it, by a wrapper that records one span: name, start,
end, parent span and operation id.  Spans live in flat arrays while the
workload runs and are written out once it ends.  A call re-entering a
span group that is already open (``a - b`` calling ``a + -b``, the bent
``normal_form`` calling itself) is folded into the outer span, so a
group's inclusive time never counts the same interval twice.

Counters are taken from arguments and return values at the wrapper;
cache hits and misses come from the public ``cache_info()`` of the
``functools.cache`` tables.  Nothing under ``src/`` is edited and no
private state is read.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    """Argument ``index`` of a call, whether passed by position or by name."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def tally(amounts):
    """Counter callback adding each (key, amount) that ``amounts`` returns."""
    def counter(c, args, kwargs, result):
        for key, amount in amounts(args, kwargs, result):
            c[key] += amount
    return counter


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self._open: list[int] = []         # per group: 1 while a span of it is open
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, int] = defaultdict(int)
        self.ev_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}
        self._cache_before: dict[str, tuple[int, int]] = {}

    # -- recording ---------------------------------------------------------

    def _group(self, name: str) -> int:
        gid = self._group_ids.get(name)
        if gid is None:
            gid = self._group_ids[name] = len(self.groups)
            self.groups.append(name)
            self._open.append(0)
        return gid

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each outermost call records a span of ``name``."""
        gid = self._group(name)
        is_open = self._open
        stack = self._stack
        groups, parents, ops = self.span_group, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_open[gid]:
                return fn(*args, **kwargs)
            is_open[gid] = 1
            idx = len(starts)
            groups.append(gid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                is_open[gid] = 0
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def items(self, key: str, gen_fn, also: dict[str, str] | None = None):
        """Wrap a generator function so every yielded item is counted.

        ``also`` maps a span group to a second counter that is bumped for
        items yielded while a span of that group is open.
        """
        counters = self.counters
        is_open = self._open
        inside = [(self._group(group), other) for group, other in (also or {}).items()]

        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counters[key] += 1
                for gid, other in inside:
                    if is_open[gid]:
                        counters[other] += 1
                yield item

        wrapper.__wrapped__ = gen_fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Point every brauercat module attribute that is ``original`` at the wrapper."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "brauercat" or mod_name.startswith("brauercat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr: str, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        """Wrap the layer entry points of the imported brauercat package."""
        # import_module, not "import brauercat.x as x": the package re-exports a
        # function named pfaffian that shadows the submodule attribute.
        category, cli, csp, expr, matchings, pfaffian, scalars, symfunc, tableaux, tensors = (
            importlib.import_module(f"brauercat.{name}")
            for name in ("category", "cli", "csp", "expr", "matchings", "pfaffian",
                         "scalars", "symfunc", "tableaux", "tensors"))

        def fn(module, attr, name, count=None):
            original = getattr(module, attr)
            self._replace_everywhere(original, self.span(name, original, count))

        def method(cls, attr, name, count=None):
            self._replace_method(cls, attr, self.span(name, cls.__dict__[attr], count))

        # matchings: a candidate is a matching enumerated inside enumerate_X(_blocked)
        self._replace_everywhere(matchings.enumerate_matchings, self.items(
            "matchings.enumerate_matchings.items", matchings.enumerate_matchings,
            {name: f"{name}.candidates"
             for name in ("matchings.enumerate_X", "matchings.enumerate_X_blocked")}))
        fn(matchings, "enumerate_X", "matchings.enumerate_X", tally(lambda a, kw, res: (
            ("matchings.enumerate_X.items", len(res)),)))
        fn(matchings, "enumerate_X_blocked", "matchings.enumerate_X_blocked",
           tally(lambda a, kw, res: (("matchings.enumerate_X_blocked.items", len(res)),)))
        fn(matchings, "find_mutually_crossing", "matchings.find_mutually_crossing",
           tally(lambda a, kw, res: (("matchings.find_mutually_crossing.hits", res is not None),)))
        fn(matchings, "orbits", "matchings.orbits",
           tally(lambda a, kw, res: (("matchings.orbits.elements", sum(res)),)))
        method(matchings.PerfectMatching, "rotate", "matchings.PerfectMatching.rotate")

        # csp
        fn(csp, "verify_csp", "csp.verify_csp", tally(lambda a, kw, res: (
            ("csp.verify_csp.elements", len(_arg(a, kw, 0, "inst").elements)),)))
        fn(csp, "fixed_points", "csp.fixed_points", tally(lambda a, kw, res: (
            ("csp.fixed_points.rotations",
             len(_arg(a, kw, 0, "elements")) * _arg(a, kw, 2, "d")),)))

        # tensors
        def ev_count(c, a, kw, res):
            self.ev_keys.add((_arg(a, kw, 0, "d"), _arg(a, kw, 1, "n"),
                              _arg(a, kw, 2, "strategy", "left")))
            c["tensors.ev_diagram.nnz_out"] += len(res.data)
        fn(tensors, "ev_diagram", "tensors.ev_diagram", ev_count)
        method(tensors.Tensor, "contract", "tensors.Tensor.contract", tally(lambda a, kw, res: (
            ("tensors.Tensor.contract.nnz_in",
             len(a[0].data) + len(_arg(a, kw, 1, "other").data)),)))

        def span_rows(a, kw, res):
            rows = len(_arg(a, kw, 0, "tensors"))
            return (("tensors.rank_of_span.rows", rows),
                    ("tensors.rank_of_span.gram_products", rows * rows))
        fn(tensors, "rank_of_span", "tensors.rank_of_span", tally(span_rows))

        def rank_cells(a, kw, res):
            rows = _arg(a, kw, 0, "rows")
            return (("tensors.exact_rank.cells", len(rows) * (len(rows[0]) if rows else 0)),)
        fn(tensors, "exact_rank", "tensors.exact_rank", tally(rank_cells))
        fn(tensors, "ev_morphism", "tensors.ev_morphism")

        # category
        fn(category, "compose_diagrams", "category.compose_diagrams")
        method(category.Morphism, "__mul__", "category.Morphism.mul", tally(lambda a, kw, res: (
            ("category.Morphism.mul.terms_out",
             len(res.terms) if isinstance(res, category.Morphism) else 0),)))
        for attr in ("__add__", "__sub__"):
            method(category.Morphism, attr, "category.Morphism.addsub",
                   tally(lambda a, kw, res: (
                       ("category.Morphism.addsub.terms_in",
                        len(a[0].terms) + len(getattr(a[1], "terms", ()))),)))
        fn(category, "check_eq_ch", "category.check_eq_ch")
        fn(category, "e_rec", "category.e_rec")

        # scalars
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__pow__"):
            method(scalars.DeltaPoly, attr, "scalars.DeltaPoly.ops")

        # pfaffian
        fn(pfaffian, "normal_form", "pfaffian.normal_form", tally(lambda a, kw, res: (
            ("pfaffian.normal_form.terms_out", len(res.terms)),)))
        fn(pfaffian, "rewrite_step", "pfaffian.rewrite_step", tally(lambda a, kw, res: (
            ("pfaffian.rewrite_step.terms_out", len(res.terms)),)))
        fn(pfaffian, "find_violation", "pfaffian.find_violation")

        # tableaux
        self._caches["tableaux.fake_degree_schur"] = tableaux.fake_degree_schur
        fn(tableaux, "fake_degree_schur", "tableaux.fake_degree_schur")
        self._replace_everywhere(tableaux.enumerate_SYT,
                                 self.items("tableaux.enumerate_SYT.items",
                                            tableaux.enumerate_SYT))

        # symfunc
        fn(symfunc, "schur_expand", "symfunc.schur_expand", tally(lambda a, kw, res: (
            ("symfunc.schur_expand.terms", len(res)),)))
        fn(symfunc, "fake_degree", "symfunc.fake_degree")
        for attr in ("invariant_character_matchings", "invariant_character_sym_power",
                     "invariant_character_fundamental", "adjoint_invariant_character"):
            fn(symfunc, attr, "symfunc.invariant_character")
        self._caches["symfunc.mn_character"] = symfunc.mn_character

        # expr and cli
        for attr in ("parse_expr", "parse_morphism"):
            fn(expr, attr, "expr.parse")
        fn(expr, "evaluate", "expr.evaluate")
        for command in CLI_COMMANDS:
            fn(cli, "cmd_" + command.replace("-", "_"), f"cli.{command}")

        for key, cached in self._caches.items():
            info = cached.cache_info()
            self._cache_before[key] = (info.hits, info.misses)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def cache_deltas(self) -> dict[str, float]:
        out = {}
        for key, cached in self._caches.items():
            info = cached.cache_info()
            hits0, misses0 = self._cache_before[key]
            out[f"{key}.cache_hits"] = info.hits - hits0
            out[f"{key}.cache_misses"] = info.misses - misses0
        return out

    def group_totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span group."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.groups}
        for i in range(n):
            t = totals[self.groups[self.span_group[i]]]
            dur = ends[i] - starts[i]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child[i]
        return totals

    def write_spans(self, path):
        """One line per span: id, group, parent id, operation id, start and end (s)."""
        base = min(self.span_start) if self.span_start else 0.0
        with open(path, "w") as out:
            out.write("id\tname\tparent\top\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.groups[self.span_group[i]]}\t{self.span_parent[i]}\t"
                          f"{self.span_op[i]}\t{self.span_start[i] - base:.9f}\t"
                          f"{self.span_end[i] - base:.9f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the benchmark declares, from this trace."""
        g = self.group_totals()
        c = self.counters
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
        t = lambda name: g.get(name, zero)
        ratio = lambda num, den: num / den if den else 0.0
        m = {}
        m["matchings.enumerate_matchings.items"] = c["matchings.enumerate_matchings.items"]
        for name in ("matchings.enumerate_X", "matchings.enumerate_X_blocked"):
            m[f"{name}.s"] = t(name)["s"]
            m[f"{name}.candidates"] = c[f"{name}.candidates"]
            m[f"{name}.items"] = c[f"{name}.items"]
            m[f"{name}.yield_ratio"] = ratio(c[f"{name}.items"], c[f"{name}.candidates"])
        fmc = t("matchings.find_mutually_crossing")
        m["matchings.find_mutually_crossing.calls"] = fmc["calls"]
        m["matchings.find_mutually_crossing.self_s"] = fmc["self_s"]
        m["matchings.find_mutually_crossing.hit_ratio"] = ratio(
            c["matchings.find_mutually_crossing.hits"], fmc["calls"])
        m["matchings.orbits.s"] = t("matchings.orbits")["s"]
        m["matchings.orbits.elements"] = c["matchings.orbits.elements"]
        rot = t("matchings.PerfectMatching.rotate")
        m["matchings.PerfectMatching.rotate.calls"] = rot["calls"]
        m["matchings.PerfectMatching.rotate.self_s"] = rot["self_s"]

        vc = t("csp.verify_csp")
        m["csp.verify_csp.s"] = vc["s"]
        m["csp.verify_csp.calls"] = vc["calls"]
        m["csp.verify_csp.elements"] = c["csp.verify_csp.elements"]
        m["csp.fixed_points.self_s"] = t("csp.fixed_points")["self_s"]
        m["csp.fixed_points.rotations"] = c["csp.fixed_points.rotations"]

        ev = t("tensors.ev_diagram")
        m["tensors.ev_diagram.calls"] = ev["calls"]
        m["tensors.ev_diagram.s"] = ev["s"]
        m["tensors.ev_diagram.distinct"] = len(self.ev_keys)
        m["tensors.ev_diagram.nnz_out"] = c["tensors.ev_diagram.nnz_out"]
        con = t("tensors.Tensor.contract")
        m["tensors.Tensor.contract.calls"] = con["calls"]
        m["tensors.Tensor.contract.self_s"] = con["self_s"]
        m["tensors.Tensor.contract.nnz_in"] = c["tensors.Tensor.contract.nnz_in"]
        m["tensors.rank_of_span.s"] = t("tensors.rank_of_span")["s"]
        m["tensors.rank_of_span.rows"] = c["tensors.rank_of_span.rows"]
        m["tensors.rank_of_span.gram_products"] = c["tensors.rank_of_span.gram_products"]
        m["tensors.exact_rank.self_s"] = t("tensors.exact_rank")["self_s"]
        m["tensors.exact_rank.cells"] = c["tensors.exact_rank.cells"]
        m["tensors.ev_morphism.s"] = t("tensors.ev_morphism")["s"]

        cd = t("category.compose_diagrams")
        m["category.compose_diagrams.calls"] = cd["calls"]
        m["category.compose_diagrams.self_s"] = cd["self_s"]
        mul = t("category.Morphism.mul")
        m["category.Morphism.mul.calls"] = mul["calls"]
        m["category.Morphism.mul.s"] = mul["s"]
        m["category.Morphism.mul.terms_out"] = c["category.Morphism.mul.terms_out"]
        addsub = t("category.Morphism.addsub")
        m["category.Morphism.addsub.calls"] = addsub["calls"]
        m["category.Morphism.addsub.self_s"] = addsub["self_s"]
        m["category.Morphism.addsub.terms_in"] = c["category.Morphism.addsub.terms_in"]
        m["category.check_eq_ch.s"] = t("category.check_eq_ch")["s"]
        m["category.e_rec.s"] = t("category.e_rec")["s"]

        dp = t("scalars.DeltaPoly.ops")
        m["scalars.DeltaPoly.ops.calls"] = dp["calls"]
        m["scalars.DeltaPoly.ops.self_s"] = dp["self_s"]

        nf = t("pfaffian.normal_form")
        rw = t("pfaffian.rewrite_step")
        fv = t("pfaffian.find_violation")
        m["pfaffian.normal_form.s"] = nf["s"]
        m["pfaffian.normal_form.calls"] = nf["calls"]
        m["pfaffian.normal_form.terms_out"] = c["pfaffian.normal_form.terms_out"]
        m["pfaffian.normal_form.scans_per_step"] = ratio(fv["calls"], rw["calls"])
        m["pfaffian.rewrite_step.calls"] = rw["calls"]
        m["pfaffian.rewrite_step.self_s"] = rw["self_s"]
        m["pfaffian.rewrite_step.terms_out"] = c["pfaffian.rewrite_step.terms_out"]
        m["pfaffian.find_violation.calls"] = fv["calls"]

        fds = t("tableaux.fake_degree_schur")
        m["tableaux.fake_degree_schur.s"] = fds["s"]
        m["tableaux.fake_degree_schur.calls"] = fds["calls"]
        m.update({k: v for k, v in self.cache_deltas().items() if k.startswith("tableaux.")})
        m["tableaux.enumerate_SYT.items"] = c["tableaux.enumerate_SYT.items"]

        m["symfunc.schur_expand.s"] = t("symfunc.schur_expand")["s"]
        m["symfunc.schur_expand.terms"] = c["symfunc.schur_expand.terms"]
        m["symfunc.fake_degree.s"] = t("symfunc.fake_degree")["s"]
        m["symfunc.invariant_character.s"] = t("symfunc.invariant_character")["s"]
        m.update({k: v for k, v in self.cache_deltas().items() if k.startswith("symfunc.")})

        m["expr.parse.s"] = t("expr.parse")["s"]
        m["expr.evaluate.s"] = t("expr.evaluate")["s"]
        for command in CLI_COMMANDS:
            m[f"cli.{command}.s"] = t(f"cli.{command}")["s"]
        return m


# CLI commands the workloads run; each gets a ``cli.<command>.s`` span.
CLI_COMMANDS = ("csp-verify", "ev-rank", "normal-form", "idempotent-check", "compose",
                "frobenius", "fake-degree", "littlewood-check", "kronecker-check")

# Per-layer metrics that cannot be measured from outside the package, with the
# reason; cli.output_bytes and trace.overhead_s are added by run.py.
DROPPED: dict[str, str] = {}
