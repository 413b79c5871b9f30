"""Span recording around dualgap's public functions, installed from outside the package.

``install`` replaces each traced function at every module attribute that
binds it, so calls through ``from .x import y`` bindings are caught as well
as calls through the defining module.  Each call records one span (id,
name, start, end, parent id, pass id); spans stay in memory until the run
ends and ``Tracer.write`` dumps them with the counters.  ``pass_metrics``
turns a dump back into per-pass layer metrics, using self times: a span's
duration minus the part of it that its child spans cover.
"""

import collections
import functools
import importlib
import itertools
import os
import statistics
import time

PACKAGE = "dualgap"

#: module -> public functions traced in it; the CLI pipelines are added per command
TRACED = {
    "lattice": ("interpolate",),
    "solver": ("solve", "primal_step", "dual_step", "write_surface_csv", "enumerate_coupled"),
    "market": ("penalty_conjugate", "coefficient_bounds", "dual_coefficient_bounds"),
    "apriori": ("truncation_allowance", "envelope_constants", "em_bound", "gh_bound"),
    "duality": ("duality_gap", "aposteriori_bounds", "polar_defect", "write_gap_csv"),
    "analytics": ("run_ladder", "window_norms", "write_convergence_csv"),
    "cli": ("load_config", "build_problem"),
    "quadrature": ("gauss_hermite_rule",),
    "utility": ("conjugate_spec",),
}

#: counted but not timed, so their time stays in the caller's self time
COUNTED = {"optim": ("golden_max",)}

PIPELINES = ("solve-primal", "solve-dual", "gap", "convergence", "bounds", "polar-check")
LEVELS = range(1, 7)

#: every per-layer metric ``pass_metrics`` reports, in report order
METRICS = (
    "lattice.interpolate.calls",
    "lattice.interpolate.s",
    "lattice.interpolate.points",
    *(f"solver.solve.{d}.k{k}.s" for d in ("primal", "dual") for k in LEVELS),
    "solver.primal_step.calls",
    "solver.primal_step.s",
    "solver.dual_step.calls",
    "solver.dual_step.s",
    "solver.write_surface_csv.calls",
    "solver.write_surface_csv.s",
    "solver.write_surface_csv.bytes",
    "solver.enumerate_coupled.calls",
    "solver.enumerate_coupled.s",
    "solver.enumerate_coupled.branches",
    "market.penalty_conjugate.calls",
    "market.penalty_conjugate.s",
    "market.penalty_conjugate.distinct_share",
    "market.coefficient_bounds.s",
    "market.dual_coefficient_bounds.s",
    "optim.golden_max.calls",
    "apriori.truncation_allowance.calls",
    "apriori.truncation_allowance.s",
    "apriori.envelope_constants.s",
    "apriori.em_bound.s",
    "apriori.gh_bound.s",
    "duality.duality_gap.s",
    "duality.boundary_hit_share",
    "duality.aposteriori_bounds.s",
    "duality.polar_defect.calls",
    "duality.polar_defect.s",
    "duality.write_gap_csv.s",
    "analytics.run_ladder.s",
    "analytics.window_norms.s",
    "analytics.write_convergence_csv.s",
    *(f"cli.{p}.s" for p in PIPELINES),
    "cli.output_bytes",
    "cli.load_config.s",
    "cli.build_problem.s",
    "quadrature.gauss_hermite_rule.calls",
    "quadrature.gauss_hermite_rule.s",
    "utility.conjugate_spec.s",
)

Span = collections.namedtuple("Span", "sid name start end parent pass_id")


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.pass_id = 0
        self.spans = []
        self.counts = collections.defaultdict(int)  # (pass_id, counter) -> total
        self.returns = []  # (span id, repr of the return value)
        self._ids = itertools.count(1)
        self._stack = [0]  # 0: no enclosing span

    def count(self, counter, amount):
        self.counts[(self.pass_id, counter)] += amount

    def wrap(self, fn, name, name_of=None, after=None):
        """``fn`` recording one span per call; ``name_of(args, kwargs)`` overrides ``name``."""
        spans, stack, clock, ids = self.spans, self._stack, time.perf_counter_ns, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if name_of is None else name_of(args, kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, span_name, start, end, parent, self.pass_id))
            if after is not None:
                after(self, sid, args, kwargs, result)
            return result

        return traced

    def counted(self, fn, name):
        """``fn`` adding one to counter ``name`` per call, without a span."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[(self.pass_id, name)] += 1
            return fn(*args, **kwargs)

        return counting

    def write(self, path):
        """Dump spans, counters and recorded return values as tab-separated records."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(f"S\t{s.sid}\t{s.name}\t{s.start}\t{s.end}\t{s.parent}\t{s.pass_id}\n")
            for (pass_id, counter), total in sorted(self.counts.items()):
                fh.write(f"C\t{pass_id}\t{counter}\t{total}\n")
            for sid, value in self.returns:
                fh.write(f"R\t{sid}\t{value}\n")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _solve_name(args, kwargs):
    disc = _arg(args, kwargs, 2, "disc")
    direction = _arg(args, kwargs, 3, "direction", "primal")
    level = (disc.steps // 4).bit_length() - 1  # steps = 4 * 2^k
    return f"solver.solve.{direction}.k{level}"


def _after_interpolate(tracer, sid, args, kwargs, result):
    query = _arg(args, kwargs, 2, "query")
    tracer.count("lattice.interpolate.points", getattr(query, "size", 1))


def _after_write_surface(tracer, sid, args, kwargs, result):
    tracer.count("solver.write_surface_csv.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _after_enumerate(tracer, sid, args, kwargs, result):
    tracer.count("solver.enumerate_coupled.branches", len(result[2]))


def _after_penalty(tracer, sid, args, kwargs, result):
    tracer.returns.append((sid, repr(result)))


def _after_gap(tracer, sid, args, kwargs, result):
    tracer.count("duality.boundary_hits", int(result.boundary_hit.sum()))
    tracer.count("duality.gap_nodes", int(result.boundary_hit.size))


_HOOKS = {
    "lattice.interpolate": {"after": _after_interpolate},
    "solver.solve": {"name_of": _solve_name},
    "solver.write_surface_csv": {"after": _after_write_surface},
    "solver.enumerate_coupled": {"after": _after_enumerate},
    "market.penalty_conjugate": {"after": _after_penalty},
    "duality.duality_gap": {"after": _after_gap},
}


def install(tracer):
    """Wrap every traced or counted function at each ``dualgap`` module attribute bound to it."""
    names = {*TRACED, *COUNTED}
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}
    bindings = [importlib.import_module(PACKAGE), *modules.values()]

    def rebind(fn, wrapped):
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    for module_name, functions in TRACED.items():
        for fn_name in functions:
            fn = getattr(modules[module_name], fn_name)
            name = f"{module_name}.{fn_name}"
            rebind(fn, tracer.wrap(fn, name, **_HOOKS.get(name, {})))
    for module_name, functions in COUNTED.items():
        for fn_name in functions:
            fn = getattr(modules[module_name], fn_name)
            rebind(fn, tracer.counted(fn, f"{module_name}.{fn_name}.calls"))
    pipelines = modules["cli"]._PIPELINES
    for command in PIPELINES:
        pipelines[command] = tracer.wrap(pipelines[command], f"cli.{command}")


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """{span id: duration minus the time its direct children cover}."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(s.start, s.end, children[s.sid]) for s in spans}


def read(path):
    """Inverse of ``Tracer.write``: (spans, {(pass, counter): total}, [(sid, value)])."""
    spans, counts, returns = [], {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            kind, *fields = line.rstrip("\n").split("\t")
            if kind == "S":
                sid, name, start, end, parent, pass_id = fields
                spans.append(Span(int(sid), name, int(start), int(end), int(parent), int(pass_id)))
            elif kind == "C":
                counts[(int(fields[0]), fields[1])] = int(fields[2])
            else:
                returns.append((int(fields[0]), fields[1]))
    return spans, counts, returns


def _distinct_share(spans, returns):
    """{pass: distinct return values per enclosing solve, summed, over calls}.

    Calls outside any solve are grouped by their direct parent span.
    """
    by_id = {s.sid: s for s in spans}
    groups = collections.defaultdict(set)
    calls = collections.Counter()
    for sid, value in returns:
        span = by_id[sid]
        group = span.parent
        node = by_id.get(span.parent)
        while node is not None:
            if node.name.startswith("solver.solve."):
                group = node.sid
                break
            node = by_id.get(node.parent)
        groups[(span.pass_id, group)].add(value)
        calls[span.pass_id] += 1
    distinct = collections.Counter()
    for (pass_id, _), values in groups.items():
        distinct[pass_id] += len(values)
    return {p: distinct[p] / calls[p] for p in calls}


def pass_metrics(spans, counts, returns):
    """{pass id: {metric: value}} for every metric in ``METRICS`` except ``cli.output_bytes``."""
    own = self_times(spans)
    passes = sorted({s.pass_id for s in spans} | {p for p, _ in counts})
    out = {p: dict.fromkeys(METRICS, 0) for p in passes}
    for s in spans:
        m = out[s.pass_id]
        m[f"{s.name}.s"] = m.get(f"{s.name}.s", 0) + own[s.sid] / 1e9
        m[f"{s.name}.calls"] = m.get(f"{s.name}.calls", 0) + 1
    for (pass_id, counter), total in counts.items():
        out[pass_id][counter] = total
    for pass_id, share in _distinct_share(spans, returns).items():
        out[pass_id]["market.penalty_conjugate.distinct_share"] = share
    for m in out.values():
        nodes = m.get("duality.gap_nodes", 0)
        hits = m.get("duality.boundary_hits", 0)
        m["duality.boundary_hit_share"] = hits / nodes if nodes else 0.0
    return out


def median_metrics(per_pass):
    """Median over passes of each metric in ``METRICS``; counts stay whole numbers."""
    return {
        name: (statistics.median if name.endswith(".s") else statistics.median_low)(
            [m.get(name, 0) for m in per_pass]
        )
        for name in METRICS
    }
