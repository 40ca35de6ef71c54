"""Span tracer that wraps noetherlab's public callables from outside the package.

Every traced call is a span at a layer boundary. Spans are aggregated as they
close, keyed by ``(name, parent name)``, so a sweep of 10^5 calls stays small
in memory: each key keeps its call count, inclusive time and self time (the
inclusive time minus the part covered by child spans on the same thread).
Each thread aggregates into its own table; the tables are merged on read.

Work that ``parallel_map`` fans out runs in pool threads. Each task is a span
named ``<caller>.task`` whose parent is ``numkit.parallel_map``, so the spans
it causes in the pool thread are attributed to the command that mapped it.

A function imported by name (``from .metrics import unitarity_jamiolkowski``)
is bound in several module namespaces; :meth:`Tracer.install` rebinds it in
every one of them. Class constructors and methods are wrapped on the class.
Exact Clebsch-Gordan work is counted through ``cache_info()``, not spans:
one ``two_j=20`` basis makes 194,481 ``cg`` calls.
"""

from __future__ import annotations

import functools
import inspect
import threading
from time import perf_counter

PACKAGE_MODULES = ("cli", "numkit", "su2rep", "su2cov", "chan", "metrics", "u1cov", "bounds", "mcoracle")

# Functions traced as spans, by defining module.
FUNCTIONS = {
    "cli": ("main", "su2_tradeoff_records", "u1_tradeoff_records"),
    "su2rep": ("ito_basis",),
    "su2cov": ("irrep_projector", "covariant_channel", "decompose", "twirl"),
    "chan": ("random_channel", "max_action_deviation"),
    "metrics": ("unitarity_jamiolkowski", "unitarity_complementary", "unitarity_su2_closed",
                "deviation_su2_closed", "deviation_avg", "delta_generators"),
    "u1cov": ("optimal_unitarity_for_population", "u1_deviation", "u1_structure_stats",
              "assert_stochastic", "build_extremal"),
    "bounds": ("su2_bounds", "u1_bound"),
    "mcoracle": ("mc_unitarity", "mc_deviation"),
}

# (module, class, method, span name)
METHODS = (
    ("chan", "QuantumChannel", "__init__", "chan.QuantumChannel"),
    ("chan", "QuantumChannel", "complementary", "chan.complementary"),
    ("su2cov", "CovariantMixture", "__init__", "su2cov.CovariantMixture"),
)

PARALLEL_MAP = "numkit.parallel_map"


class Tracer:
    """Aggregating span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._undo: list[tuple] = []
        self.samples = 0  # Monte Carlo samples requested through traced calls
        self.max_channel_dim = 0  # largest d_out * d_in of a constructed channel
        self.projector_keys: set = set()  # distinct (two_j_in, two_j_out, two_l) requested
        self.map_stats: list = []  # (wall_s, workers, task_s) per parallel_map call

    # -- recording ----------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local.stack, local.table

    def current(self) -> str:
        stack, _ = self._state()
        return stack[-1][0] if stack else "root"

    def call(self, name: str, fn, args, kwargs, parent: str | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack, table = self._state()
        if parent is None:
            parent = stack[-1][0] if stack else "root"
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dur
            agg = table.get((name, parent))
            if agg is None:
                agg = table[(name, parent)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]

    def snapshot(self) -> dict:
        """Merged ``{(name, parent): [calls, inclusive_s, self_s]}`` over all threads."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, own) in list(table.items()):
                agg = merged.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
        return merged

    def span_table(self) -> list[dict]:
        """The recorded spans as rows, heaviest first."""
        rows = [{"span": name, "parent": parent, "calls": calls, "s": total, "self_s": own}
                for (name, parent), (calls, total, own) in self.snapshot().items()]
        return sorted(rows, key=lambda r: -r["s"])

    def reset(self) -> None:
        """Drop the spans and sums recorded so far, to start a new phase.

        The projector keys and the largest channel dimension are kept: they
        describe the whole process.
        """
        with self._lock:
            for table in self._tables:
                table.clear()
        self.samples = 0
        self.map_stats = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, observe=None):
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            return call(name, fn, args, kwargs)

        return wrapper

    def _parallel_map_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(task_fn, items):
            task_name = tracer.current() + ".task"
            task_s = [0.0]
            threads = set()
            lock = threading.Lock()

            def task(x):
                t0 = perf_counter()
                try:
                    return tracer.call(task_name, task_fn, (x,), {}, parent=PARALLEL_MAP)
                finally:
                    dur = perf_counter() - t0
                    with lock:
                        task_s[0] += dur
                        threads.add(threading.get_ident())

            t0 = perf_counter()
            try:
                return tracer.call(PARALLEL_MAP, fn, (task, items), {})
            finally:
                tracer.map_stats.append((perf_counter() - t0, max(1, len(threads)), task_s[0]))

        return wrapper

    def _observer(self, name: str, fn):
        """Argument observer for the spans whose work is sized by an argument."""
        if name == "chan.QuantumChannel":
            sig = inspect.signature(fn)

            def observe(args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                dim = int(bound["d_in"]) * int(bound["d_out"])
                if dim > self.max_channel_dim:
                    self.max_channel_dim = dim
            return observe
        if name == "su2cov.irrep_projector":
            sig = inspect.signature(fn)

            def observe(args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                self.projector_keys.add((bound["spin_in"].two_j, bound["spin_out"].two_j,
                                         int(bound["two_l"])))
            return observe
        if name.startswith("mcoracle.mc_"):
            sig = inspect.signature(fn)

            def observe(args, kwargs):
                self.samples += int(sig.bind(*args, **kwargs).arguments["samples"])
            return observe
        return None

    def _rebind_everywhere(self, modules: dict, original, wrapper) -> list[str]:
        """Replace every module-level binding of ``original``; return where."""
        bound_in = []
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    bound_in.append(f"{short}.{attr}")
        return bound_in

    def install(self) -> dict:
        """Wrap every traced callable. Returns ``{span name: [bindings]}``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        import importlib

        modules = {m: importlib.import_module(f"noetherlab.{m}") for m in PACKAGE_MODULES}
        modules["noetherlab"] = importlib.import_module("noetherlab")
        bindings = {}
        for mod_name, names in FUNCTIONS.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name)
                span = f"{mod_name}.{fn_name}"
                wrapper = self._span_wrapper(span, original, self._observer(span, original))
                bindings[span] = self._rebind_everywhere(modules, original, wrapper)
        original = modules["numkit"].parallel_map
        bindings[PARALLEL_MAP] = self._rebind_everywhere(
            modules, original, self._parallel_map_wrapper(original))
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._span_wrapper(span, original, self._observer(span, original)))
            self._undo.append((cls, meth, original))
            bindings[span] = [f"{mod_name}.{cls_name}.{meth}"]
        return bindings

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def collect(self) -> dict:
        """The additive per-layer quantities recorded since the last reset."""
        spans = self.snapshot()

        def total(name, field):
            return sum(v[field] for (n, _), v in spans.items() if n == name)

        q = {}
        names = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs] + [m[3] for m in METHODS]
        for name in names:
            q[f"{name}.calls"] = total(name, 0)
            q[f"{name}.s"] = total(name, 1)
            q[f"{name}.self_s"] = total(name, 2)
        for cmd in ("cli.su2_tradeoff_records", "cli.u1_tradeoff_records"):
            q[f"{cmd}.self_s"] += total(f"{cmd}.task", 2)
        q["map.wall_s"] = sum(wall for wall, _, _ in self.map_stats)
        q["map.capacity_s"] = sum(wall * workers for wall, workers, _ in self.map_stats)
        q["map.task_s"] = sum(task for _, _, task in self.map_stats)
        q["mc.samples"] = self.samples
        return q


def _bytes_of_projectors(keys) -> int:
    """Dense complex128 (d^2)^2 projector per distinct label: computed, not measured."""
    return sum(16 * ((tji + 1) * (tjo + 1)) ** 2 for tji, tjo, _ in keys)


# name -> unit, in report order; every workload reports every name (0 when unused)
PER_LAYER = {
    "cli.su2_tradeoff_records.self_s": "s",
    "cli.u1_tradeoff_records.self_s": "s",
    "cli.main.self_s": "s",
    "numkit.parallel_map.wall_s": "s",
    "numkit.parallel_map.wait_s": "s",
    "numkit.parallel_map.busy_ratio": "ratio",
    "su2rep.ito_basis.s": "s",
    "su2rep.clebsch_gordan.calls": "count",
    "su2rep.cg.hit_ratio": "ratio",
    "su2cov.irrep_projector.s": "s",
    "su2cov.projector_cache.bytes": "bytes",
    "su2cov.covariant_channel.self_s": "s",
    "su2cov.decompose.self_s": "s",
    "su2cov.twirl.self_s": "s",
    "su2cov.CovariantMixture.calls": "count",
    "su2cov.CovariantMixture.self_s": "s",
    "chan.QuantumChannel.calls": "count",
    "chan.QuantumChannel.init_s": "s",
    "chan.complementary.s": "s",
    "chan.jamiolkowski.max_dim": "count",
    "chan.random_channel.s": "s",
    "chan.max_action_deviation.s": "s",
    "metrics.unitarity_jamiolkowski.s": "s",
    "metrics.unitarity_complementary.s": "s",
    "metrics.unitarity_su2_closed.s": "s",
    "metrics.deviation_su2_closed.s": "s",
    "metrics.deviation_avg.s": "s",
    "metrics.delta_generators.s": "s",
    "u1cov.optimal_unitarity_for_population.s": "s",
    "u1cov.u1_deviation.s": "s",
    "u1cov.u1_structure_stats.s": "s",
    "u1cov.assert_stochastic.calls": "count",
    "u1cov.build_extremal.s": "s",
    "bounds.su2_bounds.s": "s",
    "bounds.u1_bound.s": "s",
    "mcoracle.mc_unitarity.s": "s",
    "mcoracle.mc_deviation.s": "s",
    "mcoracle.samples_per_s": "1/s",
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(setup: dict, loop: dict, n_ops: int, tracer: Tracer) -> dict:
    """Per-layer values: set-up totals plus the loop's per-operation mean.

    ``setup`` and ``loop`` come from :meth:`Tracer.collect`. Cache counts are
    whole-process totals from ``cache_info()``; the projector footprint and
    the largest channel dimension are computed over both phases.
    """
    from noetherlab.su2rep import cg, clebsch_gordan

    q = {k: setup[k] + loop[k] / n_ops for k in setup}
    out = {}
    for name in PER_LAYER:
        if name in q:
            out[name] = q[name]
    out["chan.QuantumChannel.init_s"] = q["chan.QuantumChannel.s"]
    out["numkit.parallel_map.wall_s"] = q["map.wall_s"]
    out["numkit.parallel_map.wait_s"] = max(0.0, q["map.capacity_s"] - q["map.task_s"])
    out["numkit.parallel_map.busy_ratio"] = (q["map.task_s"] / q["map.capacity_s"]
                                             if q["map.capacity_s"] else 0.0)
    out["su2rep.clebsch_gordan.calls"] = clebsch_gordan.cache_info().misses
    info = cg.cache_info()
    out["su2rep.cg.hit_ratio"] = info.hits / (info.hits + info.misses) if info.misses else 0.0
    out["su2cov.projector_cache.bytes"] = _bytes_of_projectors(tracer.projector_keys)
    out["chan.jamiolkowski.max_dim"] = tracer.max_channel_dim
    mc_s = q["mcoracle.mc_unitarity.s"] + q["mcoracle.mc_deviation.s"]
    out["mcoracle.samples_per_s"] = q["mc.samples"] / mc_s if mc_s else 0.0
    return out
