"""Traced in-process run of one workload: per-layer self time, call counts
and cache counters, measured from outside the program.

Run by ``run.py --trace 1`` in a fresh interpreter with the same environment
as the untraced children.  It runs the workload's calls through
``ppring.cli.run`` twice, first untraced and then traced, clearing every
``lru_cache`` before each call so that each call starts as cold as a fresh
process.  Prints one JSON object on stdout.

The layers are the modules of ``ppring``.  Every public function and every
public method of a public class is wrapped in a span named after the module
that defines it, in every ``ppring.*`` namespace that binds it, so a name
imported by another module is still attributed to its own layer.  A layer's
self time is its spans' time minus the time of the spans they contain.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time

from workloads import calls

LAYERS = ("grp", "lattice", "cyclo", "ppelem", "species", "burnside", "idem",
          "ffq", "cli")

# Special methods wrapped besides the public ones: construction and arithmetic.
# Hashing and comparison are left out, because sets and dicts call them far
# too often to time each call.
WRAPPED_DUNDERS = ("__init__", "__call__", "__add__", "__radd__", "__sub__",
                   "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")

# Per-function metrics by name, and the wrapped function each one reads.
HOT_SPOTS = {
    "grp.perm_mul.calls": ("grp:Permutation.__mul__", "calls"),
    "grp.double_coset_reps.self_s": ("grp:double_coset_reps", "self_s"),
    "cyclo.new.calls": ("cyclo:Cyclotomic.__init__", "calls"),
    "species.tau_generator.calls": ("species:tau_generator", "calls"),
    "idem.idempotent_theorem.calls": ("idem:idempotent_theorem", "calls"),
}


class Tracer:
    """Spans kept in memory as per-function counters.

    ``stack`` holds, for each open span, the time taken by the spans it
    contains; its bottom entry collects the time of the outermost spans.
    """

    def __init__(self):
        self.stack = [0.0]
        self.stats = {}  # "layer:qualname" -> [layer, calls, self seconds]
        self.wrapped = {}  # id of an original callable -> its wrapper

    def wrap(self, fn, layer: str, qualname: str):
        if id(fn) in self.wrapped:
            return self.wrapped[id(fn)]
        stat = self.stats.setdefault(f"{layer}:{qualname}", [layer, 0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = stack.pop()
                stack[-1] += duration
                stat[1] += 1
                stat[2] += duration - inner

        self.wrapped[id(fn)] = span
        return span

    def wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self.wrap(attr.__func__, layer, qualname)))
            elif callable(attr) and not isinstance(attr, type):
                setattr(cls, name, self.wrap(attr, layer, qualname))


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    layer = module.rpartition(".")[2]
    return layer if module == f"ppring.{layer}" and layer in LAYERS else None


def _modules() -> list:
    import ppring
    return [ppring] + [importlib.import_module(f"ppring.{name}") for name in LAYERS]


def find_caches(modules) -> list:
    """Every lru_cache bound on a ppring.* module attribute, with its layer."""
    found = {}
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_info") and _layer_of(obj):
                found[id(obj)] = (_layer_of(obj), obj)
    return list(found.values())


def instrument(tracer: Tracer, modules) -> None:
    """Wrap every public function and class of each layer at every binding
    site: module attributes and the values of module-level dicts."""
    classes = set()
    for module in modules:
        namespace = vars(module)
        for name, obj in list(namespace.items()):
            layer = _layer_of(obj)
            if name.startswith("_") or layer is None:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, BaseException) and obj not in classes:
                    classes.add(obj)
                    tracer.wrap_class(obj, layer)
            elif callable(obj):
                namespace[name] = tracer.wrap(obj, layer, obj.__qualname__)
        for table in namespace.values():
            if type(table) is dict:
                for key, value in table.items():
                    if id(value) in tracer.wrapped:
                        table[key] = tracer.wrapped[id(value)]


def run_calls(workload_calls, caches, gate_failures: dict) -> tuple[float, dict]:
    """Run each call in process from cold caches; returns the wall time and
    the cache hits and misses per layer."""
    from ppring import cli

    counters: dict = {}
    wall = 0.0
    for call in workload_calls:
        for _, cache in caches:
            cache.cache_clear()
        start = time.perf_counter()
        args = cli.build_parser().parse_args(call.argv)
        config = cli.RunConfig(
            command=args.command, group=args.group, p=args.p, fmt=args.fmt,
            max_order=args.max_order, oracle_n_cap=args.oracle_n_cap,
            samples=args.samples, seed=args.seed, out=args.out)
        code, text = cli.run(config)
        wall += time.perf_counter() - start
        for layer, cache in caches:
            info = cache.cache_info()
            hits, misses = counters.get(layer, (0, 0))
            counters[layer] = (hits + info.hits, misses + info.misses)
        kind = call.gate(code, text.encode("utf-8"))
        if kind is not None:
            gate_failures[kind] = gate_failures.get(kind, 0) + 1
    return wall, counters


def layer_metrics(tracer: Tracer, traced_wall: float, cache_counters: dict) -> dict:
    metrics = {}
    for layer in LAYERS:
        stats = [s for s in tracer.stats.values() if s[0] == layer]
        if not stats:
            raise SystemExit(f"trace self-check: layer {layer} has no wrapped names")
        metrics[f"{layer}.self_s"] = sum(s[2] for s in stats)
        metrics[f"{layer}.calls"] = sum(s[1] for s in stats)
    for layer, (hits, misses) in cache_counters.items():
        lookups = hits + misses
        metrics[f"{layer}.cache_lookups"] = lookups
        metrics[f"{layer}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    for metric, (key, field) in HOT_SPOTS.items():
        if key not in tracer.stats:
            raise SystemExit(f"trace self-check: {key} is not wrapped")
        metrics[metric] = tracer.stats[key][1 if field == "calls" else 2]
    spanned = tracer.stack[0]
    unattributed = traced_wall - spanned
    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if len(tracer.stack) != 1 or unattributed < 0 or \
            abs(attributed - spanned) > 1e-6 * max(1.0, spanned):
        raise SystemExit("trace self-check: layer self times plus unattributed "
                         f"time ({attributed} + {unattributed}) differ from the "
                         f"traced wall time {traced_wall}")
    metrics["trace.unattributed_s"] = unattributed
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    workload_calls = calls(args.workload)
    modules = _modules()
    caches = find_caches(modules)
    failures: dict = {}
    untraced_wall, _ = run_calls(workload_calls, caches, failures)

    tracer = Tracer()
    instrument(tracer, modules)
    traced_wall, cache_counters = run_calls(workload_calls, caches, failures)
    metrics = layer_metrics(tracer, traced_wall, cache_counters)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall

    print(json.dumps({
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "attempted": 2 * len(workload_calls),
        "gate_failures": failures,
        "wrapped_callables": len(tracer.wrapped),
        "caches": len(caches),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
