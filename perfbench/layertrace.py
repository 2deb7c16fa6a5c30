"""Host-time spans and work counters around the layers of the simulator.

:class:`LayerTracer` wraps, for the duration of a ``with`` block, every
public method of every class (and every public function) that a layer
package exports in ``__all__``, and attributes host time to the layer that
defines it.  ``Simulator.run`` is the root span.  A span's *self time* is its
duration minus the duration of the spans it encloses, so the self times of
all layers add up to the root's duration.  Nothing is recorded outside
``Simulator.run``: set-up work (dataset load, subscriptions) is excluded.

Counters record work at the same boundaries: document copies, finds, shard
sub-queries, cache stores and lookups, Bloom probes and adds, InvaliDB
notifications, CDN purges, shipped log records and executed events.  A
counter only counts the outermost call of its targets, so a batch method
that delegates to a single-key one is counted once.  A target the program
no longer has is listed in :attr:`LayerTracer.missing` and counts zero.

The spans live in the benchmark, not in the program: the program under
test is unchanged, and :meth:`LayerTracer.__exit__` restores every patched
attribute.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

#: The layer packages on the request path, ``repro.<layer>``.
LAYERS = (
    "client",
    "caching",
    "bloom",
    "cluster",
    "core",
    "db",
    "invalidb",
    "replication",
    "simulation",
    "workloads",
)

#: counter -> [(module, class or None, attribute, size)].  ``size`` says how
#: much one outermost call counts: ``one``, ``result_len`` (length of the
#: returned list), ``not_none`` (1 unless the result is None), ``len_delta``
#: (growth of ``len(self)``) or ``cdn`` (1 when called on the cache named
#: ``cdn``).
COUNTERS: Dict[str, List[Tuple[str, object, str, str]]] = {
    "db.doc_copies": [("repro.db.documents", None, "deep_copy", "one")],
    "db.finds": [("repro.db.collection", "Collection", "find", "one")],
    "cluster.shard_queries": [
        ("repro.core.server", "QuaestorServer", "handle_shard_query", "one"),
        ("repro.core.server", "QuaestorServer", "prepare_shard_query", "one"),
    ],
    "caching.stores": [
        ("repro.caching.base", "WebCache", "store", "one"),
        ("repro.caching.base", "WebCache", "store_fresh", "one"),
        ("repro.caching.base", "WebCache", "store_entry", "one"),
    ],
    "caching.lookups": [("repro.caching.base", "WebCache", "lookup", "one")],
    "bloom.probes": [
        ("repro.bloom.bloom_filter", "BloomFilter", "contains", "one"),
        ("repro.bloom.bloom_filter", "BloomFilter", "contains_all", "result_len"),
        ("repro.bloom.counting", "CountingBloomFilter", "contains", "one"),
        ("repro.bloom.counting", "CountingBloomFilter", "contains_all", "result_len"),
    ],
    "bloom.adds": [
        ("repro.bloom.bloom_filter", "BloomFilter", "add", "one"),
        ("repro.bloom.bloom_filter", "BloomFilter", "add_all", "len_delta"),
        ("repro.bloom.counting", "CountingBloomFilter", "add", "one"),
        ("repro.bloom.counting", "CountingBloomFilter", "add_all", "len_delta"),
    ],
    "invalidb.notifications": [
        ("repro.invalidb.cluster", "InvaliDBCluster", "process_event", "result_len"),
        ("repro.invalidb.cluster", "InvaliDBCluster", "process_events", "result_len"),
    ],
    "cdn.purges": [("repro.caching.invalidation", "InvalidationCache", "purge", "cdn")],
    "replication.records_shipped": [
        ("repro.replication.log_shipping", "ReplicationLink", "ship", "one")
    ],
    "simulation.events": [
        ("repro.simulation.event_queue", "EventQueue", "pop_if_before", "not_none")
    ],
    "client.queries": [("repro.client.sdk", "QuaestorClient", "query", "one")],
    "client.writes": [
        ("repro.client.sdk", "QuaestorClient", "insert", "one"),
        ("repro.client.sdk", "QuaestorClient", "update", "one"),
        ("repro.client.sdk", "QuaestorClient", "delete", "one"),
    ],
}


class LayerTracer:
    """Context manager: patch the layers in, record, then restore them."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.root_s = 0.0
        self.missing: List[str] = []
        self._active = False
        self._stack: List[List[float]] = []
        self._busy: Dict[str, bool] = dict.fromkeys(COUNTERS, False)
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for name, targets in COUNTERS.items():
                for module_name, class_name, attribute, size in targets:
                    self._install_counter(name, module_name, class_name, attribute, size)
            for layer in LAYERS:
                self._install_layer(layer)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _set(self, owner: object, attribute: str, replacement: object) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _replace_function(self, original: Callable, replacement: Callable) -> None:
        """Rebind a module-level function in every ``repro`` module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, replacement)

    def _install_counter(
        self, name: str, module_name: str, class_name, attribute: str, size: str
    ) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        owner = getattr(module, class_name, None) if class_name else module
        original = None if owner is None else vars(owner).get(attribute)
        if not inspect.isfunction(original):
            self.missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attribute}")
            return
        wrapper = self._counting(name, original, size)
        if class_name:
            self._set(owner, attribute, wrapper)
        else:
            self._replace_function(original, wrapper)

    def _install_layer(self, layer: str) -> None:
        package = importlib.import_module(f"repro.{layer}")
        prefix = f"repro.{layer}"
        for export in getattr(package, "__all__", ()):
            value = getattr(package, export, None)
            module = getattr(value, "__module__", "") or ""
            if module != prefix and not module.startswith(prefix + "."):
                continue  # re-exported from another layer; that layer owns it
            if inspect.isfunction(value):
                self._replace_function(value, self._span(layer, value))
            elif inspect.isclass(value) and not issubclass(value, (BaseException, enum.Enum)):
                for attribute, member in list(vars(value).items()):
                    if attribute.startswith("_") or not inspect.isfunction(member):
                        continue
                    if layer == "simulation" and export == "Simulator" and attribute == "run":
                        self._set(value, attribute, self._root(member))
                    else:
                        self._set(value, attribute, self._span(layer, member))

    # -- wrappers -------------------------------------------------------------------

    def _root(self, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def root(*args, **kwargs):
            if tracer._active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._active = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                tracer._active = False
                tracer._stack.pop()
                tracer.root_s += duration
                tracer.self_s["simulation"] += duration - frame[0]
                tracer.calls["simulation"] += 1

        return root

    def _span(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                self_s[layer] += duration - frame[0]
                calls[layer] += 1

        return span

    def _counting(self, name: str, fn: Callable, size: str) -> Callable:
        tracer = self
        busy = self._busy
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer._active or busy[name]:
                return fn(*args, **kwargs)
            busy[name] = True
            try:
                if size == "len_delta":
                    before = len(args[0])
                    result = fn(*args, **kwargs)
                    counts[name] += len(args[0]) - before
                    return result
                result = fn(*args, **kwargs)
            finally:
                busy[name] = False
            if size == "one":
                counts[name] += 1
            elif size == "result_len":
                counts[name] += len(result)
            elif size == "not_none":
                counts[name] += result is not None
            elif size == "cdn":
                counts[name] += args[0].name == "cdn"
            return result

        return counted

