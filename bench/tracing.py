"""Span tracing of abacore's public functions, installed from outside.

``Tracer.install`` wraps every public (no leading ``_``) function defined in
one of the layer modules and rebinds that name wherever it appears in the
package's namespaces: the package itself and every layer module.  Calls
between modules therefore go through the wrappers too, while private helpers
run inside the span of the public function that called them.  Nothing in the
program is edited, and ``uninstall`` restores every binding.

A span records only while ``active`` is true, so the harness can switch
tracing on around each timed op and keep input generation and checks out of
the trace.  Spans are folded into per-function aggregates as they close:
calls, self time (duration minus the child spans it contains), total time,
and how many calls returned None.
"""

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "blocks", "actions", "nodes", "quotients", "partitions", "abacus")


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}  # "layer.function" -> [calls, self_s, total_s, none_results]
        self.originals = {}  # "layer.function" -> unwrapped function
        self._stack = [0.0]  # child time accumulated by each open span
        self._undo = []

    def install(self, package):
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped where it is defined
                key = f"{layer}.{name}"
                self.originals[key] = obj
                self.stats[key] = [0, 0.0, 0.0, 0]
                wrappers[id(obj)] = (obj, self._wrap(key, obj))
        for namespace in (package, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                found = wrappers.get(id(obj))
                if not name.startswith("_") and found and found[0] is obj:
                    self._undo.append((namespace, name, obj))
                    setattr(namespace, name, found[1])

    def uninstall(self):
        for namespace, name, obj in reversed(self._undo):
            setattr(namespace, name, obj)
        self._undo.clear()

    def rebound(self):
        """(namespace name, attribute) of every binding the tracer replaced."""
        return [(ns.__name__, name) for ns, name, _ in self._undo]

    def _wrap(self, key, fn):
        rec = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_span(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                rec[0] += 1
                return tracer._resume_spans(fn(*args, **kwargs), rec)

            return generator_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                child = stack.pop()
                stack[-1] += duration
                rec[0] += 1
                rec[1] += duration - child
                rec[2] += duration
            if out is None:
                rec[3] += 1
            return out

        return span

    def _resume_spans(self, it, rec):
        """Drive a generator, timing each resumption as a span of its function."""
        stack = self._stack
        clock = time.perf_counter
        while True:
            stack.append(0.0)
            t0 = clock()
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                duration = clock() - t0
                child = stack.pop()
                stack[-1] += duration
                rec[1] += duration - child
                rec[2] += duration
            yield value
