"""Spans around the public functions of each `cmtgraphs` module, from outside.

`Tracer.install` replaces every wrapped function with a timing wrapper in
every `cmtgraphs` module that holds a reference to it: `from ... import`
gives `classify`, `construct`, `enumeration`, `cli` and the package their
own bindings, and patching only the defining module would miss those calls.
Submodules are reached through `importlib`, because attribute access on
the package can yield a function (`cmtgraphs.classify` is one).  The
wrapper sits outside any `lru_cache`, so `.calls` counts cache hits too.
`Tracer.uninstall` puts every original object back.

Spans `(name, start, end, parent, command)` are kept in memory; a layer's
self time is its span time minus the time of its wrapped child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "bigraph": ("parse_graph", "find_pure_order", "is_pure_order", "cross_blocks"),
    "classify": ("classify", "macaulay_order", "verify_against_oracle"),
    "simplicial": ("independence_complex", "faces", "link", "reduced_homology",
                   "is_cohen_macaulay", "cm_codim"),
    "enumeration": ("canonical_form", "enumerate_cm", "enumerate_unmixed"),
    "cli": ("main",),
}

WRAPPED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

DISTINCT_ARGS = "simplicial.reduced_homology"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in WRAPPED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in LAYERS:
        units[f"{module}.errors"] = "count"
    units[f"{DISTINCT_ARGS}.distinct"] = "count"
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._escaped: dict[int, tuple[BaseException, str]] = {}
        self._distinct: set = set()

    def install(self) -> None:
        package = [m for key, m in sys.modules.items()
                   if key == "cmtgraphs" or key.startswith("cmtgraphs.")]
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"cmtgraphs.{module_name}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every patched name; True when each is the original again."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        return all(getattr(holder, attr) is original
                   for holder, attr, original in self._patches)

    def _wrap(self, name: str, fn):
        spans, stack, escaped = self.spans, self._stack, self._escaped
        distinct = self._distinct if name == DISTINCT_ARGS else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if distinct is not None:
                distinct.add(args[0])
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # Each enclosing span overwrites the entry, so the one left
                # standing is the outermost span the exception escaped.
                escaped[id(exc)] = (exc, name)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per wrapped function, errors per module, distinct args."""
        metrics = dict.fromkeys(metric_units(), 0)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += end - start - child_time[index]
        for _, name in self._escaped.values():
            metrics[f"{name.split('.')[0]}.errors"] += 1
        metrics[f"{DISTINCT_ARGS}.distinct"] = len(self._distinct)
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcommand\n")
            for span in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % span)
