"""Spans around calls into fiskit's modules, recorded from outside.

The tracer rebinds module attributes: every function that ``cli``,
``analysis`` and ``tiles`` import from another fiskit module, plus
``fiskit.grids.grid`` (which ``fis`` calls as ``grids.grid``) and
``fiskit.fis.iter_accepted`` (which ``enumerate_language`` calls).  The
benchmark's own calls go through :meth:`Tracer.wrap` as well.  Private
names (``tiles`` imports ``fis._Engine``) and classes are left alone,
so engine phases inside one call are not split into spans.

A span records name, start, end and the index of its parent span.
A generator gets one span per resumption, so consumer time between
two yields is never charged to the generator.  Spans stay in memory
until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import inspect
from time import perf_counter

TRACED_MODULES = ("cli", "analysis", "tiles")

# What to count for a span, from its arguments and result: metric
# suffixes and a function giving their values.  Counted when the span
# closes, so that no result is kept alive.
_recognized = (("cells", "accepts"), lambda a, r: (a[1].rows * a[1].cols, r is not None))
_found = (("found",), lambda a, r: (r is not None,))
COUNTS = {
    "fis.recognize": _recognized,
    "fis.recognize_with_transition": _recognized,
    "fis.enumerate_language": (("grids",), lambda a, r: (len(r),)),
    "tiles.ts_language": (("grids",), lambda a, r: (len(r),)),
    "pcp.compile_pcp": (("transitions",), lambda a, r: (len(r.transitions),)),
    "tiles.fis_to_tiles": (("tiles",), lambda a, r: (len(r.local.delta),)),
    "tiles.tiles_to_fis": (("transitions",), lambda a, r: (len(r.transitions),)),
    "analysis.bounded_emptiness": _found,
    "analysis.bounded_accessibility": _found,
}
SEARCHES = ("analysis.bounded_emptiness", "analysis.bounded_accessibility")


def span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


class Tracer:
    def __init__(self):
        # [name, start, end, parent, info]: info holds the counts of
        # COUNTS, (resumption, yielded) for a generator, and stays None
        # when the call raised
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def wrap(self, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn)
        name = span_name(fn)
        count = COUNTS.get(name, ((), None))[1]

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[4] = count(args, result) if count else ()
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn):
        name = span_name(fn)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            part = 0
            try:
                while True:
                    rec = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        rec[4] = (part, False)
                        return
                    finally:
                        self._close(rec)
                    rec[4] = (part, True)
                    part += 1
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Rebind the boundary functions of ``modules`` (name -> module)."""
        for mod_name in TRACED_MODULES:
            mod = modules[mod_name]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ != mod.__name__
                        and obj.__module__.startswith("fiskit.")):
                    self._patch(mod, attr, obj)
        # called through the module global, from fis's own code
        self._patch(modules["grids"], "grid", modules["grids"].grid)
        self._patch(modules["fis"], "iter_accepted", modules["fis"].iter_accepted)

    def _patch(self, mod, attr: str, obj) -> None:
        self.patched.append((mod, attr, obj))
        setattr(mod, attr, self.wrap(obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self.patched):
            setattr(mod, attr, obj)
        self.patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Original functions in place for the duration, then traced again."""
        patched = list(self.patched)
        self.uninstall()
        try:
            yield
        finally:
            for mod, attr, obj in patched:
                self._patch(mod, attr, obj)

    def write(self, path: str) -> None:
        """One span per line: index, parent, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, _info) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _name, start, end, _parent, _info in spans]
    for name, start, end, parent, _info in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of a traced pass, keyed by metric name."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        add(name + ".s", dur)
        add(name + ".self_s", own[i])
        if name == "fis.iter_accepted":
            if info is not None:
                part, yielded = info
                add(name + ".calls", part == 0)
                add(name + ".grids", yielded)
                if part == 0:
                    add(name + ".first_s", dur)
            continue
        add(name + ".calls", 1)
        if name.startswith("fis.recognize") and parent >= 0 and spans[parent][0] in SEARCHES:
            add("analysis.recheck_s", dur)
        if info is not None:
            for key, value in zip(COUNTS.get(name, ((), None))[0], info):
                add(f"{name}.{key}", value)
    for name in ("fis.recognize", "fis.recognize_with_transition"):
        calls = out.get(name + ".calls", 0)
        out[name + ".accept_frac"] = out.get(name + ".accepts", 0) / calls if calls else 0.0
    calls = out.get("analysis.bounded_emptiness.calls", 0)
    out["analysis.bounded_emptiness.found_frac"] = (
        out.get("analysis.bounded_emptiness.found", 0) / calls if calls else 0.0)
    return out
