"""In-memory span recorder wrapped around the public functions of ``ftqc``.

A span is ``[name, start, end, parent, attrs]``: ``start``/``end`` come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (or
``None`` for a top-level call) and ``attrs`` holds per-call counts such as
bytes parsed.  Helpers called once per input record get a call count
instead of a span (see ``COUNT_ONLY``).  Spans and counts stay in memory
and are written once, by :meth:`dump`.

:func:`install` patches the live modules of one process; it edits no file.
Every public function and public method of the modules in ``MODULES`` is
wrapped, every reference to a wrapped function inside ``ftqc`` (module
globals and module-level dispatch tables) is re-pointed at its wrapper, and
two library boundaries are wrapped as seen by the package: ``json`` in
``ftqc.cli`` and ``scipy.optimize.minimize`` in ``ftqc.thc``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("tensors", "factorizations", "thc", "costs", "qdrift", "surface",
           "verify")

# Called once per FCIDUMP record; a span per call would dominate the traced
# time of load_fcidump, so these are only counted.
COUNT_ONLY = frozenset({"tensors.eightfold_images"})


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, fn):
        """Return ``fn`` wrapped so that it only counts its calls."""
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, name: str, fn, label=None, annotate=None):
        """Return ``fn`` wrapped in a span.

        ``label(args, kwargs)`` may refine the span name per call, and
        ``annotate(attrs, args, kwargs, result)`` may add counts from the
        call's arguments and result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if label is None else label(args, kwargs),
                    time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    span[4] = {}
                    annotate(span[4], args, kwargs, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"op_id": self.op_id, "spans": self.spans,
                       "counts": self.counts}, fh)


def _mode_label(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "rms")
    return f"qdrift.cost_qdrift.{mode}"


def _fcidump_bytes(attrs, args, kwargs, result):
    attrs["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])


def _sparse_d(attrs, args, kwargs, result):
    attrs["d"] = result[0].d


def _dump_bytes(attrs, args, kwargs, result):
    attrs["bytes"] = len(result)


def _load_bytes(attrs, args, kwargs, result):
    attrs["bytes"] = len(args[0])


def _minimize_result(attrs, args, kwargs, result):
    attrs["nit"] = int(result.nit)
    attrs["nfev"] = int(result.nfev)
    attrs["status"] = int(result.status)


# Per-function refinements: span-name label and per-call counts.
SPECIAL = {
    "qdrift.cost_qdrift": {"label": _mode_label},
    "tensors.load_fcidump": {"annotate": _fcidump_bytes},
    "factorizations.sparse_truncate": {"annotate": _sparse_d},
}


def _wrap_module(tracer: Tracer, short: str, replaced: dict) -> None:
    mod = importlib.import_module(f"ftqc.{short}")
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            span = f"{short}.{name}"
            replaced[obj] = (tracer.count(span, obj) if span in COUNT_ONLY
                             else tracer.wrap(span, obj, **SPECIAL.get(span, {})))
        elif inspect.isclass(obj):
            for attr, fn in list(vars(obj).items()):
                if not inspect.isfunction(fn):
                    continue
                if attr == "__post_init__":
                    span = f"{short}.{name}"
                elif attr.startswith("_"):
                    continue
                else:
                    span = f"{short}.{name}.{attr}"
                setattr(obj, attr, tracer.wrap(span, fn))


def _rebind(replaced: dict) -> None:
    """Point every reference to a wrapped function inside ftqc at its wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ftqc" or mod_name.startswith("ftqc.")):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in replaced:
                        obj[key] = replaced[value]


class _Boundary:
    """Stand-in for a module: overrides some attributes, forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _minimize_proxy(tracer: Tracer, minimize):
    def traced_minimize(fun, x0, *args, **kwargs):
        return minimize(tracer.wrap("thc.lbfgs_eval", fun), x0, *args, **kwargs)

    return tracer.wrap("thc.lbfgs", traced_minimize, annotate=_minimize_result)


def install(tracer: Tracer) -> None:
    """Wrap the ftqc layers of this process in ``tracer`` spans."""
    replaced: dict = {}
    for short in MODULES:
        _wrap_module(tracer, short, replaced)
    _rebind(replaced)

    cli = sys.modules.get("ftqc.cli")
    if cli is not None:
        cli.json = _Boundary(
            cli.json,
            dumps=tracer.wrap("cli.json_dump", cli.json.dumps,
                              annotate=_dump_bytes),
            loads=tracer.wrap("cli.json_load", cli.json.loads,
                              annotate=_load_bytes),
        )
    thc = sys.modules["ftqc.thc"]
    thc.optimize = _Boundary(
        thc.optimize, minimize=_minimize_proxy(tracer, thc.optimize.minimize))
