"""Outside-in layer timing for the traced benchmark run.

The benchmark never edits the program: :meth:`Tracer.install` wraps
each layer's public functions (class methods, and module functions
that callers import at call time) in a span recorder, and
:meth:`Tracer.uninstall` puts the originals back.  Spans are kept in
memory -- name, start, end, parent -- and :func:`layer_summary`
reduces them to per-layer self times and counts.
"""

from __future__ import annotations

import functools
import time

#: (layer name, module path, owner attribute or None, function name).
#: ``owner`` is a class in ``module``; ``None`` wraps a module-level
#: function that callers import at call time.
LAYERS = (
    ("workloads.build", "repro.workloads.base", "Workload", "instantiate"),
    ("sim.compile", "repro.sim.compile", None, "get_compiled"),
    ("sim.compile", "repro.sim.compile", "CompiledGraph", "__init__"),
    ("place", "repro.core.processor", "WaveScalarProcessor", "place"),
    ("sim.engine", "repro.sim.engine", "Engine", "run"),
    ("check", "repro.workloads.base", "Workload", "expected"),
    ("check", "repro.core.results", "SimulationResult", "outputs"),
    ("harness.supervisor", "repro.harness.supervisor", "RunSupervisor",
     "run"),
    ("harness.ledger", "repro.harness.ledger", "Ledger", "append_many"),
    ("analysis.bounds", "repro.analysis.dataflow", None, "bound_for_cell"),
    ("surrogate.fit", "repro.surrogate.search", "SurrogateModel", "fit"),
    ("surrogate.predict", "repro.surrogate.search", "SurrogateModel",
     "predict_cell"),
)

#: Every layer name :func:`layer_summary` reports, plus the top span.
LAYER_NAMES = ("driver",) + tuple(dict.fromkeys(row[0] for row in LAYERS))


class Tracer:
    """An in-memory span stack for one thread of execution.

    Each span is ``[name, start, end, parent_index, attrs]``; the
    parent is the span open when it started, ``-1`` for a root.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` timed as a ``name`` span; ``note(attrs, args, result,
        exc)`` records counts on the span after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                self.close(index)
                if note is not None:
                    note(self.spans[index][4], args, result, exc)

        return traced

    def install(self) -> None:
        import importlib

        for name, module_name, owner_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr,
                    self.wrap(name, original, _NOTES.get(name)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _note_engine(attrs: dict, args, stats, exc) -> None:
    if exc is None:
        attrs["events"] = stats.events_processed
        return
    diagnostics = getattr(exc, "diagnostics", None)
    attrs["events"] = getattr(diagnostics, "events_processed", 0) or 0
    attrs["failed"] = True


def _note_supervisor(attrs: dict, args, result, exc) -> None:
    if exc is None:
        attrs["attempts"] = result.attempts
        attrs["retries"] = result.retries


def _note_ledger(attrs: dict, args, result, exc) -> None:
    # Every caller of Ledger.append_many passes a list or tuple.
    attrs["appends"] = len(args[1])


_NOTES = {
    "sim.engine": _note_engine,
    "harness.supervisor": _note_supervisor,
    "harness.ledger": _note_ledger,
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans on one thread nest, so a child's interval lies inside its
    parent's and the children of one parent do not overlap.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_summary(spans: list[list]) -> dict:
    """Per layer: ``self_s``, ``calls`` and the counts the wrappers
    noted (engine events and failed-attempt self time, supervisor
    attempts and retries, ledger records appended)."""
    summary = {
        name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES
    }
    engine = summary["sim.engine"]
    engine.update(events=0, failed_self_s=0.0)
    supervisor = summary["harness.supervisor"]
    supervisor.update(attempts=0, retries=0)
    summary["harness.ledger"]["appends"] = 0
    for span, own in zip(spans, self_times(spans)):
        name, _, _, _, attrs = span
        layer = summary[name]
        layer["self_s"] += own
        layer["calls"] += 1
        if name == "sim.engine":
            layer["events"] += attrs.get("events", 0)
            if attrs.get("failed"):
                layer["failed_self_s"] += own
        elif name == "harness.supervisor":
            layer["attempts"] += attrs.get("attempts", 0)
            layer["retries"] += attrs.get("retries", 0)
        elif name == "harness.ledger":
            layer["appends"] += attrs.get("appends", 0)
    return summary
