"""Per-layer attribution: timing wrappers, span self time, the report table.

The benchmark instruments nothing inside the library.  In a traced run it
wraps the layers' public functions from outside (``Problem.to_qubo`` /
``decode`` / ``refine`` / ``evaluate``, ``QuboModel.fingerprint``,
``Backend.run``) with :func:`repro.obs.span` and collects those spans
together with the ones the engine already emits, through one
:class:`repro.obs.SpanCollector`.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

#: A span's end is its wall-clock start plus a ``perf_counter`` length, so a
#: child's end may read this much past its parent's.  Far below the gap
#: between two consecutive spans, so siblings never contain each other.
CLOCK_SLACK_S = 1e-6

LAYER_MAP_PATH = Path(__file__).with_name("layer_map.json")


def load_layer_map() -> dict:
    return json.loads(LAYER_MAP_PATH.read_text())


# -- wrapping public functions ------------------------------------------------


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace ``(owner, attribute, wrapper_factory)`` methods.

    The factory receives the original function and returns the wrapper; the
    originals (or their absence from the owner's own ``__dict__``) are put
    back on exit.
    """
    saved = []
    try:
        for owner, attr, factory in targets:
            had_own = attr in owner.__dict__
            original = getattr(owner, attr)
            saved.append((owner, attr, had_own, owner.__dict__.get(attr)))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, had_own, own in reversed(saved):
            if had_own:
                setattr(owner, attr, own)
            else:
                delattr(owner, attr)


def spanned(name: str):
    """Wrapper factory: run the original inside ``obs.span(name)``."""
    from repro import obs

    def factory(original):
        def wrapper(*args, **kwargs):
            with obs.span(name):
                return original(*args, **kwargs)

        return wrapper

    return factory


def refine_recorder(log: list):
    """Wrapper factory for ``refine`` that also keeps (problem, in, out).

    Whether a refine call strictly lowered the objective is decided after
    the traced batch, outside every timed span, from these triples.
    """
    from repro import obs

    def factory(original):
        def wrapper(self, solution):
            with obs.span("api.refine"):
                out = original(self, solution)
            log.append((self, solution, out))
            return out

        return wrapper

    return factory


def api_targets(problem_classes, backend_classes, refine_log: list) -> list:
    """The public functions a traced batch wraps, as :func:`patched` targets."""
    from repro.api.problem import Problem
    from repro.qubo.model import QuboModel

    targets = [(Problem, "to_qubo", spanned("api.formulate")),
               (QuboModel, "fingerprint", spanned("qubo.fingerprint"))]
    for cls in problem_classes:
        targets += [(cls, "decode", spanned("api.decode")),
                    (cls, "evaluate", spanned("api.evaluate")),
                    (cls, "refine", refine_recorder(refine_log))]
    for cls in backend_classes:
        targets.append((cls, "run", spanned("backends.run")))
    return targets


def refine_gains(refine_log: list) -> int:
    """How many logged refine calls strictly lowered the exact objective."""
    return sum(1 for problem, before, after in refine_log
               if after != before and problem.evaluate(after) < problem.evaluate(before))


# -- span arithmetic ------------------------------------------------------------


def self_times(spans) -> list[tuple[str, float, float]]:
    """``(name, duration, self_time)`` per span.

    Self time is the span's duration minus the part its direct children
    cover.  A child may outlive its parent (a queue wait outlives the HTTP
    request that opened it) and children may run in parallel, so the
    covered part is the union of the children's intervals clipped to the
    parent's.

    A span's parent is the one its ``parent_id`` names, moved down to the
    deepest descendant of that span whose interval contains it: the engine
    opens ``engine.solve`` without making it the current span, so a span
    opened inside it (``backends.run``) names an enclosing one as parent.
    """
    named: dict = {}
    for s in spans:
        named.setdefault(s.get("parent_id"), []).append(s)
    by_id = {s["span_id"]: s for s in spans}
    children: dict = {}
    for s in spans:
        parent = by_id.get(s.get("parent_id"))
        while parent is not None:
            inner = next((c for c in named.get(parent["span_id"], ())
                          if c is not s and _contains(c, s)), None)
            if inner is None:
                children.setdefault(parent["span_id"], []).append(s)
            parent = inner
    return [(s["name"], s["duration_s"], uncovered(s, children.get(s["span_id"], [])))
            for s in spans]


def _contains(outer: dict, inner: dict) -> bool:
    return (outer["start_s"] <= inner["start_s"] and inner["start_s"] + inner["duration_s"]
            <= outer["start_s"] + outer["duration_s"] + CLOCK_SLACK_S)


def uncovered(outer: dict, inner: list) -> float:
    """Seconds of ``outer`` not covered by the union of the ``inner`` spans."""
    start, end = outer["start_s"], outer["start_s"] + outer["duration_s"]
    covered, reach = 0.0, start
    for s in sorted(inner, key=lambda s: s["start_s"]):
        lo = max(s["start_s"], reach)
        hi = min(s["start_s"] + s["duration_s"], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return max(outer["duration_s"] - covered, 0.0)


def overhead(spans, outer: str = "facade.solve_many", inner: str = "engine.solve") -> float:
    """Seconds inside ``outer`` spans during which no ``inner`` span ran."""
    inners = [s for s in spans if s["name"] == inner]
    return sum(uncovered(s, inners) for s in spans if s["name"] == outer)


def aggregate(spans) -> dict:
    """``{name: {"busy", "count", "self"}}`` over a span list."""
    out: dict = {}
    for name, duration, own in self_times(spans):
        row = out.setdefault(name, {"busy": 0.0, "count": 0, "self": 0.0})
        row["busy"] += duration
        row["count"] += 1
        row["self"] += own
    return out


# -- the report ----------------------------------------------------------------


def print_table(workload: str, e2e_s: float, rows: list, out) -> None:
    """One per-layer table: metric, busy s, count, self s, share, metric it moves.

    ``rows`` holds ``(metric, busy_s | None, count | None, self_s | None,
    moves)``; a ``None`` cell prints as ``-`` (the layer has no span there).
    """
    def cell(value, fmt):
        return "-" if value is None else format(value, fmt)

    print(f"per-layer report: {workload} (end-to-end {e2e_s:.3f} s)", file=out)
    print(f"  {'layer metric':<26} {'busy s':>9} {'count':>7} {'self s':>9} "
          f"{'share':>7}  moves", file=out)
    for metric, busy, count, own, moves in rows:
        share = None if busy is None or e2e_s <= 0 else busy / e2e_s
        print(f"  {metric:<26} {cell(busy, '9.4f')} {cell(count, '7d')} "
              f"{cell(own, '9.4f')} {cell(share, '7.1%')}  {moves}", file=out)
