"""Spans recorded from outside `moprc`, around calls into its layers.

The tracer replaces module attributes with timing wrappers, so the
package itself carries no tracing code. An attribute that a later
version of the package no longer has is simply not wrapped, and its
layer then reports zero calls.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name, note). The note extracts one number
# from the call's result, stored with the span.
PATCH_POINTS = (
    ("moprc.coloring", "ecc_diam_rad_center", "metrics.ecc", None),
    ("moprc.spine", "ecc_diam_rad_center", "metrics.ecc", None),
    ("moprc.coloring", "build_ccs", "spine.build_ccs", lambda r: len(r.nodes)),
    ("moprc.coloring", "realize_paths", "spine.realize", None),
    ("moprc.coloring", "is_rainbow_connected", "verify.repair", lambda r: int(r.ok)),
)


class Tracer:
    """Keeps spans in memory as [name, start, end, parent index, note, tag].

    The tag names the instance being worked on when the span opened.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.tag: str | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), None, parent, None, self.tag]
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every patch point that exists in the imported package."""
        for module_name, attr, name, note in PATCH_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                self._patched.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, note))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def as_records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "note", "instance")
        return [dict(zip(keys, span)) for span in self.spans]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures for one call of each API function per instance.

    A span under the coloring, the standalone check or the exact search
    counts once per call of that function on its instance, so figures do
    not depend on how often a run repeated a call. A span's self time is
    its duration minus the durations of its direct children; wrapped
    calls run on one thread, so children never overlap each other.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def self_dur(i: int) -> float:
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    def note(i: int) -> float:
        return spans[i][4] or 0

    def one(i: int) -> float:
        return 1

    def per_visit(name: str, owner: str, value) -> float:
        """Sum over instances of value over `name` spans per `owner` call."""
        sums: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (span_name, *_, tag) in enumerate(spans):
            if span_name == name:
                sums[tag] = sums.get(tag, 0) + value(i)
            if span_name == owner:
                calls[tag] = calls.get(tag, 0) + 1
        return sum(v / calls[tag] for tag, v in sums.items() if calls.get(tag))

    def staged_valid(i: int) -> bool:
        repairs = [c for c in children.get(i, ()) if spans[c][0] == "verify.repair"]
        if repairs:
            return spans[repairs[0]][4] == 1
        return spans[i][4] is not None

    colored = {span[5] for span in spans if span[0] == "coloring"}
    return {
        "metrics.ecc_calls": per_visit("metrics.ecc", "coloring", one),
        "metrics.ecc_s": per_visit("metrics.ecc", "coloring", dur),
        "spine.build_ccs_s": per_visit("spine.build_ccs", "coloring", self_dur),
        "spine.nodes": per_visit("spine.build_ccs", "coloring", note),
        "spine.realize_calls": per_visit("spine.realize", "coloring", one),
        "spine.realize_s": per_visit("spine.realize", "coloring", dur),
        "coloring.s": per_visit("coloring", "coloring", dur),
        "coloring.self_s": per_visit("coloring", "coloring", self_dur),
        "coloring.repair_rounds": per_visit(
            "verify.repair", "coloring", lambda i: spans[i][4] == 0
        ),
        "coloring.staged_valid": (
            per_visit("coloring", "coloring", staged_valid) / len(colored) if colored else 0.0
        ),
        "verify.repair_calls": per_visit("verify.repair", "coloring", one),
        "verify.repair_s": per_visit("verify.repair", "coloring", dur),
        "verify.check_s": per_visit("verify.check", "verify.check", dur),
        "verify.pairs": per_visit("verify.check", "verify.check", note),
        "verify.exact_s": per_visit("verify.exact", "verify.exact", dur),
        "verify.exact_sizes_tried": per_visit("verify.exact", "verify.exact", note),
        "generators.s": sum(dur(i) for i, span in enumerate(spans) if span[0] == "generators"),
    }
