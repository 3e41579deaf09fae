"""In-memory span recorder wrapped around lincert's public functions.

Each wrapped call records one span ``[name, parent span, item, start, end]``
and may bump exact counters taken from its arguments and return value.  The
wrappers replace the function under its home module and under every name it
was re-imported as (``lincert.pipeline.substitute_through``,
``lincert.harness.explore``, ...), so calls between modules are seen too.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs; each span is named "<module>.<function>".
TRACED = [
    ("fourier", "feasibility"),
    ("fourier", "eliminate_var"),
    ("fourier", "farkas_from_trace"),
    ("gauss", "substitute_through"),
    ("gauss", "classify"),
    ("pipeline", "explore"),
    ("pipeline", "run"),
    ("pipeline", "build_working_system"),
    ("cone", "is_bounded"),
    ("cone", "is_reduced_to_origin"),
    ("cone", "is_full_dimensional"),
    ("dual", "strong_elementary_dual"),
    ("dual", "elementary_dual"),
    ("dual", "extension_status"),
    ("implicit", "implicit_set"),
    ("sysfile", "parse"),
    ("sysfile", "print_system"),
    ("core", "check_multiplier_certificate"),
    ("core", "combine"),
    ("harness", "generate_bounded"),
    ("harness", "oracle_verdict"),
    ("harness", "run_trial"),
]

# Set-up work: reported from the set-up spans rather than the item spans.
SETUP_NAMES = {"harness.generate_bounded"}


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = "setup"
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        lincert = {n: m for n, m in sys.modules.items() if n == "lincert" or n.startswith("lincert.")}
        hooks = _hooks(self, lincert["lincert.pipeline"])
        wrappers = {}
        for mod, fn in TRACED:
            original = getattr(lincert[f"lincert.{mod}"], fn)
            name = f"{mod}.{fn}"
            wrappers[id(original)] = (original, self._wrap(name, original, *hooks.get(name, (None, None))))
        for module in lincert.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, before, after):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            span = [name, stack[-1] if stack else None, self.item, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = clock()
                stack.pop()
                active[name] -= 1
                if after:
                    after(token, args, None, exc)
                raise
            span[4] = clock()
            stack.pop()
            active[name] -= 1
            if after:
                after(token, args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def layer_metrics(self, item_seconds: float) -> dict[str, float]:
        """Per-name calls / self_s / total_s, plus the exact counters.

        Item spans count everywhere except for SETUP_NAMES, whose work
        happens only while inputs are generated.  ``item_seconds`` (the
        summed item latencies) is the base of the ``share`` figures.
        """
        child = defaultdict(float)
        for name, parent, item, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for sid, (name, parent, item, start, end) in enumerate(self.spans):
            if (item == "setup") != (name in SETUP_NAMES):
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[sid]
            out[f"{name}.total_s"] += end - start
        c = self.counts
        out.update(
            {
                "fourier.pairs_tried": c["pairs"],
                "fourier.rows_kept": c["kept"],
                "fourier.rows_kept_ratio": c["kept"] / c["pairs"] if c["pairs"] else 0.0,
                "fourier.rows_in": c["rows_in"],
                "fourier.rows_out": c["rows_out"],
                "fourier.peak_rows": c["peak_rows"],
                "pipeline.explore.states": c["states"],
                "pipeline.explore.sequences": c["sequences"],
                "pipeline.explore.budget_hits": c["budget_hits"],
                "pipeline.explore.distinct_state_ratio": (
                    c["states"] / c["explored_subs"] if c["explored_subs"] else 0.0
                ),
                "implicit.probes": c["probes"],
            }
        )
        for name in ("pipeline.explore", "fourier.eliminate_var"):
            out[f"{name}.share"] = out[f"{name}.total_s"] / item_seconds if item_seconds else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, parent, item, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "parent": parent, "item": item, "name": name,
                                    "start": start, "end": end}) + "\n")


def _hooks(rec: SpanRecorder, pipeline_module):
    """Counters read off arguments and results: name -> (before, after)."""
    c, active = rec.counts, rec._active

    def elim_after(token, args, result, exc):
        if exc is not None:
            return
        system, var = args[0], args[1]
        pos = neg = 0
        for row in system.constraints:
            a = row.expr.coeff(var)
            pos += a > 0
            neg += a < 0
        new_system, trace = result
        c["pairs"] += pos * neg
        c["kept"] += len(trace.steps[0].produced)
        c["rows_in"] += len(system.constraints)
        c["rows_out"] += len(new_system.constraints)
        c["peak_rows"] = max(c["peak_rows"], len(new_system.constraints))

    def explore_before(args, kwargs):
        return c["subs_under_explore"]

    def explore_after(token, args, result, exc):
        if isinstance(exc, pipeline_module.ExploreBudgetExceeded):
            c["budget_hits"] += 1
        elif exc is None:
            c["states"] += result.states
            c["sequences"] += result.sequence_count
            c["explored_subs"] += c["subs_under_explore"] - token

    def subst_before(args, kwargs):
        if active["pipeline.explore"]:
            c["subs_under_explore"] += 1

    def feas_before(args, kwargs):
        if active["implicit.implicit_set"]:
            c["probes"] += 1

    return {
        "fourier.eliminate_var": (None, elim_after),
        "pipeline.explore": (explore_before, explore_after),
        "gauss.substitute_through": (subst_before, None),
        "fourier.feasibility": (feas_before, None),
    }
