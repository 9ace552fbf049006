"""Per-layer tracing from outside the package.

While installed, the tracer replaces every binding of each traced public
function in every loaded ``splinequant`` module (``cli`` and
``threshold_optimizer`` hold their own ``from ... import`` names, so patching
one name would miss callers) with a wrapper that records a span: name, start,
end, parent and whether the call raised.  Spans stay in memory in flat arrays;
``save`` writes them out once the run is over, and self time is computed from
them.  Leaving the ``installed()`` block restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# layer module -> traced public functions
TRACED = {
    "gauss_analytics": ("integrate",),
    "spline_fit": ("fit", "invert_segment"),
    "quantizer_design": (
        "build", "sqnr", "overload_distortion_exact", "granular_distortion", "encode", "decode",
    ),
    "threshold_optimizer": ("sweep", "evaluate_candidate", "refine"),
    "reference_oracles": ("lloyd_max", "mc_distortion", "true_distortion", "exact_compressor_sqnr"),
    "cli": ("main",),
}

PACKAGE = "splinequant"

# per-layer figures read from the spans: (traced function, figure)
SPAN_FIGURES = (
    ("gauss_analytics.integrate", "calls"),
    ("gauss_analytics.integrate", "self_s"),
    ("spline_fit.fit", "calls"),
    ("spline_fit.fit", "self_s"),
    ("spline_fit.invert_segment", "calls"),
    ("spline_fit.invert_segment", "self_s"),
    ("quantizer_design.build", "calls"),
    ("quantizer_design.build", "failed"),
    ("quantizer_design.build", "self_s"),
    ("quantizer_design.sqnr", "s"),
    ("quantizer_design.overload_distortion_exact", "s"),
    ("quantizer_design.granular_distortion", "s"),
    ("quantizer_design.encode", "calls"),
    ("quantizer_design.encode", "self_s"),
    ("quantizer_design.decode", "self_s"),
    ("threshold_optimizer.sweep", "s"),
    ("threshold_optimizer.evaluate_candidate", "calls"),
    ("threshold_optimizer.refine", "s"),
    ("reference_oracles.lloyd_max", "self_s"),
    ("reference_oracles.lloyd_max", "failed"),
    ("reference_oracles.mc_distortion", "self_s"),
    ("reference_oracles.true_distortion", "s"),
    ("reference_oracles.exact_compressor_sqnr", "s"),
    ("cli.main", "self_s"),
)
# per-layer figures counted by the wrappers' hooks
COUNTERS = (
    "gauss_analytics.integrate.evals",
    "reference_oracles.lloyd_max.iterations",
    "reference_oracles.mc_distortion.samples",
)


def traced_functions() -> dict[str, object]:
    """Span name ("module.function") -> the original function object."""
    out = {}
    for module, names in TRACED.items():
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        for name in names:
            out[f"{module}.{name}"] = getattr(mod, name)
    return out


def bindings(originals) -> list[tuple[object, str, object]]:
    """Every (module, attribute, function) in the package whose value is one
    of ``originals``, the package root included."""
    wanted = {id(fn): fn for fn in originals}
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wanted and value is wanted[id(value)]:
                found.append((mod, attr, value))
    return found


def self_times(start, end, parent) -> list[float]:
    """Span duration minus the part of the span that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for i in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[i], reach), min(end[i], hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter()
        self.raised[idx] = raised
        self.stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call, plus the counters some layers need."""
        name_id = self.name_index.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                if after is not None:
                    after(fn, kwargs, None)
                raise
            self._close(idx, False)
            if after is not None:
                after(fn, kwargs, result)
            return result

        return traced

    def _before_gauss_analytics_integrate(self, args, kwargs):
        """Count integrand evaluations by wrapping the ``f`` passed in."""
        counts = self.counts

        def wrap_f(f):
            def counted(x):
                counts["gauss_analytics.integrate.evals"] += 1
                return f(x)
            return counted

        if args:
            args = (wrap_f(args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, f=wrap_f(kwargs["f"]))
        return args, kwargs

    def _after_reference_oracles_lloyd_max(self, fn, kwargs, result) -> None:
        if result is not None:
            iterations = result.iterations
        else:  # ConvergenceError: the iteration cap was reached
            iterations = kwargs.get(
                "max_iterations", inspect.signature(fn).parameters["max_iterations"].default
            )
        self.counts["reference_oracles.lloyd_max.iterations"] += iterations

    def _after_reference_oracles_mc_distortion(self, fn, kwargs, result) -> None:
        if result is not None:
            self.counts["reference_oracles.mc_distortion.samples"] += result.n_samples

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        originals = traced_functions()
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in originals.items()}
        patched = bindings(originals.values())
        try:
            for mod, attr, fn in patched:
                setattr(mod, attr, wrappers[id(fn)])
            yield patched
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def save(self, path) -> None:
        """Write the spans as one uncompressed numpy archive."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per traced pass.  ``.s`` is inclusive time,
        ``.self_s`` excludes time spent in other traced functions."""
        selfs = self_times(self.start, self.end, self.parent)
        by_name = {n: {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for i, name_id in enumerate(self.span_name):
            rec = by_name[self.names[name_id]]
            rec["calls"] += 1
            rec["failed"] += self.raised[i]
            rec["s"] += self.end[i] - self.start[i]
            rec["self_s"] += selfs[i]

        def get(name, field):
            return by_name.get(name, {}).get(field, 0)

        candidates = valid = refine_evals = 0
        sweep_id = self.name_index.get("threshold_optimizer.sweep")
        refine_id = self.name_index.get("threshold_optimizer.refine")
        candidate_id = self.name_index.get("threshold_optimizer.evaluate_candidate")
        for i, name_id in enumerate(self.span_name):
            if name_id != candidate_id or self.parent[i] < 0:
                continue
            caller = self.span_name[self.parent[i]]
            if caller == sweep_id:
                candidates += 1
                valid += not self.raised[i]
            elif caller == refine_id:
                refine_evals += 1

        per_pass = {f"{name}.{figure}": get(name, figure) for name, figure in SPAN_FIGURES}
        per_pass.update({name: self.counts[name] for name in COUNTERS})
        per_pass["threshold_optimizer.sweep.candidates"] = candidates
        per_pass["threshold_optimizer.refine.evals"] = refine_evals
        out = {k: v / passes for k, v in per_pass.items()}
        out["threshold_optimizer.sweep.valid_ratio"] = valid / candidates if candidates else 0.0
        return out
