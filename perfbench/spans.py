"""In-memory spans around the public functions of each rhalylab layer.

A :class:`Tracer` replaces every binding of a traced function (in every
loaded ``rhalylab`` module, wherever callers look it up) with a wrapper that
records a span: name, layer, start, end, parent span and request id. It also
hooks ``numpy.fft.ifft`` to count transforms and points against the
innermost open layer. :meth:`Tracer.installed` restores the original
bindings on exit. Self times are computed from the spans after the run;
counts are kept as the run goes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

#: traced functions by layer; a layer is the rhalylab module of that name
LAYER_FUNCS = {
    "cli": ("main",),
    "classifier": ("classify_hardy", "classify_bergman", "h1_necessary", "dpp_embedding_check"),
    "lipschitz": ("block_profile", "partial_sum_convergence"),
    "norms": ("hp_norm", "mean_mp", "bergman_norm", "dirichlet_norm", "xqp_norm"),
    "rhalyop": ("values", "apply_rhaly", "opnorm_h2", "opnorm_lower_hp"),
    "coeffcore": ("prefix_sums", "evaluate_on_circle"),
    "constructions": (
        "construct_upsilon", "khinchine_report", "khinchine_ratio", "w_kernel", "extremal_fn",
    ),
}

#: counts and ratios besides calls and self time, with their units
EXTRA_METRICS = {
    "cli.output_bytes": "bytes",
    "classifier.profiles_per_verdict": "count",
    "lipschitz.blocks": "count",
    "norms.fft_count": "count",
    "norms.fft_points": "count",
    "norms.reports": "count",
    "norms.flagged_frac": "frac",
    "rhalyop.values.repeat_frac": "frac",
    "rhalyop.opnorm_h2.iterations": "count",
    "coeffcore.prefix_sums.coeffs": "count",
    "coeffcore.fft_count": "count",
    "coeffcore.fft_points": "count",
    "coeffcore.fft_nonzero_frac": "frac",
    "coeffcore.fft_gflop_computed": "GFLOP",
    "constructions.sign_rows": "count",
    "constructions.fft_count": "count",
    "constructions.fft_points": "count",
    "bench.self_s": "s",
    "bench.requests": "count",
    "bench.wall_s": "s",
    "bench.accounted_frac": "frac",
    "bench.trace_overhead_frac": "frac",
}

BENCH = "bench"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, fnames in LAYER_FUNCS.items():
        for fn in fnames:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    rid: str | None
    start: float
    end: float = math.nan


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children[s.sid]):
            lo, hi = max(lo, reach, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _sign_rows(K: int, budget_per_block: int, exhaustive_limit: int) -> int:
    """Candidate sign rows construct_upsilon evaluates (computed, not counted)."""
    rows = 0
    for k in range(K):
        length = 2**k
        rows += 2 ** (length - 1) if length <= exhaustive_limit else budget_per_block
    return rows


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.rid: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._realized: dict[int, weakref.ref] = {}

    # --- spans --------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, parent, name, layer, self.rid, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = BENCH):
        sid = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(sid)

    def _open_layer(self) -> str:
        return self.spans[self._stack[-1]].layer if self._stack else BENCH

    # --- wrappers -----------------------------------------------------

    def _wrap(self, fn, layer: str, count):
        name = f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments, out)
            return out

        return wrapper

    def _counter_for(self, layer: str, fname: str):
        c = self.counters
        if layer == "norms":
            def count(args, rep):
                # nested norms calls (dirichlet -> bergman) report once
                if self._open_layer() != "norms":
                    c["norms.reports"] += 1
                    c["norms.flagged"] += int(rep.flagged)
            return count
        if fname == "block_profile":
            return lambda args, prof: c.update({"lipschitz.blocks": len(prof.entries)})
        if fname == "prefix_sums":
            return lambda args, out: c.update({"coeffcore.prefix_sums.coeffs": len(out.coeffs)})
        if fname == "opnorm_h2":
            return lambda args, est: c.update({"rhalyop.opnorm_h2.iterations": est.iterations})
        if fname == "construct_upsilon":
            return lambda args, res: c.update({"constructions.sign_rows": _sign_rows(
                args["K"], args["budget_per_block"], args["exhaustive_limit"])})
        if fname == "values":
            def count(args, out):
                spec = args["self"]
                ref = self._realized.get(id(spec))
                if ref is not None and ref() is spec:
                    c["rhalyop.values.repeat"] += 1
                else:
                    key = id(spec)
                    self._realized[key] = weakref.ref(
                        spec, lambda _, key=key: self._realized.pop(key, None)
                    )
            return count
        return None

    def _fft_hook(self, original):
        c = self.counters

        @functools.wraps(original)
        def ifft(a, n=None, axis=-1, *args, **kwargs):
            layer = self._open_layer()
            with self.span("bench.fft_hook"):
                arr = np.asarray(a)
                length = arr.shape[axis] if n is None else n
                rows = arr.size // max(arr.shape[axis], 1)
                c[f"{layer}.fft_count"] += rows
                c[f"{layer}.fft_points"] += rows * length
                c[f"{layer}.fft_nonzero"] += int(np.count_nonzero(arr))
                c[f"{layer}.fft_flop"] += rows * 5.0 * length * math.log2(max(length, 2))
            return original(a, n, axis, *args, **kwargs)

        return ifft

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        from rhalylab import rhalyop

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "rhalylab" or k.startswith("rhalylab."))]
        try:
            for layer, fnames in LAYER_FUNCS.items():
                owner = sys.modules[f"rhalylab.{layer}"]
                for fname in fnames:
                    count = self._counter_for(layer, fname)
                    if fname == "values":
                        cls = rhalyop.SequenceSpec
                        self._patch(cls, "values", self._wrap(cls.values, layer, count))
                        continue
                    original = getattr(owner, fname)
                    wrapper = self._wrap(original, layer, count)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is original:
                                self._patch(mod, attr, wrapper)
            self._patch(np.fft, "ifft", self._fft_hook(np.fft.ifft))
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- metrics ------------------------------------------------------

    def layer_metrics(self, wall_s: float, requests: int, overhead_frac: float) -> dict:
        """Per-layer metrics over all recorded spans."""
        st = self_times(self.spans)
        m = dict.fromkeys(per_layer_units(), 0)
        bench_self = 0.0
        for s, own in zip(self.spans, st):
            if s.layer == BENCH:
                bench_self += own
            else:
                m[f"{s.name}.calls"] += 1
                m[f"{s.name}.self_s"] += own
        c = self.counters
        verdict_spans = {s.sid for s in self.spans
                         if s.name in ("classifier.classify_hardy", "classifier.classify_bergman")}
        profiles = sum(1 for s in self.spans
                       if s.name == "lipschitz.block_profile"
                       and self._has_ancestor(s, verdict_spans))
        m["cli.output_bytes"] = c["cli.output_bytes"]
        m["classifier.profiles_per_verdict"] = profiles / max(len(verdict_spans), 1)
        m["lipschitz.blocks"] = c["lipschitz.blocks"]
        m["norms.reports"] = c["norms.reports"]
        m["norms.flagged_frac"] = c["norms.flagged"] / max(c["norms.reports"], 1)
        m["rhalyop.values.repeat_frac"] = c["rhalyop.values.repeat"] / max(
            m["rhalyop.values.calls"], 1)
        m["rhalyop.opnorm_h2.iterations"] = c["rhalyop.opnorm_h2.iterations"]
        m["coeffcore.prefix_sums.coeffs"] = c["coeffcore.prefix_sums.coeffs"]
        for layer in ("norms", "coeffcore", "constructions"):
            m[f"{layer}.fft_count"] = c[f"{layer}.fft_count"]
            m[f"{layer}.fft_points"] = c[f"{layer}.fft_points"]
        m["coeffcore.fft_nonzero_frac"] = c["coeffcore.fft_nonzero"] / max(
            c["coeffcore.fft_points"], 1)
        m["coeffcore.fft_gflop_computed"] = c["coeffcore.fft_flop"] / 1e9
        m["constructions.sign_rows"] = c["constructions.sign_rows"]
        m["bench.self_s"] = bench_self
        m["bench.requests"] = requests
        m["bench.wall_s"] = wall_s
        m["bench.accounted_frac"] = sum(st) / wall_s if wall_s > 0 else 0.0
        m["bench.trace_overhead_frac"] = overhead_frac
        return m

    def _has_ancestor(self, span: Span, sids: set[int]) -> bool:
        parent = span.parent
        while parent is not None:
            if parent in sids:
                return True
            parent = self.spans[parent].parent
        return False
