"""Spans around twistlab's public functions, recorded from outside the package.

twistlab modules import each other's functions by name (`calculus` holds
its own reference to `rational.extreme_rays`, `wavefront` to
`spectral.stft`), so a wrapper is installed under every name in every
loaded twistlab module that refers to the original object, and removed
again afterwards.  Each span records its name, start, end, parent span
and operation id; spans stay in memory until `write`.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[list] = []        # [span index, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        nid = self.name_id.setdefault(name, len(self.name_id))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1][0] if self.stack else -1)
            self.op.append(self.op_id)
            frame = [idx, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            self.start.append(t0)
            self.end.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][1] += dur
            if on_result is not None:
                on_result(self, out)
            return out

        return wrapper

    def counter(self, name: str, fn, inside: str | None = None):
        """Count calls without a span; `inside` also counts the calls made
        while a span of that name is open."""
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if inside is not None and any(self.names[self.span_name[f[0]]] == inside
                                          for f in self.stack):
                self.counts[f"{name}@{inside}"] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- installing --------------------------------------------------------

    def patch(self, module, attr: str, make):
        """Replace module.attr by make(original) wherever twistlab binds it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in [m for k, m in sys.modules.items() if k == "twistlab" or k.startswith("twistlab.")]:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, make):
        static = inspect.getattr_static(cls, attr)
        if isinstance(static, classmethod):
            setattr(cls, attr, classmethod(make(static.__func__)))
        else:
            setattr(cls, attr, make(static))
        self._undo.append((cls, attr, static))

    def restore(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        spans = [
            [self.names[self.span_name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
            for i in range(len(self.start))
        ]
        doc = {"meta": meta, "fields": ["name", "start", "end", "parent", "op"], "spans": spans}
        path.write_text(json.dumps(doc))


def _count_result(key: str, measure):
    def on_result(tracer: Tracer, out):
        tracer.counts[key] += measure(out)
    return on_result


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from twistlab import calculus, catalog, cli, cones, grids, products, rational, spectral, wavefront

    def span(name, on_result=None):
        return lambda fn: tracer.span(name, fn, on_result)

    for attr, name in (("twisted_convolution", "products.twisted_convolution"),
                       ("twisted_convolution_product", "products.twisted_product"),
                       ("star_via_product", "products.star_via_product"),
                       ("pointwise_product", "products.pointwise")):
        tracer.patch(products, attr, span(name))
    tracer.patch(spectral, "fourier_forward", span("spectral.fft"))
    tracer.patch(spectral, "stft", span("spectral.stft"))
    tracer.patch(catalog, "sample_analytic", span("catalog.sample"))
    tracer.patch(wavefront, "direction_grid", span("wavefront.direction_grid"))
    tracer.patch(wavefront, "estimate_wf", span("wavefront.estimate"))
    tracer.patch(wavefront, "estimate_wf_from_stft", span(
        "wavefront.fit", _count_result("wavefront.directions_fitted", lambda e: e.directions.count)))
    tracer.patch(rational, "extreme_rays", span(
        "rational.extreme_rays", _count_result("rational.rays", len)))
    tracer.patch(rational, "rref", lambda fn: tracer.counter(
        "rational.rref", fn, inside="rational.extreme_rays"))
    tracer.patch(rational, "cone_contains", span("cones.member"))
    tracer.patch(cones, "member", span("cones.member"))
    tracer.patch(cones, "set_gencones", span("cones.set_gencones"))
    tracer.patch(cones, "set_from_obj", span("cones.parse"))
    tracer.patch(cones, "set_from_json", span("cones.parse"))
    for attr, name in (("existence_condition", "calculus.existence"),
                       ("existence_condition_theta_inv", "calculus.existence_theta_inv"),
                       ("predicted_product_wf", "calculus.predict"),
                       ("shift_algebra_check", "calculus.shift_algebra"),
                       ("feasible_with_nonzero", "calculus.feasible")):
        tracer.patch(calculus, attr, span(name))
    tracer.patch(cli, "main", span("cli.job"))
    tracer.patch_method(grids.SampledField, "to_json", span(
        "grids.to_json", _count_result("grids.bytes_written", len)))
    tracer.patch_method(grids.SampledField, "from_json", span("grids.from_json"))
    tracer.patch_method(wavefront.WavefrontEstimate, "to_json", span("wavefront.serialize"))
    tracer.patch_method(wavefront.WavefrontEstimate, "to_csv", span("wavefront.serialize"))


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """The per-layer metrics, each per benchmark operation of the traced loop."""
    def ms(name):
        return ("ms/op", 1e3 * tracer.self_s.get(name, 0.0) / ops)

    def calls(name):
        return ("1/op", tracer.calls.get(name, 0) / ops)

    def count(name):
        return ("1/op", tracer.counts.get(name, 0) / ops)

    inside = tracer.counts.get("rational.rref@rational.extreme_rays", 0)
    rays = tracer.counts.get("rational.rays", 0)
    product_calls = sum(tracer.calls.get(k, 0) for k in (
        "products.twisted_convolution", "products.twisted_product",
        "products.star_via_product", "products.pointwise"))
    table = {
        "products.twisted_convolution_ms": ms("products.twisted_convolution"),
        "products.twisted_product_ms": ms("products.twisted_product"),
        "products.calls": ("1/op", product_calls / ops),
        "spectral.fft_ms": ms("spectral.fft"),
        "spectral.fft_calls": calls("spectral.fft"),
        "spectral.stft_ms": ms("spectral.stft"),
        "spectral.stft_calls": calls("spectral.stft"),
        "catalog.sample_ms": ms("catalog.sample"),
        "wavefront.direction_grid_ms": ms("wavefront.direction_grid"),
        "wavefront.direction_grid_calls": calls("wavefront.direction_grid"),
        "wavefront.fit_ms": ms("wavefront.fit"),
        "wavefront.directions_fitted": count("wavefront.directions_fitted"),
        "rational.extreme_rays_ms": ms("rational.extreme_rays"),
        "rational.extreme_rays_calls": calls("rational.extreme_rays"),
        "rational.rref_calls": count("rational.rref"),
        "rational.rays_per_rref": ("ratio", rays / inside if inside else 0.0),
        "cones.set_gencones_ms": ms("cones.set_gencones"),
        "cones.member_ms": ms("cones.member"),
        "calculus.existence_ms": ms("calculus.existence"),
        "calculus.existence_theta_inv_ms": ms("calculus.existence_theta_inv"),
        "calculus.predict_ms": ms("calculus.predict"),
        "calculus.shift_algebra_ms": ms("calculus.shift_algebra"),
        "calculus.feasible_calls": calls("calculus.feasible"),
        "cli.job_ms": ms("cli.job"),
        "grids.to_json_ms": ms("grids.to_json"),
        "grids.from_json_ms": ms("grids.from_json"),
        "grids.bytes_written": ("B/op", tracer.counts.get("grids.bytes_written", 0) / ops),
        "wavefront.serialize_ms": ms("wavefront.serialize"),
        "cones.parse_ms": ms("cones.parse"),
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in table.items()}
