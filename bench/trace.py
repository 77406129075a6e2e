"""Traced in-process run of `grasstrata verify`, for the per-layer metrics.

    python3 bench/trace.py TRACE_OUT VERIFY_ARGS...

Runs `grasstrata.cli.main(VERIFY_ARGS)` once in this (fresh) interpreter
with timing wrappers bound onto the names each consumer module imported,
for example `grasstrata.strata.matroid_from` and `grasstrata.matroid.matrix_rank`.
Nothing in the package changes.  Wrappers around the label stages and other
coarse layer boundaries keep one span each (name, start, end, parent);
the exact-arithmetic leaves (`rank`, `kernel`, ...) are called far too often
for that and are only counted and timed in aggregate.  A layer's self time
is its span time minus the time of the spans and leaves it called.

Spans stay in memory and are written to TRACE_OUT as JSON when the run
ends, together with per-layer totals, per-module self time, counters and
the `cache_info()` of the package's lru caches.  The last line on stdout is
a JSON object {"exit": <code of main>, "metrics": {...}}.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from grasstrata import arrangement, cli, exactlin, matroid, pluecker, sampling, strata  # noqa: E402

MODULES = (arrangement, cli, exactlin, matroid, pluecker, sampling, strata)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

# The lru caches whose entries and hit ratio are reported.
CACHED = {
    "intersection_lattice": arrangement.intersection_lattice,
    "maximal_chains": arrangement.maximal_chains,
    "k_adjoint": pluecker.k_adjoint,
    "matroid_from": matroid.matroid_from,
    "defect_subspace": pluecker.defect_subspace,
}


NEVER_CALLED = (0, 0.0, 0.0, 0.0)  # a name's totals before its first call


class Tracer:
    """Span stack plus aggregates; one per traced run."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stack: list[list] = []  # [name, start, child_time, span_id or None]
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s, max_s]
        self.counts: Counter = Counter()
        self._next_id = 0

    def _parent_id(self) -> int | None:
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def run(self, name: str, keep_span: bool, fn, *args, **kwargs):
        span_id = None
        if keep_span:
            span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._parent_id()
        frame = [name, perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            dur = end - frame[1]
            if self.stack:
                self.stack[-1][2] += dur
            tot = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[2]
            tot[3] = max(tot[3], dur)
            if keep_span:
                self.spans.append((span_id, name, frame[1] - self.t0, end - self.t0, parent))

    def wrap(self, fn, name: str, keep_span: bool, counter: str | None = None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            result = self.run(name, keep_span, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def install(self, fn, name: str, keep_span: bool = True, site_names: dict | None = None,
                site_counters: dict | None = None, on_result=None) -> None:
        """Replace every module-level binding of fn in the package with a
        traced wrapper; site_names/site_counters are keyed by module name."""
        site_names = site_names or {}
        site_counters = site_counters or {}
        for module in MODULES:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if value is fn:
                    site_name = site_names.get(layer, name)
                    hook = on_result if site_name == name else None
                    setattr(module, attr, self.wrap(fn, site_name, keep_span,
                                                    site_counters.get(layer), hook))


def install_all(tr: Tracer) -> dict:
    """Bind the wrappers; returns a dict the result hooks fill in."""
    seen: dict = {"flats": 0, "chains": 0, "restriction_lattice_size": 0, "report_bytes": 0}

    def keep_max(key: str, size):
        def hook(result) -> None:
            seen[key] = max(seen[key], size(result))
        return hook

    write = cli._write

    def counted_write(text, output_path):
        seen["report_bytes"] += len(text.encode())
        return write(text, output_path)

    cli._write = counted_write

    tr.install(cli._encode_worker, "cli.label_one")
    tr.install(cli._emit_json, "cli.report")
    tr.install(sampling.sample_subspace, "sampling.sample_subspace")
    tr.install(sampling.structured_subspaces, "sampling.structured_subspaces")
    tr.install(arrangement.intersection_lattice, "arrangement.intersection_lattice",
               site_names={"matroid": "arrangement.restricted_lattice"},
               on_result=keep_max("flats", lambda lat: len(lat.flats)))
    tr.install(arrangement.maximal_chains, "arrangement.maximal_chains", on_result=keep_max("chains", len))
    tr.install(arrangement.restriction, "arrangement.restriction")
    tr.install(strata.matroid_label, "strata.matroid_label")
    tr.install(strata.adjoint_label, "strata.adjoint_label")
    tr.install(strata.schubert_label, "strata.schubert_label")
    tr.install(strata.verify_equivalence, "strata.verify_equivalence")
    tr.install(strata.verify_restriction_classification, "strata.classification")
    tr.install(matroid.matroid_from, "matroid.matroid_from")
    tr.install(matroid.restriction_lattice, "matroid.restriction_lattice",
               on_result=keep_max("restriction_lattice_size", lambda L: L.size))
    tr.install(matroid.lattice_isomorphic, "matroid.lattice_isomorphic")
    tr.install(pluecker.defect_subspace, "pluecker.defect_subspace")
    tr.install(pluecker.pluecker_vector, "pluecker.pluecker_vector")
    tr.install(pluecker.k_adjoint, "pluecker.k_adjoint")
    # exact-arithmetic leaves: aggregated, no individual spans
    tr.install(exactlin.rank, "exactlin.rank", keep_span=False,
               site_counters={"matroid": "matroid.rank_calls"})
    for fn in (exactlin.intersection_dim, exactlin.kernel, exactlin.minor, exactlin.project):
        tr.install(fn, f"exactlin.{fn.__name__}", keep_span=False)
    return seen


def metrics_of(tr: Tracer, seen: dict, report: dict | None) -> dict:
    def calls(name: str) -> int:
        return tr.totals.get(name, NEVER_CALLED)[0]

    def total(name: str) -> float:
        return tr.totals.get(name, NEVER_CALLED)[1]

    def per_call_us(name: str) -> float:
        n = calls(name)
        return total(name) / n * 1e6 if n else 0.0

    m: dict[str, tuple[float, str]] = {
        "cli.label_all_s": (total("cli.label_one"), "s"),
        "cli.report_s": (total("cli.report"), "s"),
        "cli.report_bytes": (seen["report_bytes"], "bytes"),
        "sampling.sample_subspace_s": (total("sampling.sample_subspace"), "s"),
        "sampling.structured_subspaces_s": (total("sampling.structured_subspaces"), "s"),
        "sampling.subspaces": (len(report["samples"]) if report else 0, "count"),
        "arrangement.intersection_lattice_s": (total("arrangement.intersection_lattice"), "s"),
        "arrangement.flats": (seen["flats"], "count"),
        "arrangement.maximal_chains_s": (total("arrangement.maximal_chains"), "s"),
        "arrangement.chains": (seen["chains"], "count"),
        "arrangement.restriction_calls": (calls("arrangement.restriction"), "count"),
        "arrangement.restricted_lattice_s": (total("arrangement.restricted_lattice"), "s"),
        "strata.matroid_label_s": (total("strata.matroid_label"), "s"),
        "strata.adjoint_label_s": (total("strata.adjoint_label"), "s"),
        "strata.schubert_label_s": (total("strata.schubert_label"), "s"),
        "strata.verify_equivalence_s": (total("strata.verify_equivalence"), "s"),
        "strata.classification_s": (total("strata.classification"), "s"),
        "strata.classes": (len(report["partitions"]["matroid"]) if report else 0, "count"),
        "strata.guard_skipped": (sum(w.get("type") == "guard_skipped" for w in report["witnesses"])
                                 if report else 0, "count"),
        "matroid.matroid_from_s": (total("matroid.matroid_from"), "s"),
        "matroid.rank_calls": (tr.counts["matroid.rank_calls"], "count"),
        "matroid.restriction_lattice_s": (total("matroid.restriction_lattice"), "s"),
        "matroid.lattice_isomorphic_s": (total("matroid.lattice_isomorphic"), "s"),
        "matroid.lattice_isomorphic_calls": (calls("matroid.lattice_isomorphic"), "count"),
        "matroid.lattice_isomorphic_us": (per_call_us("matroid.lattice_isomorphic"), "us"),
        "matroid.lattice_isomorphic_max_s": (tr.totals.get("matroid.lattice_isomorphic", NEVER_CALLED)[3], "s"),
        "matroid.restriction_lattice_size_max": (seen["restriction_lattice_size"], "count"),
        "pluecker.defect_subspace_s": (total("pluecker.defect_subspace"), "s"),
        "pluecker.pluecker_vector_s": (total("pluecker.pluecker_vector"), "s"),
        "pluecker.k_adjoint_s": (total("pluecker.k_adjoint"), "s"),
    }
    for leaf in ("rank", "intersection_dim", "kernel", "minor", "project"):
        m[f"exactlin.{leaf}_calls"] = (calls(f"exactlin.{leaf}"), "count")
        m[f"exactlin.{leaf}_us"] = (per_call_us(f"exactlin.{leaf}"), "us")
    for name, fn in CACHED.items():
        info = fn.cache_info()
        looked_up = info.hits + info.misses
        m[f"cache.{name}.entries"] = (info.currsize, "count")
        m[f"cache.{name}.hit_ratio"] = (info.hits / looked_up if looked_up else 0.0, "ratio")
    for layer, self_s in module_self_times(tr).items():
        m[f"self.{layer}_s"] = (self_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def module_self_times(tr: Tracer) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s, _) in tr.totals.items():
        out[name.split(".", 1)[0]] += self_s
    return out


def main(argv: list[str]) -> int:
    trace_out, verify_args = argv[0], argv[1:]
    report_path = verify_args[verify_args.index("-o") + 1]
    tr = Tracer()
    seen = install_all(tr)
    start = perf_counter()
    code = tr.run("cli.main", True, cli.main, verify_args)
    wall_s = perf_counter() - start
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = None
    metrics = metrics_of(tr, seen, report)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({
            "verify_args": verify_args,
            "exit": code,
            "main_s": wall_s,
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id"],
            "spans": sorted(tr.spans),
            "layers": {name: {"calls": c, "total_s": t, "self_s": s, "max_s": mx}
                       for name, (c, t, s, mx) in sorted(tr.totals.items())},
            "module_self_s": module_self_times(tr),
            "metrics": metrics,
        }, fh, indent=1)
    print(json.dumps({"exit": code, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
