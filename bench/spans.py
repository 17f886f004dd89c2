"""Span recorder that wraps the public layer functions of ``trajmark``.

Nothing under ``src/`` knows about tracing. While a ``Tracer`` is active,
each function listed in ``LAYERS`` is replaced, in every loaded
``trajmark`` module and every given caller module that refers to it, by a
wrapper that records a span:
name, start, end, parent span and request id. Counters are taken at the
same boundary from the call's arguments and result. Leaving the tracer
restores the original functions.

Two hot leaf functions (``scan_equivalence`` and ``execute_segment``) run
millions of times in a reproduction; they are not stored as spans but
summed into their parent span (calls, seconds, matches, hits), which keeps
memory bounded and self times exact.

A span's self time is its duration minus the time its child spans and
leaf aggregates cover. Per-layer ``*_s`` metrics are sums of self time.
"""

from __future__ import annotations

import gzip
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One wrapped public function and the counters taken at its boundary."""

    module: str
    function: str
    span: str
    counters: Callable | None = None  # (args, kwargs, result) -> {counter: increment}
    leaf: bool = False
    sized: bool = False  # leaf only: count len(result) as matches, non-empty results as hits
    starts_request: bool = False


STAGES = ("f1_grid", "localization", "delta_kld", "attack_bench",
          "stealth", "closed_loop", "eta_sweep")

LAYERS = (
    Layer("trajmark.trajectory", "parse_trajectory_line", "trajectory.parse",
          lambda a, k, r: {"parse_lines": 1}),
    Layer("trajmark.trajectory", "serialize_trajectory", "trajectory.serialize",
          lambda a, k, r: {"bytes_out": len(r.encode("utf-8"))}),
    Layer("trajmark.injector", "watermark_trajectory", "injector.watermark",
          lambda a, k, r: {"trajectories": 1, "spans": len(r[1]),
                           "changed_draws": sum(1 for e in r[1] if e.changed)}),
    Layer("trajmark.equivalence", "scan_equivalence", "equivalence.scan", leaf=True, sized=True),
    Layer("trajmark.equivalence", "estimate_natural_distribution", "equivalence.estimate"),
    Layer("trajmark.equivalence", "validate_equivalence", "equivalence.validate",
          lambda a, k, r: {"cases": r.n_cases}),
    Layer("trajmark.registry", "register_user", "registry.register",
          lambda a, k, r: {"users": 1}),
    Layer("trajmark.registry", "passes_for_uid", "registry.passes_for_uid"),
    Layer("trajmark.verifier", "evaluate_passes", "verifier.evaluate",
          lambda a, k, r: {"actions": sum(len(t.actions) for t in a[0])}),
    Layer("trajmark.verifier", "verify_corpus", "verifier.verify",
          lambda a, k, r: {"conclusive": sum(1 for x in r.results if x.conclusive)}),
    Layer("trajmark.verifier", "localize_user", "verifier.localize",
          lambda a, k, r: {"users_scored": len(r)}),
    Layer("trajmark.verifier", "f1_grid", "verifier.f1_grid"),
    Layer("trajmark.pool", "build_pool", "pool.build"),
    Layer("trajmark.simkit.sandbox", "execute_segment", "simkit.sandbox.execute", leaf=True),
    Layer("trajmark.simkit.generator", "generate_greybox_corpus", "simkit.generator.generate",
          lambda a, k, r: {"trajectories": len(r)}),
    Layer("trajmark.simkit.surrogate", "fit_surrogate", "simkit.surrogate.fit"),
    Layer("trajmark.simkit.surrogate", "sample_surrogate", "simkit.surrogate.sample"),
    Layer("trajmark.attacks", "attack_random_deletion", "attacks.random-deletion"),
    Layer("trajmark.attacks", "attack_rephrase_stub", "attacks.rephrase"),
    Layer("trajmark.attacks", "attack_pk_replacement", "attacks.pk-replace"),
    Layer("trajmark.attacks", "attack_fk_replacement", "attacks.fk-replace"),
    Layer("trajmark.attacks", "semantic_breakage_rate", "attacks.breakage"),
) + tuple(
    Layer("trajmark.experiment", f"run_{stage}", f"experiment.{stage}", starts_request=True)
    for stage in STAGES
)


class Tracer:
    """In-memory span store plus the patching that feeds it.

    ``callers`` are modules outside ``trajmark`` whose imported names are
    patched too, such as the benchmark's own workloads.

    ``spans`` holds ``[name, start, end, parent, request, child_s,
    counters, leaves]`` lists; ``parent`` is an index into ``spans`` or
    -1. ``leaves`` maps a leaf span name to ``[calls, seconds, matches,
    hits]``.
    """

    def __init__(self, callers=()) -> None:
        self.spans: list[list] = []
        self.request = "-"
        self._stack: list[int] = []
        # leaf aggregates recorded outside any span
        self._root: list = ["-", 0.0, 0.0, -1, "-", 0.0, None, None]
        # (module, attribute, original, wrapper) for every name a caller looks up
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "trajmark" or n.startswith("trajmark.")) and m is not None]
        modules.extend(callers)
        for layer in LAYERS:
            original = getattr(sys.modules[layer.module], layer.function)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def __enter__(self) -> "Tracer":
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _wrapper in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, layer: Layer):
        if layer.leaf:
            return self._wrap_leaf(fn, layer)
        spans, stack = self.spans, self._stack
        counters, name = layer.counters, layer.span

        def span(*args, **kwargs):
            request = name if layer.starts_request else self.request
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, request, 0.0, None, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            saved, self.request = self.request, request
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter()
                stack.pop()
                self.request = saved
                if stack:
                    spans[stack[-1]][5] += end - record[1]
            if counters is not None:
                record[6] = counters(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def _wrap_leaf(self, fn, layer: Layer):
        spans, stack, root = self.spans, self._stack, self._root
        name, sized = layer.span, layer.sized

        def leaf(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            parent = spans[stack[-1]] if stack else root
            parent[5] += elapsed
            leaves = parent[7]
            if leaves is None:
                leaves = parent[7] = {}
            agg = leaves.get(name)
            if agg is None:
                agg = leaves[name] = [0, 0.0, 0, 0]
            agg[0] += 1
            agg[1] += elapsed
            if sized and result:
                agg[2] += len(result)
                agg[3] += 1
            return result

        leaf.__wrapped__ = fn
        return leaf

    # -- the workload's own request spans -------------------------------

    def open(self, name: str, request: str) -> int:
        """Start a root-level span for one request of the workload."""
        self.request = request
        self.spans.append([name, perf_counter(), 0.0, -1, request, 0.0, None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()
        self.request = "-"

    # -- results -------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, counters."""
        out: dict[str, dict] = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})

        def add_leaves(leaves):
            for leaf_name, (calls, seconds, matches, hits) in leaves.items():
                e = entry(leaf_name)
                e["calls"] += calls
                e["total_s"] += seconds
                e["self_s"] += seconds
                e["counters"]["matches"] = e["counters"].get("matches", 0) + matches
                e["counters"]["hits"] = e["counters"].get("hits", 0) + hits

        for name, start, end, _parent, _req, child_s, counters, leaves in self.spans:
            e = entry(name)
            e["calls"] += 1
            e["total_s"] += end - start
            e["self_s"] += end - start - child_s
            for key, inc in (counters or {}).items():
                e["counters"][key] = e["counters"].get(key, 0) + inc
            if leaves:
                add_leaves(leaves)
        add_leaves(self._root[7] or {})
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for idx, (name, start, end, parent, req, child_s, counters, leaves) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": parent, "request": req,
                    "self_s": end - start - child_s,
                    "counters": counters or {},
                    "leaves": {k: {"calls": c, "seconds": sec, "matches": m, "hits": h}
                               for k, (c, sec, m, h) in (leaves or {}).items()},
                }, separators=(",", ":")))
                handle.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from span totals."""

    def t(name):
        return totals.get(name, {"calls": 0, "self_s": 0.0, "counters": {}})

    def c(name, key):
        return t(name)["counters"].get(key, 0)

    scan = t("equivalence.scan")
    inj_spans = c("injector.watermark", "spans")
    m = {
        "trajectory.parse_s": (t("trajectory.parse")["self_s"], "s"),
        "trajectory.parse_lines": (c("trajectory.parse", "parse_lines"), "count"),
        "trajectory.serialize_s": (t("trajectory.serialize")["self_s"], "s"),
        "trajectory.bytes_out": (c("trajectory.serialize", "bytes_out"), "bytes"),
        "injector.watermark_s": (t("injector.watermark")["self_s"], "s"),
        "injector.trajectories": (c("injector.watermark", "trajectories"), "count"),
        "injector.spans": (inj_spans, "count"),
        "injector.changed_draws": (c("injector.watermark", "changed_draws"), "count"),
        "injector.changed_share": (_ratio(c("injector.watermark", "changed_draws"), inj_spans), "ratio"),
        "equivalence.scan_calls": (scan["calls"], "count"),
        "equivalence.scan_s": (scan["self_s"], "s"),
        "equivalence.scan_matches": (c("equivalence.scan", "matches"), "count"),
        "equivalence.scan_hit_ratio": (_ratio(c("equivalence.scan", "hits"), scan["calls"]), "ratio"),
        "equivalence.estimate_s": (t("equivalence.estimate")["self_s"], "s"),
        "equivalence.validate_s": (t("equivalence.validate")["self_s"], "s"),
        "equivalence.validate_cases": (c("equivalence.validate", "cases"), "count"),
        "registry.register_s": (t("registry.register")["self_s"], "s"),
        "registry.users_registered": (c("registry.register", "users"), "count"),
        "registry.passes_for_uid_s": (t("registry.passes_for_uid")["self_s"], "s"),
        "verifier.evaluate_s": (t("verifier.evaluate")["self_s"], "s"),
        "verifier.evaluate_actions": (c("verifier.evaluate", "actions"), "count"),
        "verifier.conclusive_passes": (c("verifier.verify", "conclusive"), "count"),
        "verifier.localize_s": (t("verifier.localize")["self_s"], "s"),
        "verifier.localize_users_scored": (c("verifier.localize", "users_scored"), "count"),
        "verifier.f1_grid_s": (t("verifier.f1_grid")["self_s"], "s"),
        "pool.build_s": (t("pool.build")["self_s"], "s"),
        "pool.build_calls": (t("pool.build")["calls"], "count"),
        "simkit.sandbox.execute_calls": (t("simkit.sandbox.execute")["calls"], "count"),
        "simkit.sandbox.execute_s": (t("simkit.sandbox.execute")["self_s"], "s"),
        "simkit.generator.generate_s": (t("simkit.generator.generate")["self_s"], "s"),
        "simkit.generator.trajectories": (c("simkit.generator.generate", "trajectories"), "count"),
        "simkit.surrogate.fit_s": (t("simkit.surrogate.fit")["self_s"], "s"),
        "simkit.surrogate.fit_calls": (t("simkit.surrogate.fit")["calls"], "count"),
        "simkit.surrogate.sample_s": (t("simkit.surrogate.sample")["self_s"], "s"),
    }
    for strategy in ("random-deletion", "rephrase", "pk-replace", "fk-replace", "breakage"):
        m[f"attacks.{strategy}_s"] = (t(f"attacks.{strategy}")["self_s"], "s")
    for stage in STAGES:
        m[f"experiment.{stage}_s"] = (t(f"experiment.{stage}")["self_s"], "s")
    return m
