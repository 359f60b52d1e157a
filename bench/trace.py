"""Outside-in tracer: spans around the calls into each layer of ``repro``.

The benchmark may not edit ``src/``, so spans are recorded from this side:
``Tracer.install`` replaces the public entry points of each layer *at the
binding the caller looks up* (a ``from x import f`` creates one binding per
importing module, so every ``repro.*`` module holding the function is
patched), the three ``ExecutionBackend`` methods on the pipeline's backend
class, and every ``Stage.fn`` of the pipeline's day graph.  ``uninstall``
puts the original objects back; run it in a ``finally``.

A span records name, layer, start, end, parent span and a run identifier
shared by all spans under one root call (one ``process_day``, or one
``scan`` issued by the benchmark itself).  Self time is duration minus the
time covered by child spans.  High-frequency leaves (per-document
normalisation, anchor and regex probes, single-pair distance queries) are
aggregated per (name, parent span) into count / total / self instead of
being stored one by one.  Work counts are taken at the same boundary as the
span that does the work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench.measure import per_second, ratio

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module`` (+ ``cls``) ``.attr`` -> ``span``."""

    module: str
    attr: str
    span: str
    cls: Optional[str] = None
    #: Fold calls into one record per (span name, parent span).
    aggregate: bool = False
    #: ``pre(args)`` reads a counter before the call; its value reaches
    #: ``count`` as ``token``.
    pre: Optional[Callable[[tuple], Any]] = None
    #: ``count(counters, args, result, token)`` adds the call's work counts.
    count: Optional[Callable[[Dict[str, float], tuple, Any, Any], None]] = None


def _count_tokenize(counters, args, result, _token) -> None:
    counters["jstoken.bytes"] += len(args[0])
    counters["jstoken.tokens"] += len(result)


def _count_fast_normalize(counters, args, _result, _token) -> None:
    counters["scanner.fast_normalize_bytes"] += len(args[0])


def _memo_hits(args) -> int:
    return args[0].counters["memo_hits"]


def _count_scan(counters, args, _result, hits_before) -> None:
    counters["scanner.memo_hits"] += args[0].counters["memo_hits"] - hits_before


def _count_anchor(counters, _args, result, _token) -> None:
    counters["scanner.anchor_passes"] += bool(result)


def _count_regex(counters, _args, result, _token) -> None:
    counters["scanner.regex_hits"] += bool(result)


def _count_compile(counters, args, result, _token) -> None:
    counters["signatures.cluster_samples"] += len(args[1])
    if result is not None:
        counters["signatures.pattern_chars"] += len(result.pattern)


def _count_cluster_run(counters, _args, result, _token) -> None:
    counters["clustering.partitions"] += result[1].partitions


def _carry_comparisons(args) -> int:
    return args[0].comparisons


def _count_carry(counters, args, _result, before) -> None:
    counters["clustering.carry_comparisons"] += args[0].comparisons - before


def _count_unpack(counters, _args, result, _token) -> None:
    counters["unpack.layers"] += len(result[1])


def _count_histogram(counters, args, _result, _token) -> None:
    counters["winnowing.bytes"] += len(args[1])     # args[0] is the class


#: Module-level functions, patched at every ``repro.*`` binding.
FUNCTION_TARGETS: Tuple[Target, ...] = (
    Target("repro.jstoken.normalizer", "tokenize_sample", "jstoken.tokenize",
           aggregate=True, count=_count_tokenize),
    Target("repro.jstoken.normalizer", "abstract_tokens_of",
           "jstoken.abstract", aggregate=True),
    Target("repro.scanner.normalizer", "fast_normalize",
           "scanner.fast_normalize", aggregate=True,
           count=_count_fast_normalize),
    Target("repro.scanner.normalizer", "normalize_for_scan",
           "scanner.normalize_for_scan", aggregate=True),
    Target("repro.scanner.normalizer", "normalize_tokens",
           "scanner.normalize_tokens", aggregate=True),
    Target("repro.clustering.partition", "cluster_partition",
           "clustering.cluster_partition"),
    Target("repro.clustering.merge", "merge_clusters",
           "clustering.merge_clusters"),
)

#: Methods, patched on their class.
METHOD_TARGETS: Tuple[Target, ...] = (
    Target("repro.core.pipeline", "process_day", "core.process_day",
           cls="Kizzle"),
    Target("repro.scanner.engine", "scan", "scanner.scan", cls="ScanEngine",
           pre=_memo_hits, count=_count_scan),
    Target("repro.signatures.signature", "could_match",
           "scanner.anchor_probe", cls="Signature", aggregate=True,
           count=_count_anchor),
    Target("repro.signatures.signature", "matches", "scanner.regex_probe",
           cls="Signature", aggregate=True, count=_count_regex),
    Target("repro.signatures.compiler", "compile_cluster",
           "signatures.compile", cls="SignatureCompiler",
           count=_count_compile),
    Target("repro.clustering.partition", "run", "clustering.run",
           cls="DistributedClusterer", count=_count_cluster_run),
    Target("repro.clustering.carryforward", "match", "clustering.carry_match",
           cls="CarryForwardIndex", pre=_carry_comparisons,
           count=_count_carry),
    Target("repro.distance.engine", "neighbourhoods",
           "distance.neighbourhoods", cls="DistanceEngine"),
    Target("repro.distance.engine", "pairs_within", "distance.pairs_within",
           cls="DistanceEngine"),
    Target("repro.distance.engine", "within", "distance.within",
           cls="DistanceEngine", aggregate=True),
    Target("repro.distance.engine", "distance", "distance.distance",
           cls="DistanceEngine", aggregate=True),
    Target("repro.labeling.labeler", "label_cluster", "labeling.label",
           cls="ClusterLabeler"),
    Target("repro.unpack.registry", "unpack", "unpack.unpack",
           cls="UnpackerRegistry", count=_count_unpack),
    Target("repro.winnowing.histogram", "of", "winnowing.histogram",
           cls="WinnowHistogram", count=_count_histogram),
)

#: Root spans of a pass's process side (``process_day``, or the bare compile
#: of ``scan_fleet``); the scan side's roots are ``scanner.scan`` spans.
PROCESS_ROOTS = ("core.process_day", "signatures.compile")

#: ``ExecutionBackend`` methods, patched on the pipeline's backend class.
BACKEND_METHODS = ("run_mapreduce", "run_partition_map", "simulate_stage")


class Tracer:
    """Records spans for the wrapped calls between install and uninstall."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: (id, name, layer, start, end, parent id, run id, self seconds) per
        #: stored span.
        self.spans: List[tuple] = []
        #: (name, parent id) -> [id, name, layer, parent id, run id, count,
        #: total seconds, self seconds, first start, last end].
        self.aggregates: Dict[Tuple[str, int], list] = {}
        #: span name -> [calls, busy seconds, self seconds].
        self.totals: Dict[str, list] = {}
        self.counters: Dict[str, float] = defaultdict(int)
        #: run id -> name of the root span that started the run.
        self.run_roots: Dict[int, str] = {}
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        #: (owner, attribute, original raw object) in install order.
        self.patches: List[Tuple[Any, str, Any]] = []

    # -- reading ---------------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.totals[name][0] for name in names
                   if name in self.totals)

    def busy(self, *names: str) -> float:
        return sum(self.totals[name][1] for name in names
                   if name in self.totals)

    def self_time(self, *names: str) -> float:
        return sum(self.totals[name][2] for name in names
                   if name in self.totals)

    def layer_self(self, layer: str) -> float:
        """Self seconds of every span of one layer (time inside the layer
        that no traced callee, in this or another layer, accounts for)."""
        prefix = layer + "."
        return sum(total[2] for name, total in self.totals.items()
                   if name.startswith(prefix))

    def layer_times_under(self, roots: Sequence[str]
                          ) -> Dict[str, List[float]]:
        """layer -> [busy seconds, self seconds] over the runs whose root
        span is named in ``roots`` (one side of a workload).  Busy counts a
        layer's outermost spans only, so a span nested in another span of
        its own layer is not added twice."""
        layer_of = {span[0]: span[2] for span in self.spans}
        layer_of.update({record[0]: record[2]
                         for record in self.aggregates.values()})
        times: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
        rows = [(span[2], span[5], span[6], span[4] - span[3], span[7])
                for span in self.spans]
        rows += [(record[2], record[3], record[4], record[6], record[7])
                 for record in self.aggregates.values()]
        for layer, parent, run, duration, own in rows:
            if self.run_roots[run] not in roots:
                continue
            if layer_of.get(parent) != layer:
                times[layer][0] += duration
            times[layer][1] += own
        return times

    @property
    def span_count(self) -> int:
        return len(self.spans) + len(self.aggregates)

    # -- patching --------------------------------------------------------
    def install(self, kizzle: Any = None) -> None:
        """Wrap every target; with a pipeline, also its backend class and
        the stages of its day graph."""
        if self.patches:
            raise RuntimeError("tracer is already installed")
        try:
            for target in FUNCTION_TARGETS:
                original = getattr(importlib.import_module(target.module),
                                   target.attr)
                wrapper = self._wrap(original, target.span, target)
                for name, module in list(sys.modules.items()):
                    if module is not None \
                            and (name == "repro" or name.startswith("repro.")) \
                            and vars(module).get(target.attr) is original:
                        self._set(module, target.attr, wrapper)
            for target in METHOD_TARGETS:
                owner = getattr(importlib.import_module(target.module),
                                target.cls)
                self._patch_method(owner, target)
            if kizzle is not None:
                backend_class = type(kizzle.backend)
                for attr in BACKEND_METHODS:
                    self._set(backend_class, attr, self._wrap(
                        getattr(backend_class, attr), f"exec.{attr}"))
                for stage in kizzle.day_graph().stages:
                    self._set(stage, "fn", self._wrap(
                        stage.fn, f"core.{stage.name}"))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @staticmethod
    def raw_attribute(owner: Any, attr: str) -> Any:
        """The object stored on ``owner`` itself (no descriptor binding,
        no inheritance); ``_MISSING`` when the attribute is inherited."""
        return vars(owner).get(attr, _MISSING)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self.patches.append((owner, attr, self.raw_attribute(owner, attr)))
        setattr(owner, attr, value)

    def _patch_method(self, owner: type, target: Target) -> None:
        raw = self.raw_attribute(owner, target.attr)
        if isinstance(raw, classmethod):
            wrapper: Any = classmethod(
                self._wrap(raw.__func__, target.span, target))
        else:
            wrapper = self._wrap(getattr(owner, target.attr), target.span,
                                 target)
        self._set(owner, target.attr, wrapper)

    def _wrap(self, function: Callable, name: str,
              target: Optional[Target] = None) -> Callable:
        """``function`` wrapped in a span called ``name``; ``target``
        supplies the aggregation flag and the count hooks, if any."""
        layer = name.split(".", 1)[0]
        aggregate = target is not None and target.aggregate
        pre = target.pre if target is not None else None
        count = target.count if target is not None else None
        stack, spans, aggregates = self._stack, self.spans, self.aggregates
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        counters, ids, perf = self.counters, self._ids, time.perf_counter
        run_roots = self.run_roots

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                parent_id, run = 0, len(run_roots) + 1
                run_roots[run] = name
            else:
                parent_id, run = parent[0], parent[2]
            record = None
            if aggregate:
                record = aggregates.get((name, parent_id))
                if record is None:
                    record = aggregates[(name, parent_id)] = [
                        next(ids), name, layer, parent_id, run,
                        0, 0.0, 0.0, None, None]
                span_id = record[0]
            else:
                span_id = next(ids)
            frame = [span_id, 0.0, run]      # id, child seconds, run id
            token = pre(args) if pre is not None else None
            stack.append(frame)
            start = perf()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                if record is not None:
                    record[5] += 1
                    record[6] += duration
                    record[7] += own
                    if record[8] is None:
                        record[8] = start
                    record[9] = end
                else:
                    spans.append((span_id, name, layer, start, end,
                                  parent_id, run, own))
            if count is not None:
                count(counters, args, result, token)
            return result

        return wrapper

    # -- output ----------------------------------------------------------
    def write(self, path, header: Dict[str, Any]) -> None:
        """One JSON object per line: the header, then spans, then
        aggregates; times are seconds since the tracer was created."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps({"type": "header", **header}) + "\n")
            for (span_id, name, layer, start, end, parent, run,
                 own) in self.spans:
                stream.write(json.dumps({
                    "type": "span", "id": span_id, "name": name,
                    "layer": layer, "start": start - origin,
                    "end": end - origin, "self_s": own, "parent": parent,
                    "run": run}) + "\n")
            for (span_id, name, layer, parent, run, calls, total, own,
                 first, last) in self.aggregates.values():
                stream.write(json.dumps({
                    "type": "aggregate", "id": span_id, "name": name,
                    "layer": layer, "parent": parent, "run": run,
                    "count": calls, "total_s": total, "self_s": own,
                    "start": first - origin, "end": last - origin}) + "\n")


def layer_metrics(tracer: Tracer, distance_pairs: float) -> Dict[str, float]:
    """The per-layer metrics only a traced pass can give, by final name.

    ``distance_pairs`` is the pass's pair count from the public
    ``EngineStats`` (the tracer times the distance layer, the engine counts
    its work).  A stage's explained share is the part of its wall covered
    by spans of the layers it calls: 1 - self / busy.
    """
    calls, busy, own = tracer.calls, tracer.busy, tracer.self_time
    counters = tracer.counters
    tokenize_busy = busy("jstoken.tokenize")
    fast_busy = busy("scanner.fast_normalize")
    compile_busy = busy("signatures.compile")
    histogram_busy = busy("winnowing.histogram")
    distance_busy = busy("distance.neighbourhoods", "distance.pairs_within",
                         "distance.within", "distance.distance")
    process_side = tracer.layer_times_under(PROCESS_ROOTS)
    metrics = {
        "jstoken.process_busy_s": process_side["jstoken"][0],
        "scanner.process_self_s": process_side["scanner"][1],
        "jstoken.tokenize_calls": calls("jstoken.tokenize"),
        "jstoken.tokenize_busy_s": tokenize_busy,
        "jstoken.tokenize_mb_per_s": per_second(
            counters["jstoken.bytes"] / 1e6, tokenize_busy),
        "jstoken.tokenize_ktok_per_s": per_second(
            counters["jstoken.tokens"] / 1e3, tokenize_busy),
        "jstoken.abstract_busy_s": busy("jstoken.abstract"),
        "scanner.fast_normalize_calls": calls("scanner.fast_normalize"),
        "scanner.fast_normalize_busy_s": fast_busy,
        "scanner.fast_normalize_mb_per_s": per_second(
            counters["scanner.fast_normalize_bytes"] / 1e6, fast_busy),
        # Every exact normalisation ends in one normalize_tokens call,
        # whether it came through normalize_for_scan or the prepared cache.
        "scanner.exact_normalize_calls": calls("scanner.normalize_tokens"),
        "scanner.exact_normalize_self_s": own("scanner.normalize_for_scan",
                                              "scanner.normalize_tokens"),
        "scanner.scan_calls": calls("scanner.scan"),
        "scanner.scan_busy_s": busy("scanner.scan"),
        "scanner.scan_self_s": own("scanner.scan"),
        "scanner.layer_self_s": tracer.layer_self("scanner"),
        "scanner.memo_hit_ratio": ratio(counters["scanner.memo_hits"],
                                         calls("scanner.scan")),
        "scanner.anchor_probes": calls("scanner.anchor_probe"),
        "scanner.anchor_pass_ratio": ratio(
            counters["scanner.anchor_passes"], calls("scanner.anchor_probe")),
        "scanner.regex_probes": calls("scanner.regex_probe"),
        "scanner.regex_hit_ratio": ratio(
            counters["scanner.regex_hits"], calls("scanner.regex_probe")),
        "scanner.regex_busy_s": busy("scanner.regex_probe"),
        "signatures.compile_calls": calls("signatures.compile"),
        "signatures.compile_busy_s": compile_busy,
        "signatures.compile_self_s": own("signatures.compile"),
        "signatures.cluster_samples": counters["signatures.cluster_samples"],
        "signatures.clusters_per_s": per_second(
            calls("signatures.compile"), compile_busy),
        "signatures.pattern_chars": counters["signatures.pattern_chars"],
        "distance.busy_s": distance_busy,
        "distance.pairs_per_s": per_second(distance_pairs, distance_busy),
        "clustering.run_calls": calls("clustering.run"),
        "clustering.run_busy_s": busy("clustering.run"),
        "clustering.run_self_s": own("clustering.run",
                                     "clustering.cluster_partition",
                                     "clustering.merge_clusters"),
        "clustering.partitions": counters["clustering.partitions"],
        "clustering.carry_match_calls": calls("clustering.carry_match"),
        "clustering.carry_match_busy_s": busy("clustering.carry_match"),
        "clustering.carry_comparisons":
            counters["clustering.carry_comparisons"],
        "labeling.label_calls": calls("labeling.label"),
        "labeling.label_busy_s": busy("labeling.label"),
        "labeling.label_self_s": own("labeling.label"),
        "unpack.unpack_calls": calls("unpack.unpack"),
        "unpack.unpack_busy_s": busy("unpack.unpack"),
        "unpack.layers": counters["unpack.layers"],
        "winnowing.histogram_calls": calls("winnowing.histogram"),
        "winnowing.histogram_busy_s": histogram_busy,
        "winnowing.histogram_mb_per_s": per_second(
            counters["winnowing.bytes"] / 1e6, histogram_busy),
        "exec.seam_self_s": own(*(f"exec.{attr}"
                                  for attr in BACKEND_METHODS)),
        "trace.spans": tracer.span_count,
    }
    for stage in ("shed", "prepare", "cluster", "label", "compile"):
        stage_busy = busy(f"core.{stage}")
        metrics[f"core.{stage}_explained_share"] = \
            ratio(stage_busy - own(f"core.{stage}"), stage_busy)
    return {name: float(value) for name, value in metrics.items()}
