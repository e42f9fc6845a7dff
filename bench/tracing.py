"""Spans around spexp's public functions, and the per-layer metrics built
from them.

Modules bind the names they import, so a function is wrapped at every module
attribute its callers resolve (``spexp.cli.cut_oracle_l1`` and
``spexp.graphs.cut_oracle_l1`` are different bindings). Each call records a
span ``[name, start, end, parent, job, info]`` in memory; the wrappers are
removed after the traced passes, so untraced passes run the program as is.
"""

from __future__ import annotations

import json
import threading
import time
from math import comb

# Counts that must repeat exactly between two traced passes of one job list.
EXACT = (
    "graphs.subsets",
    "search.objgrad_calls",
    "search.iterations",
    "search.retractions",
    "search.samples_used",
    "channels.ratio_sp_calls",
    "channels.ratio_dim_calls",
    "channels.spectra_calls",
    "linalg.haar_calls",
    "verify.spectra_per_instance",
    "embed.ratio_calls",
    "embed.iterations",
    "embed.starts",
    "serialize.bytes_out",
    "cli.calls",
)


def _graph_n(args, kwargs, result):
    return args[0].n


def _samples(args, kwargs, result):
    return result.samples_used


def _iterations(args, kwargs, result):
    return result.iterations


def _embed_counts(args, kwargs, result):
    return (result.iterations, result.starts)


def _instances(args, kwargs, result):
    return args[0].instances


def _bytes(args, kwargs, result):
    return len(result.encode())


def trace_points(spexp):
    """(module, attribute, span name, info) for every wrapped binding."""
    cli, search, channels = spexp.cli, spexp.search, spexp.channels
    verify, embed = spexp.verify, spexp.embed
    points = [
        (cli, "main", "cli.main", None),
        (cli, "edge_expansion_bruteforce", "graphs.bruteforce", _graph_n),
        (cli, "cut_oracle_l1", "graphs.cut_oracle", _graph_n),
        (cli, "shortest_path_metric", "graphs.metric", None),
        (cli, "metric_ratio", "graphs.metric", None),
        (embed, "shortest_path_metric", "graphs.metric", None),
        (embed, "metric_ratio", "graphs.metric", None),
        (cli, "minimize_coordinate", "search.coordinate", _samples),
        (cli, "minimize_random", "search.random", _samples),
        (cli, "minimize_riemannian", "search.riemannian", _iterations),
        (search, "objective_and_gradient", "search.objgrad", None),
        (search, "orthonormalize", "linalg.orthonormalize", None),
        (search, "haar_isometry", "linalg.haar", None),
        (verify, "haar_isometry", "linalg.haar", None),
        (verify, "haar_unitary", "linalg.haar", None),
        (channels, "haar_unitary", "linalg.haar", None),
        (search, "expansion_ratio_sp", "channels.ratio_sp", None),
        (verify, "expansion_ratio_sp", "channels.ratio_sp", None),
        (verify, "expansion_ratio_dim", "channels.ratio_dim", None),
        (channels, "restriction_singular_values", "channels.spectra", None),
        (verify, "restriction_singular_values", "channels.spectra", None),
        (cli, "sweep", "verify.sweep", _instances),
        (cli, "lp_expansion_estimate", "embed.lp", _embed_counts),
        (embed, "lp_expansion_estimate", "embed.lp", _embed_counts),
        (cli, "sp_expansion_estimate", "embed.sp", _embed_counts),
        (cli, "l2_expansion_oracle", "embed.oracle", None),
        (embed, "embedding_ratio", "embed.ratio", None),
        (cli, "dumps_canonical", "serialize.dump", _bytes),
    ]
    for name in ("check_ratio_scaling", "check_ratio_power", "check_singular_bound",
                 "check_rank_relation"):
        points.append((verify, name, "verify.check", None))
    for name in ("graph_from_json", "tuple_from_json", "permutations_from_json"):
        points.append((cli, name, "serialize.load", None))
    for name in ("estimate_to_json", "embedding_to_json", "graph_to_json", "tuple_to_json",
                 "permutations_to_json"):
        points.append((cli, name, "serialize.dump", None))
    return points


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self, points):
        self.points = points
        self.spans = []
        self.job = None
        self._local = threading.local()
        self._saved = []

    def _wrap(self, fn, name, info):
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), None, stack[-1] if stack else None, self.job, None]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module, attr, name, info in self.points:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, info))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


SPAN_FIELDS = ("pass", "name", "start", "end", "parent", "job", "info")


def write_spans(path, passes) -> None:
    """A header line naming SPAN_FIELDS, then one JSON array per span;
    ``parent`` is the parent span's row index (0 is the first span)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(SPAN_FIELDS) + "\n")
        ids = {}
        for label, spans in passes:
            for span in spans:
                name, start, end, parent, job, info = span
                ids[id(span)] = len(ids)
                parent_row = ids[id(parent)] if parent is not None else None
                fh.write(json.dumps([label, name, start, end, parent_row, job, info]) + "\n")


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and times of one traced pass.

    ``*_s`` metrics are inclusive times of the outermost spans of a layer
    unless named self time; self time subtracts the time direct child spans
    cover.
    """
    by_name = {}
    child_time = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
        parent = span[3]
        if parent is not None:
            child_time[id(parent)] = child_time.get(id(parent), 0.0) + span[2] - span[1]

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def count(*names):
        return len(named(*names))

    def total(*names):
        # outermost spans only, so a layer nested in itself is not counted twice
        out = 0.0
        for s in named(*names):
            parent = s[3]
            while parent is not None and parent[0] not in names:
                parent = parent[3]
            if parent is None:
                out += s[2] - s[1]
        return out

    def self_time(*names):
        return sum(s[2] - s[1] - child_time.get(id(s), 0.0) for s in named(*names))

    def info_sum(name, pick=lambda x: x):
        return sum(pick(s[5]) for s in by_name.get(name, []) if s[5] is not None)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["graphs.bruteforce_s"] = total("graphs.bruteforce")
    m["graphs.cut_oracle_s"] = total("graphs.cut_oracle")
    m["graphs.metric_s"] = total("graphs.metric")
    subsets = sum(
        sum(comb(s[5], k) for k in range(1, s[5] // 2 + 1))
        for s in named("graphs.bruteforce", "graphs.cut_oracle")
    )
    m["graphs.subsets"] = subsets
    m["graphs.subsets_per_s"] = ratio(subsets, m["graphs.bruteforce_s"] + m["graphs.cut_oracle_s"])

    m["search.coordinate_s"] = total("search.coordinate")
    m["search.riemannian_s"] = total("search.riemannian")
    m["search.random_s"] = total("search.random")
    m["search.objgrad_calls"] = count("search.objgrad")
    m["search.objgrad_s"] = total("search.objgrad")
    m["search.iterations"] = info_sum("search.riemannian")
    m["search.retractions"] = count("linalg.orthonormalize")
    m["search.accept_ratio"] = ratio(m["search.iterations"], m["search.retractions"])
    m["search.samples_used"] = info_sum("search.coordinate") + info_sum("search.random")

    m["channels.ratio_sp_calls"] = count("channels.ratio_sp")
    m["channels.ratio_sp_s"] = total("channels.ratio_sp")
    m["channels.ratio_dim_calls"] = count("channels.ratio_dim")
    m["channels.spectra_calls"] = count("channels.spectra")
    m["channels.spectra_s"] = total("channels.spectra")

    m["linalg.haar_calls"] = count("linalg.haar")
    m["linalg.haar_s"] = total("linalg.haar")
    m["linalg.orthonormalize_s"] = total("linalg.orthonormalize")

    instances = info_sum("verify.sweep")
    m["verify.check_s"] = self_time("verify.check")
    m["verify.spectra_per_instance"] = ratio(m["channels.spectra_calls"], instances)
    m["verify.instances_per_s"] = ratio(instances, total("verify.sweep"))

    lp_in_sp = sum(
        s[2] - s[1] for s in by_name.get("embed.lp", []) if s[3] is not None and s[3][0] == "embed.sp"
    )
    m["embed.lp_s"] = total("embed.lp")
    m["embed.sp_s"] = total("embed.sp") - lp_in_sp
    m["embed.oracle_s"] = total("embed.oracle")
    m["embed.ratio_calls"] = count("embed.ratio")
    m["embed.ratio_s"] = total("embed.ratio")
    m["embed.iterations"] = info_sum("embed.lp", lambda x: x[0]) + info_sum("embed.sp", lambda x: x[0])
    m["embed.starts"] = info_sum("embed.lp", lambda x: x[1]) + info_sum("embed.sp", lambda x: x[1])

    m["serialize.load_s"] = total("serialize.load")
    m["serialize.dump_s"] = total("serialize.dump")
    m["serialize.bytes_out"] = info_sum("serialize.dump")

    m["cli.calls"] = count("cli.main")
    m["cli.self_s"] = self_time("cli.main")
    return m
