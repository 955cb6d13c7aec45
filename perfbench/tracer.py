"""Span tracing of threshmatch from outside the package.

:class:`Tracer` wraps the package's public functions (and the pipeline-run
boundary ``att._estimate_with_roles``) by patching every name under which a
caller looks them up, records one span per call with a link to its parent
span, and keeps the spans in memory until the run writes them out.  Nothing
inside ``src/`` changes, and the wrappers only observe: arguments and return
values pass through untouched, so traced outputs stay bit-identical.

Counters are derived from call arguments, never from return values, so a
change to a result type cannot silently zero them.  A wrap point that no
longer exists is reported by name in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _ols_counts(args, kwargs):
    m, p = _arg(args, kwargs, 0, "a").shape
    return {"rows": m, "flops": 2 * m * p * p}


def _match_counts(args, kwargs):
    return {"pairs": len(_arg(args, kwargs, 0, "eta_treated"))}


def _basis_counts(args, kwargs):
    import numpy as np  # not at module level: the CLI launcher times numpy's import

    m, d = np.atleast_2d(_arg(args, kwargs, 0, "covariates")).shape
    return {"cells": m * _arg(args, kwargs, 1, "spec").dimension(d)}


def _load_csv_counts(args, kwargs):
    # cells parsed = data rows x requested columns (shared x/z columns count twice,
    # as the reader parses them twice); rows are counted from the file itself
    spec = _arg(args, kwargs, 1, "spec")
    with open(_arg(args, kwargs, 0, "path"), "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return {"cells": (lines - 1) * (2 + len(spec.x_cols) + len(spec.z_cols))}


@dataclass(frozen=True)
class Target:
    """One wrap point: span name, defining module, attribute, argument counter."""

    name: str
    module: str
    attr: str
    count: object = None
    count_after: bool = False  # run the counter after the span ends (it does I/O)


TARGETS = [
    Target("cli.main", "threshmatch.cli", "main"),
    Target("data_model.load_csv", "threshmatch.data_model", "load_csv", _load_csv_counts, True),
    Target("data_model.write_csv", "threshmatch.data_model", "write_csv"),
    Target("data_model.take", "threshmatch.data_model", "ObservationSet.take"),
    Target("data_model.split_three_way", "threshmatch.data_model", "split_three_way"),
    Target("linreg.ols", "threshmatch.linreg", "ols", _ols_counts),
    Target("residualize.fit_gamma", "threshmatch.residualize", "fit_gamma"),
    Target("residualize.residuals_eta", "threshmatch.residualize", "residuals_eta"),
    Target("diff_beta.fit_beta", "threshmatch.diff_beta", "fit_beta"),
    Target("diff_beta.order_by_eta", "threshmatch.diff_beta", "order_by_eta"),
    Target("diff_beta.first_differences", "threshmatch.diff_beta", "first_differences"),
    Target("matching.match_controls", "threshmatch.matching", "match_controls", _match_counts),
    Target("att.estimate_att", "threshmatch.att", "estimate_att"),
    Target("att.estimate_att_crossfit", "threshmatch.att", "estimate_att_crossfit"),
    Target("att.crossfit_on_splits", "threshmatch.att", "crossfit_on_splits"),
    # one pipeline run: split roles -> gamma -> eta -> beta -> matching -> diffs
    Target("att.estimate", "threshmatch.att", "_estimate_with_roles"),
    Target("att.matched_differences", "threshmatch.att", "matched_differences"),
    Target("bootstrap.bootstrap_att", "threshmatch.bootstrap", "bootstrap_att"),
    Target("bootstrap.bootstrap_replicate", "threshmatch.bootstrap", "bootstrap_replicate"),
    Target("rng.derive_seed", "threshmatch.rng", "derive_seed"),
    Target("rng.rng_from", "threshmatch.rng", "rng_from"),
    Target("ite.fit_ite", "threshmatch.ite", "fit_ite"),
    Target("ite.build_basis", "threshmatch.ite", "build_basis", _basis_counts),
    Target("ite.predict_ite_batch", "threshmatch.ite", "predict_ite_batch"),
    Target("ite.ite_mse", "threshmatch.ite", "ite_mse"),
    Target("simulate.generate", "threshmatch.simulate", "generate"),
    Target("simulate.monte_carlo_ite", "threshmatch.simulate", "monte_carlo_ite"),
]


def _field(totals, name):
    seconds = totals.ns / 1e9
    if name == "s":
        return seconds
    if name == "self_s":
        return totals.self_ns / 1e9
    if name == "calls":
        return totals.calls
    if name == "failed_ratio":
        return totals.failed / totals.calls if totals.calls else 0.0
    if name == "cells_per_s":
        return totals.counts["cells"] / seconds if seconds else 0.0
    if name == "ns_per_pair":
        pairs = totals.counts["pairs"]
        return totals.ns / pairs if pairs else 0.0
    return totals.counts[name]


# (metric, span name, field, unit, better).  Each value is the median over
# traced jobs of the per-job total; a span seen only in set-up reports its
# set-up total.  The run adds trace.overhead_ratio from job wall times.
LAYER_METRICS = [
    ("cli.import_s", "cli.import", "s", "s", "lower"),
    ("cli.main.self_s", "cli.main", "self_s", "s", "lower"),
    ("data_model.load_csv.s", "data_model.load_csv", "s", "s", "lower"),
    ("data_model.load_csv.cells_per_s", "data_model.load_csv", "cells_per_s", "1/s", "higher"),
    ("data_model.write_csv.s", "data_model.write_csv", "s", "s", "lower"),
    ("data_model.take.s", "data_model.take", "s", "s", "lower"),
    ("data_model.take.calls", "data_model.take", "calls", "count", "lower"),
    ("data_model.split_three_way.s", "data_model.split_three_way", "s", "s", "lower"),
    ("bootstrap.bootstrap_replicate.s", "bootstrap.bootstrap_replicate", "s", "s", "lower"),
    ("bootstrap.bootstrap_replicate.self_s", "bootstrap.bootstrap_replicate", "self_s", "s", "lower"),
    ("bootstrap.failed_ratio", "bootstrap.bootstrap_replicate", "failed_ratio", "ratio", "lower"),
    ("rng.derive_seed.s", "rng.derive_seed", "s", "s", "lower"),
    ("rng.derive_seed.calls", "rng.derive_seed", "calls", "count", "lower"),
    ("rng.rng_from.s", "rng.rng_from", "s", "s", "lower"),
    ("rng.rng_from.calls", "rng.rng_from", "calls", "count", "lower"),
    ("matching.match_controls.s", "matching.match_controls", "s", "s", "lower"),
    ("matching.match_controls.pairs", "matching.match_controls", "pairs", "count", "lower"),
    ("matching.match_controls.ns_per_pair", "matching.match_controls", "ns_per_pair", "ns", "lower"),
    ("residualize.fit_gamma.s", "residualize.fit_gamma", "s", "s", "lower"),
    ("residualize.residuals_eta.s", "residualize.residuals_eta", "s", "s", "lower"),
    ("residualize.residuals_eta.calls", "residualize.residuals_eta", "calls", "count", "lower"),
    ("diff_beta.fit_beta.self_s", "diff_beta.fit_beta", "self_s", "s", "lower"),
    ("diff_beta.order_by_eta.s", "diff_beta.order_by_eta", "s", "s", "lower"),
    ("diff_beta.first_differences.s", "diff_beta.first_differences", "s", "s", "lower"),
    ("linreg.ols.s", "linreg.ols", "s", "s", "lower"),
    ("linreg.ols.calls", "linreg.ols", "calls", "count", "lower"),
    ("linreg.ols.rows", "linreg.ols", "rows", "count", "lower"),
    ("linreg.ols.flops_computed", "linreg.ols", "flops", "flop", "lower"),
    ("att.matched_differences.s", "att.matched_differences", "s", "s", "lower"),
    ("att.estimate.self_s", "att.estimate", "self_s", "s", "lower"),
    ("att.pipeline_runs", "att.estimate", "calls", "count", "lower"),
    ("ite.fit_ite.self_s", "ite.fit_ite", "self_s", "s", "lower"),
    ("ite.build_basis.s", "ite.build_basis", "s", "s", "lower"),
    ("ite.build_basis.calls", "ite.build_basis", "calls", "count", "lower"),
    ("ite.build_basis.cells", "ite.build_basis", "cells", "count", "lower"),
    ("ite.predict_ite_batch.s", "ite.predict_ite_batch", "s", "s", "lower"),
    ("ite.ite_mse.s", "ite.ite_mse", "s", "s", "lower"),
    ("simulate.generate.s", "simulate.generate", "s", "s", "lower"),
]


class Span:
    __slots__ = ("id", "parent", "name", "job", "start", "end", "counts", "failed")

    def __init__(self, id, parent, name, job, start=0, end=0, counts=None, failed=False):
        self.id = id
        self.parent = parent
        self.name = name
        self.job = job
        self.start = start
        self.end = end
        self.counts = counts
        self.failed = failed

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


@dataclass
class _Totals:
    ns: int = 0
    self_ns: int = 0
    calls: int = 0
    failed: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    ``job`` labels every span recorded while it is set; spans recorded with
    ``job = None`` belong to set-up.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a span timed by the caller (for work that cannot be wrapped)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(len(self.spans), parent, name, self.job, start_ns, end_ns))

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack
        count, count_after = target.count, target.count_after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, target.name, self.job)
            if count is not None and not count_after:
                span.counts = count(args, kwargs)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if count_after:
                    span.counts = count(args, kwargs)

        return traced

    def install(self) -> None:
        """Patch every wrap point; call :meth:`restore` to undo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "threshmatch" or key.startswith("threshmatch."))
        ]
        for target in TARGETS:
            owner_name, _, attr = target.attr.rpartition(".")
            owner = sys.modules.get(target.module)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(target.name)
                continue
            wrapped = self._wrap(target, fn)
            if owner_name:
                # a method: every caller looks it up on the class
                self._patch(owner, attr, wrapped)
                continue
            # a function: patch each module namespace that imported it by name
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    def merge(self, path, job) -> None:
        """Append the spans another process dumped to ``path``, relabelled as ``job``."""
        offset = len(self.spans)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                raw = json.loads(line)
                parent = raw["parent"]
                self.spans.append(
                    Span(
                        raw["id"] + offset,
                        None if parent is None else parent + offset,
                        raw["name"],
                        job,
                        raw["start"],
                        raw["end"],
                        raw["counts"],
                        raw["failed"],
                    )
                )

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """Per-layer metrics from the recorded spans, plus the names never called.

        Metrics whose span is a missing wrap point are left out; the caller
        reports :attr:`missing` by name instead.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end - span.start
        per_job: dict = defaultdict(lambda: defaultdict(_Totals))
        for span in self.spans:
            totals = per_job[span.job][span.name]
            duration = span.end - span.start
            totals.ns += duration
            totals.self_ns += duration - child_ns[span.id]
            totals.calls += 1
            totals.failed += bool(span.failed)
            for key, value in (span.counts or {}).items():
                totals.counts[key] += value

        jobs = [job for job in per_job if job is not None]
        metrics, not_called = {}, []
        for metric, span_name, field_name, unit, _ in LAYER_METRICS:
            if span_name in self.missing:
                continue
            if any(span_name in per_job[job] for job in jobs):
                value = statistics.median(
                    _field(per_job[job][span_name], field_name) for job in jobs
                )
            elif span_name in per_job[None]:
                value = _field(per_job[None][span_name], field_name)
            else:
                value = 0
                not_called.append(metric)
            metrics[metric] = {"value": value, "unit": unit}
        return metrics, not_called
