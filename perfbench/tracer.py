"""Span tracer that measures survmix from the outside.

`install` wraps the public functions of every survmix module, and the
`predict_proba` methods of the model classes, so that each call records a
span: name, parent, start and end.  A function is replaced by identity
wherever a survmix module binds it, because `pipeline`, `cli` and `mixture`
import names such as `write_csv`, `fit` and `roc_curve` directly and would
miss a patch made only in the defining module.

Span stacks are thread-local.  A span opened on a thread with an empty stack
(a training-pool worker) takes the innermost open span of the main thread as
its parent, which is the enclosing `run_pipeline` call.  Self time is a
span's duration minus the union of the intervals its children cover, so
nested calls (a bag's member trees inside the bag's `predict_proba`) are not
counted twice and spans on parallel threads are not subtracted from each
other.
"""

import collections
import contextlib
import functools
import itertools
import os
import resource
import sys
import threading
import time


class Tracer:
    """Spans and counts of one traced operation, kept in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main_stack = self._stack()
        self._patches = []
        self.spans = []                       # (id, parent, name, start, end)
        self.counts = collections.Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        enclosing = stack or self._main_stack
        parent = enclosing[-1][0] if enclosing else None
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end))
                self.counts[name + ".calls"] += 1

    def count(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- patching ------------------------------------------------------------

    def wrap(self, func, name, after=None, rss=False):
        """A traced stand-in for `func`.

        `name` is the span name, or a callable (args, kwargs) -> name.
        `after(tracer, span_name, result, args, kwargs)` records counts.
        With `rss`, the growth of the process peak RSS across the call is
        added to the count `<span name>.rss_growth_mb`.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            peak_before = _peak_rss_mb() if rss else 0.0
            with tracer.span(span_name):
                result = func(*args, **kwargs)
            if rss:
                tracer.count(span_name + ".rss_growth_mb",
                             _peak_rss_mb() - peak_before)
            if after is not None:
                after(tracer, span_name, result, args, kwargs)
            return result

        return traced

    def replace_everywhere(self, original, replacement) -> int:
        """Rebind `original` to `replacement` in every loaded survmix module."""
        hits = 0
        for module in list(sys.modules.values()):
            if module is None or not (module.__name__ == "survmix"
                                      or module.__name__.startswith("survmix.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
                    hits += 1
        return hits

    def replace_attribute(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict:
        """Inclusive seconds per span name, summed over calls."""
        out = collections.defaultdict(float)
        for _, _, name, start, end in self.spans:
            out[name] += end - start
        return dict(out)

    def self_seconds(self) -> dict:
        """Self seconds per layer (the span name up to its first dot)."""
        children = collections.defaultdict(list)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = collections.defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            out[name.split(".", 1)[0]] += (end - start) - covered
        return dict(out)


def _union_length(intervals, lo, hi) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the survmix layers ----------------------------------------------------------

def _count_rows(key, of_result=False):
    def after(tracer, span_name, result, args, kwargs):
        data = result if of_result else (args[0] if args else kwargs["data"])
        tracer.count(key, data.n_rows)
    return after


def _count_bytes(tracer, span_name, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    if os.path.basename(path) == "report.json":
        return  # its stage timings vary in length, and the count must repeat
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.count("fileio.bytes_written", len(text.encode("utf-8")))


def _count_grid(tracer, span_name, result, args, kwargs):
    tracer.count("mixture.grid_points", len(result[1]))


def _count_newton(tracer, span_name, result, args, kwargs):
    tracer.count("cox.newton_iterations", result.iterations)


def _fit_name(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return "classifiers.fit." + spec.algorithm


def install(tracer: Tracer) -> None:
    """Wrap every public survmix entry point that the benchmark attributes."""
    from survmix import (classifiers, cleansing, cox, dataset, evaluation,
                         fileio, mixture, pipeline, resampling, survival, svg)
    from survmix import cli  # noqa: F401  (loaded so its bindings get patched)
    from survmix.classifiers import (bagging, logistic, naive_bayes, neural,
                                     trees)

    functions = [
        (pipeline.run_pipeline, "pipeline.run_pipeline", None, False),
        (classifiers.fit, _fit_name, None, False),
        (classifiers.save_model, "classifiers.save_model", None, False),
        (classifiers.load_model, "classifiers.load_model", None, False),
        (dataset.write_csv, "dataset.write_csv",
         _count_rows("dataset.write_csv.rows"), False),
        (dataset.load_csv, "dataset.load_csv",
         _count_rows("dataset.load_csv.rows", of_result=True), False),
        (fileio.atomic_write_text, "fileio.atomic_write_text", _count_bytes, False),
        (cleansing.clean, "cleansing.clean", None, False),
        (resampling.split, "resampling.split", None, False),
        (resampling.smote, "resampling.smote", None, True),
        (evaluation.roc_curve, "evaluation.roc_curve", None, False),
        (evaluation.separation_score, "evaluation.separation_score", None, False),
        (mixture.optimize_weight, "mixture.optimize_weight", _count_grid, False),
        (survival.km_fit, "survival.km_fit", None, False),
        (survival.logrank_test, "survival.logrank_test", None, False),
        (cox.build_design, "cox.build_design", None, False),
        (cox.cox_fit, "cox.cox_fit", _count_newton, False),
        (cox.cox_tests, "cox.cox_tests", None, False),
        (cox.detect_separation, "cox.detect_separation", None, False),
        (svg.render_svg, "svg.render_svg", None, False),
    ]
    for func, name, after, rss in functions:
        if tracer.replace_everywhere(func, tracer.wrap(func, name, after, rss)) == 0:
            raise RuntimeError(f"{func.__module__}.{func.__name__} is bound nowhere")

    # MixtureModel calls the models' methods directly, bypassing the
    # classifiers.predict_proba facade, so the methods themselves are wrapped.
    algorithm_of = classifiers.algorithm_of

    def predict_name(args, kwargs):
        enclosing = tracer.current()
        if enclosing is not None and enclosing.startswith("classifiers.predict_proba."):
            return enclosing + ".member"
        return "classifiers.predict_proba." + algorithm_of(args[0])

    def count_predict_rows(tracer_, span_name, result, args, kwargs):
        if not span_name.endswith(".member"):
            tracer_.count("classifiers.predict_proba.rows", len(result))

    for cls in (trees.DecisionTreeModel, bagging.BaggingModel, logistic.LogitModel,
                naive_bayes.NaiveBayesModel, neural.AnnModel):
        tracer.replace_attribute(cls, "predict_proba", tracer.wrap(
            cls.predict_proba, predict_name, count_predict_rows))
