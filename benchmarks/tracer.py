"""Run one icpseq CLI call in-process, with a span around each layer.

Usage::

    python3 benchmarks/tracer.py SPANS_FILE ARG...

``ARG...`` is the argv of ``icpseq`` (for example ``search --input a.csv``).
The public functions of each ``icpseq`` module are wrapped from outside
the package; stdout is exactly what the untraced CLI prints.  Spans are
kept in memory and written to ``SPANS_FILE`` as JSON lines when the call
ends.  Each span records its layer, parent span, start and end
(nanoseconds), self time (duration minus the spans nested directly in
it) and the layer's counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

BLOCK_FAMILIES = ("t1", "t2", "t3", "t4", "t5")
FITTED_FAMILIES = ("t1", "t2", "t3")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[list[int]] = []  # [span id, time spent in children]

    def wrap(self, fn, layer, counts=None):
        """Wrap ``fn``; ``layer`` and ``counts`` map (args, result) to names and counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            done, result = False, None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "layer": layer(args) if callable(layer) else layer,
                        "start_ns": start,
                        "end_ns": end,
                        "self_ns": end - start - frame[1],
                        "counts": counts(args, result) if counts and done else {},
                    }
                )

        return wrapper


def _evaluate_layer(args) -> str:
    block = args[0].spec.family in BLOCK_FAMILIES
    return "statistics.eval_block_s" if block else "statistics.eval_path_s"


def _evaluate_counts(args, _result) -> dict:
    if args[0].spec.family not in BLOCK_FAMILIES:
        return {}
    return {"statistics.eval_columns": int(args[1].shape[1])}


def _build_counts(args, _result) -> dict:
    spec = args[1]
    fits = len(spec.comparison.regions) if spec.family in FITTED_FAMILIES else 0
    return {"statistics.builds": 1, "statistics.region_fits": fits}


#: (module, function, layer time metric, counters) for every wrapped function.
FUNCTIONS = [
    ("icpseq.rng", "normal_matrix", "rng.draw_s", lambda a, r: {"rng.normals": int(r.size)}),
    ("icpseq.rng", "normal_window", "rng.draw_s", lambda a, r: {"rng.normals": int(r.size)}),
    ("icpseq.regression", "build_lagged_design", "regression.design_s",
     lambda a, r: {"regression.designs": 1}),
    ("icpseq.regression", "scaled_residuals", "regression.residuals_s", None),
    ("icpseq.environments", "default_comparison", "environments.comparison_s", None),
    ("icpseq.environments", "comparison_set", "environments.comparison_s",
     lambda a, r: {"environments.regions": len(r.regions),
                   "environments.pairs": len(r.pair_indices)}),
    ("icpseq.resampling", "null_residual_matrix", "resampling.project_s", None),
    ("icpseq.resampling", "test_invariance", "resampling.test_s",
     lambda a, r: {"resampling.tests": 1}),
    ("icpseq.resampling", "decoupled_test", "resampling.test_s",
     lambda a, r: {"resampling.tests": 2}),
    ("icpseq.search", "search", "search.self_s",
     lambda a, r: {"search.subsets": r.subsets_tested}),
    ("icpseq.search", "prune_enabled_search", "search.self_s",
     lambda a, r: {"search.subsets": r.subsets_tested}),
    ("icpseq.search", "lag_scan", "search.self_s", None),
    ("icpseq.experiments", "run_experiment", "experiments.self_s", None),
    ("icpseq.io", "load_csv", "io.load_csv_s", None),
    ("icpseq.io", "json_dumps", "io.json_dumps_s", None),
]

#: (module, class, method, layer time metric, counters) for wrapped methods.
METHODS = [
    ("icpseq.statistics", "StatisticEvaluator", "__init__", "statistics.build_s", _build_counts),
    ("icpseq.statistics", "StatisticEvaluator", "evaluate", _evaluate_layer, _evaluate_counts),
    ("icpseq.regression", "DesignMatrix", "orthonormal_basis", "regression.basis_s", None),
]


def install(tracer: Tracer):
    """Wrap every listed function in every icpseq namespace; return the wrapped main.

    Modules are reached through ``importlib`` because the package
    rebinds some submodule names (``icpseq.search``) to functions, and
    names imported with ``from .x import f`` are replaced wherever they
    are bound, matched by identity.
    """
    cli = importlib.import_module("icpseq.cli")
    generators = importlib.import_module("icpseq.generators")
    functions = list(FUNCTIONS) + [
        ("icpseq.generators", name, "generators.s", lambda a, r: {"generators.datasets": 1})
        for name in sorted(vars(generators))
        if name.startswith("gen_") and callable(getattr(generators, name))
    ]
    namespaces = [
        module for name, module in sorted(sys.modules.items())
        if name == "icpseq" or name.startswith("icpseq.")
    ]
    for module_name, attr, layer, counts in functions:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = tracer.wrap(original, layer, counts)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
    for module_name, class_name, attr, layer, counts in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), layer, counts))
    return tracer.wrap(cli.main, "cli.self_s")


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
