"""The traced benchmark run wraps coverml's layer entry points by name
(bench/tracer.py). A renamed or deleted entry point must fail here, not only
in the traced benchmark run."""

import importlib.util
from pathlib import Path

import coverml.kernels as kernels
from coverml.table import DataTable

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumented_wraps_and_restores_every_hook():
    tracer = load_tracer()
    gini, sse = kernels.best_split_gini, kernels.best_split_sse
    table_init = DataTable.__dict__["__init__"]
    t = tracer.Tracer()
    with tracer.instrumented(t):
        assert kernels.best_split_gini is not gini
        assert DataTable.__dict__["__init__"] is not table_init
        patched = len(t._patched)
    assert patched > 0 and not t._patched
    assert kernels.best_split_gini is gini and kernels.best_split_sse is sse
    assert DataTable.__dict__["__init__"] is table_init
