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


def test_commands_are_looked_up_when_called(tmp_path, monkeypatch, capsys):
    """The parser is built once per process, and a command wrapped after the
    first `main` call still runs through its wrapper."""
    import coverml.cli as cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert cli.main(["synth", "--rows", "200", "--out", str(tmp_path / "raw.tbl"),
                         "--csv-out", str(tmp_path / "raw.csv"), "--schema-out", str(tmp_path / "schema.json")]) == 0
        tracer = load_tracer()
        t = tracer.Tracer()
        with tracer.instrumented(t):
            assert cli.main(["ingest", "--input", str(tmp_path / "raw.csv"), "--schema", str(tmp_path / "schema.json"),
                             "--derive-label", "--out", str(tmp_path / "data.tbl")]) == 0
        assert t.phase.spans["cli.ingest"][0] == 1
        assert t.phase.spans["table.read_csv"][0] == 1
        assert cli.main(["sample", "--data", str(tmp_path / "data.tbl"), "--fraction", "0.5",
                         "--out", str(tmp_path / "half.tbl")]) == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_repeated_calls_leave_no_reference_cycles(tmp_path, capsys):
    """Later `main` calls reuse the parser, so they leave nothing for the
    cyclic garbage collector."""
    import gc

    import coverml.cli as cli

    assert cli.main(["synth", "--rows", "100", "--out", str(tmp_path / "a.tbl")]) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert cli.main(["sample", "--data", str(tmp_path / "a.tbl"), "--fraction", "0.5",
                             "--out", str(tmp_path / "b.tbl")]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
