"""The benchmark (``perfbench/spans.py``) times layers by wrapping program
functions at the names their callers look up. A renamed or deleted name
breaks every traced benchmark pass; this test makes it fail the test suite.
"""

from pathlib import Path

from eshopsim import cli, controller


def test_benchmark_wraps_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans

    originals = (cli.simulate_eshop, cli.oracle_countdown, controller.model_forward)
    tracer = spans.Tracer()
    try:
        tracer.__enter__()  # AttributeError or KeyError on a missing name
        assert cli.simulate_eshop is not originals[0]
    finally:
        tracer.__exit__(None, None, None)  # also undoes a partial install
    assert (cli.simulate_eshop, cli.oracle_countdown, controller.model_forward) == originals
