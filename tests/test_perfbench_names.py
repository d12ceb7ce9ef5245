"""The benchmark (``perfbench/spans.py``) times layers by wrapping program
functions at the names their callers look up. A renamed or deleted name
breaks every traced benchmark pass; these tests make it fail the test suite,
as does a wrapped name that is no longer called, or no longer once per unit
of its work.
"""

from collections import Counter
from pathlib import Path

import pytest

from conftest import tiny_config
from eshopsim import cli, controller


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans

    return spans


def test_benchmark_wraps_resolve_and_restore(spans):
    originals = (cli.simulate_eshop, cli.oracle_countdown, controller.model_forward)
    tracer = spans.Tracer()
    try:
        tracer.__enter__()  # AttributeError or KeyError on a missing name
        assert cli.simulate_eshop is not originals[0]
    finally:
        tracer.__exit__(None, None, None)  # also undoes a partial install
    assert (cli.simulate_eshop, cli.oracle_countdown, controller.model_forward) == originals


def test_traced_pipeline_records_each_layer_per_unit_of_work(spans, tmp_path):
    # positions are one trace per UE; every stepped report is one report object
    cfg = tiny_config(tmp_path / "run")
    tracer = spans.Tracer()
    wrapped = []  # the span name of each wrapper the tracer installs
    install = tracer._wrap

    def wrap(owner, attr, name, *args, **kwargs):
        wrapped.append(name)
        install(owner, attr, name, *args, **kwargs)

    tracer._wrap = wrap
    with tracer:
        cli.cmd_simulate(cfg)
        cli.cmd_build_dataset(cfg, quiet=True)
        cli.cmd_train(cfg)
        cli.cmd_eval(cfg)
        cli.cmd_eshop(cfg)
        cli.cmd_eshop(cfg, oracle=True)
    names = Counter(span[0] for span in tracer.spans)
    n_ues = cfg.scenario.num_ues
    assert names["simulate.run_ue"] == names["scenario.position_at"] == n_ues
    assert names["channel.sample"] == names["channel.l3_update"] == n_ues
    steps = names["events.step"]
    assert names["channel.make_report"] == steps == tracer.counts["events.step_calls"] > 0
    # every UE has a trace; each eshop run replays it once per countdown
    # (the model's or the oracle's, and the entry rule's)
    assert tracer.counts["controller.simulate_eshop_calls"] == 2 * 2 * n_ues
    # one parse of the report log per command from build-dataset on
    assert tracer.counts["simulate.read_report_log_calls"] == 5
    # Every wrapped name is called, so no per-layer metric reads 0 for want of
    # a caller. forward_batch is recorded as tcn.train.forward under tcn.train,
    # and cmd_eshop(oracle=True) as cli.eshop_oracle. No pipeline path calls
    # the one-window controller.model_forward: its span stays at 0.
    expected = (set(wrapped) - {"tcn.forward_batch", "tcn.model_forward"}) | {
        "tcn.train.forward", "cli.eshop_oracle"
    }
    assert set(names) == expected
    assert names["tcn.model_forward"] == 0 and tracer.counts["tcn.model_forward_calls"] == 0
