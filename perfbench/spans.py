"""Layer spans recorded from outside the program.

Each public function of interest is replaced, for the duration of a traced
pass, by a wrapper installed at the name its caller looks up: ``cli`` binds
most layer functions through ``from ... import``, so ``cli.read_report_log``
is wrapped rather than ``simulate.read_report_log``. A span is a
``[name, start, end, parent]`` record kept in memory; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from eshopsim import channel, cli, controller, dataset, events, simulate, tcn

# Stage root spans "cli.<stage>"; the benchmark calls ``cli.cmd_<stage>``.
# eshop_oracle is ``cmd_eshop(oracle=True)``, replayed once as a check.
STAGES = ("simulate", "build_dataset", "train", "eval", "eshop", "eshop_oracle")

# forward_batch under these spans is part of that layer's work (one
# inference layer), not a span of its own; under tcn.train it is the
# training forward pass.
_FOLD_FORWARD_INTO = ("tcn.predict", "tcn.model_forward")


def _forward_batch_name(parent: str, _kwargs) -> str | None:
    if parent in _FOLD_FORWARD_INTO:
        return None
    return "tcn.train.forward" if parent == "tcn.train" else "tcn.forward_batch"


# Metric name for a span's self time where it differs from "<span>_s".
_SELF_METRIC = {
    "tcn.train": "tcn.train.self_s",
    "simulate.run_ue": "simulate.run_ue_self_s",
    **{f"cli.{stage}": f"cli.{stage}.self_s" for stage in STAGES},
}


def self_metric(span_name: str) -> str:
    return _SELF_METRIC.get(span_name, span_name + "_s")


class Tracer:
    """Installs the span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, count=None, rename=None):
        """Wrap ``owner.attr`` in a span called ``name``.

        ``count`` is ``(counter, fn(args))`` added up per call. ``rename``,
        given the parent span's name and the keyword arguments, returns the
        span name to use, or None to record no span.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count[0]] += count[1](args)
            span_name = name
            if rename is not None:
                span_name = rename(spans[stack[-1]][0] if stack else "", kwargs)
                if span_name is None:
                    return orig(*args, **kwargs)
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def __enter__(self) -> "Tracer":
        w = self._wrap
        calls = lambda args: 1  # noqa: E731
        for stage in STAGES[:4]:
            w(cli, f"cmd_{stage}", f"cli.{stage}")
        w(cli, "cmd_eshop", "cli.eshop",
          rename=lambda _p, kw: "cli.eshop_oracle" if kw.get("oracle") else "cli.eshop")
        # simulate stage
        w(simulate, "run_ue", "simulate.run_ue")
        w(simulate, "position_at", "scenario.position_at")
        w(channel.ChannelState, "sample", "channel.sample", ("channel.sample_calls", calls))
        w(channel.L3FilterState, "update", "channel.l3_update")
        w(simulate, "make_report", "channel.make_report")
        w(events.A3EventEngine, "step", "events.step", ("events.step_calls", calls))
        w(cli, "write_report_log", "simulate.write_report_log")
        w(cli, "write_event_log", "simulate.write_event_log")
        # log and dataset IO
        w(cli, "read_report_log", "simulate.read_report_log",
          ("simulate.read_report_log_calls", calls))
        w(cli, "read_event_log", "simulate.read_event_log")
        w(cli, "build_dataset", "dataset.build_dataset")
        w(cli, "write_dataset", "dataset.write_dataset")
        w(cli, "read_dataset", "dataset.read_dataset", ("dataset.read_dataset_calls", calls))
        w(dataset.WindowBank, "gather", "dataset.gather",
          ("dataset.gather_windows", lambda a: len(a[1])))
        # TCN
        w(tcn, "train", "tcn.train")
        w(tcn, "forward_batch", "tcn.forward_batch",
          ("tcn.forward_samples", lambda a: len(a[1])), rename=_forward_batch_name)
        w(tcn, "backward_batch", "tcn.train.backward")
        w(tcn, "predict", "tcn.predict")
        w(tcn, "save_model", "tcn.save_model")
        w(tcn, "load_model", "tcn.load_model")
        # eshop controller
        w(cli, "oracle_countdown", "controller.oracle_countdown")
        w(cli, "standardized_rows", "controller.standardized_rows")
        w(cli, "infer_countdown", "controller.infer_countdown",
          ("controller.infer_countdown_reports", lambda a: len(a[1])))
        w(controller, "model_forward", "tcn.model_forward", ("tcn.model_forward_calls", calls))
        w(cli, "simulate_eshop", "controller.simulate_eshop",
          ("controller.simulate_eshop_calls", calls))
        w(cli, "degradation_stats", "controller.degradation_stats")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction ------------------------------------------------------------

    def _self_seconds(self) -> list[float]:
        out = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self._self_seconds()):
            out[span[0]] += self_s
        return dict(out)

    def stage_self_sums(self) -> dict[str, float]:
        """Per stage root span name: the self times of every span beneath it summed.

        This equals the stage's time when every span nests inside its parent,
        which is what lets the per-layer self times be read as shares of a stage.
        """
        root: list[int] = []
        out: dict[str, float] = defaultdict(float)
        for i, (span, self_s) in enumerate(zip(self.spans, self._self_seconds())):
            root.append(i if span[3] < 0 else root[span[3]])
            out[self.spans[root[i]][0]] += self_s
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
