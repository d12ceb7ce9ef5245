import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eshopsim.artifacts import _BLOCK_ROWS, from_json, read_json, write_json, write_table
from oracles import csv_writer_table

_FLOATS = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05, -85.25]
)
# every kind of field the pipeline writes: UE and episode ids, ints, flags,
# floats and the repr strings of floats
_FIELDS = st.one_of(
    st.integers(0, 999).map(lambda i: f"ue{i:03d}"),
    st.integers(0, 999).map(lambda i: f"ue{i:03d}:{i % 7}"),
    st.integers(),
    st.booleans(),
    _FLOATS,
    _FLOATS.map(repr),
)
_COLUMNS = st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), min_size=1, max_size=6)
# short tables, and tables that end at and around block edges
_LENGTHS = st.integers(0, 6) | st.sampled_from(
    [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
)
# the arrays the pipeline passes: times, beams, RSRP and float32 labels
_ARRAYS = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "float64": _FLOATS,
    "float32": st.floats(width=32),
    "bool": st.booleans(),
}


@st.composite
def _tables(draw):
    """Column names and blocks of as many columns: lists of mixed fields (an
    empty field only beside others; alone, csv.writer quotes it) or arrays,
    each a drawn pattern repeated to the table's length, cut into blocks."""
    columns = draw(_COLUMNS)
    n = draw(_LENGTHS)
    fields = _FIELDS | st.just("") if len(columns) > 1 else _FIELDS
    data = []
    for _ in columns:
        kind = draw(st.sampled_from(["list", *_ARRAYS]))
        pattern = draw(st.lists(fields if kind == "list" else _ARRAYS[kind], min_size=1, max_size=6))
        column = list(itertools.islice(itertools.cycle(pattern), n))
        data.append(column if kind == "list" else np.array(column, dtype=kind))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    blocks = [[col[lo:hi] for col in data] for lo, hi in zip([0, *cuts], [*cuts, n])]
    return columns, data, blocks


@given(table=_tables())
def test_write_table_bytes_equal_csv_writer(tmp_path_factory, table):
    # an array column is written as its tolist() values
    columns, data, blocks = table
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in data)))
    d = tmp_path_factory.mktemp("tables")
    write_table(d / "got.csv", "t/1", columns, blocks, config_hash="ab12", master_seed=3)
    csv_writer_table(d / "want.csv", "t/1", columns, rows, config_hash="ab12", master_seed=3)
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


@pytest.mark.parametrize(
    "bad_row",
    [["ue001", "a,b"], ["ue001", 'say "x"'], ["ue001", "a\rb"], ["a\nb", 1.5], [""]],
    ids=["comma", "quote", "cr", "lf", "lone_empty_field"],
)
@pytest.mark.parametrize("where", ["columns", "rows"])
def test_write_table_refuses_a_row_that_needs_quoting(tmp_path, bad_row, where):
    path = tmp_path / "table.csv"
    write_table(path, "t/1", ["a", "b"], [[["ue000"], [1.0]]], config_hash="ab12")
    before = path.read_bytes()
    if where == "columns":
        columns, blocks = bad_row, []
    else:  # the bad row after good ones, past the first rows formatted at once
        good = ["ue000", 2.0][: len(bad_row)]
        columns = ["a", "b"][: len(bad_row)]
        blocks = [[[g] * (_BLOCK_ROWS + 1) + [b] for g, b in zip(good, bad_row)]]
    with pytest.raises(ValueError, match="quoting"):
        write_table(path, "t/1", columns, blocks, config_hash="ab12")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


@pytest.mark.parametrize(
    "columns, blocks",
    [
        (["a", "b"], [[["ue000", "ue001"], [1.0]]]),
        (["a", "b"], [[np.arange(3), np.arange(2)]]),
        (["a", "b"], [[["ue000"]]]),
        (["a"], [[["ue000"], [1.0]]]),
        (["a", "b"], [[["ue000"], [1.0]], [["ue001"], []]]),
        ([], []),
    ],
    ids=["short_list", "short_array", "missing_column", "extra_column", "later_block", "no_columns"],
)
def test_write_table_refuses_ragged_columns(tmp_path, columns, blocks):
    path = tmp_path / "table.csv"
    write_table(path, "t/1", ["a", "b"], [[["ue000"], [1.0]]], config_hash="ab12")
    before = path.read_bytes()
    with pytest.raises(ValueError, match="column"):
        write_table(path, "t/1", columns, blocks, config_hash="ab12")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_write_table_leaves_no_file_when_refused_first(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "table.csv", "t/1", ["a"], [[[""]]])
    assert list(tmp_path.iterdir()) == []


def test_write_json_failure_keeps_the_previous_document(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1, "a": [1.5, None]})
    before = path.read_bytes()
    assert before == (json.dumps({"a": [1.5, None], "b": 1}, indent=2) + "\n").encode()
    with pytest.raises(TypeError):
        write_json(path, {"a": object()})
    assert path.read_bytes() == before and read_json(path) == {"a": [1.5, None], "b": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@dataclass
class _Inner:
    n: int = 1
    x: float = 0.5

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")


@dataclass
class _Doc:
    name: str = "a"
    inner: _Inner = field(default_factory=_Inner)
    pair: tuple[float, float] = (0.0, 1.0)
    sizes: tuple[int, ...] = ()
    counts: dict[str, int] = field(default_factory=dict)
    ids: dict[str, list[str]] = field(default_factory=dict)


def test_from_json_reads_the_declared_types():
    doc = from_json(_Doc, json.loads(
        '{"inner": {"n": 16.0, "x": 2}, "pair": [1, 2.5], "sizes": [3.0], '
        '"counts": {"a": 4.0}, "ids": {"t": ["u1"]}}'
    ), "doc")
    assert doc == _Doc("a", _Inner(16, 2.0), (1.0, 2.5), (3,), {"a": 4}, {"t": ["u1"]})
    values = (doc.inner.n, doc.inner.x, *doc.pair, *doc.sizes, doc.counts["a"])
    assert [type(v) for v in values] == [int, float, float, float, int, int]
    assert from_json(_Doc, {}, "doc") == _Doc()


# case -> (JSON text, the message it is refused with)
_REFUSED = {
    "root_not_object": ('["x"]', "doc must be a JSON object"),
    "unknown_top_level_key": ('{"bogus": 1}', r"unknown top-level keys in doc: \['bogus'\]"),
    "unknown_nested_key": ('{"inner": {"bogus": 1}}', r"unknown keys in doc.inner: \['bogus'\]"),
    "nested_not_object": ('{"inner": []}', "doc.inner must be a JSON object"),
    "bool_for_int": ('{"inner": {"n": true}}', "doc.inner.n must be a finite number"),
    "string_for_int": ('{"inner": {"n": "1"}}', "doc.inner.n must be a finite number"),
    "fraction_for_int": ('{"inner": {"n": 1.5}}', "doc.inner.n is 1.5, not an integer"),
    "nan": ('{"inner": {"x": NaN}}', "doc.inner.x must be a finite number"),
    "minus_infinity": ('{"inner": {"x": -Infinity}}', "doc.inner.x must be a finite number"),
    "int_beyond_float": ('{"inner": {"x": 1' + "0" * 400 + '}}', "doc.inner.x must be a finite number"),
    "post_init_refusal": ('{"inner": {"n": -1}}', "invalid doc.inner: n must be >= 0"),
    "null_for_str": ('{"name": null}', "doc.name must be a string"),
    "short_tuple": ('{"pair": [1.0]}', "doc.pair must hold 2 values, not 1"),
    "string_for_tuple": ('{"pair": "ab"}', "doc.pair must be a list"),
    "fraction_in_tuple": ('{"sizes": [1, 2.5]}', r"doc.sizes\[1\] is 2.5, not an integer"),
    "string_in_dict": ('{"counts": {"a": "1"}}', "doc.counts.a must be a finite number"),
    "int_in_list": ('{"ids": {"t": [1]}}', r"doc.ids.t\[0\] must be a string"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_from_json_refuses(case):
    text, message = _REFUSED[case]
    with pytest.raises(ValueError, match=message):
        from_json(_Doc, json.loads(text), "doc")
