import json
import math

import pytest
from hypothesis import given, strategies as st

from eshopsim.artifacts import read_json, write_json, write_table
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
_ROWS = st.lists(st.lists(_FIELDS, min_size=1, max_size=6), max_size=6) | st.lists(
    st.lists(_FIELDS | st.just(""), min_size=2, max_size=6), max_size=6
)
_COLUMNS = st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), min_size=1, max_size=6)


@given(columns=_COLUMNS, rows=_ROWS)
def test_write_table_bytes_equal_csv_writer(tmp_path_factory, columns, rows):
    d = tmp_path_factory.mktemp("tables")
    write_table(d / "got.csv", "t/1", columns, rows, config_hash="ab12", master_seed=3)
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
    write_table(path, "t/1", ["a", "b"], [["ue000", 1.0]], config_hash="ab12")
    before = path.read_bytes()
    columns, rows = (bad_row, []) if where == "columns" else (["a", "b"], [["ue000", 2.0], bad_row])
    with pytest.raises(ValueError, match="quoting"):
        write_table(path, "t/1", columns, rows, config_hash="ab12")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_write_table_leaves_no_file_when_refused_first(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "table.csv", "t/1", ["a"], [[""]])
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
