"""Artifact headers, machine-read CSV tables, typed JSON documents and file digests.

Every CSV artifact opens with one header line,
``# schema=<name> config_hash=<hex> master_seed=<int>``, then a column row,
then the data rows. This module is the only code that formats or parses that
line, so every reader checks the schema before it trusts a column. Every
artifact, text or binary, is written to a temporary file beside it and renamed
over it when complete, so a failed write leaves the previous file as it was.
Every typed JSON document (config, model config, dataset meta) is read by ``from_json``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import sys
import typing
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from typing import IO, TextIO

import numpy as np


@contextmanager
def replacing(path, mode: str = "w", newline: str | None = None) -> Iterator[IO]:
    """A file open for writing in ``mode`` that takes ``path``'s place only
    when the block ends without an exception; otherwise it is deleted."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# rows formatted at once; their strings are alive together, so they stay few
_BLOCK_ROWS = 128


def write_table(path, schema: str, columns: list[str], blocks: Iterable[Sequence], **fields) -> None:
    """Header line ``# schema=<schema> key=value ...`` (fields in the order
    given), column row, then the rows of each block in turn. A block holds one
    column per name (a list, or an array read as ``tolist()``), all of one
    length; each field is written as ``str`` gives it, joined by commas, each
    row ending in CRLF, formatted 128 rows and a column at a time. These are
    ``csv.writer``'s bytes for every row it would not quote; a row it would
    quote (a field holding a comma, a quote, CR or LF, or one empty field
    alone) or a ragged block raises ValueError."""
    with replacing(path, newline="") as fh:
        fh.write(" ".join([f"# schema={schema}"] + [f"{k}={v}" for k, v in fields.items()]) + "\n")
        fh.write(_lines(path, [[name] for name in columns], "the column row"))
        row = 0
        for block in blocks:
            n = len(block[0]) if len(block) else 0
            if len(block) != len(columns) or any(len(col) != n for col in block):
                raise ValueError(f"{path}: the block from row {row} needs a column per name, of one length")
            for lo in range(0, n, _BLOCK_ROWS):
                fh.write(_lines(path, [col[lo:lo + _BLOCK_ROWS] for col in block], f"rows from {row + lo}"))
            row += n


def _lines(path, columns: list, where: str) -> str:
    """The CRLF-ended rows of equally long columns, if no field needs quoting."""
    cells = [list(map(str, c.tolist() if isinstance(c, np.ndarray) else c)) for c in columns]
    n, k = len(cells[0]) if cells else 0, len(cells)
    text = "\r\n".join(map(",".join, zip(*cells))) + "\r\n"
    if (text.count(",") != n * (k - 1) or text.count("\r") != n or text.count("\n") != n
            or '"' in text or (k == 1 and "" in cells[0])):
        raise ValueError(f"{path}: a field of {where} would need CSV quoting")
    return text


@contextmanager
def read_table(path, schema: str) -> Iterator[tuple[dict, list[str], TextIO]]:
    """Checks the header line's schema; yields its fields (``schema``,
    ``config_hash``, ...), the column row and the open file at the first
    data line (for ``csv.reader`` or a bulk parse)."""
    with open(path, newline="") as fh:
        line = fh.readline()
        if not line.startswith("# "):
            raise ValueError(f"missing artifact header line in {path}")
        fields = dict(part.split("=", 1) for part in line[2:].split())
        if fields.get("schema") != schema:
            raise ValueError(f"schema mismatch: expected {schema}, found {fields.get('schema')}")
        yield fields, next(csv.reader([fh.readline()]), []), fh


def write_json(path, doc) -> None:
    """Sorted keys, two-space indent and a trailing newline, so equal
    documents give equal bytes."""
    with replacing(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The parsed document; a file that is not JSON raises ValueError."""
    with open(path) as fh:
        return json.load(fh)


def from_json(cls, doc, where: str):
    """A parsed JSON object as the dataclass ``cls``, by its type hints: unknown
    keys are refused, missing ones take their defaults, lists become tuples
    where hinted, and a number must be finite and becomes the declared int or
    float (16 and 16.0 alike). Raises ValueError naming ``where`` and the key."""
    return _walk(cls, doc, where, top=True)


def _walk(hint, value, at: str, top: bool = False):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint) or origin is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{at} must be a JSON object")
        if origin is dict:
            return {k: _walk(args[1], v, f"{at}.{k}") for k, v in value.items()}
        unknown = value.keys() - {f.name for f in dataclasses.fields(hint)}
        if unknown:
            raise ValueError(f"unknown {'top-level ' * top}keys in {at}: {sorted(unknown)}")
        hints = typing.get_type_hints(hint)
        kwargs = {k: _walk(hints[k], v, f"{at}.{k}") for k, v in value.items()}
        try:
            return hint(**kwargs)
        except ValueError as exc:
            raise ValueError(f"invalid {at}: {exc}") from exc
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ValueError(f"{at} must be a list, not {value!r}")
        elems = args[:1] * len(value) if origin is list or args[-1] is ... else args
        if len(elems) != len(value):
            raise ValueError(f"{at} must hold {len(elems)} values, not {len(value)}")
        return origin(_walk(h, v, f"{at}[{i}]") for i, (h, v) in enumerate(zip(elems, value)))
    if hint in (int, float):
        # bool is an int subclass, and NaN fails every comparison
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{at} must be a finite number, not {value!r}")
        if hint is int and int(value) != value:
            raise ValueError(f"{at} is {value}, not an integer")
        return hint(value)
    if hint is str:
        if not isinstance(value, str):
            raise ValueError(f"{at} must be a string, not {value!r}")
        return value
    raise TypeError(f"{at}: no JSON reading for type {hint}")


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
