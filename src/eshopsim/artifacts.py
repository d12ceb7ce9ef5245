"""Artifact headers, machine-read CSV tables, JSON documents and file digests.

Every CSV artifact opens with one header line,
``# schema=<name> config_hash=<hex> master_seed=<int>``, then a column row,
then the data rows. This module is the only code that formats or parses that
line, so every reader checks the schema before it trusts a column. Every
artifact is written to a temporary file beside it and renamed over it when
complete, so a failed write leaves the previous file as it was.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import TextIO


@contextmanager
def _replacing(path, newline: str | None = None) -> Iterator[TextIO]:
    """A text file open for writing that takes ``path``'s place only when the
    block ends without an exception; otherwise it is deleted."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_table(path, schema: str, columns: list[str], rows: Iterable, **fields) -> None:
    """Header line ``# schema=<schema> key=value ...`` (fields in the order
    given), column row, then one row per item of ``rows``: its fields as
    ``str`` gives them, joined by commas, ending in CRLF. These are
    ``csv.writer``'s bytes for every row it would not quote; a row it would
    quote (a field holding a comma, a quote, CR or LF, or one empty field
    alone) raises ValueError."""
    with _replacing(path, newline="") as fh:
        fh.write(" ".join([f"# schema={schema}"] + [f"{k}={v}" for k, v in fields.items()]) + "\n")
        write = fh.write
        for row in itertools.chain([columns], rows):
            line = ",".join(map(str, row))
            if (line.count(",") != len(row) - 1 or not line
                    or '"' in line or "\r" in line or "\n" in line):
                raise ValueError(f"{path}: a field of row {row!r} would need CSV quoting")
            write(line + "\r\n")


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
    with _replacing(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The parsed document; a file that is not JSON raises ValueError."""
    with open(path) as fh:
        return json.load(fh)


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
