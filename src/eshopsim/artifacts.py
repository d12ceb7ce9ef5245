"""Artifact headers, machine-read CSV tables, JSON documents and file digests.

Every CSV artifact opens with one header line,
``# schema=<name> config_hash=<hex> master_seed=<int>``, then a column row,
then the data rows. This module is the only code that formats or parses that
line, so every reader checks the schema before it trusts a column.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import TextIO


def write_table(path, schema: str, columns: list[str], rows: Iterable, **fields) -> None:
    """Header line ``# schema=<schema> key=value ...`` (fields in the order
    given), column row, then one CSV row per item of ``rows``."""
    with open(path, "w", newline="") as fh:
        fh.write(" ".join([f"# schema={schema}"] + [f"{k}={v}" for k, v in fields.items()]) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


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
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The parsed document; a file that is not JSON raises ValueError."""
    with open(path) as fh:
        return json.load(fh)


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
