"""Whole-file reads, the one reader of key=value text, and atomic
replacement for the checkpoints, run files and reports.

Bytes go to a temporary file beside the target, which then replaces the
target in one ``os.replace``.  A write that fails or is interrupted
leaves any earlier file at the target as it was and removes its
temporary file, so a crash leaves a state a rerun repairs.  Text is
UTF-8, and a text file that already holds its bytes is left in place.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

from .errors import EwcLabError


def read_file(path, missing: type[EwcLabError], what: str) -> bytes:
    """The bytes of ``path``; a missing file raises ``missing`` naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise missing(f"no {what} at {os.fspath(path)!r}") from None


def decode_text(data: bytes, error: Callable[[str], EwcLabError], where: str) -> str:
    """``data`` as UTF-8 text; bytes that are not UTF-8 raise ``error``
    naming ``where`` and the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_fields(data: bytes, error: type[EwcLabError], where: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each line of ``data``, split at its
    first ``=``; blank and ``#`` comment lines are skipped.  Text that is
    not UTF-8, or a line without ``=``, raises ``error`` naming ``where``."""
    for lineno, line in enumerate(decode_text(data, error, where).splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{where}:{lineno}: malformed line {line!r}")
        yield lineno, key, value


def comma_list(cast):
    """A parser of a comma list into the tuple of its non-empty items, cast."""
    return lambda text: tuple(map(cast, filter(None, text.split(","))))


def parse_field(fields: Mapping[str, str], error: type[EwcLabError], where: str, key: str, parse,
                default: str | None = None):
    """``parse`` of ``fields[key]`` (of ``default`` when absent); a missing key, or
    a ``ValueError`` from ``parse``, raises ``error`` naming ``where`` and the key."""
    text = fields.get(key, default)
    if text is None:
        raise error(f"{where}: missing key {key!r}")
    try:
        return parse(text)
    except ValueError as exc:
        raise error(f"{where}: key {key!r}: cannot parse {text!r} ({exc})") from None


@contextmanager
def atomic_open(path):
    """Open a temporary file beside ``path`` for binary writing; on a clean
    exit it replaces ``path``, on an exception it is deleted."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8.  When ``path`` already holds exactly those
    bytes it is left alone, keeping its inode and mtime, and a stray
    temporary file beside it is removed."""
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as fh:
            same = os.fstat(fh.fileno()).st_size == len(data) and fh.read() == data
    except FileNotFoundError:
        same = False
    if same:
        tmp = f"{os.fspath(path)}.tmp"
        if os.path.exists(tmp):
            os.unlink(tmp)
        return
    with atomic_open(path) as fh:
        fh.write(data)
