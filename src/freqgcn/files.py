"""Reads whose failures name the file, and outputs that a failed write leaves whole, old or new.
Every CSV table goes through :func:`write_table`: a header, one comma-joined line per row, each
float as its shortest text that reads back bit-exactly, and a final newline."""

from __future__ import annotations

import os
import stat
from pathlib import Path

from .errors import MissingDirectoryError, ReadError, WriteError


def read_input(path: str | Path, error: type[Exception] | None = None, what: str = "file") -> bytes | str:
    """The bytes of ``path``, or given ``error`` its UTF-8 text. A missing ``path`` raises
    FileNotFoundError ``no such <what>: <path>``, any other failed read ReadError."""
    try:
        fd = os.open(path, os.O_RDONLY)
        chunks = []
        try:
            while chunk := os.read(fd, 1 << 16):  # until the empty read: a short one may not be the end
                chunks.append(chunk)
        finally:
            os.close(fd)
    except FileNotFoundError:  # a missing input keeps its own error, and exit status
        raise FileNotFoundError(f"no such {what}: {path}") from None
    except OSError as exc:  # a directory, say, or no read permission
        raise ReadError(exc.errno, exc.strerror or str(exc), str(path)) from None
    raw = b"".join(chunks)
    try:
        return raw if error is None else raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{Path(path).name}: not a UTF-8 text {what}: {exc}") from None


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write ``data``, text as UTF-8, to ``path`` through a temp file in the same directory.

    ``os.replace`` puts the finished temp file in place, so a write that fails
    midway leaves the previous file intact, and the temp file is removed. As
    with a plain write, a symlink is written through to its target, an existing
    file keeps its permission bits and a new one gets 0o666 less the umask. An
    existing target that is not a regular file is written in place. A missing
    directory raises MissingDirectoryError, a FileNotFoundError, and any other
    failure WriteError, both naming ``path``.
    """
    try:
        _replace(path, data.encode("utf-8") if isinstance(data, str) else data)
    except FileNotFoundError as exc:  # name the file asked for, not the temp file
        raise MissingDirectoryError(exc.errno, exc.strerror, str(path)) from None
    except OSError as exc:
        raise WriteError(exc.errno, exc.strerror or str(exc), str(path)) from None


def write_table(path: str | Path, header: str, rows) -> None:
    """Write ``header``, then each row tuple of Python values as its ``%s`` fields joined by commas,
    through :func:`write_atomic`; a float field is its shortest round-trip repr."""
    template = ",".join(["%s"] * (header.count(",") + 1))
    write_atomic(path, "\n".join([header, *(template % row for row in rows)]) + "\n")


def _replace(path: str | Path, data: bytes) -> None:
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):  # a pipe or device, such as /dev/stdout
        with open(path, "wb") as handle:
            handle.write(data)
        return
    path = Path(os.path.realpath(path))
    temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def make_directory(path: str | Path) -> None:
    """Create ``path`` and any missing parents; a failure raises WriteError naming ``path``."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise WriteError(exc.errno, exc.strerror or str(exc), str(path)) from None
