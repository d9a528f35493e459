"""Reads whose failures name the file, and outputs that a failed write leaves whole, old or new;
the files of one result are written as one set. Every CSV table is :func:`table_text`: a header,
one comma-joined line per row, each float as its shortest text that reads back bit-exactly, and a
final newline."""

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


def write_atomic(outputs: dict[str | Path, str | bytes]) -> None:
    """Write each ``path: data`` of ``outputs``, text as UTF-8, as one set, each through a temp
    file in its own directory.

    Every temp file is written before ``os.replace`` moves any into place, so a
    write that fails leaves every file of the set as it was (only a failed move
    leaves those moved before it new), and no temp file. As with a plain write, a
    symlink is written through to its target, an existing file keeps its
    permission bits and a new one gets 0o666 less the umask. An existing target
    that is not a regular file is written in place, before any temp file moves. A
    missing directory raises MissingDirectoryError, a FileNotFoundError, and any
    other failure WriteError, both naming the path asked for.
    """
    staged, in_place = [], []  # (path, temp file, the file it replaces), (path, data)
    try:
        for path, data in outputs.items():
            data = data.encode("utf-8") if isinstance(data, str) else data
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):  # a pipe or device, such as /dev/stdout
                in_place.append((path, data))
                continue
            target = Path(os.path.realpath(path))
            temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((path, temp, target))
            with open(fd, "wb") as handle:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                handle.write(data)
        for path, data in in_place:
            with open(path, "wb") as handle:
                handle.write(data)
        for path, temp, target in staged:
            os.replace(temp, target)
    except OSError as exc:  # name the file asked for, the one its loop was at, not a temp file
        error = MissingDirectoryError if isinstance(exc, FileNotFoundError) else WriteError
        raise error(exc.errno, exc.strerror or str(exc), str(path)) from None
    finally:  # removes each temp file not moved into place
        for _, temp, _ in staged:
            temp.unlink(missing_ok=True)


def table_text(header: str, rows) -> str:
    """``header``, then each row tuple of Python values as its ``%s`` fields joined by commas, a
    float field as its shortest round-trip repr, one line each."""
    template = ",".join(["%s"] * (header.count(",") + 1))
    return "\n".join([header, *(template % row for row in rows)]) + "\n"


def write_table(path: str | Path, header: str, rows) -> None:
    """Write :func:`table_text` of ``header`` and ``rows`` through :func:`write_atomic`."""
    write_atomic({path: table_text(header, rows)})


def make_directory(path: str | Path) -> None:
    """Create ``path`` and any missing parents; a failure raises WriteError naming ``path``."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise WriteError(exc.errno, exc.strerror or str(exc), str(path)) from None
