"""Output files that a failed write leaves as they were: whole, old or new, never part."""

from __future__ import annotations

import os
import stat
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temp file in the same directory.

    ``os.replace`` puts the finished temp file in place, so a write that fails
    midway leaves the previous file intact, and the temp file is removed. As
    with a plain write, a symlink is written through to its target, an existing
    file keeps its permission bits and a new one gets 0o666 less the umask. An
    existing target that is not a regular file is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):  # a pipe or device, such as /dev/stdout
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    asked, path = path, Path(os.path.realpath(path))
    temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, str(asked)) from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
