import os
import resource
import signal
import stat
import threading

import pytest

from freqgcn.files import write_atomic


def test_replaces_the_file_with_the_mode_of_a_plain_write(tmp_path):
    plain, atomic = tmp_path / "plain.txt", tmp_path / "atomic.txt"
    plain.write_text("one\ntwo\n", encoding="utf-8")
    atomic.write_text("old", encoding="utf-8")
    write_atomic(atomic, "one\ntwo\n")
    assert atomic.read_bytes() == plain.read_bytes()
    assert os.stat(atomic).st_mode == os.stat(plain).st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.txt", "plain.txt"]


def test_write_failing_midway_leaves_the_previous_file_and_no_temp_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("previous model\n", encoding="utf-8")
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))  # writes past 4 KiB fail with EFBIG
    try:
        with pytest.raises(OSError):
            write_atomic(path, "0.125 " * 100_000)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert path.read_text(encoding="utf-8") == "previous model\n"
    assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]


def test_failed_replace_removes_the_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "pred.csv"
    path.write_text("previous\n", encoding="utf-8")
    def replace(src, dst):
        raise OSError("no")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="no"):
        write_atomic(path, "new\n")
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pred.csv"]


def test_missing_directory_is_reported_on_the_file_asked_for(tmp_path):
    path = tmp_path / "absent" / "pred.csv"
    with pytest.raises(FileNotFoundError) as excinfo:
        write_atomic(path, "new\n")
    assert excinfo.value.filename == str(path)


def test_a_pipe_is_written_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text(encoding="utf-8")))
    reader.start()
    write_atomic(pipe, "line\n")
    reader.join(timeout=10)
    assert not reader.is_alive() and got == ["line\n"]
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)


def test_an_existing_file_keeps_its_permission_bits(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("previous\n", encoding="utf-8")
    path.chmod(0o600)
    write_atomic(path, "new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600


def test_a_symlink_is_written_through_to_its_target(tmp_path):
    target, link = tmp_path / "models" / "model.txt", tmp_path / "model.txt"
    target.parent.mkdir()
    target.write_text("previous\n", encoding="utf-8")
    link.symlink_to(target)
    write_atomic(link, "new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in target.parent.iterdir()) == ["model.txt"]


def test_a_dangling_symlink_creates_its_target(tmp_path):
    target, link = tmp_path / "model.txt", tmp_path / "latest.txt"
    link.symlink_to(target)
    write_atomic(link, "new\n")
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "new\n"
