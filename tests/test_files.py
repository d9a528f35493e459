import os
import resource
import signal
import stat
import threading

import pytest

from freqgcn.errors import FormatError, FreqGcnError, MissingDirectoryError, ReadError, WriteError
from freqgcn.files import read_input, write_atomic, write_table


def test_replaces_the_file_with_the_mode_of_a_plain_write(tmp_path):
    plain, atomic = tmp_path / "plain.txt", tmp_path / "atomic.txt"
    plain.write_text("one\ntwo\n", encoding="utf-8")
    atomic.write_text("old", encoding="utf-8")
    write_atomic({atomic: "one\ntwo\n"})
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
            write_atomic({path: "0.125 " * 100_000})
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
        write_atomic({path: "new\n"})
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pred.csv"]


@pytest.mark.parametrize("second,error", [("b.csv", WriteError), ("absent/b.csv", MissingDirectoryError)],
                         ids=["a-directory", "no-directory"])
def test_a_set_whose_second_file_cannot_be_written_leaves_the_first_as_it_was(tmp_path, second, error):
    first = tmp_path / "a.csv"
    first.write_text("previous\n", encoding="utf-8")
    if second == "b.csv":
        (tmp_path / second).mkdir()  # not a regular file, so written in place, which fails
    with pytest.raises(error) as excinfo:
        write_atomic({first: "new\n", tmp_path / second: "new\n"})
    assert excinfo.value.filename == str(tmp_path / second)
    assert first.read_text(encoding="utf-8") == "previous\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_missing_directory_is_reported_on_the_file_asked_for(tmp_path):
    path = tmp_path / "absent" / "pred.csv"
    with pytest.raises(FileNotFoundError) as excinfo:
        write_atomic({path: "new\n"})
    assert excinfo.value.filename == str(path)
    assert str(excinfo.value) == f"no such directory for {path}"


@pytest.mark.parametrize("header,rows,text", [
    ("a,b", [(1, 0.1), ("x", 1 / 3)], "a,b\n1,0.1\nx,0.3333333333333333\n"),
    ("value", [(5e-324,), (-0.0,), (1e22,)], "value\n5e-324\n-0.0\n1e+22\n"),
    ("a,b,c", [], "a,b,c\n"),
    ("a,b", iter([(True, None)]), "a,b\nTrue,None\n"),
], ids=["floats-repr", "float-extremes", "no-rows", "rows-from-an-iterator"])
def test_write_table_is_the_header_then_one_line_per_row(tmp_path, header, rows, text):
    write_table(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == text.encode()


def test_a_row_of_the_wrong_width_writes_nothing(tmp_path):
    with pytest.raises(TypeError):
        write_table(tmp_path / "t.csv", "a,b", [(1, 2), (3,)])
    assert list(tmp_path.iterdir()) == []


def test_a_pipe_is_written_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text(encoding="utf-8")))
    reader.start()
    write_atomic({pipe: "line\n"})
    reader.join(timeout=10)
    assert not reader.is_alive() and got == ["line\n"]
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)


def test_an_existing_file_keeps_its_permission_bits(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("previous\n", encoding="utf-8")
    path.chmod(0o600)
    write_atomic({path: "new\n"})
    assert path.read_text(encoding="utf-8") == "new\n"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600


def test_a_symlink_is_written_through_to_its_target(tmp_path):
    target, link = tmp_path / "models" / "model.txt", tmp_path / "model.txt"
    target.parent.mkdir()
    target.write_text("previous\n", encoding="utf-8")
    link.symlink_to(target)
    write_atomic({link: "new\n"})
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in target.parent.iterdir()) == ["model.txt"]


def test_a_dangling_symlink_creates_its_target(tmp_path):
    target, link = tmp_path / "model.txt", tmp_path / "latest.txt"
    link.symlink_to(target)
    write_atomic({link: "new\n"})
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "new\n"


def test_a_failure_other_than_a_missing_directory_names_the_file(tmp_path, monkeypatch):
    path = tmp_path / "pred.csv"
    def replace(src, dst):
        raise PermissionError(13, "Permission denied", str(src))

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(WriteError) as excinfo:
        write_atomic({path: "new\n"})
    assert isinstance(excinfo.value, OSError) and excinfo.value.filename == str(path)
    assert str(excinfo.value) == f"cannot write {path}: Permission denied"
    assert list(tmp_path.iterdir()) == []


def test_bytes_are_written_as_they_are(tmp_path):
    path = tmp_path / "frame.json"
    write_atomic({path: b'{"people": []}\xff'})
    assert path.read_bytes() == b'{"people": []}\xff'


def test_a_read_that_fails_names_the_file(tmp_path):
    with pytest.raises(ReadError) as excinfo:
        read_input(tmp_path)
    assert isinstance(excinfo.value, FreqGcnError) and isinstance(excinfo.value, OSError)
    assert str(excinfo.value) == f"cannot read {tmp_path}: Is a directory"
    with pytest.raises(FileNotFoundError) as excinfo:  # a missing input keeps its own exit code
        read_input(tmp_path / "absent", what="manifest")
    assert str(excinfo.value) == f"no such manifest: {tmp_path / 'absent'}"


def test_text_that_is_not_utf8_raises_the_readers_error(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(b"freqgcn-model v1\n\xff\n")
    assert read_input(path) == b"freqgcn-model v1\n\xff\n"
    with pytest.raises(FormatError, match="^model.txt: not a UTF-8 text document: "):
        read_input(path, FormatError, "document")
