"""Every output file goes through corpus.write_lines: it replaces a regular
file whole, never truncates one, and is the only way out."""

import os
import stat
from contextlib import contextmanager

import pytest

from termdep.corpus import write_lines

from test_read_lines import SOURCES, opens

LINES = ["qid,délta\n", "q1,0.500000\n", "q2,-0.250000\n"]
BYTES = "".join(LINES).encode("utf-8")


@contextmanager
def umask(mask):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


def failing(lines, after):
    """The first `after` of lines, then an error."""
    yield from lines[:after]
    raise RuntimeError("row failed")


def test_write_lines_opens_files():
    corpus = next(path for path in SOURCES if path.name == "corpus.py")
    assert {function for function, _, write in opens(corpus) if write} == {"write_lines"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_other_write_path(path):
    outside = [
        f"{path.name}:{line} in {function}"
        for function, line, write in opens(path)
        if write and not (path.name == "corpus.py" and function == "write_lines")
    ]
    assert outside == [], f"files opened for writing outside write_lines: {outside}"


def test_new_file_holds_the_lines(tmp_path):
    target = tmp_path / "out.csv"
    write_lines(str(target), iter(LINES))
    assert target.read_bytes() == BYTES
    assert os.listdir(tmp_path) == ["out.csv"]


def test_replaces_a_regular_file_whole(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"an older and much longer output\n" * 100)
    write_lines(str(target), LINES)
    assert target.read_bytes() == BYTES
    assert os.listdir(tmp_path) == ["out.csv"]


def test_symlink_is_kept_and_its_target_written(tmp_path):
    real = tmp_path / "real.csv"
    real.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_lines(str(link), LINES)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == BYTES
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]


def test_symlink_to_devnull_is_kept(tmp_path):
    # Unlinking a link never touches its target; writing through it must not unlink it.
    link = tmp_path / "sink"
    link.symlink_to(os.devnull)
    write_lines(str(link), LINES)
    assert link.is_symlink() and os.readlink(link) == os.devnull
    assert os.listdir(tmp_path) == ["sink"]


def test_hard_linked_file_is_written_in_place(tmp_path):
    first = tmp_path / "a.csv"
    first.write_bytes(b"old\n")
    second = tmp_path / "b.csv"
    os.link(first, second)
    write_lines(str(first), LINES)
    assert first.read_bytes() == BYTES and second.read_bytes() == BYTES
    assert os.stat(first).st_ino == os.stat(second).st_ino


def test_failed_write_leaves_the_old_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"previous output\n")
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(RuntimeError, match="row failed"):
        write_lines(str(target), failing(LINES, 2))
    assert target.read_bytes() == b"previous output\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_failed_write_creates_nothing(tmp_path):
    (tmp_path / "other").write_bytes(b"x")
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(RuntimeError, match="row failed"):
        write_lines(str(tmp_path / "out.csv"), failing(LINES, 2))
    assert sorted(os.listdir(tmp_path)) == before


def test_missing_directory_names_the_target(tmp_path):
    target = tmp_path / "absent" / "out.csv"
    with pytest.raises(FileNotFoundError) as caught:
        write_lines(str(target), LINES)
    assert caught.value.filename == str(target)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mask", [0o022, 0o027, 0o077])
def test_new_file_mode_is_what_open_gives(tmp_path, mask):
    with umask(mask):
        write_lines(str(tmp_path / "new.csv"), LINES)
        with open(tmp_path / "opened.csv", "w", encoding="utf-8"):
            pass
    mode = stat.S_IMODE(os.stat(tmp_path / "new.csv").st_mode)
    assert mode == 0o666 & ~mask
    assert mode == stat.S_IMODE(os.stat(tmp_path / "opened.csv").st_mode)


def test_replaced_file_keeps_its_mode(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    os.chmod(target, 0o640)
    with umask(0o022):
        write_lines(str(target), LINES)
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640
    assert target.read_bytes() == BYTES
