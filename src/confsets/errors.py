"""Shared exception type, the checks for values read from JSON, and text I/O.

Every text artifact is ASCII with LF line ends.  `line_chunks` is the one
way a text file is read: runs of whole lines of about 16 KiB, each with the
number of its first line.  `ascii_lines` yields those lines one at a time,
and a non-ASCII byte is a ValidationError that names its line; the
prediction-sets reader takes whole chunks and checks them itself.
`write_json` and `read_json` are the one writer and reader of the JSON
artifacts (maps, thresholds, tune and evaluation reports).
`replaced_on_success` writes a text file that, where its path allows,
changes that path only once it is whole; `write_json` and the sets-file
writer write through it.
"""

import contextlib
import json
import os
import shutil
import stat

# Characters `line_chunks` reads at a time, rounded up to whole lines.  At
# 16 Ki the sets reader's arrays for a chunk stay small (reading the set sizes
# of a 2000 x 1000 include-all file peaks at 0.93 MiB, half its mask, against
# 3.0 MiB at 64 Ki), and on a 2-core host a 20000-row K = 50 file reads in
# 16 ms against 24 ms at 4 Ki and 15 at 64 Ki.
_CHUNK_CHARS = 1 << 14


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or invariant.

    The CLI maps this to exit code 1; genuine I/O failures (OSError) map
    to exit code 2.
    """


def is_int(value) -> bool:
    """An int, but not a bool (JSON ``true`` would otherwise pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_keys(obj: dict, allowed, what: str, required=()) -> None:
    """Reject keys of a JSON object outside ``allowed``, and a missing one of
    ``required``: a misspelt or omitted key would otherwise load as its
    default without a word."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{what} missing field {key!r}")


def line_chunks(path):
    """Yield ``(first, lines)``: the lines of a text file in runs of about
    ``_CHUNK_CHARS`` characters, ``first`` the number of the run's first
    line, counting from 0.

    A non-ASCII byte decodes to a lone surrogate, which fails ``isascii``.
    """
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        first = 0
        while lines := fh.readlines(_CHUNK_CHARS):
            yield first, lines
            first += len(lines)


def ascii_lines(path, what: str):
    """Yield ``(lineno, line)`` for each line of a text file, counting from 0."""
    for first, lines in line_chunks(path):
        for lineno, line in enumerate(lines, first):
            if not line.isascii():
                raise ValidationError(f"{what} line {lineno}: non-ASCII byte")
            yield lineno, line


@contextlib.contextmanager
def replaced_on_success(path):
    """A text file to write in place of ``path``, which it changes only when
    the ``with`` block ends without an error: a writer that fails partway
    leaves ``path`` as it was, or absent.

    The text goes to a uniquely named file beside ``path`` (a symbolic link
    is followed), removed on any error.  On success that file is renamed
    onto ``path`` when this changes nothing but the bytes: ``path`` is
    absent, or a regular file with no other hard link and the new file's
    owner and group, whose mode the new file takes.  Otherwise its bytes
    are copied into ``path``, which keeps its links and owner.  An existing
    file that cannot be written fails at once, naming ``path``.  A ``path``
    that is not a regular file (a device such as /dev/null, a FIFO), that
    ends in a separator, or beside which no file can be made, is opened with
    ``open(path, "w")`` and written as the text comes, as by a plain writer.
    """
    target = os.path.realpath(path)
    try:
        old = os.stat(target)
    except FileNotFoundError:
        old = None
    if old is not None and stat.S_ISREG(old.st_mode):
        try:
            os.close(os.open(target, os.O_WRONLY))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    # realpath drops a trailing separator, which names a directory
    plain = os.fspath(path).endswith((os.sep, os.altsep or os.sep)) or (
        old is not None and not stat.S_ISREG(old.st_mode))
    fh = None if plain else _file_beside(target)
    if fh is None:
        with open(path, "w", encoding="ascii", newline="\n") as out:
            yield out
        return
    try:
        with fh:
            new = os.fstat(fh.fileno())
            yield fh
        if old is None or (old.st_nlink == 1
                           and (old.st_uid, old.st_gid) == (new.st_uid, new.st_gid)):
            if old is not None:
                os.chmod(fh.name, old.st_mode & 0o7777)
            os.replace(fh.name, target)
        else:
            with open(fh.name, "rb") as src, open(target, "wb") as dst:
                shutil.copyfileobj(src, dst)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(fh.name)


def _file_beside(target):
    """A new text file with a unique name in ``target``'s directory, with the
    mode a new file gets; or None if none can be made there."""
    head, tail = os.path.split(target)
    while True:
        try:
            return open(os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp"), "x",
                        encoding="ascii", newline="\n")
        except FileExistsError:
            continue
        except OSError:
            return None


def write_json(obj, path) -> None:
    """Write ``obj`` as indented ASCII JSON with a trailing newline, through
    `replaced_on_success`: a value that cannot be written leaves ``path`` as
    it was, or absent."""
    with replaced_on_success(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json(path, what: str):
    """The JSON value of a file written by `write_json`."""
    text = "".join(line for _, line in ascii_lines(path, what))
    try:
        return json.loads(text)
    # a JSONDecodeError, an integer of over 4300 digits, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
