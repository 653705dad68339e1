"""Shared exception type, the checks for values read from JSON, and text I/O.

Every text artifact is ASCII with LF line ends.  `line_chunks` is the one
way a text file is read: runs of whole lines of about 16 KiB, each with the
number of its first line.  `ascii_lines` yields those lines one at a time,
and a non-ASCII byte is a ValidationError that names its line; the
prediction-sets loader takes whole chunks and checks them itself, after
`count_nonblank_lines` has counted its rows off the raw bytes.
`write_json` and `read_json` are the one writer and reader of the JSON
artifacts (maps, thresholds, tune and evaluation reports).
"""

import json

import numpy as np

# Characters `line_chunks` reads at a time, rounded up to whole lines.  At
# 16 Ki the sets loader's arrays for a chunk stay small (loading a 2000 x 1000
# include-all file peaks 0.18 MiB above its mask, 0.61 MiB at 64 Ki), and a
# 20000-row K = 50 file loads in 19 ms against 30 ms at 4 Ki and 18 at 64 Ki.
_CHUNK_CHARS = 1 << 14

# `bytes.translate` arguments that make a text file's bytes 0 for each line
# end ("\r" or "\n") and 1 for each other byte, and drop the other ASCII
# bytes that `str.isspace` calls whitespace.  Every byte past ASCII decodes
# in `line_chunks` to a lone surrogate, which is not whitespace.
_MARKS = bytes(0 if b in b"\r\n" else 1 for b in range(256))
_BLANKS = bytes(b for b in range(128) if chr(b).isspace() and b not in b"\r\n")


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


def check_keys(obj: dict, allowed, what: str) -> None:
    """Reject keys of a JSON object outside ``allowed``.

    A misspelt key would otherwise load as its default without a word.
    """
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}")


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


def count_nonblank_lines(path) -> int:
    r"""The number of lines that `line_chunks` yields from a text file and
    ``str.isspace`` does not call blank, counted off the raw bytes.

    Lines end as in universal-newline text mode: at "\n", "\r\n" or a lone
    "\r".  Counting "\r\n" as two line ends only adds an empty line, which
    is blank, so after `_MARKS` and `_BLANKS` the count is the number of 1
    that follow a 0, the file taken to start after a line end.  One
    ``bytes.translate`` and one array comparison per chunk: on a 2-core host
    a 20000-row K = 50 sets file counts in 0.9 ms, against 1.8 ms for
    decoding its lines.
    """
    count, last = 0, b"\0"
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK_CHARS):
            marks = np.frombuffer(last + chunk.translate(_MARKS, _BLANKS), dtype=np.uint8)
            count += int(np.count_nonzero(marks[:-1] < marks[1:]))
            last = marks[-1:].tobytes()
    return count


def ascii_lines(path, what: str):
    """Yield ``(lineno, line)`` for each line of a text file, counting from 0."""
    for first, lines in line_chunks(path):
        for lineno, line in enumerate(lines, first):
            if not line.isascii():
                raise ValidationError(f"{what} line {lineno}: non-ASCII byte")
            yield lineno, line


def write_json(obj, path) -> None:
    """Write ``obj`` as indented ASCII JSON with a trailing newline."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
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
