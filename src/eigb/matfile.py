r"""Text format for complex matrices (format tag EIGB1).

Grammar, as parsed here:

- The file is UTF-8.  Lines are split as ``str.splitlines`` splits them, so
  ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``, U+2028 and U+2029 end a
  line as well as ``\n``, ``\r\n`` and ``\r``.
- A line whose first character is ``#`` is a comment; a ``#`` anywhere else
  (even after indentation) is an ordinary character.
- Any Unicode whitespace separates tokens.  The first token is the dimension
  n (a positive integer as Python ``int()`` reads it), followed by exactly
  n*n entries in row-major order.
- An entry is a real literal that Python ``float()`` accepts (``-4.0``,
  ``1e-3``, ``1_000``, ``+.5``, ``5.``) or a complex literal of the exact form
  ``(re,im)`` with two such literals and no interior whitespace.  Every value
  must be finite.

Any violation raises :class:`ParseError` with its line and column (or
:class:`WrongEntryCount`).
"""

from __future__ import annotations

import math
import re
from itertools import repeat

import numpy as np

from .errors import ParseError, WrongEntryCount

FORMAT_VERSION = "EIGB1"

_COMPLEX_RE = re.compile(r"^\(([^,()\s]+),([^,()\s]+)\)$")


def _tokens(text: str):
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            continue
        for piece in re.finditer(r"\S+", line):
            yield line_no, piece.start() + 1, piece.group()


def _parse_float(token: str, line: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, col, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, col, f"non-finite value: {token!r}")
    return value


def _parse_entry(token: str, line: int, col: int) -> complex:
    if token.startswith("("):
        m = _COMPLEX_RE.match(token)
        if m is None:
            raise ParseError(
                line, col, f"malformed complex literal (expected (re,im)): {token!r}"
            )
        return complex(
            _parse_float(m.group(1), line, col), _parse_float(m.group(2), line, col)
        )
    return complex(_parse_float(token, line, col), 0.0)


def _parse_tokenwise(text: str) -> np.ndarray:
    """Parse one token at a time: the reference for `_parse_bulk`, and the
    walk that locates the error in any text `_parse_bulk` rejects."""
    stream = _tokens(text)
    try:
        line, col, token = next(stream)
    except StopIteration:
        raise ParseError(0, 0, "empty input, expected dimension") from None
    try:
        n = int(token)
    except ValueError:
        raise ParseError(line, col, f"dimension must be an integer, got {token!r}") from None
    if n < 1:
        raise ParseError(line, col, f"dimension must be positive, got {n}")

    entries = []
    for line, col, token in stream:
        if len(entries) == n * n:
            raise WrongEntryCount(
                f"expected {n * n} entries, found extra token {token!r} at line {line}"
            )
        entries.append(_parse_entry(token, line, col))
    if len(entries) != n * n:
        raise WrongEntryCount(f"expected {n * n} entries, found {len(entries)}")
    return np.array(entries, dtype=np.complex128).reshape(n, n)


def _parse_bulk(text: str) -> np.ndarray | None:
    """Parse well-formed text with a few passes over the whole body.

    Returns None for any text that `_parse_tokenwise` would reject (and for
    nothing else), without saying why.
    """
    tokens = "\n".join(
        [line for line in text.splitlines() if not line.startswith("#")]
    ).split()
    try:
        n = int(tokens[0])
    except (IndexError, ValueError):
        return None
    entries = tokens[1:]
    if n < 1 or len(entries) != n * n:
        return None
    entries = [t if t[0] == "(" else f"({t},0)" for t in entries]
    if max(map(str.count, entries, repeat(","))) > 1:
        return None
    body = " ".join(entries)
    if not body.endswith(")"):
        return None
    # Every entry now starts with "(" and holds at most one comma, and spaces
    # occur only between entries.  The cut below therefore yields at most
    # 1 + n*n + (n*n - 1) pieces, and 2*n*n only if every entry is
    # "(" re "," im ")"; float() then rejects a stray parenthesis or an
    # empty part.
    numbers = body[1:-1].replace(") (", ",").split(",")
    if len(numbers) != 2 * len(entries):
        return None
    try:
        values = np.array(numbers, dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(np.complex128).reshape(n, n)


def parse_matrix(text: str) -> np.ndarray:
    """Parse the EIGB1 text format into a square complex matrix."""
    matrix = _parse_bulk(text)
    if matrix is None:
        # `_parse_bulk` accepts every valid text, so this raises the error
        # with its line and column.
        matrix = _parse_tokenwise(text)
    return matrix


def _format_entry(value: complex) -> str:
    re_part, im_part = float(value.real), float(value.imag)
    # -0.0 == 0.0, so the sign bit decides: a real literal reads back as +0.0j.
    if im_part == 0.0 and math.copysign(1.0, im_part) > 0.0:
        return repr(re_part)
    return f"({re_part!r},{im_part!r})"


def write_matrix(matrix) -> str:
    """Serialize a square complex matrix; parse(write(m)) is entrywise identical."""
    m = np.asarray(matrix, dtype=np.complex128)
    n = m.shape[0]
    lines = [f"# {FORMAT_VERSION}", str(n)]
    for row in m:
        lines.append(" ".join(_format_entry(v) for v in row))
    return "\n".join(lines) + "\n"


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number the line and column as the parser would, up to the bad byte.
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(
            len(lines), len(lines[-1]), f"not valid UTF-8: byte 0x{data[exc.start]:02x}"
        ) from None
    return parse_matrix(text)


def save_matrix(path, matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_matrix(matrix))
