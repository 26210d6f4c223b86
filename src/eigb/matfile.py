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
:class:`WrongEntryCount`); text with no token at all raises
:class:`ParseError` with no position.

A well-formed text has its numbers converted by numpy's C text reader
(``np.loadtxt``), which reads a field to the same bits as ``float()`` or
rejects it; ``float()`` converts the fields that reader does not read
(``1_0``, non-ASCII digits).  Any other text is walked token by token, which
locates the error.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import NonFinite, NotSquare, ParseError, WrongEntryCount

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
        raise ParseError(None, None, "empty input, expected dimension") from None
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


# Classes of the bytes the structure check reads: ASCII whitespace (the
# characters str.split() splits on), "(", "," and ")".  Every other byte,
# each byte of a non-ASCII character included, is 0.
_SPACE, _OPEN, _COMMA, _CLOSE = 1, 2, 3, 4
_CLASSES = bytes(
    _SPACE if c.isspace() else {"(": _OPEN, ",": _COMMA, ")": _CLOSE}.get(c, 0)
    for c in map(chr, range(128))
) + bytes(128)
# Every classed character becomes a space, so the numbers stand on one line.
_NUMBERS = {c: " " for c in range(128) if _CLASSES[c]}


def _step(kind, next_kind, apart):
    """Index in `_STEPS` of a step from one classed byte to the next;
    `apart` is whether other bytes lie between them."""
    return (kind * 5 + next_kind) * 2 + apart


# The steps the grammar allows: whitespace follows whitespace, next to it
# or after a dimension or real entry; "(" follows whitespace next to it;
# "," follows "(", and ")" follows ",", each after a nonempty part; and
# whitespace follows ")" next to it.
_STEPS = np.zeros(50, dtype=bool)
_STEPS[[_step(_SPACE, _SPACE, 0), _step(_SPACE, _SPACE, 1), _step(_SPACE, _OPEN, 0),
        _step(_OPEN, _COMMA, 1), _step(_COMMA, _CLOSE, 1), _step(_CLOSE, _SPACE, 0)]] = True


def _parse_bulk(text: str) -> np.ndarray | None:
    """Parse well-formed text with one structure check and one conversion.

    numpy's text reader converts the numbers; a field it cannot read whole
    (``1_0``, non-ASCII digits) sends them all through ``float()``'s grammar
    instead.  Returns None for any text that `_parse_tokenwise` would reject
    (and for nothing else), without saying why.
    """
    # Leading comment lines are cut by position.  A comment line that holds
    # a line end other than its last "\n", and any "#" after them, go
    # through the walk's own line filter.
    start = 0
    while text.startswith("#", start):
        end = text.find("\n", start) + 1
        if not end or len(text[start:end].splitlines()) > 1:
            break
        start = end
    if text.find("#", start) == -1:
        text = text[start:]
    else:
        text = "\n".join([line for line in text[start:].splitlines() if not line.startswith("#")])
    if not text.isascii():
        # The classes below know only ASCII whitespace.
        text = " ".join(text.split())
    if not text[-1:].isspace():
        text += " "
    head, _, rest = text.translate(_NUMBERS).lstrip().partition(" ")
    try:
        n = int(head)
    except ValueError:
        return None
    # The classed bytes, in order, must read as the grammar's tokens: the
    # first and the last are whitespace, and every "(" opens a token
    # "(re,im)" with two nonempty parts and no whitespace, "," or
    # parenthesis inside.  Every other token holds no classed byte, so it is
    # one number, and each complex entry is two.  (A lone surrogate, which
    # only float() can reject, is encoded as any other non-ASCII character.)
    classes = np.frombuffer(
        text.encode("utf-8", "surrogatepass").translate(_CLASSES), dtype=np.uint8
    )
    pos = np.flatnonzero(classes != 0)
    kind = classes[pos]
    apart = pos[1:] - pos[:-1] > 1
    # A number is a run of unclassed bytes: one ends at each classed byte
    # that follows other bytes.  Python ints: n * n may exceed any numpy
    # integer.
    numbers = np.count_nonzero(apart) + int(pos[0] != 0)
    complex_count = int(np.count_nonzero(kind == _OPEN))
    if (
        n < 1
        or numbers != 1 + n * n + complex_count
        or kind[0] != _SPACE
        or text.lstrip().startswith("(")  # the dimension is a complex literal
        or not _STEPS[_step(kind[:-1], kind[1:], apart)].all()
    ):
        return None
    # The reader reads a field to float()'s bits or raises; float() then
    # decides, for what only it reads.
    try:
        values = np.loadtxt([rest], dtype=np.float64, comments=None, ndmin=1)
    except ValueError:
        try:
            values = np.array(rest.split(), dtype=np.float64)
        except ValueError:
            return None
    if not np.isfinite(values).all():
        return None
    # Each number follows a run of classed bytes that ends in whitespace (a
    # real entry), "(" (a real part) or "," (an imaginary part).  When the
    # text starts with whitespace, the first such run comes before the
    # dimension.  A real entry gets the imaginary part +0.0 after it.
    after = kind[:-1][apart][int(pos[0] == 0) :]
    values = np.insert(values, np.flatnonzero(after == _SPACE) + 1, 0.0)
    return values.view(np.complex128).reshape(n, n)


def parse_matrix(text: str) -> np.ndarray:
    """Parse the EIGB1 text format into a square complex matrix."""
    matrix = _parse_bulk(text)
    if matrix is None:
        # `_parse_bulk` accepts every valid text, so this raises the error
        # with its line and column (no position for a text with no token).
        matrix = _parse_tokenwise(text)
    return matrix


def _format_entry(value: complex) -> str:
    re_part, im_part = float(value.real), float(value.imag)
    # -0.0 == 0.0, so the sign bit decides: a real literal reads back as +0.0j.
    if im_part == 0.0 and math.copysign(1.0, im_part) > 0.0:
        return repr(re_part)
    return f"({re_part!r},{im_part!r})"


def write_matrix(matrix) -> str:
    """Serialize a square complex matrix; parse(write(m)) is entrywise identical.

    Raises NotSquare unless the matrix is n x n with n >= 1, and NonFinite
    for a NaN or infinite entry: the format holds neither.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or infinite entries")
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
    text = write_matrix(matrix)  # raises before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
