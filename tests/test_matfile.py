"""EIGB1 matrix text format: grammar, errors, round-trip stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigb.errors import EigbError, NonFinite, NotSquare, ParseError, WrongEntryCount
from eigb.matfile import (
    _parse_bulk,
    _parse_tokenwise,
    load_matrix,
    parse_matrix,
    save_matrix,
    write_matrix,
)

EXAMPLE_A_TEXT = "3\n1 2 0\n2 1 0\n0 0 -4\n"


def test_parse_example_matrix():
    m = parse_matrix(EXAMPLE_A_TEXT)
    np.testing.assert_array_equal(
        m, np.array([[1, 2, 0], [2, 1, 0], [0, 0, -4]], dtype=complex)
    )


def test_parse_complex_entry():
    m = parse_matrix("1\n(0,1)")
    assert m.shape == (1, 1)
    assert m[0, 0] == 1j


def test_parse_scientific_notation():
    m = parse_matrix("2\n-4.0 2 1e-3 (1.5e2,-0.25)")
    assert m[0, 0] == -4.0
    assert m[1, 0] == 1e-3
    assert m[1, 1] == complex(150.0, -0.25)


def test_comments_ignored():
    m = parse_matrix("# header\n2\n# row one\n1 0\n0 1\n")
    np.testing.assert_array_equal(m, np.eye(2, dtype=complex))


def test_too_few_entries():
    with pytest.raises(WrongEntryCount):
        parse_matrix("2\n1 2 3")


def test_too_many_entries():
    with pytest.raises(WrongEntryCount):
        parse_matrix("2\n1 2 3 4 5")


def test_bad_token_reports_position():
    with pytest.raises(ParseError) as err:
        parse_matrix("2\n1 2\nx 4")
    assert err.value.line == 3
    assert err.value.column == 1


def test_malformed_complex():
    with pytest.raises(ParseError):
        parse_matrix("1\n(1,2,3)")
    with pytest.raises(ParseError):
        parse_matrix("1\n(1)")


def test_non_finite_rejected():
    with pytest.raises(ParseError):
        parse_matrix("1\nnan")
    with pytest.raises(ParseError):
        parse_matrix("1\ninf")


def test_bad_dimension():
    with pytest.raises(ParseError):
        parse_matrix("zero\n")
    with pytest.raises(ParseError):
        parse_matrix("0\n")
    with pytest.raises(ParseError):
        parse_matrix("")


def test_round_trip_example():
    m = parse_matrix(EXAMPLE_A_TEXT)
    again = parse_matrix(write_matrix(m))
    np.testing.assert_array_equal(m, again)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.integers(1, 5), st.data())
def test_round_trip_random(n, data):
    entries = data.draw(
        st.lists(st.tuples(finite, finite), min_size=n * n, max_size=n * n)
    )
    m = np.array([complex(re, im) for re, im in entries]).reshape(n, n)
    again = parse_matrix(write_matrix(m))
    assert again.tobytes() == m.tobytes()


@pytest.mark.parametrize("parse", [parse_matrix, _parse_tokenwise])
def test_round_trip_signed_zeros(parse):
    # -0.0 == 0.0, so only the sign bits show whether a zero kept its sign.
    m = np.array(
        [[complex(1.0, -0.0), complex(-0.0, 0.0)], [complex(-0.0, -0.0), complex(0.0, 0.0)]]
    )
    again = parse(write_matrix(m))
    assert np.array_equal(np.signbit(again.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(again.imag), np.signbit(m.imag))


@pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,), (2, 2, 2)])
def test_write_rejects_non_square(shape, tmp_path):
    # The format holds only n x n matrices with n >= 1: anything else would
    # be written as a file that parse_matrix rejects.
    with pytest.raises(NotSquare):
        write_matrix(np.ones(shape))
    with pytest.raises(NotSquare):
        save_matrix(tmp_path / "m.mat", np.ones(shape))
    assert not (tmp_path / "m.mat").exists()


@pytest.mark.parametrize(
    "entry", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, -np.inf)]
)
def test_write_rejects_non_finite(entry, tmp_path):
    m = np.eye(2, dtype=complex)
    m[1, 0] = entry
    with pytest.raises(NonFinite):
        write_matrix(m)
    with pytest.raises(NonFinite):
        save_matrix(tmp_path / "m.mat", m)
    assert not (tmp_path / "m.mat").exists()


def test_save_load_round_trip(tmp_path):
    m = np.array([[1.5, complex(2.0, -0.5)], [complex(2.0, 0.5), -3.0]])
    save_matrix(tmp_path / "m.mat", m)
    assert load_matrix(tmp_path / "m.mat").tobytes() == m.tobytes()


def _outcome(parse, text):
    """What `parse` makes of `text`: the matrix's bytes, or the error."""
    try:
        m = parse(text)
    except EigbError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return m.shape, m.dtype, m.tobytes()


def _assert_parity(text):
    """The bulk path accepts exactly the texts the token walk accepts, with
    bit-identical matrices, and parse_matrix raises the walk's errors."""
    expected = _outcome(_parse_tokenwise, text)
    assert _outcome(parse_matrix, text) == expected
    bulk = _parse_bulk(text)
    if isinstance(expected[0], type):
        assert bulk is None
    else:
        assert bulk is not None
        assert (bulk.shape, bulk.dtype, bulk.tobytes()) == expected


_SEPARATORS = [" ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\u2028"]
_JUNK = st.text(alphabet="0123456789.eE+-_()#,xnaif", max_size=8)
_GOOD_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-99, 99).map(str),
    st.sampled_from(["1_0", "+.5", "5.", "-0", "1E3", "١٢"]),
)
_BAD_NUMBER = st.one_of(st.sampled_from(["1e400", "nan", "-inf", "0x1p3"]), _JUNK)
_GOOD_COMPLEX = st.tuples(_GOOD_NUMBER, _GOOD_NUMBER).map("({0[0]},{0[1]})".format)
_GOOD_ENTRY = st.one_of(_GOOD_NUMBER, _GOOD_COMPLEX)
# Structural defects of one entry.
_DEFECTS = st.sampled_from(
    [
        lambda t: "(" + t,
        lambda t: t + ")",
        lambda t: "(" + t + ")",
        lambda t: t[:-1],
        lambda t: t[1:],
        lambda t: t + t,
        lambda t: "x" + t,
        lambda t: t + ",5",
    ]
)


@st.composite
def _eigb1_texts(draw):
    """EIGB1 texts, valid or with one defect."""
    n = draw(st.integers(1, 3))
    tokens = [str(n)] + draw(st.lists(_GOOD_ENTRY, min_size=n * n, max_size=n * n))
    i = n * n - draw(st.integers(0, n * n - 1))  # the last entry most often
    defect = draw(
        st.sampled_from(["none", "number", "entry", "move", "move", "count", "dimension", "indent"])
    )
    if defect == "number":
        bad = draw(_BAD_NUMBER)
        tokens[i] = draw(st.sampled_from([bad, f"({bad},1)", f"(1,{bad})"]))
    elif defect == "entry":
        tokens[i] = draw(_DEFECTS)(tokens[i])
    elif defect == "move":
        # Move a comma or parenthesis of complex entry j into a number of
        # complex entry i, which keeps the text's count of each:
        # "(1,2) (34,5)" -> "(12) (3,4,5)".  Entry j's imaginary part is a
        # digit string, so "(12)" still holds one number.
        j = draw(st.integers(1, n * n))
        tokens[i] = draw(_GOOD_COMPLEX)
        tokens[j] = f"({draw(_GOOD_NUMBER)},{draw(st.integers(0, 99))})"
        moved = draw(st.sampled_from(",,,()"))
        cut = tokens[j].index(moved)
        tokens[j] = tokens[j][:cut] + tokens[j][cut + 1 :]
        t = tokens[i]
        inside = [a for a in range(1, len(t)) if not {t[a - 1], t[a]} & set("(),")]
        at = draw(st.sampled_from(inside or [0]))
        tokens[i] = t[:at] + moved + t[at:]
    elif defect == "count":
        if draw(st.booleans()):
            tokens.insert(i, "1")
        else:
            del tokens[i]
    elif defect == "dimension":
        tokens[0] = draw(st.sampled_from(["", "0", "-1", "2.0", "x"]))
    text = draw(st.sampled_from(["", "# EIGB1\n", "#\n"]))
    for k, token in enumerate(tokens):
        if defect == "indent" and k == i:
            text += "\n  # not a comment\n"
        text += token + draw(st.sampled_from(_SEPARATORS))
        if draw(st.integers(0, 9)) == 0:
            text += draw(st.sampled_from(["\n# note\n", "\n#\n"]))
    return text


_NOISE = st.lists(
    st.sampled_from(list("0123456789.eE+-_()#,xnaif") + _SEPARATORS), max_size=40
).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_eigb1_texts(), _eigb1_texts(), _eigb1_texts(), _NOISE))
def test_bulk_matches_token_walk(text):
    _assert_parity(text)


_MALFORMED = [
    "1\n(1,2)(3,4)",  # one malformed token, not two entries
    "2\n(1,2,3) (4) 5 6",
    "1\n(1,,2)",
    "1\n(,1)",
    "1\nx(1,2)",
    "1\n1(2,3)",
    "1\n  # not a comment\n5",
    "1\n(1e400,0)",
    "2\n1 2 3 (4,55",  # unterminated last entry
]


@pytest.mark.parametrize("text", _MALFORMED)
def test_malformed_entry_parity(text):
    with pytest.raises(ParseError):
        parse_matrix(text)
    _assert_parity(text)


def _complex_only_text(m):
    rows = [" ".join(f"({float(v.real)!r},{float(v.imag)!r})" for v in row) for row in m]
    return "\n".join(["# EIGB1", str(len(m))] + rows) + "\n"


@pytest.mark.parametrize("n", [*range(1, 41), 64, 128])
@pytest.mark.parametrize("writer", [write_matrix, _complex_only_text])
def test_large_files_bit_identical(n, writer):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    m = m + 1j * np.where(rng.random((n, n)) < 0.5, 0.0, rng.standard_normal((n, n)))
    text = writer(m)
    assert np.array_equal(parse_matrix(text), m)
    _assert_parity(text)


def test_invalid_utf8_reports_position(tmp_path):
    path = tmp_path / "bad.mat"
    # U+2028 ends a line, as str.splitlines sees it.
    path.write_bytes("2\n1 \u2028 0\n0 é".encode() + b"\xff1\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (4, 4)
    assert "UTF-8" in err.value.reason


def _filler(count):
    """`count` valid entries, real and complex in turn."""
    return [f"{k}.5" if k % 2 else f"(-{k}.25,{k}e-3)" for k in range(count)]


def _valid_text(n, header="# EIGB1\n"):
    rows = np.reshape(_filler(n * n), (n, n))
    return header + f"{n}\n" + "".join(" ".join(row) + "\n" for row in rows)


def _in_large_file(text, n=32):
    """`text`'s entries (the lines after its dimension) in the middle of the
    valid entries of an n x n file, which then holds n*n entries where
    `text` held its own dimension squared."""
    dim, body = text.split("\n", 1)
    lead = _filler(n * n - int(dim) ** 2)
    half = len(lead) // 2
    return f"# EIGB1\n{n}\n{' '.join(lead[:half])}\n{body}\n{' '.join(lead[half:])}\n"


# Defects that keep the count of numbers a valid text of that dimension
# holds, so that only the order of the parentheses, commas and whitespace
# tells them apart (as in the first two cases of _MALFORMED).
_COUNT_KEEPING = [
    "1\n(,5) 7",  # an empty real part, and one entry too many
    "1\n(5,) 7",  # an empty imaginary part, and one entry too many
    "2\n1 5(2,3) 4",  # a number glued before "(", and one entry too few
    "2\n1 (2,3)5 4",  # a number glued after ")", and one entry too few
    "2\n1 (2 3) 4 5",  # whitespace inside a complex literal
    "1\n( (1,2) 3",  # a lone "(", and one entry too many
]


@pytest.mark.parametrize("text", _MALFORMED + _COUNT_KEEPING)
def test_malformed_entry_parity_in_large_file(text):
    large = _in_large_file(text)
    with pytest.raises(ParseError):
        parse_matrix(large)
    _assert_parity(large)


@pytest.mark.parametrize(
    "text",
    _COUNT_KEEPING
    + [
        "1(5,6)",  # an entry glued to the dimension
        " (1,1) 5",  # a complex literal as the dimension, after whitespace
        "(1,1) 5",
        "1\n\ud800",  # a lone surrogate: only float() rejects it
        "1\n(\ud800,1)",
    ],
)
def test_count_keeping_defect_parity(text):
    with pytest.raises(ParseError):
        parse_matrix(text)
    _assert_parity(text)


@pytest.mark.parametrize("text", ["3037000500 1", "99999999999 (1,2) 3"])
def test_huge_dimension_parity(text):
    # n * n is beyond any numpy integer.
    with pytest.raises(WrongEntryCount):
        parse_matrix(text)
    _assert_parity(text)


@pytest.mark.parametrize(
    "text", [" 2\n1 (2,3) 4 5", "\n\n2\n(1,2) 3\n4 (5,-6)\n", "#\n \t2 (1,2) 3 4 (5,6)"]
)
def test_leading_whitespace_with_real_entries(text):
    _assert_parity(text)


@pytest.mark.parametrize("line_end", ["\r\n", "\x0b", "\u2028"])
def test_header_line_ends_in_large_file(line_end):
    text = _valid_text(32, "# EIGB1" + line_end)
    _assert_parity(text)


def test_comment_line_mid_body_in_large_file():
    text = _valid_text(32)
    cut = text.index("\n", len(text) // 2) + 1
    text = text[:cut] + "# note\n" + text[cut:]
    _assert_parity(text)


@pytest.mark.parametrize("change", [("1.5", "\u0661.5"), (" ", "\u00a0")])
def test_non_ascii_in_large_file(change):
    # An Arabic-Indic digit one reads as 1; a no-break space separates tokens.
    header, body = _valid_text(64).split("\n", 1)
    text = header + "\n" + body.replace(*change, 1)
    assert change[1] in text
    _assert_parity(text)


# Fields a converter more lenient than float() would read (or read to a
# finite value), each one entry of a large file: numpy's reader must reject
# them as the token walk does.
_STRICT = ["1-2", "1e5e", "0x1p3", "1.5.3", "+-1", ".", "e5", "1e", "nan", "-inf", "1e400"]


@pytest.mark.parametrize("form", ["{}", "({},1)", "(1,{})"])
@pytest.mark.parametrize("field", _STRICT)
def test_strict_fields_in_large_file(field, form):
    text = _in_large_file("1\n" + form.format(field))
    with pytest.raises(ParseError):
        parse_matrix(text)
    _assert_parity(text)


@pytest.mark.parametrize("form", ["{}", "({},1)", "(1,{})"])
@pytest.mark.parametrize("field", ["1_0", "\u0661\u0662"])
def test_float_only_fields_in_large_file(field, form):
    # float() reads these (10 and 12); numpy's reader does not, so the bulk
    # path converts the numbers again through float()'s grammar.
    text = _in_large_file("1\n" + form.format(field))
    assert _parse_bulk(text) is not None
    _assert_parity(text)
