import numpy as np
import pytest

from pgthresh import io


def test_matrix_roundtrip(tmp_path):
    a = np.random.default_rng(0).standard_normal((4, 6))
    path = tmp_path / "a.txt"
    io.write_matrix(path, a)
    assert np.array_equal(io.read_matrix(path), a)
    with open(path, "a") as fh:  # trailing blank lines are fine
        fh.write("\n   \n")
    assert np.array_equal(io.read_matrix(path), a)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.5, -2.25e-8, 3.0])
    path = tmp_path / "v.txt"
    io.write_vector(path, v)
    assert np.array_equal(io.read_vector(path), v)


def test_vector_whitespace_layout(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("3\n1.0 2e1\n-3.5\n")
    assert np.allclose(io.read_vector(path), [1.0, 20.0, -3.5])


def test_matrix_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(io.ParseError):
        io.read_matrix(path)
    path.write_text("2 2\n1 2\n3\n")
    with pytest.raises(io.ParseError, match="expected 2 entries"):
        io.read_matrix(path)
    path.write_text("2 2\n1 2\n3 x\n")
    with pytest.raises(io.ParseError, match=":3:"):
        io.read_matrix(path)
    path.write_text("2\n1 2\n")
    with pytest.raises(io.ParseError, match="header"):
        io.read_matrix(path)
    path.write_text("2 2\n1 2\n3 4\n5 5\ngarbage here\n")
    with pytest.raises(io.ParseError, match=":4:.*found more"):
        io.read_matrix(path)


def test_vector_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\n")
    with pytest.raises(io.ParseError, match="expected 3 entries"):
        io.read_vector(path)
    path.write_text("x\n")
    with pytest.raises(io.ParseError):
        io.read_vector(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e999"])
def test_matrix_non_finite_entry_names_its_line(entry, tmp_path):
    path = tmp_path / "a.txt"
    path.write_text(f"3 2\n1 2\n3 {entry}\n5 6\n")  # data row 2 is line 3
    with pytest.raises(io.ParseError, match=r":3: non-finite entry in row 2"):
        io.read_matrix(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e999"])
def test_vector_non_finite_entry_names_its_index(entry, tmp_path):
    path = tmp_path / "v.txt"
    path.write_text(f"4\n1.0 2.0\n{entry} nan\n")  # the first is index 2
    with pytest.raises(io.ParseError, match=r"non-finite vector entry at index 2"):
        io.read_vector(path)


@pytest.mark.parametrize("text,expected", [
    ("3\n1 2\nx\n", r":3: non-numeric vector entry at index 2: 'x'"),
    ("3\nx 1 2\n", r":2: non-numeric vector entry at index 0: 'x'"),
    ("3\n1\n\n\n2 1,5\n", r":5: non-numeric vector entry at index 2: '1,5'"),
    ("4\n1.0 2.0\nnan 3\n", r":3: non-finite vector entry at index 2"),
    ("2\n1e999\n-inf\n", r":2: non-finite vector entry at index 0"),
    # a count mismatch is a property of the whole file and stays on line 1
    ("3\n1 2 3\n4 inf x\n", r":1: expected 3 entries, found 6"),
], ids=["non-numeric-line-3", "non-numeric-first", "after-blank-lines",
        "nan", "overflow", "count-mismatch"])
def test_vector_entry_error_names_line_and_index(text, expected, tmp_path):
    path = tmp_path / "v.txt"
    path.write_text(text)
    with pytest.raises(io.ParseError, match=expected):
        io.read_vector(path)
