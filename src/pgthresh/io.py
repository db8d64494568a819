"""Plain-text matrix/vector file formats.

Matrix file: first line ``m n``, then m lines of n whitespace-separated
numbers, then only blank lines.  Vector file: first line ``n``, then n
numbers (free whitespace layout).  UTF-8, '.' decimal separator,
scientific notation accepted.
"""

from __future__ import annotations

import math

import numpy as np


class ParseError(ValueError):
    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


def read_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected header 'm n'")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(path, 1, f"expected header 'm n', got {lines[0]!r}")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(path, 1, f"non-integer dimensions in {lines[0]!r}") from None
    if m < 1 or n < 1:
        raise ParseError(path, 1, f"dimensions must be positive, got {m}x{n}")
    if len(lines) < m + 1:
        raise ParseError(path, len(lines), f"expected {m} data rows, found {len(lines) - 1}")
    rows = []
    for i in range(m):
        parts = lines[i + 1].split()
        if len(parts) != n:
            raise ParseError(path, i + 2, f"expected {n} entries, found {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ParseError(path, i + 2, f"non-numeric entry in row {i + 1}") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(path, i + 2, f"non-finite entry in row {i + 1}")
        rows.append(row)
    for i, line in enumerate(lines[m + 1:], start=m + 2):
        if line.strip():
            raise ParseError(path, i, f"expected {m} data rows, found more: {line!r}")
    return np.asarray(rows, dtype=float)


def read_vector(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # (line number, token) for every whitespace-separated token
    tokens = [(i, t) for i, line in enumerate(lines, start=1) for t in line.split()]
    if not tokens:
        raise ParseError(path, 1, "empty file, expected header 'n'")
    line, header = tokens[0]
    try:
        n = int(header)
    except ValueError:
        raise ParseError(path, line, f"expected integer length, got {header!r}") from None
    if len(tokens) - 1 != n:
        raise ParseError(path, 1, f"expected {n} entries, found {len(tokens) - 1}")
    v = np.empty(n)
    for index, (line, token) in enumerate(tokens[1:]):
        try:
            v[index] = float(token)
        except ValueError:
            raise ParseError(path, line, f"non-numeric vector entry at index {index}: "
                             f"{token!r}") from None
        if not math.isfinite(v[index]):
            raise ParseError(path, line, f"non-finite vector entry at index {index}")
    return v


def write_vector(path, v) -> None:
    v = np.asarray(v, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{v.size}\n")
        for x in v:
            fh.write(f"{x:.17g}\n")


def write_matrix(path, a) -> None:
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n}\n")
        for row in a:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
