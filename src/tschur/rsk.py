"""Marked alphabet, P-matrices, biwords and the generalized RSK correspondence.

The alphabet is the chain 1' < 1 < 2' < 2 < ... ; primed letters are "marked".
The algorithms move a letter as the plain int x of its place in the chain,
marked when x & 1 and of value (x + 1) >> 1; an `Entry` is built only where the
API hands a letter out.  Insertion is BUMP (strict) for unmarked letters and
EQBUMP (weak) for marked ones, one bisection per row, and the output shape's
first row is the longest increasing subsequence length of the biword.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial

from .partitions import Partition


class Entry(int):
    """One letter k or k' of the marked alphabet.

    The integer value is the letter's place in the chain: k' is 2k - 1 and k
    is 2k, so letters compare, sort and bisect as plain integers.
    """

    __slots__ = ()

    def __new__(cls, value, marked=False):
        if value < 1:
            raise ValueError("letter values start at 1")
        return int.__new__(cls, 2 * value - (1 if marked else 0))

    def __getnewargs__(self):
        return self.value, self.marked

    @property
    def value(self):
        return (int(self) + 1) // 2

    @property
    def marked(self):
        return bool(self & 1)

    def __repr__(self):
        return f"Entry(value={self.value}, marked={self.marked})"

    def __str__(self):
        return f"{self.value}'" if self.marked else str(self.value)

    @classmethod
    def parse(cls, token):
        token = token.strip()
        if token.endswith("'"):
            return cls(int(token[:-1]), True)
        return cls(int(token), False)


_entry = partial(int.__new__, Entry)  # the Entry of a chain int, unchecked


def _row_step(a, b):
    """May b follow a along a row (or in a biword block)?  Weakly increasing,
    and a letter repeats only unmarked."""
    return a < b or (a == b and not a & 1)


def _col_step(a, b):
    """May b sit below a in a column?  Weakly increasing, and a letter
    repeats only marked."""
    return a < b or (a == b and a & 1)


class PMatrix:
    """Rectangular matrix over the marked alphabet plus 0 (stored as None)."""

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries:
            raise ValueError("matrix needs at least one row")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged matrix")
        for row in entries:
            for e in row:
                if e is not None and not isinstance(e, Entry):
                    raise TypeError(f"bad entry {e!r}")
        self.entries = entries
        self.m = len(entries)
        self.n = width

    def abs_entry(self, i, j):
        e = self.entries[i][j]
        return 0 if e is None else e.value

    def row_type(self):
        return [sum(self.abs_entry(i, j) for j in range(self.n)) for i in range(self.m)]

    def col_type(self):
        return [sum(self.abs_entry(i, j) for i in range(self.m)) for j in range(self.n)]

    def mark(self):
        return sum(1 for row in self.entries for e in row if e is not None and e.marked)

    def __eq__(self, other):
        return isinstance(other, PMatrix) and self.entries == other.entries

    def to_text(self):
        return "\n".join(
            " ".join("0" if e is None else str(e) for e in row) for row in self.entries
        )

    @classmethod
    def from_text(cls, text):
        rows = []
        for lineno, line in enumerate(text.strip().splitlines(), start=1):
            row = []
            for colno, tok in enumerate(line.split(), start=1):
                if tok == "0":
                    row.append(None)
                else:
                    try:
                        row.append(Entry.parse(tok))
                    except ValueError as exc:
                        raise ValueError(
                            f"bad token {tok!r} at line {lineno}, column {colno}"
                        ) from exc
            rows.append(row)
        return cls(rows)

    def __repr__(self):
        return f"PMatrix({self.to_text()!r})"


class Biword:
    """Two-line array: weakly increasing uppers over marked-alphabet lowers,
    held as two int lists (the lowers as chain ints)."""

    def __init__(self, pairs):
        pairs = list(pairs)
        if not all(isinstance(low, Entry) for _, low in pairs):
            raise TypeError("lower line must consist of alphabet letters")
        self.upper, self.lower = [int(u) for u, _ in pairs], [int(a) for _, a in pairs]

    @classmethod
    def _of(cls, upper, lower):
        w = cls.__new__(cls)
        w.upper, w.lower = upper, lower
        return w

    def __len__(self):
        return len(self.upper)

    def __iter__(self):
        return zip(self.upper, map(_entry, self.lower))

    def __eq__(self, other):
        return isinstance(other, Biword) and (self.upper, self.lower) == (other.upper, other.lower)

    def uppers(self):
        return list(self.upper)

    def lowers(self):
        return [_entry(a) for a in self.lower]

    def __repr__(self):
        return f"Biword({' '.join(map(str, self.upper))} / {' '.join(map(str, self.lowers()))})"


class _Tableau:
    """Rows of a Young diagram; `type` counts the entries by `_value`."""

    def __init__(self, rows=()):
        self.rows = [list(r) for r in rows]

    def shape(self):
        return Partition([len(r) for r in self.rows])

    def type(self):
        counts = Counter(self._value(x) for row in self.rows for x in row)
        return [counts[k] for k in range(1, max(counts, default=0) + 1)]

    def copy(self):
        return self.__class__(self.rows)

    def __eq__(self, other):
        return isinstance(other, self.__class__) and self.rows == other.rows

    def __repr__(self):
        body = "; ".join(" ".join(map(str, r)) for r in self.rows)
        return f"{self.__class__.__name__}[{body}]"


class MarkedTableau(_Tableau):
    """Filling of a Young diagram by the marked alphabet obeying T1 and T2."""

    _value = operator.attrgetter("value")

    def __init__(self, rows=()):
        super().__init__(map(_entry, r) for r in rows)

    def mark(self):
        return sum(1 for row in self.rows for e in row if e.marked)


class RecordingTableau(_Tableau):
    """Semistandard tableau over the positive integers."""

    _value = int

    def __init__(self, rows=()):
        super().__init__(map(int, r) for r in rows)


def _is_filling(rows, row_step, col_step):
    """Row lengths weakly decrease, and every pair of neighbours obeys
    `row_step` along a row and `col_step` down a column."""
    return (all(len(up) >= len(low) for up, low in zip(rows, rows[1:]))
            and all(row_step(a, b) for row in rows for a, b in zip(row, row[1:]))
            and all(col_step(a, b) for up, low in zip(rows, rows[1:])
                    for a, b in zip(up, low)))


def validate_marked_tableau(t):
    """True iff the filling satisfies T1 (monotone rows/columns) and T2 (at
    most one k' per row, at most one k per column)."""
    return _is_filling(t.rows, _row_step, _col_step)


def validate_recording_tableau(t):
    return (all(v >= 1 for row in t.rows for v in row)
            and _is_filling(t.rows, operator.le, operator.lt))


def validate_biword(w):
    """Check the upper-line ordering and the block conditions.  These imply
    the marking rule, that only the first letter of an (upper, value) group
    may be marked: a marked k' can follow neither k' nor k in a block."""
    up, low = w.upper, w.lower
    return all(u1 < u2 or (u1 == u2 and _row_step(a1, a2))
               for u1, u2, a1, a2 in zip(up, up[1:], low, low[1:]))


def biword_from_matrix(a):
    """Read the matrix row-major: (i,j) repeated |a_ij| times, first copy marked."""
    upper, lower = [], []
    for i, row in enumerate(a.entries, 1):
        for j, e in enumerate(row):
            if e is not None:
                count, letter = (e + 1) >> 1, 2 * j + 2
                upper += [i] * count
                lower += [letter - (e & 1)] + [letter] * (count - 1)
    return Biword._of(upper, lower)


def matrix_from_biword(w, m, n):
    """Inverse of biword_from_matrix; rejects words outside the valid image."""
    if not validate_biword(w):
        raise ValueError("invalid biword")
    entries = [[0] * n for _ in range(m)]
    for u, a in zip(w.upper, w.lower):
        j = (a + 1) >> 1
        if not 0 < u <= m or j > n:
            raise ValueError("biword letter outside the matrix dimensions")
        # a group is contiguous, its first letter alone marked: count up from it
        e = entries[u - 1][j - 1]
        entries[u - 1][j - 1] = e + 2 if e else 2 - (a & 1)
    return PMatrix([[_entry(e) if e else None for e in row] for row in entries])


def _bump(rows, letter):
    """Insert `letter` into `rows` in place; returns (row, col) of the added
    cell.  A marked letter bumps the leftmost entry >= it (EQBUMP), an
    unmarked one the leftmost entry > it (BUMP)."""
    for r, row in enumerate(rows):
        pos = (bisect_left if letter & 1 else bisect_right)(row, letter)
        if pos == len(row):
            row.append(letter)
            return r, pos
        letter, row[pos] = row[pos], letter
    rows.append([letter])
    return len(rows) - 1, 0


def insert(tableau, alpha):
    """Insert one letter; returns (new tableau, (row, col)) of the added cell."""
    t = tableau.copy()
    return t, _bump(t.rows, alpha)


def rsk(a):
    """Generalized RSK: P-matrix -> (insertion tableau, recording tableau)."""
    w = biword_from_matrix(a)
    rows, u = [], RecordingTableau()
    for upper, lower in zip(w.upper, w.lower):
        r, _ = _bump(rows, lower)
        if r == len(u.rows):
            u.rows.append([])
        u.rows[r].append(upper)
    return MarkedTableau(rows), u


class InverseRSKError(ValueError):
    """Raised when a tableau pair is not in the image of rsk."""


def _reverse_insert(rows, start_row):
    """Undo the insertion whose cascade ended by appending in `start_row`.

    Removes the last cell of that row and walks back up, each letter taking
    the place of the rightmost entry < it (<= it if marked), the mirror of
    `_bump`; returns the letter that was originally inserted into row 0.
    """
    gamma = rows[start_row].pop()
    if not rows[start_row]:
        rows.pop()
    for row in reversed(rows[:start_row]):
        pos = (bisect_right if gamma & 1 else bisect_left)(row, gamma) - 1
        if pos < 0:
            raise InverseRSKError("no reverse bump candidate; pair not in the image")
        gamma, row[pos] = row[pos], gamma
    return gamma


def inverse_rsk(s, u, m, n):
    """Rebuild the m x n P-matrix from a tableau pair of equal shape.

    Reverse insertions run in decreasing recording value, ties right-to-left.
    """
    if s.shape() != u.shape():
        raise InverseRSKError("shape mismatch")
    if not validate_marked_tableau(s):
        raise InverseRSKError("invalid marked tableau")
    if not validate_recording_tableau(u):
        raise InverseRSKError("invalid recording tableau")
    cells = [(u.rows[r][c], c, r) for r in range(len(u.rows)) for c in range(len(u.rows[r]))]
    cells.sort(reverse=True)  # by (value, column) descending
    rows = [list(map(int, r)) for r in s.rows]
    upper, lower = [], []
    for value, c, r in cells:
        # the cell being removed must currently be the last of its row
        if r >= len(rows) or len(rows[r]) != c + 1:
            raise InverseRSKError("recording entries do not peel off corners")
        upper.append(value)
        lower.append(_reverse_insert(rows, r))
    return matrix_from_biword(Biword._of(upper[::-1], lower[::-1]), m, n)


def _lis_keys(letters):
    """Patience-sorting LIS of a sequence of letters.

    A letter may follow a weakly smaller one, except that equal marked letters
    cannot repeat: unmarked letters extend ties (bisect_right), marked ones do
    not (bisect_left).
    """
    tails = []
    for a in letters:
        pos = (bisect_left if a & 1 else bisect_right)(tails, a)
        if pos == len(tails):
            tails.append(a)
        else:
            tails[pos] = a
    return len(tails)


def longest_increasing(w):
    """Length of the longest increasing subsequence of the lower line."""
    return _lis_keys(w.lower)
