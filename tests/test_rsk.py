"""Marked RSK: insertion, bijectivity, the LIS theorem, and conservation laws."""

import copy
import hashlib
import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tschur.measure import MeasureParams, sample_matrix
from tschur.rsk import (
    Biword,
    Entry,
    InverseRSKError,
    MarkedTableau,
    PMatrix,
    RecordingTableau,
    biword_from_matrix,
    insert,
    inverse_rsk,
    longest_increasing,
    matrix_from_biword,
    rsk,
    validate_biword,
    validate_marked_tableau,
    validate_recording_tableau,
)

EXAMPLE_TEXT = "1' 0 2\n2 1 2'\n1' 1' 0"


def E(tok):
    return Entry.parse(tok)


def test_entry_ordering_and_keys():
    # 1' < 1 < 2' < 2 < ...
    order = [E("1'"), E("1"), E("2'"), E("2"), E("3'")]
    assert all(order[i] < order[i + 1] for i in range(len(order) - 1))
    assert sorted(reversed(order)) == order
    assert [str(e) for e in sorted(order[::2] + order[1::2])] == ["1'", "1", "2'", "2", "3'"]
    # a letter is the integer of its place in the chain
    assert E("3'") == 5 and E("3") == 6
    assert (E("3'").value, E("3'").marked, E("3").value, E("3").marked) == (3, True, 3, False)


def test_entry_survives_pickle_and_copy():
    for e in (E("1'"), E("1"), E("3'"), E("12")):
        for back in [pickle.loads(pickle.dumps(e, proto)) for proto in range(6)] + [
            copy.copy(e), copy.deepcopy(e), copy.deepcopy([e])[0]
        ]:
            assert type(back) is Entry and back == e and str(back) == str(e)


def test_entry_parse_and_str_roundtrip():
    for tok in ("1", "1'", "12", "7'"):
        assert str(Entry.parse(tok)) == tok
    with pytest.raises(ValueError):
        Entry.parse("x")
    with pytest.raises(ValueError):
        Entry(0, False)


def test_matrix_text_roundtrip_and_stats():
    a = PMatrix.from_text(EXAMPLE_TEXT)
    assert a.to_text() == EXAMPLE_TEXT
    assert a.row_type() == [3, 5, 2]
    assert a.col_type() == [4, 2, 4]
    assert a.mark() == 4


def test_matrix_parse_error_location():
    with pytest.raises(ValueError, match="line 2, column 1"):
        PMatrix.from_text("1 0\nq 1")


def test_worked_example_biword():
    a = PMatrix.from_text(EXAMPLE_TEXT)
    w = biword_from_matrix(a)
    assert w.uppers() == [1, 1, 1, 2, 2, 2, 2, 2, 3, 3]
    assert [str(x) for x in w.lowers()] == [
        "1'", "3", "3", "1", "1", "2", "3'", "3", "1'", "2'",
    ]
    assert validate_biword(w)
    assert matrix_from_biword(w, 3, 3) == a


def test_worked_example_rsk():
    a = PMatrix.from_text(EXAMPLE_TEXT)
    s, u = rsk(a)
    assert [[str(e) for e in row] for row in s.rows] == [
        ["1'", "1", "1", "2'", "3'", "3"],
        ["1'", "2"],
        ["3", "3"],
    ]
    assert u.rows == [[1, 1, 1, 2, 2, 2], [2, 2], [3, 3]]
    assert tuple(s.shape().parts) == (6, 2, 2)
    assert longest_increasing(biword_from_matrix(a)) == 6
    assert inverse_rsk(s, u, 3, 3) == a


def test_api_edge_hands_out_entries():
    # the algorithms move chain ints; every letter they hand out is an Entry
    a = PMatrix.from_text(EXAMPLE_TEXT)
    w = biword_from_matrix(a)
    s, u = rsk(a)
    back = inverse_rsk(s, u, 3, 3)
    for letters in ([low for _, low in w], w.lowers(), [e for row in s.rows for e in row],
                    [e for row in back.entries for e in row if e is not None]):
        assert all(type(e) is Entry for e in letters)
        assert [(e.value, e.marked) for e in letters] == [
            (int(str(e).rstrip("'")), str(e).endswith("'")) for e in letters]
    assert [(up, str(low)) for up, low in w] == list(zip(
        [1, 1, 1, 2, 2, 2, 2, 2, 3, 3], "1' 3 3 1 1 2 3' 3 1' 2'".split()))
    assert Biword(list(w)) == w and repr(w) == "Biword(1 1 1 2 2 2 2 2 3 3 / 1' 3 3 1 1 2 3' 3 1' 2')"
    assert [str(e) for row in back.entries for e in row if e] == "1' 2 2 1 2' 1' 1'".split()
    t, cell = insert(s, E("2'"))
    assert cell == (3, 0) and [[str(e) for e in row] for row in t.rows] == [
        ["1'", "1", "1", "2'", "3'", "3"], ["1'", "2'"], ["2", "3"], ["3"]]
    assert all(type(e) is Entry for row in t.rows for e in row)


_LETTERS = st.one_of(st.none(), st.builds(Entry, st.integers(1, 6), st.booleans()))


@st.composite
def _marked_matrices(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    return PMatrix([[draw(_LETTERS) for _ in range(n)] for _ in range(m)])


@settings(max_examples=200, deadline=None)
@given(_marked_matrices())
def test_round_trip_sweep(a):
    w = biword_from_matrix(a)
    assert validate_biword(w) and matrix_from_biword(w, a.m, a.n) == a
    s, u = rsk(a)
    assert validate_marked_tableau(s) and validate_recording_tableau(u)
    assert s.mark() == a.mark() and longest_increasing(w) == s.shape().first_row()
    back = inverse_rsk(s, u, a.m, a.n)
    assert back == a and back.to_text() == a.to_text()
    assert all(type(e) is Entry for row in back.entries for e in row if e is not None)


def test_eqbump_vs_bump():
    base = MarkedTableau([[E("1'"), E("1")]])
    # marked letters displace equal letters (EQBUMP)
    t, (r, c) = insert(base, E("1'"))
    assert (r, c) == (1, 0)
    assert [[str(e) for e in row] for row in t.rows] == [["1'", "1"], ["1'"]]
    # unmarked letters pass over equals (BUMP)
    t, (r, c) = insert(base, E("1"))
    assert (r, c) == (0, 2)
    assert [str(e) for e in t.rows[0]] == ["1'", "1", "1"]


def test_tableau_validators():
    good = MarkedTableau([[E("1'"), E("1")], [E("1'")]])
    assert validate_marked_tableau(good)
    # two identical marked letters in one row violate T2
    bad_row = MarkedTableau([[E("1'"), E("1'")]])
    assert not validate_marked_tableau(bad_row)
    # two identical unmarked letters in one column violate T2
    bad_col = MarkedTableau([[E("1")], [E("1")]])
    assert not validate_marked_tableau(bad_col)
    assert validate_recording_tableau(RecordingTableau([[1, 1], [2]]))
    assert not validate_recording_tableau(RecordingTableau([[1], [1]]))


def test_biword_marking_rule():
    # only the first copy of a group may be marked
    bad = Biword([(1, E("2'")), (1, E("2'"))])
    assert not validate_biword(bad)
    with pytest.raises(ValueError):
        matrix_from_biword(bad, 1, 2)


@pytest.mark.parametrize("pairs", [[(0, E("1"))], [(3, E("1"))], [(1, E("3'"))]])
def test_matrix_from_biword_rejects_letters_outside_the_matrix(pairs):
    # an upper 0 must not wrap round to the last row
    with pytest.raises(ValueError, match="outside the matrix"):
        matrix_from_biword(Biword(pairs), 2, 2)
    # nor a lower letter below 1' to the last column
    for lower in ([0], [-1]):
        with pytest.raises(ValueError, match="outside the matrix"):
            matrix_from_biword(Biword._of([1], lower), 1, 3)


def test_letters_and_uppers_must_be_integers():
    # a float or a str used to be truncated: Entry(1.5) was the letter 2'
    for value in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            Entry(value)
    with pytest.raises(TypeError):
        Biword([(1.7, Entry(1))])
    assert Entry(np.int64(2), True) == E("2'")
    assert Biword([(np.int64(2), E("1"))]).upper == [2]


def _all_matrices_2x2(max_abs):
    letters = [None] + [
        Entry(v, mk) for v in range(1, max_abs + 1) for mk in (False, True)
    ]
    for picks in itertools.product(letters, repeat=4):
        yield PMatrix([[picks[0], picks[1]], [picks[2], picks[3]]])


def test_exhaustive_2x2_roundtrip_and_theorem3():
    seen = set()
    count = 0
    for a in _all_matrices_2x2(2):
        count += 1
        s, u = rsk(a)
        assert validate_marked_tableau(s)
        assert validate_recording_tableau(u)
        assert s.shape() == u.shape()
        # conservation: S carries the column letters, U the row letters
        def pad(tp, k):
            return list(tp) + [0] * (k - len(tp))

        assert pad(s.type(), 2) == a.col_type()
        assert pad(u.type(), 2) == a.row_type()
        assert s.mark() == a.mark()
        # Theorem 3 and bijectivity
        assert longest_increasing(biword_from_matrix(a)) == s.shape().first_row()
        assert inverse_rsk(s, u, 2, 2) == a
        seen.add(repr((s.rows, u.rows)))
    assert count == 625
    assert len(seen) == 625  # rsk is injective on this family


def _random_matrix(rng, m, n, max_abs):
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            v = int(rng.integers(0, max_abs + 1))
            if v == 0:
                row.append(None)
            else:
                row.append(Entry(v, bool(rng.integers(0, 2))))
        rows.append(row)
    return PMatrix(rows)


def test_randomized_3x3_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        a = _random_matrix(rng, 3, 3, 3)
        s, u = rsk(a)
        assert s.shape() == u.shape()
        assert inverse_rsk(s, u, 3, 3) == a
        assert longest_increasing(biword_from_matrix(a)) == s.shape().first_row()


def _lis_bruteforce(lowers):
    """Longest weakly increasing subsequence, marked letters at most once each."""
    best = 0
    n = len(lowers)
    for mask in range(1 << n):
        sub = [lowers[i] for i in range(n) if (mask >> i) & 1]
        if any(sub[i] > sub[i + 1] for i in range(len(sub) - 1)):
            continue
        marked = [x for x in sub if x.marked]
        if len(marked) != len(set(marked)):
            continue
        best = max(best, len(sub))
    return best


def test_lis_against_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(300):
        length = int(rng.integers(0, 9))
        lowers = [
            Entry(int(rng.integers(1, 4)), bool(rng.integers(0, 2)))
            for _ in range(length)
        ]
        w = Biword([(1, a) for a in lowers])
        assert longest_increasing(w) == _lis_bruteforce(lowers)


def _classical_rsk(matrix):
    """Textbook RSK on a nonnegative integer matrix (insertion by bumping)."""
    p_rows, q_rows = [], []
    for i, row in enumerate(matrix, start=1):
        for j, mult in enumerate(row, start=1):
            for _ in range(mult):
                cur, r = j, 0
                while True:
                    if r == len(p_rows):
                        p_rows.append([cur])
                        q_rows.append([i])
                        break
                    row_r = p_rows[r]
                    pos = None
                    for idx, v in enumerate(row_r):
                        if v > cur:
                            pos = idx
                            break
                    if pos is None:
                        row_r.append(cur)
                        q_rows[r].append(i)
                        break
                    cur, row_r[pos] = row_r[pos], cur
                    r += 1
    return p_rows, q_rows


def test_markfree_matrices_reduce_to_classical_rsk():
    rng = np.random.default_rng(11)
    for _ in range(200):
        counts = rng.integers(0, 3, size=(3, 3))
        a = PMatrix(
            [
                [Entry(int(v), False) if v else None for v in row]
                for row in counts
            ]
        )
        s, u = rsk(a)
        p_rows, q_rows = _classical_rsk(counts.tolist())
        assert [[e.value for e in row] for row in s.rows] == p_rows
        assert all(not e.marked for row in s.rows for e in row)
        assert u.rows == q_rows


def _ssyt(shape, max_entry):
    """All semistandard fillings of `shape` with entries <= max_entry."""
    cells = [(r, c) for r, p in enumerate(shape) for c in range(p)]
    rows = [[0] * p for p in shape]
    out = []

    def fill(idx):
        if idx == len(cells):
            out.append(RecordingTableau([list(r) for r in rows]))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            rows[r][c] = v
            fill(idx + 1)
        rows[r][c] = 0

    fill(0)
    return out


def test_surjectivity_by_pair_enumeration():
    """Every valid (S, U) pair arises from a matrix (and round-trips)."""
    from tschur.partitions import partitions
    from tschur.symfunc import enumerate_marked_tableaux

    pairs = 0
    for lam in partitions(3):
        if lam.size() == 0:
            continue
        ssyt = _ssyt(list(lam.parts), 2)
        if not ssyt:
            continue
        for s in enumerate_marked_tableaux(lam, 2):
            for u in ssyt:
                a = inverse_rsk(s, u, 2, 2)
                s2, u2 = rsk(a)
                assert s2 == s and u2 == u
                pairs += 1
    assert pairs > 50  # the family is nontrivial


def test_inverse_rsk_rejects_bad_pairs():
    s = MarkedTableau([[E("1'"), E("1")]])
    u_wrong_shape = RecordingTableau([[1], [2]])
    with pytest.raises(InverseRSKError):
        inverse_rsk(s, u_wrong_shape, 3, 3)
    u_bad = RecordingTableau([[2, 1]])
    with pytest.raises(InverseRSKError):
        inverse_rsk(s, RecordingTableau([[1], [1]]), 3, 3)
    with pytest.raises(InverseRSKError):
        inverse_rsk(MarkedTableau([[E("1'"), E("1'")]]), RecordingTableau([[1, 1]]), 3, 3)
    assert not validate_recording_tableau(u_bad)
    # letters below 1' (chain ints 0 and -1) used to come out as 0 and 0'
    for letter in (0, -1):
        assert not validate_marked_tableau(MarkedTableau([[letter]]))
        with pytest.raises(InverseRSKError):
            inverse_rsk(MarkedTableau([[letter]]), RecordingTableau([[1]]), 1, 2)


def test_empty_matrix():
    a = PMatrix.from_text("0")
    s, u = rsk(a)
    assert s.rows == [] and u.rows == []
    assert longest_increasing(biword_from_matrix(a)) == 0


def test_rsk_of_seeded_draws_is_pinned():
    # every S letter and U value of 100 sampled matrices, as written by the
    # comparison-based insertion that the bisections replaced
    digest = hashlib.sha256()
    for m, n, a, t in ((10, 10, Fraction(2, 5), 0), (10, 10, Fraction(2, 5), -1),
                       (10, 10, Fraction(4, 5), -1), (3, 30, Fraction(1, 2), Fraction(-1, 2))):
        for seed in range(25):
            mat = sample_matrix(MeasureParams(m, n, a, t), seed)
            s, u = rsk(mat)
            assert inverse_rsk(s, u, mat.m, mat.n) == mat
            for tab in (s, u):
                digest.update(("/".join(" ".join(map(str, r)) for r in tab.rows) + "\n").encode())
    assert digest.hexdigest() == (
        "4e8a7bd2055494f008b1e41a81a1744a312333100bb7e4060b6f820df35e6edb")
