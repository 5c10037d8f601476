"""Integer partitions: the index set of the measure."""

from __future__ import annotations

import operator


class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(operator.index, parts))
        for i in range(len(parts) - 1):
            if parts[i] < parts[i + 1]:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        self.parts = parts

    def size(self):
        return sum(self.parts)

    def length(self):
        """Number of rows."""
        return len(self.parts)

    def first_row(self):
        return self.parts[0] if self.parts else 0

    def conjugate(self):
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for c in range(p):
                cols[c] += 1
        return Partition(cols)

    def cells(self):
        """(row, col) pairs, 0-based, row-major."""
        for r, p in enumerate(self.parts):
            for c in range(p):
                yield (r, c)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def _descending(total, max_part, rows):
    """Partitions of `total` with parts <= max_part and at most `rows` parts,
    parts descending; branches that cannot fit in the box are cut."""
    if total == 0:
        yield ()
        return
    if total > max_part * rows:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _descending(total - first, first, rows - 1):
            yield (first,) + rest


def partitions(max_size, max_part=None, max_rows=None):
    """All partitions with |lambda| <= max_size, ordered by (size, parts descending)."""
    for total in range(max_size + 1):
        cap = total if max_part is None else min(max_part, total)
        rows = total if max_rows is None else max_rows
        for parts in _descending(total, max(cap, 0) if total else 0, rows):
            yield Partition(parts)


def partitions_in_box(max_part, max_rows):
    """All partitions fitting in a max_rows x max_part box (finite set)."""
    return partitions(max_part * max_rows, max_part=max_part, max_rows=max_rows)
