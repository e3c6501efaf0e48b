"""Half-open integer range set.

The workhorse behind SACK scoreboards, receive reassembly buffers and
QUIC ACK ranges. Ranges are ``[start, end)`` byte or packet-number
intervals kept sorted and coalesced.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple


class RangeSet:
    """Sorted, coalesced set of half-open integer ranges.

    >>> rs = RangeSet()
    >>> rs.add(0, 10); rs.add(20, 30); rs.add(10, 20)
    >>> list(rs)
    [(0, 30)]
    """

    __slots__ = ("_starts", "_ends", "_covered")

    def __init__(self, ranges: Iterable[Tuple[int, int]] = ()):
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._covered = 0
        for start, end in ranges:
            self.add(start, end)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:
        inner = ", ".join(f"[{s},{e})" for s, e in self)
        return f"RangeSet({inner})"

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging with neighbours."""
        if start >= end:
            return
        # Find all existing ranges overlapping or adjacent to [start, end).
        i = bisect.bisect_left(self._ends, start)
        j = bisect.bisect_right(self._starts, end)
        if i < j:
            start = min(start, self._starts[i])
            end = max(end, self._ends[j - 1])
            for k in range(i, j):
                self._covered -= self._ends[k] - self._starts[k]
        self._covered += end - start
        self._starts[i:j] = [start]
        self._ends[i:j] = [end]

    def remove(self, start: int, end: int) -> None:
        """Delete ``[start, end)`` from the set (splitting as needed)."""
        if start >= end or not self._starts:
            return
        i = bisect.bisect_right(self._ends, start)
        new_starts: List[int] = []
        new_ends: List[int] = []
        k = i
        while k < len(self._starts) and self._starts[k] < end:
            s, e = self._starts[k], self._ends[k]
            self._covered -= min(e, end) - max(s, start)
            if s < start:
                new_starts.append(s)
                new_ends.append(start)
            if e > end:
                new_starts.append(end)
                new_ends.append(e)
            k += 1
        self._starts[i:k] = new_starts
        self._ends[i:k] = new_ends

    def contains(self, start: int, end: int) -> bool:
        """True when the whole of ``[start, end)`` is covered."""
        if start >= end:
            return True
        i = bisect.bisect_right(self._starts, start) - 1
        return i >= 0 and self._ends[i] >= end

    def contains_point(self, value: int) -> bool:
        """True when ``value`` lies inside any range."""
        return self.contains(value, value + 1)

    def missing_within(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Gaps of ``[start, end)`` not covered by the set."""
        gaps: List[Tuple[int, int]] = []
        cursor = start
        starts, ends = self._starts, self._ends
        n = len(starts)
        # Jump straight to the first range that can overlap [start, end).
        i = bisect.bisect_right(ends, start)
        while i < n:
            s, e = starts[i], ends[i]
            if s >= end:
                break
            if s > cursor:
                gaps.append((cursor, min(s, end)))
            cursor = max(cursor, e)
            if cursor >= end:
                break
            i += 1
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def covered_bytes(self) -> int:
        """Total number of integers covered (maintained incrementally)."""
        return self._covered

    def first(self) -> Optional[Tuple[int, int]]:
        """Lowest range, or None when empty."""
        if not self._starts:
            return None
        return self._starts[0], self._ends[0]

    def first_gap_after(self, point: int) -> int:
        """Smallest value >= point not in the set (the 'cumulative ack')."""
        i = bisect.bisect_right(self._starts, point) - 1
        if i >= 0 and self._ends[i] > point:
            return self._ends[i]
        return point

    def highest(self) -> int:
        """Largest covered value + 1, or 0 when empty."""
        return self._ends[-1] if self._ends else 0

    def newest_first(self, limit: int) -> List[Tuple[int, int]]:
        """Up to ``limit`` ranges, highest first.

        The order TCP SACK blocks and QUIC ACK frames report ranges in.
        Costs O(limit), not O(len(self)).
        """
        return list(zip(self._starts[:-limit - 1:-1],
                        self._ends[:-limit - 1:-1]))
