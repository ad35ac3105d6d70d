"""Set-system instances for maximum coverage.

An instance is a universe [1..n], m sets over it and a budget k, stored as
its m x n CSR incidence.  The text format is line oriented: the first line
holds "n m k", the next m lines hold the elements of each set, in any order
and separated by any whitespace (a blank line is an empty set).  Duplicate
elements inside one line are dropped silently; duplicate sets are legal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator


class InstanceError(ValueError):
    """Raised for malformed instance text or inconsistent parameters."""


class Incidence:
    """Sparse m x n 0/1 matrix in CSR form: row r holds the 0-based column
    ids ids[offsets[r]:offsets[r + 1]], ascending.  A SetSystem's view has
    one row per set (row j-1 is set j) and one column per element.

    It offers what the stages need from a dense matrix: shape, equality,
    the column sums sum(axis=0), the rows of a selection cut out, the rows
    as lists, the transpose, and the view with only some columns kept.
    """

    def __init__(self, ids: np.ndarray, offsets: np.ndarray, shape: tuple[int, int]):
        self.ids = ids
        self.offsets = offsets
        self.shape = shape

    def __eq__(self, other) -> bool:
        return isinstance(other, Incidence) and self.shape == other.shape and all(
            np.array_equal(a, b) for a, b in ((self.ids, other.ids), (self.offsets, other.offsets))
        )

    def sum(self, axis: int = 0) -> np.ndarray:
        """Column sums (axis 0 only): how many rows hold each column."""
        if axis != 0:
            raise ValueError(f"Incidence sums over axis 0 only, got axis={axis}")
        return np.bincount(self.ids, minlength=self.shape[1])

    def take_rows(self, sel) -> "Incidence":
        """The len(sel) x n matrix of the rows in sel (0-based, any order,
        repeats allowed), in order.  Costs O(len(sel) + kept entries)."""
        sel = np.asarray(sel, dtype=np.intp)
        starts = self.offsets[sel]
        sizes = self.offsets[sel + 1] - starts
        offsets = np.zeros(len(sel) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        # entry t of kept row r is entry t - offsets[r] + starts[r] of self
        shift = np.repeat(starts - offsets[:-1], sizes)
        shape = (len(sel), self.shape[1])
        return Incidence(self.ids[np.arange(offsets[-1]) + shift], offsets, shape)

    def lists(self) -> list[list[int]]:
        """The rows as Python lists of column ids."""
        ids, bounds = self.ids.tolist(), self.offsets.tolist()
        return [ids[a:b] for a, b in zip(bounds, bounds[1:])]

    def transpose(self) -> "Incidence":
        """The n x m view: row i lists the rows that hold column i, ascending.

        Each entry gets the one key column * m + row.  The keys are unique,
        so the default (unstable) sort orders them by column and, within a
        column, by row; the row reads back as key % m.  The keys are intp,
        which assumes n * m < 2**63.
        """
        m, n = self.shape
        row_of = np.repeat(np.arange(m), np.diff(self.offsets))
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(self.sum(axis=0), out=offsets[1:])
        return Incidence(np.sort(self.ids * m + row_of) % m, offsets, (n, m))

    def keep_columns(self, keep) -> "Incidence":
        """The m x n' view of the columns where keep is nonzero, renumbered
        0..n'-1 in order, with their entries only; one lookup per entry."""
        kept = np.flatnonzero(keep)
        new_of_old = np.full(self.shape[1], -1, dtype=np.intp)
        new_of_old[kept] = np.arange(len(kept))
        ids, shape = new_of_old[self.ids], (self.shape[0], len(kept))
        hit = ids >= 0
        if hit.all():  # no entry dropped, as when keep is the column sums: share the offsets
            return Incidence(ids, self.offsets, shape)
        before = np.concatenate(([0], np.cumsum(hit)))  # kept entries before each entry
        return Incidence(ids[hit], before[self.offsets], shape)


@dataclass(frozen=True, init=False)
class SetSystem:
    """Immutable set system: n, m, k and the validated m x n incidence.

    SetSystem(n, m, k, sets) takes each set as strictly increasing 1-based
    ids, in tuples, lists or numpy arrays alike.  Its one constructor is the
    parse and validate boundary; ids past int64 are kept as Python ints.
    m <= n is an input rule that load_instance and generate_random check,
    not this constructor: a run's column drops can break it.
    """

    n: int
    m: int
    k: int
    incidence: Incidence

    def __init__(self, n: int, m: int, k: int, sets) -> None:
        if not (1 <= k <= m):
            raise InstanceError(f"need 1 <= k <= m, got k={k} m={m}")
        if len(sets) != m:
            raise InstanceError(f"expected {m} sets, got {len(sets)}")
        offsets = np.cumsum([0, *map(len, sets)], dtype=np.intp)
        dtype = np.int64 if n <= _INT64_MAX else object
        try:
            ids = np.concatenate([np.empty(0, dtype), *(np.asarray(s, dtype) for s in sets)])
        except OverflowError:  # an id past int64, so outside [1, n]: compare Python ints
            ids = np.concatenate([np.empty(0, object), *(np.asarray(s, object) for s in sets)])
        # name the first faulty set, in it an order fault before a range fault
        row = np.repeat(np.arange(1, m + 1), np.diff(offsets))  # each entry's set
        order = row[1:][(ids[1:] <= ids[:-1]) & (row[1:] == row[:-1])][:1].tolist()
        out = row[(ids < 1) | (ids > n)][:1].tolist()
        if order and (not out or order[0] <= out[0]):
            raise InstanceError(f"set {order[0]} not strictly increasing")
        if out:
            raise InstanceError(f"set {out[0]} has element outside [1, {n}]")
        ids -= 1
        ids.flags.writeable = offsets.flags.writeable = False
        vars(self).update(n=n, m=m, k=k, incidence=Incidence(ids, offsets, (m, n)))

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """The sets as tuples of 1-based ids, built on each access."""
        return tuple(tuple(i + 1 for i in row) for row in self.incidence.lists())


# The bytes of a set line that np.fromstring reads as str.split() and int()
# do: ASCII digits and the blanks that both take for separators.
_DIGITS_AND_BLANKS = b"0123456789 \t\x0b\x0c\r"
_INT64_MAX = int(np.iinfo(np.int64).max)


def load_instance(text: str, k: int | None = None) -> SetSystem:
    """Parse the text format.  Errors name the first offending 1-based line.

    A set line holds element ids in any order, separated by any whitespace;
    duplicates are dropped.  k, when given, replaces the header's budget
    (the header's own k must still be valid), so the file is validated once.
    """
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise InstanceError("line 1: missing header 'n m k'")
    head = lines[0].split()
    if len(head) != 3:
        raise InstanceError("line 1: header must be three integers 'n m k'")
    try:
        n, m, head_k = (int(t) for t in head)
    except ValueError:
        raise InstanceError("line 1: header must be three integers 'n m k'") from None
    if n < 1:
        raise InstanceError("line 1: n must be positive")
    if head_k > m:
        raise InstanceError(f"line 1: k exceeds m ({head_k} > {m})")
    if head_k < 1:
        raise InstanceError("line 1: k must be positive")
    if m > n:
        raise InstanceError(f"line 1: m exceeds n ({m} > {n})")
    if len(lines) < m + 1:
        raise InstanceError(f"expected {m} set lines, file ends at line {len(lines)}")
    for lineno, extra in enumerate(lines[m + 1 :], start=m + 2):
        if extra.strip():
            raise InstanceError(f"line {lineno}: trailing content after {m} sets")
    return SetSystem(n=n, m=m, k=head_k if k is None else k, sets=_read_sets(lines[1 : m + 1], n))


def _read_sets(lines: list[str], n: int) -> list[np.ndarray]:
    """The sets of the set lines, views of one array, each sorted and
    deduplicated by one sort of the keys row * (n + 1) + id, which puts
    every row's ids in order and its duplicates side by side.  Where a key
    may not fit in int64, the keys are Python ints."""
    m = len(lines)
    dtype = np.int64 if m * (n + 1) <= _INT64_MAX else object
    row_of, key = _read_keys(lines, n, dtype)
    key.sort()  # row_of is ascending, so it still gives each sorted key's row
    new = np.ones(len(key), dtype=bool)  # the first of each run of equal keys
    np.not_equal(key[1:], key[:-1], out=new[1:])
    if not new.all():  # needless copies raised a later greedy solve's peak RSS by 0.7 MB
        row_of, key = row_of[new], key[new]
    key -= row_of.astype(dtype, copy=False) * (n + 1)  # now the ids
    return np.split(key, np.searchsorted(row_of, np.arange(1, m)))


def _read_keys(lines: list[str], n: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The row and the key row * (n + 1) + id of every id on the set lines,
    in file order; lines[j] is line j + 2 of the file.

    numpy reads each line of digits and blanks in one call.  int() reads,
    token by token, every other line and every line numpy read an id outside
    [1, n] from; it names a faulty line, and these lines go in file order,
    so the first fault raises.  Where a key may not fit in int64, int()
    reads every line.  The per-line arrays are freed on return, before the
    sort, which keeps the parse's memory peak below a greedy solve's.
    """
    m = len(lines)
    empty = np.empty(0, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 warns of a short read
        rows = [_read_digits(line) if dtype is np.int64 else None for line in lines]
    recheck = {j for j, row in enumerate(rows) if row is None}
    rows = [empty if row is None else row for row in rows]

    def flatten():
        sizes = np.fromiter(map(len, rows), dtype=np.intp, count=m)
        return np.concatenate([empty, *rows]), np.repeat(np.arange(m), sizes)

    ids, row_of = flatten()
    recheck.update(row_of[(ids < 1) | (ids > n)].tolist())
    if recheck:
        for j in sorted(recheck):
            rows[j] = np.array(_read_tokens(lines[j], n, j + 2), dtype=dtype)
        ids, row_of = flatten()
    key = row_of.astype(dtype, copy=False) * (n + 1)
    key += ids
    return row_of, key


def _read_digits(line: str) -> np.ndarray | None:
    """The ids of a set line as one np.fromstring call reads them, or None
    if the line holds anything but ASCII digits and blanks or numpy cannot
    read it to its end.  numpy reads a sign without digits as 0 and splits
    '1 + 2' into [1, 2], where int() fails, so no line with a sign comes
    here.  Here numpy reads each run of digits as int() reads its token,
    except that a blank-only line reads as [0] and an id past int64
    saturates: both fall outside [1, n]."""
    raw = line.encode("ascii", "replace")  # a non-ASCII character becomes '?'
    if raw.translate(None, _DIGITS_AND_BLANKS):
        return None
    try:
        return np.fromstring(raw, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None


def _read_tokens(line: str, n: int, lineno: int) -> list[int]:
    """The ids of a set line read token by token with int(); InstanceError
    names the line if one is not an integer in [1, n]."""
    try:
        ids = [int(t) for t in line.split()]
    except ValueError:
        raise InstanceError(f"line {lineno}: non-integer element id") from None
    if ids and (min(ids) < 1 or max(ids) > n):
        raise InstanceError(f"line {lineno}: element id outside [1, {n}]")
    return ids


def dump_instance(sys: SetSystem) -> str:
    """Inverse of load_instance, canonical form (sorted, deduplicated)."""
    out = [f"{sys.n} {sys.m} {sys.k}"]
    out.extend(" ".join(str(i + 1) for i in row) for row in sys.incidence.lists())
    return "\n".join(out) + "\n"


def frequency(inc: Incidence) -> tuple[int, ...]:
    """f_i = number of rows holding column i, counted in plain Python: the
    reference the frequency cast is checked against."""
    f = [0] * inc.shape[1]
    for i in inc.ids.tolist():
        f[i] += 1
    return tuple(f)


def as_selection(indices, m: int) -> tuple[int, ...]:
    """Normalize to a sorted tuple of distinct 1-based set indices."""
    sel = sorted(set(int(j) for j in indices))
    if sel and (sel[0] < 1 or sel[-1] > m):
        raise InstanceError(f"selection index outside [1, {m}]")
    return tuple(sel)


def coverage(sys: SetSystem, selection) -> int:
    """Number of elements covered by the union of the selected sets."""
    return union_size(sys.incidence, selection)


def union_size(inc: Incidence, selection) -> int:
    """Columns held by the selected rows (1-based), counted in plain Python:
    the reference the coverage casts, the marginals and the trim are checked against."""
    sel = as_selection(selection, inc.shape[0])
    return len(set().union(*(inc.ids[inc.offsets[j - 1] : inc.offsets[j]].tolist() for j in sel)))


def generate_random(
    n: int,
    m: int,
    k: int,
    *,
    density: float | None = None,
    set_size: int | tuple[int, int] | None = None,
    seed: int,
) -> SetSystem:
    """Deterministic random instance from a PCG64 stream.

    Exactly one of density / set_size must be given.  density p puts each
    element in each set independently with probability p (density=1.0 yields
    m copies of the full universe).  set_size draws each set uniformly
    without replacement, either a fixed size or uniform in [lo, hi].
    """
    if (density is None) == (set_size is None):
        raise InstanceError("give exactly one of density or set_size")
    if m > n:
        raise InstanceError(f"need m <= n, got m={m} n={n}")
    rng = Generator(PCG64(seed))
    if density is not None:
        if not 0.0 < density <= 1.0:
            raise InstanceError("density must be in (0, 1]")
        sets = [np.flatnonzero(rng.random(n) < density) + 1 for _ in range(m)]
    else:
        lo, hi = (set_size, set_size) if isinstance(set_size, int) else set_size
        if not 0 <= lo <= hi <= n:
            raise InstanceError(f"set sizes must satisfy 0 <= lo <= hi <= n, got [{lo}, {hi}]")
        # each set draws its size, then its ids
        sizes = (int(rng.integers(lo, hi + 1)) for _ in range(m))
        sets = [np.sort(rng.choice(n, size=size, replace=False)) + 1 for size in sizes]
    return SetSystem(n=n, m=m, k=k, sets=sets)
