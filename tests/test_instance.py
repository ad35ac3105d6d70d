"""Instance parsing, masks, frequencies, the incidence and normalization."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpcover import (
    InstanceError,
    SetSystem,
    coverage,
    dump_instance,
    generate_random,
    load_instance,
)
from mpcover.baselines import set_masks
from mpcover.cluster import Cluster
from mpcover.instance import as_selection, frequency, union_size

CHAIN = SetSystem(4, 3, 2, ((1, 2), (2, 3), (3, 4)))


def reference_load(text: str) -> SetSystem:
    """The reference for load_instance: the text read line by line, each
    set line token by token with int(); it raises at the first bad line."""
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise InstanceError("line 1: missing header 'n m k'")
    head = lines[0].split()
    if len(head) != 3:
        raise InstanceError("line 1: header must be three integers 'n m k'")
    try:
        n, m, k = (int(t) for t in head)
    except ValueError:
        raise InstanceError("line 1: header must be three integers 'n m k'") from None
    if n < 1:
        raise InstanceError("line 1: n must be positive")
    if k > m:
        raise InstanceError(f"line 1: k exceeds m ({k} > {m})")
    if k < 1:
        raise InstanceError("line 1: k must be positive")
    if m > n:
        raise InstanceError(f"line 1: m exceeds n ({m} > {n})")
    if len(lines) < m + 1:
        raise InstanceError(f"expected {m} set lines, file ends at line {len(lines)}")
    for lineno, extra in enumerate(lines[m + 1 :], start=m + 2):
        if extra.strip():
            raise InstanceError(f"line {lineno}: trailing content after {m} sets")
    sets = []
    for j in range(1, m + 1):
        toks = lines[j].split()
        try:
            ids = sorted({int(t) for t in toks})
        except ValueError:
            raise InstanceError(f"line {j + 1}: non-integer element id") from None
        if ids and (ids[0] < 1 or ids[-1] > n):
            raise InstanceError(f"line {j + 1}: element id outside [1, {n}]")
        sets.append(tuple(ids))
    return SetSystem(n=n, m=m, k=k, sets=tuple(sets))


def outcome(load, text: str):
    """What a parser makes of a text: its SetSystem, or its error message."""
    try:
        return load(text)
    except InstanceError as err:
        return f"InstanceError: {err}"


def dense_incidence(sys_: SetSystem) -> np.ndarray:
    """The dense reference for SetSystem.incidence: the m x n bool matrix
    whose row j-1 is the indicator of set j."""
    rows = np.zeros((sys_.m, sys_.n), dtype=bool)
    for j, s in enumerate(sys_.sets):
        rows[j, [e - 1 for e in s]] = True
    return rows


def normalize_covered(sys_: SetSystem) -> tuple[SetSystem, tuple[int, ...]]:
    """The reference for a run's normalize step, as a rebuilt SetSystem: the
    elements no set covers dropped and the rest renumbered in order; also
    returns the kept original ids, ascending."""
    kept = sorted(set().union(*sys_.sets))
    new_id = {e: i for i, e in enumerate(kept, start=1)}
    sets = tuple(tuple(new_id[e] for e in s) for s in sys_.sets)
    return SetSystem(len(kept), sys_.m, sys_.k, sets), tuple(kept)


def restrict_then_normalize(sys_: SetSystem, sampled) -> tuple[SetSystem, tuple[int, ...]]:
    """The reference for the subsample's column drop: every set restricted
    to the sampled element ids, then normalized."""
    sampled = set(sampled)
    sets = tuple(tuple(e for e in s if e in sampled) for s in sys_.sets)
    return normalize_covered(SetSystem(sys_.n, sys_.m, sys_.k, sets))


def systems(max_n=10, max_m=6):
    """Random small instances; m <= n as the input rule requires."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(1, min(n, max_m)))
        k = draw(st.integers(1, m))
        sets = tuple(
            tuple(sorted(draw(st.sets(st.integers(1, n), max_size=n)))) for _ in range(m)
        )
        return SetSystem(n, m, k, sets)

    return build()


def test_load_dump_round_trip():
    text = "4 3 2\n1 2\n2 3\n3 4\n"
    sys_ = load_instance(text)
    assert sys_ == CHAIN
    assert dump_instance(sys_) == text


def test_load_sorts_and_deduplicates():
    sys_ = load_instance("5 2 1\n3 1 3 2\n\n")
    assert sys_.sets == ((1, 2, 3), ())


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing header"),
        ("4 3\n", "three integers"),
        ("4 3 x\n1\n2\n3\n", "three integers"),
        ("0 1 1\n\n", "n must be positive"),
        ("4 3 4\n1\n2\n3\n", "k exceeds m"),
        ("4 3 0\n1\n2\n3\n", "k must be positive"),
        ("2 3 1\n1\n2\n1\n", "m exceeds n"),
        ("4 3 2\n1\n2", "file ends at line"),
        ("4 3 2\n1\n2\n3\n\n9\n", "trailing content"),
        ("4 3 2\n1\nfoo\n3\n", "non-integer"),
        ("4 3 2\n1\n5\n3\n", "outside [1, 4]"),
    ],
)
def test_load_rejects_malformed(text, fragment):
    with pytest.raises(InstanceError, match="line"):
        try:
            load_instance(text)
        except InstanceError as err:
            assert fragment in str(err)
            raise


# Tokens and separators of the fuzzed texts: ids in and out of range, tokens
# numpy reads otherwise than int() (signs, '_', non-ASCII digits) and blanks
# only one of the two splits on ('\x1c', '\xa0', '\u3000' are str.split()
# whitespace that numpy does not skip).
TOKENS = ["0", "-0", "+5", "007", "-3", "x", "1_0", "\uff11\uff12", "\u0663", "1.5",
          "12345678901234567890", "99999999999999999999", "9223372036854775807"]
BLANKS = [" ", "  ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\xa0", "\u3000"]


@st.composite
def instance_texts(draw):
    """Instance texts, mostly valid, with faults of every kind mixed in."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, min(n, 6)))
    k = draw(st.integers(1, m))
    head = f"{n} {m} {k}"
    if not draw(st.integers(0, 9)):
        head = draw(st.sampled_from(["", f"{n} {m}", f"{n} {m} x", f"{n} {m} {m + 1}",
                                     f"{m - 1} {m} {k}", f" {n}\t{m} {k}\r"]))

    def token():
        if draw(st.integers(0, 9)):
            return str(draw(st.integers(1, n)))
        faults = (st.integers(-2, n + 3).map(str), st.sampled_from(TOKENS), st.sampled_from("+-"))
        return draw(st.one_of(*faults))

    def blank():
        return draw(st.sampled_from(BLANKS)) if not draw(st.integers(0, 5)) else " "

    lines = []
    for _ in range(m + (draw(st.integers(-1, 1)) if not draw(st.integers(0, 9)) else 0)):
        toks = [token() for _ in range(draw(st.integers(0, 8)))]
        lead = blank() if not draw(st.integers(0, 3)) else ""
        tail = blank() if draw(st.booleans()) else ""
        lines.append(lead + "".join(t + blank() for t in toks)[:-1] + tail)
    lines += draw(st.lists(st.sampled_from(["", " ", "\r", "1"]), max_size=2))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([head, *lines]) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(instance_texts())
def test_load_matches_the_reference_parser(text):
    """Every text gives the reference's SetSystem or its error message, so
    the first faulty line is the one named, whatever its fault."""
    assert outcome(load_instance, text) == outcome(reference_load, text)


@pytest.mark.parametrize(
    "text,want",
    [
        # an id out of range (read by numpy) before a non-integer, and the reverse
        ("4 3 1\n1 9\n2 x\n3\n", "line 2: element id outside [1, 4]"),
        ("4 3 1\n1 x\n2 9\n3\n", "line 2: non-integer element id"),
        ("4 3 1\n1 2\n2 -1\n3 x\n", "line 3: element id outside [1, 4]"),
        ("4 3 1\n1 2\n+\n9\n", "line 3: non-integer element id"),
        ("4 3 1\n \n1 + 2\n9\n", "line 3: non-integer element id"),
        # whitespace-only lines are empty sets (numpy reads "   " as [0])
        ("4 3 1\n   \n\t\n \r\n", ((), (), ())),
        # \r\n line endings, tabs, \x0b and \x0c
        ("4 2 1\r\n1 2\r\n\r\n", ((1, 2), ())),
        ("4 2 1\n3\t1\x0b2\x0c4\n2\t\t\n", ((1, 2, 3, 4), (2,))),
        # \x1c and \xa0 separate tokens for str.split(), not for numpy
        ("4 2 1\n1\x1c2\n3\xa04\n", ((1, 2), (3, 4))),
        # tokens int() reads and numpy does not, or reads otherwise
        ("20 2 1\n1_0 2\n\uff11\uff12 3\n", ((2, 10), (3, 12))),
        ("9 2 1\n+5 007\n05 5\n", ((5, 7), (5,))),
        ("9 2 1\n1\n-0\n", "line 3: element id outside [1, 9]"),
        ("9 2 1\n12345678901234567890\n1\n", "line 2: element id outside [1, 9]"),
        ("9 2 1\n1\n-12345678901234567890\n", "line 3: element id outside [1, 9]"),
        # ids past int64, in range of a 20-digit n
        ("99999999999999999999 2 1\n12345678901234567890 3 3\n\n",
         ((3, 12345678901234567890), ())),
    ],
)
def test_load_named_cases(text, want):
    got = outcome(load_instance, text)
    assert got == outcome(reference_load, text)
    want = f"InstanceError: {want}" if isinstance(want, str) else want
    assert (got.sets if isinstance(got, SetSystem) else got) == want


def test_load_reads_a_line_numpy_warns_on_token_by_token(monkeypatch):
    """numpy < 2 signals a short read with a DeprecationWarning and returns
    what it read; such a line goes to int(), and no warning escapes."""
    real = np.fromstring

    def short_read(raw, dtype, sep):
        if b"3" in raw:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return real(raw.split(b"3")[0], dtype=dtype, sep=sep)
        return real(raw, dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", short_read)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_instance("4 2 1\n1 3 2\n4\n").sets == ((1, 2, 3), (4,))


def test_load_keeps_the_incidence_and_no_tuples():
    """A loaded instance holds its CSR arrays, not per-set Python tuples:
    what the parse keeps is at most twice their bytes plus a fixed slack."""
    text = dump_instance(generate_random(4000, 40, 4, density=0.125, seed=7))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sys_ = load_instance(text)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    inc = sys_.incidence
    assert 19_000 < len(inc.ids) < 21_000
    assert kept <= 2 * (inc.ids.nbytes + inc.offsets.nbytes) + 16_384


def test_load_with_k_replaces_the_header_budget():
    assert load_instance("4 3 2\n1 2\n2 3\n3 4\n", k=3) == SetSystem(4, 3, 3, CHAIN.sets)
    with pytest.raises(InstanceError, match=r"^need 1 <= k <= m, got k=4 m=3$"):
        load_instance("4 3 2\n1 2\n2 3\n3 4\n", k=4)
    # the file is read first: its faults come before the budget's
    with pytest.raises(InstanceError, match="^line 3: non-integer"):
        load_instance("4 3 2\n1 2\nx\n3 4\n", k=4)


def test_trailing_content_names_its_own_line():
    # the trailing line repeats set line 2, so a text search would name line 2
    with pytest.raises(InstanceError, match="^line 4: trailing content"):
        load_instance("3 2 1\n1 2\n\n1 2\n")


def test_constructor_validation():
    """Each message, and which comes first: k, then the set count, then the
    first faulty set, and within one set an order fault before a range fault."""
    big = 12345678901234567890  # past int64
    cases = [
        ((4, 3, 0, ((), (), ())), "need 1 <= k <= m, got k=0 m=3"),
        ((4, 3, 4, ((),)), "need 1 <= k <= m, got k=4 m=3"),
        ((4, 3, 1, ((1,), ())), "expected 3 sets, got 2"),
        ((4, 2, 1, ((1, 1), ())), "set 1 not strictly increasing"),
        ((4, 2, 1, ((0, 1), ())), "set 1 has element outside [1, 4]"),
        ((4, 1, 1, ((2, 5),)), "set 1 has element outside [1, 4]"),
        # a range fault in set 2 before an order fault in set 3
        ((4, 3, 1, ((1, 4), (5,), (3, 2))), "set 2 has element outside [1, 4]"),
        # an order fault in set 1 before a range fault in set 2
        ((4, 3, 1, ((3, 2), (), (0,))), "set 1 not strictly increasing"),
        # in one set the order fault comes first, wherever the range fault is
        ((4, 3, 1, ((1,), (), (9, 2, 2))), "set 3 not strictly increasing"),
        ((4, 2, 1, ((4,), (0, 2, 1))), "set 2 not strictly increasing"),
        # a descent from one set to the next is no fault
        ((4, 3, 1, ((3, 4), (), (1, 2, 5))), "set 3 has element outside [1, 4]"),
        # ids past int64 are compared as Python ints
        ((4, 2, 1, ((1,), (big, 2))), "set 2 not strictly increasing"),
        ((4, 2, 1, ((1,), (-big,))), "set 2 has element outside [1, 4]"),
        ((big, 1, 1, ((3, big + 1),)), f"set 1 has element outside [1, {big}]"),
        ((4, 2, 1, [[2, 3], np.array([4, 4])]), "set 2 not strictly increasing"),
    ]
    for args, message in cases:
        with pytest.raises(InstanceError) as err:
            SetSystem(*args)
        assert str(err.value) == message, args


@given(systems(), st.data())
def test_tuples_lists_and_arrays_build_one_instance(sys_, data):
    """Any sequences of ids build the same instance, and its tuple view
    round-trips through the text format."""
    sets = sys_.sets
    kinds = (list, tuple, lambda s: np.array(s, dtype=np.int64), np.array)
    mixed = [data.draw(st.sampled_from(kinds))(s) for s in sets]
    assert SetSystem(sys_.n, sys_.m, sys_.k, mixed) == sys_
    assert load_instance(dump_instance(sys_)).sets == sets
    assert all(type(s) is tuple and all(type(e) is int for e in s) for s in sets)


def test_set_masks_and_coverage():
    assert set_masks(CHAIN) == (0b0011, 0b0110, 0b1100)
    assert coverage(CHAIN, (1, 3)) == 4
    assert coverage(CHAIN, (2,)) == 2
    assert coverage(CHAIN, ()) == 0
    # duplicate indices in a selection collapse
    assert coverage(CHAIN, (1, 1, 3)) == 4


@given(systems(max_n=70))
def test_set_masks_match_python_sets(sys_):
    ref = tuple(sum(1 << (e - 1) for e in set(s)) for s in sys_.sets)
    assert set_masks(sys_) == ref


def test_coverage_does_not_hash_the_instance(monkeypatch):
    def no_hash(self):
        raise AssertionError("SetSystem hashed")

    monkeypatch.setattr(SetSystem, "__hash__", no_hash)
    sys_ = SetSystem(4, 3, 2, ((1, 2), (2, 3), (3, 4)))
    assert coverage(sys_, (1, 3)) == 4
    assert coverage(sys_, (2,)) == 2


def test_frequency():
    assert frequency(CHAIN.incidence) == (1, 2, 2, 1)
    assert frequency(SetSystem(3, 1, 1, ((),)).incidence) == (0, 0, 0)


def test_as_selection():
    assert as_selection((3, 1, 1), 3) == (1, 3)
    with pytest.raises(InstanceError):
        as_selection((0,), 3)
    with pytest.raises(InstanceError):
        as_selection((4,), 3)


def test_set_system_allows_more_sets_than_elements():
    # m <= n is an input rule; normalizing and subsampling may break it
    sys_ = SetSystem(2, 3, 2, ((1,), (2,), (1, 2)))
    assert (sys_.n, sys_.m, sys_.k) == (2, 3, 2)
    assert coverage(sys_, (1, 2)) == 2
    # the other constructor checks still apply
    with pytest.raises(InstanceError):
        SetSystem(2, 3, 0, ((1,), (2,), ()))
    with pytest.raises(InstanceError):
        SetSystem(2, 3, 1, ((1,), (2, 2), ()))
    with pytest.raises(InstanceError):
        SetSystem(2, 3, 1, ((1,), (3,), ()))


def test_keep_columns_drops_and_renumbers():
    inc = SetSystem(6, 3, 1, ((2, 5), (5,), ())).incidence
    view = inc.keep_columns(inc.sum(axis=0))
    assert view.shape == (3, 2)
    assert [row_ids(view, r) for r in range(3)] == [[0, 1], [1], []]
    # a column that some set holds: its entries go, and the offsets with them
    sampled = inc.keep_columns([False, False, False, False, True, False])
    assert sampled.shape == (3, 1)
    assert sampled.ids.tolist() == [0, 0]
    assert sampled.offsets.tolist() == [0, 1, 2, 2]


def test_keep_columns_identity_when_all_covered():
    inc = CHAIN.incidence
    assert inc.keep_columns(inc.sum(axis=0)) == inc


def test_generate_random_modes_and_determinism():
    a = generate_random(20, 5, 2, density=0.3, seed=9)
    b = generate_random(20, 5, 2, density=0.3, seed=9)
    assert a == b
    c = generate_random(20, 5, 2, set_size=4, seed=9)
    assert all(len(s) == 4 for s in c.sets)
    d = generate_random(20, 5, 2, set_size=(2, 6), seed=9)
    assert all(2 <= len(s) <= 6 for s in d.sets)
    full = generate_random(6, 3, 1, density=1.0, seed=0)
    assert all(s == tuple(range(1, 7)) for s in full.sets)


@pytest.mark.parametrize(
    "mode,seed,digest",
    [
        ("density", 1, "c6c811c1c678178a2eec6af1491a97081415daf33730b71872f2d978218adee2"),
        ("density", 2, "13a5890fc9008efd8cf987812ff285ec4e3e4bbbb6bb9c73ddbbc82923aa847a"),
        ("set_size", 1, "b46139548cfff3a6573c2b7382ea5536ab51ac9e66750d962d3f7f644ac64c2b"),
        ("set_size", 2, "dc59efdd71f99c7aef90e81a15b4983762c57ea6364392ceb67a07588d1c55a9"),
    ],
)
def test_generate_random_output_is_pinned(mode, seed, digest):
    shape = {"density": 0.3} if mode == "density" else {"set_size": (0, 40)}
    text = dump_instance(generate_random(200, 30, 5, seed=seed, **shape))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generate_random_validation():
    with pytest.raises(InstanceError):
        generate_random(5, 2, 1, seed=0)
    with pytest.raises(InstanceError):
        generate_random(5, 2, 1, density=0.5, set_size=2, seed=0)
    with pytest.raises(InstanceError):
        generate_random(5, 2, 1, density=0.0, seed=0)
    with pytest.raises(InstanceError):
        generate_random(5, 2, 1, set_size=(3, 1), seed=0)
    with pytest.raises(InstanceError):
        generate_random(5, 2, 1, set_size=9, seed=0)
    with pytest.raises(InstanceError, match="m <= n"):
        generate_random(3, 5, 1, density=0.4, seed=0)


@given(systems())
def test_dump_load_identity(sys_):
    assert load_instance(dump_instance(sys_)) == sys_


@given(systems(), st.data())
def test_normalize_preserves_selection_coverage(sys_, data):
    """The run's normalize step (the incidence without its empty columns)
    and a subsample's column drop on top of it equal the rebuilt reference
    systems.  Renumbering touches elements only, so any selection covers the
    same number of elements before and after."""
    inc = sys_.incidence
    view = inc.keep_columns(inc.sum(axis=0))
    ref, kept = normalize_covered(sys_)
    assert kept == tuple(i + 1 for i, fv in enumerate(frequency(inc)) if fv)
    assert view == ref.incidence
    for sel in ((), (1,), tuple(range(1, sys_.m + 1))):
        assert union_size(view, sel) == coverage(ref, sel) == coverage(sys_, sel)
    keep = data.draw(st.lists(st.booleans(), min_size=ref.n, max_size=ref.n), label="keep")
    sub_ref, _ = restrict_then_normalize(ref, [i + 1 for i, b in enumerate(keep) if b])
    assert view.keep_columns(keep) == sub_ref.incidence


@given(systems())
def test_frequency_counts_match_masks(sys_):
    masks = set_masks(sys_)
    f = frequency(sys_.incidence)
    for i in range(sys_.n):
        assert f[i] == sum(1 for mk in masks if mk >> i & 1)


# -- the sparse incidence against its dense reference ---------------------------


def test_incidence_view_of_a_chain():
    inc = CHAIN.incidence
    assert inc is CHAIN.incidence
    assert inc.shape == (3, 4)
    assert inc.ids.tolist() == [0, 1, 1, 2, 2, 3]
    assert inc.offsets.tolist() == [0, 2, 4, 6]
    assert inc.sum(axis=0).tolist() == [1, 2, 2, 1]
    assert inc.transpose().ids.tolist() == [0, 0, 1, 1, 2, 2]
    # the instance is immutable, its arrays included
    with pytest.raises(AttributeError):
        CHAIN.k = 1
    for array in (inc.ids, inc.offsets):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(ValueError, match="axis 0 only"):
        inc.sum(axis=1)


def test_transpose_lists_many_rows_of_one_column_in_order():
    """64 rows share their columns, so the transpose sorts long runs of ties
    in the column id; each column must still list its rows ascending, which
    an unstable sort on the column id alone does not give."""
    sys_ = SetSystem(5, 64, 1, tuple(((1, 3, 4), (2, 3), (3, 5), (1, 2, 3, 4, 5)) * 16))
    by_elem = sys_.incidence.transpose()
    dense = dense_incidence(sys_)
    assert by_elem.shape == dense.T.shape
    for i in range(sys_.n):
        assert row_ids(by_elem, i) == np.flatnonzero(dense[:, i]).tolist()


def row_ids(view, r: int) -> list[int]:
    return view.ids[view.offsets[r] : view.offsets[r + 1]].tolist()


@given(systems(max_n=12, max_m=8), st.data())
def test_incidence_view_matches_the_dense_reference(sys_, data):
    dense = dense_incidence(sys_)
    inc = sys_.incidence
    assert inc.shape == dense.shape
    assert inc.sum(axis=0).tolist() == dense.sum(axis=0).tolist()
    for r in range(sys_.m):
        assert row_ids(inc, r) == np.flatnonzero(dense[r]).tolist()
    sel = data.draw(st.lists(st.integers(0, sys_.m - 1), max_size=2 * sys_.m), label="rows")
    by_elem = inc.transpose()
    assert by_elem.shape == dense.T.shape
    assert by_elem.sum(axis=0).tolist() == dense.T.sum(axis=0).tolist()
    for i in range(sys_.n):
        assert row_ids(by_elem, i) == np.flatnonzero(dense[:, i]).tolist()
    cols = data.draw(st.lists(st.integers(0, sys_.n - 1), unique=True), label="columns")
    # a row cut keeps the rows in sel, in the order of sel (ascending, or in
    # pick order with repeats), and drops the rest
    for cut_rows in (sorted(set(sel)), sel):
        cut = inc.take_rows(cut_rows)
        assert cut.shape == (len(cut_rows), sys_.n)
        for r, j in enumerate(cut_rows):
            assert row_ids(cut, r) == np.flatnonzero(dense[j]).tolist()
        assert cut.sum(axis=0).tolist() == dense[cut_rows].sum(axis=0).tolist()
    assert by_elem.take_rows(cols).sum(axis=0).tolist() == dense[:, cols].sum(axis=1).tolist()
    # keeping some columns, the empty ones or any others, keeps them in order, renumbered
    for keep in (dense.any(axis=0), np.isin(np.arange(sys_.n), cols)):
        compact = inc.keep_columns(keep)
        kept = dense[:, keep]
        assert compact.shape == kept.shape
        for r in range(sys_.m):
            assert row_ids(compact, r) == np.flatnonzero(kept[r]).tolist()
    # a converge-cast charges the view as it charges the dense matrix
    sparse_cl, dense_cl = Cluster(sys_.m, sys_.n), Cluster(sys_.m, sys_.n)
    got = sparse_cl.convergecast_sum(inc, entry_bits=1, label="cast")
    assert got.tolist() == dense_cl.convergecast_sum(dense, entry_bits=1, label="cast").tolist()
    assert sparse_cl.log == dense_cl.log
