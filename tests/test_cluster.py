"""Round and memory accounting of the message-passing harness."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpcover import BudgetError, Cluster, RoundLogEntry, SetSystem, log_to_jsonl
from mpcover.cluster import DEFAULT_MEM_C, DEFAULT_MEM_E, LogDriftError, ceil_log2
from mpcover.pipeline import greedy_fallback


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_budget_formula():
    cl = Cluster(3, 10, mem_c=5, mem_e=2)
    assert cl.budget_bits == 5 * 10 * ceil_log2(12) ** 2
    # None takes the defaults
    cl = Cluster(2, 4)
    assert (cl.mem_c, cl.mem_e) == (DEFAULT_MEM_C, DEFAULT_MEM_E)
    assert cl.budget_bits == DEFAULT_MEM_C * 4 * ceil_log2(6) ** DEFAULT_MEM_E
    # a zero budget is legal; negative or non-integer constants are not
    assert Cluster(2, 4, mem_c=0).budget_bits == 0
    for mem in ({"mem_c": -3}, {"mem_e": -1}, {"mem_c": 2.0}, {"mem_e": True}):
        with pytest.raises(ValueError, match="mem_c and mem_e must be integers >= 0"):
            Cluster(2, 4, **mem)


def test_gain_reduce_budget_violation_carries_cluster():
    # a budget of exactly one (gain, index) pair suffices; one bit under it,
    # the first tree level of the first pick is over budget
    sys_ = SetSystem(4, 4, 2, ((1, 2), (2, 3), (3,), (4,)))
    pair_bits = ceil_log2(sys_.n + 1) + ceil_log2(sys_.m + 1)
    inc, k = sys_.incidence, sys_.k
    assert greedy_fallback(inc, k, Cluster(sys_.m, 1, mem_c=pair_bits, mem_e=0)) == ((1, 2), 3)
    cl = Cluster(sys_.m, 1, mem_c=pair_bits - 1, mem_e=0)
    cl.broadcast(1, label="warmup")
    with pytest.raises(BudgetError, match="'greedy.gain_reduce' .* in round 2,") as exc:
        greedy_fallback(inc, k, cl)
    assert exc.value.cluster is cl
    # the failed round is not counted
    assert (cl.rounds, cl.log) == (1, [RoundLogEntry("warmup", 1, 1)])


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_convergecast_sum_exact_and_round_count(m):
    rng = np.random.default_rng(m)
    vectors = rng.integers(0, 2, size=(m, 6))
    cl = Cluster(m, 6)
    out = cl.convergecast_sum(vectors, entry_bits=1, label="cast")
    assert (out == vectors.sum(axis=0)).all()
    assert cl.rounds == (ceil_log2(m) if m > 1 else 0)
    assert sum(e.rounds for e in cl.log) == cl.rounds


def test_convergecast_message_width():
    # every merge message is width * (entry_bits + ceil(log2 m)) bits
    cl = Cluster(4, 6)
    cl.convergecast_sum(np.ones((4, 6), dtype=np.int64), entry_bits=3)
    assert cl.peak_inbox_bits == 6 * (3 + 2)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_gather_to_central(m):
    # every machine but central sends 7 bits, all into central's inbox
    cl = Cluster(m, 8)
    cl.gather(7, label="sizes")
    assert cl.log == [RoundLogEntry("sizes", 1, (m - 1) * 7)]
    with pytest.raises(ValueError, match="nonnegative"):
        cl.gather(-1)
    assert cl.rounds == 1


def test_charge_only_convergecast_matches_convergecast_sum():
    for m in (1, 2, 5, 8):
        counted, summed = Cluster(m, 6), Cluster(m, 6)
        counted.convergecast(6, entry_bits=3, label="cast")
        summed.convergecast_sum(np.ones((m, 6), dtype=np.int64), entry_bits=3, label="cast")
        assert counted.log == summed.log
        assert (counted.rounds, counted.peak_inbox_bits) == (summed.rounds, summed.peak_inbox_bits)


def test_broadcast():
    cl = Cluster(5, 4)
    cl.broadcast(12, label="hello")
    assert cl.rounds == 1
    assert cl.peak_inbox_bits == 12
    assert cl.log[0].primitive == "hello"


def test_absorb_parallel_max_rounds_sum_bits():
    cl = Cluster(3, 16)
    lanes = []
    for extra in (1, 3):
        lane = cl.lane()
        for _ in range(extra):
            lane.broadcast(10)
        lanes.append(lane)
    cl.absorb_parallel(lanes, label="batch")
    assert cl.rounds == 3
    assert cl.peak_inbox_bits == 20
    assert cl.log == [RoundLogEntry("batch", 3, 20)]


def test_absorb_parallel_budget_violation():
    cl = Cluster(2, 2, mem_c=1, mem_e=1)
    lanes = []
    for _ in range(3):
        lane = cl.lane()
        lane.broadcast(cl.budget_bits // 2)
        lanes.append(lane)
    with pytest.raises(BudgetError) as exc:
        cl.absorb_parallel(lanes, label="too-wide")
    assert exc.value.cluster is cl


def test_lane_budget_violation_carries_the_outermost_cluster():
    cl = Cluster(2, 2, mem_c=1, mem_e=1)
    cl.broadcast(1)
    cl.broadcast(1)
    outer = cl.lane()
    outer.broadcast(1)
    inner = outer.lane()
    with pytest.raises(BudgetError, match="in round 4,") as exc:
        inner.broadcast(cl.budget_bits + 1)
    assert exc.value.cluster is cl
    assert inner.rounds == 0


def test_keep_machines_narrows_every_later_primitive():
    cl = Cluster(8, 16)
    cl.keep_machines(5)
    cl.gather(7, label="gather")
    cl.convergecast(3, entry_bits=1, label="cast")
    assert cl.log == [RoundLogEntry("gather", 1, 4 * 7), RoundLogEntry("cast", 3, 3 * (1 + 3))]
    cl.convergecast_sum(np.ones((5, 2), dtype=np.int64), entry_bits=1)
    with pytest.raises(ValueError, match=r"expected shape \(5, width\)"):
        cl.convergecast_sum(np.ones((8, 2), dtype=np.int64), entry_bits=1)
    assert cl.lane().m == 5
    cl.keep_machines(1)
    cl.broadcast(12, label="alone")
    assert cl.log[-1] == RoundLogEntry("alone", 1, 0)
    for m in (0, 2):
        with pytest.raises(ValueError, match="machines"):
            cl.keep_machines(m)
    assert cl.m == 1


def test_check_log_consistent_detects_drift():
    cl = Cluster(2, 4)
    cl.broadcast(1)
    cl.rounds += 1
    with pytest.raises(AssertionError):
        cl.check_log_consistent()


def test_invariants_raise_named_errors():
    with pytest.raises(ValueError):
        ceil_log2(0)
    with pytest.raises(ValueError):
        Cluster(0, 4)
    with pytest.raises(ValueError):
        Cluster(3, 4).convergecast_sum(np.ones((2, 4), dtype=np.int64), entry_bits=1)
    with pytest.raises(ValueError):
        Cluster(3, 4).convergecast_sum(np.ones(3, dtype=np.int64), entry_bits=1)
    assert issubclass(LogDriftError, AssertionError)


# -- closed-form charging against a message-by-message replay ------------------


class ReplayCluster:
    """Reference harness: every round is an explicit per-receiver inbox,
    and a converge-cast really merges partial sums up the binary tree."""

    def __init__(self, m: int, budget_bits: int):
        self.m = m
        self.budget_bits = budget_bits
        self.rounds = 0
        self.peak_inbox_bits = 0
        self.log: list[RoundLogEntry] = []
        self.round_peaks: list[int] = []

    def _round(self, inbox: dict[int, int]) -> int:
        for bits in inbox.values():
            if bits > self.budget_bits:
                err = BudgetError("over budget")
                err.cluster = self
                raise err
        peak = max(inbox.values(), default=0)
        self.rounds += 1
        self.peak_inbox_bits = max(self.peak_inbox_bits, peak)
        self.round_peaks.append(peak)
        return peak

    def step_round(self, deliveries, label):
        inbox: dict[int, int] = {}
        for _sender, receiver, bits in deliveries:
            inbox[receiver] = inbox.get(receiver, 0) + bits
        self.log.append(RoundLogEntry(label, 1, self._round(inbox)))

    def keep_machines(self, m):
        self.m = m

    def broadcast(self, payload_bits, label):
        self.step_round([(1, j, payload_bits) for j in range(2, self.m + 1)], label)

    def gather(self, bits_each, label):
        self.step_round([(j, 1, bits_each) for j in range(2, self.m + 1)], label)

    def convergecast(self, width, entry_bits, label):
        self.convergecast_sum(np.zeros((self.m, width), dtype=np.int64), entry_bits, label)

    def convergecast_sum(self, vectors, entry_bits, label):
        partial = np.array(vectors, dtype=np.int64)
        msg_bits = partial.shape[1] * (entry_bits + ceil_log2(self.m))
        rounds = peak = 0
        stride = 1
        while stride < self.m:
            senders = range(1 + stride, self.m + 1, 2 * stride)
            for s in senders:
                partial[s - 1 - stride] += partial[s - 1]
            peak = max(peak, self._round({s - stride: msg_bits for s in senders}))
            rounds += 1
            stride *= 2
        self.log.append(RoundLogEntry(label, rounds, peak))
        return partial[0]


def _ops(m: int):
    op = st.one_of(
        st.tuples(st.just("broadcast"), st.integers(0, 40)),
        st.tuples(st.just("gather"), st.integers(0, 40)),
        st.tuples(st.just("count"), st.integers(0, 4), st.integers(0, 6)),
        st.tuples(st.just("keep"), st.integers(1, m)),
        st.tuples(st.just("cast"), st.integers(0, 4), st.integers(0, 6), st.integers(0, 2**16)),
    )
    return st.lists(op, max_size=12)


def _run_program(cl, ops, sums):
    """Apply ops to cl; a BudgetError must leave the counters and log as they were."""
    for op in ops:
        before = (cl.rounds, cl.peak_inbox_bits, list(cl.log))
        try:
            if op[0] == "broadcast":
                cl.broadcast(op[1], label="bcast")
            elif op[0] == "gather":
                cl.gather(op[1], label="gather")
            elif op[0] == "count":
                cl.convergecast(op[1], op[2], label="count")
            elif op[0] == "keep":
                cl.keep_machines(min(op[1], cl.m))
            else:
                _, width, entry_bits, seed = op
                vectors = np.random.default_rng(seed).integers(
                    0, 1 << entry_bits, size=(cl.m, width), dtype=np.int64
                )
                sums.append(cl.convergecast_sum(vectors, entry_bits, label="cast").tolist())
        except BudgetError as err:
            assert err.cluster is cl
            assert (cl.rounds, cl.peak_inbox_bits, cl.log) == before
            raise


def _outcome(cl, ops):
    sums: list = []
    try:
        _run_program(cl, ops, sums)
        failed = False
    except BudgetError:
        failed = True
    return failed, sums, cl.rounds, cl.peak_inbox_bits, cl.log


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closed_form_primitives_match_message_replay(data):
    m = data.draw(st.sampled_from([1, 2, 3, 5, 8, 17]), label="m")
    ops = data.draw(_ops(m), label="ops")
    free = ReplayCluster(m, budget_bits=1 << 30)
    _run_program(free, ops, [])
    # budgets exactly at some round's peak and one bit under it, so that
    # round is at the budget or one bit over
    edges = sorted({1 << 30} | {b for p in free.round_peaks for b in (p, p - 1) if b >= 0})
    budget = data.draw(st.sampled_from(edges), label="budget")
    cl = Cluster(m, 1, mem_c=budget, mem_e=0)
    assert cl.budget_bits == budget
    assert _outcome(cl, ops) == _outcome(ReplayCluster(m, budget), ops)
    cl.check_log_consistent()


def test_log_to_jsonl_meta_first():
    entries = [RoundLogEntry("a", 2, 7), RoundLogEntry("b", 1, 3)]
    text = log_to_jsonl(entries, meta={"n": 4})
    lines = text.splitlines()
    assert json.loads(lines[0]) == {"meta": {"n": 4}}
    assert json.loads(lines[1]) == {"primitive": "a", "rounds": 2, "peak_bits": 7}
    assert text.endswith("\n")
    assert log_to_jsonl(entries) == "\n".join(lines[1:]) + "\n"
