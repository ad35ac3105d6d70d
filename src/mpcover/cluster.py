"""Synchronous message-passing cluster with round and memory accounting.

One machine per set plus a designated central machine (machine 1 doubles as
central so a converge-cast over m machines costs exactly ceil(log2 m)
rounds).  Only received bits are accounted: every machine has an inbox
budget of mem_c * n * ceil(log2(n+2))**mem_e bits per round, and a round in
which any inbox exceeds the budget raises BudgetError.

A run charges every round to one Cluster.  When a run drops machines (as
bounded-frequency mode drops its smaller sets), keep_machines narrows it.

The accounting plane is separate from the data plane.  The rounds and the
largest inbox of a broadcast, a gather to central or a converge-cast depend
only on its shape: m, the vector width and the entry width.  All three are
charged in closed form through charge(); a converge-cast's sum is computed
directly, without replaying the tree, from a dense array or a sparse
incidence alike.  The other rounds of a run (the greedy argmax tree, the
prefix-union levels) have fixed shapes too, and their callers charge them
through charge() directly.

Every charge appends one entry to a round log, so the sum of logged
rounds always equals the cluster round counter.  A loop whose iterations
all have one shape (an MWU lane, charged by lp.charge_lane) is charged its
first iteration primitive by primitive and the rest in one charge, so logs
stay proportional to the primitive schedule, not to the iteration count.

Data planes compute first and their callers charge after.  A parallel
batch costs the rounds of its slowest member while inbox bits add up.
Members that each run one primitive of one shape are charged as that
primitive once, at their summed width: a batch of B rounding candidates is
one converge-cast of width B * n.  Members that run several primitives
each charge a lane (lane), which the batch then absorbs (absorb_parallel);
only the LP's guess batches do, so that a budget error inside one still
names its primitive and its round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MEM_C = 64
DEFAULT_MEM_E = 2


class BudgetError(RuntimeError):
    """A machine received more bits in one round than the memory budget."""


class LogDriftError(AssertionError):
    """The round log no longer sums to the cluster's round counter."""


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError(f"ceil_log2 needs x >= 1, got {x}")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class RoundLogEntry:
    primitive: str
    rounds: int
    peak_bits: int

    def to_json(self) -> dict:
        return {"primitive": self.primitive, "rounds": self.rounds, "peak_bits": self.peak_bits}


class Cluster:
    """m set machines (ids 1..m), machine 1 also acting as central."""

    def __init__(self, m: int, n: int, mem_c: int | None = None, mem_e: int | None = None):
        if m < 1 or n < 1:
            raise ValueError(f"a cluster needs m >= 1 and n >= 1, got m={m} n={n}")
        if mem_c is None:
            mem_c = DEFAULT_MEM_C
        if mem_e is None:
            mem_e = DEFAULT_MEM_E
        if not all(type(v) is int and v >= 0 for v in (mem_c, mem_e)):
            raise ValueError(f"mem_c and mem_e must be integers >= 0, got {mem_c!r}, {mem_e!r}")
        self.m = m
        self.n = n
        self.mem_c = mem_c
        self.mem_e = mem_e
        self.central = 1
        self.budget_bits = mem_c * n * ceil_log2(n + 2) ** mem_e
        self.rounds = 0
        self.peak_inbox_bits = 0
        self.log: list[RoundLogEntry] = []
        self.parent = None  # on a lane, the Cluster it runs for

    # -- accounting --------------------------------------------------------

    def charge(self, label: str, rounds: int, peak: int) -> None:
        """Count `rounds` rounds in which no inbox exceeds `peak` bits.

        Raises BudgetError before anything is counted when peak is above the
        per-round budget.  The error names the run-level round and carries
        the outermost cluster (this one, unless it is a lane) as err.cluster.
        """
        if rounds < 0 or peak < 0:
            raise ValueError(f"'{label}': rounds and peak must be nonnegative")
        if peak > self.budget_bits:
            # a lane runs while its parent waits, so the run has counted the
            # rounds of every cluster up the chain
            root, before = self, self.rounds
            while root.parent is not None:
                root = root.parent
                before += root.rounds
            err = BudgetError(
                f"'{label}' puts {peak} bits in one inbox in round "
                f"{before + 1}, budget is {self.budget_bits}"
            )
            err.cluster = root  # the run's partial log stays reachable for flushing
            raise err
        self.rounds += rounds
        if peak > self.peak_inbox_bits:
            self.peak_inbox_bits = peak
        self.log.append(RoundLogEntry(label, rounds, peak))

    # -- primitives --------------------------------------------------------

    def broadcast(self, payload_bits: int, label: str = "broadcast") -> None:
        """Central sends the same payload to every other machine, 1 round."""
        self.charge(label, 1, payload_bits if self.m > 1 else 0)

    def gather(self, bits_each: int, label: str = "gather") -> None:
        """Every machine but central sends central bits_each bits, 1 round."""
        if bits_each < 0:
            raise ValueError(f"'{label}': message size must be nonnegative, got {bits_each}")
        self.charge(label, 1, (self.m - 1) * bits_each)

    def convergecast(self, width: int, entry_bits: int, label: str = "convergecast") -> None:
        """Charge a sum of per-machine vectors along a fixed binary tree
        rooted at central: width entries of at most entry_bits bits each.
        Costs ceil(log2 m) rounds; every merge message is accounted at
        width * (entry_bits + ceil(log2 m)) bits, the worst-case width of a
        partial sum."""
        depth = ceil_log2(self.m)
        self.charge(label, depth, width * (entry_bits + depth) if depth else 0)

    def convergecast_sum(self, vectors, entry_bits: int, label: str = "convergecast_sum"):
        """convergecast() of vectors, one row per machine with nonnegative
        entries: a numpy array or an instance.Incidence of shape (m, width).
        Returns their exact column sum, vectors.sum(axis=0)."""
        shape = np.shape(vectors)
        if len(shape) != 2 or shape[0] != self.m:
            raise ValueError(f"'{label}': expected shape ({self.m}, width), got {shape}")
        self.convergecast(shape[1], entry_bits, label)
        return vectors.sum(axis=0)

    # -- composition -------------------------------------------------------

    def keep_machines(self, m: int) -> None:
        """Narrow the run to machines 1..m: later primitives and lanes count m."""
        if not 1 <= m <= self.m:
            raise ValueError(f"can only keep 1 to {self.m} machines, got {m}")
        self.m = m

    def lane(self) -> "Cluster":
        """Fresh cluster for one member of a parallel batch, charged while
        this one waits for absorb_parallel: one per LP guess."""
        lane = Cluster(self.m, self.n, self.mem_c, self.mem_e)
        lane.parent = self
        return lane

    def absorb_parallel(self, lanes, label: str) -> None:
        """Merge lanes run in parallel: max of rounds, sum of inbox peaks.

        Summing peaks over-counts a machine's per-round total (the lanes may
        peak in different rounds) so the budget check here is conservative.
        """
        lanes = list(lanes)
        rounds_used = max((l.rounds for l in lanes), default=0)
        self.charge(label, rounds_used, sum(l.peak_inbox_bits for l in lanes))

    def check_log_consistent(self) -> None:
        logged = sum(e.rounds for e in self.log)
        if logged != self.rounds:
            raise LogDriftError(f"round log sums to {logged}, cluster counted {self.rounds}")


def log_to_jsonl(entries, meta: dict | None = None) -> str:
    """Serialize a round log, optionally preceded by one meta line."""
    import json

    lines = []
    if meta is not None:
        lines.append(json.dumps({"meta": meta}, sort_keys=True))
    for e in entries:
        lines.append(json.dumps(e.to_json(), sort_keys=True))
    return "\n".join(lines) + "\n"
