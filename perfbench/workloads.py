"""The benchmark's workloads: their instances, built from the run seed, and
reference answers computed apart from the program.

A workload is a fixed list of operations.  An operation is one
`run_pipeline` call on an instance file parsed by `load_instance`, the
work `mpcover run` does.  The run seed never changes which set system the
program solves up to relabelling, so the simulated cost (rounds, peak
inbox bits) and the coverage are the same on every seed:

- on `lp-tiles` and `lp-overlap` the seed shuffles the order of the
  element ids on every set line.  The program parses the same set system
  from every shuffle; only the text differs.  The LP oracle breaks cost
  ties by element index, so relabelling elements could change the run.
- on `wide` the seed also relabels the elements with a random permutation
  of [1..n].  The greedy gate is invariant under that: gains are counts
  and ties go to the lower set index, which the relabelling keeps.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lp-tiles", "lp-overlap", "wide")

# The pipeline seed drives rounding and subsampling.  7 is the seed at which
# test_path_lp_end_to_end_tiles freezes 158558 rounds and 9984 peak bits.
PIPELINE_SEED = 7
# Inbox budget constants the program defaults to (README "Accounting model").
MEM_C = 64
MEM_E = 2
# Audit ceiling constant from the README, for subsampled runs.
AUDIT_SUB = 4096
GREEDY_GATE = 10


def ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


@dataclass(frozen=True)
class Instance:
    """The benchmark's own copy of an instance, as plain Python sets."""

    n: int
    m: int
    k: int
    sets: tuple[frozenset[int], ...]

    def text(self, rng: random.Random) -> str:
        """Instance file text, each line's ids in an order drawn from rng."""
        out = [f"{self.n} {self.m} {self.k}"]
        for s in self.sets:
            ids = list(s)
            rng.shuffle(ids)
            out.append(" ".join(map(str, ids)))
        return "\n".join(out) + "\n"

    def union_size(self, selection) -> int:
        covered: set[int] = set()
        for j in selection:
            covered |= self.sets[j - 1]
        return len(covered)


@dataclass(frozen=True)
class Expect:
    """What a correct report must show, found without the program.

    opt: the optimum, when known; coverage must reach (1 - 1/e - eps) * opt.
    picks: the exact selection, when the solve takes the greedy gate.
    rounds: the exact round count, when the solve takes the greedy gate.
    audit_eps: the accuracy the run's audit ceiling is computed at.
    """

    opt: int | None
    picks: tuple[int, ...] | None
    rounds: int | None
    audit_eps: Fraction


@dataclass(frozen=True)
class Op:
    label: str
    inst: Instance
    text: str
    eps: Fraction | None
    eta: Fraction | None
    expect: Expect

    def flags(self) -> list[str]:
        if self.eta is not None:
            return ["--eta", str(self.eta)]
        return ["--eps", str(self.eps)]


# -- instances ---------------------------------------------------------------


def tiles(sizes, k: int) -> Instance:
    """Disjoint tiles of the given sizes, elements numbered tile by tile."""
    sets, e = [], 1
    for size in sizes:
        sets.append(frozenset(range(e, e + size)))
        e += size
    return Instance(e - 1, len(sets), k, tuple(sets))


def chain(n: int, k: int) -> Instance:
    """Sets {i, i+1}: overlapping, frequencies 1 (the ends) and 2."""
    return Instance(n, n - 1, k, tuple(frozenset((i, i + 1)) for i in range(1, n)))


def binomial(n: int, m: int, k: int, density: float, instance_seed: int) -> Instance:
    """Each element joins each set independently with the given density."""
    rng = np.random.default_rng(instance_seed)
    sets = tuple(
        frozenset((np.flatnonzero(rng.random(n) < density) + 1).tolist()) for _ in range(m)
    )
    return Instance(n, m, k, sets)


def parse(text: str) -> Instance:
    """Minimal reader for the instance files kept under data/."""
    lines = text.split("\n")
    n, m, k = (int(t) for t in lines[0].split())
    sets = tuple(frozenset(int(t) for t in lines[j].split()) for j in range(1, m + 1))
    return Instance(n, m, k, sets)


def relabel(inst: Instance, rng: random.Random) -> Instance:
    perm = list(range(1, inst.n + 1))
    rng.shuffle(perm)
    sets = tuple(frozenset(perm[e - 1] for e in s) for s in inst.sets)
    return Instance(inst.n, inst.m, inst.k, sets)


# -- references ----------------------------------------------------------------


def brute_force_opt(inst: Instance) -> int:
    return max(inst.union_size(c) for c in itertools.combinations(range(1, inst.m + 1), inst.k))


def sequential_greedy(inst: Instance) -> tuple[int, ...]:
    """k picks of the largest marginal gain; ties go to the lowest index."""
    covered: set[int] = set()
    picks: list[int] = []
    for _ in range(inst.k):
        best, best_gain = 0, -1
        for j in range(1, inst.m + 1):
            if j in picks:
                continue
            gain = len(inst.sets[j - 1] - covered)
            if gain > best_gain:
                best, best_gain = j, gain
        picks.append(best)
        covered |= inst.sets[best - 1]
    return tuple(picks)


def covered_count(inst: Instance) -> int:
    return len(set().union(*inst.sets))


def greedy_rounds(m: int, k: int) -> int:
    """Rounds of an eps-mode run through the greedy gate: the normalize
    converge-cast and broadcast, then k argmax reductions, each followed by
    the winner-id broadcast and the winner-mask round."""
    return ceil_log2(m) + 1 + k * (ceil_log2(m) + 2)


def greedy_expect(inst: Instance, eps: Fraction) -> Expect:
    if inst.k >= inst.m or Fraction(covered_count(inst), GREEDY_GATE) > 1 / eps:
        raise ValueError("instance does not take the greedy gate")
    return Expect(None, sequential_greedy(inst), greedy_rounds(inst.m, inst.k), eps)


def bounded_frequency_expect(inst: Instance, eta: Fraction) -> Expect:
    """Keep the ceil(k * f_max / eta) largest sets (ties keep the lower
    index) and solve them at eps = eta**2 / f_max through the greedy gate."""
    freq: dict[int, int] = {}
    for s in inst.sets:
        for e in s:
            freq[e] = freq.get(e, 0) + 1
    f_max = max(freq.values(), default=1)
    keep = math.ceil(inst.k * f_max / eta)
    pre = ceil_log2(inst.m)
    kept = list(range(1, inst.m + 1))
    if keep < inst.m:
        order = sorted(kept, key=lambda j: (-len(inst.sets[j - 1]), j))
        kept = sorted(order[:keep])
        pre += 2  # size gather, keep broadcast
    reduced = Instance(inst.n, len(kept), inst.k, tuple(inst.sets[j - 1] for j in kept))
    inner_eps = eta * eta / f_max
    inner = greedy_expect(reduced, inner_eps)
    picks = tuple(sorted(kept[j - 1] for j in inner.picks))
    return Expect(None, picks, pre + inner.rounds, inner_eps)


def audit_ceiling(m: int, eps: Fraction) -> int:
    """The README's a-priori round ceiling for runs with subsampling on (the
    default every workload uses), logs ceil'd and floored at 1."""
    inv = 1 / Fraction(eps)
    lm = max(1, ceil_log2(m))
    return AUDIT_SUB * math.ceil(inv**3) * lm * (max(1, ceil_log2(math.ceil(inv))) + lm)


def memory_budget(n: int) -> int:
    return MEM_C * n * ceil_log2(n + 2) ** MEM_E


# -- workloads -----------------------------------------------------------------


def _lp_op(label: str, inst: Instance, opt: int, rng: random.Random) -> Op:
    eps = Fraction(1, 4)
    if Fraction(covered_count(inst), GREEDY_GATE) <= 1 / eps:
        raise ValueError(f"{label}: instance would take the greedy gate, not the LP")
    return Op(label, inst, inst.text(rng), eps, None, Expect(opt, None, None, eps))


def build(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The operations of one round of the workload, for the run seed.

    small=True gives shapes that take the same paths in a few seconds, for
    the benchmark's own tests.
    """
    rng = random.Random(seed)
    if workload == "lp-tiles":
        # 17 disjoint tiles, one of 4 elements and 16 of 3 (n=52, m=17, k=2);
        # the best k tiles are the largest: OPT = 4 + 3(k-1).
        inst = tiles([1] * 41, 1) if small else tiles([4] + [3] * 16, 2)
        opt = sum(sorted((len(s) for s in inst.sets), reverse=True)[: inst.k])
        return [_lp_op("tiles", inst, opt, rng)]
    if workload == "lp-overlap":
        # random sets of 3-5 elements over n=56 (45 covered), m=24, k=1
        inst = chain(42, 1) if small else parse((HERE / "data" / "lp-overlap.txt").read_text())
        return [_lp_op("overlap", inst, brute_force_opt(inst), rng)]
    if workload == "wide":
        if small:
            g_shape, g_eps = (5000, 100, 10, 0.01, 1), Fraction(1, 10000)
            b_shape = (600, 200, 5, 0.02, 2)
        else:
            g_shape, g_eps = (50000, 400, 40, 0.01, 1), Fraction(1, 200000)
            b_shape = (3000, 1000, 10, 0.01, 2)
        eta = Fraction(1, 4)
        g_inst = relabel(binomial(*g_shape), rng)
        b_inst = relabel(binomial(*b_shape), rng)
        return [
            Op("greedy", g_inst, g_inst.text(rng), g_eps, None, greedy_expect(g_inst, g_eps)),
            Op("eta", b_inst, b_inst.text(rng), None, eta, bounded_frequency_expect(b_inst, eta)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
