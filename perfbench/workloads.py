"""Seeded workloads for the kjuggle benchmark.

A workload is a schedule of rounds; a round is a list of queries.  A query is
one timed call into kjuggle plus untimed checks of its result:

* the stored reference value for its key, when the reference has one;
* agreement with the other queries of its group (two independent routes to
  the same number, e.g. the partition DP against the juggling DP);
* an optional `verify` hook (a closed-form law, canonical JSON, ...).

Inputs are built from the seed alone, using only kjuggle's Root type and no
engine, so a change to the engines cannot change what they are asked.  Every query calls kjuggle
through module attributes (``kostant.count_partitions``), so the tracer's
wrappers see the calls.

deep's pools are dealt like decks: shuffled by the seed and dealt without
replacement until empty, then reshuffled.  Every round therefore has the same
mix of query kinds and a run sees as much of each pool as it can, which keeps
a run's cost close to that of any other seed.  grid draws one large round
with a fixed number of queries per family and repeats it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable

from kjuggle import bcd, bijection, cli, closedforms, juggling, kostant, poset, roots
from kjuggle.roots import Root, edouble, eminus, eplus, esingle

WORKLOADS = ("deep", "grid")
DEFAULT_SEED = 1
# deep draws fresh rounds; the timed phase cycles through this many.
SCHEDULE_ROUNDS = 24


class Mismatch(Exception):
    """Two routes to the same value disagreed inside one query."""


@dataclass(frozen=True)
class Query:
    key: str                                   # canonical input; the reference key
    run: Callable[[], object]                  # the timed call
    value: Callable[[object], str] = str       # what the reference stores
    group: str | None = None                   # queries of a group must agree
    agree: Callable[[object], str] | None = None   # compared within the group
    verify: Callable[[object], str | None] | None = None  # error text or None


@dataclass
class Workload:
    name: str
    seed: int
    rounds: list                  # list[list[Query]]
    warmup: list                  # callables run untimed during set-up
    workdir: Path | None = None   # input files of the command-line queries
    digest: str = field(init=False)

    def __post_init__(self):
        h = hashlib.sha256()
        for rnd in self.rounds:
            for q in rnd:
                h.update(q.key.encode())
                h.update(b"\n")
        self.digest = h.hexdigest()

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


class Deck:
    """Deal pool items without replacement, reshuffling when empty."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.pos = len(self.items)

    def draw(self):
        if self.pos == len(self.items):
            self.rng.shuffle(self.items)
            self.pos = 0
        self.pos += 1
        return self.items[self.pos - 1]


def fmt(values) -> str:
    return "(" + ",".join(str(x) for x in values) + ")"


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- inputs, built without kjuggle ------------------------------------------


def _highest_root(lie_type: str, rank: int) -> tuple:
    """e1+e2 for B and D, 2e1 for C."""
    w = [0] * rank
    if lie_type == "C":
        w[0] = 2
    else:
        w[0] = w[1] = 1
    return tuple(w)


def _simple_root(lie_type: str, rank: int, i: int) -> tuple:
    w = [0] * rank
    if i < rank:
        w[i - 1], w[i] = 1, -1
    elif lie_type == "B":
        w[rank - 1] = 1
    elif lie_type == "C":
        w[rank - 1] = 2
    else:
        w[rank - 2] = w[rank - 1] = 1
    return tuple(w)


def _positive_roots(lie_type: str, rank: int) -> list:
    n = rank + 1 if lie_type == "A" else rank
    out = [eminus(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if lie_type != "A":
        out += [eplus(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if lie_type == "B":
        out += [esingle(i) for i in range(1, n + 1)]
    elif lie_type == "C":
        out += [edouble(i) for i in range(1, n + 1)]
    return out


def _root_vector(root: Root, n: int) -> tuple:
    w = [0] * n
    w[root.i - 1] += 2 if root.kind == "double" else 1
    if root.j:
        w[root.j - 1] += -1 if root.kind == "minus" else 1
    return tuple(w)


def _zero_sum_weights(r: int, bound: int = 2):
    for head in product(range(-bound, bound + 1), repeat=r):
        last = -sum(head)
        if -bound <= last <= bound:
            yield head + (last,)


def _small_states(max_total: int, max_height: int) -> list:
    states = [()]
    for total in range(1, max_total + 1):
        for vec in product(range(total + 1), repeat=max_height):
            if sum(vec) == total:
                end = len(vec)
                while end and vec[end - 1] == 0:
                    end -= 1
                if vec[:end] not in states:
                    states.append(vec[:end])
    return states


def _staircase_pool(r: int) -> list:
    """Staircase weights of A_r with one head entry r-k moved by +1 or -1."""
    pool = []
    for k in range(r):
        for step in (1, -1):
            head = list(range(r, 0, -1))
            head[k] += step
            pool.append(tuple(head) + (-sum(head),))
    return pool


def _q_minus_one_power(k: int) -> tuple:
    return tuple(comb(k, j) * (-1) ** (k - j) for j in range(k + 1))


def _random_subset(roots_list, rng):
    keep = [rng.random() < 0.5 for _ in roots_list]
    mask = sum(1 << k for k, bit in enumerate(keep) if bit)
    return [r for r, bit in zip(roots_list, keep) if bit], f"{mask:x}"


# --- deep -------------------------------------------------------------------

# A_5 heads whose weight has between 8e3 and 14e3 partitions; the last head
# entry (0..3) is free and does not change the count.
ENUM_HEADS = ((1, 3, 3, 2), (1, 3, 3, 3), (2, 1, 3, 3), (2, 2, 2, 1), (2, 2, 2, 2),
              (2, 2, 2, 3), (2, 2, 3, 0), (2, 3, 0, 2), (2, 3, 0, 3), (2, 3, 1, 0),
              (2, 3, 1, 1), (3, 0, 3, 2), (3, 0, 3, 3), (3, 1, 1, 2), (3, 1, 1, 3),
              (3, 1, 2, 0), (3, 1, 2, 1), (3, 2, 0, 1), (3, 2, 0, 2), (3, 2, 1, 0))

# Binary start states whose juggling poset has 476 to 952 elements.
POSET_STATES = ((1, 0, 1, 1, 0, 0), (1, 1, 0, 0, 1, 0), (1, 0, 1, 1, 1, 0),
                (1, 1, 0, 1, 0, 0), (1, 0, 0, 1, 1, 0, 0))

GF_ROWS = ("2|2", "11|2", "21|2", "111|2", "22|2", "3|3", "21|3")


def _type_a_pair(mu) -> list:
    """count_partitions and count_sequences of one type-A weight."""
    r = len(mu) - 1
    head = mu[:r]
    group = f"A{r} {fmt(mu)}"
    return [
        Query(f"kostant.count_partitions A{r} {fmt(mu)}",
              lambda: kostant.count_partitions(mu, roots.positive_roots("A", r)), group=group),
        Query(f"juggling.count_sequences {fmt(head)}->({sum(head)}) n={r}",
              lambda: juggling.count_sequences(head, (sum(head),), r), group=group),
    ]


def _bcd_pair(item) -> list:
    lie_type, rank, mu = item
    group = f"{lie_type}{rank} {fmt(mu)}"
    return [
        Query(f"bcd.schmidt_bincer_count {group}",
              lambda: bcd.schmidt_bincer_count(lie_type, rank, mu), group=group),
        Query(f"kostant.count_partitions {group}",
              lambda: kostant.count_partitions(mu, roots.positive_roots(lie_type, rank)),
              group=group),
    ]


def _gf_pair(item) -> list:
    row, n = item
    group = f"gf {row} n={n}"
    return [
        Query(f"closedforms.gf_coefficients {row} upto={n}",
              lambda: closedforms.gf_coefficients(row, n),
              value=lambda res: str(res[-1]), group=group),
        Query(f"closedforms.gf_direct_count {row} n={n}",
              lambda: closedforms.gf_direct_count(row, n), group=group),
    ]


def _permdet_pair(rank: int, rng) -> list:
    allowed, mask = _random_subset(_positive_roots("A", rank), rng)
    group = f"A{rank} mask={mask}"
    return [
        Query(f"closedforms.perm_det_count {group}",
              lambda: closedforms.perm_det_count(rank, allowed), group=group),
        Query(f"kostant.count_partitions e1-e{rank + 1} {group}",
              lambda: kostant.count_partitions(roots.highest_root("A", rank), allowed),
              group=group),
    ]


def _coeffs_value(coeffs) -> str:
    return " ".join(str(c) for c in coeffs)


def _ehrhart_pair(head) -> list:
    mu = head + (-sum(head),)
    group = f"A4 {fmt(mu)}"
    return [
        # The fitted polynomial at t = 1 (the sum of its coefficients) is the
        # partition count of the weight itself.
        Query(f"closedforms.ehrhart_fit {fmt(mu)} extra=2",
              lambda: closedforms.ehrhart_fit(mu, 2), value=_coeffs_value,
              agree=lambda res: str(sum(res, Fraction(0))), group=group),
        Query(f"kostant.count_partitions A4 {fmt(mu)}",
              lambda: kostant.count_partitions(mu, roots.positive_roots("A", 4)), group=group),
    ]


def _lidskii_pair(mu) -> list:
    r = len(mu) - 1
    group = f"A{r} {fmt(mu)}"
    return [
        Query(f"closedforms.lidskii_count {fmt(mu)} both",
              lambda: closedforms.lidskii_count(mu, "both"), group=group),
        Query(f"kostant.count_partitions A{r} {fmt(mu)}",
              lambda: kostant.count_partitions(mu, roots.positive_roots("A", r)), group=group),
    ]


def _partitions_value(parts) -> str:
    text = ";".join(" ".join(f"{root}^{m}" for root, m in p) for p in parts)
    return f"{len(parts)} {digest_text(text)}"


def _enumerate_pair(mu) -> list:
    r = len(mu) - 1
    head = mu[:r]
    group = f"A{r} {fmt(mu)}"
    return [
        Query(f"kostant.enumerate_partitions A{r} {fmt(mu)}",
              lambda: kostant.enumerate_partitions(mu, roots.positive_roots("A", r)),
              value=_partitions_value, agree=lambda res: str(len(res)), group=group),
        Query(f"juggling.count_sequences {fmt(head)}->({sum(head)}) n={r}",
              lambda: juggling.count_sequences(head, (sum(head),), r), group=group),
    ]


def _poset_query(a, n: int, capacity, exponent: int) -> Query:
    """build_poset + characteristic_polynomial, checked against (q - 1)^exponent."""
    b = (sum(a),)
    want = _q_minus_one_power(exponent)

    def run():
        p = poset.build_poset(a, b, n, capacity)
        return len(p), len(p.covers), poset.characteristic_polynomial(p)

    def verify(res):
        return None if res[2] == want else f"characteristic polynomial {res[2]} != (q-1)^{exponent}"

    return Query(f"poset.charpoly {fmt(a)}->{fmt(b)} n={n} cap={capacity}", run,
                 value=lambda res: f"{res[0]} {res[1]} {_coeffs_value(res[2])}",
                 verify=verify)


def _binary_exponent(bits) -> int:
    return sum((len(bits) - i) * x for i, x in enumerate(bits, start=1))


def build_deep(seed: int) -> Workload:
    rng = random.Random(f"deep-{seed}")
    a6 = Deck(_staircase_pool(6), rng)
    a5 = Deck(_staircase_pool(5), rng)
    bcd_decks = {}
    for lie_type in "BCD":
        # highest roots at ranks 9..12, and at ranks 10..12 the highest root
        # plus the last simple root
        pool = [(lie_type, rank, _highest_root(lie_type, rank)) for rank in range(9, 13)]
        pool += [(lie_type, rank, tuple(x + y for x, y in zip(
            _highest_root(lie_type, rank), _simple_root(lie_type, rank, rank))))
            for rank in range(10, 13)]
        bcd_decks[lie_type] = Deck(pool, rng)
    gf = Deck([(row, n) for row in GF_ROWS for n in (10, 11, 12)], rng)
    ehr = Deck([h for h in product((0, 1), repeat=4) if any(h)], rng)
    lid = Deck([h + (-sum(h),) for h in product(range(3), repeat=5)], rng)
    enum = Deck([h + (last, -sum(h) - last) for h in ENUM_HEADS for last in range(4)], rng)
    posets = Deck([((1,), n, 1, n - 1) for n in (10, 11, 12)]
                  + [(s, len(s), None, _binary_exponent(s)) for s in POSET_STATES], rng)
    rounds = []
    for _ in range(SCHEDULE_ROUNDS):
        rnd = []
        for _ in range(2):
            rnd += _type_a_pair(a6.draw())
        for _ in range(4):
            rnd += _type_a_pair(a5.draw())
        for lie_type in "BCD":
            rnd += _bcd_pair(bcd_decks[lie_type].draw())
        rnd += _gf_pair(gf.draw())
        rnd += _permdet_pair(rng.randint(11, 13), rng)
        rnd += _ehrhart_pair(ehr.draw())
        rnd += _lidskii_pair(lid.draw())
        rnd += _enumerate_pair(enum.draw())
        rnd.append(_poset_query(*posets.draw()))
        rng.shuffle(rnd)
        rounds.append(rnd)
    return Workload("deep", seed, rounds, _warmup())


# --- grid -------------------------------------------------------------------

GRID_PER_FAMILY = 400


def _verify_query(mu) -> Query:
    def run():
        report = bijection.verify_correspondence(mu)
        if not report.ok:
            raise Mismatch(report.first_mismatch)
        return report.partition_count
    return Query(f"bijection.verify_correspondence {fmt(mu)}", run)


def _capacity_query(a, b, n, m) -> Query:
    def run():
        js = juggling.count_sequences(a, b, n, m)
        target = bijection.net_change_target(a, b, n)
        lam = bijection.time_bounded_roots(n, len(target))
        q = kostant.count_capacity_restricted(target, lam, a, m)
        if js != q:
            raise Mismatch(f"count_sequences {js} != count_capacity_restricted {q}")
        return js
    return Query(f"capacity {fmt(a)}->{fmt(b)} n={n} m={m}", run)


def _restricted_query(mu, lam, mask) -> Query:
    def run():
        throws = (bijection.throwset_of_roots(lam) if lam
                  else juggling.ThrowSet.from_throws([]))
        kp = kostant.count_partitions(mu, lam)
        js = juggling.count_sequences(mu[:4], (sum(mu[:4]),), 4, None, throws)
        if kp != js:
            raise Mismatch(f"count_partitions {kp} != restricted count_sequences {js}")
        return kp
    return Query(f"restricted {fmt(mu)} mask={mask}", run)


def _labeled_query(a, b, n) -> Query:
    def run():
        predicted = juggling.labeled_count(a, b, n)
        joint = len(juggling.enumerate_labeled_sequences(a, b, n))
        if predicted != joint:
            raise Mismatch(f"labeled_count {predicted} != joint enumeration {joint}")
        return predicted
    return Query(f"labeled {a}->{b} n={n}", run)


def _grid_permdet_query(rank, rng) -> Query:
    allowed, mask = _random_subset(_positive_roots("A", rank), rng)

    def run():
        value = closedforms.perm_det_count(rank, allowed)
        oracle = kostant.count_partitions(roots.highest_root("A", rank), allowed)
        if value != oracle:
            raise Mismatch(f"perm_det_count {value} != count_partitions {oracle}")
        return value
    return Query(f"perm_det_count A{rank} mask={mask}", run)


def _grid_lidskii_query(mu) -> Query:
    r = len(mu) - 1

    def run():
        value = closedforms.lidskii_count(mu, "both")
        oracle = kostant.count_partitions(mu, roots.positive_roots("A", r))
        if value != oracle:
            raise Mismatch(f"lidskii_count {value} != count_partitions {oracle}")
        return value
    return Query(f"lidskii_count {fmt(mu)}", run)


def _grid_bcd_query(lie_type, rank, mu) -> Query:
    def run():
        reduced = bcd.schmidt_bincer_count(lie_type, rank, mu)
        direct = kostant.count_partitions(mu, roots.positive_roots(lie_type, rank))
        if reduced != direct:
            raise Mismatch(f"schmidt_bincer_count {reduced} != count_partitions {direct}")
        return reduced
    return Query(f"schmidt_bincer_count {lie_type}{rank} {fmt(mu)}", run)


def build_grid(seed: int, root: Path) -> Workload:
    """One round of small cross-checks from the acceptance criteria's
    instance families, at their sizes, plus every small CLI command run
    in-process; the timed phase repeats it."""
    rng = random.Random(f"grid-{seed}")
    workdir = root / "perfbench" / "out" / f"cli-files-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in CLI_FILES.items():
        (workdir / name).write_text(text)
    weights = [mu for r in range(1, 5) for mu in _zero_sum_weights(r)]
    weights4 = list(_zero_sum_weights(4))
    states3 = _small_states(3, 3)
    states2 = _small_states(2, 2)
    a4 = _positive_roots("A", 4)
    posets = ([((1,), n, 1, n - 1) for n in range(2, 6)]
              + [(bits, len(bits), None, _binary_exponent(bits))
                 for length in range(1, 5) for bits in product((0, 1), repeat=length)]
              + [((1, 1, 1), 3, None, 3)])

    def pad(state, k):
        return state[k] if k < len(state) else 0

    labeled = []
    for a1, b1, a2, b2 in product(states2, repeat=4):
        if sum(a1) == sum(b1) and sum(a2) == sum(b2):
            height = max(len(a1), len(a2), len(b1), len(b2), 1)
            labeled.append((tuple((pad(a1, k), pad(a2, k)) for k in range(height)),
                            tuple((pad(b1, k), pad(b2, k)) for k in range(height))))
    rnd = []
    for _ in range(GRID_PER_FAMILY):
        rnd.append(_verify_query(rng.choice(weights)))
        rnd.append(_capacity_query(rng.choice(states3), rng.choice(states3),
                                   rng.randint(1, 4), rng.randint(1, 3)))
        lam, mask = _random_subset(a4, rng)
        rnd.append(_restricted_query(rng.choice(weights4), lam, mask))
        a, b = rng.choice(labeled)
        rnd.append(_labeled_query(a, b, rng.randint(1, 3)))
        rnd.append(_poset_query(*rng.choice(posets)))
        rnd.append(_grid_permdet_query(rng.randint(1, 7), rng))
        r = rng.randint(2, 4)
        head = tuple(rng.randint(0, 2) for _ in range(r))
        rnd.append(_grid_lidskii_query(head + (-sum(head),)))
        lie_type = rng.choice("BCD")
        rank = rng.randint({"B": 2, "C": 3, "D": 4}[lie_type], 4)
        pos = _positive_roots(lie_type, rank)
        mu = [0] * rank
        for _ in range(rng.randint(1, 4)):
            mu = [x + y for x, y in zip(mu, _root_vector(rng.choice(pos), rank))]
        rnd.append(_grid_bcd_query(lie_type, rank, tuple(mu)))
    rnd += [_cli_query(cmd, root, workdir) for cmd in _cli_pool()]
    rng.shuffle(rnd)
    return Workload("grid", seed, [rnd], _warmup(), workdir)


def _warmup() -> list:
    """Tiny calls of every engine, run untimed before the first query."""
    mu = (1, 1, -1, -1)
    return [
        lambda: kostant.enumerate_partitions(mu, roots.positive_roots("A", 3)),
        lambda: bijection.verify_correspondence(mu, None, 2),
        lambda: bcd.schmidt_bincer_count("B", 2, (1, 1)),
        lambda: juggling.enumerate_labeled_sequences(((1, 1),), ((1, 1),), 2),
        lambda: poset.characteristic_polynomial(poset.build_poset((1,), (1,), 3)),
        lambda: closedforms.gf_direct_count("2|2", 3),
        lambda: closedforms.perm_det_count(3, roots.positive_roots("A", 3)),
        lambda: closedforms.lidskii_count((1, 1, -2), "both"),
        lambda: closedforms.ehrhart_fit((1, 0, -1), 1),
    ]


# --- command-line queries, part of grid --------------------------------------

# Input files referenced as @name in a command; written at set-up.
CLI_FILES = {
    "lam4": "1-2\n2-3\n3-4\n4-5\n1-3\n2-4\n3-5\n",
    "lam3": "# short roots\n1-2\n2-3\n3-4\n1-3\n",
    "part_a3": "1-3\n2-4\n",
    "part_a3b": "1-2 1\n2-3 1\n2-4 1\n",
    "part_b3": "1+2\n",
    "part_b3b": "1-3\n2+3\n",
    "part_b4": "1\n2\n",
    "part_c3": "21\n",
    "part_c3b": "1-2\n1+2\n",
    "part_c4": "1-3\n1+3\n",
}


def _cli_pool() -> list:
    """Every small subcommand except selftest, over small parameters."""
    cmds = []
    for lie_type, ranks in (("A", (1, 3, 5)), ("B", (2, 4)), ("C", (3, 5)), ("D", (4, 6))):
        cmds += [["roots", "--type", lie_type, "--rank", str(r)] for r in ranks]
    for alpha in ("1,2,1", "1,1,1", "2,2,1", "1,2,2", "2,3,2"):
        cmds.append(["kostant", "--type", "A", "--rank", "3", "--weight-alpha", alpha])
    cmds += [
        ["kostant", "--type", "A", "--rank", "3", "--weight-eps", "1,1,-1,-1", "--enumerate"],
        ["kostant", "--type", "A", "--rank", "4", "--weight-eps", "2,1,0,-1,-2"],
        ["kostant", "--type", "A", "--rank", "4", "--weight-alpha", "1,1,1,1", "--roots", "@lam4"],
        ["kostant", "--type", "B", "--rank", "3", "--weight-eps", "2,1,1"],
        ["kostant", "--type", "C", "--rank", "3", "--weight-eps", "2,2,0"],
        ["kostant", "--type", "D", "--rank", "4", "--weight-eps", "1,1,1,1"],
    ]
    for a, b, n, extra in (("1,1", "1,1", "3", ["--capacity", "2"]), ("2", "2", "4", []),
                           ("1,1,0,-1", "1", "4", ["--throws", "heights=1,3"]),
                           ("2,1", "2,1", "3", ["--capacity", "2"]), ("1,0,1", "2", "3", []),
                           ("3", "3", "3", ["--capacity", "3"])):
        cmds.append(["js", "count", "--initial", a, "--terminal", b, "--length", n] + extra)
        cmds.append(["js", "enum", "--initial", a, "--terminal", b, "--length", n] + extra)
    for eps in ("1,1,-1,-1", "2,0,-1,-1", "1,0,1,-2", "2,1,-1,-2"):
        cmds.append(["bijection", "roundtrip", "--weight-eps", eps])
    cmds += [
        ["bijection", "roundtrip", "--weight-eps", "1,1,-1,-1", "--capacity", "2"],
        ["bijection", "roundtrip", "--weight-eps", "1,1,0,-1,-1", "--roots", "@lam4"],
        ["bijection", "to-juggling", "--partition", "@part_a3", "--initial", "1,1,-1",
         "--length", "3"],
        ["bijection", "to-juggling", "--partition", "@part_a3b", "--initial", "1,1,-1",
         "--length", "3"],
    ]
    for lie_type, ranks in (("B", (2, 3, 4)), ("C", (3, 4)), ("D", (4, 5))):
        for r in ranks:
            cmds.append(["bcd", "count", "--type", lie_type, "--rank", str(r), "--highest-root"])
    cmds += [
        ["bcd", "count", "--type", "B", "--rank", "3", "--weight-eps", "2,1,1", "--method",
         "schmidt-bincer"],
        ["bcd", "count", "--type", "C", "--rank", "3", "--weight-alpha", "1,1,1", "--method",
         "oracle"],
        ["bcd", "map", "--which", "b2a", "--rank", "3", "--partition", "@part_b3"],
        ["bcd", "map", "--which", "b2a", "--rank", "3", "--partition", "@part_b3b"],
        ["bcd", "map", "--which", "b2a", "--rank", "4", "--partition", "@part_b4"],
        ["bcd", "map", "--which", "c2a", "--rank", "3", "--partition", "@part_c3"],
        ["bcd", "map", "--which", "c2a", "--rank", "3", "--partition", "@part_c3b"],
        ["bcd", "map", "--which", "c2a", "--rank", "4", "--partition", "@part_c4"],
    ]
    for a, b, n, extra in (("1,1,1", "3", "3", []), ("1", "1", "4", ["--capacity", "1"]),
                           ("1,0,1", "2", "3", []), ("1,1", "2", "2", []),
                           ("1,1,0,1", "3", "4", [])):
        cmds.append(["poset", "charpoly", "--initial", a, "--terminal", b, "--length", n] + extra)
    cmds += [["permdet", "--rank", str(r)] for r in (3, 5, 7)]
    cmds += [["permdet", "--rank", "4", "--roots", "@lam4"],
             ["permdet", "--rank", "3", "--roots", "@lam3"]]
    for eps in ("1,1,1,-3", "2,1,0,-3", "1,1,-2", "2,0,1,1,-4"):
        cmds.append(["lidskii", "--weight-eps", eps])
    cmds.append(["lidskii", "--weight-eps", "1,2,1,-4", "--variant", "binomial"])
    for row, upto in (("2|2", "10"), ("11|2", "8"), ("21|2", "12"), ("111|2", "6"),
                      ("22|2", "9"), ("3|3", "7"), ("21|3", "10")):
        cmds.append(["gf", "--row", row, "--upto", upto])
    for which, r in (("c45", "8"), ("c46", "5"), ("c47", "9"), ("c48", "6")):
        cmds.append(["closedform", "--which", which, "--r", r])
    cmds += [["catalan", "--r", str(r)] for r in (3, 5, 6)]
    for eps in ("1,0,-1", "1,1,-2", "2,1,-3", "1,1,1,-3"):
        cmds.append(["ehrhart", "--weight-eps", eps])
    return [cmd + ["--json"] for cmd in cmds]


def _cli_verify(out: bytes) -> str | None:
    """Canonical one-line JSON whose agreement flags, where present, hold."""
    text = out.decode()
    try:
        payload = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    if json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" != text:
        return "stdout is not canonical JSON"
    for flag in ("agree", "ok", "agree_with_direct", "roundtrip_ok", "counts_equal"):
        if payload.get(flag) is False:
            return f"{flag} is false"
    return None


def _cli_value(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


CLI_PREFIX = "kjuggle "


def _cli_query(cmd, root: Path, workdir: Path) -> Query:
    """`kjuggle.cli.dispatch(argv)` in this process, stdout captured."""
    argv = [str((workdir / a[1:]).relative_to(root)) if a.startswith("@") else a for a in cmd]

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.dispatch(argv)
        if code:
            raise Mismatch(f"dispatch returned {code}")
        return buf.getvalue().encode()

    # the key carries each input file's contents, not its path
    key = CLI_PREFIX + json.dumps([CLI_FILES[a[1:]] if a.startswith("@") else a for a in cmd])
    return Query(key, run, value=_cli_value, verify=_cli_verify)


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "deep":
        return build_deep(seed)
    if name == "grid":
        return build_grid(seed, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
