"""Randomized self-checks shared by the test suite and `fifth check`.

Three samples: lattice law triples, scheduler confluence over random
networks, and autoencoder gradient checks. Each is deterministic given its
seed and returns a report dict with a boolean `ok`.
"""

from __future__ import annotations

from collections import deque

from fifth.lattice import (
    INT_LIMIT,
    NOTHING,
    contradiction,
    exact,
    finite_domain,
    int_interval,
    merge,
    refines,
)
from fifth.network import Network
from fifth.rng import SplitMix64

# where binary64 stops holding every integer, and the literal limit
EDGES = (2**53 - 1, 2**53 + 1, -2**53 - 1, INT_LIMIT - 1, 1 - INT_LIMIT)


def random_partial_info(rng):
    which = rng.randint(6)
    if which == 0:
        return NOTHING
    if which == 1:
        a, b = rng.randrange(-20, 20), rng.randrange(-20, 20)
        return int_interval(min(a, b), max(a, b))
    if which == 2:
        return finite_domain(
            rng.randrange(-5, 15) for _ in range(rng.randrange(1, 6))
        )
    if which == 3:
        return exact(rng.randrange(-20, 20))
    if which == 4:
        return contradiction([f"w{rng.randint(4)}" for _ in range(rng.randint(3))])
    # an edge, or an interval from one to a small value or another edge
    a, b = rng.choice(EDGES), rng.choice(EDGES + (rng.randrange(-20, 20),))
    return int_interval(min(a, b), max(a, b))


def _law_same(x, y):
    if x.kind == "contradiction" and y.kind == "contradiction":
        return True
    return x == y


def lattice_law_sample(n_triples=10_000, seed=2024):
    """Idempotence, commutativity, associativity, and join monotonicity on
    randomly generated triples."""
    rng = SplitMix64(seed)
    failures = 0
    for _ in range(n_triples):
        a, b, c = (random_partial_info(rng) for _ in range(3))
        ok = (
            merge(a, a) == a
            and _law_same(merge(a, b), merge(b, a))
            and _law_same(merge(merge(a, b), c), merge(a, merge(b, c)))
            and refines(a, merge(a, b))
            and refines(b, merge(a, b))
        )
        if not ok:
            failures += 1
    return {"suite": "lattice-laws", "triples": n_triples, "failures": failures,
            "ok": failures == 0}


def _gentle_info(rng):
    # wide, overlapping shapes so that a decent share of random networks
    # quiesce without contradiction and content confluence gets exercised
    which = rng.randint(8)
    if which < 4:
        lo = rng.randrange(-10, 5)
        return int_interval(lo, lo + rng.randrange(6, 25))
    if which < 7:
        base = rng.randrange(-2, 3)
        return finite_domain(base + e for e in range(rng.randrange(4, 9)))
    return exact(rng.randrange(0, 5))


def random_network(rng, max_cells=40, max_propagators=60):
    """A random network from the propagator catalog plus its initial writes."""
    net = Network()
    n_cells = rng.randrange(6, max_cells)
    for i in range(n_cells):
        net.add_cell(("rand", f"c{i}"))
    pick = lambda: rng.randint(n_cells)
    # keep the constraint density sane; piling 60 propagators on a handful
    # of cells contradicts almost surely and tests nothing
    n_props = rng.randrange(2, min(max_propagators, n_cells + n_cells // 2) + 1)
    for _ in range(n_props):
        kind = rng.choice(
            ("sum", "sum", "product", "equal", "less_equal", "alldifferent"))
        if kind in ("sum", "product"):
            net.attach(kind, (pick(), pick(), pick()))
        elif kind in ("equal", "less_equal"):
            net.attach(kind, (pick(), pick()))
        else:
            members = tuple(set(pick() for _ in range(rng.randrange(2, 5))))
            if len(members) >= 2:
                net.attach(kind, members)
    writes = []
    for cid in range(n_cells):
        if rng.randint(3) == 0:
            writes.append((cid, _gentle_info(rng)))
    return net, writes


_PROBE_STEPS = 20_000


class _ShuffledQueue(deque):
    """An alert queue whose popleft takes a seeded random entry, so the
    scheduler runs in a permuted order."""

    def __init__(self, items, rng):
        super().__init__(items)
        self.rng = rng

    def popleft(self):
        idx = self.rng.randint(len(self))
        pid = self[idx]
        del self[idx]
        return pid


def _quiescent_fingerprint(net, writes, order_rng, step_budget=_PROBE_STEPS):
    run = net.clone()
    if order_rng is not None:
        run.queue = _ShuffledQueue(run.queue, order_rng)
    for cid, info in writes:
        run.write(cid, info, f"init:{cid}")
        if run.contradiction is not None:
            break
    rep = run.run_to_quiescence(step_budget)
    if run.contradiction is not None:
        return ("contradiction",)
    if not rep.quiescent:
        return ("budget",)
    return tuple(run.contents)


def confluence_sample(n_networks=200, n_orders=20, seed=77):
    """Quiescent states must not depend on scheduling order.

    Contradicted instances compare by the contradiction flag only: eager stop
    leaves the rest of a dead branch order-dependent by design. Networks whose
    default-order run fails to quiesce within the probe budget (a countdown
    loop can take ~2^62 steps to overflow) have no quiescent state to compare
    and are re-rolled; permuted orders get 10x headroom so scheduling overhead
    never masquerades as divergence.
    """
    rng = SplitMix64(seed)
    mismatches = 0
    contradicted = 0
    rerolls = 0
    i = 0
    while i < n_networks:
        net, writes = random_network(rng.fork(f"net{i}.{rerolls}"))
        baseline = _quiescent_fingerprint(net, writes, None)
        if baseline == ("budget",):
            rerolls += 1
            if rerolls > 5 * n_networks:
                raise RuntimeError("random networks almost never quiesce")
            continue
        if baseline == ("contradiction",):
            contradicted += 1
        for j in range(n_orders):
            got = _quiescent_fingerprint(
                net, writes, rng.fork(f"order{i}.{j}"), 10 * _PROBE_STEPS
            )
            if got != baseline:
                mismatches += 1
        i += 1
    return {"suite": "confluence", "networks": n_networks, "orders": n_orders,
            "contradicted": contradicted, "rerolled": rerolls,
            "mismatches": mismatches, "ok": mismatches == 0}


def gradient_sample(n_configs=20, seed=11):
    """Backprop vs central finite differences on random small autoencoders."""
    from fifth.autoenc import Autoencoder

    rng = SplitMix64(seed)
    worst = 0.0
    for i in range(n_configs):
        ae = Autoencoder(
            n_features=rng.randrange(2, 6),
            n_hidden=rng.randrange(2, 7),
            n_code=rng.randrange(1, 5),
            sparsity_weight=rng.randrange(0, 10) / 100.0,
            decay_weight=rng.randrange(0, 10) / 1000.0,
        )
        ae.init_weights(seed=1000 + i)
        err = ae.gradient_check(seed=2000 + i)
        worst = max(worst, err)
    return {"suite": "gradient-check", "configs": n_configs,
            "max_rel_error": worst, "ok": worst < 1e-4}

