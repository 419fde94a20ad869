"""F5 — State-space explosion vs structural analysis.

Shape claims: (a) the reachability graph of a k-way parallel block has
2^k + 2 markings — exponential in k — and construction time follows; (b)
place-invariant analysis of the same nets is polynomial and stays in the
milliseconds, demonstrating why structural techniques matter.
"""

import time

from tests.petri import builders
from repro.petri.invariants import p_invariants, place_invariant_cover
from repro.petri.marking import Marking
from repro.petri.reachability import build_reachability_graph

KS = [2, 4, 6, 8, 10]


def test_f5_exponential_vs_polynomial(benchmark, emit):
    rows = []
    for k in KS:
        net = builders.parallel_net(k)
        started = time.perf_counter()
        graph = build_reachability_graph(net, Marking({"i": 1}), max_states=2_000_000)
        reach_ms = (time.perf_counter() - started) * 1000
        assert graph.size == 2 + 2**k

        started = time.perf_counter()
        invariants = p_invariants(net)
        covered, _ = place_invariant_cover(net)
        invariant_ms = (time.perf_counter() - started) * 1000
        assert covered  # structural boundedness, no enumeration needed
        rows.append((k, graph.size, reach_ms, len(invariants), invariant_ms))

    benchmark.pedantic(
        lambda: build_reachability_graph(
            builders.parallel_net(8), Marking({"i": 1}), max_states=2_000_000
        ),
        rounds=3,
        iterations=1,
    )

    emit(
        "",
        "== F5: k-way parallel block — enumeration vs structure ==",
        f"{'k':>3} {'markings':>9} {'reach ms':>9} {'#invariants':>12} {'invariant ms':>13}",
    )
    for k, size, reach_ms, n_inv, inv_ms in rows:
        emit(f"{k:>3} {size:>9} {reach_ms:>9.2f} {n_inv:>12} {inv_ms:>13.2f}")

    # shape: markings grow exponentially ...
    assert rows[-1][1] == 2 + 2**10
    # ... enumeration time grows much faster than invariant time
    reach_growth = rows[-1][2] / max(rows[0][2], 1e-6)
    invariant_growth = rows[-1][4] / max(rows[0][4], 1e-6)
    assert reach_growth > 5 * invariant_growth, (reach_growth, invariant_growth)
