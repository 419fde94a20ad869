"""T2 — WF-net soundness verification: verdicts and cost across a net family.

Shape claims: (a) structured nets of realistic size verify in milliseconds
(soundness checking is practical at deploy time); (b) each seeded defect
class is detected with the right diagnosis.
"""

import time

import pytest

from tests.petri import builders
from repro.petri.workflow_net import check_soundness

SIZES = [5, 10, 20, 40, 80]


def test_t2_sound_family_verdicts_and_times(benchmark, emit):
    rows = []
    for n in SIZES:
        net = builders.structured_net(n)
        started = time.perf_counter()
        report = check_soundness(net)
        elapsed = (time.perf_counter() - started) * 1000
        rows.append((n, len(net.places), len(net.transitions),
                     report.state_count, report.sound, elapsed))
        assert report.sound, (n, report.problems)

    benchmark.pedantic(
        lambda: check_soundness(builders.structured_net(40)), rounds=3, iterations=1
    )

    emit(
        "",
        "== T2: soundness verification of structured nets ==",
        f"{'tasks':>6} {'|P|':>5} {'|T|':>5} {'states':>8} {'verdict':>8} {'ms':>9}",
    )
    for n, p, t, states, sound, ms in rows:
        emit(f"{n:>6} {p:>5} {t:>5} {states:>8} "
             f"{'sound' if sound else 'UNSOUND':>8} {ms:>9.2f}")


@pytest.mark.parametrize(
    "family, expected_problem",
    [
        ("deadlocking", "option to complete"),
        ("improper", "proper completion"),
        ("dead_transition", "dead transitions"),
        ("unbounded", "unbounded"),
    ],
)
def test_t2_defect_detection(benchmark, emit, family, expected_problem):
    nets = {
        "deadlocking": builders.deadlocking_net,
        "improper": builders.improper_completion_net,
        "dead_transition": builders.dead_transition_net,
        "unbounded": builders.unbounded_net,
    }
    report = benchmark.pedantic(
        lambda: check_soundness(nets[family]()), rounds=1, iterations=1
    )
    assert not report.sound
    assert any(expected_problem in p for p in report.problems), report.problems
    emit(f"T2 defect {family:<16}: detected -> {report.problems[0]}")
