"""Acceptance suite: one test per exit criterion, all exact checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion, or ``pcml suite`` for the CLI equivalent.  Each
criterion's full report line is pinned, so a change in what a criterion
counts or finds shows up as a diff.
"""

from pcml.suite import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
)

SEED = 0

LINES = {
    1: (
        'CRITERION=1 STATUS=PASS NAME=oracle-certification DETAIL=graphs=64 '
        'slices=7744 random_checks=12800'
    ),
    2: 'CRITERION=2 STATUS=PASS NAME=lie-axioms DETAIL=trials=500 cycles=4..7',
    3: 'CRITERION=3 STATUS=PASS NAME=cycle-centralizers DETAIL=n=4..7 bound=6',
    4: 'CRITERION=4 STATUS=PASS NAME=centralizer-intersection DETAIL=instances=50 bound=5',
    5: (
        'CRITERION=5 STATUS=PASS NAME=cycle-separation DETAIL=identity m=4..10; '
        '4<5:244 4<6:732 4<7:2188 4<8:6564 4<9:19684 4<10:59052 5<6:765 5<7:2245 '
        '5<8:6655 5<9:19835 5<10:59295 6<7:2442 6<8:7074 6<9:20706 6<10:61098 '
        '7<8:7861 7<9:22603 7<10:65611 8<9:25256 8<10:72504 9<10:80757'
    ),
    6: 'CRITERION=6 STATUS=PASS NAME=compaction DETAIL=example 7->5 spider; 200 random graphs',
    7: (
        'CRITERION=7 STATUS=PASS NAME=merge-homomorphism DETAIL=hom_pairs=200 '
        'scaling_components=45 thresholds=100 witnesses=20'
    ),
}


def _run(check):
    result = check(SEED)
    print(result.line())
    assert result.ok, result.detail
    assert result.line() == LINES[result.index]


def test_criterion_1_oracle_certification():
    _run(criterion_1)


def test_criterion_2_lie_axioms():
    _run(criterion_2)


def test_criterion_3_cycle_centralizers():
    _run(criterion_3)


def test_criterion_4_centralizer_intersection():
    _run(criterion_4)


def test_criterion_5_cycle_separation():
    _run(criterion_5)


def test_criterion_6_compaction():
    _run(criterion_6)


def test_criterion_7_merge_homomorphism():
    _run(criterion_7)
