import pytest

from kleinfour.klein4 import InvalidPartition, Partition, partitions_of
from kleinfour.realize import (_fired_clauses, hyperelliptic_extra_involution,
                               partition_validate, realizable, realizable_any)


def test_partition_validate():
    assert partition_validate(5, (2, 2, 1)).entries == (2, 2, 1)
    with pytest.raises(InvalidPartition):
        partition_validate(5, (4, 1, 0))
    with pytest.raises(InvalidPartition):
        partition_validate(5, (2, 2, 2))
    with pytest.raises(InvalidPartition):
        partition_validate(5, (2, 2))


def test_clause_examples():
    v = realizable(5, 4, Partition(2, 2, 1))
    assert (v.exists, v.clause) == (False, "iv")
    v = realizable(6, 3, Partition(3, 2, 1))
    assert (v.exists, v.clause) == (False, "v")
    v = realizable(9, 2, Partition(3, 3, 3))
    assert (v.exists, v.clause) == (False, "iii")
    assert realizable(7, 0, Partition(3, 3, 1)).exists
    for p in partitions_of(6):
        v = realizable(6, 1, p)
        assert (v.exists, v.clause) == (False, "ii")
    v = realizable(5, 0, Partition(3, 2, 0))
    assert (v.exists, v.clause) == (False, "i")


def test_sigma_out_of_range():
    with pytest.raises(ValueError):
        realizable(5, 6, Partition(2, 2, 1))
    with pytest.raises(ValueError):
        realizable(5, -1, Partition(2, 2, 1))
    with pytest.raises(InvalidPartition):
        realizable(6, 2, Partition(2, 2, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: realizable(3, 1.5, Partition(2, 1, 0)),
     "2-rank must be an int, got 1.5"),
    (lambda: realizable(3.0, 1, Partition(2, 1, 0)),
     "genus must be an int, got 3.0"),
    (lambda: realizable_any(2.5, 1), "genus must be an int, got 2.5"),
    (lambda: realizable_any(3, 1.0), "2-rank must be an int, got 1.0"),
    (lambda: hyperelliptic_extra_involution(3.0, 1),
     "genus must be an int, got 3.0"),
    (lambda: hyperelliptic_extra_involution(3, 1.0),
     "2-rank must be an int, got 1.0"),
    (lambda: partition_validate(1, (0.5, 0.5, 0)),
     r"partition entries must be ints, got \(0.5, 0.5, 0\)"),
    (lambda: partition_validate(1.0, (1, 0, 0)),
     "genus must be an int, got 1.0"),
    (lambda: Partition(2, 1, 0.0),
     r"partition entries must be ints, got \(2, 1, 0.0\)"),
    (lambda: partitions_of(4.0), "genus must be an int, got 4.0"),
])
def test_non_integers_are_refused(call, message):
    # a float that sorts and compares like an int must not get an answer
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


def test_realizable_any_examples():
    assert realizable_any(6, 5) is False  # almost ordinary
    assert realizable_any(6, 1) is False  # even genus, 2-rank 1
    assert realizable_any(7, 7) is True
    assert realizable_any(0, 0) is True
    assert realizable_any(1, 1) is True
    assert realizable_any(1, 0) is False  # 0 = g-1 for g = 1


def test_any_equals_or_over_partitions_exhaustive():
    for g in range(13):
        for s in range(g + 1):
            got = any(realizable(g, s, p).exists for p in partitions_of(g))
            assert got == realizable_any(g, s), (g, s)


def test_clause_order_only_affects_citation():
    # the verdict boolean equals "no clause fires" regardless of the order
    # the clauses are checked in
    for g in range(13):
        for p in partitions_of(g):
            for s in range(g + 1):
                fired = _fired_clauses(g, s, p)
                v = realizable(g, s, p)
                assert v.exists == (not fired)
                if fired:
                    assert v.clause == fired[0]
                    # subsumption: for odd g, whenever ii fires on an
                    # unbalanced partition, v agrees with it
                    if "ii" in fired and "v" in fired:
                        assert not v.exists


def test_hyperelliptic_corollary():
    assert hyperelliptic_extra_involution(5, 3)
    assert not hyperelliptic_extra_involution(5, 2)
    assert hyperelliptic_extra_involution(4, 4)
    for g in range(13):
        for s in range(g + 1):
            assert hyperelliptic_extra_involution(g, s) == ((g - s) % 2 == 0)


def test_hyperelliptic_matches_zero_entry_cells():
    # an extra involution exists exactly when some realizable cell has a
    # genus-0 quotient
    for g in range(13):
        for s in range(g + 1):
            cell = any(realizable(g, s, p).exists
                       for p in partitions_of(g) if 0 in p)
            assert cell == hyperelliptic_extra_involution(g, s), (g, s)


def test_verdict_json():
    v = realizable(6, 3, Partition(3, 2, 1))
    d = v.to_json()
    assert d == {"exists": False, "clause": "v", "citation": v.citation}
