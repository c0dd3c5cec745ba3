"""Self-time arithmetic and the conservation check it feeds."""

from perfbench.tracing import accounting_error, covered_ns, self_times


def test_nested_children_subtract_only_their_own_level():
    spans = [(0, 100, -1), (10, 50, 0), (20, 30, 1)]
    assert self_times(spans) == [60, 30, 10]


def test_overlapping_children_are_merged_not_double_counted():
    spans = [(0, 100, -1), (10, 50, 0), (40, 70, 0)]
    assert self_times(spans) == [40, 40, 30]


def test_zero_length_children_cover_nothing():
    spans = [(0, 100, -1), (50, 50, 0), (50, 50, 0)]
    assert self_times(spans) == [100, 0, 0]


def test_children_are_clipped_to_the_parent():
    assert covered_ns(0, 100, [(90, 120), (-5, 5)]) == 15
    assert self_times([(0, 100, -1), (90, 120, 0)]) == [90, 30]


def test_disjoint_children_and_siblings_of_other_parents():
    spans = [(0, 100, -1), (10, 20, 0), (30, 40, 0),
             (200, 260, -1), (210, 250, 3)]
    assert self_times(spans) == [80, 10, 10, 20, 40]


def test_self_times_plus_harness_time_account_for_the_wall_time():
    spans = [(0, 100, -1), (10, 50, 0), (20, 30, 1), (60, 70, 0),
             (120, 150, -1)]
    selfs = self_times(spans)
    assert sum(selfs) == 130
    assert accounting_error(spans, selfs, 200) == 0.0


def test_mis_nested_spans_break_the_accounting():
    # siblings cannot overlap on one call stack; their overlap is
    # counted twice, and the check reports the excess
    spans = [(0, 100, -1), (10, 50, 0), (40, 70, 0)]
    assert accounting_error(spans, self_times(spans), 200) == 0.05
