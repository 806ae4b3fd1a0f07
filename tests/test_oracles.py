import numpy as np

from oracles import support_columns


def test_support_columns_put_each_rows_entries_first():
    on = np.zeros((4, 4), dtype=bool)
    on[0, [1, 3]] = True
    on[2, 2] = True
    on[3] = True
    assert support_columns(on).tolist() == [[1, 3, 0, 2], [0, 1, 2, 3], [2, 0, 1, 3], [0, 1, 2, 3]]
    on[3, 1:] = False  # the longest row holds two entries: two columns a row
    assert support_columns(on).tolist() == [[1, 3], [0, 1], [2, 0], [0, 1]]
    assert support_columns(np.zeros((3, 3), dtype=bool)).tolist() == [[0], [0], [0]]  # at least one column


def test_support_columns_are_each_rows_columns_then_the_rest_on_random_masks():
    rng = np.random.default_rng(29)
    for _ in range(300):
        d = int(rng.integers(1, 9))
        on = rng.random((d, d)) < rng.random()  # from empty rows to full ones
        s = max(1, int(on.sum(axis=1).max()))
        direct = [([j for j in range(d) if row[j]] + [j for j in range(d) if not row[j]])[:s] for row in on]
        assert support_columns(on).tolist() == direct
