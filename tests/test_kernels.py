import numpy as np

from qcoupling.kernels import coalescence_counts


def small_problem(seed=0, samples=500, m_max=12):
    rng = np.random.Generator(np.random.Philox(seed))
    # 4-state mapping with 3 randomness values, constructed to coalesce
    table = rng.integers(0, 4, size=(4, 3)).astype(np.int64)
    table[:, 0] = 0  # one value that collapses everything
    r_idx = np.zeros((samples, m_max), dtype=np.uint8)
    grid = np.array([0, 1, 3, 6, 12], dtype=np.int64)

    def draw(out, rows, step):
        out[...] = rng.integers(0, 3, size=out.shape)

    return table, r_idx, grid, draw


class TestKernels:
    def test_counts_monotone_nonincreasing(self):
        table, r_idx, grid, draw = small_problem(seed=4)
        counts = coalescence_counts(table, r_idx, 1, 3, grid, draw)
        assert np.all(np.diff(counts) <= 0)

    def test_equal_starts_never_separate(self):
        table, r_idx, grid, draw = small_problem(seed=5)
        drawn = []
        counts = coalescence_counts(table, r_idx, 2, 2, grid, lambda *args: drawn.append(args))
        np.testing.assert_array_equal(counts, 0)
        assert drawn == []  # a pair that starts together draws nothing

    def test_grid_at_zero_counts_all(self):
        table, r_idx, _, draw = small_problem(seed=6, samples=123)
        grid = np.array([0], dtype=np.int64)
        counts = coalescence_counts(table, r_idx, 0, 1, grid, draw)
        assert counts[0] == 123
