import numpy as np

from streamsched.video import (
    DEFAULT_SEGMENTS,
    QualityRateProfile,
    synth_catalog,
)


def tiny_profile():
    return QualityRateProfile(
        quality=((0.8, 0.95), (0.5, 0.7, 0.9)),
        size_bits=((100, 200), (50, 80, 130)),
    )


def test_chunk_quality_lookup():
    # Chunk i at mode m (1-indexed) is row i, column m - 1.
    p = tiny_profile()
    assert p.quality[0][2 - 1] == 0.95
    assert p.quality[1][1 - 1] == 0.5


def test_top_mode_is_max_quality():
    p = tiny_profile()
    for i in range(p.num_chunks):
        top = p.quality[i][len(p.quality[i]) - 1]
        assert top == max(p.quality[i])


def test_chunk_size_lookup_and_monotonicity():
    # Chunk i at mode m (1-indexed) is row i, column m - 1.
    p = tiny_profile()
    assert p.size_bits[1][2 - 1] == 80
    for i in range(p.num_chunks):
        sizes = [p.size_bits[i][m - 1] for m in range(1, len(p.quality[i]) + 1)]
        assert sizes[0] == min(sizes)
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_default_catalog_structure():
    p = synth_catalog(seed=0)
    assert p.num_chunks == 800
    for i in range(800):
        expected_modes = (8, 4, 4, 8)[i // 200]
        assert len(p.quality[i]) == expected_modes


def test_default_catalog_mode_count_in_second_segment():
    p = synth_catalog(seed=1)
    for i in (200, 250, 399):
        assert len(set(p.quality[i])) == 4


def test_segment_mean_bitrates_hit_targets():
    # Top-mode chunk sizes must average to the segment target within 5%.
    p = synth_catalog(seed=0)
    targets = [kbps * 1e3 * 0.5 for (_, _, kbps) in DEFAULT_SEGMENTS]
    for seg in range(4):
        chunks = range(200 * seg, 200 * (seg + 1))
        mean_top = np.mean([p.size_bits[i][-1] for i in chunks])
        assert abs(mean_top - targets[seg]) <= 0.05 * targets[seg]


def test_catalog_determinism():
    assert synth_catalog(seed=42) == synth_catalog(seed=42)
    assert synth_catalog(seed=42) != synth_catalog(seed=43)


def assert_valid_ladders(p, d_min, d_max):
    """The guarantees synth_catalog documents, checked from its own arguments."""
    assert len(p.quality) == len(p.size_bits)
    for sizes, quals in zip(p.size_bits, p.quality):
        assert len(sizes) == len(quals) >= 1
        assert all(type(b) is int for b in sizes) and sizes[0] >= 1
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert all(a <= b for a, b in zip(quals, quals[1:]))
        assert d_min <= quals[0] and quals[-1] <= d_max  # with the order above, every rung lies in the bounds


def test_catalog_invariants_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(60):
        segments = [
            (int(rng.integers(1, 30)), int(rng.integers(1, 9)), float(10 ** rng.uniform(-1, 6)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        d_min = float(rng.uniform(0.01, 1.0))
        d_max = float(rng.uniform(d_min, 2.0))
        p = synth_catalog(segments, seed=int(rng.integers(0, 2**31)), d_min=d_min, d_max=d_max,
                          sigma=float(rng.uniform(0, 1.5)), ladder_ratio=float(rng.uniform(0.001, 0.999)),
                          t_gop_seconds=float(10 ** rng.uniform(-2, 1)))
        assert [len(sizes) for sizes in p.size_bits] == [n_modes for n_chunks, n_modes, _ in segments
                                                         for _ in range(n_chunks)]
        assert_valid_ladders(p, d_min, d_max)


def test_sigma_zero_catalog_is_constant_per_segment():
    segments = [(4, 3, 400.0), (5, 2, 1000.0), (3, 4, 250.5)]
    p = synth_catalog(segments, seed=3, sigma=0.0)
    assert p == synth_catalog(segments, seed=4, sigma=0.0)
    first = 0
    for n_chunks, n_modes, kbps in segments:
        ladder = p.size_bits[first]
        assert len(ladder) == n_modes and ladder[-1] == round(kbps * 1e3 * 0.5)
        assert all(p.size_bits[i] == ladder for i in range(first, first + n_chunks))
        assert all(p.quality[i] == p.quality[first] for i in range(first, first + n_chunks))
        first += n_chunks


def test_one_mode_catalog():
    p = synth_catalog([(5, 1, 100.0)], seed=0)
    assert all(len(p.quality[i]) == 1 for i in range(5))


def test_top_mode_quality_never_exceeds_d_max():
    # The top mode's quality can round one ulp above d_max before the clamp; every pair of bounds on the
    # 0.01 grid must give ladders inside them.
    grid = [round(0.01 * k, 2) for k in range(1, 101)]
    for i, d_min in enumerate(grid):
        for d_max in grid[i + 1:]:
            assert_valid_ladders(synth_catalog([(100, 8, 631.0)], seed=0, d_min=d_min, d_max=d_max), d_min, d_max)
