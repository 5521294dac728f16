import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ircur.errors import (
    DegenerateSetError,
    DimensionMismatchError,
    IndistinguishableDomainsError,
    MalformedLineError,
)
from ircur import kernel_lesson
from ircur.ingest import EmbeddingSample, EmbeddingSet
from ircur.kernel_lesson import (
    KernelConfig,
    VisualScore,
    _gram_pass,
    domain_geometry,
    gaussian_kernel,
    load_visual_scores,
    median_bandwidth,
    projection_scores,
    rank_by_visual_difficulty,
    score_visual,
    write_visual_scores,
)

# Oracles: straight-line reimplementations of the defining formulas, kept
# independent of the library code (plain Python loops, no shared helpers).


def oracle_kernel(x, y, bandwidth):
    sq = sum((a - b) ** 2 for a, b in zip(x, y))
    return math.exp(-sq / (2.0 * bandwidth * bandwidth))


def oracle_mmd2(ir, vis, bandwidth):
    n, m = len(ir), len(vis)
    kii = sum(oracle_kernel(a, b, bandwidth) for a in ir for b in ir) / (n * n)
    kvv = sum(oracle_kernel(a, b, bandwidth) for a in vis for b in vis) / (m * m)
    kiv = sum(oracle_kernel(a, b, bandwidth) for a in ir for b in vis) / (n * m)
    return kii + kvv - 2.0 * kiv


def oracle_linear_scores(ir, vis):
    """Explicit vector-space route: real centers, real projections."""
    dim = len(ir[0])
    c_ir = [sum(v[k] for v in ir) / len(ir) for k in range(dim)]
    c_vis = [sum(v[k] for v in vis) / len(vis) for k in range(dim)]
    diff = [a - b for a, b in zip(c_vis, c_ir)]
    mmd = math.sqrt(sum(d * d for d in diff))
    out = []
    for x in ir:
        proj = sum((xk - ck) * dk for xk, ck, dk in zip(x, c_ir, diff)) / mmd
        out.append((proj, proj + mmd))
    return mmd, out


def make_set(ir_vectors, vis_vectors):
    samples = [
        EmbeddingSample(f"ir{i:03d}", "infrared", tuple(map(float, v)))
        for i, v in enumerate(ir_vectors)
    ] + [
        EmbeddingSample(f"vis{i:03d}", "visible", tuple(map(float, v)))
        for i, v in enumerate(vis_vectors)
    ]
    return EmbeddingSet(dim=len(samples[0].vector), samples=tuple(samples))


class TestGaussianKernel:
    CFG = KernelConfig(bandwidth=math.sqrt(0.5))

    def test_self_similarity_is_one(self):
        assert gaussian_kernel((1.0, -2.0, 3.5), (1.0, -2.0, 3.5), self.CFG) == 1.0

    def test_hand_value_unit_distance(self):
        got = gaussian_kernel((0.0,), (1.0,), self.CFG)
        assert got == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_hand_value_345_triangle(self):
        cfg = KernelConfig(bandwidth=5.0)
        got = gaussian_kernel((0.0, 0.0), (3.0, 4.0), cfg)
        assert got == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gaussian_kernel((0.0,), (1.0, 2.0), self.CFG)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            KernelConfig(bandwidth=0.0)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=5),
        st.floats(0.1, 10.0),
    )
    def test_range_property(self, x, bandwidth):
        y = [v + 1.0 for v in x]
        cfg = KernelConfig(bandwidth=bandwidth)
        value = gaussian_kernel(tuple(x), tuple(y), cfg)
        assert 0.0 < value <= 1.0


class TestMedianBandwidth:
    def test_three_points_on_a_line(self):
        es = make_set([[0.0], [1.0]], [[3.0]])
        assert median_bandwidth(es) == pytest.approx(2.0, abs=1e-12)

    def test_single_pair(self):
        es = make_set([[0.0]], [[2.0]])
        assert median_bandwidth(es) == pytest.approx(2.0, abs=1e-12)

    def test_all_identical_is_degenerate(self):
        es = make_set([[1.0, 1.0]], [[1.0, 1.0]])
        with pytest.raises(DegenerateSetError):
            median_bandwidth(es)

    def test_zero_distances_excluded(self):
        # duplicated point contributes zero distances that must not drag
        # the median down
        es = make_set([[0.0], [0.0]], [[2.0]])
        assert median_bandwidth(es) == pytest.approx(2.0, abs=1e-12)


def drawn_points(n, dim, seed, log_scale, duplicates, grid):
    """n points, some repeated; on a grid, distances tie often."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    if grid:
        points = np.round(points * 2.0)
    points = np.concatenate([points, points[rng.integers(0, n, size=duplicates)]])
    return points * 10.0 ** log_scale


def count_median_passes(monkeypatch):
    passes = []
    one_pass = kernel_lesson._median_pass

    def counting(*args):
        passes.append(args[1:])
        return one_pass(*args)

    monkeypatch.setattr(kernel_lesson, "_median_pass", counting)
    return passes


class TestMedianExactness:
    """The bounded median returns the very float that sorting every
    non-zero distance gives, on sets that cross block edges."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 600),
        dim=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.integers(-3, 6),
        duplicates=st.integers(0, 40),
        grid=st.booleans(),
    )
    @example(n=3, dim=1, seed=0, log_scale=0, duplicates=0, grid=False)  # 3 pairs: odd
    @example(n=4, dim=1, seed=0, log_scale=0, duplicates=0, grid=False)  # 6 pairs: even
    @example(n=520, dim=2, seed=3, log_scale=-3, duplicates=40, grid=True)
    @example(n=600, dim=3, seed=4, log_scale=6, duplicates=0, grid=False)
    def test_equals_median_of_all_distances(self, n, dim, seed, log_scale, duplicates, grid):
        points = drawn_points(n, dim, seed, log_scale, duplicates, grid)
        es = make_set(points.tolist(), [])
        if len(np.unique(points, axis=0)) == 1:
            with pytest.raises(DegenerateSetError):
                median_bandwidth(es)
        else:
            expected = numpy_median_bandwidth(points[: n // 2], points[n // 2 :])
            assert median_bandwidth(es) == expected

    @pytest.mark.parametrize("margin, keep", [(0.0, 1 << 17), (0.1, 64), (0.0, 1)])
    @pytest.mark.parametrize("points", [
        drawn_points(530, 2, 5, 0, 30, False),
        drawn_points(531, 1, 6, 2, 0, True),
        np.eye(300),  # every distance the same
        drawn_points(4, 1, 0, 0, 0, False),  # 6 distinct distances: the upper middle lies above
    ], ids=["normal", "grid", "equidistant", "four"])
    def test_fallback_is_exact(self, monkeypatch, margin, keep, points):
        # a bracket of one rank misses the middle; a tiny keep cap forces
        # the counting passes over bit-pattern bins
        monkeypatch.setattr(kernel_lesson, "_MEDIAN_MARGIN", margin)
        monkeypatch.setattr(kernel_lesson, "_MEDIAN_KEEP", keep)
        expected = numpy_median_bandwidth(points[:200], points[200:])
        assert median_bandwidth(make_set(points.tolist(), [])) == expected

    @pytest.mark.parametrize("margin, keep", [(0.0, 1 << 17), (0.1, 64)])
    def test_fallback_takes_more_passes(self, monkeypatch, margin, keep):
        monkeypatch.setattr(kernel_lesson, "_MEDIAN_MARGIN", margin)
        monkeypatch.setattr(kernel_lesson, "_MEDIAN_KEEP", keep)
        passes = count_median_passes(monkeypatch)
        median_bandwidth(make_set(drawn_points(530, 2, 5, 0, 30, False).tolist(), []))
        assert len(passes) > 1
        # a small cap is met by counting in bins first
        assert any(width for _lo, _hi, width in passes) == (keep < 1 << 17)

    def test_one_pass_on_a_typical_set(self, monkeypatch):
        passes = count_median_passes(monkeypatch)
        points = drawn_points(600, 8, 7, 0, 0, False)
        expected = numpy_median_bandwidth(points[:300], points[300:])
        assert median_bandwidth(make_set(points.tolist(), [])) == expected
        assert len(passes) == 1

    def test_identical_points_across_blocks_are_degenerate(self):
        with pytest.raises(DegenerateSetError):
            median_bandwidth(make_set([[1.5, -2.0]] * 300, [[1.5, -2.0]] * 10))

    def test_memory_is_bounded_by_blocks(self):
        # all 4.5M distances of 3,000 points would take 36 MB
        points = np.random.default_rng(8).normal(size=(3000, 8))
        es = make_set(points[:1500].tolist(), points[1500:].tolist())
        tracemalloc.start()
        try:
            median_bandwidth(es)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestDomainGeometry:
    def test_identical_domains_mmd_zero(self):
        vecs = [[0.3, 1.0], [2.0, -1.0], [0.5, 0.5]]
        es = make_set(vecs, vecs)
        geo = domain_geometry(es, KernelConfig(bandwidth=1.0))
        assert geo.mmd == pytest.approx(0.0, abs=1e-12)

    def test_singleton_hand_value(self):
        es = make_set([[0.0]], [[1.0]])
        geo = domain_geometry(es, KernelConfig(bandwidth=math.sqrt(0.5)))
        expected_mmd2 = 2.0 - 2.0 * math.exp(-1.0)
        assert geo.mmd == pytest.approx(math.sqrt(expected_mmd2), abs=1e-9)
        assert geo.mmd == pytest.approx(1.1243847790891208, abs=1e-7)

    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(7)
        ir = rng.normal(size=(20, 3))
        vis = rng.normal(loc=0.5, size=(20, 3))
        es = make_set(ir.tolist(), vis.tolist())
        cfg = KernelConfig(bandwidth=1.3)
        geo = domain_geometry(es, cfg)
        expected = oracle_mmd2([tuple(v) for v in ir], [tuple(v) for v in vis], 1.3)
        assert geo.mmd**2 == pytest.approx(expected, abs=1e-10)

    def test_consistency_invariant(self):
        rng = np.random.default_rng(11)
        es = make_set(rng.normal(size=(8, 4)).tolist(), rng.normal(size=(5, 4)).tolist())
        geo = domain_geometry(es, KernelConfig(bandwidth=2.0))
        lhs = geo.mmd**2
        rhs = geo.gram_ir_ir_mean + geo.gram_vis_vis_mean - 2.0 * geo.gram_cross_mean
        assert lhs == pytest.approx(max(0.0, rhs), abs=1e-12)

    def test_symmetric_under_domain_swap(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 2)).tolist()
        b = rng.normal(loc=1.0, size=(4, 2)).tolist()
        cfg = KernelConfig(bandwidth=1.0)
        assert domain_geometry(make_set(a, b), cfg).mmd == pytest.approx(
            domain_geometry(make_set(b, a), cfg).mmd, abs=1e-12
        )

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        ir = rng.normal(size=(7, 3)).tolist()
        vis = rng.normal(loc=0.8, size=(5, 3)).tolist()
        cfg = KernelConfig(bandwidth=1.0)
        base = domain_geometry(make_set(ir, vis), cfg)
        doubled = domain_geometry(make_set(ir + ir, vis), cfg)
        assert doubled.mmd == pytest.approx(base.mmd, abs=1e-10)

    def test_mmd_squared_bounded_for_gaussian(self):
        rng = np.random.default_rng(13)
        es = make_set(rng.normal(size=(9, 2)).tolist(), rng.normal(loc=50.0, size=(9, 2)).tolist())
        geo = domain_geometry(es, KernelConfig(bandwidth=0.5))
        assert 0.0 <= geo.mmd**2 <= 2.0

    def test_linear_kernel_hand_example(self):
        es = make_set([[0.0, 0.0], [2.0, 0.0]], [[4.0, 0.0]])
        geo = domain_geometry(es, KernelConfig(kind="linear"))
        assert geo.mmd == pytest.approx(3.0, abs=1e-12)


class TestProjectionScores:
    def test_singleton_projection_zero(self):
        es = make_set([[0.0]], [[1.0]])
        cfg = KernelConfig(bandwidth=math.sqrt(0.5))
        geo = domain_geometry(es, cfg)
        scores = projection_scores(es, cfg)
        assert len(scores) == 1
        assert scores[0].projection == pytest.approx(0.0, abs=1e-12)
        assert scores[0].d == pytest.approx(geo.mmd, abs=1e-12)

    def test_linear_kernel_hand_example(self):
        es = make_set([[0.0, 0.0], [2.0, 0.0]], [[4.0, 0.0]])
        scores = projection_scores(es, KernelConfig(kind="linear"))
        by_id = {s.id: s for s in scores}
        assert by_id["ir000"].projection == pytest.approx(-1.0, abs=1e-12)
        assert by_id["ir000"].d == pytest.approx(2.0, abs=1e-12)
        assert by_id["ir001"].projection == pytest.approx(1.0, abs=1e-12)
        assert by_id["ir001"].d == pytest.approx(4.0, abs=1e-12)

    def test_linear_kernel_matches_vector_space_oracle(self):
        rng = np.random.default_rng(19)
        ir = rng.normal(size=(100, 6)).tolist()
        vis = rng.normal(loc=0.7, size=(40, 6)).tolist()
        es = make_set(ir, vis)
        scores = projection_scores(es, KernelConfig(kind="linear"))
        mmd, expected = oracle_linear_scores(ir, vis)
        geo = domain_geometry(es, KernelConfig(kind="linear"))
        assert geo.mmd == pytest.approx(mmd, abs=1e-9)
        assert len(scores) == 100
        for score, (proj, d) in zip(scores, expected):
            assert score.projection == pytest.approx(proj, abs=1e-9)
            assert score.d == pytest.approx(d, abs=1e-9)

    def test_d_minus_projection_equals_mmd(self):
        rng = np.random.default_rng(23)
        es = make_set(rng.normal(size=(15, 3)).tolist(), rng.normal(loc=1.0, size=(9, 3)).tolist())
        cfg = KernelConfig(bandwidth=1.2)
        geo = domain_geometry(es, cfg)
        scores = projection_scores(es, cfg)
        worst = max(abs((s.d - s.projection) - geo.mmd) for s in scores)
        assert worst < 1e-12

    def test_visible_samples_unscored(self):
        es = make_set([[0.0], [1.0]], [[5.0], [6.0]])
        scores = projection_scores(es, KernelConfig(bandwidth=1.0))
        assert all(s.id.startswith("ir") for s in scores)

    def test_indistinguishable_domains_error(self):
        vecs = [[1.0, 2.0], [3.0, 4.0]]
        es = make_set(vecs, vecs)
        with pytest.raises(IndistinguishableDomainsError):
            projection_scores(es, KernelConfig(bandwidth=1.0))

    def test_duplication_leaves_scores_unchanged(self):
        rng = np.random.default_rng(29)
        ir = rng.normal(size=(6, 2)).tolist()
        vis = rng.normal(loc=1.5, size=(4, 2)).tolist()
        cfg = KernelConfig(bandwidth=1.0)
        base = {s.id: s.d for s in projection_scores(make_set(ir, vis), cfg)}
        es2 = make_set(ir, vis + vis)
        doubled = {s.id: s.d for s in projection_scores(es2, cfg)}
        for key, value in base.items():
            assert doubled[key] == pytest.approx(value, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_gaussian_agrees_with_plain_loops(self, seed):
        rng = np.random.default_rng(seed)
        n, m, dim = int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 4))
        ir = rng.normal(size=(n, dim)).tolist()
        vis = rng.normal(loc=2.0, size=(m, dim)).tolist()
        bw = float(rng.uniform(0.5, 3.0))
        cfg = KernelConfig(bandwidth=bw)
        scores = projection_scores(make_set(ir, vis), cfg)
        mmd = math.sqrt(max(0.0, oracle_mmd2(ir, vis, bw)))
        kii = sum(oracle_kernel(a, b, bw) for a in ir for b in ir) / (n * n)
        kiv = sum(oracle_kernel(a, b, bw) for a in ir for b in vis) / (n * m)
        for i, score in enumerate(scores):
            mean_vis = sum(oracle_kernel(ir[i], b, bw) for b in vis) / m
            mean_ir = sum(oracle_kernel(ir[i], b, bw) for b in ir) / n
            proj = (mean_vis - mean_ir - kiv + kii) / mmd
            assert score.projection == pytest.approx(proj, abs=1e-9)
            assert score.d == pytest.approx(proj + mmd, abs=1e-9)


def numpy_oracle(ir, vis, kernel):
    """Whole Gram matrices at once, without blocks: the geometry and the
    (projection, d) of each infrared sample."""
    k_ii, k_vv, k_iv = kernel(ir, ir), kernel(vis, vis), kernel(ir, vis)
    kii, kvv, kiv = k_ii.mean(), k_vv.mean(), k_iv.mean()
    mmd = math.sqrt(max(0.0, kii + kvv - 2.0 * kiv))
    projection = (k_iv.mean(axis=1) - k_ii.mean(axis=1) - kiv + kii) / mmd
    return (kii, kvv, kiv, mmd), projection


def numpy_sq_distances(a, b):
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


def numpy_median_bandwidth(ir, vis):
    points = np.concatenate([ir, vis])
    sq = numpy_sq_distances(points, points)[np.triu_indices(len(points), k=1)]
    return float(np.median(np.sqrt(sq[sq > 0.0])))


def linear_gram(a, b):
    return np.sum(a[:, None, :] * b[None, :, :], axis=2)


def gaussian_gram(bandwidth):
    return lambda a, b: np.exp(-numpy_sq_distances(a, b) / (2.0 * bandwidth * bandwidth))


class TestMultiBlock:
    """Both domains above the block size, neither a multiple of it, so every
    pass crosses block edges in both directions."""

    N_IR, N_VIS, DIM = 300, 270, 5

    def sets(self):
        rng = np.random.default_rng(41)
        ir = rng.normal(size=(self.N_IR, self.DIM))
        vis = rng.normal(loc=0.6, size=(self.N_VIS, self.DIM))
        return ir, vis, make_set(ir.tolist(), vis.tolist())

    @pytest.mark.parametrize("mode", ["fixed", "median", "linear"])
    def test_matches_unblocked_numpy(self, mode):
        ir, vis, es = self.sets()
        if mode == "linear":
            cfg, bandwidth, kernel = KernelConfig(kind="linear"), None, linear_gram
        elif mode == "fixed":
            cfg, bandwidth = KernelConfig(bandwidth=1.7), 1.7
            kernel = gaussian_gram(bandwidth)
        else:
            cfg = KernelConfig(bandwidth=None, bandwidth_mode="median")
            bandwidth = numpy_median_bandwidth(ir, vis)
            kernel = gaussian_gram(bandwidth)
        expected_geo, expected_projection = numpy_oracle(ir, vis, kernel)

        geo = domain_geometry(es, cfg)
        scores = projection_scores(es, cfg)
        one_pass_geo, one_pass_scores = score_visual(es, cfg)

        assert one_pass_geo == geo
        assert one_pass_scores == scores
        if bandwidth is None:
            assert geo.bandwidth is None
        else:
            assert geo.bandwidth == pytest.approx(bandwidth, abs=1e-10)
        got = (geo.gram_ir_ir_mean, geo.gram_vis_vis_mean, geo.gram_cross_mean, geo.mmd)
        assert got == pytest.approx(expected_geo, abs=1e-10)
        assert len(scores) == self.N_IR
        for score, projection in zip(scores, expected_projection):
            assert score.projection == pytest.approx(projection, abs=1e-10)
            assert score.d == pytest.approx(projection + expected_geo[3], abs=1e-10)


class TestThreeBlocks(TestMultiBlock):
    """At least three blocks per domain, so mirrored blocks cross more than
    one edge and some land two blocks from the diagonal."""

    N_IR, N_VIS, DIM = 600, 530, 3


@pytest.mark.parametrize("seed", range(4))
def test_symmetric_gram_pass_matches_full_pass(seed):
    """Mirrored blocks give the floats that computing every block gives.
    On seed 2, taking a mirror's sum from the block above it would change
    the last bit of the mean."""
    points = np.random.default_rng(seed).normal(size=(600, 3))
    cfg = KernelConfig(bandwidth=1.7)
    mean, row_means = _gram_pass(points, points, cfg, 1.7)
    full_mean, full_row_means = _gram_pass(points, points.copy(), cfg, 1.7)
    assert mean == full_mean
    assert np.array_equal(row_means, full_row_means)


class TestRanking:
    def test_descending_d(self):
        scores = [VisualScore("a", 1.0, 4.0), VisualScore("b", -1.0, 2.0)]
        assert rank_by_visual_difficulty(scores) == ["a", "b"]

    def test_tie_broken_by_id(self):
        scores = [VisualScore("b", 0.0, 2.0), VisualScore("a", 0.0, 2.0)]
        assert rank_by_visual_difficulty(scores) == ["a", "b"]

    def test_singleton(self):
        assert rank_by_visual_difficulty([VisualScore("only", 0.5, 1.5)]) == ["only"]

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSetError):
            rank_by_visual_difficulty([])


class TestScoresIo:
    def test_round_trip(self, tmp_path):
        es = make_set([[0.0, 0.0], [2.0, 0.0]], [[4.0, 0.0]])
        cfg = KernelConfig(kind="linear")
        geo = domain_geometry(es, cfg)
        scores = projection_scores(es, cfg)
        path = tmp_path / "scores.jsonl"
        write_visual_scores(path, geo, es, scores)
        header, loaded = load_visual_scores(path)
        assert header["mmd"] == pytest.approx(geo.mmd, abs=0)
        assert header["n_ir"] == 2
        assert header["n_vis"] == 1
        assert loaded == list(scores)

    def test_header_records_bandwidth(self, tmp_path):
        es = make_set([[0.0]], [[1.0]])
        cfg = KernelConfig(bandwidth=1.5)
        geo = domain_geometry(es, cfg)
        scores = projection_scores(es, cfg)
        path = tmp_path / "scores.jsonl"
        write_visual_scores(path, geo, es, scores)
        header, _ = load_visual_scores(path)
        assert header["bandwidth"] == 1.5

    def test_header_count_must_match_rows(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"mmd": 1.0, "bandwidth": null, "n_ir": 2, "n_vis": 1}\n'
            '{"id": "a", "projection": 0.0, "d": 1.0}\n'
        )
        with pytest.raises(MalformedLineError) as exc:
            load_visual_scores(path)
        assert exc.value.line_no == 1

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(31)
        es = make_set(rng.normal(size=(5, 2)).tolist(), rng.normal(loc=1.0, size=(3, 2)).tolist())
        cfg = KernelConfig(bandwidth=1.0)
        geo = domain_geometry(es, cfg)
        scores = projection_scores(es, cfg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_visual_scores(p1, geo, es, scores)
        write_visual_scores(p2, geo, es, scores)
        assert p1.read_bytes() == p2.read_bytes()
