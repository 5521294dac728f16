import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ircur.errors import (
    BatchTooSmallError,
    DegenerateSetError,
    DuplicateIdError,
    NonFiniteValueError,
    UndefinedRateError,
)
from ircur.alignment_lesson import (
    AlignmentConfig,
    AlignmentScore,
    LearningRateWarning,
    PairedEmbeddingSet,
    PairedSample,
    TwoTowerModel,
    contrastive_loss_and_grads,
    init_two_tower,
    load_alignment_scores,
    load_paired_embeddings,
    loss_variation,
    per_sample_loss,
    rank_by_alignment_difficulty,
    sample_weights,
    score_alignment,
    warmup,
    write_alignment_scores,
    write_paired_embeddings,
)


def make_pairs(img_rows, txt_rows):
    pairs = tuple(
        PairedSample(f"p{i:03d}", tuple(map(float, a)), tuple(map(float, b)))
        for i, (a, b) in enumerate(zip(img_rows, txt_rows))
    )
    return PairedEmbeddingSet(len(img_rows[0]), len(txt_rows[0]), pairs)


def identity_model(dim, temperature=1.0):
    eye = np.eye(dim, dtype=np.float64)
    return TwoTowerModel(proj_img=eye.copy(), proj_txt=eye.copy(), temperature=temperature)


def random_pairs(rng, n, dim_img, dim_txt):
    return make_pairs(rng.normal(size=(n, dim_img)).tolist(), rng.normal(size=(n, dim_txt)).tolist())


class TestPerSampleLoss:
    def test_identity_similarity_hand_value(self):
        batch = make_pairs([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        losses = per_sample_loss(identity_model(2), batch)
        expected = -math.log(math.e / (math.e + 1.0))
        assert losses["p000"] == pytest.approx(expected, abs=1e-12)
        assert losses["p001"] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3132617, abs=1e-7)

    def test_uniform_similarity_is_ln2(self):
        batch = make_pairs([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
        losses = per_sample_loss(identity_model(2), batch)
        for value in losses.values():
            assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_batch_of_one_rejected(self):
        batch = make_pairs([[1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(BatchTooSmallError):
            per_sample_loss(identity_model(2), batch)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        batch = random_pairs(rng, 8, 4, 4)
        losses = per_sample_loss(identity_model(4, temperature=0.5), batch)
        flipped = PairedEmbeddingSet(4, 4, tuple(reversed(batch.pairs)))
        losses_flipped = per_sample_loss(identity_model(4, temperature=0.5), flipped)
        for key, value in losses.items():
            assert losses_flipped[key] == pytest.approx(value, abs=1e-12)

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(43)
        batch = random_pairs(rng, 12, 5, 3)
        model = init_two_tower(5, 3, d_shared=4, temperature=0.2, seed=0)
        assert all(v >= 0.0 for v in per_sample_loss(model, batch).values())


class TestGradients:
    def numeric_grad(self, model, batch, which, h=1e-5):
        matrix = getattr(model, which)
        grad = np.zeros_like(matrix)
        for idx in np.ndindex(*matrix.shape):
            for sign in (+1.0, -1.0):
                bumped = matrix.copy()
                bumped[idx] += sign * h
                probe = TwoTowerModel(
                    proj_img=bumped if which == "proj_img" else model.proj_img,
                    proj_txt=bumped if which == "proj_txt" else model.proj_txt,
                    temperature=model.temperature,
                )
                total, _, _, _ = contrastive_loss_and_grads(probe, batch)
                grad[idx] += sign * total
        return grad / (2.0 * h)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_pairs(rng, 6, 5, 7)
        model = init_two_tower(5, 7, d_shared=3, temperature=0.3, seed=seed + 100)
        _, _, g_img, g_txt = contrastive_loss_and_grads(model, batch)
        for which, analytic in (("proj_img", g_img), ("proj_txt", g_txt)):
            numeric = self.numeric_grad(model, batch, which)
            scale = np.maximum(np.abs(numeric), 1e-8)
            rel = np.max(np.abs(analytic - numeric) / scale)
            assert rel <= 1e-6

    def test_total_is_mean_of_per_sample(self):
        rng = np.random.default_rng(4)
        batch = random_pairs(rng, 5, 3, 3)
        model = init_two_tower(3, 3, d_shared=3, temperature=0.5, seed=9)
        total, per_sample, _, _ = contrastive_loss_and_grads(model, batch)
        assert total == pytest.approx(float(np.mean(per_sample)), abs=1e-12)


def reference_loss_and_grads(model, batch):
    """The textbook form the in-place kernel must match bit for bit."""

    def log_softmax(s, axis):
        shifted = s - np.max(s, axis=axis, keepdims=True)
        return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))

    n = len(batch.pairs)
    x_img = np.asarray([p.image_vector for p in batch.pairs], dtype=np.float64)
    x_txt = np.asarray([p.text_vector for p in batch.pairs], dtype=np.float64)
    a = x_img @ model.proj_img
    b = x_txt @ model.proj_txt
    norm_a = np.sqrt(np.sum(a * a, axis=1))
    norm_b = np.sqrt(np.sum(b * b, axis=1))
    u, v = a / norm_a[:, None], b / norm_b[:, None]
    s = (u @ v.T) / model.temperature
    diag = np.arange(n)
    row_ls = log_softmax(s, axis=1)
    col_ls = log_softmax(s, axis=0)
    per_sample = -0.5 * (row_ls[diag, diag] + col_ls[diag, diag])
    total = float(np.mean(per_sample))
    eye = np.eye(n)
    ds = ((np.exp(row_ls) - eye) + (np.exp(col_ls) - eye)) / (2.0 * n)
    du = (ds @ v) / model.temperature
    dv = (ds.T @ u) / model.temperature
    da = (du - np.sum(du * u, axis=1, keepdims=True) * u) / norm_a[:, None]
    db = (dv - np.sum(dv * v, axis=1, keepdims=True) * v) / norm_b[:, None]
    return total, per_sample, x_img.T @ da, x_txt.T @ db


class TestInPlaceKernel:
    @pytest.mark.parametrize("n", [2, 3, 257])
    @pytest.mark.parametrize("temperature", [0.07, 0.5])
    @pytest.mark.parametrize("d_shared", [4, 300])
    def test_bit_identical_to_reference(self, n, temperature, d_shared):
        rng = np.random.default_rng(n * 1000 + d_shared)
        batch = random_pairs(rng, n, 6, 5)
        model = init_two_tower(6, 5, d_shared=d_shared, temperature=temperature, seed=n)
        total, per_sample, g_img, g_txt = contrastive_loss_and_grads(model, batch)
        ref_total, ref_per_sample, ref_img, ref_txt = reference_loss_and_grads(model, batch)
        assert total == ref_total
        assert np.array_equal(per_sample, ref_per_sample)
        assert np.array_equal(g_img, ref_img)
        assert np.array_equal(g_txt, ref_txt)
        loss_only = contrastive_loss_and_grads(model, batch, grads=False)
        assert loss_only[0] == ref_total
        assert np.array_equal(loss_only[1], ref_per_sample)
        assert loss_only[2] is None and loss_only[3] is None

    def test_inputs_left_unchanged(self):
        rng = np.random.default_rng(5)
        batch = random_pairs(rng, 9, 4, 3)
        model = init_two_tower(4, 3, d_shared=2, temperature=0.1, seed=2)
        before = (batch.image_matrix.copy(), batch.text_matrix.copy(),
                  model.proj_img.copy(), model.proj_txt.copy())
        contrastive_loss_and_grads(model, batch)
        after = (batch.image_matrix, batch.text_matrix, model.proj_img, model.proj_txt)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


class TestPairedSetMatrices:
    def test_matrices_equal_the_tuples(self):
        rng = np.random.default_rng(7)
        batch = random_pairs(rng, 6, 4, 3)
        for matrix, key in ((batch.image_matrix, "image_vector"), (batch.text_matrix, "text_vector")):
            expected = np.asarray([getattr(p, key) for p in batch.pairs], dtype=np.float64)
            assert matrix.dtype == np.float64
            assert np.array_equal(matrix, expected)
            assert not matrix.flags.writeable

    def test_equality_and_hash_follow_the_pairs(self, tmp_path):
        rng = np.random.default_rng(11)
        batch = random_pairs(rng, 5, 3, 2)
        path = tmp_path / "pairs.jsonl"
        write_paired_embeddings(batch, path)
        loaded = load_paired_embeddings(path)
        assert loaded == batch
        assert hash(loaded) == hash(batch)
        assert PairedEmbeddingSet(3, 2, batch.pairs[:4]) != batch
        assert "image_matrix" not in repr(batch)

    @pytest.mark.parametrize("grads", [True, False])
    def test_one_pair_rejected(self, grads):
        batch = make_pairs([[1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(BatchTooSmallError):
            contrastive_loss_and_grads(identity_model(2), batch, grads=grads)


class TestWarmup:
    def test_zero_epochs_returns_model_unchanged(self):
        rng = np.random.default_rng(51)
        batch = random_pairs(rng, 4, 3, 3)
        model = init_two_tower(3, 3, d_shared=2, temperature=0.5, seed=1)
        warmed = warmup(model, batch, epochs=0, lr=0.1)
        assert np.array_equal(warmed.proj_img, model.proj_img)
        assert np.array_equal(warmed.proj_txt, model.proj_txt)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(53)
        batch = random_pairs(rng, 8, 4, 6)
        run = lambda: warmup(init_two_tower(4, 6, d_shared=3, temperature=0.1, seed=7), batch, epochs=20, lr=0.005)
        a, b = run(), run()
        assert np.array_equal(a.proj_img, b.proj_img)
        assert np.array_equal(a.proj_txt, b.proj_txt)

    def test_loss_decreases_on_random_set(self):
        rng = np.random.default_rng(59)
        batch = random_pairs(rng, 32, 8, 8)
        model = init_two_tower(8, 8, d_shared=4, temperature=0.2, seed=3)
        before = np.mean(list(per_sample_loss(model, batch).values()))
        warmed = warmup(model, batch, epochs=50, lr=0.01)
        after = np.mean(list(per_sample_loss(warmed, batch).values()))
        assert after < before

    def test_high_lr_warns(self):
        rng = np.random.default_rng(61)
        batch = random_pairs(rng, 8, 4, 4)
        model = init_two_tower(4, 4, d_shared=3, temperature=0.05, seed=5)
        with pytest.warns(LearningRateWarning):
            warmup(model, batch, epochs=40, lr=50.0)


class TestLossVariation:
    def test_drop(self):
        assert loss_variation(2.0, 1.0) == pytest.approx(-0.5, abs=0)

    def test_rise(self):
        assert loss_variation(1.0, 1.5) == pytest.approx(0.5, abs=0)

    def test_zero_base_rejected(self):
        with pytest.raises(UndefinedRateError):
            loss_variation(0.0, 1.0)


class TestSampleWeights:
    def test_hand_points(self):
        # medians: Med+ over {1,2,3} = 2, Med- over {1,2,3} = 2
        alphas = {
            "pos_low": 1.0,
            "pos_med": 2.0,
            "pos_high": 3.0,
            "neg_low": -1.0,
            "neg_med": -2.0,
            "neg_high": -3.0,
        }
        weights = sample_weights(alphas)
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        assert weights["pos_med"] == pytest.approx(1.0 - sig1, abs=1e-12)
        assert weights["pos_med"] == pytest.approx(0.2689414, abs=1e-7)
        assert weights["neg_med"] == pytest.approx(1.0 + sig1, abs=1e-12)
        assert weights["neg_med"] == pytest.approx(1.7310586, abs=1e-7)

    def test_zero_alpha_in_mixed_set(self):
        weights = sample_weights({"zero": 0.0, "neg": -4.0, "pos": 2.0})
        assert weights["zero"] == pytest.approx(1.5, abs=0)

    def test_even_median_uses_middle_mean(self):
        alphas = {"a": 1.0, "b": 2.0}
        weights = sample_weights(alphas)
        med = statistics.median([1.0, 2.0])
        expected = 1.0 - 1.0 / (1.0 + math.exp(-1.0 / med))
        assert weights["a"] == pytest.approx(expected, abs=1e-12)

    def test_all_zero_alphas(self):
        weights = sample_weights({"a": 0.0, "b": 0.0})
        assert weights == {"a": 1.5, "b": 1.5}

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValueError):
            sample_weights({"a": float("nan")})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_weights({})

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    def test_branch_bounds(self, values):
        alphas = {f"s{i}": v for i, v in enumerate(values)}
        weights = sample_weights(alphas)
        for key, alpha in alphas.items():
            if alpha > 0:
                assert 0.0 < weights[key] <= 0.5
            else:
                assert 1.5 <= weights[key] < 2.0

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        st.floats(0.01, 40.0),
        st.floats(0.01, 40.0),
    )
    def test_monotone_within_branch(self, values, lo, hi):
        a, b = sorted([lo, hi])
        alphas = {f"s{i}": v for i, v in enumerate(values)}
        alphas["probe_a"], alphas["probe_b"] = a, b
        weights = sample_weights(alphas)
        assert weights["probe_a"] >= weights["probe_b"]
        alphas["probe_a"], alphas["probe_b"] = -b, -a
        weights = sample_weights(alphas)
        assert weights["probe_a"] >= weights["probe_b"]


class TestRanking:
    def test_ascending_post_loss(self):
        scores = [
            AlignmentScore("b", 1.0, 0.9, -0.1, 1.6),
            AlignmentScore("a", 1.0, 0.3, -0.7, 1.9),
        ]
        assert rank_by_alignment_difficulty(scores) == ["a", "b"]

    def test_tie_by_id(self):
        scores = [
            AlignmentScore("b", 1.0, 0.5, -0.5, 1.7),
            AlignmentScore("a", 1.0, 0.5, -0.5, 1.7),
        ]
        assert rank_by_alignment_difficulty(scores) == ["a", "b"]

    def test_singleton(self):
        assert rank_by_alignment_difficulty([AlignmentScore("x", 1.0, 1.0, 0.0, 1.5)]) == ["x"]

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSetError):
            rank_by_alignment_difficulty([])


class TestScoreAlignment:
    def test_pipeline_invariants(self):
        rng = np.random.default_rng(67)
        batch = random_pairs(rng, 16, 6, 5)
        cfg = AlignmentConfig(d_shared=4, temperature=0.2, epochs=30, lr=0.02, seed=11)
        scores = score_alignment(batch, cfg)
        assert [s.id for s in scores] == [p.id for p in batch.pairs]
        for s in scores:
            assert s.alpha == pytest.approx((s.l_prime - s.l) / s.l, abs=1e-12)
            if s.alpha > 0:
                assert 0.0 < s.weight <= 0.5
            else:
                assert 1.5 <= s.weight < 2.0

    def test_deterministic(self):
        rng = np.random.default_rng(71)
        batch = random_pairs(rng, 10, 4, 4)
        cfg = AlignmentConfig(d_shared=3, temperature=0.3, epochs=10, lr=0.05, seed=2)
        assert score_alignment(batch, cfg) == score_alignment(batch, cfg)


class TestIo:
    def test_paired_round_trip(self, tmp_path):
        rng = np.random.default_rng(73)
        batch = random_pairs(rng, 5, 3, 4)
        path = tmp_path / "pairs.jsonl"
        write_paired_embeddings(batch, path)
        assert load_paired_embeddings(path) == batch

    def test_paired_duplicate_id(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        row = {"id": "a", "image_vector": [1.0], "text_vector": [2.0]}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(DuplicateIdError):
            load_paired_embeddings(path)

    def test_scores_round_trip(self, tmp_path):
        scores = [
            AlignmentScore("a", 1.5, 1.2, -0.2, 1.6),
            AlignmentScore("b", 0.5, 0.9, 0.8, 0.3),
        ]
        path = tmp_path / "scores.jsonl"
        write_alignment_scores(scores, path)
        assert load_alignment_scores(path) == scores
