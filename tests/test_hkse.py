"""Random feature maps against the exact kernel they approximate."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blas_threads import run_under_blas_threads
from ccax import hkse, io
from oracles import bandwidth_sorted, embed_corpus, embed_sentence_gemv


def run_under_two_blas_threads(tmp_path, test: str):
    """Run ``test`` of this file in a fresh interpreter where OpenBLAS
    splits each product over two threads; return the finished process."""
    return run_under_blas_threads(
        2, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"{Path(__file__).resolve()}::{test}"], tmp_path)


def unit_pairs(rng, count, dim):
    for _ in range(count):
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        yield a / np.linalg.norm(a), b / np.linalg.norm(b)


def random_sentences(rng, count, dim, max_len=10):
    for _ in range(count):
        yield (
            rng.standard_normal((int(rng.integers(1, max_len + 1)), dim)),
            rng.standard_normal((int(rng.integers(1, max_len + 1)), dim)),
        )


class TestBuildMap:
    def test_lin_lin_has_no_random_arrays(self):
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, input_dim=5, seed=0)
        assert m.w_word is None and m.b_word is None
        assert m.w_sent is None and m.b_sent is None
        assert m.output_dim == 5

    def test_same_seed_bitwise_identical(self):
        a = hkse.build_map("rbf", "rbf", 1.0, 0.5, 32, 16, 4, seed=7)
        b = hkse.build_map("rbf", "rbf", 1.0, 0.5, 32, 16, 4, seed=7)
        np.testing.assert_array_equal(a.w_word, b.w_word)
        np.testing.assert_array_equal(a.b_word, b.b_word)
        np.testing.assert_array_equal(a.w_sent, b.w_sent)
        np.testing.assert_array_equal(a.b_sent, b.b_sent)

    def test_different_seeds_differ(self):
        a = hkse.build_map("rbf", "rbf", 1.0, 0.5, 32, 16, 4, seed=7)
        b = hkse.build_map("rbf", "rbf", 1.0, 0.5, 32, 16, 4, seed=8)
        assert np.linalg.norm(a.w_word - b.w_word) > 0

    @pytest.mark.parametrize("seed", [0, 7, 40001])
    @pytest.mark.parametrize("width", [1e-300, 1e-3, 0.5, 1.0, 4.0, 1e300])
    def test_draws_equal_rng_normal(self, seed, width):
        # each layer's weights, drawn as standard normals and scaled in
        # place, are the bits of rng.normal(0.0, sqrt(width)) of its stream
        m = hkse.build_map("rbf", "rbf", width, width, 24, 40, 5, seed=seed,
                           stream=3)
        for w, b, label, shape in ((m.w_word, m.b_word, 11, (24, 5)),
                                   (m.w_sent, m.b_sent, 12, (40, 24))):
            rng = np.random.default_rng([seed, 3, label])
            want = rng.normal(0.0, np.sqrt(width), size=shape)
            assert w.tobytes() == want.tobytes()
            assert b.tobytes() == rng.uniform(0.0, 2.0 * np.pi,
                                              size=shape[0]).tobytes()

    def test_word_draw_matches_declared_distribution(self):
        m = hkse.build_map("rbf", "lin", 4.0, 1.0, 20000, 0, 3, seed=1)
        # rows ~ N(0, gamma I): per-coordinate variance gamma
        assert np.var(m.w_word) == pytest.approx(4.0, rel=0.05)
        assert m.b_word.min() >= 0.0 and m.b_word.max() <= 2 * np.pi

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            hkse.build_map("rbf", "lin", 0.0, 1.0, 8, 0, 3, seed=0)
        with pytest.raises(ValueError, match="eta"):
            hkse.build_map("lin", "rbf", 1.0, -1.0, 0, 8, 3, seed=0)


    @pytest.mark.parametrize("word,sent,gamma,eta,named", [
        ("rbf", "lin", np.nan, 1.0, "gamma"),
        ("rbf", "lin", np.inf, 1.0, "gamma"),
        ("lin", "rbf", 1.0, np.nan, "eta"),
        ("lin", "rbf", 1.0, np.inf, "eta"),
    ])
    def test_non_finite_bandwidth_named(self, word, sent, gamma, eta, named):
        with pytest.raises(ValueError, match=f"needs a finite {named} > 0"):
            hkse.build_map(word, sent, gamma, eta, 8, 8, 3, seed=0)


class TestWordFeature:
    def test_lin_is_identity(self):
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 4, seed=0)
        a = np.array([1.0, -2.0, 0.5, 3.0])
        out = hkse.word_feature(m, a)
        np.testing.assert_array_equal(out, a)

    def test_self_inner_product_concentrates(self):
        m = hkse.build_map("rbf", "lin", 1.0, 1.0, 8192, 0, 8, seed=3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(8)
        a /= np.linalg.norm(a)
        feat = hkse.word_feature(m, a)
        assert abs(feat @ feat - 1.0) <= 0.05

    def test_kernel_approximation_100_pairs(self):
        m = hkse.build_map("rbf", "lin", 1.0, 1.0, 8192, 0, 8, seed=3)
        rng = np.random.default_rng(4)
        worst = 0.0
        for a, b in unit_pairs(rng, 100, 8):
            approx = hkse.word_feature(m, a) @ hkse.word_feature(m, b)
            exact = np.exp(-0.5 * np.sum((a - b) ** 2))
            worst = max(worst, abs(approx - exact))
        assert worst <= 0.05

    def test_error_shrinks_as_m_quadruples(self):
        rng = np.random.default_rng(5)
        pairs = list(unit_pairs(rng, 100, 8))
        worst = []
        for m_features in (512, 2048, 8192):
            m = hkse.build_map("rbf", "lin", 1.0, 1.0, m_features, 0, 8,
                               seed=6)
            errs = [
                abs(hkse.word_feature(m, a) @ hkse.word_feature(m, b)
                    - np.exp(-0.5 * np.sum((a - b) ** 2)))
                for a, b in pairs
            ]
            worst.append(max(errs))
        assert worst[0] > worst[1] > worst[2]

    def test_dimension_mismatch(self):
        m = hkse.build_map("rbf", "lin", 1.0, 1.0, 8, 0, 3, seed=0)
        with pytest.raises(ValueError, match="shape"):
            hkse.word_feature(m, np.zeros(4))


class TestEmbedSentence:
    def test_lin_lin_single_token(self):
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 3, seed=0)
        a = np.array([0.25, -1.0, 2.0])
        np.testing.assert_array_equal(hkse.embed_sentence(m, [a]), a)

    def test_lin_lin_two_tokens_exact_mean(self):
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 3, seed=0)
        a = np.array([1.0, 0.0, 4.0])
        b = np.array([0.0, 2.0, -4.0])
        np.testing.assert_array_equal(
            hkse.embed_sentence(m, [a, b]), np.mean([a, b], axis=0)
        )

    def test_permutation_invariance_exact(self):
        m = hkse.build_map("rbf", "rbf", 1.0, 0.5, 64, 32, 4, seed=2)
        rng = np.random.default_rng(9)
        tokens = [rng.standard_normal(4) for _ in range(5)]
        fwd = hkse.embed_sentence(m, tokens)
        # mean pooling makes any reordering bitwise identical only up to
        # summation order; use a multiset-preserving rotation of the list
        rot = hkse.embed_sentence(m, tokens[2:] + tokens[:2])
        np.testing.assert_allclose(fwd, rot, atol=1e-12)

    def test_repeated_tokens_count_repeatedly(self):
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 2, seed=0)
        a = np.array([3.0, 0.0])
        b = np.array([0.0, 3.0])
        out = hkse.embed_sentence(m, [a, a, b])
        np.testing.assert_allclose(out, [2.0, 1.0])

    def test_empty_sentence_rejected(self):
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            hkse.embed_sentence(m, [])

    def test_two_layer_matches_exact_kernel(self):
        gamma, eta = 1.0, 0.5
        m = hkse.build_map("rbf", "rbf", gamma, eta, 2048, 4096, 8, seed=1)
        rng = np.random.default_rng(10)
        hits = 0
        for s1, s2 in random_sentences(rng, 50, 8):
            approx = hkse.embed_sentence(m, s1) @ hkse.embed_sentence(m, s2)
            exact = hkse.exact_kernel(s1, s2, gamma, eta)
            hits += abs(approx - exact) <= 0.1
        assert hits >= 48  # 95 percent of 50 pairs


class TestExactKernel:
    def test_identical_sentences_give_one(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((4, 6))
        assert hkse.exact_kernel(s, s, 0.7, 0.3) == pytest.approx(1.0)

    def test_lin_rbf_is_gaussian_of_mean_difference(self):
        rng = np.random.default_rng(12)
        s1 = rng.standard_normal((5, 4))
        s2 = rng.standard_normal((3, 4))
        eta = 0.25
        got = hkse.exact_kernel(s1, s2, gamma=1.0, eta=eta,
                                word_variant="lin", sent_variant="rbf")
        mu1, mu2 = s1.mean(axis=0), s2.mean(axis=0)
        expected = np.exp(-0.5 * eta * np.sum((mu1 - mu2) ** 2))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_double_sum_equals_mean_difference_expansion(self):
        rng = np.random.default_rng(13)
        s1 = rng.standard_normal((5, 4))
        s2 = rng.standard_normal((5, 4))
        gamma = 0.8

        def k(a, b):
            return np.exp(-0.5 * gamma * np.sum((a - b) ** 2))

        cross = np.mean([[k(a, b) for b in s2] for a in s1])
        within1 = np.mean([[k(a, b) for b in s1] for a in s1])
        within2 = np.mean([[k(a, b) for b in s2] for a in s2])
        delta = 2 * cross - within1 - within2
        # the same quantity is -(distance between kernel mean embeddings)^2
        eta = 2.0
        got = hkse.exact_kernel(s1, s2, gamma, eta)
        assert got == pytest.approx(np.exp(0.5 * eta * delta), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            s1 = rng.standard_normal((int(rng.integers(1, 6)), 3))
            s2 = rng.standard_normal((int(rng.integers(1, 6)), 3))
            k12 = hkse.exact_kernel(s1, s2, 1.0, 0.5)
            k21 = hkse.exact_kernel(s2, s1, 1.0, 0.5)
            assert k12 == k21
            assert 0.0 < k12 <= 1.0

    def test_lin_lin_is_mean_inner_product(self):
        rng = np.random.default_rng(15)
        s1 = rng.standard_normal((4, 3))
        s2 = rng.standard_normal((2, 3))
        got = hkse.exact_kernel(s1, s2, 1.0, 1.0, "lin", "lin")
        assert got == pytest.approx(s1.mean(axis=0) @ s2.mean(axis=0))


class TestBandwidthHeuristic:
    def test_equal_distances(self):
        # equilateral layout: every pairwise distance sqrt(2)
        table = io.EmbeddingTable(("a", "b", "c"), np.eye(3))
        assert hkse.bandwidth_heuristic(table, 10) == pytest.approx(0.5)

    def test_hand_enumerated_square(self):
        table = io.EmbeddingTable(
            ("a", "b", "c", "d"),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        )
        # distances {1,1,1,1,sqrt2,sqrt2}; lower-middle median is 1
        assert hkse.bandwidth_heuristic(table, 10) == 1.0

    def test_full_sample_ignores_seed(self):
        rng = np.random.default_rng(16)
        table = io.EmbeddingTable(
            tuple(f"w{i}" for i in range(30)), rng.standard_normal((30, 5))
        )
        a = hkse.bandwidth_heuristic(table, sample_size=100, seed=1)
        b = hkse.bandwidth_heuristic(table, sample_size=100, seed=999)
        assert a == b

    def test_subsampled_is_seed_deterministic(self):
        rng = np.random.default_rng(17)
        table = io.EmbeddingTable(
            tuple(f"w{i}" for i in range(50)), rng.standard_normal((50, 4))
        )
        a = hkse.bandwidth_heuristic(table, sample_size=10, seed=5)
        b = hkse.bandwidth_heuristic(table, sample_size=10, seed=5)
        assert a == b

    def test_zero_distances_rejected(self):
        table = io.EmbeddingTable(("a", "b"), np.ones((2, 3)))
        with pytest.raises(ValueError, match="zero"):
            hkse.bandwidth_heuristic(table, 10)

    def test_overflowing_median_rejected(self):
        # 1e200 squares to inf: gamma = 1 / inf^2 would read 0.0
        table = io.EmbeddingTable(("a", "b"), np.array([[1.0], [1e200]]))
        with pytest.raises(io.DataFormatError, match="median is not finite"):
            hkse.bandwidth_heuristic(table, 10)


class TestDimensionBound:
    def test_log_argument_one_clamps_to_minimum(self):
        # delta = 1, epsilon = |A|^2 makes the word bound formally zero
        m_word, m_sent = hkse.dimension_bound(10, 1, delta=1.0, epsilon=100.0)
        assert m_word == 1

    def test_reference_value(self):
        m_word, _ = hkse.dimension_bound(10**4, 5, delta=0.1, epsilon=0.01)
        assert m_word == 1152

    def test_sentence_bound_linear_in_length(self):
        _, m1 = hkse.dimension_bound(50, 4, 0.2, 0.05)
        _, m2 = hkse.dimension_bound(50, 8, 0.2, 0.05)
        _, m3 = hkse.dimension_bound(50, 12, 0.2, 0.05)
        assert abs((m3 - m2) - (m2 - m1)) <= 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hkse.dimension_bound(10, 1, delta=0.0, epsilon=0.1)
        with pytest.raises(ValueError):
            hkse.dimension_bound(10, 1, delta=0.1, epsilon=-0.1)
        with pytest.raises(ValueError):
            hkse.dimension_bound(0, 1, delta=0.1, epsilon=0.1)

    def test_two_layer_sandwich_at_doubled_bounds(self):
        # vocabulary of 30 words, sentences up to 10 tokens; the estimate
        # Hhat must fall inside [exp(-3 eta delta/2) K - delta,
        # exp(3 eta delta/2) K + delta] for >= 95 percent of pairs
        delta, epsilon, eta, gamma = 0.2, 0.05, 0.5, 1.0
        vocab = 30
        max_len = 10
        m_word, m_sent = hkse.dimension_bound(vocab, max_len, delta, epsilon)
        m = hkse.build_map("rbf", "rbf", gamma, eta,
                           2 * m_word, 2 * m_sent, 6, seed=21)
        rng = np.random.default_rng(22)
        words = rng.standard_normal((vocab, 6))
        c = np.exp(1.5 * eta * delta)
        ok = 0
        for _ in range(50):
            s1 = words[rng.integers(0, vocab, rng.integers(1, max_len + 1))]
            s2 = words[rng.integers(0, vocab, rng.integers(1, max_len + 1))]
            k = hkse.exact_kernel(s1, s2, gamma, eta)
            est = hkse.embed_sentence(m, s1) @ hkse.embed_sentence(m, s2)
            ok += (k / c - delta) <= est <= (c * k + delta)
        assert ok >= 48


class TestEmbedCorpus:
    @pytest.fixture
    def table(self):
        rng = np.random.default_rng(23)
        return io.EmbeddingTable(
            ("red", "green", "blue", "dog", "cat"),
            rng.standard_normal((5, 3)),
        )

    @pytest.fixture
    def corpus(self):
        return io.SentenceCorpus(
            (("red", "dog"), ("blue", "cat", "cat"), ("green",)))

    def test_lin_lin_rows_are_token_means(self, table, corpus):
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 3, seed=0)
        out = embed_corpus(m, corpus, table)
        assert out.values.shape == (3, 3)
        np.testing.assert_array_equal(
            out.values[0],
            np.mean([table.vector("red"), table.vector("dog")], axis=0),
        )

    def test_rows_equal_embed_sentence(self, table, corpus):
        m = hkse.build_map("rbf", "rbf", 1.0, 0.5, 32, 24, 3, seed=4)
        out = embed_corpus(m, corpus, table)
        for i, sentence in enumerate(corpus.sentences):
            vectors = [table.vector(t) for t in sentence]
            np.testing.assert_array_equal(
                out.values[i], hkse.embed_sentence(m, vectors)
            )

    def test_concatenation_width(self, table, corpus):
        a = hkse.build_map("lin", "rbf", 1.0, 0.5, 0, 16, 3, seed=0)
        b = hkse.build_map("rbf", "rbf", 1.0, 0.5, 8, 32, 3, seed=0, stream=1)
        out = embed_corpus([a, b], corpus, table)
        assert out.values.shape == (3, 48)
        solo = embed_corpus(a, corpus, table)
        np.testing.assert_array_equal(out.values[:, :16], solo.values)


BLOCK = hkse.BLOCK_ROWS
# feature counts off the multiples of 8, below 8, and at full-size shapes
WIDTHS = (1, 3, 5, 7, 24, 33, 37, 1001, 1500)


@st.composite
def embed_problems(draw):
    """A map, a corpus and its table: up to 2 blocks plus a tail of
    sentences, and now and then one sentence longer than a block."""
    word, sent = draw(st.sampled_from([("lin", "lin"), ("lin", "rbf"),
                                       ("rbf", "lin"), ("rbf", "rbf")]))
    d = draw(st.integers(1, 8))
    m = draw(st.sampled_from(WIDTHS))
    m_prime = draw(st.sampled_from(WIDTHS))
    vocab = draw(st.integers(1, 30))
    n_sentences = draw(st.sampled_from((1, 2, BLOCK - 1, BLOCK, BLOCK + 1,
                                        2 * BLOCK + 5)))
    long_sentence = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    table = io.EmbeddingTable(tuple(f"w{i}" for i in range(vocab)),
                              rng.standard_normal((vocab, d)))
    lengths = rng.integers(1, 12, size=n_sentences)
    if long_sentence:
        lengths[rng.integers(n_sentences)] = BLOCK + 1 + rng.integers(2 * BLOCK)
    corpus = io.SentenceCorpus(
        tuple(tuple(table.tokens[i] for i in rng.integers(vocab, size=n))
              for n in lengths))
    hkse_map = hkse.build_map(word, sent, 0.7, 0.3, m, m_prime, d,
                              seed=seed % 1000)
    return hkse_map, corpus, table


def sentence_vectors(corpus, table, i):
    return [table.vector(t) for t in corpus.sentences[i]]


class TestBlockedKernel:
    @settings(max_examples=30, deadline=None)
    @given(problem=embed_problems())
    def test_corpus_rows_equal_embed_sentence(self, problem):
        hkse_map, corpus, table = problem
        out = embed_corpus(hkse_map, corpus, table).values
        for i in range(len(corpus)):
            row = hkse.embed_sentence(hkse_map,
                                      sentence_vectors(corpus, table, i))
            assert np.array_equal(out[i], row), f"row {i}"

    def test_two_blas_threads(self, tmp_path):
        # the same property where OpenBLAS splits each product over threads
        proc = run_under_two_blas_threads(
            tmp_path, "TestBlockedKernel::test_corpus_rows_equal_embed_sentence")
        assert proc.returncode == 0, proc.stdout[-3000:]
        assert "1 passed" in proc.stdout

    @settings(max_examples=30, deadline=None)
    @given(problem=embed_problems())
    def test_rows_match_gemv_oracle(self, problem):
        hkse_map, corpus, table = problem
        out = embed_corpus(hkse_map, corpus, table).values
        oracle = np.array([
            embed_sentence_gemv(hkse_map, sentence_vectors(corpus, table, i))
            for i in range(len(corpus))])
        # relative to the largest entry: an entry at a zero of cos has no
        # relative precision of its own
        np.testing.assert_allclose(out, oracle, rtol=1e-12,
                                   atol=1e-12 * np.abs(oracle).max())

    def test_one_token_sentence_is_its_word_feature(self):
        m = hkse.build_map("rbf", "lin", 1.0, 1.0, 37, 0, 5, seed=3)
        a = np.random.default_rng(8).standard_normal(5)
        assert np.array_equal(hkse.embed_sentence(m, [a]),
                              hkse.word_feature(m, a))

    def test_block_rows_is_a_multiple_of_8(self):
        assert BLOCK % 8 == 0

    def test_token_vectors_shape_checked(self):
        m = hkse.build_map("rbf", "rbf", 1.0, 1.0, 8, 8, 3, seed=0)
        with pytest.raises(ValueError, match="shape"):
            hkse.embed_sentence(m, [np.zeros(4)])

    def test_oov_token_rejected(self):
        table = io.EmbeddingTable(("a",), np.ones((1, 2)))
        corpus = io.SentenceCorpus((("a", "zebra"),))
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 2, seed=0)
        with pytest.raises(io.DataFormatError, match="zebra"):
            embed_corpus(m, corpus, table)

    def test_blocks_checked_before_they_are_drawn(self):
        table = io.EmbeddingTable(("a",), np.ones((1, 2)))
        m = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 2, seed=0)
        with pytest.raises(io.DataFormatError, match="zebra"):
            hkse.embed_blocks([m], io.SentenceCorpus((("a", "zebra"),)),
                              table)
        m3 = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 3, seed=0)
        with pytest.raises(ValueError, match="3-dim words, table has 2"):
            hkse.embed_blocks([m3], io.SentenceCorpus((("a",),)), table)

    def test_blocks_are_the_corpus_rows(self):
        # 130 sentences: blocks of 64, 64 and 2 rows, each map's columns
        # side by side
        rng = np.random.default_rng(21)
        table = io.EmbeddingTable(tuple(f"w{i}" for i in range(40)),
                                  rng.standard_normal((40, 6)))
        corpus = io.SentenceCorpus(tuple(
            tuple(f"w{i}" for i in rng.integers(40, size=int(k)))
            for k in rng.integers(1, 9, size=130)))
        maps = [hkse.build_map("rbf", "rbf", 0.5, 0.2, 16, 12, 6, seed=4),
                hkse.build_map("lin", "rbf", 0.5, 0.2, 0, 9, 6, seed=4,
                               stream=1)]
        blocks = [b.copy() for b in hkse.embed_blocks(maps, corpus, table)]
        assert [b.shape for b in blocks] == [(64, 21), (64, 21), (2, 21)]
        rows = np.vstack(blocks)
        assert np.array_equal(rows,
                              embed_corpus(maps, corpus, table).values)
        for col, m in ((0, maps[0]), (12, maps[1])):
            assert np.array_equal(rows[:, col:col + m.output_dim],
                                  embed_corpus(m, corpus, table).values)


class TestBandwidthOracle:
    @settings(max_examples=90, deadline=None)
    @given(n=st.integers(2, 60), d=st.integers(1, 4),
           grid=st.booleans(), duplicates=st.integers(0, 10),
           extra=st.integers(-1, 5), seed=st.integers(0, 2**32 - 1))
    def test_equals_sorting_oracle(self, n, d, grid, duplicates, extra,
                                   seed):
        rng = np.random.default_rng(seed)
        # half-integer grids give many tied distances; copied rows give zeros
        values = (rng.integers(-2, 3, size=(n, d)) * 0.5 if grid
                  else rng.standard_normal((n, d)))
        copies = rng.integers(n, size=(duplicates, 2))
        values[copies[:, 0]] = values[copies[:, 1]]
        table = io.EmbeddingTable(tuple(f"w{i}" for i in range(n)), values)
        sample_size = max(2, n + extra if extra >= 0 else n // 2)
        expected = bandwidth_sorted(table, sample_size, seed)
        if expected == np.inf:
            with pytest.raises(ValueError, match="zero"):
                hkse.bandwidth_heuristic(table, sample_size, seed)
        else:
            assert hkse.bandwidth_heuristic(table, sample_size,
                                            seed) == expected

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("d", [1, 40, 300])
    @pytest.mark.parametrize("n", [191, 192, 193, 384, 385, 577, 1000])
    def test_across_row_blocks(self, n, d, grid):
        # one, two and several 192-row blocks of the packed triangle, the
        # tail block taking the remainder; a drawn sample, or the whole
        # table of a half-integer grid with copied rows
        rng = np.random.default_rng(1000 * n + d)
        if grid:
            values = rng.integers(-2, 3, size=(n, d)) * 0.5
            copies = rng.integers(n, size=(n // 10, 2))
            values[copies[:, 0]] = values[copies[:, 1]]
        else:
            values = rng.standard_normal((n + 9, d))
        table = io.EmbeddingTable(tuple(f"w{i}" for i in range(len(values))),
                                  values)
        expected = bandwidth_sorted(table, n, seed=d)
        assert expected != np.inf
        assert hkse.bandwidth_heuristic(table, n, seed=d) == expected

    def test_across_row_blocks_two_blas_threads(self, tmp_path):
        proc = run_under_two_blas_threads(
            tmp_path, "TestBandwidthOracle::test_across_row_blocks")
        assert proc.returncode == 0, proc.stdout[-3000:]
        assert "42 passed" in proc.stdout


class TestMapArchive:
    def test_single_map_round_trip(self, tmp_path):
        m = hkse.build_map("rbf", "rbf", 1.3, 0.01, 16, 24, 5, seed=9)
        path = tmp_path / "map.arc"
        io.save_archive(hkse.maps_to_archive(m), path)
        loaded, = hkse.maps_from_archive(io.load_archive(path))
        assert (loaded.word_variant, loaded.sent_variant) == ("rbf", "rbf")
        assert loaded.gamma == m.gamma and loaded.eta == m.eta
        np.testing.assert_array_equal(loaded.w_word, m.w_word)
        np.testing.assert_array_equal(loaded.b_word, m.b_word)
        np.testing.assert_array_equal(loaded.w_sent, m.w_sent)
        np.testing.assert_array_equal(loaded.b_sent, m.b_sent)

    def test_pinned_blob_names(self, tmp_path):
        m = hkse.build_map("rbf", "rbf", 1.0, 1.0, 4, 4, 2, seed=0)
        archive = hkse.maps_to_archive(m)
        assert set(archive.blobs) == {"W_WORD", "B_WORD", "W_SENT", "B_SENT"}

    def test_concat_round_trip(self, tmp_path):
        a = hkse.build_map("lin", "rbf", 1.0, 0.1, 0, 8, 3, seed=2)
        b = hkse.build_map("rbf", "rbf", 2.0, 0.1, 4, 8, 3, seed=2, stream=1)
        path = tmp_path / "maps.arc"
        io.save_archive(hkse.maps_to_archive([a, b]), path)
        la, lb = hkse.maps_from_archive(io.load_archive(path))
        assert la.word_variant == "lin" and lb.word_variant == "rbf"
        np.testing.assert_array_equal(lb.w_word, b.w_word)
        np.testing.assert_array_equal(la.w_sent, a.w_sent)
