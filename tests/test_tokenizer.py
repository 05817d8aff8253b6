import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentpde import (GridSpec, ParameterError, build_histories,
                       build_reconstruction_pairs, build_tokenizer_matrix,
                       sliding_histories, tokenize_trajectory)


def test_patch_means_by_hand():
    state = np.arange(16.0).reshape(4, 4)
    tok = tokenize_trajectory(state[None], 2)[0]
    expected = np.array([
        np.mean([0, 1, 4, 5]), np.mean([2, 3, 6, 7]),
        np.mean([8, 9, 12, 13]), np.mean([10, 11, 14, 15]),
    ])
    np.testing.assert_allclose(tok, expected)
    assert tok.shape == (4,)


def test_matches_matrix_form():
    rng = np.random.default_rng(0)
    for n, patch in [(8, 2), (8, 4), (12, 3), (16, 16)]:
        state = rng.standard_normal((n, n))
        h = build_tokenizer_matrix(GridSpec(n=n), patch)
        np.testing.assert_allclose(tokenize_trajectory(state[None], patch)[0], h @ state.ravel(),
                                   atol=1e-14)


def test_wave_state_uses_amplitude_only():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((8, 8))
    v = rng.standard_normal((8, 8))
    np.testing.assert_array_equal(tokenize_trajectory(np.stack([u, v])[None], 4)[0],
                                  tokenize_trajectory(u[None], 4)[0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_linearity(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 8, 8))
    c = rng.standard_normal()
    lhs = tokenize_trajectory((a + c * b)[None], 4)[0]
    rhs = tokenize_trajectory(a[None], 4)[0] + c * tokenize_trajectory(b[None], 4)[0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_constant_field_preserved():
    np.testing.assert_allclose(tokenize_trajectory(np.full((1, 12, 12), 3.5), 3)[0], 3.5)


def test_validation():
    with pytest.raises(ParameterError):
        tokenize_trajectory(np.ones((1, 8, 8)), 3)
    with pytest.raises(ParameterError):
        tokenize_trajectory(np.ones((1, 8, 8)), 0)
    with pytest.raises(ParameterError):
        tokenize_trajectory(np.ones((1, 8, 7)), 2)
    with pytest.raises(ParameterError):
        tokenize_trajectory(np.ones((5, 3, 8, 8)), 2)


def test_trajectory_tokenization_shapes():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((5, 8, 8))
    toks = tokenize_trajectory(frames, 4)
    assert toks.shape == (5, 4)
    np.testing.assert_array_equal(toks[3], tokenize_trajectory(frames[3][None], 4)[0])
    wave = rng.standard_normal((5, 2, 8, 8))
    np.testing.assert_array_equal(tokenize_trajectory(wave, 4),
                                  tokenize_trajectory(wave[:, 0], 4))


def test_line_frames_are_means_over_runs_of_sites():
    frames = np.random.default_rng(7).standard_normal((6, 40))
    tokens = tokenize_trajectory(frames, 4)
    expected = frames.reshape(6, 10, 4).mean(axis=2)
    assert tokens.shape == expected.shape and tokens.tobytes() == expected.tobytes()
    # a non-square lattice, a lone frame, a patch that does not divide N
    for bad, patch in ((np.ones((5, 8, 6)), 2), (np.ones(40), 4), (frames, 3)):
        with pytest.raises(ParameterError):
            tokenize_trajectory(bad, patch)


def test_sliding_histories():
    tokens = np.arange(12.0).reshape(6, 2)
    hist = sliding_histories(tokens, 3)
    assert hist.shape == (4, 3, 2)
    np.testing.assert_array_equal(hist[0], tokens[0:3])
    np.testing.assert_array_equal(hist[3], tokens[3:6])
    hist[0, 0, 0] = -99.0
    assert tokens[0, 0] == 0.0  # writable copy, not a view


def test_build_histories_alignment():
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((10, 8, 8))
    tokens = tokenize_trajectory(frames, 4)
    hist, tok_targets = build_histories(frames, k=3, patch=4)
    assert hist.shape == (7, 3, 4)
    assert tok_targets.shape == (7, 4)
    # sample s uses token frames s..s+k-1 to predict frame s+k
    for s in (0, 4, 6):
        np.testing.assert_array_equal(hist[s], tokens[s:s + 3])
        np.testing.assert_array_equal(tok_targets[s], tokens[s + 3])
        np.testing.assert_array_equal(tok_targets[s],
                                      tokenize_trajectory(frames[s + 3][None], 4)[0])


def test_build_histories_edge_counts():
    frames = np.random.default_rng(4).standard_normal((4, 4, 4))
    hist, tok_targets = build_histories(frames, k=3, patch=2)
    assert hist.shape[0] == 1 and tok_targets.shape[0] == 1
    with pytest.raises(ParameterError):
        build_histories(frames, k=4, patch=2)


def test_reconstruction_pairs_alignment():
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((6, 8, 8))
    tokens = tokenize_trajectory(frames, 4)
    hist, targets = build_reconstruction_pairs(frames, k=2, patch=4)
    assert hist.shape == (5, 2, 4)
    assert targets.shape == (5, 8, 8)
    # window ends at the frame being reconstructed
    for s in (0, 2, 4):
        np.testing.assert_array_equal(hist[s], tokens[s:s + 2])
        np.testing.assert_array_equal(targets[s], frames[s + 1])


def test_reconstruction_pairs_wave_targets_amplitude():
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((5, 2, 8, 8))
    hist, targets = build_reconstruction_pairs(frames, k=2, patch=4)
    assert targets.shape == (4, 8, 8)
    np.testing.assert_array_equal(targets[0], frames[1, 0])
