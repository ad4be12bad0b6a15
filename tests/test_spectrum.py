"""Spectrum validation, sampler moments, and seeding utilities."""

import numpy as np
import pytest

from oja_diffusion import (
    chain_rng,
    make_spectrum,
    random_rotation,
    sample_bounded,
    sample_gaussian,
)
from oja_diffusion.spectrum import (MAX_SEED, SAMPLERS, _axis_draws, _axis_uniforms,
                                    derive_seed, get_sampler)


def test_make_spectrum_fields():
    sp = make_spectrum([2.0, 1.0])
    assert sp.d == 2
    assert sp.gap == 1.0
    assert sp.trace == 3.0
    assert sp.sample_bound == 3.0
    np.testing.assert_array_equal(sp.tail(), [1.0])

    sp = make_spectrum([2.0, 1.5, 1.0, 0.5])
    assert sp.gap == 0.5
    assert sp.trace == 5.0
    np.testing.assert_array_equal(sp.tail(), [1.5, 1.0, 0.5])


def test_make_spectrum_rejects_bad_input():
    with pytest.raises(ValueError, match="d >= 2"):
        make_spectrum([1.0])
    with pytest.raises(ValueError, match=r"eigenvalues must be a finite number in \(0, inf\)"):
        make_spectrum([2.0, 0.0])
    with pytest.raises(ValueError, match=r"eigenvalues must be a finite number in \(0, inf\)"):
        make_spectrum([2.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        make_spectrum([np.inf, 1.0])
    with pytest.raises(ValueError, match="eigengap"):
        make_spectrum([1.0, 1.0])
    with pytest.raises(ValueError, match="nonincreasing"):
        make_spectrum([3.0, 1.0, 2.0])


def test_spectrum_is_immutable():
    sp = make_spectrum([2.0, 1.0])
    with pytest.raises(ValueError):
        sp.lambdas[0] = 5.0


def test_bounded_sample_norm_is_constant():
    # Every draw is +/- sqrt(tr) e_i, so the squared norm equals the one
    # float constant (sqrt(tr))**2, which for these traces is <= tr.
    for lambdas in ([2.0, 1.0], [2.0, 1.2, 0.5]):
        sp = make_spectrum(lambdas)
        y = sample_bounded(sp, chain_rng(7, 0), 4000)
        norms2 = np.sum(y * y, axis=1)
        const = np.sqrt(sp.trace) ** 2
        assert np.all(norms2 == const)
        assert const <= sp.trace
        # exactly one nonzero coordinate per draw
        assert np.all(np.sum(y != 0.0, axis=1) == 1)


def test_bounded_sample_frequencies():
    sp = make_spectrum([2.0, 1.0])
    n = 200_000
    y = sample_bounded(sp, chain_rng(11, 0), n)
    p_hat = np.mean(y[:, 0] != 0.0)
    p = 2.0 / 3.0
    se = np.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) < 4 * se
    # signs are a fair coin
    s_hat = np.mean(y[y != 0.0] > 0)
    assert abs(s_hat - 0.5) < 4 * np.sqrt(0.25 / n)
    # second moment reproduces the spectrum; off-diagonal products vanish
    # identically because coordinates are never simultaneously nonzero
    m2 = y.T @ y / n
    assert m2[0, 1] == 0.0 and m2[1, 0] == 0.0
    assert abs(m2[0, 0] - 2.0) < 4 * sp.trace * se
    assert abs(m2[1, 1] - 1.0) < 4 * sp.trace * se


def test_bounded_fourth_moment_degenerate():
    # E[Y_1^2 Y_2^2] = 0 for the atomic stream: this is the structural reason
    # the bounded sampler cannot feed the local diffusion limit.
    sp = make_spectrum([2.0, 1.0, 1.0])
    y = sample_bounded(sp, chain_rng(13, 0), 50_000)
    assert np.all(y[:, 0] ** 2 * y[:, 1] ** 2 == 0.0)


def test_gaussian_sample_moments():
    sp = make_spectrum([2.0, 1.0])
    n = 1_000_000
    y = sample_gaussian(sp, chain_rng(17, 0), n)
    for i, lam in enumerate([2.0, 1.0]):
        assert abs(np.mean(y[:, i])) < 4 * np.sqrt(lam / n)
        # sample variance of N(0, lam) has sd ~ lam * sqrt(2/n)
        assert abs(np.var(y[:, i]) - lam) < 4 * lam * np.sqrt(2.0 / n)
    # cross fourth moment E[Y_1^2 Y_2^2] = lam1*lam2; its estimator has
    # variance (9-1)*(lam1*lam2)^2 / n for independent gaussians
    cross = np.mean(y[:, 0] ** 2 * y[:, 1] ** 2)
    assert abs(cross - 2.0) < 4 * 2.0 * np.sqrt(8.0 / n)


def test_single_draw_equals_first_block_row():
    sp = make_spectrum([2.0, 1.2, 0.5])
    one = sample_bounded(sp, chain_rng(3, 0))
    row = sample_bounded(sp, chain_rng(3, 0), 5)[0]
    np.testing.assert_array_equal(one, row)
    one = sample_gaussian(sp, chain_rng(3, 0))
    row = sample_gaussian(sp, chain_rng(3, 0), 5)[0]
    np.testing.assert_array_equal(one, row)


@pytest.mark.parametrize("n", [1, 7, 1024])
def test_axis_draws_match_generator_choice(n):
    # The bounded stream's axis draw is Generator.choice with p = lambda / tr,
    # minus the per-call checks: the same indices and the same generator state.
    sp = make_spectrum([5.0, 4.0, 3.0, 2.0, 1.0])
    for seed in range(5):
        rng, ref = chain_rng(seed, 0), chain_rng(seed, 0)
        idx, signs = _axis_draws(sp, rng, n)
        expected = ref.choice(sp.d, size=n, p=sp.lambdas / sp.trace)
        np.testing.assert_array_equal(idx, expected)
        assert idx.dtype == expected.dtype
        np.testing.assert_array_equal(signs, ref.integers(0, 2, size=n) * 2 - 1)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [1, 7, 1024])
def test_skipped_signs_leave_the_stream_where_drawn_signs_do(n):
    # The bounded kernel skips each block's signs instead of drawing them; the
    # generator must then go on exactly as after sample_bounded's block.
    sp = make_spectrum([5.0, 4.0, 3.0, 2.0, 1.0])
    rng, ref = chain_rng(9, 0), chain_rng(9, 0)
    u = np.empty(n)
    for _ in range(3):
        _axis_uniforms(rng, u, signs=False)
        idx, _ = _axis_draws(sp, ref, n)
        np.testing.assert_array_equal(sp._axis_cdf.searchsorted(u, side="right"), idx)
    # Only the spare 32-bit half kept for the next 32-bit draw may differ, and
    # only while none is held, when it is never read.
    state, expected = rng.bit_generator.state, ref.bit_generator.state
    np.testing.assert_array_equal(state["state"]["counter"], expected["state"]["counter"])
    np.testing.assert_array_equal(state["buffer"], expected["buffer"])
    assert (state["buffer_pos"], state["has_uint32"]) == (expected["buffer_pos"],
                                                           expected["has_uint32"])
    assert not state["has_uint32"] or state["uinteger"] == expected["uinteger"]
    np.testing.assert_array_equal(rng.integers(0, 2, size=9), ref.integers(0, 2, size=9))
    assert rng.random() == ref.random()


def test_get_sampler():
    assert get_sampler("bounded") is sample_bounded
    assert get_sampler("gaussian") is sample_gaussian
    assert set(SAMPLERS) == {"bounded", "gaussian"}
    with pytest.raises(ValueError, match="unknown sampler"):
        get_sampler("cauchy")


def test_random_rotation_is_special_orthogonal():
    for d in (2, 3, 7):
        q = random_rotation(d, chain_rng(5, d))
        np.testing.assert_allclose(q @ q.T, np.eye(d), atol=1e-12)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        random_rotation(0, chain_rng(5, 0))


def test_chain_rng_streams():
    a = chain_rng(42, 0).random(8)
    b = chain_rng(42, 0).random(8)
    c = chain_rng(42, 1).random(8)
    d = chain_rng(43, 0).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_seed():
    s = derive_seed(42, 3)
    assert s == derive_seed(42, 3)
    assert 0 <= s <= MAX_SEED
    seen = {derive_seed(42, i) for i in range(100)}
    assert len(seen) == 100
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


def test_seed_validation():
    for bad in (-1, MAX_SEED + 1, 0.5):
        with pytest.raises(ValueError, match="seed"):
            chain_rng(bad, 0)
