import numpy as np

from rank1spec import _kernels


def _random_inputs(n_terms=300, n_points=97, seed=3):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-50, 50, n_terms))
    c = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    z = rng.uniform(-60, 60, n_points) + 1j * rng.uniform(0.1, 3.0, n_points)
    return c, lam, z


def test_pole_sum_matches_python_loop():
    # the fused pair: sum c/(lam - z)**p and sum c/(lam - z)**(p + 1)
    c, lam, z = _random_inputs(n_terms=40, n_points=23, seed=4)
    for p in (1, 2, 3, 4):
        got = _kernels.pole_sum(c, lam, z, p)
        for j, zj in enumerate(z):
            for q, sums in ((p, got[0]), (p + 1, got[1])):
                ref = 0j
                for ck, lk in zip(c, lam):
                    ref += complex(ck) / (float(lk) - complex(zj)) ** q
                assert abs(sums[j] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_pow_one_equals_pole_sum():
    c, lam, z = _random_inputs(seed=5)
    for one, default in zip(_kernels.pole_sum(c, lam, z, 1), _kernels.pole_sum(c, lam, z)):
        assert np.array_equal(one, default)


def test_empty_terms_give_zero():
    c, lam, z = np.array([], dtype=complex), np.array([]), np.array([1.0 + 1.0j, 2.0])
    for p in (1, 2):
        for sums in _kernels.pole_sum(c, lam, z, p):
            assert len(sums) == 2 and np.all(sums == 0)


def test_single_term_hand_value():
    c, lam = np.array([2.0 + 0j]), np.array([1.0])
    assert [s[0] for s in _kernels.pole_sum(c, lam, 0.0)] == [2.0, 2.0]
    assert [s[0] for s in _kernels.pole_sum(c, lam, 0.5, 2)] == [8.0, 16.0]


def test_numpy_chunking_matches_unchunked():
    # force several chunks
    c, lam, z = _random_inputs(n_terms=64, n_points=400, seed=6)
    old = _kernels._CHUNK
    try:
        _kernels._CHUNK = 1000  # ~15 points per chunk
        chunked = _kernels.pole_sum(c, lam, z, 2)
    finally:
        _kernels._CHUNK = old
    full = _kernels.pole_sum(c, lam, z, 2)
    for a, b in zip(chunked, full):
        assert np.array_equal(a, b)
