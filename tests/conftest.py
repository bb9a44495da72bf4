import numpy as np
import pytest

from orthopair import config, continuation


@pytest.fixture(scope="session")
def base_pair():
    """The swapped standard pair at n = 6 (the certified base point)."""
    return config.standard_pair(6, swap34=True)


@pytest.fixture(scope="session")
def standard6():
    return config.standard_pair(6)


@pytest.fixture(scope="session")
def fourier6():
    return config.fourier_phases(6)


@pytest.fixture(scope="session")
def fourier6_swapped():
    return config.fourier_phases(6, swap34=True)


@pytest.fixture(scope="session")
def family_sample(fourier6_swapped):
    """Shared random-walk sample used by invariant/identity/complement tests."""
    return continuation.sample_family(fourier6_swapped, count=40, seed=20240211)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_invertible(rng, n, spread=0.3):
    h = np.eye(n) + spread * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if np.linalg.cond(h) > 1e3:
        return random_invertible(rng, n, spread)
    return h


def conjugated_hermitian_pair(rng, h):
    """Two random orthonormal bases as rank-1 projectors, conjugated by h.

    The membership conjugator of the result is h^-dag h^-1 up to scale, so a
    diagonal h sets its eigenvalues.
    """
    n = h.shape[0]
    hinv = np.linalg.inv(h)

    def system():
        return [h @ np.outer(v, v.conj()) @ hinv for v in random_unitary(rng, n).T]

    return config.pair_from_matrices(system(), system())
