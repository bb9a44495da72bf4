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


def count_spectral_norms(monkeypatch) -> list:
    """Record the shape of every spectral-norm (ord 2) call of np.linalg.norm,
    one SVD or one batched SVD each."""
    norm, calls = np.linalg.norm, []

    def counted(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


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


# u1 = U1_AFFINE[0] * 36 Tr(PQPQ) + U1_AFFINE[1] on the sandwich locus;
# u2 = U2_AFFINE[0] Tr(PQPQPQ) + U2_AFFINE[1] Tr(PQPQ) + U2_AFFINE[2].
# Values fixed by exact.fit_u1_constants / exact.fit_u2_constants.
U1_AFFINE = (0.5, -13.5)
U2_AFFINE = (72.0, -108.0, 54.0)


def u_array(vec):
    """(u1, u2, u3) of an InvariantVector as an array."""
    return np.array([vec.u1, vec.u2, vec.u3])


# The three involutions of a configuration, written against the package API
# for the property tests.


def sigma(P):
    """Complementary idempotent I - P; an exact involution."""
    P = np.asarray(P, dtype=np.complex128)
    return np.eye(P.shape[0], dtype=np.complex128) - P


def tau(c):
    """Exchange the two projector systems; the relation set is symmetric."""
    return config.PairConfiguration(c.n, c.q, c.p)


def theta(c):
    """Replace every projector by its adjoint (anti-holomorphic involution)."""
    return config.pair_from_matrices([p.conj().T for p in c.p], [q.conj().T for q in c.q])
