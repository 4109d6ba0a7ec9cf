import contextlib
import signal

import mpmath
import pytest
from mpmath import mp

from piforge import alpha, bigreal, catalog, elliptic, identities, rr, series, symbolic


@pytest.fixture(autouse=True, scope="session")
def high_ambient_precision():
    """Raise the ambient mpmath precision for test-side arithmetic.

    Library code always pins its own working precision, but comparisons and
    oracle computations written directly in the tests would otherwise round
    at the 53-bit default.
    """
    saved = mp.prec
    mp.prec = 1536
    yield
    mp.prec = saved


def clear_caches():
    """Empty every piforge lru_cache, so the next call computes from scratch."""
    for mod in (bigreal, elliptic, alpha, rr, symbolic, series, catalog, identities):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and obj.__module__.startswith("piforge"):
                obj.cache_clear()


def base_modulus_alpha_4r(a_r):
    """The circulating a(4r) variant with k_r in place of k_4r,
    (1 + k_r)^2 a(r) - 2 sqrt(r) k_r, at prec + 16 bits and rounded to the
    precision of a(r). At r = 1 it misses the true a(4) by about 0.30."""
    prec = a_r.value.prec
    wprec = prec + 16
    k = elliptic.singular_modulus(a_r.r, wprec).k.value
    with mp.workprec(wprec):
        sr = bigreal.sqrt_mpf(bigreal.mpf_of(a_r.r, wprec))
        v = (1 + k) ** 2 * a_r.value.value - 2 * sr * k
    return bigreal.round_to(v, prec)


def tol_bits(prec, slack):
    """2^(-prec+slack) as an mpf comparison bound."""
    return mpmath.mpf(2) ** (-(prec - slack))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after ``seconds``, so a hang fails the test."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    saved = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, saved)


def ke_at_u(terms, u, prec, den=(1,)):
    """sum c_ij(u) K^i E^j / den(u) as an mpf, for terms = {(i, j): u-coefficients}.

    K and E are ``ell_k`` and ``ell_e`` at k = sqrt(u); u is anything
    ``BigReal.of`` takes, and the value is good to about 2^(-prec+8).
    """
    from piforge import BigReal, ell_e, ell_k

    ub = BigReal.of(u, prec + 16)
    k = ub.sqrt()
    big_k, big_e = ell_k(k, prec + 16).value, ell_e(k, prec + 16).value
    with mp.workprec(prec + 16):
        def at_u(cs):
            return sum((c * ub.value ** n for n, c in enumerate(cs)), mpmath.mpf(0))

        return sum((at_u(c) * big_k ** i * big_e ** j for (i, j), c in terms.items()),
                   mpmath.mpf(0)) / at_u(den)
