import contextlib
import signal

import mpmath
import pytest
from mpmath import mp


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


def mpf_at(x, prec):
    with mp.workprec(prec):
        return mpmath.mpf(x)


def as_mpf(x):
    """Unwrap a BigReal (or pass an mpf through)."""
    return getattr(x, "value", x)


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
