"""Derive the integer P-recurrences that fill ``piforge.series``'s coefficient store.

Run from the repository root (it needs sympy, which the ``[test]`` extra
installs):

    python3 tools/derive_recurrences.py [p ...]

For each even p given (default 2, 4 and 6) it guesses the recurrence

    sum_{i=0}^{p} P_i(m) N_p(m + i) = 0,    deg P_i <= 2p + 1,

satisfied by N_p(n) = 64^n c_p(n), and prints it with N_p(0..p-1) in the
layout of ``series._RECURRENCES``. The values come from J.C.P. Miller's
recurrence for the powers of a power series (Knuth, *TAOCP* vol. 2, sec. 4.7)
applied to C(2n,n)^3, not from the store the tables fill.

The guess is linear algebra modulo 62-bit primes (Kauers, *The Guessing
Handbook*, 2009), taken downwards from 2^62 by ``sympy.prevprime``: one
equation per m in the unknown coefficients of the P_i, more equations than
unknowns. Its null space must have dimension 1 at degree 2p + 1 and 0 at
degree 2p, so the recurrence of order p is unique up to scale and of least
degree. The vector is scaled so that the m^(2p+1) coefficient
of P_p is 1, then lifted by the Chinese remainder theorem and rational
reconstruction, one more prime at a time, until two successive lifts agree.
Denominators and the content are cleared, and the integer recurrence is
checked exactly against every value used.
"""

from __future__ import annotations

import sys
import textwrap
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import mul

from sympy import prevprime


def miller(p: int, n: int) -> list[int]:
    """N_p(0..n) from N_1(m) = C(2m,m)^3 by m N_p(m) = sum_k ((p+1)k - m) N_1(k) N_p(m-k)."""
    base = [comb(2 * m, m) ** 3 for m in range(n + 1)]
    table = [1]
    for m in range(1, n + 1):
        weighted = map(mul, range(p + 1 - m, p * m + 1, p + 1), base[1:m + 1])
        table.append(sum(map(mul, weighted, table[m - 1::-1])) // m)
    return table


def _null_space(rows: list[list[int]], q: int) -> list[list[int]]:
    """A basis of the null space of ``rows`` modulo the prime q, by reduction to
    row echelon form and back substitution; each basis vector has 1 at one
    free column and 0 at the others."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
    echelon = {}
    for col in range(width):
        at = next((i for i, r in enumerate(rows) if r[col]), None)
        if at is None:
            continue
        row = rows.pop(at)
        inv = pow(row[col], -1, q)
        row = [v * inv % q for v in row]
        for r in rows:
            if r[col]:
                f = r[col]
                r[col:] = [(a - f * b) % q for a, b in zip(r[col:], row[col:])]
        echelon[col] = row
    basis = []
    for free in (c for c in range(width) if c not in echelon):
        vec = [0] * width
        vec[free] = 1
        for col in sorted(echelon, reverse=True):
            row = echelon[col]
            vec[col] = -sum(row[c] * vec[c] for c in range(col + 1, width)) % q
        basis.append(vec)
    return basis


def _equations(values: list[int], order: int, degree: int, q: int) -> list[list[int]]:
    """One row per m: the coefficient of each unknown a_{i,j} (i-major, j ascending)
    in sum_i sum_j a_{i,j} m^j N(m+i), modulo q."""
    return [[pow(m, j, q) * values[m + i] % q
             for i in range(order + 1) for j in range(degree + 1)]
            for m in range(len(values) - order)]


def _rational(a: int, modulus: int) -> Fraction | None:
    """The fraction n/d = a mod ``modulus`` with |n|, d <= sqrt(modulus/2), if there is one."""
    bound = isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, a % modulus, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def guess(p: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(N_p(0..p-1), (P_0, ..., P_p)) for even p >= 2, each P_i its integer
    coefficients by ascending power of m, primitive, with P_p's top coefficient positive."""
    order, degree = p, 2 * p + 1
    unknowns = (order + 1) * (degree + 1)
    values = miller(p, unknowns + 16 + order)
    q = prevprime(1 << 62)
    if _null_space(_equations(values, order, degree - 1, q), q):
        raise ArithmeticError(f"p={p}: a recurrence of degree {degree - 1} exists")
    modulus, lifted, previous = 1, [0] * unknowns, None
    while True:
        basis = _null_space(_equations(values, order, degree, q), q)
        if len(basis) != 1 or basis[0][-1] != 1:
            raise ArithmeticError(f"p={p}: null space of dimension {len(basis)} modulo {q}")
        lifted = [(x + modulus * ((v - x) * pow(modulus, -1, q) % q))
                  for x, v in zip(lifted, basis[0])]
        modulus *= q
        current = [_rational(x, modulus) for x in lifted]
        if None not in current and current == previous:
            break
        previous, q = current, prevprime(q)
    scale = lcm(*(f.denominator for f in current))
    ints = [int(f * scale) for f in current]
    content = gcd(*ints)
    ints = [v // content for v in ints]
    polys = tuple(tuple(ints[i * (degree + 1):(i + 1) * (degree + 1)]) for i in range(order + 1))
    for m in range(len(values) - order):
        if sum(sum(c * m ** j for j, c in enumerate(poly)) * values[m + i]
               for i, poly in enumerate(polys)):
            raise ArithmeticError(f"p={p}: the recurrence fails at m={m}")
    return tuple(values[:p]), polys


def main(argv: list[str]) -> None:
    print("_RECURRENCES = {")
    for p in map(int, argv or ["2", "4", "6"]):
        initial, polys = guess(p)
        print(f"    {p}: ({initial}, (")
        for poly in polys:
            print("\n".join(textwrap.wrap(f"{poly},", 99, initial_indent=" " * 8,
                                         subsequent_indent=" " * 9)))
        print("    )),")
    print("}")


if __name__ == "__main__":
    main(sys.argv[1:])
