"""Rogers-Ramanujan continued fraction, the A quantity, and the Y table.

Run:  python demos/04_rogers_ramanujan.py
"""

from fractions import Fraction

from piforge import (a_r_algebraic, nome, r68_identity_residual,
                     rr_convergents, rr_eval, y_closed_form, y_value)
from piforge.catalog import Y_CLOSED_FORMS

PREC = 256

print("== R(q) by theta series and by literal continued fraction ==")
q = nome(1, PREC)
by_theta = rr_eval(q, PREC).R
by_cf = rr_convergents(q, PREC)
print(f"R(e^-pi)  theta       = {by_theta.to_decimal(45)}")
print(f"R(e^-pi)  convergents = {by_cf.to_decimal(45)}")

rr = rr_eval(q * q, PREC)
print(f"\nR(e^-2pi)             = {rr.R.to_decimal(45)}")
print(f"A = R^-5 - 11 - R^5   = {rr.A.to_decimal(45)}")

print("\n== A from singular moduli alone (degree-5 route) ==")
for r in (1, 2):
    alg = a_r_algebraic(r, PREC)
    direct = rr_eval(nome(r, PREC) ** 2, PREC).A
    print(f"r={r}: |algebraic - theta| = {float(abs((alg - direct).value)):.3e}")

print("\n== the Y table against its closed forms ==")
for s, *_ in Y_CLOSED_FORMS:
    got = y_value(s, PREC)
    resid = abs((got - y_closed_form(s, PREC)).value)
    print(f"Y({str(s):>4}) = {got.to_decimal(30):<36} residual {float(resid):.1e}")

print("\n== composite argument 68/5 = 4 * 17/5 ==")
print(f"Y(68/5) = {y_value(Fraction(68, 5), PREC).to_decimal(30)}")
print(f"factorization identity residual: {float(r68_identity_residual(PREC).value):.3e}")
