"""The elliptic alpha function and its reduction routes.

a(r) links E/K at a singular modulus to pi. Each reduction (4r, 9r, 25r)
is recomputed against direct evaluation; the whole point of the routes is
that the two ways agree to working precision.

Run:  python demos/02_alpha_reductions.py
"""

from piforge import (alpha_25r, alpha_4r, alpha_9r, alpha_direct, multiplier,
                     multiplier_quintic_residual, singular_modulus,
                     triple_modulus_quartic_root)

PREC = 256

print("== direct values with published closed forms ==")
for r, closed in ((1, "1/2"), (2, "sqrt(2)-1"), (7, "(sqrt(7)-2)/2"),
                  (15, "(sqrt(15)-sqrt(5)-1)/2")):
    a = alpha_direct(r, PREC)
    print(f"a({r:>2}) = {a.value.to_decimal(45)}   [= {closed}]")

print("\n== reduction routes vs direct ==")
for base_r, reducer, name in ((1, alpha_4r, "a(4)"), (2, alpha_4r, "a(8)"),
                              (1, alpha_9r, "a(9)"), (2, alpha_9r, "a(18)"),
                              (1, alpha_25r, "a(25)"), (2, alpha_25r, "a(50)")):
    via = reducer(alpha_direct(base_r, PREC))
    direct = alpha_direct(via.r, PREC)
    resid = abs((via.value - direct.value).value)
    print(f"{name:>6} via {via.route:<7} residual vs direct: {float(resid):.3e}")

print("\n== the degree-3 machinery behind a(9r) ==")
M = triple_modulus_quartic_root(1, PREC)
ctx1 = singular_modulus(1, PREC)
ctx9 = singular_modulus(9, PREC)
print(f"quartic root M          = {M.to_decimal(40)}")
print(f"K[9]/K[1]               = {(ctx9.big_k / ctx1.big_k).to_decimal(40)}")

print("\n== the degree-5 multiplier ==")
m5 = multiplier(5, 1, PREC)
print(f"m5 = K[1]/K[25]         = {m5.to_decimal(40)}")
resid = multiplier_quintic_residual(1, PREC)
print(f"modular quintic residual (at the inverse ratio): {float(abs(resid.value)):.3e}")
