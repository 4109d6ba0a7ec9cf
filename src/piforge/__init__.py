"""piforge: arbitrary-precision singular moduli, the elliptic alpha function,
and machine construction plus digit-level verification of Ramanujan-type
series for 1/pi^(2*nu).
"""

from .bigreal import BigReal, as_fraction, decimal_digits, pi_bits
from .elliptic import (ModulusContext, agm, dk_dk, ell_e, ell_k, eta_f, nome,
                       singular_modulus, theta2, theta3, theta4)
from .errors import (DegenerateSystemError, DomainError,
                     InsufficientPrecisionError, NonConvergentSeriesError,
                     PiforgeError, RootSelectionError, VerificationError)
from .alpha import (AlphaValue, alpha_25r, alpha_4r, alpha_9r, alpha_direct,
                    eisenstein_p, multiplier, multiplier_quintic_residual, t5_closed_form,
                    t5_eta_form, t5_rr_form, t_sum, triple_modulus_quartic_root)
from .rr import (RRValue, a_r_algebraic, multiplier5_algebraic,
                 rr_convergents, rr_eval, y_value)
from .symbolic import (CoefficientSolution, derivative_stack, diff_u,
                       solve_coefficients, substitute_alpha)
from .series import (SeriesSpec, VerificationReport,
                     bracket_from_a, build_series, cp, evaluate,
                     from_json, stirling_first, to_json, verify)
from .catalog import (PUBLISHED_SERIES, PublishedSeries, QuadSurd,
                      published_by_label, r68_identity_residual,
                      replay_published, y_closed_form, y_table_residuals)

__version__ = "0.1.0"
