"""Known silently wrong values, each a strict xfail until its defect is mended.

Each case states the rule the library claims: a closed form returns a value
within its tolerance, or raises :class:`TruncationError`.  A case that starts
to pass fails the suite (strict), so its marker goes with the fix.
"""

import pytest

from skellam_lab.fractional import FracSkellamSpec, frac_skellam_pmf, frac_skellam_pmf_wright
from skellam_lab.special import TruncationError

_FOUND_81 = ("FOUND 81: the Wright form's outer stop judges the unscaled layers, "
             "and x1^n scales them past its rounding bound")


@pytest.mark.xfail(strict=True, reason=_FOUND_81)
@pytest.mark.parametrize("params, k", [
    ((10.0, 0.1, 0.9, 0.5), 26),  # returns 121352.7; the convolution gives 4.0e-4
    ((10.0, 0.1, 0.9, 0.9), 25),  # returns 204778.3; 7.5e-4
    ((3.0, 0.5, 0.9, 0.5), 20),  # returns 5.49e-6; 4.45e-9
    ((5.0, 0.1, 0.95, 0.9), 15),  # 3.4e-6 off
])
def test_wright_form_is_within_1e9_of_the_convolution_or_refuses(params, k):
    spec = FracSkellamSpec(*params)
    try:
        value = frac_skellam_pmf_wright(spec, 1.0, 1.0, k)
    except TruncationError:
        return
    assert abs(value - frac_skellam_pmf(spec, 1.0, 1.0, k)) <= 1e-9
