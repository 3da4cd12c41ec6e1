"""Float comparison helpers -- the FLT01 allowlisted module.

Raw ``==`` on floats is banned in this codebase (sophon-lint FLT01):
simulated times, rates and efficiencies accumulate rounding error, so
equality tests flip on harmless re-orderings.  The two legitimate cases
get named helpers instead:

* :func:`is_exact_zero` -- intentional bit-exact zero tests, for sentinel
  values that are *assigned* (never computed), e.g. "corruption_rate was
  configured to 0" or "the MSE of two identical uint8 images".
* :func:`close` -- tolerance comparison for computed quantities.

:func:`checked` is the range check for configuration numbers: NaN passes
every ``<``/``<=`` comparison and ``inf`` passes most, so each bound is
checked together with finiteness.  :func:`flag_type` makes it the
argparse ``type=`` of a command-line number.
"""

import math
import numbers
from typing import Any, Callable, Optional


def is_exact_zero(value: float) -> bool:
    """True when *value* is exactly 0.0 (or -0.0).

    Use only for values that are assigned, not computed: configuration
    sentinels and error terms over integer inputs, where bit-exact zero is
    meaningful.  For computed quantities use :func:`close`.
    """
    return value == 0.0  # sophon-lint: disable=FLT01


def close(
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> bool:
    """Tolerance equality for computed floats (wraps :func:`math.isclose`)."""
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def checked(
    name: str, value: object, low: float, *,
    high: Optional[float] = None, open_low: bool = False, integral: bool = False,
) -> float:
    """``value`` if it is a finite number >= ``low``; ValueError if not.

    high: also require ``value <= high``.
    open_low: require ``value > low`` instead, for quantities that must be
        positive.
    integral: require an integer (``int`` or a numpy integer), for counts;
        the integer is returned.
    Bools are rejected either way: ``True`` is an int to Python, but never
    a meaningful core count, rate or duration.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if integral and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    number = int(value) if isinstance(value, numbers.Integral) else float(value)
    finite = isinstance(number, int) or math.isfinite(number)
    below = number <= low if open_low else number < low
    if not finite or below or (high is not None and number > high):
        bound = f"{'>' if open_low else '>='} {low}" + ("" if high is None else f" and <= {high}")
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return number


def flag_type(name: str, low: float, **bounds: Any) -> Callable[[str], float]:
    """An argparse ``type=``: parse a flag's text, then :func:`checked` it.

    ``bounds`` are :func:`checked`'s keywords.  The function is called
    ``name``, so a bad value exits 2 with argparse's ``invalid <name>
    value`` usage error, never a traceback.  Integral flags parse with
    ``int``, so ``"1.5"`` is refused too.
    """

    def parse(text: str) -> float:
        return checked(name, int(text) if bounds.get("integral") else float(text), low, **bounds)

    parse.__name__ = name
    return parse
