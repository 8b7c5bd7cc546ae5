"""Exact Gaussian-rational scalars.

Every number in the engine is re + im*i with re, im arbitrary-precision
rationals.  There is no float anywhere: equality of two scalars is a
theorem-grade statement, not a tolerance question.
"""
from __future__ import annotations

import re as _re
from fractions import Fraction

_FRACTION_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")


_F0 = Fraction(0)


class Scalar:
    """A Gaussian rational.  Immutable; denominators reduced and positive."""

    __slots__ = ("re", "im")

    def __init__(self, re=_F0, im=_F0):
        if type(re) is not Fraction:
            re = _F0 if type(re) is int and not re else Fraction(re)
        if type(im) is not Fraction:
            im = _F0 if type(im) is int and not im else Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar, (self.re, self.im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_scalar(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_scalar(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = as_scalar(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar(a * c)
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        if not other:
            raise ZeroDivisionError("scalar division by zero")
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            return Scalar(a / c, b / c)
        n = c * c + d * d
        return Scalar((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        if not self.im and isinstance(other, (int, Fraction)):
            return Scalar(other / self.re)  # real by real: one Fraction division
        return as_scalar(other) / self

    # -- structure ----------------------------------------------------------

    def conjugate(self):
        return Scalar(self.re, -self.im)

    @property
    def is_real(self):
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def _real_or_raise(self, op):
        if self.im:
            raise ValueError(f"{op} undefined for non-real scalar {self}")
        return self.re

    def __lt__(self, other):
        return self._real_or_raise("<") < as_scalar(other)._real_or_raise("<")

    def __le__(self, other):
        return self._real_or_raise("<=") <= as_scalar(other)._real_or_raise("<=")

    def __gt__(self, other):
        return as_scalar(other) < self

    def __ge__(self, other):
        return as_scalar(other) <= self

    # -- text ---------------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})" if self.im else f"Scalar({self.re!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def as_scalar(x):
    """Promote an int / Fraction / Scalar to Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot promote {type(x).__name__} to Scalar")


def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(z: Scalar) -> str:
    """Canonical text form: "p/q", or "p/q+r/si" when the imaginary part is nonzero."""
    if not z.im:
        return _format_fraction(z.re)
    im = _format_fraction(abs(z.im))
    sign = "+" if z.im > 0 else "-"
    if not z.re:
        return f"{sign if sign == '-' else ''}{im}i"
    return f"{_format_fraction(z.re)}{sign}{im}i"


def _parse_fraction(text: str) -> Fraction:
    if not _FRACTION_RE.match(text):
        raise ValueError(f"malformed rational {text!r}")
    if "/" in text and text.split("/")[1] == "0":
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(text)


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", "p/q+r/s i", "-i", "3i", ... into a Scalar."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    if not s.endswith("i"):
        return Scalar(_parse_fraction(s))
    body = s[:-1]
    # split an explicit real part from the imaginary coefficient
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            re_part, im_part = body[:pos], body[pos:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = _parse_fraction(im_part)
    re = _parse_fraction(re_part) if re_part else Fraction(0)
    return Scalar(re, im)
