"""Exact rational values and their canonical text form.

Rationals are stdlib ``fractions.Fraction``: arbitrary precision, always in
lowest terms with positive denominator.  Exact invariant values and target
table entries are the exception: ``exact`` makes each an ``int`` when it is
integral (most of them are) and a ``Fraction`` otherwise.  Both have ``numerator`` and
``denominator``, and an integral value then costs one ``divmod`` to make and
no Python-level property to read.  ``parse_rational`` still returns a
``Fraction``.  The wire format is the decimal string ``p/q`` (or just ``p``
when q = 1), no whitespace; round trips are bit-exact.

Python refuses to convert an integer of more than 4,300 decimal digits to or
from a string (``sys.get_int_max_str_digits``).  Rather than raise that
interpreter-wide limit, longer integers are split at a power of ten, so that
every single conversion stays under 640 digits, the least value the limit
can be set to.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

# ASCII digits only, matched against the whole text (no trailing newline).
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")

_CHUNK_DIGITS = 600
_CHUNK = 10 ** 572  # an int below this in absolute value has at most 572 digits


def _int_to_decimal(n: int) -> str:
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + _int_to_decimal(-n)
    # Split near half the digit count (log10(2) ~ 0.30103).
    k = n.bit_length() * 30103 // 200000
    hi, lo = divmod(n, 10 ** k)
    return _int_to_decimal(hi) + _int_to_decimal(lo).rjust(k, "0")


def _decimal_to_int(text: str) -> int:
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    if text.startswith("-"):
        return -_decimal_to_int(text[1:])
    k = len(text) // 2
    return _decimal_to_int(text[:-k]) * 10 ** k + _decimal_to_int(text[-k:])


def exact(num: int, den: int) -> int | Fraction:
    """num / den as an ``int`` when it is integral, else as a ``Fraction``.

    The one rule for exact invariant values: equal to ``Fraction(num, den)``
    for a ``den`` of either sign, and never a ``float``.
    """
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def exact_value(value: int | Fraction) -> int | Fraction:
    """``value`` by the rule of ``exact``: an ``int`` when integral, else a ``Fraction``."""
    return exact(value.numerator, value.denominator)


def format_rational(value: int | Fraction) -> str:
    """Render a Fraction or an int as ``p/q`` or ``p`` (lowest terms, no spaces)."""
    if value.denominator == 1:
        return _int_to_decimal(value.numerator)
    return f"{_int_to_decimal(value.numerator)}/{_int_to_decimal(value.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Parse the ``p/q`` wire format; reject anything else."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    num = _decimal_to_int(m.group(1))
    den = _decimal_to_int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)
