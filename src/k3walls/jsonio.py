"""Deterministic serialization helpers.

Rationals travel as strings "p/q" in lowest terms with positive denominator.
Reports are dumped with sorted keys and fixed separators so byte-for-byte
golden comparisons are meaningful.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import DomainError


def frac_str(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer) with q > 0 after normalization."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            d = int(den)
            if d <= 0:
                raise ValueError("denominator must be positive")
            return Fraction(int(num), d)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}", code="bad_rational") from exc


def dumps_canonical(payload) -> str:
    """Stable JSON encoding: sorted keys, compact separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
