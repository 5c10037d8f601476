"""Airy function Ai and its derivative, from `scipy.special.airy`."""

from __future__ import annotations

import numpy as np
import scipy.special


def airy_ai(x):
    """Ai(x); a scalar gives a float, an array an array."""
    ai = scipy.special.airy(x)[0]
    return float(ai) if np.ndim(ai) == 0 else ai


def airy_ai_prime(x):
    """Ai'(x); a scalar gives a float, an array an array."""
    aip = scipy.special.airy(x)[1]
    return float(aip) if np.ndim(aip) == 0 else aip
