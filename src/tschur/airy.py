"""Airy function Ai and its derivative, from one `scipy.special.airy` call."""

from __future__ import annotations

import numpy as np
import scipy.special


def airy_ai(x):
    """(Ai(x), Ai'(x)); a scalar gives two floats, an array two arrays."""
    ai, aip, _, _ = scipy.special.airy(x)
    return (float(ai), float(aip)) if np.ndim(ai) == 0 else (ai, aip)
