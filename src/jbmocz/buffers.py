"""Checks of the caller-owned arrays a call writes into.

An `out=` parameter takes the array the call's result is written into, in
place of the array it would allocate, and the call returns it.  A `work=`
parameter takes a flat float64 array whose leading values the call uses
for its temporaries, in place of allocating them.  Either lets a caller
that repeats a call on stacks of one shape reuse its arrays.
"""

from __future__ import annotations

import numpy as np


def _writeable_contiguous(array, dtype) -> bool:
    return (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.flags.c_contiguous and array.flags.writeable)


def checked_out(out, shape, dtype=complex) -> np.ndarray:
    """`out`, if it is a writeable, C-contiguous array of this shape and
    dtype; ValueError naming `out` otherwise."""
    shape, dtype = tuple(shape), np.dtype(dtype)
    if not (_writeable_contiguous(out, dtype) and out.shape == shape):
        raise ValueError(f"out must be a writeable, C-contiguous {dtype} array of shape {shape}")
    return out


def work_values(work, size: int) -> np.ndarray:
    """The first `size` values of `work`, a writeable, C-contiguous float64
    array of at least that many values, as a flat view; ValueError naming
    `work` otherwise."""
    if not (_writeable_contiguous(work, np.float64) and work.size >= size):
        raise ValueError(f"work must be a writeable, C-contiguous float64 array of at least "
                         f"{size} values")
    return work.reshape(-1)[:size]
