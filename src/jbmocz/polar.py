"""Polar coding with successive-cancellation decoding.

The code is constructed by the Bhattacharyya-parameter recursion and decoded
with min-sum successive cancellation.  LLRs follow the convention of the
zero-testing soft output: positive means bit 1.  A common positive scaling
of the LLRs does not change any decision.

The decoder walks the code tree by nodes, not leaves (simplified SC,
Alamdar-Yazdi & Kschischang 2011; Fast-SSC, Sarkis et al. 2014).  Three
kinds of node are decided without descending, each bit for bit as min-sum
SC decides them:

- Rate-0 (all bits frozen): every bit is 0.
- Rate-1 (no bit frozen): the codeword is the hard decision of the node
  LLRs, and the source bits its polar transform.  This is SC's decision
  only while no node LLR is 0 (or NaN); rows that hold one are decoded by
  splitting the node into two Rate-1 halves, which makes SC's check-node
  and bit-node combines, down to length 1, where the hard decision is SC's
  leaf decision.  SC decodes (0, 1) to x = (1, 1), not to (0, 1).
- Repetition (only the last bit free): the node LLRs are folded, right half
  plus left half, down to one sum, the additions SC makes in its order.

Single-parity-check nodes are not shortcut: their ML decision is not SC's.
The node plan is worked out once per frozen set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .buffers import work_values

DESIGN_EBN0_DB = 4.0  # the Eb/N0 at which polar_construct ranks the channels


@dataclass(frozen=True)
class PolarSpec:
    block_len: int
    info_len: int
    frozen: tuple

    def __post_init__(self):
        n = self.block_len
        if n < 1 or n & (n - 1):
            raise ValueError(f"block length must be a power of two, got {n}")
        if len(self.frozen) != n - self.info_len:
            raise ValueError("frozen set size must be block_len - info_len")
        if self.frozen and not (0 <= min(self.frozen) and max(self.frozen) < n):
            raise ValueError("frozen indices out of range")

    @property
    def info_positions(self) -> np.ndarray:
        mask = np.ones(self.block_len, dtype=bool)
        mask[list(self.frozen)] = False
        return np.nonzero(mask)[0]

    @property
    def frozen_mask(self) -> np.ndarray:
        mask = np.zeros(self.block_len, dtype=bool)
        mask[list(self.frozen)] = True
        return mask


def polar_construct(block_len: int, info_len: int) -> PolarSpec:
    """Freeze the block_len - info_len synthetic channels with the largest
    Bhattacharyya parameters at the design point DESIGN_EBN0_DB.

    The recursion starts from z = exp(-Eb/N0) and applies z -> 2z - z^2 for
    the degraded half and z -> z^2 for the upgraded half at each level.
    """
    n = block_len
    if n < 1 or n & (n - 1):
        raise ValueError(f"block length must be a power of two, got {n}")
    if not 0 <= info_len <= n:
        raise ValueError(f"info length {info_len} out of range for n={n}")
    z = np.array([np.exp(-(10.0 ** (DESIGN_EBN0_DB / 10.0)))])
    while len(z) < n:
        z = np.concatenate([2.0 * z - z * z, z * z])
    # freeze the worst channels; ties resolve toward lower indices
    order = np.lexsort((np.arange(n), -z))
    frozen = tuple(sorted(int(i) for i in order[: n - info_len]))
    return PolarSpec(block_len=n, info_len=info_len, frozen=frozen)


def _transform(bits: np.ndarray) -> np.ndarray:
    """x = u F^{tensor m} over GF(2), operating on the last axis; a new array
    of the input's dtype.  F^{tensor m} is its own inverse."""
    x = np.array(bits, order="C")
    n = x.shape[-1]
    step = 1
    while step < n:
        pairs = x.reshape(x.shape[:-1] + (n // (2 * step), 2, step))
        pairs[..., 0, :] ^= pairs[..., 1, :]
        step *= 2
    return x


def polar_encode(info_bits, spec: PolarSpec) -> np.ndarray:
    """Encode (..., k) info bits into (..., n) code bits, of the info bits'
    dtype if that is an integer or bool one."""
    info_bits = np.asarray(info_bits)
    if info_bits.shape[-1] != spec.info_len:
        raise ValueError(
            f"expected {spec.info_len} info bits, got {info_bits.shape[-1]}"
        )
    dtype = info_bits.dtype if info_bits.dtype.kind in "biu" else int
    u = np.zeros(info_bits.shape[:-1] + (spec.block_len,), dtype=dtype)
    u[..., spec.info_positions] = info_bits
    return _transform(u)


_RATE0, _RATE1, _REPETITION = "rate-0", "rate-1", "repetition"


def _plan(frozen: tuple):
    """Node plan of a subtree: a node kind, or the (left, right) pair of
    child plans of a node that SC must split."""
    if all(frozen):
        return _RATE0
    if not any(frozen):
        return _RATE1
    if all(frozen[:-1]):
        return _REPETITION
    half = len(frozen) // 2
    return _plan(frozen[:half]), _plan(frozen[half:])


@lru_cache(maxsize=8)
def _node_plan(spec: PolarSpec):
    return _plan(tuple(spec.frozen_mask.tolist()))


def _decode_node(llrs: np.ndarray, plan, u: np.ndarray, x: np.ndarray) -> None:
    """SC-decode (m, rows) LLRs by the node plan into the (m, rows) bool
    views u (source bits) and x (codeword bits), which hold zeros.  The bit
    axis leads, so that each half of a node is one contiguous block."""
    if plan is _RATE0:
        return
    if plan is _REPETITION:
        total = llrs
        while len(total) > 1:
            half = len(total) // 2
            total = total[half:] + total[:half]
        bit = total > 0
        u[-1:] = bit
        x[...] = bit
        return
    if plan is _RATE1:
        np.greater(llrs, 0, out=x)
        u[...] = _transform(x.T).T
        if len(llrs) > 1:
            ties = ~(np.abs(llrs) > 0).all(axis=0)
            if ties.any():
                tied = llrs[:, ties]
                u_t, x_t = np.zeros((2,) + tied.shape, dtype=bool)
                _decode_node(tied, (_RATE1, _RATE1), u_t, x_t)
                u[:, ties], x[:, ties] = u_t, x_t
        return
    left, right = plan
    half = len(llrs) // 2
    a, b = llrs[:half], llrs[half:]
    if left is not _RATE0:
        # the check-node combine, -sign(a) sign(b) min(|a|, |b|);
        # the sign of a zero may differ, which no decision reads
        left_llrs = np.abs(a)
        np.minimum(left_llrs, np.abs(b), out=left_llrs)
        np.copysign(left_llrs, a * b, out=left_llrs)
        _decode_node(np.negative(left_llrs, out=left_llrs), left, u[:half], x[:half])
    # the bit-node combine b + (1 - 2 x_left) a
    _decode_node(b + np.where(x[:half], -a, a), right, u[half:], x[half:])
    x[:half] ^= x[half:]


def _sc_decode(llrs: np.ndarray, spec: PolarSpec, work: np.ndarray = None):
    """(u_bits, x_bits) of (rows, n) LLRs as (rows, n) bool arrays: the
    decisions of leaf-by-leaf min-sum SC, made node by node.  The bit-major
    copy of the LLRs goes into `work` (see polar_decode_sc) if given."""
    columns = work_values(np.empty(llrs.size) if work is None else work,
                          llrs.size).reshape(llrs.shape[::-1])
    columns[...] = llrs.T
    u = np.zeros(columns.shape, dtype=bool)
    x = np.zeros_like(u)
    _decode_node(columns, _node_plan(spec), u, x)
    return u.T, x.T


def polar_decode_sc(llrs, spec: PolarSpec, work: np.ndarray = None) -> np.ndarray:
    """Successive-cancellation decode of (..., n) LLRs to (..., k) info bits
    (uint8).

    Frozen positions are forced to zero; a zero LLR resolves to bit 0.
    work: None, or a writeable, C-contiguous float64 array of at least
    llrs.size values, whose leading values hold the decoder's bit-major
    copy of the LLRs instead of a new array (any other array raises
    ValueError); the bits are the same either way.
    """
    llrs = np.asarray(llrs, dtype=float)
    n = spec.block_len
    if llrs.shape[-1] != n:
        raise ValueError(f"expected {n} LLRs, got {llrs.shape[-1]}")
    u, _ = _sc_decode(llrs.reshape(-1, n), spec, work)
    info = u[:, spec.info_positions].view(np.uint8)
    return info.reshape(llrs.shape[:-1] + (spec.info_len,))
