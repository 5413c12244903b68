"""The caller-owned arrays a call writes into: each `out=` parameter returns
its array and gives the allocating call's numbers, bit for bit, and each
`work=` parameter changes no number; both refuse an array they cannot use."""

import numpy as np
import pytest

from jbmocz.dizet import BLOCK_VALUES, pseudo_llrs
from jbmocz.polar import polar_construct, polar_decode_sc
from jbmocz.rotation import correct_bins, rotation_bins
from jbmocz.zeros import ConstellationParams, default_radius, encode_coeffs, make_template

K = 32
JUTTED = ConstellationParams(K, 1.044, 1.15)
N_BINS = 64


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def encode_case(lead, rng):
    bits = rng.integers(0, 2, lead + (K,))
    return (lambda out=None: encode_coeffs(bits, JUTTED, out=out)), complex, lead + (K + 1,)


def pseudo_llrs_case(lead, rng):
    received = complex_normal(rng, lead + (K + 5,))  # as after a 5-tap channel
    return (lambda out=None: pseudo_llrs(received, JUTTED, out=out)), float, lead + (K,)


def correct_bins_case(lead, rng):
    coeffs = complex_normal(rng, lead + (K + 1,))
    bins = rng.integers(0, N_BINS, lead)  # one bin per row
    return (lambda out=None: correct_bins(coeffs, bins, N_BINS, out=out)), complex, lead + (K + 1,)


# name -> (lead shape, rng) -> (the call, taking out=; its dtype; its shape)
CALLS = {"encode_coeffs": encode_case, "pseudo_llrs": pseudo_llrs_case,
         "correct_bins": correct_bins_case}
# (L,), (R, L) and (a, b, L) stacks; (40, 31) holds several pseudo_llrs
# blocks, and it and (1200,) make correct_bins' ramps at least 256 KiB, the
# size from which numpy 2 would compute `coeffs * ramps` as ramps * coeffs
# in the ramps; correct_bins computes that order at every size
LEADS = [(), (300,), (1200,), (40, 31)]


@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("name", list(CALLS))
def test_out_returns_out_with_the_allocating_numbers(name, lead):
    call, dtype, shape = CALLS[name](lead, np.random.default_rng(len(lead) + sum(lead)))
    expected = call()
    out = np.empty(shape, dtype)
    assert call(out=out) is out
    assert expected.dtype == out.dtype and expected.shape == out.shape
    assert expected.tobytes() == out.tobytes()
    if lead:
        # the leading rows of a larger buffer, as a short last chunk uses
        larger = np.full((lead[0] + 3,) + shape[1:], np.nan, dtype)
        rows = larger[: lead[0]]
        assert call(out=rows) is rows
        assert rows.tobytes() == expected.tobytes()
        assert np.isnan(larger[lead[0] :]).all()


def whole_stack_llrs(received, params):
    """pseudo_llrs' arithmetic in one product of the whole stack per set of
    test points, unblocked."""
    length = received.shape[-1]
    scale = params.zero_radii ** (length - 1)
    exponents = np.arange(length)[:, None]
    outer = np.abs(received @ params.outer_points()[None, :] ** exponents) ** 2
    inner = np.abs(received @ params.inner_points()[None, :] ** exponents) ** 2
    energy = (np.einsum("...l,...l->...", received.real, received.real)
              + np.einsum("...l,...l->...", received.imag, received.imag))
    return (scale**2 * inner - outer) / (scale * energy[..., None])


# (2, 0) and (0, 3): empty stacks, such as a one-block OFDM packet's payload
@pytest.mark.parametrize("lead", LEADS + [(3, 2, 7), (2, 0), (0, 3)], ids=str)
def test_pseudo_llrs_blocks_give_the_whole_stack_numbers(lead):
    received = complex_normal(np.random.default_rng(sum(lead)), lead + (K + 5,))
    assert pseudo_llrs(received, JUTTED).tobytes() == whole_stack_llrs(received, JUTTED).tobytes()


def test_correct_bins_out_in_place_with_one_bin_per_packet():
    # the OFDM receiver's call: one bin per packet, broadcast over its
    # codewords, corrected in place
    rng = np.random.default_rng(4)
    cells = complex_normal(rng, (24, 32, K + 1))
    bins = rng.integers(0, N_BINS, 24)[:, None]
    expected = correct_bins(cells, bins, N_BINS)
    assert correct_bins(cells, bins, N_BINS, out=cells) is cells
    assert cells.tobytes() == expected.tobytes()


def test_pseudo_llrs_out_on_a_view_in_blocks():
    # the OFDM receiver's call: the payload codewords after the first, a
    # non-contiguous (P, M - 1, K + 1) view, over more than one block
    cells = complex_normal(np.random.default_rng(3), (24, 32, K + 1))
    payload = ConstellationParams(K, default_radius(K))
    assert 24 * 31 * K > BLOCK_VALUES
    out = np.empty((24, 31, K))
    assert pseudo_llrs(cells[:, 1:], payload, out=out) is out
    assert out.tobytes() == pseudo_llrs(cells[:, 1:], payload).tobytes()


@pytest.mark.parametrize("why", ["wrong dtype", "wrong shape", "non-contiguous"])
@pytest.mark.parametrize("name", list(CALLS))
def test_out_refuses_an_array_it_cannot_use(name, why):
    call, dtype, shape = CALLS[name]((6, 5), np.random.default_rng(0))
    out = {"wrong dtype": lambda: np.empty(shape, np.float32 if dtype is float else float),
           "wrong shape": lambda: np.empty((7,) + shape[1:], dtype),
           "non-contiguous": lambda: np.empty(shape[:-1] + (2 * shape[-1],), dtype)[..., ::2],
           }[why]()
    with pytest.raises(ValueError, match="out"):
        call(out=out)


def test_rotation_bins_work_changes_no_bin():
    rng = np.random.default_rng(5)
    template = make_template(JUTTED, 256)
    coeffs = complex_normal(rng, (300, K + 1))
    step = min(300, 2**16 // 256)
    work = np.full(5 * step * 256 + 7, np.nan)
    assert np.array_equal(rotation_bins(coeffs, template, work=work),
                          rotation_bins(coeffs, template))
    with pytest.raises(ValueError, match="work"):
        rotation_bins(coeffs, template, work=np.empty(5 * step * 256 - 1))


def test_polar_decode_sc_work_changes_no_bit():
    rng = np.random.default_rng(6)
    spec = polar_construct(32, 16)
    llrs = rng.standard_normal((3, 50, 32))
    llrs[0, 0, :8] = 0.0  # ties take the decoder's split path
    work = np.full(llrs.size + 5, np.nan)
    assert np.array_equal(polar_decode_sc(llrs, spec, work=work), polar_decode_sc(llrs, spec))
    with pytest.raises(ValueError, match="work"):
        polar_decode_sc(llrs, spec, work=np.empty(llrs.size, np.float32))
