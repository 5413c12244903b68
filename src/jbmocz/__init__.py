"""Zero-constellation modulation for non-coherent OFDM.

Bits ride on the zeros of a transmitted polynomial; a jutted zero pair
breaks the rotational symmetry of the classic Huffman constellation so the
receiver can estimate timing-induced zero rotation by template correlation.
"""

from .channel import ImpairmentSpec, apply_ofdm_channel, convolve_channel, draw_cir, ebn0_to_noise_var
from .dizet import dizet_hard, pseudo_llrs
from .phy import (
    ChannelEstimate,
    OfdmConfig,
    SyncResult,
    build_sync_symbol,
    estimate_channel_blind,
    estimate_noise_var,
    map_fm,
    ofdm_demodulate,
    ofdm_modulate,
    papr_fm,
    papr_fm_huffman,
    papr_peak_at_dc,
    read_iq,
    sync_search,
    write_iq,
)
from .polar import PolarSpec, polar_construct, polar_decode_sc, polar_encode
from .rotation import (
    apply_rotation,
    correct_bins,
    estimate_rotation_bins,
    oversampled_magnitudes,
    rotation_bins,
    rotation_mse,
)
from .stability import (
    codebook_stability,
    deflate,
    min_codebook_stability,
    optimize_radius,
    poly_stability,
    reliability_profile,
)
from .zeros import (
    ConstellationParams,
    Template,
    aacf,
    aacf_closed_form,
    aacf_edge_scale,
    coeffs_to_zeros,
    default_radius,
    encode_bits,
    encode_coeffs,
    make_template,
    power_spectrum,
    zeros_to_coeffs,
)

__version__ = "0.1.0"
