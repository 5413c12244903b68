"""Zero-constellation modulation for non-coherent OFDM.

Bits ride on the zeros of a transmitted polynomial; a jutted zero pair
breaks the rotational symmetry of the classic Huffman constellation so the
receiver can estimate timing-induced zero rotation by template correlation.
"""

__version__ = "0.1.0"
