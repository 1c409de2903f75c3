"""zenobell: conditional-evolution toolkit for dissipative atom entanglement.

Simulates cavity-QED schemes that prepare entangled atoms through the
no-photon-emission branch of a leaky cavity (an environment-induced
quantum Zeno effect confines the driven dynamics to a decoherence-free
subspace), the photonic-band-gap scheme that entangles two atoms passed
sequentially through a defect mode, and the verification side: spin Bell
and Mermin inequality values, exact and with simulated finite-shot
readout, plus a Monte-Carlo quantum-jump cross-check of the no-photon
probability.
"""

__version__ = "0.1.0"
