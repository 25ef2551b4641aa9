"""Multicarrier CVQKD manifold extraction toolkit.

Faded sub-channel models, eigenchannel decompositions, secret-key rates,
diversity-multiplexing tradeoff curves, grid constellations and Monte Carlo
outage estimation.  Import names from the module that defines them, for
example ``from mcqkd.rates import rate_report``.
"""

__version__ = "0.5.0"
