"""Projected-ensemble moments of the self-dual kicked Ising chain.

Three mutually cross-checking routes to the k-th moment of the bulk
projected ensemble: exact finite-chain enumeration, thermodynamic-limit
replica sums over the symmetric group with Weingarten weights, and
unbiased Monte Carlo over Haar-random temporal unitaries.
"""

__version__ = "0.1.0"
