"""Limiting densities and exceedance probabilities for prime number races.

The package computes, from tables of Riemann and Dirichlet zeros, the
logarithmic density of the set where one prime-counting contestant leads
another, by a Fourier/Poisson summation with a controlled remainder. The
cumulant function and its derivatives, the ingredients of a third-order
steepest descent into the far tail, are computed alongside it.
"""

__version__ = "0.1.0"
