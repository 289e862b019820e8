"""Localized exponential time differencing for the diffusion equation.

Monodomain and overlapping-domain-decomposition ETD1/ETD2 solvers for

    u_t = nu Laplace(u) + f   on an interval or rectangle,

with Dirichlet boundary data, plus two iterative coupling drivers (a
per-time-step Schwarz iteration and a global-in-time waveform
relaxation) and an experiment harness that records convergence rates
and accuracy tables as CSV.
"""

__version__ = "0.1.0"
