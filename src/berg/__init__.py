"""Bergman kernels of balls, finite ball quotients and Hartogs domains.

Public surface: exact scalars and polynomial algebra, finite unitary
groups with Cartan-style invariant generators, deck-transformation kernel
sums, the closed-form Hartogs kernel pipeline, algebraic-relation fitting
for sampled kernels, and a Monte Carlo verification harness.  Each name
is imported from its own module (``from berg.ball import ball_kernel``),
so importing one module loads only what that module uses.
"""

__version__ = "0.1.0"
