"""Exact wall-and-chamber numerics for degree-k elliptic K3 surfaces.

Lattice pairings, central-ray walls, destabilization-type strata and their
dimensions, a displacement-tableau oracle for the pencil-adjusted
Brill-Noether numbers rho_k, and elliptic-chain ramification bookkeeping that
re-checks its own closed form against the classical rho.
"""

__version__ = "0.1.0"
