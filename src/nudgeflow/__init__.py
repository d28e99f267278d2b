"""Fully discrete nudging-based downscaling for 2D incompressible flow.

Spectral Galerkin in space, semi-implicit or fully implicit Euler in
time, feedback nudging toward coarse observations, a postprocessing
correction for the unresolved modes, and an analysis layer that
evaluates the a-priori constants and verifies the stability,
contraction, and convergence bounds numerically.  Callers import from
the submodules (`nudgeflow.schemes`, `nudgeflow.experiments`, ...);
importing the package itself loads none of them.
"""

__version__ = "0.1.0"
