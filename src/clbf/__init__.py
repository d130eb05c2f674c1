"""Robust neural Lyapunov-barrier certificates for reach-while-avoid control.

Train a controller and certificate jointly, verify the robust certificate
conditions with a sound interval branch-and-bound checker, and evaluate
empirical robustness under adversarial and random state perturbations.
"""

__version__ = "0.1.0"
