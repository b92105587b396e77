"""Embedding oracle and discrete quasi-norm toolkit for modulation, Besov,
Triebel, Sobolev and Fourier-Lp spaces."""

from .exponents import Exponent, INF, TauPiece, sigma, sigma_region, tau, tau_region
from .grid import GridFunction, GridSpec, lq_seq_norm, transform
from .norms import besov_norm, fourier_lp_norm, modulation_norm, sobolev_norm, \
    space_norm, triebel_norm
from .oracle import Family, SpaceSpec, Verdict, classify_region, decide
from .partitions import build_dyadic, build_uniform, index_set, smooth_profile

__all__ = [
    "Exponent", "INF", "TauPiece", "sigma", "sigma_region", "tau", "tau_region",
    "GridFunction", "GridSpec", "lq_seq_norm", "transform",
    "besov_norm", "fourier_lp_norm", "modulation_norm", "sobolev_norm",
    "space_norm", "triebel_norm",
    "Family", "SpaceSpec", "Verdict", "classify_region", "decide",
    "build_dyadic", "build_uniform", "index_set", "smooth_profile",
]

__version__ = "0.1.0"
