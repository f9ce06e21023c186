"""Faber polynomials, Green level sets and Bohr-type coefficient sums.

The package is organised around a small immutable description of a
planar continuum (segment, disc, or a custom exterior map) and builds,
on top of it:

* exterior map data and the Gaussian-integer kernel, in which every
  exact quantity is one denominator over integer numerators (``series``),
* conformal geometry: exterior coordinates, level curves, arc length,
  distances, sup norms (``continua``),
* Faber polynomials by the exact and contour routes, coefficient
  extraction, norm roots (``faber``),
* Bohr-type coefficient sums, the sufficient segment level, bounded
  function families and verification campaigns (``bohr``),
* quantitative remainder and separation estimates (``estimates``),
* a command line front end (``cli``).

Nothing is loaded before it is used.  Each of those modules is in
sys.modules from the start, as a module whose body runs on its first
attribute access (``_lazy``), so code that looks them up there finds
them; each name of ``__all__`` is read from its module on first access
(PEP 562).  numpy, too, is loaded on first use.
"""

from . import _lazy

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "series": ("LaurentTail",),
    "continua": (
        "ContinuumSpec", "LevelSet", "SupNorm", "arc_length", "contains",
        "custom", "disc", "dist_to_level", "eccentricity", "green",
        "level_boundary", "phi", "psi", "psi_prime", "scaled_closure",
        "segment", "sup_norm",
    ),
    "faber": (
        "FaberPoly", "FaberSeries", "contour_values", "faber_coeffs",
        "faber_contour", "faber_poly", "faber_polys", "faber_remainder",
        "norm_root", "target_identity_check", "target_identity_residual",
    ),
    "bohr": (
        "KAPTANOGLU_SADIK_ECCENTRICITY", "KAPTANOGLU_SADIK_RADIUS",
        "BohrRadiusResult", "BohrReport", "BoundedFamily", "CampaignReport",
        "basis_norm", "bohr_sum", "bohr_verify", "coeff_bound_check",
        "gen_bounded", "phi_of_R", "segment_bohr_radius", "to_faber_basis",
    ),
    "estimates": (
        "EnBound", "EstimateContext", "FkBound", "FnBounds", "Ineq11",
        "Thm31Report", "en_bound", "fk_bound", "fn_bounds", "ineq11_check",
        "lemma33_check", "make_context", "schwarz_bound", "thm31_conditions",
    ),
    "errors": (
        "AliasingRisk", "CertificationFailed", "DomainError",
        "FaberBohrError", "GridExhausted", "InsideUnitDisc", "LengthMismatch",
        "NonConvergent", "NotOnLevel", "PointInsideK", "PointInsideLevel",
        "PointOutsideK", "PointOutsideLevel", "PreconditionViolated",
        "ReconstructionMismatch", "WrongKind",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

for _module in _EXPORTS:
    globals()[_module] = _lazy.lazy_module(f"{__name__}.{_module}")
del _module


def __getattr__(name: str):
    # not stored here: a function replaced on its module (as by a test
    # or a tracer) is seen through the package at once
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
