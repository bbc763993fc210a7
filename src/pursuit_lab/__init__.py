"""pursuit_lab: beacon-referenced cyclic pursuit simulation and analysis.

Library layout:

* :mod:`pursuit_lab.numerics` -- the RK4 step and driver, angle
  wrapping, polynomial roots, 5x5 complex eigenvalues;
* :mod:`pursuit_lab.params` -- controller parameters and the homogeneity
  assumptions;
* :mod:`pursuit_lab.full_space` -- planar particle model, steering law,
  simulation and shape extraction;
* :mod:`pursuit_lab.shape_space` -- closed-loop shape dynamics and
  constraint monitoring;
* :mod:`pursuit_lab.equilibria` -- closed-form circling equilibria;
* :mod:`pursuit_lab.stability` -- block-circulant linearization and
  Routh-type necessary conditions;
* :mod:`pursuit_lab.pure_shape` -- scale-free coordinates, invariant
  manifolds and reduced dynamics;
* :mod:`pursuit_lab.cli` -- the ``pursuit-lab`` command line front end.
"""

from .params import ControlParams, HomogeneityFlags
from .full_space import WorldState, simulate, extract_shape, random_world
from .shape_space import (ShapeState, constraint_residuals, shape_derivative,
                          integrate_shape)
from .equilibria import (BranchAssignment, CirclingEquilibrium, alpha_star,
                         classify_degenerate, enumerate_equilibria,
                         equilibrium_shape, leftmost_equilibrium)
from .stability import (abd, block_triple, char_poly, corollary_checks,
                        cubic_coeffs, dk, routh_necessary, spectrum_report)
from .pure_shape import (ManifoldSpec, PureShapeState, asymptote_prediction,
                         invariant_region_check, lift, manifold_spec,
                         pure_shape_derivative, reduced_derivative,
                         reduced_equilibrium, to_pure_shape)

__version__ = "0.1.0"

__all__ = [
    "ControlParams", "HomogeneityFlags", "WorldState", "simulate",
    "extract_shape", "random_world", "ShapeState", "constraint_residuals",
    "shape_derivative", "integrate_shape", "BranchAssignment",
    "CirclingEquilibrium", "alpha_star", "classify_degenerate",
    "enumerate_equilibria", "equilibrium_shape", "leftmost_equilibrium",
    "abd", "block_triple", "char_poly", "corollary_checks", "cubic_coeffs",
    "dk", "routh_necessary", "spectrum_report", "ManifoldSpec",
    "PureShapeState",
    "asymptote_prediction", "invariant_region_check", "lift",
    "manifold_spec", "pure_shape_derivative", "reduced_derivative",
    "reduced_equilibrium", "to_pure_shape",
]
