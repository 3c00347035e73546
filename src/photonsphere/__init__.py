"""Numerical certification of photon spheres in static radial spacetimes.

The package verifies, at floating-point scale, the full chain of facts
behind the uniqueness of photon spheres in static vacuum asymptotically
flat geometries: curvature and static-vacuum residuals of a given lapse /
3-metric pair, null geodesic dynamics with conserved-energy monitoring,
umbilicity-based photon-surface certificates, and the level-set foliation
argument that reconstructs the Schwarzschild lapse and mass.
"""

from .spacetimes import (
    ChartPoint,
    DomainError,
    ExpressionProfile,
    RadialProfile,
    SchwarzschildProfile,
    TableProfile,
)
from .calculus import (
    CurvatureBundle,
    VacuumResidual,
    curvature,
    hessian,
    vacuum_residual,
)
from .hypersurfaces import (
    FoliationError,
    Hypersurface,
    ShapeData,
    cylinder,
    lapse_level_set,
    shape,
)
from .geodesics import (
    GeodesicState,
    GeodesicTrajectory,
    energy_constancy_verdict,
    integrate_null,
    tangency_persistence,
)
from .photon import (
    PhotonSphereLocation,
    PhotonSurfaceCertificate,
    certify_photon_surface,
    locate_photon_sphere,
)
from .israel import (
    FlatnessError,
    IsraelReport,
    boundary_constraints,
    build_foliation,
    identity_residuals,
    inequality_slacks,
    mass_flux,
    reconstruct_lapse,
    run_israel_pipeline,
    sign_analysis,
)

__version__ = "0.1.0"
