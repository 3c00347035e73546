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
    StaticSpacetime,
    TableProfile,
    asymptotics_fit,
    assemble_static,
    load_profile,
    schwarzschild_metric,
)
from .calculus import (
    CurvatureBundle,
    VacuumResidual,
    christoffel,
    curvature,
    hessian,
    kulkarni_reconstruct,
    laplacian,
    vacuum_residual,
)
from .hypersurfaces import (
    FoliationError,
    Hypersurface,
    ShapeData,
    codazzi_residual,
    cylinder,
    gauss_residual,
    laplacian_split_residual,
    lapse_level_set,
    shape,
    sphere_in_cylinder,
    time_slice,
)
from .geodesics import (
    GeodesicState,
    GeodesicTrajectory,
    energy_constancy_verdict,
    integrate_null,
    tangency_persistence,
    tangent_null_seeds,
    trajectory_to_csv,
)
from .photon import (
    PhotonSphereLocation,
    PhotonSurfaceCertificate,
    certify_photon_surface,
    cmc_scalar_check,
    einstein_scalar_formula,
    locate_photon_sphere,
)
from .israel import (
    FlatnessError,
    IsraelReport,
    LevelSetGeometry,
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
