"""passivelsm: sound-soft obstacle reconstruction from passive
cross-correlation measurements by the linear sampling method, with the
full 2D Helmholtz forward simulation needed to generate synthetic data.
"""


BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _apply_thread_cap() -> None:
    """Cap the BLAS pools before numpy loads: to LSM_THREADS when set, else
    to one thread.  A pool variable that is already set wins."""
    import os

    threads = os.environ.get("LSM_THREADS") or "1"
    for var in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(var, threads)


_apply_thread_cap()

from .specfun import SingularityError, WaveContext, green2d, hankel1_orders
from .geometry import (
    BoundaryCurve,
    DiscretizedBoundary,
    PointSet,
    circle_points,
    circle_points_uniform,
    discretize,
    place_scatterer,
)
from .forward import (
    GeometryError,
    PointScatterers,
    ResonanceWarning,
    SingleLayerSystem,
    assemble_single_layer,
    mie_scattered_circle,
)
from .acquisition import (
    FieldMatrix,
    add_noise,
    covariance_matrix,
    cross_correlation_matrix,
    imaginary_near_field_matrix,
    near_field_matrix,
)
from .inversion import (
    GridSpec,
    IndicatorMap,
    SvdFactors,
    indicator_map,
    morozov_alphas,
    svd,
    tikhonov_solve,
)
from .pipeline import ExperimentConfig, RunManifest, preset, run

__version__ = "0.1.0"
