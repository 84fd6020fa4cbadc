"""Nonparametric cumulative-hazard estimation for region-censored planar data.

Failure points live on the unit square; each subject carries its own
observable region, and a point is recorded only when it falls inside.
The package provides the set-indexed Nelson-Aalen estimator and its
at-risk machinery, censoring-region families with diagnostics, an FGM
dependence model with closed-form oracles, bootstrap tests (independence,
two-sample hazard order, copula-parameter order), a limit-covariance
quadrature, and a Monte Carlo harness that checks the asymptotics.
"""

__version__ = "0.1.0"

from .censoring import (BandComplement, CensoringDiagnostics, CensoringModel,
                        FullSpace, GridProduct, LowerLayer, QuantileTable,
                        Raster, contains, inclusion_prob, joint_inclusion_prob,
                        observable_core, rasterize, region_from_json,
                        region_to_json, validate_censoring)
from .errors import (BihazardError, ConfigError, DataError, DomainError,
                     NumericError, ObservabilityError, QuantileRangeError,
                     ReductionError)
from .estimators import (CensoredSample, HazardSurface, MarginalEstimate,
                         StepCdf, SubjectRecord, asymptotic_cov, at_risk,
                         compensator_residual, copula_nelson_aalen, counting,
                         jump_masses, kaplan_meier, km_quantile,
                         marginal_nelson_aalen, nelson_aalen,
                         nelson_aalen_surface, simulate_sample)
from .geometry import Grid, LowerRect, PredicateRegion, Region
from .inference import (BootstrapSpec, TestReport, bootstrap_resample,
                        fgm_order_test, hazard_order_test, independence_test)
from .io import (read_dataset, read_dataset_csv, read_sample, write_dataset,
                 write_dataset_csv)
from .mc import (MCConfig, MCReport, coverage_study, size_power_study,
                 verify_clt, verify_glivenko, verify_iid_representation)
from .models import (FgmModel, TableMarginal, TruncatedExponential,
                     UniformMarginal, conditional_quantile, copula_cdf,
                     copula_density, copula_survival, fgm_order_region,
                     integrated_hazard)
from .quadrature import QuadratureSpec, integrate_region
