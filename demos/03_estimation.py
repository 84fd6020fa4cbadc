"""Estimating the cumulative hazard from region-censored records.

A tiny worked dataset first, by hand; then the same numbers from the
library, the censored variant in both record forms, the full surface,
and the one-dimensional marginal estimates derived from the same data.
"""
import numpy as np

from bihazard import (CensoredSample, FullSpace, Grid, LowerRect, SubjectRecord,
                      at_risk, copula_nelson_aalen, jump_masses, kaplan_meier,
                      km_quantile, marginal_nelson_aalen, nelson_aalen,
                      nelson_aalen_surface)


def obs(point, censor=FullSpace()):
    return SubjectRecord(censor=censor, status="observed", point=point)


print("== three uncensored subjects ==")
sample = CensoredSample([obs((0.2, 0.3)), obs((0.5, 0.6)), obs((0.4, 0.1))])
for p in [(0.2, 0.3), (0.5, 0.6), (0.4, 0.1)]:
    print(f"  at risk at {p}: {at_risk(sample, p)}")
print(f"  jump masses: {jump_masses(sample).tolist()}")
print(f"  Hhat over the whole square: {nelson_aalen(sample, LowerRect((1.0, 1.0)))}")
print(f"  Hhat over [0,(0.45,0.65)]:  {nelson_aalen(sample, LowerRect((0.45, 0.65)))}")

print()
print("== the censored variant, in both record forms ==")
reg = LowerRect((0.45, 1.0))
latent = CensoredSample([
    obs((0.2, 0.3)),
    SubjectRecord(censor=reg, status="censored_latent", latent=(0.5, 0.6)),
    obs((0.4, 0.1)),
])
opaque = CensoredSample([
    SubjectRecord(censor=LowerRect((1.0, 1.0)), status="censored_opaque",
                  minima=(0.2, 0.3), events=(1, 1)),
    SubjectRecord(censor=reg, status="censored_opaque",
                  minima=(0.45, 0.6), events=(0, 1)),
    SubjectRecord(censor=LowerRect((1.0, 1.0)), status="censored_opaque",
                  minima=(0.4, 0.1), events=(1, 1)),
])
hl = nelson_aalen(latent, LowerRect((1.0, 1.0)))
ho = nelson_aalen(opaque, LowerRect((1.0, 1.0)))
print(f"  latent records give {hl}, minima-and-flags records give {ho}")

print()
print("== the full surface ==")
surf = nelson_aalen_surface(sample, Grid(5, (1.0, 1.0)))
print("  Hhat on a 5x5 grid (rows are increasing y):")
for j in reversed(range(5)):
    print("   " + "  ".join(f"{surf.values[i, j]:.3f}" for i in range(5)))

print()
print("== marginals from the same records ==")
est = marginal_nelson_aalen(latent, 0)
km = kaplan_meier(est)
print(f"  axis-1 event values: {est.values.tolist()}")
print(f"  cumulative hazards:  {np.round(est.cum, 4).tolist()}")
print(f"  product-limit CDF:   {np.round(km.values, 4).tolist()}")
print(f"  30th percentile:     {km_quantile(km, 0.3)}")

print()
print("== hazard on the copula scale ==")
val = copula_nelson_aalen(sample, 2 / 3, 2 / 3)
print(f"  Hhat at the (2/3, 2/3) marginal-quantile corner: {val}")
