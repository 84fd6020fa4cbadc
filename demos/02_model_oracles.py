"""The FGM dependence model and its closed-form oracles.

The model couples two marginals through C(u,v) = uv(1 + theta(1-u)(1-v)).
Everything the estimators are checked against comes in closed form:
survival, density, hazard, integrated hazard over lower rectangles, and
the limit variance of the estimator.
"""
import math

import numpy as np

from bihazard import (FgmModel, LowerRect, asymptotic_cov, conditional_quantile,
                      fgm_order_region, integrated_hazard)

print("== pointwise oracles ==")
model = FgmModel(0.5)
pt = np.array([0.3, 0.6])
print(f"  theta=0.5 at {pt.tolist()}:")
print(f"    survival {float(model.survival(*pt)):.6f}")
print(f"    density  {float(model.density(*pt)):.6f}")
print(f"    hazard   {float(model.hazard(*pt)):.6f}")

print()
print("== integrated hazard vs the independence closed form ==")
indep = FgmModel(0.0)
for t in ((0.4, 0.4), (0.6, 0.3)):
    got = float(integrated_hazard(indep, LowerRect(t)))
    want = math.log(1 - t[0]) * math.log(1 - t[1])
    print(f"  H([0,{t}]) quadrature {got:.8f}  closed form {want:.8f}")

print()
print("== where a larger theta raises the hazard ==")
print("The order region 1 - 2u - 2v + 3uv > 0 on a 12x12 lattice:")
g = (np.arange(12) + 0.5) / 12
u, v = np.meshgrid(g, g, indexing="ij")
mask = fgm_order_region(u, v)
for j in reversed(range(12)):
    print("   " + "".join("#" if mask[i, j] else "." for i in range(12)))

print()
print("== limit variance of the estimator ==")
got = asymptotic_cov(indep, None, LowerRect((0.5, 0.5)), LowerRect((0.5, 0.5))).value
want = 1.0 + 2.0 * (1.0 - math.log(2.0)) ** 2
print(f"  uncensored, theta=0, corner (0.5, 0.5):")
print(f"  quadrature {got:.8f}  closed form {want:.8f}")

print()
print("== sampling by conditional inversion ==")
rng = np.random.default_rng(7)
n = 20000
pts = FgmModel(0.8).sample(n, rng)
emp = np.mean((pts[:, 0] <= 0.5) & (pts[:, 1] <= 0.5))
want = float(0.25 * (1 + 0.8 * 0.25))
print(f"  P(U<=.5, V<=.5) empirical {emp:.4f}  copula value {want:.4f}")
u_fixed = 0.3
meds = conditional_quantile(np.full(5, u_fixed), np.full(5, 0.5), 0.8)
print(f"  conditional medians at u={u_fixed}: {np.round(meds, 4).tolist()}")
