"""Censoring regions: the shapes, membership, and the observability projection.

Each subject in a dataset carries its own observable region; a failure
point is recorded only when it lands inside. This script walks the
region families, rasterizes one, and shows why the projection to the
decidable core is useful but destructive.
"""
import numpy as np

from bihazard import (BandComplement, CensoringModel, FullSpace, Grid,
                      GridProduct, LowerLayer, LowerRect, QuantileTable,
                      contains, observable_core, rasterize, validate_censoring)


def show(mask):
    for j in reversed(range(mask.shape[1])):
        print("   " + "".join("#" if mask[i, j] else "." for i in range(mask.shape[0])))


print("== region families ==")
regions = {
    "full space": FullSpace(),
    "rectangle [0,.6]x[0,.8]": LowerRect((0.6, 0.8)),
    "grid product": GridProduct(((0.0, 0.3), (0.5, 1.0)), ((0.0, 0.4), (0.7, 1.0))),
    "band complement": BandComplement(0.2, 0.7, 0.15),
    "lower layer": LowerLayer(((0.4, 0.9), (0.8, 0.3))),
}
probes = np.array([[0.25, 0.25], [0.55, 0.65], [0.9, 0.9]])
for name, reg in regions.items():
    hits = contains(reg, probes)
    print(f"  {name:28s} contains {probes.tolist()} -> {hits.tolist()}")

print()
print("== rasterization (12x12, band complement) ==")
raster = rasterize(regions["band complement"], 12)
show(raster.mask)

print()
print("== observability projection ==")
print("The L-shape keeps every point whose whole wide history stays inside;")
print("that is exactly its lower-left square.")
lshape = rasterize(LowerLayer(((0.5, 1.0), (1.0, 0.5))), 8)
core = observable_core(lshape)
show(core.mask)
core2 = observable_core(core)
print(f"Applying the projection again leaves {int(core2.mask.sum())} cells:")
print("a proper rectangle has an empty core, so the operator is not idempotent.")

print()
print("== censoring-model diagnostics ==")
cm = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.0),
                                  "tau2": QuantileTable.uniform(0.5, 1.0)})
diag = validate_censoring(cm, Grid(16, (0.8, 0.8)), epsilon=0.02)
print(f"  min inclusion over the window: {diag.min_inclusion:.4f} at {diag.argmin_node}")
print(f"  passed at epsilon=0.02: {diag.passed}")
