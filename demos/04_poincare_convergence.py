"""
Discrete Poincare constants and their convergence
==================================================

The rate constant mu and the threshold R depend on the generalized
Poincare constants eta1, eta2 of the domain.  We compute eta1 as the
smallest nonzero eigenvalue of the discrete zero-flux Laplacian (in closed
form: its eigenvectors are the cell-centered cosines of the DCT-II) and
watch it converge to the analytic value at second order under grid
refinement, in one and two dimensions.
"""

import math

from hrnet import build_domain, poincare_constants

# 1. unit-pi interval: the analytic constant is exactly 1
print("interval [0, pi), analytic eta1 = 1")
print("   cells      eta1          error      order")
prev = None
for n in (16, 32, 64, 128, 256):
    pc = poincare_constants(build_domain(1, [math.pi], [n]), mode="discrete")
    err = abs(pc.eta1 - 1.0)
    order = "" if prev is None else f"{math.log2(prev / err):7.3f}"
    print(f"  {n:6d}   {pc.eta1:.8f}   {err:.3e}   {order}")
    prev = err

# 2. a rectangle: the smallest nonzero mode lives along the longest axis,
#    so eta1 tends to (pi / max L)^2
lx, ly = 2.0, 1.0
target = (math.pi / max(lx, ly)) ** 2
print(f"\nrectangle {lx} x {ly}, analytic eta1 = (pi/{max(lx, ly):g})^2 = {target:.8f}")
print("   cells        eta1          rel err")
for n in (16, 32, 64, 96):
    pc = poincare_constants(build_domain(2, [lx, ly], [n, n // 2]),
                            mode="discrete")
    rel = abs(pc.eta1 - target) / target
    print(f"  {n:4d}x{n // 2:<4d}  {pc.eta1:.8f}   {rel:.3e}")

# 3. the closed form: on n cells of width h, eta1 = (2 sin(pi / 2n) / h)^2
pc = poincare_constants(build_domain(1, [1.0], [128]), mode="discrete")
closed = (2 * math.sin(math.pi / 256) * 128) ** 2
print(f"\n128-cell unit interval: eta1 = {pc.eta1:.10f}, "
      f"(2 sin(pi/256) / h)^2 = {closed:.10f}")
print("the cell-centered cosine is the exact discrete eigenvector;")
print("refinement supplies the accuracy")
