"""Refinement tables for the registered benchmark problems.

Reproduces the two table-style studies at reduced size: the cubic-solution
problem under mesh doubling at fixed degree (third-order convergence), and
the linear problem with a right-hand side perturbed by delta = h^2.5 (the
observed order stays near 2, the mark of a well-posed discrete scheme).
Append larger N values to match the full studies.
"""

from abelhp import make_benchmark, run_sweep

print("cubic solution, 3 basis functions per element (expect order ~ 3):")
report = run_sweep(make_benchmark("ex3"), [(N, 3) for N in (10, 20, 40, 80)])
print(report.to_csv())

print("noisy linear problem, delta = h^2.5 (expect order ~ 2):")
report = run_sweep(make_benchmark("ex2"), [(N, 2) for N in (32, 64, 128, 256)], noise="h^2.5")
print(report.to_csv())

print("same rows through the CLI:")
print("  abel-hp run --problem ex3 --N 10,20,40,80,160,320 --M 3")
print("  abel-hp run --problem ex2 --N 32,64,128,256,512,1024,2048 --M 2 --noise h^2.5")
