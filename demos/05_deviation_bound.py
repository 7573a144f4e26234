"""Monte Carlo exceedance of the regroup-median estimate against its
analytic tail bound, across deviation radii."""

from rml_lab.numerics import RngStream
from rml_lab.verify import check_prop2

print(f"{'radius':>7} {'empirical rate':>15} {'analytic bound':>15} {'note':>9}")
for radius in (0.8, 1.0, 1.2, 1.5, 2.0):
    report = check_prop2(20_000, RngStream(0, 9), n=6, k=10, epsilon_r=radius,
                         loc=1.0, scale=1.0)
    note = "vacuous" if report["vacuous"] else ""
    print(f"{radius:7.2f} {report['statistic']:15.5f} {report['bound']:15.5f} {note:>9}")

print("""
The bound is loose (Hoeffding over group-deviation indicators plus
Chebyshev inside each group) but always on the right side of the empirical
rate.  Below the validity threshold the report says vacuous instead of
pretending to certify anything.
""")
