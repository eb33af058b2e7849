"""Experiment F10 -- Fig. 10: area and power of HiHGNN + GDR-HGNN.

Paper: GDR-HGNN accounts for 2.30% of combined area (0.50 mm^2) and
0.46% of power (55.6 mW) at TSMC 12 nm, with buffers dominating the
frontend's overhead. Required shape: low-single-digit-percent area,
sub-percent power, buffer-dominated.
"""

from benchmarks.conftest import run_once
from repro.analysis.report import ascii_table
from repro.energy.breakdown import area_breakdown, figure10_shares


def test_fig10_area_power(benchmark, spec):
    shares = run_once(
        benchmark, lambda: figure10_shares(spec.accelerator, spec.frontend)
    )
    components = area_breakdown(spec.accelerator, spec.frontend)
    total_area = sum(c.area_mm2 for c in components)
    total_power = sum(c.power_mw for c in components)
    rows = [
        [c.block, c.component, f"{c.area_mm2:.3f}",
         f"{c.area_mm2 / total_area:.2%}",
         f"{c.power_mw:.1f}", f"{c.power_mw / total_power:.2%}"]
        for c in components
    ]
    print()
    print(ascii_table(
        ["block", "component", "area mm^2", "area %", "power mW", "power %"],
        rows, title="Fig. 10: area and power breakdown (TSMC 12 nm)",
    ))
    print(f"\nGDR-HGNN totals: {shares['gdr_area_mm2']:.2f} mm^2 "
          f"({shares['gdr_area_share']:.2%}; paper 0.50 mm^2 / 2.30%), "
          f"{shares['gdr_power_mw']:.1f} mW "
          f"({shares['gdr_power_share']:.2%}; paper 55.6 mW / 0.46%)")

    assert 0.005 < shares["gdr_area_share"] < 0.06
    assert shares["gdr_power_share"] < 0.02
    assert shares["gdr_buffer_area_share"] > 0.5  # buffers dominate
    assert 10 < shares["total_area_mm2"] < 60
    assert 5 < shares["total_power_w"] < 25
