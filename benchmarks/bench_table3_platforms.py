"""Experiment T3 -- Table 3: platform configurations.

Dumps the modeled HiHGNN and GDR-HGNN configurations and asserts they
match the paper's Table 3 exactly (these are inputs, not results, so
equality is required).
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.report import ascii_table
from repro.api import SystemConfigReport


def test_table3(benchmark, spec):
    def build():
        return SystemConfigReport.from_configs(spec.accelerator, spec.frontend)

    table = run_once(benchmark, build)
    rows = [["hihgnn", k, v] for k, v in table.hihgnn.items()]
    rows += [["gdr-hgnn", k, v] for k, v in table.gdr_hgnn.items()]
    print()
    print(ascii_table(["platform", "parameter", "value"], rows,
                      title="Table 3: platform details"))

    hih = table.hihgnn
    assert hih["peak_tflops"] == pytest.approx(16.38)
    assert hih["clock_ghz"] == pytest.approx(1.0)
    assert hih["fp_buffer_mb"] == pytest.approx(2.44, rel=1e-4)
    assert hih["na_buffer_mb"] == pytest.approx(14.52, rel=1e-4)
    assert hih["sf_buffer_mb"] == pytest.approx(0.12, rel=1e-4)
    assert hih["att_buffer_mb"] == pytest.approx(0.38, rel=1e-4)
    assert hih["hbm_gbs"] == pytest.approx(512.0)

    gdr = table.gdr_hgnn
    assert gdr["fifo_kb"] == pytest.approx(8.0)
    assert gdr["matching_buffer_kb"] == pytest.approx(160.0)
    assert gdr["candidate_buffer_kb"] == pytest.approx(160.0)
    assert gdr["adj_buffer_kb"] == pytest.approx(320.0)
