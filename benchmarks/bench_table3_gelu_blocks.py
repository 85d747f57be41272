"""Table III — area / delay / ADP / MAE of the GELU blocks.

Rows: the Bernstein-polynomial baseline with 4/5/6 terms at a 1024-bit BSL,
and the gate-assisted SI block at 2/4/8-bit output BSLs.  Every design is
costed by the same analytical synthesis flow and its error is measured on
the same GELU operand distribution.

Paper numbers for reference (TSMC 28 nm): Bernstein 4/5/6-term ADP =
4769/6254/7506 um^2*ns with MAE 0.0548/0.0413/0.0355; ours 2/4/8-bit ADP =
342/710/1420 um^2*ns with MAE 0.0410/0.0252/0.0155.  The claims checked here
are the relative ones: ours at 8 bits cuts ADP by >= 2x against every
Bernstein variant while also cutting MAE, and both metrics improve
monotonically along each family.
"""

import numpy as np
from conftest import emit

from repro.core.gelu_si import GeluSIBlock
from repro.hw.synthesis import synthesize
from repro.nn.functional_math import gelu_exact
from repro.sc.bernstein import BernsteinGeluUnit

BERNSTEIN_BSL = 1024
BERNSTEIN_INPUT_RANGE = 3.0


def _table3_rows(samples):
    reference = gelu_exact(samples)
    rows = []
    for terms in (4, 5, 6):
        unit = BernsteinGeluUnit(num_terms=terms, input_range=BERNSTEIN_INPUT_RANGE, bitstream_length=BERNSTEIN_BSL)
        report = synthesize(unit.build_hardware())
        out = unit.evaluate(samples[:2000])
        mae = float(np.mean(np.abs(out - reference[:2000])))
        rows.append((f"Bernstein {terms}-term poly [18]", report.area_um2, report.delay_ns, report.adp, mae))
    for bsl in (2, 4, 8):
        block = GeluSIBlock(output_length=bsl, calibration_samples=samples)
        report = synthesize(block.build_hardware())
        mae = float(np.mean(np.abs(block.evaluate(samples) - reference)))
        rows.append((f"Ours {bsl}b BSL", report.area_um2, report.delay_ns, report.adp, mae))
    return rows


def test_table3_gelu_blocks(benchmark, gelu_test_vectors):
    rows = benchmark(_table3_rows, gelu_test_vectors)
    emit("table3_gelu_blocks", ["Design", "Area (um2)", "Delay (ns)", "ADP (um2*ns)", "MAE"], rows)

    bernstein = rows[:3]
    ours = {2: rows[3], 4: rows[4], 8: rows[5]}

    # ADP and MAE improve monotonically with the output BSL for our block...
    assert ours[2][3] < ours[4][3] < ours[8][3]
    assert ours[2][4] > ours[4][4] > ours[8][4]
    # ...and the Bernstein approximation error shrinks with the term count.
    assert bernstein[0][4] >= bernstein[2][4]

    # Headline claims: the 8-bit gate-assisted SI block reduces ADP against
    # every Bernstein variant while also reducing MAE.
    for _, _, _, adp, mae in bernstein:
        assert adp / ours[8][3] > 2.0
        assert (mae - ours[8][4]) / mae > 0.25
