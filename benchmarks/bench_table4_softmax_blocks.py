"""Table IV — area / delay / ADP / MAE of the softmax blocks (m = 64).

Rows: the FSM + binary-unit baseline of [17] at 128/256/1024-bit BSLs, and
the iterative approximate softmax circuit with Bx = 4 at By = 4/8/16.  Test
vectors are attention-logit rows sampled from the overall distribution, the
paper's methodology.

Paper numbers for reference: FSM ADP = 4.14e6/8.28e6/3.31e7 um^2*ns at MAE
0.108/0.103/0.099; ours ADP = 6.81e5/2.62e6/1.42e7 at MAE 0.106/0.0766/0.0427.
Claims checked: our MAE falls monotonically with By, the By = 8 block cuts
both MAE and ADP against the 1024-bit FSM design, and the FSM design's MAE
stays roughly flat while its ADP grows linearly with the BSL.

The rows come from :func:`repro.evaluation.sweeps.table4_rows`, the sweep
``python -m repro tables`` runs.
"""

from conftest import emit

from repro.evaluation.sweeps import table4_rows


def test_table4_softmax_blocks(benchmark, softmax_test_vectors):
    rows = benchmark(table4_rows, softmax_test_vectors)
    emit("table4_softmax_blocks", ["Design", "Area (um2)", "Delay (ns)", "ADP (um2*ns)", "MAE"], rows)

    fsm = rows[:3]
    ours = {4: rows[3], 8: rows[4], 16: rows[5]}

    # FSM: area constant, delay (and ADP) grow linearly with the BSL, MAE
    # stays roughly flat — longer streams cannot remove the systematic error.
    assert fsm[2][1] < 1.2 * fsm[0][1]
    assert fsm[2][3] > 5 * fsm[0][3]
    assert fsm[2][4] > 0.5 * fsm[0][4]

    # Ours: MAE falls monotonically with By, ADP grows.
    assert ours[4][4] > ours[8][4] > ours[16][4]
    assert ours[4][3] < ours[8][3] < ours[16][3]

    # Headline: By = 8 improves both ADP and MAE against the 1024-bit FSM design.
    assert fsm[2][3] / ours[8][3] > 1.5
    assert ours[8][4] < fsm[2][4]
