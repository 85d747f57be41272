"""Fig. 7 — GELU block ADP and MAE across bitstream lengths.

The figure sweeps the Bernstein baselines over 128/256/1024-bit BSLs and the
gate-assisted SI block over 2/4/8-bit output BSLs, plotting ADP (left) and
MAE (right).  The bench regenerates both series.

Expected shape: the Bernstein ADP grows linearly with its BSL while its MAE
barely improves (the approximation error floor dominates); our ADP grows
with the output BSL while the MAE keeps falling, and the 8-bit point sits
below every Bernstein point on both axes simultaneously.

The rows come from :func:`repro.evaluation.sweeps.fig7_gelu_rows`, the
sweep the CLI's ``gelu-sweep`` subcommand runs.
"""

from conftest import emit

from repro.evaluation.sweeps import fig7_gelu_rows


def test_fig7_gelu_sweep(benchmark, gelu_test_vectors):
    rows = benchmark(fig7_gelu_rows, gelu_test_vectors)
    emit("fig7_gelu_sweep", ["Series", "BSL", "ADP (um2*ns)", "MAE"], rows)

    bernstein = [r for r in rows if "Bern" in r[0]]
    ours = [r for r in rows if "ours" in r[0]]

    # Bernstein ADP grows with BSL within each series.
    for terms in ("4-term", "5-term", "6-term"):
        series = [r for r in bernstein if r[0].startswith(terms)]
        adps = [r[2] for r in series]
        assert adps == sorted(adps)

    # The Bernstein MAE is approximation-limited: even 8x longer streams
    # improve it by far less than our block gains from 2b -> 8b.
    for terms in ("4-term", "5-term", "6-term"):
        series = sorted([r for r in bernstein if r[0].startswith(terms)], key=lambda r: r[1])
        assert series[-1][3] > 0.5 * series[0][3]

    ours_best = min(r[3] for r in ours)
    assert ours_best < min(r[3] for r in bernstein)
