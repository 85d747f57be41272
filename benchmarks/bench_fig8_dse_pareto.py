"""Fig. 8 — design-space exploration of the softmax block (Bx = 2 and Bx = 4).

The paper sweeps the Table II parameters (2916 candidate designs per input
BSL), plots every design in the (ADP, MAE) plane and highlights the Pareto
front: 12 Pareto optima for Bx = 2 and 21 for Bx = 4, with ADP spanning
roughly two orders of magnitude and MAE one.

The bench runs the same-size grid through the circuit emulation and the
synthesis model, extracts the Pareto front and reports its size and the
spans of both axes.  Checked shape: the grid size matches (2916), the front
contains on the order of ten designs, and moving along the front trades at
least one order of magnitude of ADP against a clearly lower MAE.

Set ``REPRO_BENCH_SCALE=small`` to sweep a reduced grid when iterating.
"""

from conftest import bench_scale, emit

from repro.core.dse import SoftmaxDesignSpace


def _explore(bx, logits, scale):
    if scale == "small":
        space = SoftmaxDesignSpace(
            bx=bx,
            test_vectors=logits[:64],
            by_choices=(4, 8, 16),
            iteration_choices=(2, 3),
            s1_choices=(8, 32, 128),
            s2_choices=(2, 8, 32),
            alpha_y_multipliers=(0.5, 1.0),
        )
    else:
        space = SoftmaxDesignSpace(bx=bx, test_vectors=logits[:100])
    points = space.explore()
    pareto = space.pareto_points(points)
    return space, points, pareto


def _summarise(bx, space, points, pareto):
    feasible = [p for p in points if p.feasible]
    return (
        f"Bx={bx}",
        space.grid_size(),
        len(feasible),
        len(pareto),
        min(p.adp for p in pareto),
        max(p.adp for p in pareto),
        min(p.mae for p in pareto),
        max(p.mae for p in pareto),
    )


def test_fig8_dse_pareto(benchmark, softmax_test_vectors):
    scale = bench_scale()

    def run():
        results = {}
        for bx in (2, 4):
            results[bx] = _explore(bx, softmax_test_vectors, scale)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    summary_rows = []
    pareto_rows = []
    for bx, (space, points, pareto) in results.items():
        summary_rows.append(_summarise(bx, space, points, pareto))
        for point in pareto:
            pareto_rows.append((f"Bx={bx}", *point.as_row()))

    emit(
        "fig8_dse_summary",
        ["Design space", "Grid size", "Feasible", "Pareto optima", "ADP min", "ADP max", "MAE min", "MAE max"],
        summary_rows,
    )
    emit(
        "fig8_dse_pareto_front",
        ["Space", "By", "s1", "s2", "k", "Area (um2)", "Delay (ns)", "ADP", "MAE"],
        pareto_rows,
    )

    for bx, (space, points, pareto) in results.items():
        if scale != "small":
            assert space.grid_size() == 2916  # the paper's design-space size
        assert len(pareto) >= 5
        adps = [p.adp for p in pareto]
        maes = [p.mae for p in pareto]
        assert max(adps) / min(adps) > 10  # the front spans >1 order of magnitude in ADP
        assert max(maes) / min(maes) > 1.5  # ...and a real accuracy range
        # Pareto front is monotone: more ADP buys lower (or equal) MAE.
        ordered = sorted(pareto, key=lambda p: p.adp)
        assert all(b.mae <= a.mae + 1e-12 for a, b in zip(ordered, ordered[1:]))
