"""Benchmark: Figure 6 — best error vs training size, all ten models."""
from repro.experiments import figure6

from _report import report, run_once, series


def test_figure6_trainsize(benchmark, figure_runtime):
    out = run_once(benchmark, figure6.run, seed=0, runtime=figure_runtime)
    report("figure6_trainsize", out)
    rows = out["rows"]
    apps = {r[0] for r in rows}
    largest_n = max(r[1] for r in rows)
    # Paper claim: CPR is the most accurate model on the high-dimensional
    # *categorical* application at moderate-to-large training sizes.
    best = series(
        rows, 2, 3, where=lambda r: r[0] == "amg" and r[1] == largest_n
    )
    overall = min(min(v) for v in best.values())
    assert min(best["cpr"]) <= 1.3 * overall, best
    # Everywhere else CPR stays a usable model (its advantage on the real
    # Stampede2 surfaces is larger than on our smoother simulators, which
    # flatter additive models like SGR/GP on the numeric-only kernels).
    for app in apps:
        per = series(rows, 2, 3, where=lambda r: r[0] == app and r[1] == largest_n)
        overall = min(min(v) for v in per.values())
        assert min(per["cpr"]) <= 6.0 * overall, (app, per)
    # CPR improves (or holds) with training size on every app.
    for app in apps:
        cpr = sorted(
            (r[1], r[3]) for r in rows if r[0] == app and r[2] == "cpr"
        )
        assert cpr[-1][1] <= cpr[0][1] * 1.1, (app, cpr)
