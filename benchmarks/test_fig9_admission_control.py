"""Figure 9 — cache admission control on the dense datasets (PCM, Synthetic).

The paper's Figure 9 compares GraphCache without ("C") and with ("C + AC")
the expensiveness-based admission control, against Grapes6, for Type B
workloads on the dense PCM and Synthetic datasets.  Panel (a) reports
query-time speedups, panel (b) the speedup in the number of sub-iso tests.

Paper shape: admission control raises the *time* speedup (expensive queries
are prioritised) even though the *sub-iso-count* speedup may drop.

Admission scores a query's verification work over its filtering work (search
nodes over label-path features), so every counter of this figure — sub-iso
tests, the slots AC leaves held, the queries it rejects — is the same on
every run; those are pinned below.  The wall-clock shape check stays as a
loose bar (time speedups on sub-second runs drown in scheduler noise).
"""

from __future__ import annotations

from _shared import experiment_cell
from repro.bench.reporting import print_figure

MIXES = ("0%", "20%", "50%")
DATASETS = ("pcm", "synthetic")
METHOD = "grapes6"
#: Smaller-than-default cache: pollution only shows when capacity is scarce.
CACHE_CAPACITY = 20
#: Per dataset: the sub-iso-test speedup averaged over the mixes without and
#: with AC (3 decimals), then per mix the slots C + AC holds at the end of the
#: run and the window queries it rejected.  C holds every slot, rejects none.
COUNTERS = {
    "pcm": {"subiso": (3.578, 3.122), "held": (13, 13, 18), "rejected": (15, 21, 17)},
    "synthetic": {"subiso": (3.708, 3.232), "held": (18, 19, 20), "rejected": (7, 14, 14)},
}


def run_figure9():
    cells = {}
    for dataset in DATASETS:
        for mix in MIXES:
            for admission in (False, True):
                cells[(dataset, mix, admission)] = experiment_cell(
                    dataset,
                    METHOD,
                    mix,
                    policy="hd",
                    cache_capacity=CACHE_CAPACITY,
                    admission_control=admission,
                )
    return cells


def _rejected(cell) -> int:
    return sum(len(report.plan.rejected_serials) for report in cell.cache.window_manager.reports)


def test_fig9_admission_control(benchmark):
    cells = benchmark.pedantic(run_figure9, rounds=1, iterations=1)

    time_series = {}
    subiso_series = {}
    for dataset in DATASETS:
        for admission in (False, True):
            label = f"{dataset.upper()} {'C + AC' if admission else 'C'}"
            time_series[label] = {
                mix: cells[(dataset, mix, admission)].time_speedup for mix in MIXES
            }
            subiso_series[label] = {
                mix: cells[(dataset, mix, admission)].subiso_speedup for mix in MIXES
            }

    print_figure(
        "Figure 9(a)",
        "query-time speedup vs Grapes6, Type B workloads, admission control off/on",
        time_series,
        note="paper shape: C + AC ≥ C for query time on the dense datasets",
    )
    print_figure(
        "Figure 9(b)",
        "sub-iso-test speedup vs Grapes6, Type B workloads, admission control off/on",
        subiso_series,
        note="paper shape: the sub-iso-count speedup may drop when AC is enabled",
    )

    counters = {
        dataset: {
            "subiso": tuple(
                round(sum(subiso_series[f"{dataset.upper()} {label}"].values()) / len(MIXES), 3)
                for label in ("C", "C + AC")
            ),
            "held": tuple(len(cells[(dataset, mix, True)].cache) for mix in MIXES),
            "rejected": tuple(_rejected(cells[(dataset, mix, True)]) for mix in MIXES),
        }
        for dataset in DATASETS
    }
    print(f"Figure 9 counters (C + AC per mix {', '.join(MIXES)}): {counters}")
    for dataset in DATASETS:
        plain = [cells[(dataset, mix, False)] for mix in MIXES]
        assert [len(cell.cache) for cell in plain] == [CACHE_CAPACITY] * len(MIXES)
        assert [_rejected(cell) for cell in plain] == [0] * len(MIXES)
    assert counters == COUNTERS

    # Shape check: averaged over the workload mixes, admission control must
    # not hurt the time speedup materially.
    for dataset in DATASETS:
        base = sum(cells[(dataset, mix, False)].time_speedup for mix in MIXES) / len(MIXES)
        with_ac = sum(cells[(dataset, mix, True)].time_speedup for mix in MIXES) / len(MIXES)
        assert with_ac >= 0.85 * base, (dataset, base, with_ac)
