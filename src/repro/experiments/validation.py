"""Shape validation: does each reproduced experiment match the paper?

Absolute numbers are out of scope (DESIGN.md §2); what must hold are the
paper's *qualitative claims* — orderings, categories, crossovers,
no-degradation guarantees. This module is the one place those claims are
encoded: one checklist per experiment, rendered as a PASS/DIVERGE summary
into EXPERIMENTS.md, so a reader can see at a glance which claims
reproduce and which are known divergences. Each check's detail string
prints every number its condition reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from repro.config import LDSConfig
from repro.experiments.common import ExperimentResult
from repro.workloads.registry import HIGH_APPS, LOW_APPS


@dataclass(frozen=True)
class Check:
    experiment_id: str
    claim: str
    passed: bool
    detail: str = ""


def _gmean_row(result: ExperimentResult) -> Dict:
    return result.row_for("app", "GMEAN")


def _series(values: Iterable[float], digits: int = 3) -> str:
    return "/".join(f"{value:.{digits}f}" for value in values)


def _per_app(values: Dict[str, float], digits: int = 2) -> str:
    return ", ".join(f"{app} {value:.{digits}f}" for app, value in values.items())


# ----------------------------------------------------------------------
# Per-experiment checklists
# ----------------------------------------------------------------------

def validate_table2(result: ExperimentResult) -> List[Check]:
    matches = [row for row in result.rows if row["category"] == row["paper_category"]]
    b2b = [row["app"] for row in result.rows if row["b2b"]]
    return [
        Check(
            "Table 2", "every app lands in its PTW-PKI category",
            len(matches) == len(result.rows),
            f"{len(matches)}/{len(result.rows)} match",
        ),
        Check("Table 2", "only NW launches back-to-back kernels", b2b == ["NW"],
              f"b2b: {b2b}"),
    ]


def validate_fig02_03(result: ExperimentResult) -> List[Check]:
    sizes = [row for row in result.rows if row["l2_entries"] != "perfect"]
    ratios = [row["mean_walk_ratio"] for row in sizes]
    gmeans = [row["gmean_speedup"] for row in sizes]
    at_8k = result.row_for("l2_entries", 8192)["gmean_speedup"]
    perfect = result.row_for("l2_entries", "perfect")
    high = {app: perfect[f"{app}_speedup"] for app in HIGH_APPS}
    low_largest = {app: sizes[-1][f"{app}_speedup"] for app in LOW_APPS}
    low_perfect = {app: perfect[f"{app}_speedup"] for app in LOW_APPS}
    return [
        Check("Fig 2", "walks fall monotonically with TLB size",
              all(b <= a * 1.02 for a, b in zip(ratios, ratios[1:])),
              _series(ratios, 2)),
        Check("Fig 2", "large TLB removes most walks (paper ~-85%)",
              ratios[-1] < 0.45 * ratios[0],
              f"{ratios[-1]:.2f} of {ratios[0]:.2f}"),
        Check("Fig 3", "performance rises with TLB size (paper +14.7% at 8K)",
              all(b >= a * 0.98 for a, b in zip(gmeans, gmeans[1:]))
              and at_8k > 1.08 and gmeans[-1] > gmeans[0] * 1.1,
              f"{_series(gmeans, 2)}; 8K {at_8k:.3f}"),
        Check("Fig 3", "perfect L2 TLB is the upper bound",
              perfect["gmean_speedup"] >= gmeans[-1] * 0.99,
              f"perfect {perfect['gmean_speedup']:.2f} vs {gmeans[-1]:.2f}"),
        Check("Fig 3", "High apps are TLB-bound (perfect L2 TLB > 1.4x each)",
              all(value > 1.4 for value in high.values()), _per_app(high)),
        Check("Fig 3", "SRAD/PRK/SSSP are insensitive",
              all(value < 1.15 for value in low_largest.values())
              and all(value < 1.2 for value in low_perfect.values()),
              f"largest TLB {_per_app(low_largest)}; "
              f"perfect {_per_app(low_perfect)}"),
    ]


def validate_fig04_05(result: ExperimentResult) -> List[Check]:
    from repro.experiments.fig04_05_utilization import summarize

    summary = summarize(result)
    lds_size = LDSConfig().size_bytes
    largest_request = max(row["lds_bytes_per_wg_max"] for row in result.rows)
    lds_gaps = [row["lds_idle_median"] for row in result.rows if row["uses_lds"]]
    utilization = [row["icache_util_max"] for row in result.rows]
    fetch_gaps = [row["icache_idle_median"] for row in result.rows]
    return [
        Check("Fig 4a", "most apps request no LDS (paper ~70%)",
              summary["fraction_no_lds"] >= 0.5,
              f"{100 * summary['fraction_no_lds']:.0f}% request none"),
        Check("Fig 4a", "no app requests the full per-CU LDS",
              largest_request < lds_size,
              f"largest request {largest_request:.0f} of {lds_size} B"),
        Check("Fig 4b", "LDS users leave idle port gaps (paper tens of cycles)",
              bool(lds_gaps) and min(lds_gaps) >= 2,
              f"{len(lds_gaps)} LDS users, smallest median gap "
              f"{min(lds_gaps, default=0.0):.1f}"),
        Check("Fig 5a", "only a minority always fill the I-cache (paper ~24%)",
              summary["fraction_always_full_icache"] <= 0.4,
              f"{100 * summary['fraction_always_full_icache']:.0f}% always full"),
        Check("Fig 5a", "utilization is a mix: many never fill it, some fill it, "
              "some barely touch it",
              summary["fraction_never_full_icache"] >= 0.4
              and max(utilization) > 0.9 and min(utilization) < 0.3,
              f"{100 * summary['fraction_never_full_icache']:.0f}% never full, "
              f"highest {max(utilization):.2f}, lowest {min(utilization):.2f}"),
        Check("Fig 5b", "the fetch port idles between accesses "
              "(paper ~10-20 cycles)",
              min(fetch_gaps) >= 1 and max(fetch_gaps) >= 4,
              f"median gaps {min(fetch_gaps):.1f}-{max(fetch_gaps):.1f}"),
    ]


def validate_fig11(result: ExperimentResult) -> List[Check]:
    busiest = max(result.rows, key=lambda row: row["util_mean"])
    return [
        Check("Fig 11", "no app fills the I-cache on every launch "
              "(flush headroom)",
              busiest["util_mean"] < 0.999,
              f"highest mean {busiest['util_mean']:.3f} ({busiest['app']})"),
    ]


def validate_fig13a(result: ExperimentResult) -> List[Check]:
    gmean = _gmean_row(result)
    one = gmean["one_tx_per_way"]
    naive = gmean["naive_replacement"]
    aware = gmean["instruction_aware"]
    flush = gmean["instruction_aware_flush"]
    srad = result.row_for("app", "SRAD")
    atax = result.row_for("app", "ATAX")
    flush_gain = {
        app: result.row_for("app", app)["instruction_aware_flush"]
        - result.row_for("app", app)["instruction_aware"]
        for app in ("GEV", "SRAD", "NW")
    }
    return [
        Check("Fig 13a", "one translation per way gains ~nothing",
              one < 1.10 and one < aware,
              f"{one:.3f} vs instruction-aware {aware:.3f}"),
        Check("Fig 13a", "naive replacement < instruction-aware",
              naive < aware, f"{naive:.3f} vs {aware:.3f}"),
        Check("Fig 13a", "naive replacement degrades code-heavy SRAD",
              srad["naive_replacement"] < 1.0, f"{srad['naive_replacement']:.3f}"),
        Check("Fig 13a", "kernel-boundary flush adds on top "
              "(paper +1.2%, ATAX +35.4%)",
              flush >= aware * 0.995
              and atax["instruction_aware_flush"] >= atax["instruction_aware"],
              f"{flush:.3f} vs {aware:.3f}; ATAX "
              f"{atax['instruction_aware_flush']:.3f} vs "
              f"{atax['instruction_aware']:.3f}"),
        Check("Fig 13a", "flush is neutral for single-kernel GEV/SRAD and "
              "back-to-back NW",
              all(abs(gain) < 0.03 for gain in flush_gain.values()),
              ", ".join(f"{app} {gain:+.3f}" for app, gain in flush_gain.items())),
    ]


def validate_fig13b(result: ExperimentResult) -> List[Check]:
    gmean = _gmean_row(result)
    lds, icache, combined = gmean["lds"], gmean["icache"], gmean["icache+lds"]
    hm = result.row_for("app", "GMEAN-H+M")["icache+lds"]
    atax = result.row_for("app", "ATAX")["icache+lds"]
    bicg = result.row_for("app", "BICG")["icache+lds"]
    gups = result.row_for("app", "GUPS")["icache+lds"]
    others = {
        app: result.row_for("app", app)["icache+lds"]
        for app in ("GUPS", "NW", "SSSP", "PRK", "SRAD")
    }
    runner_up = max(others, key=others.get)
    low = {app: result.row_for("app", app)["icache+lds"] for app in LOW_APPS}
    return [
        Check("Fig 13b", "combined design wins big (paper +30.1%)",
              combined > 1.20, f"{combined:.3f}"),
        Check("Fig 13b", "combined > LDS-only and > IC-only",
              combined > max(lds, icache),
              f"{lds:.3f}/{icache:.3f}/{combined:.3f}"),
        Check("Fig 13b", "each structure alone wins (paper +8.6% / +13.6%)",
              lds > 1.05 and icache > 1.05, f"LDS {lds:.3f}, IC {icache:.3f}"),
        Check("Fig 13b", "IC-only gmean > LDS-only gmean (paper +13.6 vs +8.6)",
              icache > lds, f"{icache:.3f} vs {lds:.3f}"),
        Check("Fig 13b", "H+M-only gmean exceeds the all-apps gmean",
              hm > combined, f"{hm:.3f} vs {combined:.3f}"),
        Check("Fig 13b", "ATAX and BICG are among the biggest winners",
              min(atax, bicg) > others[runner_up],
              f"ATAX {atax:.2f}, BICG {bicg:.2f}; "
              f"best of GUPS/NW/Low {runner_up} {others[runner_up]:.2f}"),
        Check("Fig 13b", "GUPS gains little (paper +9.14%)",
              1.0 < gups < 1.2, f"{gups:.3f}"),
        Check("Fig 13b", "Low apps are not degraded",
              all(value > 0.95 for value in low.values()), _per_app(low, 3)),
    ]


def validate_fig13c(result: ExperimentResult) -> List[Check]:
    mean = result.row_for("app", "MEAN")
    lds, icache = mean["lds_energy"], mean["icache_energy"]
    combined = mean["icache+lds_energy"]
    best = min(
        row["icache+lds_energy"] for row in result.rows if row["app"] != "MEAN"
    )
    return [
        Check("Fig 13c", "every scheme reduces mean DRAM energy "
              "(paper -4.1/-5.2/-9.2%)",
              lds < 1.0 and icache < 1.02 and combined < 1.0,
              f"{lds:.3f}/{icache:.3f}/{combined:.3f}"),
        Check("Fig 13c", "combined saves the most (within 0.02)",
              combined <= min(lds, icache) + 0.02,
              f"{combined:.3f} vs {lds:.3f}/{icache:.3f}"),
        Check("Fig 13c", "best per-app saving is substantial (paper -27.3%)",
              best < 0.85, f"best {best:.3f}"),
    ]


def validate_fig14a(result: ExperimentResult) -> List[Check]:
    rows = {row["app"]: row["shared_pct"] for row in result.rows}
    high = [rows[a] for a in ("ATAX", "BICG", "MVT", "GUPS", "BFS")]
    return [
        Check("Fig 14a", "GEV shares least; most apps share heavily",
              min(high) > rows["GEV"] and min(high) > 50 and rows["GEV"] < 40,
              f"GEV {rows['GEV']:.0f}%, others {min(high):.0f}-{max(high):.0f}%"),
    ]


def validate_fig14b(result: ExperimentResult) -> List[Check]:
    mean = result.row_for("app", "MEAN")
    lds, icache = mean["lds_walks"], mean["icache_walks"]
    combined = mean["icache+lds_walks"]
    srad = result.row_for("app", "SRAD")["icache+lds_walks"]
    return [
        Check("Fig 14b", "each structure alone removes walks "
              "(paper -33.5% / -40.6%)",
              lds < 0.85 and icache < 0.85, f"LDS {lds:.2f}, IC {icache:.2f}"),
        Check("Fig 14b", "combined removes the most walks (paper -72.9%)",
              combined < min(lds, icache),
              f"{lds:.2f}/{icache:.2f}/{combined:.2f}"),
        Check("Fig 14b", "SRAD's ~zero walks stay ~unchanged",
              0.9 <= srad <= 1.1, f"{srad:.2f}"),
    ]


def validate_fig14c(result: ExperimentResult) -> List[Check]:
    by_size = {row["page_size"]: row["gmean_speedup"] for row in result.rows}
    small, medium, huge = by_size[4096], by_size[65536], by_size[2097152]
    return [
        Check("Fig 14c", "benefit shrinks with page size (paper 30/18/5.6%)",
              small > medium > huge * 0.999
              and small > 1.2 and medium > 1.1 and huge > 0.9,
              f"{small:.2f}/{medium:.2f}/{huge:.2f}"),
    ]


def validate_fig15(result: ExperimentResult) -> List[Check]:
    from repro.experiments.fig15_entries import theoretical_max_entries

    limits = theoretical_max_entries()
    peaks = {
        part: max(row[f"{part}_entries"] for row in result.rows)
        for part in ("lds", "icache", "total")
    }
    gups = result.row_for("app", "GUPS")["pct_of_max"]
    srad = result.row_for("app", "SRAD")["lds_entries"]
    atax = result.row_for("app", "ATAX")["lds_entries"]
    return [
        Check("Fig 15", "entries bounded by 16K (12K LDS + 4K IC)",
              all(peaks[part] <= limits[part] for part in peaks),
              "peaks " + ", ".join(
                  f"{part} {peaks[part]} of {limits[part]}" for part in peaks
              )),
        Check("Fig 15", "reach-hungry apps drive structures near capacity",
              gups > 60.0, f"GUPS uses {gups:.0f}% of the bound"),
        Check("Fig 15", "LDS-using SRAD gains fewer LDS entries than ATAX",
              srad < atax, f"SRAD {srad}, ATAX {atax}"),
    ]


def validate_fig16a(result: ExperimentResult) -> List[Check]:
    by_sharers = {row["cus_per_icache"]: row["gmean_speedup"] for row in result.rows}
    one, two, four, eight = (by_sharers[n] for n in (1, 2, 4, 8))
    return [
        Check("Fig 16a", "more sharers help (paper 17.3% -> 38.4%)",
              eight > one and four > one
              and two >= one * 0.98 and eight >= four * 0.97,
              _series((one, two, four, eight))),
    ]


def validate_fig16b(result: ExperimentResult) -> List[Check]:
    arms = {row["arm"]: row["gmean_speedup"] for row in result.rows}
    none, both_10, both_100 = arms["no_extra"], arms["ic_lds_10"], arms["ic_lds_100"]
    return [
        Check("Fig 16b", "worst-case wires keep a clear win (paper +9.4%)",
              both_100 > 1.05, f"{both_100:.3f}"),
        Check("Fig 16b", "degradation grows with wire latency",
              both_100 <= min(both_10, none) * 1.01 and both_10 <= none * 1.01,
              f"{_series((none, both_10, both_100))} at +0/+10/+100"),
        Check("Fig 16b", "+100 cycles on one structure hurts less than on both",
              arms["ic_only_100"] >= both_100 * 0.99
              and arms["lds_only_100"] >= both_100 * 0.99,
              f"IC {arms['ic_only_100']:.3f}, LDS {arms['lds_only_100']:.3f}, "
              f"both {both_100:.3f}"),
    ]


def validate_fig16c(result: ExperimentResult) -> List[Check]:
    gmean = _gmean_row(result)
    ducati, combined = gmean["ducati"], gmean["icache_lds"]
    both = gmean["ducati_icache_lds"]
    srad = result.row_for("app", "SRAD")["ducati"]
    return [
        Check("Fig 16c", "DUCATI alone gains little (paper +4.9%)",
              1.0 < ducati < combined, f"{ducati:.3f} vs {combined:.3f}"),
        Check("Fig 16c", "DUCATI composes with IC+LDS (paper +40.7%)",
              both > max(combined, ducati),
              f"{both:.3f} vs {combined:.3f}/{ducati:.3f}"),
        Check("Fig 16c", "DUCATI does not degrade SRAD",
              srad > 0.95, f"{srad:.3f}"),
    ]


def validate_ablation(result: ExperimentResult) -> List[Check]:
    small = result.row_for("segment_bytes", 32)["gmean_speedup"]
    large = result.row_for("segment_bytes", 64)["gmean_speedup"]
    return [
        Check("§6.3.1", "64B segments change nothing (capacity misses)",
              abs(large - small) / small < 0.05,
              f"{small:.3f} vs {large:.3f}"),
    ]


def validate_lookup_order(result: ExperimentResult) -> List[Check]:
    lds_first = result.row_for("order", "lds-first")["gmean_speedup"]
    icache_first = result.row_for("order", "icache-first")["gmean_speedup"]
    return [
        Check("Lookup order", "both orders win big",
              lds_first > 1.15 and icache_first > 1.15,
              f"LDS-first {lds_first:.3f}, I-cache-first {icache_first:.3f}"),
        Check("Lookup order", "the paper's LDS-first order is at least "
              "competitive (2-cycle private probe)",
              lds_first >= icache_first * 0.97,
              f"{lds_first:.3f} vs {icache_first:.3f}"),
    ]


def validate_packing(result: ExperimentResult) -> List[Check]:
    by_density = {row["tx_per_line"]: row["gmean_speedup"] for row in result.rows}
    one, two, four, eight, sixteen = (by_density[n] for n in (1, 2, 4, 8, 16))
    return [
        Check("I-cache packing", "one translation per line gains ~nothing "
              "(Figure 8b)", one < 1.15, f"{one:.3f}"),
        Check("I-cache packing", "eight per line delivers most of the benefit",
              eight > one + 0.2, f"{eight:.3f} vs {one:.3f}"),
        Check("I-cache packing", "gains rise up to eight per line",
              two >= one * 0.98 and four >= two * 0.98 and eight >= four * 0.98,
              f"{_series((one, two, four, eight))} at 1/2/4/8"),
        Check("I-cache packing", "returns diminish past eight per line",
              sixteen < eight * 1.15, f"{sixteen:.3f} at 16 vs {eight:.3f} at 8"),
    ]


def validate_dedup(result: ExperimentResult) -> List[Check]:
    gmean = _gmean_row(result)
    gains = {
        app: result.row_for("app", app)["icache_lds_dedup"]
        - result.row_for("app", app)["icache_lds"]
        for app in ("ATAX", "MVT", "BICG")
    }
    gev = result.row_for("app", "GEV")["lds_fills_skipped"]
    atax = result.row_for("app", "ATAX")["lds_fills_skipped"]
    return [
        Check("Dedup filter", "the filter does not hurt overall",
              gmean["icache_lds_dedup"] >= gmean["icache_lds"] * 0.98,
              f"{gmean['icache_lds_dedup']:.3f} vs {gmean['icache_lds']:.3f}"),
        Check("Dedup filter", "it helps a shared-heavy High app",
              max(gains.values()) > 0.0,
              ", ".join(f"{app} {gain:+.3f}" for app, gain in gains.items())),
        Check("Dedup filter", "CU-partitioned GEV skips fewer LDS fills than ATAX",
              gev < atax, f"GEV {gev}, ATAX {atax}"),
    ]


#: experiment_id (as produced by each harness) -> validator. Every
#: harness in the report has one except the descriptive subregion study.
VALIDATORS: Dict[str, Callable[[ExperimentResult], List[Check]]] = {
    "Table 2": validate_table2,
    "Figures 2 + 3": validate_fig02_03,
    "Figures 4 + 5": validate_fig04_05,
    "Figure 11": validate_fig11,
    "Figure 13a": validate_fig13a,
    "Figure 13b": validate_fig13b,
    "Figure 13c": validate_fig13c,
    "Figure 14a": validate_fig14a,
    "Figure 14b": validate_fig14b,
    "Figure 14c": validate_fig14c,
    "Figure 15": validate_fig15,
    "Figure 16a": validate_fig16a,
    "Figure 16b": validate_fig16b,
    "Figure 16c": validate_fig16c,
    "Section 6.3.1": validate_ablation,
    "Ablation: lookup order": validate_lookup_order,
    "Ablation: I-cache packing": validate_packing,
    "Extension: dedup filter": validate_dedup,
}


def validate(results: List[ExperimentResult]) -> List[Check]:
    """Run every applicable checklist over the produced results."""

    checks: List[Check] = []
    for result in results:
        validator = VALIDATORS.get(result.experiment_id)
        if validator is not None:
            checks.extend(validator(result))
    return checks


def render_checklist(checks: List[Check]) -> str:
    """Markdown PASS/DIVERGE table."""

    lines = [
        "## Validation summary (paper claims vs measured)",
        "",
        "| experiment | claim | status | detail |",
        "| --- | --- | --- | --- |",
    ]
    for check in checks:
        status = "PASS" if check.passed else "DIVERGE"
        lines.append(
            f"| {check.experiment_id} | {check.claim} | {status} | {check.detail} |"
        )
    passed = sum(1 for check in checks if check.passed)
    lines.append("")
    lines.append(f"**{passed}/{len(checks)} claims reproduced.**")
    return "\n".join(lines)
