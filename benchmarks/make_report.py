"""Consolidate benchmark results into one text report.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/make_report.py

Reads every ``results/*.json`` the bench targets saved and renders them as
aligned tables into ``results/REPORT.txt`` (and stdout) — the measured
counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import format_table  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

TITLES = {
    "fig01": "Figure 1: SVM on clustered higgs (motivation)",
    "fig02_glm": "Figure 2 (GLM): strategies on clustered vs shuffled criteo-like",
    "fig02_dl": "Figure 2 (DL): strategies on clustered cifar-like",
    "fig03_04": "Figures 3-4: shuffled-order signatures",
    "tab01": "Table 1 (measured): strategy summary",
    "fig05": "Figure 5: multi- vs single-process CorgiPile",
    "fig07": "Figure 7: ImageNet-like end-to-end",
    "fig08": "Figure 8: clustered cifar-like, two batch sizes",
    "fig09": "Figure 9: clustered yelp-like text classification",
    "fig10": "Figure 10: Adam instead of SGD",
    "fig11": "Figure 11: in-DB end-to-end (5 datasets x HDD/SSD)",
    "tab02": "Table 2: dataset registry",
    "tab03": "Table 3: Shuffle Once vs CorgiPile accuracy",
    "fig12": "Figure 12: GLM convergence by strategy",
    "fig13": "Figure 13: per-epoch overhead",
    "fig14a": "Figure 14(a): buffer-size sensitivity",
    "fig14b": "Figure 14(b): block-size sweep",
    "fig15": "Figure 15: in-DB CorgiPile vs PyTorch",
    "fig16": "Figure 16: mini-batch end-to-end",
    "fig17": "Figure 17: mini-batch convergence",
    "fig18": "Figure 18: linear + softmax regression",
    "fig19": "Figure 19: feature-ordered datasets",
    "fig20": "Figure 20: random vs sequential throughput",
    "appB": "Appendix B: resource usage",
    "theory_hd": "Section 4.2: measured h_D",
    "theory_bounds": "Section 4.2: Theorem 1/2 bounds vs buffer size",
    "theory_time": "Section 4.2: physical time vs vanilla SGD",
    "theory_identities": "Appendix B: proof identities (analytic vs Monte Carlo)",
    "ablation_sampled": "Ablation: sampled vs full-pass CorgiPile",
    "ablation_blockonly": "Ablation: tuple-level shuffle vs block size",
    "ablation_distributed": "Ablation: data-parallel workers",
}


def main() -> int:
    if not RESULTS_DIR.exists():
        print("no results/ directory — run `pytest benchmarks/ --benchmark-only` first")
        return 1
    sections: list[str] = ["CorgiPile reproduction — measured benchmark results", "=" * 60]
    for stem, title in TITLES.items():
        path = RESULTS_DIR / f"{stem}.json"
        if not path.exists():
            sections.append(f"\n[{stem}] missing — bench not run yet")
            continue
        rows = json.loads(path.read_text())
        if not isinstance(rows, list) or not rows:
            continue
        sections.append("")
        sections.append(format_table(rows, title=title))
    report = "\n".join(sections) + "\n"
    out = RESULTS_DIR / "REPORT.txt"
    out.write_text(report)
    print(report)
    print(f"(written to {out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
