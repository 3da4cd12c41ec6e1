"""EXPERIMENTS.md's Figure 3/4 "Measured" cells agree with the results lock.

Every number in those cells is derived here from ``tests/golden/all.txt``
(the pinned ``sophon-repro --seed 7 all`` output), formatted the way the
document writes it.  A change that moves a golden number therefore fails
here until the document moves with it, and a decimal in a Measured cell
that no golden value accounts for fails too.
"""

import re
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("all.txt")
DOCUMENT = ROOT / "EXPERIMENTS.md"

#: Policy rows as the golden prints them: epoch seconds, traffic, vs No-Off
#: ratio and offloaded count.
Row = Tuple[float, str, str, int]


def golden_section(text: str, title: str) -> List[str]:
    lines = text.splitlines()
    start = lines.index(f"== {title} ==") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("== ")), len(lines))
    return lines[start:end]


def policy_rows(lines: List[str], with_cores: bool = False) -> Dict[tuple, Row]:
    rows: Dict[tuple, Row] = {}
    for line in lines:
        cells = re.split(r"\s{2,}", line.strip())
        if with_cores and len(cells) == 5 and cells[0].isdigit():
            cores, policy, epoch, traffic, offloaded = cells
            rows[(int(cores), policy)] = (float(epoch[:-2]), traffic, "", int(offloaded))
        elif not with_cores and len(cells) == 6 and cells[2].endswith("B"):
            policy, epoch, traffic, vs, _, offloaded = cells
            rows[(policy,)] = (float(epoch[:-2]), traffic, vs[:-1], int(offloaded))
    return rows


def megabytes(traffic: str) -> float:
    assert traffic.endswith(" MB"), traffic
    return float(traffic[:-3])


def measured_cells(text: str, heading: str) -> Dict[Tuple[str, str], str]:
    """``(table caption, row label) -> Measured cell`` for one section."""
    section = text.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
    cells: Dict[Tuple[str, str], str] = {}
    caption = ""
    for line in section.splitlines():
        if line.endswith(":") and not line.startswith("|"):
            caption = line[:-1]
        elif line.startswith("|") and not line.startswith("|---"):
            row = [cell.strip() for cell in line.strip("|").split("|")]
            if row[-1] != "Measured":
                cells[(caption, row[0])] = row[-1]
    return cells


def ratio(numerator: float, denominator: float) -> str:
    return f"{numerator / denominator:.2f}×"


def expected_cells() -> Dict[Tuple[str, str], List[str]]:
    golden = GOLDEN.read_text()
    oi = policy_rows(golden_section(golden, "Figure 3 (OpenImages)"))
    inet = policy_rows(golden_section(golden, "Figure 3 (ImageNet)"))
    fig4 = policy_rows(golden_section(golden, "Figure 4"), with_cores=True)
    gains = re.search(r"marginal gain per added core: (.*)", golden).group(1).split(", ")
    benefit = re.search(r"\[openimages-\w+\] .*\(benefit: ([\d.]+%)\)", golden).group(1)

    def epoch(rows, *key) -> float:
        return rows[key][0]

    def traffic(rows, *key) -> float:
        return megabytes(rows[key][1])

    def seconds(value: float, digits: int = 2) -> str:
        return f"{value:.{digits}f} s"

    oi_offloaded = oi[("sophon",)][3]  # of the 2,000 samples; Figure 1b gives the benefit
    return {
        ("OpenImages", "All-Off traffic vs No-Off"): [oi[("all-off",)][2] + "×"],
        ("OpenImages", "FastFlow decision"): [f"({oi[('fastflow',)][3]} samples)"],
        ("OpenImages", "Resize-Off traffic reduction"): [
            ratio(traffic(oi, "no-off"), traffic(oi, "resize-off"))
        ],
        ("OpenImages", "SOPHON traffic reduction"): [
            ratio(traffic(oi, "no-off"), traffic(oi, "sophon"))
        ],
        ("OpenImages", "SOPHON offloaded fraction"): [benefit, f"({oi_offloaded}/2000)"],
        ("OpenImages", "Best epoch time"): [
            seconds(epoch(oi, "sophon")),
            seconds(epoch(oi, "no-off")),
            ratio(epoch(oi, "no-off"), epoch(oi, "sophon")) + " faster",
        ],
        ("ImageNet", "All-Off traffic vs No-Off"): [inet[("all-off",)][2] + "×"],
        ("ImageNet", "FastFlow decision"): [],
        ("ImageNet", "Resize-Off traffic vs No-Off"): [inet[("resize-off",)][2] + "× increase"],
        ("ImageNet", "SOPHON traffic reduction"): [
            ratio(traffic(inet, "no-off"), traffic(inet, "sophon"))
        ],
        ("ImageNet", "SOPHON epoch time"): [
            f"{seconds(epoch(inet, 'sophon'))} vs {seconds(epoch(inet, 'no-off'))}",
            ratio(epoch(inet, "no-off"), epoch(inet, "sophon")) + " faster",
            f"({seconds(epoch(inet, 'resize-off'))})",
        ],
        ("", "All-Off longest training time; worse still at 1 core"): [
            *{seconds(epoch(fig4, cores, "all-off"), 1) for cores in (2, 3, 4, 5)},
            seconds(epoch(fig4, 1, "all-off"), 1) + " at 1 core",
        ],
        ("", "FastFlow consistently declines"): [
            f"{max(fig4[(cores, 'fastflow')][3] for cores in range(6))} samples"
        ],
        ("", "Resize-Off lowest traffic but CPU-bottlenecked; worse than No-Off at ≤2 cores"): [
            f"{traffic(fig4, 5, 'resize-off'):.0f} MB floor",
            seconds(epoch(fig4, 1, "resize-off"), 1) + " (1 core)",
            seconds(epoch(fig4, 2, "resize-off"), 1) + " (2 cores)",
            "No-Off " + seconds(epoch(fig4, 2, "no-off"), 1),
            seconds(epoch(fig4, 3, "resize-off"), 1) + " at 3 cores",
        ],
        ("", "SOPHON shortest time at every core count"): [
            " / ".join(f"{epoch(fig4, cores, 'sophon'):.2f}" for cores in range(1, 6)) + " s"
        ],
        (
            "",
            "Diminishing returns (paper: 0→1 saves 22 s, 4→5 saves 9 s, ≈2.4× ratio)",
        ): [f"0→1 saves {gains[0][:-1]} s", f"4→5 saves {gains[-1][:-1]} s"],
    }


def decimals(text: str) -> List[str]:
    return re.findall(r"\d+\.\d+", text)


@pytest.fixture(scope="module")
def cells():
    text = DOCUMENT.read_text()
    found = measured_cells(text, "Figure 3")
    found.update(measured_cells(text, "Figure 4"))
    return found


def test_every_measured_cell_is_checked(cells):
    assert set(cells) == set(expected_cells())


@pytest.mark.parametrize("key", sorted(expected_cells()), ids=lambda key: key[1][:40])
def test_measured_cell_matches_golden(cells, key):
    cell, expected = cells[key], expected_cells()[key]
    for fragment in expected:
        assert fragment in cell, f"{key}: {fragment!r} not in {cell!r}"
    # Every decimal in the cell is one the golden accounts for.
    assert set(decimals(cell)) <= {d for fragment in expected for d in decimals(fragment)}


def test_abstract_band_matches_figure_3(cells):
    """The "1.2–2.2×" band line spans the two datasets' measured ratios."""
    text = DOCUMENT.read_text()
    band = re.search(r"measured (\S+)× traffic, (\S+)× time", text)
    assert band is not None
    expected = expected_cells()
    traffic = sorted(
        expected[(name, "SOPHON traffic reduction")][0][:-1] for name in ("ImageNet", "OpenImages")
    )
    time = [
        expected[("ImageNet", "SOPHON epoch time")][1].split("×")[0],
        expected[("OpenImages", "Best epoch time")][2].split("×")[0],
    ]
    assert band.group(1) == "–".join(traffic)
    assert band.group(2) == "–".join(time)
