"""Prometheus exposition parse-back: the test oracle for ``render_prometheus``.

Parses text exposition into a :class:`MetricsSnapshot` so round-trip tests
can require ``parse_prometheus(render_prometheus(s)) == s``.
"""

import dataclasses
import re
from typing import Dict, List, Optional, Tuple

from repro.telemetry.registry import HistogramValue, MetricsSnapshot, SeriesKey, SeriesValue


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(?P<name>[A-Za-z_][A-Za-z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def _parse_labels(text: Optional[str]) -> Tuple[Tuple[str, str], ...]:
    if not text:
        return ()
    return tuple(
        (m.group("name"), _unescape_label(m.group("value")))
        for m in _LABEL_RE.finditer(text)
    )


@dataclasses.dataclass
class _HistogramAccumulator:
    buckets: List[Tuple[float, int]] = dataclasses.field(default_factory=list)
    inf_count: int = 0
    sum: float = 0.0
    count: int = 0

    def finish(self) -> HistogramValue:
        ordered = sorted(self.buckets)
        bounds = tuple(b for b, _ in ordered)
        per_bucket: List[int] = []
        previous = 0
        for _, cumulative in ordered:
            per_bucket.append(cumulative - previous)
            previous = cumulative
        per_bucket.append(self.inf_count - previous)  # the +Inf overflow
        return HistogramValue(
            buckets=bounds,
            bucket_counts=tuple(per_bucket),
            sum=self.sum,
            count=self.count,
        )


def parse_prometheus(text: str) -> MetricsSnapshot:
    """Parse exposition text back into a snapshot (the round-trip twin)."""
    kinds: Dict[str, str] = {}
    scalars: Dict[SeriesKey, float] = {}
    histograms: Dict[SeriesKey, _HistogramAccumulator] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                kinds[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw_line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        value = _parse_value(match.group("value"))
        base = None
        for suffix in ("_bucket", "_sum", "_count"):
            candidate = name[: -len(suffix)] if name.endswith(suffix) else None
            if candidate and kinds.get(candidate) == "histogram":
                base = (candidate, suffix)
                break
        if base is not None:
            hist_name, suffix = base
            bare_labels = tuple(
                (k, v) for k, v in labels if not (suffix == "_bucket" and k == "le")
            )
            acc = histograms.setdefault(
                (hist_name, bare_labels), _HistogramAccumulator()
            )
            if suffix == "_bucket":
                le = dict(labels)["le"]
                if le == "+Inf":
                    acc.inf_count = int(value)
                else:
                    acc.buckets.append((_parse_value(le), int(value)))
            elif suffix == "_sum":
                acc.sum = value
            else:
                acc.count = int(value)
        else:
            scalars[(name, labels)] = value
    series: Dict[SeriesKey, SeriesValue] = dict(scalars)
    for key, acc in histograms.items():
        series[key] = acc.finish()
    return MetricsSnapshot(series=series, kinds=kinds)
