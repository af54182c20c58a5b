"""Result tables and the per-epoch CSV log.

A ReportTable holds cells keyed by (row, column) under one metric name and
renders as aligned text or CSV. Local tables carry the run's config hash and
seed in their meta lines; the static reference tables carry the published
numbers exactly as printed, labeled as not reproduced here.
"""

from __future__ import annotations

import numpy as np

from civsf.errors import DomainError
from civsf.fileio import write_atomic
from civsf.harness.metrics import BUCKET_LABELS

REFERENCE_LABEL = "paper reference — not reproduced"


class ReportTable:
    def __init__(self, title: str, metric: str, columns: tuple[str, ...],
                 meta: dict[str, str] | None = None):
        self.title = title
        self.metric = metric
        self.columns = tuple(columns)
        self.meta = dict(meta or {})
        self._rows: dict[str, dict[str, str]] = {}
        self._order: list[str] = []

    def set(self, row: str, column: str, value) -> None:
        if column not in self.columns:
            raise DomainError(f"unknown column '{column}' (have {self.columns})")
        if row not in self._rows:
            self._rows[row] = {}
            self._order.append(row)
        self._rows[row][column] = value if isinstance(value, str) else f"{value:.4f}"

    def _meta_lines(self, prefix: str) -> list[str]:
        return [f"{prefix} {k}: {v}" for k, v in self.meta.items()]

    def render_text(self) -> str:
        label_w = max([len(r) for r in self._order] + [len(self.metric)])
        col_w = {c: max(len(c), max((len(self._rows[r].get(c, "-")) for r in self._order),
                                    default=1)) for c in self.columns}
        lines = [self.title] + self._meta_lines("#")
        header = self.metric.ljust(label_w) + "  " + "  ".join(c.rjust(col_w[c]) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for r in self._order:
            cells = "  ".join(self._rows[r].get(c, "-").rjust(col_w[c]) for c in self.columns)
            lines.append(r.ljust(label_w) + "  " + cells)
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        lines = [f"# {self.title}"] + self._meta_lines("#")
        lines.append(",".join(["metric", "row"] + list(self.columns)))
        for r in self._order:
            lines.append(",".join([self.metric, r] +
                                  [self._rows[r].get(c, "") for c in self.columns]))
        return "\n".join(lines) + "\n"


def from_metrics(title: str, metric: str, framework: str,
                 metrics: dict[str, float], config_hash: str, seed: int) -> ReportTable:
    """One-column table from a fine-tune metrics dict; keys 'metric/bucket'
    become rows, bare keys become a single row named by the metric."""
    table = ReportTable(title, metric, (framework,),
                        {"config": config_hash, "seed": str(seed)})
    ordered = sorted(metrics, key=_metric_key)
    for key in ordered:
        row = key.split("/", 1)[1] if "/" in key else key
        table.set(row, framework, metrics[key])
    return table


def _metric_key(key: str):
    row = key.split("/", 1)[1] if "/" in key else key
    order = {"all": -1, **{b: i for i, b in enumerate(BUCKET_LABELS)}}
    return (order.get(row, len(BUCKET_LABELS)), row)


def write_log(path: str, records, config_hash: str, seed: int) -> None:
    """Per-epoch CSV: epoch,phase,framework,loss,seconds."""
    lines = [f"# config: {config_hash}", f"# seed: {seed}", "epoch,phase,framework,loss,seconds"]
    lines += [f"{r.epoch},{r.phase},{r.framework},{r.loss:.10g},{r.seconds:.3f}" for r in records]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


# -- published reference numbers ---------------------------------------------------

def render_reference_tables() -> list[ReportTable]:
    """The published result tables, cells exactly as printed."""
    meta = {"label": REFERENCE_LABEL}
    vsf_cols = ("SM-VSF", "CI-VSF")
    all_cols = ("SM-MR", "MM-MR", "SM-VSF", "CI-VSF")

    t1 = ReportTable("Soil Moisture Forecasting Downstream Task", "MAE", vsf_cols, meta)
    for row, a, b in [("0 - 25 days", "0.0406", "0.0179"),
                      ("25 - 50 days", "0.0429", "0.0184"),
                      ("50 - 100 days", "0.0549", "0.0189"),
                      ("More than 100 days", "0.0678", "0.0204")]:
        t1.set(row, "SM-VSF", a)
        t1.set(row, "CI-VSF", b)

    t2 = ReportTable("Soil Moisture Prediction Finetuned Models", "MAE", all_cols, meta)
    for row, cells in [("All", ("0.0615", "0.0458", "0.0483", "0.0282")),
                       ("T11SKA", ("0.1113", "0.0847", "0.1121", "0.0695")),
                       ("T15TUH", ("0.1283", "0.1365", "0.1181", "0.0834")),
                       ("T14SKC", ("0.1159", "0.1275", "0.1312", "0.0958")),
                       ("T16SBF", ("0.0821", "0.0631", "0.0895", "0.0544")),
                       ("T10SEJ", ("0.1003", "0.0718", "0.1011", "0.0587")),
                       ("T14RQT", ("0.0815", "0.0579", "0.0658", "0.0558"))]:
        for col, cell in zip(all_cols, cells):
            t2.set(row, col, cell)

    t3 = ReportTable("2019 Test 11 class average F1 Scores", "F1", all_cols, meta)
    for col, cell in zip(all_cols, ("0.5331", "0.5789", "0.5731", "0.6233")):
        t3.set("Average", col, cell)

    t4 = ReportTable("Missing Image Prediction Finetuned Models", "MSE", all_cols, meta)
    for row, cells in [("50%", ("792.68", "788.94", "362.02", "326.43")),
                       ("70%", ("820.46", "814.75", "394.32", "337.79")),
                       ("90%", ("826.23", "820.43", "404.32", "343.88"))]:
        for col, cell in zip(all_cols, cells):
            t4.set(row, col, cell)

    t5 = ReportTable("Image Forecasting Downstream Task", "MSE", vsf_cols, meta)
    for row, a, b in [("0 - 25 days", "340.13", "237.21"),
                      ("25 - 50 days", "591.54", "278.83"),
                      ("50 - 100 days", "1093.62", "358.23"),
                      ("More than 100 days", "1112.84", "457.27")]:
        t5.set(row, "SM-VSF", a)
        t5.set(row, "CI-VSF", b)
    return [t1, t2, t3, t4, t5]
