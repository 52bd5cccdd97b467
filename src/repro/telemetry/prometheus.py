"""Prometheus text-format exposition over :class:`MetricRegistry`.

The registry's typed families map 1:1 onto Prometheus types:

=====================  =====================================================
Counter                ``<prefix>_<name>_total`` (counter)
Gauge                  ``<prefix>_<name>`` (gauge)
Histogram              cumulative ``_bucket{le="..."}`` series over the
                       occupied buckets plus the mandatory ``le="+Inf"``,
                       ``_sum`` and ``_count`` — and, because the modeled
                       clock makes them deterministic, derived
                       ``_p50`` / ``_p95`` / ``_p99`` gauges so a scraper
                       without histogram_quantile() still sees the tail
=====================  =====================================================

Metric names are sanitized to the exposition grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): dots and dashes become underscores, so
``service.rpc.store.ns`` exposes as ``repro_service_rpc_store_ns_*``.
Everything is a single text/plain page — the shape ``promtool check
metrics`` and any Prometheus scraper accept — produced without any
client-library dependency, matching the repo's stdlib-only rule.

:func:`validate_prometheus_text` is the CI-side checker: it re-parses a
page and enforces the structural invariants a scraper relies on (TYPE
before samples, one TYPE per family, bucket cumulativity/monotonicity,
``+Inf`` == ``_count``).
"""

from __future__ import annotations

import re

from .metrics import Counter, Gauge, Histogram, MetricRegistry

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE = re.compile(
    r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)(?:\s+\S+)?\Z"
)


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """``service.rpc.store.ns`` -> ``repro_service_rpc_store_ns``."""
    flat = _SANITIZE.sub("_", f"{prefix}_{name}" if prefix else name)
    if not _NAME_OK.match(flat):
        flat = "_" + flat
    return flat


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _histogram_lines(flat: str, h: Histogram, out: list[str]) -> None:
    out.append(f"# HELP {flat} {h.name} (modeled units)")
    out.append(f"# TYPE {flat} histogram")
    cum = 0
    for edge, n in h.nonzero_buckets():
        cum += n
        if edge != float("inf"):
            out.append(f'{flat}_bucket{{le="{_fmt(edge)}"}} {cum}')
    out.append(f'{flat}_bucket{{le="+Inf"}} {h.count}')
    out.append(f"{flat}_sum {_fmt(h.sum)}")
    out.append(f"{flat}_count {h.count}")
    for key, q in h.percentiles().items():
        qname = f"{flat}_{key.replace('.', '_')}"
        out.append(f"# TYPE {qname} gauge")
        out.append(f"{qname} {_fmt(q)}")


def prometheus_text(reg: MetricRegistry, *, prefix: str = "repro",
                    extra: dict[str, float] | None = None) -> str:
    """Render ``reg`` as one Prometheus text-format exposition page.

    ``extra`` adds ad-hoc gauges (e.g. uptime, inflight) that live
    outside the registry; keys are sanitized like metric names.
    """
    out: list[str] = []
    for name in reg.names():
        m = reg.get(name)
        flat = sanitize_metric_name(name, prefix)
        if isinstance(m, Counter):
            out.append(f"# HELP {flat}_total {name}")
            out.append(f"# TYPE {flat}_total counter")
            out.append(f"{flat}_total {_fmt(m.value)}")
        elif isinstance(m, Gauge):
            out.append(f"# HELP {flat} {name}")
            out.append(f"# TYPE {flat} gauge")
            out.append(f"{flat} {_fmt(m.value)}")
        elif isinstance(m, Histogram):
            _histogram_lines(flat, m, out)
    for name in sorted(extra or {}):
        flat = sanitize_metric_name(name, prefix)
        out.append(f"# TYPE {flat} gauge")
        out.append(f"{flat} {_fmt(float(extra[name]))}")
    return "\n".join(out) + "\n"


def validate_prometheus_text(text: str) -> list[str]:
    """Structural check of an exposition page; returns violations."""
    errors: list[str] = []
    typed: dict[str, str] = {}
    # per-histogram bucket bookkeeping: counts must be cumulative and
    # the +Inf bucket must exist and equal _count
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                errors.append(f"line {lineno}: malformed TYPE line")
                continue
            if parts[2] in typed:
                errors.append(f"line {lineno}: family {parts[2]!r} "
                              f"declared twice")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE.match(line.strip())
        if not m:
            errors.append(f"line {lineno}: unparsable sample {line!r}")
            continue
        name, labels, value_s = m.group(1), m.group(2) or "", m.group(3)
        try:
            value = float(value_s.replace("+Inf", "inf"))
        except ValueError:
            errors.append(f"line {lineno}: bad value {value_s!r}")
            continue
        base = re.sub(r"_(total|bucket|sum|count)\Z", "", name)
        if name not in typed and base not in typed:
            errors.append(f"line {lineno}: sample {name!r} before TYPE")
        if typed.get(base) == "histogram":
            if name.endswith("_bucket"):
                le = re.search(r'le="([^"]*)"', labels)
                if not le:
                    errors.append(f"line {lineno}: bucket without le label")
                    continue
                edge = float(le.group(1).replace("+Inf", "inf"))
                buckets.setdefault(base, []).append((edge, value))
            elif name.endswith("_count"):
                counts[base] = value
        if typed.get(base) == "counter" and value < 0:
            errors.append(f"line {lineno}: negative counter {name!r}")
    for base, series in buckets.items():
        edges = [e for e, _ in series]
        vals = [v for _, v in series]
        if edges != sorted(edges):
            errors.append(f"{base}: bucket edges out of order")
        if vals != sorted(vals):
            errors.append(f"{base}: bucket counts not cumulative")
        if not edges or edges[-1] != float("inf"):
            errors.append(f"{base}: missing le=\"+Inf\" bucket")
        elif base in counts and vals[-1] != counts[base]:
            errors.append(f"{base}: +Inf bucket {vals[-1]} != "
                          f"_count {counts[base]}")
    for base, typ in typed.items():
        if typ == "histogram" and base not in buckets:
            errors.append(f"{base}: histogram with no bucket samples")
    return errors
