"""Prometheus text exposition (ddm_serve's GET /metrics, ddm_cli --metrics=prom):
parsing and deltas between two scrapes."""


def parse(text):
    """Maps each sample name to its value: counters and gauges by name,
    histograms as `<name>_sum` and `<name>_count`. Buckets, comments and
    any line that is not a `name value` sample (a CLI's other stderr output)
    are skipped."""
    samples = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 2 or line.startswith("#") or "{" in parts[0]:
            continue
        try:
            samples[parts[0]] = float(parts[1])
        except ValueError:
            continue
    return samples


def delta(before, after, name):
    """after - before for one sample; a sample absent from a scrape is 0
    (the registry creates metrics lazily, at first use)."""
    return after.get(name, 0.0) - before.get(name, 0.0)


def ratio(before, after, numerator, denominator):
    """delta(numerator) / delta(denominator), 0 when the denominator did not move."""
    d = delta(before, after, denominator)
    return delta(before, after, numerator) / d if d else 0.0


def merge(scrapes):
    """Sums the samples of several scrapes (one per ddm_cli process)."""
    total = {}
    for scrape in scrapes:
        for name, value in scrape.items():
            total[name] = total.get(name, 0.0) + value
    return total
