"""Spans written by perfbench_trace: durations, self time and per-layer sums."""

from collections import namedtuple, defaultdict

Span = namedtuple("Span", "id parent name request start end")


def read(path):
    spans = []
    with open(path) as f:
        for line in f:
            if line.strip():
                i, parent, name, request, start, end = line.split()
                spans.append(Span(int(i), int(parent), name, int(request), int(start), int(end)))
    return spans


def self_times(spans):
    """Span id -> its duration minus the part its children cover (children
    run sequentially inside their parent, so their durations add)."""
    covered = defaultdict(int)
    for s in spans:
        if s.parent:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def layer_of(name):
    """`poly.compiled` -> `poly`; spans of the replay itself (`job`,
    `request`, `pass.*`) belong to the benchmark, layer `bench`."""
    head = name.split(".", 1)[0]
    return head if "." in name and head != "pass" else "bench"


def by_name(spans):
    """name -> list of durations in seconds."""
    out = defaultdict(list)
    for s in spans:
        out[s.name].append((s.end - s.start) * 1e-9)
    return out


def layer_self_seconds(spans):
    """layer -> total self time in seconds."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[layer_of(s.name)] += selfs[s.id] * 1e-9
    return dict(out)



def per_request(spans, names):
    """request id -> summed duration in seconds of its spans named in `names`."""
    out = defaultdict(float)
    for s in spans:
        if s.name in names:
            out[s.request] += (s.end - s.start) * 1e-9
    return dict(out)


def paired_differences(minuend, subtrahend):
    """minuend[k] - subtrahend[k] for each request id k in both, by id."""
    return [minuend[k] - subtrahend[k] for k in sorted(minuend.keys() & subtrahend.keys())]
