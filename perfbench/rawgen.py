"""Raw click-log generator for the wide-vocab workload.

Writes a tab-separated file in the layout `ctrzoo prepare` reads: a 0/1
label, then 12 categorical fields and 4 numeric fields. Categorical tokens
follow a truncated Zipf law per field, so a few tokens are common and most
are rare (the long tail falls under `--min-count` and encodes as OOV); each
field also has its own rate of empty (missing) cells. Numeric fields are
log-normal, sometimes missing.

Labels are Bernoulli draws from a known logistic model: a per-token weight
for every categorical cell (missing cells get their own weight), plus a
slope on each standardized log-numeric value. That logit is the oracle, so
a trained model's test AUC can be scored against the best achievable one.

The generator lives here, not in `ctrzoo.data`, so the benchmark keeps the
same inputs whatever the package does with its own synthetic helpers.
"""
from __future__ import annotations

import json

import numpy as np

N_CATEGORICAL = 12
N_NUMERIC = 4
TOKEN_WEIGHT_SCALE = 0.35
NUMERIC_SLOPE_SCALE = 0.3
MISSING_RATE_RANGE = (0.02, 0.25)
NUMERIC_MISSING_RATE = 0.05


def field_list():
    """The field descriptors `ctrzoo prepare --fields` takes."""
    cats = [{"name": f"c{i}", "kind": "categorical"} for i in range(N_CATEGORICAL)]
    nums = [{"name": f"n{j}", "kind": "numeric"} for j in range(N_NUMERIC)]
    return {"fields": cats + nums}


def _zipf_ranks(rng, count, support, exponent):
    weights = np.arange(1, support + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights / weights.sum())
    return np.minimum(np.searchsorted(cdf, rng.random(count)), support - 1)


def write_raw_clicks(raw_path, fields_path, count, support, exponent, seed, chunk=4096):
    """Write `count` raw records and their field list; return (oracle probabilities, labels).

    Same arguments give the same bytes. Rows are formatted `chunk` at a time
    so the text never sits in memory whole.
    """
    rng = np.random.default_rng([int(seed), 2105])
    logit = np.full(count, rng.normal(-0.3, 0.1))
    columns = []
    for _ in range(N_CATEGORICAL):
        ranks = _zipf_ranks(rng, count, support, exponent)
        token_ids = rng.permutation(support)  # token text carries no rank order
        weights = rng.normal(0.0, TOKEN_WEIGHT_SCALE, size=support + 1)  # last: missing
        missing = rng.random(count) < rng.uniform(*MISSING_RATE_RANGE)
        logit += np.where(missing, weights[support], weights[ranks])
        columns.append(np.where(missing, -1, token_ids[ranks]))
    for _ in range(N_NUMERIC):
        mu, sigma = rng.uniform(0.0, 3.0), rng.uniform(0.5, 1.5)
        values = rng.lognormal(mu, sigma, size=count)
        missing = rng.random(count) < NUMERIC_MISSING_RATE
        slope = rng.normal(0.0, NUMERIC_SLOPE_SCALE)
        logit += np.where(missing, 0.0, slope * (np.log(values) - mu) / sigma)
        columns.append(np.where(missing, np.nan, values))
    probs = 1.0 / (1.0 + np.exp(-logit))
    labels = (rng.random(count) < probs).astype(np.int64)

    with open(fields_path, "w", encoding="utf-8") as fh:
        json.dump(field_list(), fh)
    with open(raw_path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            cells = [labels[start:stop].astype(str).tolist()]
            for col in columns[:N_CATEGORICAL]:
                part = col[start:stop]
                cells.append(["" if t < 0 else format(t, "x") for t in part.tolist()])
            for col in columns[N_CATEGORICAL:]:
                part = col[start:stop]
                cells.append(["" if v != v else f"{v:.6g}" for v in part.tolist()])
            fh.write("".join("\t".join(row) + "\n" for row in zip(*cells)))
    return probs, labels
