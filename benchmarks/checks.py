"""Output checks, computed independently of the package.

The statistics below are written from their definitions with plain numpy
least squares, so they share no code with ``icpseq.statistics``.  Every
check raises :class:`CheckError` with a message naming what differs.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import Series

#: Relative tolerance between a reported and a reference statistic.
STAT_RTOL = 1e-8

#: Rows each comparison side needs beyond the regression width.
MIN_SIZE_MARGIN = 5


class CheckError(Exception):
    """An output does not satisfy a required property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# reference statistics


def lagged_design(series: Series, subset: tuple[int, ...], lags: int):
    """Intercept, the subset's predictors, then every lag of Y and of all X."""
    y, x = series.y, series.x
    n = y.shape[0]
    cols = [np.ones(n - lags)] + [x[lags:, j] for j in subset]
    for k in range(1, lags + 1):
        cols.append(y[lags - k : n - k])
        cols.extend(x[lags - k : n - k, j] for j in range(x.shape[1]))
    return np.column_stack(cols), y[lags:]


def scaled_residuals(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    return resid / np.linalg.norm(resid)


def f2_pairs(n: int, grid, min_size: int, offset: int):
    """Each grid interval against its complement, both sides large enough."""
    bounds = [0, *grid, n]
    everything = np.arange(1, n + 1)
    pairs = []
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            block = np.arange(bounds[i] + 1, bounds[j] + 1)
            rest = np.setdiff1d(everything, block)
            if rest.size == 0:
                continue
            if np.sum(block > offset) >= min_size and np.sum(rest > offset) >= min_size:
                pairs.append((block, rest))
    return pairs


def block_statistic(family, combiner, r, design, pairs, offset) -> float:
    """``t1`` (coefficient distance) or ``t2`` (variance ratio - 1)."""

    def fit(block):
        rows = block[block > offset] - offset - 1
        xb, rb = design[rows], r[rows]
        gamma = np.linalg.lstsq(xb, rb, rcond=None)[0]
        resid = rb - xb @ gamma
        return gamma, float(resid @ resid) / rows.size

    values = []
    for left, right in pairs:
        g_l, s_l = fit(left)
        g_r, s_r = fit(right)
        if family == "t1":
            values.append(float(np.linalg.norm(g_l - g_r)))
        else:
            values.append(s_l / s_r - 1.0)
    values = np.abs(values)
    return float(values.max() if combiner == "max" else values.sum())


def _median_positive(values: np.ndarray) -> float:
    upper = values[np.triu_indices(values.shape[0], k=1)]
    return float(np.median(upper[upper > 0]))


def hsic(r: np.ndarray, t: np.ndarray, bandwidth) -> float:
    """Biased HSIC V-statistic ``tr(K H L H) / n^2`` with Gaussian kernels."""
    n = r.shape[0]
    dr = np.abs(r[:, None] - r[None, :])
    dt = np.abs(t[:, None] - t[None, :])
    if bandwidth is None:
        s_r, s_t = _median_positive(dr), _median_positive(dt)
    else:
        s_r = s_t = float(bandwidth)
    k = np.exp(-(dr**2) / (2 * s_r**2))
    ell = np.exp(-(dt**2) / (2 * s_t**2))
    h = np.eye(n) - 1.0 / n
    return abs(float(np.trace(k @ h @ ell @ h))) / n**2


def smooth(r: np.ndarray, t: np.ndarray, moment: str) -> float:
    """Mean square of a Nadaraya-Watson smooth over time, width n^(-1/5)."""
    n = r.shape[0]
    width = n**-0.2
    w = np.exp(-((t[:, None] - t[None, :]) ** 2) / (2 * width**2))
    w /= w.sum(axis=1, keepdims=True)
    z = r if moment == "mean" else r * r - np.mean(r * r)
    fitted = w @ z
    return float(np.mean(fitted**2))


def reference_statistics(series, subset, family, config, lags, pairs_offset, width):
    """The observed statistic(s) of one subset, keyed by family.

    Comparison pairs keep sides with at least ``width + MIN_SIZE_MARGIN``
    rows after ``pairs_offset``, as the CLI builds them.  For
    ``decoupled`` both halves are returned (``t1`` and ``t2``).
    """
    design, y = lagged_design(series, subset, lags)
    r = scaled_residuals(design, y)
    n = series.y.shape[0]
    if family in ("decoupled", "t1", "t2"):
        pairs = f2_pairs(n, config["grid"], width + MIN_SIZE_MARGIN, pairs_offset)
        families = ("t1", "t2") if family == "decoupled" else (family,)
        return {
            f: block_statistic(f, config["combiner"], r, design, pairs, lags)
            for f in families
        }
    t = (np.arange(r.shape[0]) + lags + 1.0) / n
    if family == "hsic":
        return {family: hsic(r, t, config["bandwidth"])}
    return {family: smooth(r, t, family.split("-")[1])}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=STAT_RTOL)


# ---------------------------------------------------------------------------
# payload checks


def _check_pvalue(p: float, resamples: int, what: str) -> None:
    k = p * (resamples + 1)
    _require(
        abs(k - round(k)) < 1e-9 and 1 <= round(k) <= resamples + 1,
        f"{what}: p-value {p!r} is not on the lattice k/{resamples + 1}",
    )


def _subset_of(indices) -> tuple[int, ...]:
    return tuple(j - 1 for j in indices)


def check_search(payload: dict, series: Series) -> None:
    """Search report: statistics, lattice, decisions, estimate, variables."""
    config = payload["config"]
    names = series.names
    d = len(names)
    family = config["statistic"] if config["test"] == "single" else "decoupled"
    resamples = config["resamples"]
    lag_set = config.get("lag_set")
    lag_list = lag_set if lag_set else [config["lags"]]
    alpha = config.get("per_lag_alpha", config["alpha"])
    rows = payload["subsets"]
    _require(
        len(rows) == len(lag_list) * 2**d,
        f"{len(rows)} subset rows for {len(lag_list)} lag(s) and d={d}",
    )
    _require(config["subsets_skipped"] == 0, "an exhaustive search skipped subsets")
    pairs_offset = max(lag_list)
    # The CLI sizes the comparison pairs for the widest design searched.
    width = 1 + d + pairs_offset * (d + 1)
    union: set[int] = set()
    per_lag_var_p = []
    for pos, lag in enumerate(lag_list):
        group = rows[pos * 2**d : (pos + 1) * 2**d]
        accepted_sets = []
        for row in group:
            subset = _subset_of(row["indices"])
            what = f"lag {lag} subset {list(row['indices'])}"
            _check_pvalue(row["p_value"], resamples, what)
            _require(
                row["accepted"] == (row["p_value"] > alpha),
                f"{what}: accepted={row['accepted']} with p={row['p_value']} and alpha={alpha}",
            )
            refs = reference_statistics(series, subset, family, config, lag, pairs_offset, width)
            _require(
                any(_close(row["statistic"], v) for v in refs.values()),
                f"{what}: statistic {row['statistic']!r} matches no reference {refs}",
            )
            if row["accepted"]:
                accepted_sets.append(set(subset))
        estimate = set.intersection(*accepted_sets) if accepted_sets else set()
        union |= estimate
        if set(series.parents) in accepted_sets:
            # The parent set's own test is rejected with probability up to
            # alpha; only when it is accepted does the coverage event hold
            # for certain.  The montecarlo workload checks its rate.
            _require(
                estimate <= set(series.parents),
                f"lag {lag}: estimate {sorted(estimate)} outside parents {series.parents}",
            )
        per_lag_var_p.append(
            [
                max(r["p_value"] for r in group if j + 1 not in r["indices"])
                for j in range(d)
            ]
        )
    _require(
        payload["estimate"] == [names[j] for j in sorted(union)],
        f"estimate {payload['estimate']} is not the intersection {sorted(union)}",
    )
    for j, var in enumerate(payload["variables"]):
        if len(lag_list) == 1:
            want = per_lag_var_p[0][j]
        else:
            want = min(1.0, len(lag_list) * min(p[j] for p in per_lag_var_p))
        _require(
            var["name"] == names[j] and math.isclose(var["p_value"], want, rel_tol=1e-12),
            f"variable {var['name']}: p-value {var['p_value']} != {want}",
        )


def check_test(payload: dict, series: Series, search_payload: dict) -> None:
    """Single-subset test: references, decision, and the search's row."""
    config = payload["config"]
    resamples = config["resamples"]
    subset = tuple(series.names.index(name) for name in payload["subset"])
    family = config["statistic"]
    lags = config["lags"]
    width = 1 + len(subset) + lags * (len(series.names) + 1)
    refs = reference_statistics(series, subset, family, config, lags, lags, width)
    _check_pvalue(payload["p_value"], resamples, "test")
    _require(
        payload["reject"] == (payload["p_value"] <= config["alpha"]),
        f"test: reject={payload['reject']} with p={payload['p_value']}",
    )
    if family == "decoupled":
        halves = (payload["coefficient"], payload["variance"])
        for half, key in zip(halves, ("t1", "t2")):
            _check_pvalue(half["p_value"], resamples, f"test {key} half")
            _require(half["null"]["count"] == resamples, f"test {key}: null count")
            _require(
                _close(half["statistic"], refs[key]),
                f"test {key}: statistic {half['statistic']!r} != reference {refs[key]!r}",
            )
        combined = min(1.0, 2.0 * min(h["p_value"] for h in halves))
        _require(payload["p_value"] == combined, "test: p-value is not the Bonferroni combination")
    else:
        _require(payload["null"]["count"] == resamples, "test: null count")
    _require(
        any(_close(payload["statistic"], v) for v in refs.values()),
        f"test: statistic {payload['statistic']!r} matches no reference {refs}",
    )
    wanted = [j + 1 for j in subset]
    rows = [r for r in search_payload["subsets"] if r["indices"] == wanted]
    _require(len(rows) == 1, f"search has no single row for subset {wanted}")
    _require(
        rows[0]["p_value"] == payload["p_value"],
        f"test p-value {payload['p_value']} != search p-value {rows[0]['p_value']}",
    )
    _require(
        _close(rows[0]["statistic"], payload["statistic"]),
        f"test statistic {payload['statistic']!r} != search statistic {rows[0]['statistic']!r}",
    )


def _three_sigma(alpha: float, reps: int) -> float:
    return 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)


def _check_rate(rate: float, reps: int, what: str) -> None:
    hits = rate * reps
    _require(abs(hits - round(hits)) < 1e-9, f"{what}: rate {rate} is not k/{reps}")


def check_level(payload: dict, statistics, reps: int) -> None:
    """Every rejection rate is at most alpha + 3 binomial standard errors."""
    rows = payload["rows"]
    _require([r["statistic"] for r in rows] == list(statistics), "level: statistics differ")
    for row in rows:
        alpha = row["alpha"]
        _require(row["replications"] == reps, "level: replication count")
        _check_rate(row["rejection_rate"], reps, f"level {row['statistic']}")
        bound = alpha + _three_sigma(alpha, reps)
        _require(
            row["rejection_rate"] <= bound,
            f"level {row['statistic']}: rejection rate {row['rejection_rate']} > {bound:.4f}",
        )


def check_coverage(payload: dict, reps: int, alpha: float) -> None:
    """Every coverage rate is at least 1 - alpha - 3 binomial standard errors."""
    rows = payload["rows"]
    _require(len(rows) >= 1, "coverage: no rows")
    bound = 1.0 - alpha - _three_sigma(alpha, reps)
    for row in rows:
        what = f"coverage n={row['n']} {row['combiner']}"
        _require(row["replications"] == reps, f"{what}: replication count")
        for key in ("coverage_rate", "reject_empty_rate", "reject_x3_rate"):
            _check_rate(row[key], reps, f"{what} {key}")
        _require(
            row["coverage_rate"] >= bound,
            f"{what}: coverage {row['coverage_rate']} < {bound:.4f}",
        )
