"""Benchmark inputs, generated with numpy alone from the benchmark seed.

The inputs do not go through ``icpseq.generators``, so a change to the
package's generators cannot change what the benchmark measures.  Every
CSV is written with ``repr`` floats, which the package reads back
bit-exactly, so the reference statistics in ``checks.py`` see the same
numbers as the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Series:
    """One input file: response, predictors, and the known parent columns."""

    y: np.ndarray
    x: np.ndarray
    names: tuple[str, ...]
    parents: tuple[int, ...]

    def write(self, path: Path) -> None:
        rows = [",".join(("Y",) + self.names)]
        for yi, xi in zip(self.y, self.x):
            rows.append(",".join(repr(float(v)) for v in (yi, *xi)))
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tag]))


def scm(n: int, parents: int, noise: int, seed: int, tag: int) -> Series:
    """Structural model over three regimes of equal length.

    Columns are ``X1 .. Xp`` (the parents of Y), then the child ``X{p+1}``
    of Y, then ``noise`` independent standard-normal columns.  The
    response equation ``Y = sum_j b_j X_j + s * N`` never changes.  Each
    parent's mean and scale shift strongly between regimes, and the
    child's coefficient on Y and its noise scale change too, so every
    subset that misses a parent or holds the child breaks invariance.
    Subsets of parents plus noise columns stay invariant.
    """
    gen = _rng(seed, tag)
    regime = np.minimum(3 * np.arange(n) // n, 2)
    shifts = np.array([[0.0, 2.5, -2.0], [0.0, -2.0, 1.5], [0.0, 1.5, 3.0]])
    scales = np.array([[1.0, 2.0, 0.7], [1.0, 0.5, 2.0], [1.0, 1.5, 0.6]])
    cols = []
    for j in range(parents):
        base = 0.8 * cols[-1] if cols else 0.0
        k = j % 3
        cols.append(base + shifts[k, regime] + scales[k, regime] * gen.standard_normal(n))
    signs = gen.choice([-1.0, 1.0], size=parents)
    beta = signs * gen.uniform(0.5, 1.5, size=parents)
    y = np.column_stack(cols) @ beta + gen.uniform(0.5, 1.0) * gen.standard_normal(n)
    child_coef = np.array([1.0, -1.0, 0.3])[regime]
    child_scale = np.array([1.0, 1.0, 3.0])[regime]
    cols.append(child_coef * y + child_scale * gen.standard_normal(n))
    cols.extend(gen.standard_normal(n) for _ in range(noise))
    d = len(cols)
    return Series(
        y=y,
        x=np.column_stack(cols),
        names=tuple(f"X{j + 1}" for j in range(d)),
        parents=tuple(range(parents)),
    )


def var_shock(n: int, seed: int, tag: int, strength: float = 30.0) -> Series:
    """VAR(1) in (X, Y, Z) whose X equation is replaced once by a shock.

    Y depends at the same instant on X only, so the invariant set of
    contemporaneous predictors is ``{X}`` at any lag order of at least 1.
    The shock time is drawn from the middle half of the series, and the
    shock propagates through the unchanged equations after it.
    """
    gen = _rng(seed, tag)
    burn = 100
    total = n + burn
    eps = gen.standard_normal((total, 3))
    shock_at = burn + int(gen.integers(n // 4, 3 * n // 4))
    x = np.zeros(total)
    y = np.zeros(total)
    z = np.zeros(total)
    for t in range(1, total):
        if t == shock_at:
            x[t] = strength
        else:
            x[t] = 0.5 * x[t - 1] + 0.1 * y[t - 1] + 0.1 * z[t - 1] + eps[t, 0]
        y[t] = 0.5 * x[t] + 0.1 * x[t - 1] + 0.2 * y[t - 1] + 0.2 * z[t - 1] + eps[t, 1]
        z[t] = (
            0.2 * x[t] + 0.2 * y[t] + 0.4 * x[t - 1] + 0.4 * y[t - 1]
            + 0.2 * z[t - 1] + eps[t, 2]
        )
    keep = slice(burn, total)
    return Series(
        y=y[keep].copy(),
        x=np.column_stack([x[keep], z[keep]]),
        names=("X", "Z"),
        parents=(0,),
    )
