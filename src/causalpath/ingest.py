"""Market-data pipeline: price CSVs to aligned ternary symbol streams.

Input files carry a header with columns "date" (ISO-8601) and "adj_close"
(positive decimal). Calendars of two markets are aligned on the union of
their trading days: a day where only one market traded gets the other
market's price linearly interpolated on the price level between its
neighboring own quotes (weekends and shared holidays never appear in the
union, so they are never interpolated); union days outside a market's span
are trimmed and reported. Daily percent changes quantize to {0, 1, 2} with a
strict threshold (default 0.8%): ties map to the middle symbol. A one-step
shift utility re-aligns the pair when the influence of interest crosses the
session boundary of a trading day.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .core import Alphabet, SymbolSeq

TERNARY = Alphabet(3)


@dataclass(frozen=True)
class PriceSeries:
    """Strictly date-increasing positive price records."""

    dates: tuple[dt.date, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.prices, dtype=np.float64)
        if len(self.dates) != arr.size:
            raise ValueError("dates and prices length mismatch")
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("prices must be positive and finite")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        object.__setattr__(self, "prices", arr)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class QuantizerSpec:
    """Ternary quantizer threshold on the daily percent change."""

    threshold: float = 0.008

    def __post_init__(self) -> None:
        # written so that NaN fails
        if not 0.0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")


def load_price_csv(path) -> PriceSeries:
    """Parse, sort, and validate a price CSV with date/adj_close columns."""
    with open(path, newline="") as fp:
        reader = csv.DictReader(fp)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        fields = {name.strip().lower(): name for name in reader.fieldnames}
        if "date" not in fields or "adj_close" not in fields:
            raise ValueError(f"{path}: need 'date' and 'adj_close' columns")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            try:
                day = dt.date.fromisoformat(row[fields["date"]].strip())
                price = float(row[fields["adj_close"]].strip())
            except (ValueError, AttributeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if price <= 0.0:
                raise ValueError(f"{path}:{lineno}: nonpositive price {price}")
            rows.append((day, price))
    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: duplicate date {d1}")
    return PriceSeries(tuple(d for d, _ in rows), np.array([p for _, p in rows]))


def align_calendars(
    a: PriceSeries, b: PriceSeries
) -> tuple[PriceSeries, PriceSeries, dict]:
    """Align two markets on the union of days where at least one traded.

    Returns the two aligned series plus metadata recording interpolated and
    trimmed dates. Interpolation is linear in the price level over calendar
    days between a market's neighboring own quotes.
    """
    union = sorted(set(a.dates) | set(b.dates))
    lo = max(a.dates[0], b.dates[0])
    hi = min(a.dates[-1], b.dates[-1])
    if lo > hi:
        raise ValueError("price series do not overlap in time")
    kept = [day for day in union if lo <= day <= hi]
    trimmed = [day for day in union if day < lo or day > hi]
    meta = {"trimmed": [d.isoformat() for d in trimmed]}

    def fill(series: PriceSeries, label: str) -> np.ndarray:
        known = dict(zip(series.dates, series.prices))
        ords = [d.toordinal() for d in series.dates]
        out = np.empty(len(kept))
        interpolated = []
        for idx, day in enumerate(kept):
            price = known.get(day)
            if price is None:
                o = day.toordinal()
                pos = np.searchsorted(ords, o)
                left, right = pos - 1, pos
                frac = (o - ords[left]) / (ords[right] - ords[left])
                price = float(
                    series.prices[left]
                    + frac * (series.prices[right] - series.prices[left])
                )
                interpolated.append(day.isoformat())
            out[idx] = price
        meta[f"interpolated_{label}"] = interpolated
        return out

    pa = fill(a, "a")
    pb = fill(b, "b")
    meta["interpolation"] = "linear on price level over calendar days"
    dates = tuple(kept)
    return PriceSeries(dates, pa), PriceSeries(dates, pb), meta


def pct_change_quantize(series: PriceSeries, spec: QuantizerSpec = QuantizerSpec()) -> SymbolSeq:
    """Ternary symbols from daily percent changes: 0 below -threshold,
    2 above +threshold, else 1 (strict inequalities, so exact-threshold moves
    count as no significant change). Output is one shorter than the input."""
    if len(series) < 2:
        raise ValueError("need at least two prices")
    r = np.diff(series.prices) / series.prices[:-1]
    symbols = np.ones(r.size, dtype=np.int64)
    symbols[r < -spec.threshold] = 0
    symbols[r > spec.threshold] = 2
    return SymbolSeq(TERNARY, symbols)


def shift_for_market_order(
    follower: SymbolSeq, leader: SymbolSeq
) -> tuple[SymbolSeq, SymbolSeq]:
    """Lag the leader one extra step relative to the follower.

    Pairs follower[t+1] with leader[t]; use when the leader's session on a
    trading day closes before the follower's, so the natural previous-step
    conditioning has to reach one step further back. Output is one step
    shorter; applying the shift twice lags by two.
    """
    if len(follower) != len(leader):
        raise ValueError("sequences must have equal length")
    if len(follower) < 2:
        raise ValueError("need at least two symbols to shift")
    return follower[1:], leader[:-1]


def write_symbol_csv(fp: IO[str], seq: SymbolSeq, dates: Optional[tuple[dt.date, ...]] = None) -> None:
    """Symbol CSV with a date column when dates are supplied, else an index."""
    if dates is not None:
        if len(dates) != len(seq):
            raise ValueError("dates and symbols length mismatch")
        fp.write("date,symbol\n")
        for day, sym in zip(dates, seq.data):
            fp.write(f"{day.isoformat()},{int(sym)}\n")
    else:
        fp.write("i,symbol\n")
        for i, sym in enumerate(seq.data, start=1):
            fp.write(f"{i},{int(sym)}\n")


def read_symbol_csv(path, alphabet: Optional[Alphabet] = None) -> SymbolSeq:
    """Read the 'symbol' column; the alphabet is inferred from the data
    (at least binary) unless given."""
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        header = [f.strip().lower() for f in next((r for r in reader if r), [])]
        if "symbol" not in header:
            raise ValueError(f"{path}: need a 'symbol' column")
        col = header.index("symbol")
        try:
            symbols = [int(row[col]) for row in reader if row]
        except IndexError:
            raise ValueError(f"{path}: a row has no 'symbol' field") from None
    if not symbols:
        raise ValueError(f"{path}: no symbols")
    if alphabet is None:
        alphabet = Alphabet(max(2, max(symbols) + 1))
    return SymbolSeq.from_list(alphabet, symbols)
