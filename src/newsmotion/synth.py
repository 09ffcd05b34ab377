"""Deterministic synthetic fixture: prices, news articles, and aliases.

The generator plants two independent kinds of structure. Prices are
mean-reverting log-price paths, with designated groups of tickers tied
to a shared driver so their pairwise correlations clear the graph-build
threshold; one member per group never appears in the news, so it can
only be predicted through propagation. News sentences encode each
mentioned ticker's realized next-day movement through direction verbs
(flipped with a configurable noise probability), so text features carry
signal that price history alone does not.

Everything is drawn from one seeded generator in a fixed order, so a
given config always produces byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta
from pathlib import Path

import numpy as np

from .config import SynthConfig
from .dates import DateRange
from .errors import ValidationError
from .ingest import Article, write_articles

_STEMS = (
    "Ardex", "Boltaric", "Cavenor", "Dorreth", "Elmquist", "Fenwick",
    "Gorlan", "Hadrell", "Ibecor", "Jentara", "Kelvast", "Lomira",
    "Madsen", "Norvex", "Ostrel", "Pellway", "Quorell", "Rendark",
    "Selvano", "Tammerin", "Ulverton", "Vexmont", "Weldrin", "Xandero",
    "Yarwick", "Zelmont", "Abrelin", "Brenholt", "Cordale", "Dunmore",
    "Everhart", "Farrowex", "Gildane", "Hollveth", "Invenor", "Jorvik",
    "Kestwick", "Lanphier", "Morvale", "Nexholt", "Orrindale", "Prestofin",
    "Quainor", "Ravelin", "Stenmark", "Tollgrim", "Umberson", "Vandrell",
    "Werrick", "Aldermont", "Birchfell", "Crowvane",
)
_SUFFIXES = ("Corp", "Group", "Holdings", "Industries", "Systems")

_UP_VERBS = ("surge", "rise", "jump", "gain", "climb", "advance", "rally")
_DOWN_VERBS = ("drop", "fall", "plunge", "slump", "shrink", "slide", "retreat")

_TAILS = (
    "in early trading",
    "in late trading",
    "as volume swelled",
    "amid brisk turnover",
    "in U.S. trading",
    "as investors weighed the outlook",
    "after a choppy session",
    "by 1.5 percent before the close",
    "as U.S. markets churned",
    "while benchmarks drifted",
    "on heavy turnover",
    "as traders rotated positions",
    "after the opening bell",
    "into the closing bell",
    "as sentiment shifted",
    "alongside sector peers",
    "by 2.25 percent at midday",
    "by 0.8 percent after lunch",
    "despite a quiet tape",
    "as desks squared books",
)

_DIRECT_TEMPLATES = (
    "{name} shares {verb} {tail}.",
    "Shares of {name} {verb} {tail}.",
)

# Category flavor sentences; price-rise and price-drop words already occur
# in every direct sentence, so those two categories have no templates here.
_CATEGORY_TEMPLATES = (
    "{name} presented a new product line to partners.",
    "{name} set plans to unveil a refreshed lineup.",
    "{name} weighed a takeover approach from a rival.",
    "{name} explored a merger with a regional peer.",
    "{name} faced a fresh lawsuit over contracts.",
    "{name} neared a settlement in a lingering litigation.",
    "{name} posted quarterly revenue in line with plans.",
    "{name} scheduled its quarterly earnings briefing.",
    "{name} lifted its stake in a component supplier.",
    "{name} secured new funding for expansion.",
    "{name} dismissed talk of bankruptcy risk.",
    "{name} retained advisers for a restructuring review.",
    "{name} met federal regulators over pending regulation.",
    "{name} answered questions from government reviewers.",
    "{name} drew an upgrade from sell-side analysts.",
    "{name} absorbed a cautious rating from analysts.",
)

_FILLERS = (
    "Trading across U.S. exchanges stayed orderly through the session.",
    "Desks reported steady flows with little drama by the close.",
    "Volume across the tape ran near seasonal averages.",
    "Futures drifted overnight before settling flat.",
    "Breadth finished mixed across the major averages.",
)


def _ar1_path(eps: np.ndarray, phi: float, sigma: float) -> np.ndarray:
    """Stationary AR(1) with marginal standard deviation sigma."""
    out = np.empty_like(eps)
    innovation = sigma * np.sqrt(1.0 - phi * phi)
    out[0] = sigma * eps[0]
    for t in range(1, len(eps)):
        out[t] = phi * out[t - 1] + innovation * eps[t]
    return out


def _trading_dates(start: Date, end: Date) -> list[Date]:
    return [d for d in DateRange(start, end).days() if d.weekday() < 5]


@dataclass(frozen=True)
class FixtureSummary:
    articles_path: Path
    prices_path: Path
    aliases_path: Path
    tickers: int
    active_tickers: int
    quiet_tickers: int
    trading_days: int
    articles: int
    expected_samples: int


def generate_synthetic_fixture(config: SynthConfig, out_dir: str | Path) -> FixtureSummary:
    """Write articles.jsonl, prices.csv, and aliases.csv under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    n = config.tickers
    names = [f"{_STEMS[i]} {_SUFFIXES[i % len(_SUFFIXES)]}" for i in range(n)]
    symbols = [f"{_STEMS[i][:3].upper()}{i}" for i in range(n)]

    # Group layout: the first group_count*group_size tickers, in index order.
    # The last actives_per_group..group_size-1 members of each group stay out
    # of the news; odd groups give their quiet members a negative loading.
    group_of = [-1] * n
    loading = np.zeros(n)
    quiet = [False] * n
    for g in range(config.group_count):
        for s in range(config.group_size):
            i = g * config.group_size + s
            group_of[i] = g
            sign = -1.0 if (s >= config.actives_per_group and g % 2 == 1) else 1.0
            loading[i] = sign * config.driver_weight
            quiet[i] = s >= config.actives_per_group
    active = [i for i in range(n) if not quiet[i]]
    if not active:
        raise ValidationError("configuration leaves no ticker available for news")

    dates = _trading_dates(config.start, config.end)
    t_count = len(dates)
    phi = config.mean_reversion
    sigma = config.volatility

    bases = rng.uniform(18.0, 160.0, size=n)
    driver_eps = rng.standard_normal((max(config.group_count, 1), t_count))
    idio_eps = rng.standard_normal((n, t_count))
    drivers = np.stack(
        [_ar1_path(driver_eps[g], phi, sigma) for g in range(max(config.group_count, 1))]
    )
    log_prices = np.empty((n, t_count))
    for i in range(n):
        own = _ar1_path(idio_eps[i], phi, sigma)
        g = group_of[i]
        if g >= 0:
            w = loading[i]
            log_prices[i] = w * drivers[g] + np.sqrt(1.0 - w * w) * own
        else:
            log_prices[i] = own

    # Round-trip through the written representation so movements match what
    # any consumer of the CSV will compute.
    close_strs = [
        [f"{bases[i] * np.exp(log_prices[i][t]):.4f}" for t in range(t_count)]
        for i in range(n)
    ]
    closes = np.asarray([[float(s) for s in row] for row in close_strs])
    movement = np.sign(np.diff(closes, axis=1)).astype(np.int64)  # (n, t_count-1)

    articles: list[Article] = []
    expected_samples = 0
    for t, day in enumerate(dates):
        if day < config.news_start or t + 1 >= t_count:
            continue
        n_obs = int(rng.poisson(config.samples_per_day))
        n_obs = min(max(n_obs, 2), len(active))
        chosen = sorted(rng.choice(len(active), size=n_obs, replace=False).tolist())
        observed = [active[c] for c in chosen]

        directions: list[tuple[int, int]] = []
        for i in observed:
            realized = int(movement[i][t])
            if realized == 0:
                continue
            flipped = bool(rng.random() < config.noise)
            directions.append((i, -realized if flipped else realized))
        expected_samples += len(directions)

        sentences: list[str] = []
        for i, direction in directions:
            verbs = _UP_VERBS if direction > 0 else _DOWN_VERBS
            verb = verbs[rng.integers(len(verbs))]
            surface = symbols[i] if rng.random() < 0.1 else names[i]
            template = _DIRECT_TEMPLATES[rng.integers(len(_DIRECT_TEMPLATES))]
            tail = _TAILS[rng.integers(len(_TAILS))]
            sentences.append(template.format(name=surface, verb=verb, tail=tail))
            if rng.random() < 0.3:
                flavor = _CATEGORY_TEMPLATES[rng.integers(len(_CATEGORY_TEMPLATES))]
                sentences.append(flavor.format(name=names[i]))

        ups = [i for i, d in directions if d > 0]
        downs = [i for i, d in directions if d < 0]
        while ups and downs:
            roll = rng.random()
            if roll < 0.18 and len(ups) >= 2:
                d0, u1, u2 = downs.pop(0), ups.pop(0), ups.pop(0)
                verb = _DOWN_VERBS[rng.integers(len(_DOWN_VERBS))]
                tail = _TAILS[rng.integers(len(_TAILS))]
                sentences.append(
                    f"{names[d0]} shares {verb} behind {names[u1]} "
                    f"and {names[u2]} {tail}."
                )
            elif roll < 0.55:
                u0, d0 = ups.pop(0), downs.pop(0)
                up_verb = _UP_VERBS[rng.integers(len(_UP_VERBS))]
                down_verb = _DOWN_VERBS[rng.integers(len(_DOWN_VERBS))]
                tail = _TAILS[rng.integers(len(_TAILS))]
                sentences.append(
                    f"{names[u0]} shares {up_verb} while {names[d0]} "
                    f"shares {down_verb} {tail}."
                )
            else:
                break

        sentences.append(_FILLERS[rng.integers(len(_FILLERS))])
        if rng.random() < 0.5:
            sentences.append(_FILLERS[rng.integers(len(_FILLERS))])
        order = rng.permutation(len(sentences))
        shuffled = [sentences[j] for j in order]

        publish_day = day
        if day.weekday() == 4 and rng.random() < 0.12:
            publish_day = day + timedelta(days=1)
        parts = [shuffled]
        if len(shuffled) >= 6:
            half = len(shuffled) // 2
            parts = [shuffled[:half], shuffled[half:]]
        for k, part in enumerate(parts, start=1):
            articles.append(
                Article(
                    id=f"{publish_day.isoformat()}-{k}",
                    date=publish_day,
                    title=f"Market notes for {publish_day.isoformat()} ({k})",
                    body=" ".join(part),
                    source="synthwire",
                )
            )

    articles_path = out_dir / "articles.jsonl"
    prices_path = out_dir / "prices.csv"
    aliases_path = out_dir / "aliases.csv"
    write_articles(articles, articles_path)

    with prices_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,ticker,close\n")
        order = sorted(range(n), key=lambda i: symbols[i])
        for t, day in enumerate(dates):
            for i in order:
                fh.write(f"{day.isoformat()},{symbols[i]},{close_strs[i][t]}\n")

    with aliases_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("# alias,ticker\n")
        for i in range(n):
            fh.write(f"{names[i]},{symbols[i]}\n")
            fh.write(f"{symbols[i]},{symbols[i]}\n")

    return FixtureSummary(
        articles_path=articles_path,
        prices_path=prices_path,
        aliases_path=aliases_path,
        tickers=n,
        active_tickers=len(active),
        quiet_tickers=n - len(active),
        trading_days=t_count,
        articles=len(articles),
        expected_samples=expected_samples,
    )
