"""Tests for config loading and the stage cache keys."""

from __future__ import annotations

import configparser
from datetime import date
from pathlib import Path

import pytest

from newsmotion import cli
from newsmotion.config import SCHEMA, SECTIONS, load_config
from newsmotion.errors import ConfigError
from newsmotion.dates import DateRange
from newsmotion.manifest import text_sha256

from test_acceptance import PIPELINE_CONFIG

README = Path(__file__).resolve().parent.parent / "README.md"

# Each unit's cache key under the default config; the acceptance config
# changes only the keys of the units that read [embedding], [lexicon] or
# [training].
PINNED_KEYS = {
    "default": {
        "synth": "63552b707fe57e053ce5c95aecb1d889af6fa02bc4bdbcf9f6487e7f069dbd9a",
        "prices": "b7a0e05dfa6c0525a685a9933cb995e3f9cac9b409a25db7c6a05c61436aa756",
        "ingest": "734cbd83b2b1e1015022e1a854134a3de4b7b9597b2c463d62c7a9f3e3d6b055",
        "embed": "0e03b57ceb61c2f6153e1d4a6cff040bed7b8ae97f4e0ea8ea1e2c5d424aff88",
        "lexicon": "e8e626854596d8fb81a2a49032501994ff9eaf84229f549d23759b1c48e4303f",
        "featurize": "3b7831b9bb04a28e7d77afa68faa74173950ad3251f3905bbc00d00f5812d7d3",
        "train": "ceb51c369c849063a84b49ac7015b8e26f8ad9e3eb7087b6f5a3d1a0caac182d",
        "graph": "51aca8b65203a870168a3e9ad9c0ffead6df75aeab2a61ab5746d010c5f94e26",
        "predict": "ba6c35d3c64586df099a31253f1fa076e1a12d6d4bcf8de8c33627d2f5c6ae48",
        "ablation": "ceb51c369c849063a84b49ac7015b8e26f8ad9e3eb7087b6f5a3d1a0caac182d",
        "sweep": "d7de79754738d79b0cd6d085dc9128ccff9924a35d6bf1979480828426d3082b",
    },
    "acceptance": {
        "embed": "fb6e120adff4b1a3eed70b94e0ef8b502314c412671207fbc0ef2369a87439c3",
        "lexicon": "21e8b3e84ed6cb493506c56bac387042bd85e132aab0ed0aea947c7c0f3a6a57",
        "train": "1497ccdb00bdef4465f59b9adc205e4ba1591e5e83c69cf6561b39e74277036c",
        "ablation": "1497ccdb00bdef4465f59b9adc205e4ba1591e5e83c69cf6561b39e74277036c",
    },
}


def _write_config(tmp_path: Path, text: str = "") -> Path:
    path = tmp_path / "pipeline.ini"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_empty_file_runs_on_defaults(self, tmp_path):
        config = load_config(_write_config(tmp_path), ())
        assert config.lexicon.keywords == 1000
        assert config.lexicon.category_words == 100
        assert config.training.hidden == (1024, 1024, 1024, 1024)
        assert config.sweep.taus == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert config.paths.articles == tmp_path / "articles.jsonl"
        assert config.paths.work_dir == tmp_path / "work"
        assert config.paths.category_seeds is None
        assert config.graph.window is None
        assert config.graph.clamp_observed is False
        assert config.pipeline.seed == 1
        assert config.embedding.seed == config.training.seed == 1

    def test_every_default_parses(self, tmp_path):
        # the schema itself must satisfy its own validation; every key of
        # every section comes out at its field's default
        config = load_config(_write_config(tmp_path), ())
        for section, keys in SCHEMA.items():
            assert isinstance(getattr(config, section), SECTIONS[section])
            for key in keys:
                value = getattr(getattr(config, section), key)
                default = SECTIONS[section]._field_defaults[key]
                if isinstance(value, Path):
                    assert value == tmp_path / default
                else:
                    assert value == default, f"{section}.{key}"

    def test_a_section_built_alone_equals_its_empty_file_load(self, tmp_path):
        # pipeline.seed's default fills the seed of the sections without a
        # seed key, so their own seed default must be the same
        config = load_config(_write_config(tmp_path), ())
        for section, cls in SECTIONS.items():
            if section != "paths":  # its paths resolve against the file
                assert cls() == getattr(config, section), section

    def test_file_values_override_defaults(self, tmp_path):
        config = load_config(
            _write_config(
                tmp_path,
                "[lexicon]\nkeywords = 50\n\n[training]\nhidden = 32,16\n"
                "[graph]\nclamp_observed = yes\n",
            ), ()
        )
        assert config.lexicon.keywords == 50
        assert config.training.hidden == (32, 16)
        assert config.graph.clamp_observed is True

    def test_flag_overrides_beat_the_file(self, tmp_path):
        path = _write_config(tmp_path, "[lexicon]\nkeywords = 50\n")
        config = load_config(path, overrides=["lexicon.keywords=75"])
        assert config.lexicon.keywords == 75

    def test_unknown_section_rejected(self, tmp_path):
        path = _write_config(tmp_path, "[mystery]\nkeywords = 50\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path, ())

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_bytes(b"[pipeline]\nseed = 9 \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8") as caught:
            load_config(path, ())
        assert str(caught.value).startswith(f"{path}: ")

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_config(tmp_path, "[lexicon]\nkeyword_count = 50\n")
        with pytest.raises(ConfigError, match="keyword_count"):
            load_config(path, ())

    def test_malformed_override_rejected(self, tmp_path):
        path = _write_config(tmp_path)
        with pytest.raises(ConfigError, match="section.key=value"):
            load_config(path, overrides=["keywords=50"])
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path, overrides=["lexicon.mystery=50"])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini", ())

    def test_inline_comments_are_stripped(self, tmp_path):
        path = _write_config(tmp_path, "[lexicon]\nkeywords = 50   ; size K\n")
        assert load_config(path, ()).lexicon.keywords == 50

    def test_ini_syntax_error_rejected(self, tmp_path):
        path = _write_config(tmp_path, "keywords = 50\n")
        with pytest.raises(ConfigError):
            load_config(path, ())

    def test_relative_paths_resolve_against_the_config(self, tmp_path):
        nested = tmp_path / "conf"
        nested.mkdir()
        path = nested / "pipeline.ini"
        path.write_text("[paths]\narticles = ../data/articles.jsonl\n")
        config = load_config(path, ())
        assert config.paths.articles == nested / "../data/articles.jsonl"

    def test_absolute_paths_kept(self, tmp_path):
        path = _write_config(tmp_path, f"[paths]\nprices = {tmp_path}/p.csv\n")
        assert load_config(path, ()).paths.prices == tmp_path / "p.csv"

    def test_graph_window_needs_both_ends(self, tmp_path):
        path = _write_config(tmp_path, "[graph]\nwindow_start = 2012-01-02\n")
        with pytest.raises(ConfigError, match="together"):
            load_config(path, ())

    def test_graph_window_parses_as_a_range(self, tmp_path):
        path = _write_config(
            tmp_path,
            "[graph]\nwindow_start = 2012-01-02\nwindow_end = 2012-06-29\n",
        )
        assert load_config(path, ()).graph.window == DateRange(
            date(2012, 1, 2), date(2012, 6, 29)
        )

    def test_reversed_graph_window_rejected(self, tmp_path):
        path = _write_config(
            tmp_path,
            "[graph]\nwindow_start = 2012-06-29\nwindow_end = 2012-01-02\n",
        )
        with pytest.raises(ConfigError, match="graph window"):
            load_config(path, ())

    def test_date_ordering_validated(self, tmp_path):
        path = _write_config(
            tmp_path, "[dates]\ntrain_end = 2013-12-31\nvalid_end = 2013-06-15\n"
        )
        with pytest.raises(ConfigError, match="valid_end"):
            load_config(path, ())

    def test_value_ranges_validated(self, tmp_path):
        cases = [
            ("[lexicon]\nkeywords = 0\n", "keywords"),
            ("[training]\ndecay = 0\n", "decay"),
            ("[training]\nhidden = ,\n", "hidden"),
            ("[graph]\nthreshold = 1.5\n", "threshold"),
            ("[graph]\nmin_overlap = 1\n", "min_overlap"),
            ("[sweep]\ntaus = ,\n", "taus"),
            ("[sweep]\ntaus = -0.5\n", "taus"),
            ("[embedding]\nwindow = 0\n", "window"),
            ("[synth]\ntickers = 0\n", "tickers"),
        ]
        for text, needle in cases:
            with pytest.raises(ConfigError, match=needle):
                load_config(_write_config(tmp_path, text), ())

    # Every range check at its edge: each value here is the last one it
    # accepts, and the matching case below the first one past it.
    @pytest.mark.parametrize(
        "overrides",
        [
            ["lexicon.keywords=1", "lexicon.category_words=1"],
            ["graph.threshold=0", "graph.min_overlap=2", "graph.iterations=0"],
            ["graph.threshold=1"],
            ["graph.window_start=2012-05-01", "graph.window_end=2012-05-01"],
            ["sweep.taus=0", "sweep.predict_tau=0"],
            [
                f"embedding.{key}=1"
                for key in ("dimension", "window", "negatives", "epochs", "min_count")
            ],
            ["training.hidden=1", "training.decay=1", "training.decay_every=1"],
            ["training.batch_size=1", "training.epochs=0", "training.l2=0"],
            ["training.patience=0"],
            ["synth.tickers=52", "synth.actives_per_group=1", "synth.samples_per_day=0.5"],
            ["synth.tickers=1", "synth.group_count=0", "synth.noise=0"],
            ["synth.mean_reversion=0"],
            ["synth.group_size=2", "synth.actives_per_group=1", "synth.noise=0.5"],
            ["synth.tickers=36", "synth.driver_weight=1"],
            ["synth.news_start=2011-01-03"],
            ["synth.news_start=2013-12-31"],
            ["dates.train_start=2012-12-31", "dates.valid_end=2013-01-01"],
        ],
    )
    def test_the_edge_of_each_range_loads(self, tmp_path, overrides):
        load_config(_write_config(tmp_path), overrides)

    @pytest.mark.parametrize(
        "override, wanted",
        [
            ("lexicon.category_words=0", "[lexicon] category_words must be positive"),
            ("graph.threshold=-0.1", "[graph] threshold must be in [0, 1]"),
            ("graph.iterations=-1", "[graph] iterations must be non-negative"),
            ("sweep.predict_tau=-0.1", "[sweep] predict_tau must be non-negative"),
            ("embedding.dimension=0", "[embedding] dimension must be positive"),
            ("embedding.negatives=0", "[embedding] negatives must be positive"),
            ("embedding.epochs=0", "[embedding] epochs must be positive"),
            ("embedding.min_count=0", "[embedding] min_count must be positive"),
            ("embedding.learning_rate=0", "[embedding] learning_rate must be positive"),
            ("training.hidden=8,0", "[training] hidden sizes must be positive, got (8, 0)"),
            ("training.learning_rate=0", "[training] learning_rate must be positive"),
            ("training.decay=1.5", "[training] decay must be in (0, 1]"),
            *(
                (f"training.{key}=0", "[training] decay_every and batch_size must be positive")
                for key in ("decay_every", "batch_size")
            ),
            *(
                (f"training.{key}=-1", "[training] epochs, l2, and patience must be non-negative")
                for key in ("epochs", "l2", "patience")
            ),
            ("synth.tickers=53", "[synth] tickers must be in 1..52, got 53"),
            *(
                (item, "[synth] need group_size >= 2 and group_count >= 0")
                for item in ("synth.group_count=-1", "synth.group_size=1")
            ),
            *(
                (item, "[synth] actives_per_group must leave at least one quiet member per group")
                for item in ("synth.actives_per_group=0", "synth.actives_per_group=3")
            ),
            ("synth.group_count=17", "[synth] groups need more tickers than available"),
            *(
                (item, "[synth] need start <= news_start <= end")
                for item in ("synth.news_start=2011-01-02", "synth.news_start=2014-01-01")
            ),
            ("synth.samples_per_day=0", "[synth] samples_per_day must be positive"),
            *(
                (f"synth.noise={value}", "[synth] noise must be in [0, 0.5]")
                for value in ("-0.1", "0.6")
            ),
            *(
                (f"synth.driver_weight={value}", "[synth] driver_weight must be in (0, 1]")
                for value in ("0", "1.5")
            ),
            *(
                (f"synth.mean_reversion={value}", "[synth] mean_reversion must be in [0, 1)")
                for value in ("-0.1", "1")
            ),
            ("synth.volatility=0", "[synth] volatility must be positive"),
            ("dates.valid_end=2012-12-31", "dates.train_end must precede dates.valid_end"),
        ],
    )
    def test_the_first_value_past_each_range_is_refused(self, tmp_path, override, wanted):
        with pytest.raises(ConfigError) as caught:
            load_config(_write_config(tmp_path), [override])
        assert str(caught.value) == wanted

    def test_range_errors_name_the_section(self, tmp_path):
        for text, section in [
            ("[lexicon]\nkeywords = 0\n", "lexicon"),
            ("[training]\nhidden = ,\n", "training"),
            ("[synth]\ntickers = 0\n", "synth"),
        ]:
            with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
                load_config(_write_config(tmp_path, text), ())

    def test_type_errors_name_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="lexicon.keywords"):
            load_config(_write_config(tmp_path, "[lexicon]\nkeywords = many\n"), ())
        with pytest.raises(ConfigError, match="clamp_observed"):
            load_config(_write_config(tmp_path, "[graph]\nclamp_observed = maybe\n"), ())
        with pytest.raises(ConfigError, match="synth.start"):
            load_config(_write_config(tmp_path, "[synth]\nstart = someday\n"), ())
        with pytest.raises(ConfigError, match="paths.prices"):
            load_config(_write_config(tmp_path, "[paths]\nprices =\n"), ())

    @pytest.mark.parametrize("text", ["20120102", "2012-W01-1"])
    def test_dates_are_yyyy_mm_dd_in_the_file_and_in_overrides(self, tmp_path, text):
        wanted = f"dates.train_end: expected a YYYY-MM-DD date, got {text!r}"
        path = _write_config(tmp_path, f"[dates]\ntrain_end = {text}\n")
        with pytest.raises(ConfigError) as caught:
            load_config(path, ())
        assert str(caught.value) == wanted
        with pytest.raises(ConfigError) as caught:
            load_config(_write_config(tmp_path), [f"dates.train_end={text}"])
        assert str(caught.value) == wanted

    @pytest.mark.parametrize(
        "override, wanted",
        [
            ("training.l2=nan", "training.l2: expected a finite number, got 'nan'"),
            (
                "embedding.learning_rate=nan",
                "embedding.learning_rate: expected a finite number, got 'nan'",
            ),
            (
                "sweep.taus=0.2,inf",
                "sweep.taus: expected comma-separated finite numbers, got '0.2,inf'",
            ),
        ],
    )
    def test_numbers_must_be_finite(self, tmp_path, override, wanted):
        with pytest.raises(ConfigError) as caught:
            load_config(_write_config(tmp_path), [override])
        assert str(caught.value) == wanted

    @pytest.mark.parametrize("section", ["pipeline", "synth"])
    def test_seeds_must_be_non_negative(self, tmp_path, section):
        path = _write_config(tmp_path)
        with pytest.raises(ConfigError) as caught:
            load_config(path, [f"{section}.seed=-3"])
        assert str(caught.value) == f"[{section}] seed must be non-negative"
        assert getattr(load_config(path, [f"{section}.seed=0"]), section).seed == 0

    def test_store_entries_must_be_non_negative(self, tmp_path):
        path = _write_config(tmp_path)
        assert load_config(path, ()).pipeline.store_entries == 4
        with pytest.raises(ConfigError) as caught:
            load_config(path, ["pipeline.store_entries=-1"])
        assert str(caught.value) == "[pipeline] store_entries must be non-negative"
        assert load_config(path, ["pipeline.store_entries=0"]).pipeline.store_entries == 0

    def test_pipeline_seed_is_the_only_seed_key_of_its_sections(self, tmp_path):
        path = _write_config(tmp_path, "[pipeline]\nseed = 9\n")
        config = load_config(path, ())
        assert config.embedding.seed == config.training.seed == 9
        assert config.synth.seed == 7
        for key in ("embedding.seed=3", "training.seed=3"):
            with pytest.raises(ConfigError, match="unknown key"):
                load_config(path, overrides=[key])

    def test_stage_key_covers_only_the_declared_sections(self, tmp_path):
        config = load_config(_write_config(tmp_path), ())
        assert cli._stage_key(config, "lexicon") == text_sha256(repr(config.lexicon))
        assert cli._stage_key(config, "ablation") == text_sha256(
            f"{config.training!r}\nrevision 3"
        )
        assert cli._stage_key(config, "train") == cli._stage_key(config, "ablation")
        assert cli._stage_key(config, "prices") == text_sha256("revision 1")
        assert cli._stage_key(config, "featurize") == text_sha256(
            f"dates.train_start={config.dates.train_start!r}\n"
            f"dates.train_end={config.dates.train_end!r}\nrevision 1"
        )
        dates, graph, sweep = config.dates, config.graph, config.sweep
        assert cli._stage_key(config, "ingest") == text_sha256(
            f"dates.train_end={dates.train_end!r}\n"
            f"dates.valid_end={dates.valid_end!r}\nrevision 4"
        )
        assert cli._stage_key(config, "graph") == text_sha256(
            f"graph.threshold={graph.threshold!r}\n"
            f"graph.min_overlap={graph.min_overlap!r}\n"
            "graph.window_start=None\ngraph.window_end=None"
        )
        assert cli._stage_key(config, "sweep") == text_sha256(
            f"graph.iterations={graph.iterations!r}\n"
            f"graph.clamp_observed={graph.clamp_observed!r}\n"
            f"sweep.taus={sweep.taus!r}"
        )

    @pytest.mark.parametrize("name", ["default", "acceptance"])
    def test_stage_keys_keep_their_bytes(self, tmp_path, name):
        """Every unit's key, as the manifests already written record it.

        A section whose ``repr`` drifted would rerun every unit once.
        """
        text = {"default": "", "acceptance": PIPELINE_CONFIG}[name]
        config = load_config(_write_config(tmp_path, text), ())
        keys = {**PINNED_KEYS["default"], **PINNED_KEYS.get(name, {})}
        assert {unit: cli._stage_key(config, unit) for unit in cli.UNITS} == keys

    def test_stage_key_ignores_unrelated_changes(self, tmp_path):
        path = _write_config(tmp_path)
        units = list(cli.UNITS)

        def changed(override):
            base, tweaked = load_config(path, ()), load_config(path, [override])
            key = cli._stage_key
            return {u for u in units if key(base, u) != key(tweaked, u)}

        assert changed("training.epochs=5") == {"train", "ablation"}
        assert changed("lexicon.keywords=7") == {"lexicon"}
        assert changed("pipeline.seed=2") == {"embed", "train", "ablation"}
        assert changed("pipeline.store_entries=0") == set()
        assert changed("paths.work_dir=elsewhere") == set()
        assert changed("sweep.taus=0.5") == {"sweep"}
        assert changed("sweep.predict_tau=0.5") == {"predict"}
        assert changed("graph.threshold=0.7") == {"graph"}
        assert changed("graph.iterations=2") == {"predict", "sweep"}
        assert changed("dates.valid_end=2013-07-01") == {"ingest"}
        assert changed("dates.train_start=2000-01-01") == {"featurize"}
        assert changed("dates.train_end=2012-12-30") == {"ingest", "featurize"}


class TestReadme:
    def test_configuration_block_matches_the_schema(self, tmp_path):
        text = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.RawConfigParser(inline_comment_prefixes=(";",))
        parser.optionxform = str
        parser.read_string(block)
        listed = {section: set(parser[section]) for section in parser.sections()}
        assert listed == {s: set(keys) for s, keys in SCHEMA.items()}
        # as written, comments and all, the block loads to exactly the defaults
        defaults = load_config(_write_config(tmp_path), ())
        assert load_config(_write_config(tmp_path, block), ()) == defaults
