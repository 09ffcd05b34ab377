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

README = Path(__file__).resolve().parent.parent / "README.md"


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
        # every section comes out at its dataclass default
        config = load_config(_write_config(tmp_path), ())
        for section, keys in SCHEMA.items():
            assert isinstance(getattr(config, section), SECTIONS[section])
            for key in keys:
                value = getattr(getattr(config, section), key.name)
                if isinstance(value, Path):
                    assert value == tmp_path / key.default
                else:
                    assert value == key.default, f"{section}.{key.name}"

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
        assert listed == {s: {key.name for key in keys} for s, keys in SCHEMA.items()}
        # as written, comments and all, the block loads to exactly the defaults
        defaults = load_config(_write_config(tmp_path), ())
        assert load_config(_write_config(tmp_path, block), ()) == defaults
