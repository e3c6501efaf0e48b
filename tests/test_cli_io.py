"""CLI commands and website JSON import/export."""

import json
from pathlib import Path

import pytest

from repro import axes
from repro.cli import _parse_pivot, build_parser, main
from repro.web.corpus import build_site
from repro.web.io import (
    load_website,
    save_website,
    website_from_dict,
    website_to_dict,
)


class TestWebsiteIO:
    def test_round_trip(self, tmp_path):
        site = build_site("gov.uk", seed=0)
        path = tmp_path / "gov.json"
        save_website(site, path)
        restored = load_website(path)
        assert restored.name == site.name
        assert restored.summary() == site.summary()
        assert [(o.object_id, o.size, o.host) for o in restored.objects] \
            == [(o.object_id, o.size, o.host) for o in site.objects]

    def test_dict_round_trip_preserves_render_attrs(self):
        site = build_site("wikipedia.org", seed=1)
        restored = website_from_dict(website_to_dict(site))
        for original, copy in zip(site.objects, restored.objects):
            assert original.render_weight == copy.render_weight
            assert original.render_blocking == copy.render_blocking
            assert original.progressive == copy.progressive

    def test_schema_version_checked(self):
        data = website_to_dict(build_site("gov.uk", seed=0))
        data["schema"] = 99
        with pytest.raises(ValueError):
            website_from_dict(data)

    def test_invalid_payload_rejected_by_model(self):
        data = website_to_dict(build_site("gov.uk", seed=0))
        data["objects"][0]["size"] = 0
        with pytest.raises(ValueError):
            website_from_dict(data)


class TestCli:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "QUIC+BBR" in out

    def test_sites(self, capsys):
        assert main(["sites"]) == 0
        out = capsys.readouterr().out
        assert "wikipedia.org" in out
        assert out.count(".example") >= 20

    def test_load(self, capsys):
        assert main(["load", "gov.uk", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "DSL" in out and "MSS" in out
        assert "QUIC+BBR" in out

    def test_export(self, tmp_path, capsys):
        path = tmp_path / "site.json"
        assert main(["export", "apache.org", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["name"] == "apache.org"

    def test_unknown_site_rejected(self):
        with pytest.raises(SystemExit):
            main(["load", "not-a-site.example"])

    def test_campaign_runs_and_resumes(self, tmp_path, capsys):
        argv = ["campaign", "--sites", "gov.uk", "--networks", "DSL",
                "--stacks", "TCP", "--runs", "1", "--processes", "1",
                "--cache-dir", str(tmp_path), "--name", "t"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 conditions" in out
        assert "simulated" in out
        # Re-running the same spec is a pure resume.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed" in out

    def test_campaign_report_renders_pivot_table(self, tmp_path, capsys):
        """Tier-1 smoke: 2 stacks x 2 seeds x 1 network campaign, then
        --report --format md must render a non-empty pivot with CI
        columns (mean ±halfwidth cells)."""
        argv = ["campaign", "--sites", "gov.uk", "--networks", "DSL",
                "--stacks", "TCP", "QUIC", "--seeds", "0", "1",
                "--runs", "1", "--processes", "1", "--quiet",
                "--cache-dir", str(tmp_path), "--name", "rep",
                "--report", "--format", "md"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # Markdown pivot: header row carries the stack columns...
        assert "| network | TCP | QUIC |" in out
        # ...and every body cell is a mean ± CI halfwidth.
        body = [l for l in out.splitlines()
                if l.startswith("| DSL")]
        assert body and all("±" in line for line in body)
        assert "SI mean ±99% CI" in out

    def test_campaign_report_posthoc_from_dir(self, tmp_path, capsys):
        """--campaign-dir renders the same report from the finished
        directory without re-running (no progress/summary lines)."""
        run_argv = ["campaign", "--sites", "gov.uk", "--networks", "DSL",
                    "--stacks", "TCP", "--runs", "1", "--processes", "1",
                    "--quiet", "--cache-dir", str(tmp_path),
                    "--name", "ph"]
        assert main(run_argv) == 0
        out = capsys.readouterr().out
        manifest = next(l.split("manifest: ", 1)[1]
                        for l in out.splitlines() if "manifest: " in l)
        campaign_dir = str(Path(manifest).parent)
        assert main(["campaign", "--campaign-dir", campaign_dir,
                     "--cache-dir", str(tmp_path),
                     "--report", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "DSL" in out and "±" in out
        assert "conditions/s" not in out  # nothing was run

    def test_campaign_report_refuses_stale_dir(self, tmp_path, capsys,
                                               monkeypatch):
        """A dir recorded under an older behaviour version errors
        cleanly; --allow-stale is the explicit escape hatch."""
        import repro.testbed.harness as harness_mod

        run_argv = ["campaign", "--sites", "gov.uk", "--networks", "DSL",
                    "--stacks", "TCP", "--runs", "1", "--processes", "1",
                    "--quiet", "--cache-dir", str(tmp_path),
                    "--name", "stale"]
        assert main(run_argv) == 0
        out = capsys.readouterr().out
        manifest = next(l.split("manifest: ", 1)[1]
                        for l in out.splitlines() if "manifest: " in l)
        campaign_dir = str(Path(manifest).parent)
        monkeypatch.setattr(harness_mod, "SIM_BEHAVIOUR_VERSION",
                            harness_mod.SIM_BEHAVIOUR_VERSION + 1)
        report_argv = ["campaign", "--campaign-dir", campaign_dir,
                       "--cache-dir", str(tmp_path), "--report"]
        with pytest.raises(SystemExit, match="--allow-stale"):
            main(report_argv)
        capsys.readouterr()
        assert main(report_argv + ["--allow-stale"]) == 0
        assert "±" in capsys.readouterr().out

    def test_campaign_bad_pivot_axis_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--report", "--pivot", "network,bogus",
                  "--runs", "1", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["campaign", "--report", "--pivot", "network",
                  "--runs", "1", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):  # duplicate axis
            main(["campaign", "--report", "--pivot", "network,network",
                  "--runs", "1", "--cache-dir", str(tmp_path)])

    def test_campaign_bad_report_metric_rejected(self, tmp_path):
        """Unknown metrics must fail at parse time, not mid-sweep."""
        with pytest.raises(SystemExit):
            main(["campaign", "--report", "--report-metric", "bogus",
                  "--runs", "1", "--cache-dir", str(tmp_path)])

    def test_campaign_bad_confidence_rejected(self, tmp_path):
        for bad in ("1.5", "0", "-1"):
            with pytest.raises(SystemExit):
                main(["campaign", "--report", "--confidence", bad,
                      "--runs", "1", "--cache-dir", str(tmp_path)])

    def test_campaign_live_json_report_is_pure_stdout(self, tmp_path,
                                                      capsys):
        """--report --format json must leave stdout machine-parseable;
        banner/progress lines go to stderr."""
        assert main(["campaign", "--sites", "gov.uk", "--networks",
                     "DSL", "--stacks", "TCP", "--runs", "1",
                     "--processes", "1", "--cache-dir", str(tmp_path),
                     "--name", "pj", "--report", "--format",
                     "json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # whole stdout is one document
        assert doc["metric"] == "SI"
        assert "conditions" in captured.err  # banner moved to stderr

    def test_campaign_posthoc_wrong_cache_dir_errors(self, tmp_path,
                                                     capsys):
        """A manifest whose recordings are all absent from the cache is
        an error, not an empty report."""
        run_argv = ["campaign", "--sites", "gov.uk", "--networks", "DSL",
                    "--stacks", "TCP", "--runs", "1", "--processes", "1",
                    "--quiet", "--cache-dir", str(tmp_path / "cache"),
                    "--name", "wc"]
        assert main(run_argv) == 0
        out = capsys.readouterr().out
        manifest = next(l.split("manifest: ", 1)[1]
                        for l in out.splitlines() if "manifest: " in l)
        empty = tmp_path / "empty-cache"
        empty.mkdir()
        assert main(["campaign", "--campaign-dir",
                     str(Path(manifest).parent), "--cache-dir",
                     str(empty), "--report"]) == 1
        err = capsys.readouterr().err
        assert "none were found in the cache" in err

    def test_campaign_loss_sweep_axis(self, tmp_path, capsys):
        assert main(["campaign", "--sites", "gov.uk", "--networks", "DSL",
                     "--loss-sweep", "DSL:0.02", "--stacks", "TCP",
                     "--runs", "1", "--processes", "1", "--quiet",
                     "--cache-dir", str(tmp_path), "--name", "t"]) == 0
        out = capsys.readouterr().out
        assert "2 conditions" in out

    def test_campaign_bad_loss_sweep_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--loss-sweep", "DSL-nope", "--runs", "1",
                  "--cache-dir", str(tmp_path)])

    def test_campaign_unknown_network_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--networks", "BOGUS", "--runs", "1",
                  "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["campaign", "--loss-sweep", "BOGUS:0.01", "--runs", "1",
                  "--cache-dir", str(tmp_path)])

    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("tables", "sites", "load", "sweep", "campaign",
                        "study", "export"):
            assert command in text


#: A non-default CLI value for each core axis (optional axes use their
#: first non-default choice).
_CORE_VALUES = {"website": "gov.uk", "network": "DSL", "stack": "TCP",
                "seed": "1"}


def _non_default(axis):
    if axis.name in _CORE_VALUES:
        return _CORE_VALUES[axis.name]
    return next(c for c in axis.choices if c != axis.default_token)


@pytest.mark.parametrize("axis", axes.AXES, ids=lambda axis: axis.name)
class TestCampaignAxisFlags:
    """Every registry axis is a campaign flag, a --join conflict and a
    pivot name."""

    def test_flag_in_help(self, axis, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--help"])
        assert f"--{axis.plural}" in capsys.readouterr().out

    def test_join_conflict(self, axis, tmp_path):
        with pytest.raises(SystemExit, match=f"--{axis.plural} conflicts "
                                             f"with --join"):
            main(["campaign", "--join", str(tmp_path),
                  f"--{axis.plural}", _non_default(axis)])

    def test_pivot_accepts_axis(self, axis):
        other = "stack" if axis.name != "stack" else "network"
        assert _parse_pivot(f"{other},{axis.name}") == \
            ((other,), axis.name)

    def test_pivot_refuses_unknown_axis(self, axis):
        with pytest.raises(SystemExit, match="unknown pivot axis"):
            _parse_pivot(f"{axis.name},{axis.name}x")

