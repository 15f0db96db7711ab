"""Tests for the experiment harness: every paper artefact must reproduce."""

from __future__ import annotations

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    render_report,
    run_convergence,
    run_equivalence,
    run_lower_bounds,
    run_mixed_mode,
    run_named,
    run_spec_battery,
    run_static_vs_mobile,
    run_table1,
    run_table2,
)


class TestExperimentResult:
    def test_render_contains_status_and_rows(self):
        result = ExperimentResult("X", "title", ["a"], rows=[[1]])
        text = result.render()
        assert "REPRODUCED" in text and "X" in text

    def test_fail_flips_status(self):
        result = ExperimentResult("X", "title", ["a"])
        result.fail("boom")
        assert not result.ok
        assert "MISMATCH" in result.render()

    def test_add_row_and_note(self):
        result = ExperimentResult("X", "t", ["a", "b"])
        result.add_row(1, 2)
        result.add_note("hello")
        assert result.rows == [[1, 2]]
        assert "hello" in result.render()


class TestPaperArtefacts:
    """Each experiment must fully reproduce its artefact."""

    def test_table1(self):
        result = run_table1(fault_counts=(1, 2))
        assert result.ok, result.render()
        assert len(result.rows) == 8

    def test_table2(self):
        result = run_table2(f=1, seeds=(0,))
        assert result.ok, result.render()
        assert [row[0] for row in result.rows] == ["M1", "M2", "M3", "M4"]
        # Paper bounds appear verbatim.
        assert [row[3] for row in result.rows] == [
            "n > 4f", "n > 5f", "n > 6f", "n > 3f",
        ]

    def test_table2_with_f2(self):
        result = run_table2(f=2, seeds=(0,), algorithms=("ftm",))
        assert result.ok, result.render()

    def test_lower_bounds(self):
        result = run_lower_bounds(fault_counts=(1,))
        assert result.ok, result.render()

    def test_equivalence(self):
        result = run_equivalence(fault_counts=(1,))
        assert result.ok, result.render()

    def test_spec_battery(self):
        result = run_spec_battery(f=1, seeds=(0,), algorithms=("ftm",))
        assert result.ok, result.render()

    def test_convergence(self):
        result = run_convergence(f=1, rounds=15)
        assert result.ok, result.render()

    def test_static_vs_mobile(self):
        result = run_static_vs_mobile(f=1)
        assert result.ok, result.render()
        # The empirical minimum n column matches Table 2.
        by_system = {row[0]: row[4] for row in result.rows}
        assert by_system["M1"] == 5
        assert by_system["M2"] == 6
        assert by_system["M3"] == 7
        assert by_system["M4"] == 4

    def test_mixed_mode(self):
        result = run_mixed_mode(rounds=20)
        assert result.ok, result.render()

    def test_robustness(self):
        from repro.experiments import run_robustness

        result = run_robustness(samples=8)
        assert result.ok, result.render()
        # Every model row reports zero spec failures, within budget.
        for row in result.rows:
            assert row[-1] == 0
            assert row[-2] is True

    def test_robustness_rejects_zero_samples(self):
        from repro.experiments import run_robustness

        with pytest.raises(ValueError):
            run_robustness(samples=0)


class TestRunner:
    def test_registry_names(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "lower-bounds",
            "equivalence",
            "spec",
            "convergence",
            "static-vs-mobile",
            "mixed-mode",
            "robustness",
            "families",
            "topology",
        }

    def test_run_named_unknown(self):
        with pytest.raises(KeyError, match="known"):
            run_named(["nope"])

    def test_run_named_subset(self):
        results = run_named(["table1"])
        assert len(results) == 1
        assert results[0].exp_id == "EXP-T1"

    def test_render_report_counts(self):
        results = run_named(["table1"])
        report = render_report(results)
        assert "1/1 experiments reproduced" in report


class TestCli:
    def test_cli_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "table1" in captured.out

    def test_cli_runs_selected(self, capsys):
        from repro.experiments.cli import main

        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "EXP-T1" in captured.out

    def test_cli_forwards_workers_and_cache(self, capsys, tmp_path):
        from repro.experiments.cli import main

        argv = ["table1", "--workers", "2", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        assert main(argv) == 0  # warm pass through the same cache
        assert "EXP-T1" in capsys.readouterr().out

    def test_sweep_cli_empty_shard_succeeds(self, capsys, tmp_path):
        # A shard owning no cells (shard_count > grid size) is a valid
        # member of a fixed-size worker fan and must not exit nonzero.
        from repro.experiments.cli import main

        code = main(
            ["sweep", "--models", "M1", "--seeds", "2", "--rounds", "5",
             "--shard", "5/8", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert "sibling shards outstanding" in capsys.readouterr().out

    def test_sweep_cli_grids_share_one_cache_dir(self, capsys, tmp_path):
        # Two different grids sharded through one cache dir: each
        # single-shard pass reports its own whole grid, never the other's.
        from repro.experiments.cli import main

        cache = str(tmp_path / "cache")
        base = ["--rounds", "5", "--shard", "0/1", "--cache-dir", cache]
        assert main(["sweep", "--models", "M1", "--seeds", "2"] + base) == 0
        assert main(["sweep", "--models", "M2", "--seeds", "3"] + base) == 0
        out = capsys.readouterr().out
        assert "outstanding" not in out
        assert "Sweep summary over 2 cells" in out
        assert "Sweep summary over 3 cells" in out

    def test_sweep_cli_shard_requires_cache_dir(self, capsys):
        from repro.experiments.cli import main

        code = main(["sweep", "--models", "M1", "--shard", "0/2"])
        assert code == 2
        assert "--shard needs --cache-dir" in capsys.readouterr().err

    def test_sweep_cli_last_shard_reports_the_whole_grid(self, capsys, tmp_path):
        # Shards compose with any backend; the last one to finish
        # prints what the unsharded sweep prints.
        from repro.experiments.cli import main

        axes = ["sweep", "--models", "M1", "M2", "--seeds", "2",
                "--rounds", "5", "--cells"]
        assert main(axes) == 0
        unsharded = capsys.readouterr().out
        cache = ["--cache-dir", str(tmp_path / "cache")]
        outputs = []
        for shard, extra in (
            ("2/3", ["--backend", "multiprocessing", "--workers", "2"]),
            ("0/3", ["--cross-run"]),
            ("1/3", []),
        ):
            assert main(axes + ["--shard", shard] + cache + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert all("sibling shards outstanding" in out for out in outputs[:2])

        def body(out):
            return [
                line for line in out.splitlines()
                if not line.startswith(("cache:", "dispatch:"))
            ]

        assert body(outputs[-1]) == body(unsharded)

    def test_sweep_cli_shard_resumes(self, tmp_path):
        # A shard takes --resume like any sweep: the journal covers the
        # shard's own cells.
        from repro.experiments.cli import main

        argv = ["sweep", "--models", "M1", "--seeds", "2", "--rounds", "5",
                "--shard", "0/2", "--cache-dir", str(tmp_path / "cache"),
                "--resume", str(tmp_path / "journal")]
        assert main(argv) == 0
        assert main(argv) == 0
