"""Tests for the repro-eval command-line interface."""

import json

import pytest

from repro.eval.__main__ import main


class TestCli:
    def test_table3_prints_measured_vs_paper(self, capsys):
        assert main(["table3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "(4.07)" in out   # the paper's token column appears
        assert "batch" in out

    def test_feature_selection_command(self, capsys):
        assert main(["feature-selection"]) == 0
        out = capsys.readouterr().out
        assert "74.1" in out and "90.3" in out

    def test_cluster_batching_command(self, capsys):
        assert main(["cluster-batching", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "random batching" in out
        assert "cluster batching" in out

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliRoundTrip:
    """`run` writes a manifest, `trace` reads it back, and the golden
    layer's byte contract proves the artifact survives the loop intact."""

    def test_run_trace_manifest_roundtrip(self, tmp_path, capsys):
        from repro.obs import RunManifest, canonical_json
        from repro.testing import diff_payloads

        manifest_path = tmp_path / "run.json"
        assert main([
            "run", "--dataset", "beer", "--size", "30",
            "--manifest", str(manifest_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "beer / gpt-3.5" in out
        assert f"manifest written to {manifest_path}" in out

        assert main(["trace", str(manifest_path)]) == 0
        traced = capsys.readouterr().out
        assert "Manifest v1" in traced and "beer" in traced

        # Golden byte contract: load -> dump reproduces the file exactly,
        # and a full load -> to_dict -> from_dict loop is diff-free.
        written = manifest_path.read_text(encoding="utf-8")
        loaded = RunManifest.load(manifest_path)
        assert loaded.dumps() + "\n" == written
        reloaded = RunManifest.from_dict(json.loads(written))
        assert diff_payloads(loaded.to_dict(), reloaded.to_dict()) == []
        # and the canonical form is itself stable under a reload
        assert canonical_json(json.loads(canonical_json(loaded.to_dict()))) \
            == canonical_json(loaded.to_dict())

    def test_trace_rejects_missing_manifest(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        assert main(["trace", str(absent)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(absent) in err
        assert len(err.splitlines()) == 1


class TestRunJournalCli:
    """`run --journal` then `run --resume`: the single-process journal path."""

    def test_resume_reproduces_the_journaled_run(self, tmp_path, capsys):
        journal = str(tmp_path / "run.journal")
        first_manifest = tmp_path / "m1.json"
        second_manifest = tmp_path / "m2.json"
        assert main([
            "run", "--dataset", "beer", "--journal", journal,
            "--manifest", str(first_manifest),
        ]) == 0
        first = capsys.readouterr().out
        assert f"journal at {journal}" in first
        assert main([
            "run", "--dataset", "beer", "--resume", journal,
            "--manifest", str(second_manifest),
        ]) == 0
        resumed = capsys.readouterr().out
        assert resumed.splitlines()[0] == first.splitlines()[0]
        assert second_manifest.read_bytes() == first_manifest.read_bytes()

    def test_resume_of_a_missing_journal_exits_2(self, tmp_path, capsys):
        absent = tmp_path / "absent.journal"
        assert main([
            "run", "--dataset", "beer", "--resume", str(absent),
        ]) == 2
        assert f"no journal to resume at {absent}" in capsys.readouterr().err

    def test_resume_of_a_version_1_journal_exits_2(self, tmp_path, capsys):
        journal = tmp_path / "v1.journal"
        # a header line exactly as journal format version 1 wrote it
        journal.write_bytes(
            b'{"check":"d323bfa8c2f8efc4","context":{},"fingerprint":'
            b'"ca3d163bab055381827226140568f3be","journal_version":1,'
            b'"kind":"header"}\n'
        )
        assert main([
            "run", "--dataset", "beer", "--resume", str(journal),
        ]) == 2
        err = capsys.readouterr().err
        assert "unsupported journal version 1 (this build reads 3)" in err

    @pytest.mark.parametrize("argv, message", [
        (["--dataset", "adult", "--size", "0"], "size must be positive, got 0"),
        (["--dataset", "nosuch"], "unknown dataset 'nosuch'"),
    ], ids=["size_0", "unknown_dataset"])
    def test_bad_dataset_exits_2_with_one_line(self, argv, message, capsys):
        assert main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1


class TestGoldenCli:
    def test_golden_verify_single_cell_is_clean(self, capsys):
        assert main(["golden", "--cell", "di_restaurant_gpt4"]) == 0
        out = capsys.readouterr().out
        assert "golden di_restaurant_gpt4: OK" in out

    def test_golden_update_then_verify_in_scratch_store(self, tmp_path, capsys):
        store = str(tmp_path / "snapshots")
        assert main(["golden", "--update", "--cell", "sm_synthea_gpt35",
                     "--store", store]) == 0
        assert main(["golden", "--cell", "sm_synthea_gpt35",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "OK" in out

    def test_golden_drift_exits_nonzero_and_writes_artifact(
        self, tmp_path, capsys
    ):
        from repro.testing import GoldenStore, capture_snapshot, cell_by_name

        cell = cell_by_name("sm_synthea_gpt35")
        store = GoldenStore(tmp_path / "snapshots")
        payload = capture_snapshot(cell)
        payload["predictions"][0] = "__tampered__"
        store.save(cell.name, payload)
        artifact = tmp_path / "GOLDEN_DIFF.txt"
        assert main(["golden", "--cell", cell.name,
                     "--store", str(store.root),
                     "--diff-artifact", str(artifact)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "$.predictions[0]" in out
        assert artifact.exists()
        assert "__tampered__" in artifact.read_text(encoding="utf-8")

    def test_serving_golden_cell_verifies_via_cli(self, capsys):
        assert main(["golden", "--cell", "serving_ed_adult_3tenants"]) == 0
        out = capsys.readouterr().out
        assert "golden serving_ed_adult_3tenants: OK" in out


class TestChaosCli:
    def test_degraded_cell_resumes_and_writes_no_artifact(
        self, tmp_path, capsys
    ):
        artifact = tmp_path / "CHAOS_DIFF.txt"
        assert main([
            "chaos", "--cell", "ed_adult_brownout_c1",
            "--site", "pre_journal",
            "--workdir", str(tmp_path / "chaos"),
            "--artifact", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos ed_adult_brownout_c1 @ pre_journal: OK" in out
        assert "chaos: 1/1 trial(s) resumed bit-identically" in out
        assert not artifact.exists()

    def test_unknown_cell_exits_2(self, tmp_path, capsys):
        assert main([
            "chaos", "--cell", "nope", "--workdir", str(tmp_path),
        ]) == 2
        assert "unknown chaos cell(s) ['nope']" in capsys.readouterr().err


class TestResilienceCli:
    def test_run_reports_the_failover_accounting(self, capsys):
        assert main([
            "run", "--dataset", "adult", "--size", "24",
            "--concurrency", "2", "--resilience",
        ]) == 0
        out = capsys.readouterr().out
        assert "adult / gpt-3.5" in out
        assert "resilience: " in out and " failover(s), " in out
        assert "backend primary: circuit" in out
        assert "backend secondary: circuit" in out


class TestFlowCli:
    def test_describe_prints_the_plan_without_running(self, capsys):
        assert main(["flow", "--reference", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "flow: clean_match_beer" in out
        assert "1. detect [detect_errors]" in out
        assert "4. match [match_entities]" in out

    def test_run_resume_and_manifest(self, tmp_path, capsys):
        workdir = str(tmp_path / "flowrun")
        manifest = tmp_path / "flow_manifest.json"
        assert main([
            "flow", "--reference", "--workdir", workdir,
            "--manifest", str(manifest),
        ]) == 0
        out = capsys.readouterr().out
        assert "flow clean_match_beer: 4 stage(s)" in out
        assert "end to end:" in out
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert payload["kind"] == "flow_manifest"
        assert payload["order"] == ["detect", "impute", "align", "match"]

        assert main([
            "flow", "--reference", "--workdir", workdir, "--resume",
        ]) == 0
        resumed = capsys.readouterr().out
        assert resumed.count("resumed from ledger") == 4

    def test_spec_file_runs(self, tmp_path, capsys):
        from pathlib import Path

        example = (
            Path(__file__).parent.parent.parent
            / "examples" / "flows" / "clean_match_beer.yaml"
        )
        assert main(["flow", str(example), "--describe"]) == 0
        out = capsys.readouterr().out
        assert "flow: clean_match_beer" in out

    def test_errors_exit_2(self, tmp_path, capsys):
        # no spec and no --reference
        assert main(["flow"]) == 2
        # --resume without a ledger
        assert main([
            "flow", "--reference",
            "--workdir", str(tmp_path / "void"), "--resume",
        ]) == 2
        # unreadable spec path
        assert main(["flow", str(tmp_path / "absent.yaml")]) == 2
        # malformed spec
        bad = tmp_path / "bad.yaml"
        bad.write_text("flow: x\nstages: []\n", encoding="utf-8")
        assert main(["flow", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err


class TestFuzzCli:
    def test_fuzz_command_reports_and_passes(self, capsys):
        assert main(["fuzz", "--cases", "40", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "40 cases" in out and "corpus digest" in out
        assert "0 violation(s)" in out


class TestShardCli:
    def test_run_with_workers_and_shards(self, capsys):
        assert main([
            "run", "--dataset", "adult", "--size", "24",
            "--workers", "2", "--shards", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "adult / gpt-3.5" in out
        assert "sharded: 3 shard(s) over 2 worker(s)" in out
        assert "sequential" in out

    def test_single_shard_run_agrees_with_the_legacy_path(self, capsys):
        assert main(["run", "--dataset", "adult", "--size", "24"]) == 0
        reference = capsys.readouterr().out.splitlines()[0]
        assert main([
            "run", "--dataset", "adult", "--size", "24", "--shards", "1",
        ]) == 0
        sharded = capsys.readouterr().out.splitlines()[0]
        # identical headline: metric, coverage, tokens, cost, and hours —
        # a single-shard plan reproduces the legacy run bit-for-bit
        # (more shards legitimately re-batch, so only S=1 must agree)
        assert sharded == reference

    def test_sharded_journal_and_resume(self, tmp_path, capsys):
        workdir = tmp_path / "journals"
        argv = [
            "run", "--dataset", "adult", "--size", "24", "--shards", "2",
            "--journal", str(workdir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert f"shard journals under {workdir}" in first
        journals = sorted(p.name for p in workdir.glob("shard-*.journal"))
        assert journals == ["shard-0000.journal", "shard-0001.journal"]
        # replaying against the same journals reproduces the run
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_resume_of_a_missing_directory_exits_2(self, tmp_path, capsys):
        absent = tmp_path / "nosuchdir"
        assert main([
            "run", "--dataset", "beer", "--size", "24", "--workers", "2",
            "--shards", "2", "--resume", str(absent),
        ]) == 2
        assert f"no journal to resume at {absent}" in capsys.readouterr().err
        assert not absent.exists()

    def test_flow_with_workers(self, capsys):
        assert main(["flow", "--reference", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "flow clean_match_beer: 4 stage(s)" in parallel
        # parallel stage execution is deterministic run to run
        assert main(["flow", "--reference", "--workers", "2"]) == 0
        assert capsys.readouterr().out == parallel
