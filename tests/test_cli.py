import hashlib
import json
import os
import time

import numpy as np
import pytest

import crnlump as cl
from crnlump import cli
from crnlump.cli import run

from conftest import (TWO_SITE_TEXT, from_reactions, jittered_edge_list,
                      networks_equal)


@pytest.fixture
def two_site_file(tmp_path):
    path = tmp_path / "two_site.crn"
    path.write_text(TWO_SITE_TEXT)
    return path


def read_report(path):
    return json.loads(path.read_text())


class TestReduce:
    def test_basic_reduction(self, tmp_path, two_site_file):
        out = tmp_path / "red.crn"
        mp = tmp_path / "map.json"
        rep = tmp_path / "rep.json"
        rc = run(["reduce", "-i", str(two_site_file), "-o", str(out),
                  "--map", str(mp), "--report", str(rep)])
        assert rc == 0
        report = read_report(rep)
        assert report["output"] == {"species": 4, "reactions": 4}
        assert report["blocks"] == 4
        assert report["flags"] == {}
        assert set(report["phases_ms"]) == {"parse", "lump", "quotient", "write"}
        blocks = read_report(mp)["blocks"]
        assert {"representative": "A01", "members": ["A01", "A10"]} in blocks
        reduced = cl.parse_model(out.read_text())
        assert reduced.network.n_species == 4

    def test_reduce_is_a_fixpoint(self, tmp_path, two_site_file):
        out1 = tmp_path / "r1.crn"
        out2 = tmp_path / "r2.crn"
        rep1, rep2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert run(["reduce", "-i", str(two_site_file), "-o", str(out1),
                    "--report", str(rep1)]) == 0
        assert run(["reduce", "-i", str(out1), "-o", str(out2),
                    "--report", str(rep2)]) == 0
        assert read_report(rep1)["output"] == read_report(rep2)["output"]

    def test_deterministic_output(self, tmp_path, two_site_file):
        out1, out2 = tmp_path / "a.crn", tmp_path / "b.crn"
        run(["reduce", "-i", str(two_site_file), "-o", str(out1)])
        run(["reduce", "-i", str(two_site_file), "-o", str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_singleton_initial_partition_is_identity(self, tmp_path):
        text = TWO_SITE_TEXT.replace(
            "partition { B } { A00 } { A01 A10 } { A11 }",
            "partition { B } { A00 } { A01 } { A10 } { A11 }")
        src = tmp_path / "m.crn"
        src.write_text(text)
        rep = tmp_path / "rep.json"
        assert run(["reduce", "-i", str(src), "-o", str(tmp_path / "o.crn"),
                    "--report", str(rep)]) == 0
        report = read_report(rep)
        assert report["input"] == report["output"]

    def test_partition_file_override(self, tmp_path, two_site_file):
        pfile = tmp_path / "p.txt"
        pfile.write_text("partition { A10 }\n")
        rep = tmp_path / "rep.json"
        assert run(["reduce", "-i", str(two_site_file), "-o",
                    str(tmp_path / "o.crn"), "--partition-file", str(pfile),
                    "--report", str(rep)]) == 0
        assert read_report(rep)["blocks"] == 5  # isolating A10 forces singletons

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.crn"
        bad.write_text("A -> B , [2.0 : 1.0]\n")
        assert run(["reduce", "-i", str(bad), "-o", str(tmp_path / "o.crn")]) == 1

    @pytest.mark.parametrize("text", [
        "A -> B , [1e999 : 1e999]\n",
        "A -> B , 1e999\n",
        "A -> B , 1.0\ninit A = 1e999\n",
    ])
    def test_non_finite_number_exit_code(self, tmp_path, text):
        bad = tmp_path / "bad.crn"
        bad.write_text(text)
        assert run(["reduce", "-i", str(bad), "-o", str(tmp_path / "o.crn")]) == 1

    @pytest.mark.parametrize("value", ["-1e-6", "nan", "inf", "-inf", "0"])
    def test_tolerance_out_of_range_rejected(self, tmp_path, two_site_file,
                                             value):
        # lumping is exact only: argparse rejects --tolerance as unknown
        with pytest.raises(SystemExit) as exc:
            run(["reduce", "-i", str(two_site_file), "-o",
                 str(tmp_path / "o.crn"), f"--tolerance={value}"])
        assert exc.value.code == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert run(["reduce", "-i", str(tmp_path / "nope.crn"),
                    "-o", str(tmp_path / "o.crn")]) == 1

    def test_batch(self, tmp_path):
        indir = tmp_path / "models"
        outdir = tmp_path / "out"
        indir.mkdir()
        (indir / "a.crn").write_text(TWO_SITE_TEXT)
        (indir / "b.crn").write_text("species X Y\nX -> Y , 1.0\n")
        os.environ["CRNLUMP_THREADS"] = "2"
        try:
            rc = run(["reduce", "--batch", str(indir), "--out-dir", str(outdir),
                      "--report", str(tmp_path / "rep.json")])
        finally:
            del os.environ["CRNLUMP_THREADS"]
        assert rc == 0
        report = read_report(tmp_path / "rep.json")
        assert len(report["files"]) == 2
        assert all(f["ok"] for f in report["files"])
        assert (outdir / "a.red.crn").exists()
        assert (outdir / "a.map.json").exists()
        # each entry reports what a single-file run reports, and writes the
        # same files
        assert run(["reduce", "-i", str(indir / "a.crn"),
                    "-o", str(tmp_path / "a.crn"), "--map", str(tmp_path / "a.json"),
                    "--report", str(tmp_path / "one.json")]) == 0
        one = read_report(tmp_path / "one.json")
        entry = report["files"][0]
        assert entry["file"] == str(indir / "a.crn")
        for key in ("input", "output", "blocks", "rounds", "sweeps"):
            assert entry[key] == one[key]
        assert entry["phases_ms"].keys() == one["phases_ms"].keys()
        assert (outdir / "a.red.crn").read_bytes() \
            == (tmp_path / "a.crn").read_bytes()
        assert (outdir / "a.map.json").read_bytes() \
            == (tmp_path / "a.json").read_bytes()


    def test_batch_without_out_dir_skips_its_own_outputs(self, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        (models / "ms3.crn").write_text(
            cl.serialize_model(cl.multisite_binding_model(3)))
        for _ in range(2):
            assert run(["reduce", "--batch", str(models),
                        "--report", str(tmp_path / "rep.json")]) == 0
            files = read_report(tmp_path / "rep.json")["files"]
            assert [f["file"] for f in files] == [str(models / "ms3.crn")]
        assert sorted(p.name for p in models.iterdir()) \
            == ["ms3.crn", "ms3.map.json", "ms3.red.crn"]

    def test_batch_input_named_like_an_output(self, tmp_path):
        # no `solo.crn` is reduced, so nothing writes `solo.red.crn`
        (tmp_path / "solo.red.crn").write_text(TWO_SITE_TEXT)
        assert run(["reduce", "--batch", str(tmp_path),
                    "--report", str(tmp_path / "rep.json")]) == 0
        files = read_report(tmp_path / "rep.json")["files"]
        assert [f["file"] for f in files] == [str(tmp_path / "solo.red.crn")]

    @pytest.mark.parametrize("kind", ["missing", "file"])
    @pytest.mark.parametrize("out_dir", [False, True])
    def test_batch_input_must_be_a_directory(self, tmp_path, capsys, kind,
                                             out_dir):
        given = tmp_path / "models"
        if kind == "file":
            given.write_text(TWO_SITE_TEXT)
        argv = ["reduce", "--batch", str(given)]
        if out_dir:
            argv += ["--out-dir", str(tmp_path / "out")]
        assert run(argv) == 1
        assert f"missing file: --batch {str(given)!r} is not a directory" \
            in capsys.readouterr().err
        assert given.exists() == (kind == "file")
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == (["models"] if kind == "file" else [])

    def test_batch_isolates_an_unparsable_file(self, tmp_path):
        indir, outdir = tmp_path / "models", tmp_path / "out"
        indir.mkdir()
        (indir / "a.crn").write_text(TWO_SITE_TEXT)
        (indir / "bad.crn").write_text("species A B\nA -> B , oops\n")
        assert run(["reduce", "--batch", str(indir), "--out-dir", str(outdir),
                    "--report", str(tmp_path / "rep.json")]) == 2
        files = read_report(tmp_path / "rep.json")["files"]
        assert [(f["file"], f["ok"]) for f in files] == [
            (str(indir / "a.crn"), True), (str(indir / "bad.crn"), False)]
        assert "line 2" in files[1]["error"]
        assert sorted(p.name for p in outdir.iterdir()) \
            == ["a.map.json", "a.red.crn"]

    @pytest.mark.parametrize("extra", [
        [], ["--batch", "{dir}", "-i", "{file}"],
        ["-i", "{file}", "--out-dir", "{dir}/out"],
        # single-file options that a batch run would ignore
        ["--batch", "{dir}", "-o", "{dir}/x.crn"],
        ["--batch", "{dir}", "--map", "{dir}/x.json"],
        ["--batch", "{dir}", "--partition-file", "{dir}/nothere.part"]])
    def test_input_or_batch(self, tmp_path, two_site_file, capsys, extra):
        argv = [a.format(dir=tmp_path, file=two_site_file) for a in extra]
        assert run(["reduce", *argv]) == 2
        assert "reduce: use either -i/--input or --batch [--out-dir]" \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["two_site.crn"]


_SIR = cl.SirParams(beta=0.4, gamma=0.25, eta=0.1,
                    vaccination=cl.RateInterval(0.0, 1.0))


class TestGoldenOutputs:
    """sha256 of the reduced model and the block map `reduce` writes for
    three seeded inputs: any change in those bytes shows here."""

    @pytest.mark.parametrize("family,model_sha,map_sha", [
        ("ms5", "0556909927de3d8478932b32788b5ebacf0f79351a932473ebb7514c8c9476ae",
         "27c9f37c9d7a008d2caacb219a0a73657e92b82208a1ae59646a54a9a2cded86"),
        ("star40", "d782da5e2de7829c09ec411a29e564e28990ba40a5f69ed940a7e67e09558d56",
         "055ae74f5c6a388356c77943929f0850cffd44ac065e0aeab40ce00f32f0eec0"),
        ("sirnet60", "7e83fba1e07f04b85d4a1c947828d6354f9dacedf1c7b68d213dc6d1de3d0a9d",
         "70edb60ca678090bc9c9a0bcf1d04ecd17b93b54055a20591d1b151e29ce9cff"),
    ])
    def test_reduced_files(self, tmp_path, family, model_sha, map_sha):
        doc = {"ms5": lambda: cl.multisite_binding_model(5),
               "star40": lambda: cl.sir_star_model(40, _SIR),
               "sirnet60": lambda: cl.sir_network_model(cl.parse_edge_list(
                   jittered_edge_list(7, 60, 360)), _SIR)}[family]()
        model = tmp_path / "in.crn"
        model.write_text(cl.serialize_model(doc))
        out, mp = tmp_path / "red.crn", tmp_path / "map.json"
        assert run(["reduce", "-i", str(model), "-o", str(out),
                    "--map", str(mp)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == model_sha
        assert hashlib.sha256(mp.read_bytes()).hexdigest() == map_sha


class TestBlockMap:
    @staticmethod
    def indented_dump(names, part):
        return json.dumps({"blocks": [
            {"representative": names[rep], "members": [names[i] for i in b]}
            for rep, b in zip(part.representatives, part.blocks)]},
            indent=2) + "\n"

    @pytest.mark.parametrize("part", [
        cl.Partition([[0, 3], [1], [2, 4, 5]], 6), cl.Partition.one_block(6),
        cl.Partition.singletons(6)])
    def test_awkward_names(self, part):
        names = ('q"uote', "back\\slash", "caf\u00e9", "\u222b\U0001f600",
                 "tab\tnew\nline", "plain")
        assert cli._block_map_text(names, part) == self.indented_dump(names, part)

    def test_bundled_families(self, two_site_doc):
        docs = [two_site_doc, cl.multisite_binding_model(3),
                cl.sir_star_model(5, _SIR),
                cl.sir_network_model(
                    cl.parse_edge_list(jittered_edge_list(3, 12, 30)), _SIR),
                cl.ModelDocument(from_reactions([], []),
                                 cl.Partition.one_block(0))]
        for doc in docs:
            net = doc.network
            part = cl.coarsest_equivalence(net, doc.initial_partition)
            assert cli._block_map_text(net.names, part) \
                == self.indented_dump(net.names, part)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestBatchWorkers:
    @pytest.fixture
    def pool(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        _InlinePool.created = []
        indir = tmp_path / "models"
        indir.mkdir()
        for stem in ("a", "b", "c"):
            (indir / f"{stem}.crn").write_text("species X Y\nX -> Y , 1.0\n")
        return _InlinePool.created

    def batch(self, tmp_path):
        return run(["reduce", "--batch", str(tmp_path / "models"),
                    "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("threads,expected", [
        ("64", [2]),   # clamped to the CPU count
        ("2", [2]),
        ("1", []),     # one worker runs in this process
        (None, [2]),   # unset: the CPU count
    ])
    def test_clamped(self, tmp_path, monkeypatch, pool, threads, expected):
        if threads is None:
            monkeypatch.delenv("CRNLUMP_THREADS", raising=False)
        else:
            monkeypatch.setenv("CRNLUMP_THREADS", threads)
        assert self.batch(tmp_path) == 0
        assert pool == expected
        assert len(list((tmp_path / "out").glob("*.red.crn"))) == 3

    def test_clamped_to_file_count(self, tmp_path, monkeypatch, pool):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
        monkeypatch.setenv("CRNLUMP_THREADS", "8")
        assert self.batch(tmp_path) == 0
        assert pool == [3]

    @pytest.mark.parametrize("threads", ["0", "-2", "two", "1.5", ""])
    def test_invalid_setting_rejected(self, tmp_path, monkeypatch, pool,
                                      threads, capsys):
        monkeypatch.setenv("CRNLUMP_THREADS", threads)
        assert self.batch(tmp_path) == 2
        assert "CRNLUMP_THREADS" in capsys.readouterr().err
        assert pool == []
        assert not (tmp_path / "out").exists()


class TestCheck:
    def test_good_partition_with_oracle(self, tmp_path, two_site_file):
        pfile = tmp_path / "p.txt"
        pfile.write_text("partition { B } { A00 } { A01 A10 } { A11 }\n")
        rep = tmp_path / "rep.json"
        rc = run(["check", str(two_site_file), "--partition-file", str(pfile),
                  "--oracle", "--pop-bound", "3", "--report", str(rep)])
        assert rc == 0
        report = read_report(rep)
        assert report["equivalent"] is True
        assert report["oracle"]["lower"] and report["oracle"]["upper"]

    def test_broken_partition_reports_counterexample(self, tmp_path):
        text = TWO_SITE_TEXT.replace("A10 + B -> A11 , [1.25 : 2.25]",
                                     "A10 + B -> A11 , [1.25 : 2.26]")
        src = tmp_path / "m.crn"
        src.write_text(text)
        rep = tmp_path / "rep.json"
        rc = run(["check", str(src), "--oracle", "--pop-bound", "3",
                  "--partition-file", str(tmp_path / "p.txt")])
        # partition file missing: parse error path
        assert rc == 1
        pfile = tmp_path / "p.txt"
        pfile.write_text("partition { B } { A00 } { A01 A10 } { A11 }\n")
        rc = run(["check", str(src), "--partition-file", str(pfile),
                  "--oracle", "--pop-bound", "3", "--report", str(rep)])
        assert rc == 3
        report = read_report(rep)
        assert report["equivalent"] is False
        assert "upper_counterexample" in report["oracle"]

    def test_oracle_with_explicit_init(self, tmp_path, two_site_file):
        pfile = tmp_path / "p.txt"
        pfile.write_text("partition { B } { A00 } { A01 A10 } { A11 }\n")
        rc = run(["check", str(two_site_file), "--partition-file", str(pfile),
                  "--oracle", "--pop-bound", "3", "--init", "A00=1,B=2"])
        assert rc == 0


    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_bad_pop_bound_is_a_usage_error(self, tmp_path, capsys, value):
        src = tmp_path / "m.crn"
        src.write_text("species A B\nA -> B , 1.0\n")
        with pytest.raises(SystemExit) as exc:
            run(["check", str(src), "--oracle", "--pop-bound", value])
        assert exc.value.code == 2
        assert (f"argument --pop-bound: must be a non-negative integer, "
                f"got {value!r}") in capsys.readouterr().err


class TestAssignments:
    @pytest.mark.parametrize("command,value,item,col,why", [
        ("simulate", "A00", "A00", 1, "expected NAME=VALUE"),
        ("simulate", "B=1, A00", "A00", 6, "expected NAME=VALUE"),
        ("simulate", "Q=1", "Q=1", 1, "unknown species 'Q'"),
        ("simulate", "A00=x", "A00=x", 1, "value 'x' is not a finite number"),
        ("simulate", "B=1,A00=", "A00=", 5, "value '' is not a finite number"),
        ("simulate", "A00=nan", "A00=nan", 1, "'nan' is not a finite number"),
        ("simulate", "A00=-inf", "A00=-inf", 1, "not a finite number"),
        ("simulate", "A00=1e999", "A00=1e999", 1, "not a finite number"),
        ("check", "A00=1.5", "A00=1.5", 1,
         "count '1.5' is not a non-negative integer"),
        ("check", "B=2,A00=-1", "A00=-1", 5,
         "count '-1' is not a non-negative integer"),
        ("check", "A00=x", "A00=x", 1, "not a finite number"),
        ("check", "A00", "A00", 1, "expected NAME=VALUE"),
        ("check", "Z=1", "Z=1", 1, "unknown species 'Z'"),
        ("simulate", "A00=1,A00=2", "A00=2", 7, "duplicate value for 'A00'"),
        ("check", "B=1, B=1", "B=1", 6, "duplicate value for 'B'"),
    ])
    def test_bad_item_is_a_located_parse_error(self, two_site_file, capsys,
                                               command, value, item, col, why):
        if command == "simulate":
            argv = ["simulate", str(two_site_file), "--t-end", "0.01",
                    "--init", value]
        else:
            argv = ["check", str(two_site_file), "--oracle", "--pop-bound",
                    "3", "--init", value]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"col {col}: --init item {item!r}: " in err
        assert why in err

    def test_integral_counts_accepted(self, two_site_file):
        assert run(["check", str(two_site_file), "--oracle", "--pop-bound",
                    "3", "--init", "A00=1.0, B=2"]) == 0

    def test_every_species_of_a_large_model(self):
        # star-SIR n=5000: 20,000 items, each looked up in constant time
        net = cl.sir_star_model(5000, cl.SirParams(0.4, 0.25, 0.1)).network
        text = ",".join(f"{name}=1" for name in net.names)
        start = time.perf_counter()
        out = cli._parse_assignments(text, net, "--v0")
        assert time.perf_counter() - start < 1.0
        assert out == dict.fromkeys(range(20000), 1.0)


class TestSimulateCommand:
    def test_row_count_matches_grid(self, tmp_path, two_site_file):
        out = tmp_path / "traj.csv"
        rc = run(["simulate", str(two_site_file), "--t-end", "10", "--step",
                  "1e-3", "--init", "B=1,A00=1", "-o", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) - 1 == 10001
        assert rows[0] == "t,B,A00,A01,A10,A11"

    def test_schedule_input(self, tmp_path, two_site_file):
        sched = cl.ControlSchedule(
            [0.0, 0.5], [[1.0, 0.5, 1.0, 0.5, 1.25, 0.25, 1.25, 0.25],
                         [2.0, 0.75, 2.0, 0.75, 2.25, 0.4, 2.25, 0.4]])
        sfile = tmp_path / "s.csv"
        sfile.write_text(cl.schedule_to_csv(sched))
        out = tmp_path / "traj.csv"
        rc = run(["simulate", str(two_site_file), "--schedule", str(sfile),
                  "--t-end", "1", "--step", "1e-2", "--init", "B=1,A00=1",
                  "-o", str(out)])
        assert rc == 0
        traj = cl.trajectory_from_csv(out.read_text())
        assert len(traj.times) == 101

    def test_model_init_used(self, tmp_path):
        src = tmp_path / "m.crn"
        src.write_text("species A B\nA -> B , 1.0\ninit A = 1.0\n")
        out = tmp_path / "t.csv"
        assert run(["simulate", str(src), "--t-end", "1", "--step", "0.1",
                    "-o", str(out)]) == 0

    @pytest.mark.parametrize("t_end,step,why", [
        ("nan", "1e-3", "t_end must be a nonnegative finite number, got nan"),
        ("inf", "1e-3", "t_end must be a nonnegative finite number, got inf"),
        ("-1", "1e-3", "t_end must be a nonnegative finite number, got -1.0"),
        ("1", "0", "step must be a positive finite number, got 0.0"),
        ("1", "nan", "step must be a positive finite number, got nan"),
        ("1e308", "1e-300", "t_end / step overflows: 1e+308 / 1e-300"),
        ("1e4", "1e-9", "t_end / step gives 10000000000001 grid points of 5 "
         "species, more than 100000000 values: 10000.0 / 1e-09"),
    ])
    def test_bad_horizon_is_a_usage_error(self, two_site_file, capsys,
                                          t_end, step, why):
        rc = run(["simulate", str(two_site_file), "--t-end", t_end, "--step",
                  step, "--init", "B=1,A00=1"])
        assert rc == 2
        assert capsys.readouterr().err == f"simulate: {why}\n"

    def test_missing_init_is_an_error(self, tmp_path):
        src = tmp_path / "m.crn"
        src.write_text("species A B\nA -> B , 1.0\n")
        assert run(["simulate", str(src), "--t-end", "1"]) == 2


class TestGenerate:
    def test_sir_star_requires_parameters(self, tmp_path):
        assert run(["generate", "sir-star", "--n", "3",
                    "-o", str(tmp_path / "m.crn")]) == 2

    @pytest.mark.parametrize("argv,why", [
        (["multisite"], "--n is required"),
        (["sir-net", "--beta", "0.4", "--gamma", "0.25", "--eta", "0.1"],
         "--edge-list is required for sir-net")])
    def test_missing_option_is_a_usage_error(self, tmp_path, capsys, argv,
                                             why):
        model = tmp_path / "m.crn"
        assert run(["generate", *argv, "-o", str(model)]) == 2
        assert capsys.readouterr().err == f"generate: {why}\n"
        assert not model.exists()

    @pytest.mark.parametrize("argv,doc", [
        (["multisite", "--n", "2"], lambda: cl.multisite_binding_model(2)),
        (["sir-star", "--n", "3", "--beta", "0.4", "--gamma", "0.25",
          "--eta", "0.1"],
         lambda: cl.sir_star_model(3, cl.SirParams(0.4, 0.25, 0.1)))])
    def test_default_rates_are_the_library_defaults(self, tmp_path, argv,
                                                    doc):
        model = tmp_path / "m.crn"
        assert run(["generate", *argv, "-o", str(model)]) == 0
        assert model.read_text() == cl.serialize_model(doc())

    def test_sir_star_reduce_pipeline(self, tmp_path):
        model = tmp_path / "star.crn"
        rep = tmp_path / "rep.json"
        assert run(["generate", "sir-star", "--n", "50", "--beta", "0.4",
                    "--gamma", "0.25", "--eta", "0.1", "-o", str(model)]) == 0
        assert run(["reduce", "-i", str(model), "-o", str(tmp_path / "red.crn"),
                    "--report", str(rep)]) == 0
        assert read_report(rep)["blocks"] == 7

    def test_multisite_matches_handwritten_quotient(self, tmp_path):
        model = tmp_path / "ms.crn"
        red = tmp_path / "ms.red.crn"
        assert run(["generate", "multisite", "--n", "2", "-o", str(model)]) == 0
        assert run(["reduce", "-i", str(model), "-o", str(red)]) == 0
        lumped = cl.parse_model(red.read_text()).network
        a, d = cl.DEFAULT_ASSOCIATION, cl.DEFAULT_DISSOCIATION
        expected = cl.parse_model(
            "species B A00 A01 A11\n"
            f"B + A00 -> A01 , [{2 * a.lo!r} : {2 * a.hi!r}]\n"
            f"A01 -> B + A00 , [{d.lo!r} : {d.hi!r}]\n"
            f"B + A01 -> A11 , [{a.lo!r} : {a.hi!r}]\n"
            f"A11 -> B + A01 , [{2 * d.lo!r} : {2 * d.hi!r}]\n").network
        assert networks_equal(lumped, expected)

    def test_sir_net_from_edge_list(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("# star\n1 2 1.0\n1 3 1.0\n")
        model = tmp_path / "net.crn"
        assert run(["generate", "sir-net", "--edge-list", str(edges),
                    "--undirected", "--beta", "0.4", "--gamma", "0.25",
                    "--eta", "0.1", "-o", str(model)]) == 0
        doc = cl.parse_model(model.read_text())
        assert doc.network.n_species == 12
        assert doc.initial_partition.n_blocks == 4


    @pytest.mark.parametrize("argv,name", [
        (["sir-star", "--n", "3", "--beta", "nan"], "beta"),
        (["sir-star", "--n", "3", "--beta", "0.4", "--eta", "inf"], "eta"),
        (["sir-net", "--beta", "0.4", "--uncertainty-halfwidth", "-0.1"],
         "uncertainty_halfwidth"),
    ])
    def test_bad_parameter_is_named(self, tmp_path, capsys, argv, name):
        edges = tmp_path / "g.edges"
        edges.write_text("1 2 0.5\n")
        model = tmp_path / "m.crn"
        # argparse keeps the last of a repeated option
        assert run(["generate", argv[0], "--edge-list", str(edges),
                    "--beta", "0.4", "--gamma", "0.25", "--eta", "0.1",
                    *argv[1:], "-o", str(model)]) == 2
        assert f"{name} must be finite and nonnegative" \
            in capsys.readouterr().err
        assert not model.exists()


class TestReconstructCommand:
    def test_round_trip(self, tmp_path, two_site_file):
        red = tmp_path / "red.crn"
        pfile = tmp_path / "p.txt"
        pfile.write_text("partition { B } { A00 } { A01 A10 } { A11 }\n")
        assert run(["reduce", "-i", str(two_site_file), "-o", str(red)]) == 0
        lumped = cl.parse_model(red.read_text()).network
        sched = cl.ControlSchedule.midpoint(lumped)
        sfile = tmp_path / "s.csv"
        sfile.write_text(cl.schedule_to_csv(sched))
        ltraj = cl.simulate(lumped, np.array([0.6, 0.5, 0.5, 0.1]), sched,
                            1.0, 1e-3)
        tfile = tmp_path / "lt.csv"
        tfile.write_text(cl.trajectory_to_csv(ltraj))
        out = tmp_path / "rec.csv"
        ctrl = tmp_path / "ctrl.csv"
        resid = tmp_path / "resid.csv"
        rep = tmp_path / "rep.json"
        rc = run(["reconstruct", str(two_site_file),
                  "--partition-file", str(pfile),
                  "--lumped-traj", str(tfile), "--lumped-schedule", str(sfile),
                  "--v0", "B=0.6,A00=0.5,A01=0.2,A10=0.3,A11=0.1",
                  "-o", str(out), "--control-out", str(ctrl),
                  "--residual-out", str(resid), "--report", str(rep)])
        assert rc == 0
        assert read_report(rep)["max_residual"] <= 1e-8
        traj = cl.trajectory_from_csv(out.read_text())
        assert len(traj.times) == len(ltraj.times)
        reconstructed = cl.schedule_from_csv(ctrl.read_text())
        net = cl.parse_model(TWO_SITE_TEXT).network
        reconstructed.validate_for(net)
        assert resid.read_text().startswith("t,residual")
        # the residual file reads back as exactly the result's residuals
        result = cl.reconstruct_trajectory(
            net, cl.parse_partition_file(pfile.read_text(), net),
            cl.trajectory_from_csv(tfile.read_text()),
            cl.schedule_from_csv(sfile.read_text()),
            np.array([0.6, 0.5, 0.2, 0.3, 0.1]))
        residuals = cl.trajectory_from_csv(resid.read_text())
        assert residuals.names == ("residual",)
        assert np.array_equal(residuals.times, result.trajectory.times[:-1])
        assert np.array_equal(residuals.states[:, 0], result.step_residuals)

    def lumped_inputs(self, tmp_path, two_site_file, header=None, drop=None,
                      extra=False):
        """A lumped trajectory and schedule for the two-site model; the
        trajectory file may get another header, lose a column, or gain one."""
        red = tmp_path / "red.crn"
        assert run(["reduce", "-i", str(two_site_file), "-o", str(red)]) == 0
        lumped = cl.parse_model(red.read_text()).network
        sched = cl.ControlSchedule.midpoint(lumped)
        sfile = tmp_path / "s.csv"
        sfile.write_text(cl.schedule_to_csv(sched))
        ltraj = cl.simulate(lumped, np.array([0.6, 0.5, 0.5, 0.1]), sched,
                            0.01, 1e-3)
        rows = [line.split(",") for line in
                cl.trajectory_to_csv(ltraj).splitlines()]
        if header is not None:
            rows[0] = header.split(",")
        if drop is not None:
            rows = [r[:drop] + r[drop + 1:] for r in rows]
        if extra:
            rows = [r + (["X"] if i == 0 else ["0.0"]) for i, r in enumerate(rows)]
        tfile = tmp_path / "lt.csv"
        tfile.write_text("\n".join(",".join(r) for r in rows) + "\n")
        return ["--lumped-traj", str(tfile), "--lumped-schedule", str(sfile)]

    @pytest.mark.parametrize("kwargs,col,why", [
        ({"header": "t,B,A01,A00,A11"}, 5,
         "column 3 is 'A01' where the lumped model has species 'A00'"),
        ({"drop": 4}, 12,
         "column 5 is missing where the lumped model has species 'A11'"),
        ({"extra": True}, 17,
         "column 6 is 'X' where the lumped model has no more species"),
    ])
    def test_header_must_match_lumped_species(self, tmp_path, two_site_file,
                                              capsys, kwargs, col, why):
        argv = self.lumped_inputs(tmp_path, two_site_file, **kwargs)
        rc = run(["reconstruct", str(two_site_file), *argv,
                  "--v0", "B=0.6,A00=0.5,A01=0.2,A10=0.3,A11=0.1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"line 1, col {col}: lumped trajectory header: {why}" in err

    def test_one_row_trajectory(self, tmp_path, two_site_file, capsys):
        argv = self.lumped_inputs(tmp_path, two_site_file)
        tfile = tmp_path / "lt.csv"
        tfile.write_text("\n".join(tfile.read_text().splitlines()[:2]) + "\n")
        assert run(["reconstruct", str(two_site_file), *argv,
                    "--v0", "B=0.6,A00=0.5,A01=0.2,A10=0.3,A11=0.1"]) == 2
        assert ("error: StructuralError: the trajectory has 1 time point(s); "
                "control transfer needs at least two") in capsys.readouterr().err

    def test_grid_not_starting_at_zero(self, tmp_path, two_site_file, capsys):
        argv = self.lumped_inputs(tmp_path, two_site_file)
        tfile = tmp_path / "lt.csv"
        header, *rows = tfile.read_text().splitlines()
        shifted = [repr(float(t) + 0.5) + "," + rest
                   for t, rest in (row.split(",", 1) for row in rows)]
        tfile.write_text("\n".join([header, *shifted]) + "\n")
        out = tmp_path / "rec.csv"
        assert run(["reconstruct", str(two_site_file), *argv,
                    "--v0", "B=0.6,A00=0.5,A01=0.2,A10=0.3,A11=0.1",
                    "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: StructuralError: trajectory times must start at 0 and "
            "increase strictly\n")
        assert not out.exists()

    def test_missing_v0_is_an_error(self, tmp_path, two_site_file, capsys):
        argv = self.lumped_inputs(tmp_path, two_site_file)
        out = tmp_path / "rec.csv"
        assert run(["reconstruct", str(two_site_file), *argv,
                    "-o", str(out)]) == 2
        assert capsys.readouterr().err == ("reconstruction needs an initial "
                                           "state (--v0 or model init)\n")
        assert not out.exists()

    def test_bad_v0_item(self, tmp_path, two_site_file, capsys):
        argv = self.lumped_inputs(tmp_path, two_site_file)
        assert run(["reconstruct", str(two_site_file), *argv,
                    "--v0", "B=0.6,A00=oops"]) == 1
        assert "col 7: --v0 item 'A00=oops': value 'oops'" in capsys.readouterr().err
