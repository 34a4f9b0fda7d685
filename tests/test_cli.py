"""End-to-end tests of the config-driven command-line surface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distill_lab
from distill_lab import cli as cli_mod
from distill_lab.cli import apply_overrides, build_parser, config_hash, main, validate_config
from distill_lab.errors import ConfigError, config_field
from distill_lab.data import build_source, corpus_write, sample_corpus, source_save
from distill_lab.evaluation import EvalPlan
from distill_lab.model import TabularLM, Vocab, checkpoint_load, checkpoint_save
from distill_lab.training import METRICS_HEADER
from oracles import plan_divergences


def write_config(path, cfg):
    path.write_text(json.dumps(cfg) + "\n")
    return str(path)


BASE = {
    "seed": 7,
    "source": {"name": "bimodal_gap"},
    "corpus": {"num_seqs": 20, "length": 24},
    "student_order": 1,
    "train": {"objective": "hpd", "steps": 30, "eval_every": 10, "lr": 0.5,
              "batch_size": 8, "n_eval_seqs": 4, "eval_len": 8},
}

SWEEP = ['sweep.objectives=["sft", "hpd"]', "sweep.seeds=[0, 1]"]


def _write_bad_inputs(tmp_path):
    """Students of 4 and 8 tokens, a V = 3 checkpoint row at context (7,) and a
    V = 3 source with a 2-entry row."""
    for v in (4, 8):
        checkpoint_save(TabularLM(order=1, vocab=Vocab.default(v)), tmp_path / f"s{v}.json")
    (tmp_path / "ctx7.json").write_text(json.dumps({
        "format_version": 1, "order": 1, "vocab": {"names": ["a", "b", "c"], "bos_id": 0},
        "rows": [{"context": [7], "logits": [0.0, 0.0, 0.0]}]}))
    source_save(build_source({"name": "uniform", "vocab_size": 3}), tmp_path / "short_row.json")
    doc = json.loads((tmp_path / "short_row.json").read_text())
    doc["rows"][1]["probs"] = [0.5, 0.5]
    (tmp_path / "short_row.json").write_text(json.dumps(doc))
    corpus_write(sample_corpus(build_source({"name": "bimodal_gap"}), 4, 8,
                               np.random.default_rng(0)), tmp_path / "corpus.txt")


def _run_capped(tmp_path, command, sets):
    """(exit code, peak RSS in KiB, stderr) of a command run in tmp_path under a 2 GiB
    address-space cap.

    A fresh interpreter runs the command as its one child, so RUSAGE_CHILDREN's
    peak is the command's own.
    """
    script = (
        "import resource, subprocess, sys\n"
        "cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "proc = subprocess.run(sys.argv[1:], capture_output=True, text=True,"
        " preexec_fn=cap)\n"
        "sys.stderr.write(proc.stderr)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = Path(distill_lab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, sys.executable, "-m", "distill_lab.cli", command,
         *(x for a in sets for x in ("--set", a))],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120,
    )
    code, peak_kib = map(int, proc.stdout.split())
    return code, peak_kib, proc.stderr


class TestConfigHandling:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"seed": 1, "bogus": 2})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"seed": 1, "train": {"objective": "sft", "nope": 1}})

    def test_seed_required_and_integer(self):
        with pytest.raises(ConfigError):
            validate_config({})
        for seed in ("seven", True, 7.0):
            with pytest.raises(ConfigError, match="'seed' must be an integer"):
                validate_config({"seed": seed})

    def test_overrides_parse_json_values(self):
        cfg = apply_overrides({"seed": 1}, ["train.lr=0.25", "train.objective=sft"])
        assert cfg["train"]["lr"] == 0.25
        assert cfg["train"]["objective"] == "sft"

    @pytest.mark.parametrize("cast, value, want", [
        (int, 5, 5), (int, 5.0, 5), (int, -2.0, -2), (float, 2, 2.0), (float, 0.25, 0.25),
    ])
    def test_config_field_accepts_integral_numbers(self, cast, value, want):
        got = config_field({"x": value}, "train.x", cast, 0)
        assert got == want and type(got) is cast

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "NaN", "-inf"])
    def test_config_field_rejects_non_finite_floats(self, value):
        with pytest.raises(ConfigError, match=r"^train\.lr: expected float, got "):
            config_field({"lr": value}, "train.lr", float, 0.1)

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["oops"])

    def test_config_hash_stable_and_order_independent(self):
        a = config_hash({"seed": 1, "train": {"lr": 0.1}})
        b = config_hash({"train": {"lr": 0.1}, "seed": 1})
        assert a == b and len(a) == 12
        assert config_hash({"seed": 1, "out_dir": "elsewhere", "train": {"lr": 0.1}}) == a


class TestCommands:
    def test_gen_source_and_corpus(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out")
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["gen-source", "--config", path]) == 0
        assert main(["gen-corpus", "--config", path]) == 0
        assert (tmp_path / "out" / "source.json").exists()
        corpus_lines = (tmp_path / "out" / "corpus.txt").read_text().splitlines()
        assert len(corpus_lines) == 1 + 20
        header = json.loads(corpus_lines[0])
        assert header["seed"] == 7 and "config_hash" in header

    def test_distill_writes_metrics_checkpoint_and_sidecar(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        assert main(["distill", "--config", path]) == 0
        csv = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert csv[0].startswith("# ")
        assert csv[1] == METRICS_HEADER
        assert len(csv) == 2 + 3  # eval rows at steps 10, 20, 30
        assert (tmp_path / "out" / "student.json").exists()
        assert (tmp_path / "out" / "distill_effective_config.json").exists()

    def test_distill_same_seed_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        assert main(["distill", "--config", path]) == 0
        first_csv = (tmp_path / "out" / "metrics.csv").read_bytes()
        first_ckpt = (tmp_path / "out" / "student.json").read_bytes()
        assert main(["distill", "--config", path]) == 0
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first_csv
        assert (tmp_path / "out" / "student.json").read_bytes() == first_ckpt

    @pytest.mark.parametrize("stages", [None, [
        {"name": "warm", "objective": "sft", "steps": 10},
        {"name": "polish", "objective": "opd_k1", "steps": 10, "horizon": 4}]])
    def test_distill_output_directory_changes_no_output_byte(self, tmp_path, monkeypatch,
                                                            stages):
        monkeypatch.chdir(tmp_path)
        written = []
        for out in ("run_a", "run_b"):
            cfg = dict(BASE, out_dir=out, **({"stages": stages} if stages else {}))
            assert main(["distill", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
            files = sorted(p.name for p in (tmp_path / out).glob("metrics*.csv"))
            written.append({f: (tmp_path / out / f).read_bytes()
                            for f in files + ["student.json"]})
        assert len(written[0]) == (3 if stages else 2)
        assert written[0] == written[1]

    def test_override_changes_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        assert main(["distill", "--config", path, "--set", "train.objective=sft"]) == 0
        csv = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert csv[2].split(",")[1] == "sft"

    def test_integral_float_steps_run_that_many_steps(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        assert main(["distill", "--config", path, "--set", "train.steps=5.0"]) == 0
        csv = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in csv[2:]] == ["5"]

    def test_opd_requires_on_policy_objective(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        assert main(["opd", "--config", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [("warm", "polish"), ("polish", "warm")])
    def test_opd_checks_every_stage_before_the_first_runs(self, tmp_path, monkeypatch, capsys,
                                                          order):
        # an off-policy stage, first or last, is refused before any stage trains
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli_mod, "run_experiment", None)
        stages = {"warm": {"name": "warm", "objective": "hpd", "steps": 20},
                  "polish": {"name": "polish", "objective": "opd_k1", "steps": 20, "horizon": 4}}
        cfg = dict(BASE, out_dir="out", stages=[stages[name] for name in order])
        assert main(["opd", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: 'opd' needs an on-policy objective, got 'hpd' in stage 'warm'\n")
        assert not list((tmp_path / "out").glob("metrics*"))

    @pytest.mark.parametrize("command, sets, needle", [
        ("opd", ['stages=[{"name": "warm", "objective": "hpd", "steps": 20}, '
                 '{"name": "polish", "objective": "opd_k1", "steps": 20, "horizon": 4}]'],
         "'opd' needs an on-policy objective, got 'hpd' in stage 'warm'"),
        ("distill", ["train.steps=0"], "steps must be >= 1"),
        ("distill", ["source.name=nope"], "nope"),
        # every writing command, refused where it builds its source
        *((command, ["source.name=nope"], "unknown source name 'nope'")
          for command in ("gen-source", "gen-corpus", "train-teacher", "eval")),
        ("sweep", [*SWEEP, "source.name=nope"], "unknown source name 'nope'"),
        ("sweep", [], "sweep needs 'sweep.objectives' and 'sweep.seeds'"),
        ("sweep", [*SWEEP, "train.steps=0"], "steps must be >= 1"),
        ("eval", ["train.eval_len=0"], "train.eval_len must be >= 1, got 0"),
        ("eval", ['init_checkpoint="s8.json"'],
         "teacher vocabulary size 6 != student vocabulary size 8"),
        ("gen-corpus", ["corpus.num_seqs=0"], "num_seqs and length must be >= 1"),
        # distill's lazily built corpus, student, teacher and tasks, and the library's checks
        ("distill", ["corpus.num_seqs=0"], "num_seqs and length must be >= 1"),
        ("distill", ["corpus.length=0"], "num_seqs and length must be >= 1"),
        ("distill", ["student_order=0"], "model order must be >= 1"),
        ("distill", ['init_checkpoint="missing.json"'], "No such file or directory"),
        ("distill", ["tasks.num_tasks=0"], "num_tasks and cont_len must be >= 1"),
        ("distill", ["teacher.mode=mle_fit", "teacher.smoothing=-1"], "smoothing must be >= 0"),
        ("distill", ["corpus.regime=teacher_generated", "corpus.temperature=-1"],
         "temperature must be >= 0"),
        ("distill", ["train.objective=seqkd"], "seqkd expects a teacher_generated corpus"),
        # a sweep checks every cell's corpus before its first cell runs
        ("sweep", ['sweep.objectives=["sft", "seqkd"]', "sweep.seeds=[0, 1]"],
         "seqkd expects a teacher_generated corpus"),
        ("sweep", ["sweep.objectives=[]", "sweep.seeds=[0]"], "each non-empty"),
        ("sweep", ['sweep.objectives=["sft"]', "sweep.seeds=[]"], "each non-empty"),
        # an empty path names no file: refused before any work
        *(("distill", [f'{key}=""'], f"{key}: expected a non-empty path, got ''")
          for key in ("out_dir", "source_path", "corpus_path", "init_checkpoint")),
    ])
    def test_refused_run_writes_no_file(self, tmp_path, monkeypatch, capsys, command, sets,
                                        needle):
        # a command makes its out dir, and echoes its config, at its first output file
        monkeypatch.chdir(tmp_path)
        _write_bad_inputs(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        before = sorted(os.listdir(tmp_path))
        assert main([command, "--config", path, *(x for s in sets for x in ("--set", s))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("key, value", [
        ("out_dir", "5"), ("source_path", "7"), ("corpus_path", "[1]"), ("init_checkpoint", "0"),
    ])
    def test_path_keys_must_be_strings(self, tmp_path, monkeypatch, capsys, key, value):
        # a number would name a file descriptor, and init_checkpoint=0 would read stdin
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        assert main(["distill", "--config", path, "--set", f"{key}={value}"]) == 2
        assert capsys.readouterr().err == (
            f"error: {key}: expected string, got {json.loads(value)!r}\n")
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("command", ["gen-source", "gen-corpus", "train-teacher", "distill",
                                         "opd", "eval", "sweep"])
    def test_echo_is_the_effective_config(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out", sweep={"objectives": ["sft"], "seeds": [1]})
        objective = "opd_k1" if command == "opd" else "hpd"
        sets = ["train.lr=0.25", f"train.objective={objective}", "train.horizon=4"]
        path = write_config(tmp_path / "c.json", cfg)
        assert main([command, "--config", path, *(x for s in sets for x in ("--set", s))]) == 0
        cfg["train"] = dict(BASE["train"], lr=0.25, objective=objective, horizon=4)
        echo = tmp_path / "out" / f"{command}_effective_config.json"
        assert echo.read_text() == json.dumps(cfg, indent=2, sort_keys=True) + "\n"

    def test_sweep_failing_in_a_later_cell_keeps_the_earlier_cells(self, tmp_path, monkeypatch,
                                                                  capsys):
        # opd_k1 samples off the cycle's one-hot rows once sft's cell has written its files
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out", source={"name": "deterministic_cycle"},
                   sweep={"objectives": ["sft", "opd_k1"], "seeds": [0]})
        cfg["train"] = dict(BASE["train"], horizon=4)
        assert main(["sweep", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert "outside teacher support" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path / "out")) == [
            "metrics_sft_seed0.csv", "student_sft_seed0.json", "sweep_effective_config.json"]

    def test_opd_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out")
        cfg["train"] = dict(BASE["train"], objective="opd_k1", horizon=4)
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["opd", "--config", path]) == 0
        csv = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert csv[2].split(",")[1] == "opd_k1"
        assert csv[2].split(",")[7] != ""  # mean_reward recorded

    def test_train_teacher(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        assert main(["train-teacher", "--config", path]) == 0
        doc = json.loads((tmp_path / "out" / "teacher.json").read_text())
        assert doc["order"] == 2  # defaults to the source order
        assert doc["rows"]

    @pytest.mark.parametrize("command, sets", [
        ("train-teacher", []),
        ("distill", ["student_order=2", "train.objective=sft", "train.steps=3"]),
    ])
    def test_corpus_shorter_than_the_order(self, tmp_path, monkeypatch, capsys, command, sets):
        # one sequence of one token: its one position's order-2 context is (BOS, BOS)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text(
            '{"format_version": 1, "V": 6, "provenance": "ground_truth", "seed": 0}\n3\n')
        args = ["seed=0", "source.name=bimodal_gap", 'corpus_path="c.txt"', 'out_dir="out"',
                *sets]
        assert main([command, *(x for a in args for x in ("--set", a))]) == 0
        assert capsys.readouterr().err == ""
        name = "teacher.json" if command == "train-teacher" else "student.json"
        doc = json.loads((tmp_path / "out" / name).read_text())
        assert doc["order"] == 2 and [row["context"] for row in doc["rows"]] == [[0, 0]]

    def test_huge_declared_vocabulary_exits_before_it_allocates(self, tmp_path):
        # the table size is checked before anything that grows with V, such as
        # V token names (about 15 GB at V = 10**8)
        (tmp_path / "c.txt").write_text('{"format_version": 1, "V": 100000000, '
                                        '"provenance": "ground_truth", "seed": 0}\n1 2 3\n')
        sets = ["seed=0", "source.name=bimodal_gap", 'corpus_path="c.txt"', 'out_dir="out"']
        code, peak_kib, err = _run_capped(tmp_path, "train-teacher", sets)
        assert code == 2
        assert err.startswith("error: a dense table for vocabulary size V=100000000")
        assert peak_kib < 100 * 1024  # an interpreter with numpy loaded is about 40 MiB

    def test_huge_token_id_is_written_without_a_name_per_smaller_id(self, tmp_path):
        # gen-corpus names only the ids its corpus holds; a table up to the largest
        # id would hold 10**12 strings
        body = "3 1000000000000 5\n7 0\n"
        (tmp_path / "c.txt").write_text('{"format_version": 1, "V": 10000000000000, '
                                        '"provenance": "ground_truth", "seed": 0}\n' + body)
        sets = ["seed=0", "source.name=bimodal_gap", 'corpus_path="c.txt"', 'out_dir="out"']
        code, peak_kib, err = _run_capped(tmp_path, "gen-corpus", sets)
        assert (code, err) == (0, "")
        assert (tmp_path / "out" / "corpus.txt").read_text().split("\n", 1)[1] == body
        assert peak_kib < 100 * 1024  # an interpreter with numpy loaded is about 40 MiB

    @pytest.mark.parametrize("size", ["train.batch_size=1000000000",
                                      "corpus.num_seqs=1000000000",
                                      "corpus.num_seqs=1000000000 corpus.regime=teacher_generated",
                                      "tasks.num_tasks=1000000000"])
    def test_unallocatable_size_is_a_user_error(self, tmp_path, size):
        # each size needs from 7 GiB to hundreds of GiB at once, which the cap refuses
        sets = ["seed=0", "source.name=bimodal_gap", "train.objective=hpd", 'out_dir="out"',
                *size.split()]
        code, _, err = _run_capped(tmp_path, "distill", sets)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if size.startswith("corpus.num_seqs"):
            # the corpus's start contexts are one array, whose allocation names its size;
            # in the teacher_generated regime the teacher's fit samples that ground
            # truth before any prompt exists, so the same allocation fails first
            assert re.search(r"\d [KMGTPE]?i?B\b", err), err

    def test_eval_mle_teacher_against_its_checkpoint_reads_zero(self, tmp_path,
                                                                monkeypatch):
        # teacher.json is the very model that teacher.mode=mle_fit fits
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        assert main(["train-teacher", "--config", path]) == 0
        assert main(["eval", "--config", path, "--set", "teacher.mode=mle_fit",
                     "--set", 'init_checkpoint="out/teacher.json"']) == 0
        vals = (tmp_path / "out" / "audit.csv").read_text().splitlines()[2].split(",")
        assert float(vals[0]) == 0.0 and float(vals[1]) == 0.0

    def test_eval_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out", tasks={"num_tasks": 10, "cont_len": 1})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["eval", "--config", path]) == 0
        lines = (tmp_path / "out" / "audit.csv").read_text().splitlines()
        assert lines[1] == "kl_fwd,kl_rev,mean_entropy,accuracy"
        vals = lines[2].split(",")
        assert float(vals[0]) >= 0.0 and float(vals[1]) >= 0.0

    def test_eval_reads_evaluation_keys_without_objective(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        teacher = build_source({"name": "bimodal_gap"})
        student = TabularLM(order=1, vocab=Vocab.default(6))
        audits = {}
        # train.n_eval_seqs is accepted and changes nothing; train.eval_len is read
        for name, train in (("none", {}), ("seqs4", {"n_eval_seqs": 4}),
                            ("len8", {"n_eval_seqs": 4, "eval_len": 8})):
            cfg = {"seed": 1, "out_dir": name, "source": {"name": "bimodal_gap"},
                   "train": train}
            assert main(["eval", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
            audits[name] = (tmp_path / name / "audit.csv").read_text().splitlines()[1:]
        assert audits["none"] == audits["seqs4"] != audits["len8"]
        for name, eval_len in (("none", 16), ("len8", 8)):
            vals = audits[name][1].split(",")
            want = plan_divergences(student, teacher, eval_len, "teacher")
            assert (float(vals[0]), float(vals[1])) == want
            # an untrained student is uniform at every context
            assert float(vals[2]) == pytest.approx(np.log(6.0), rel=1e-12)

    def test_gradcheck_command_exits_zero(self, capsys):
        assert main(["gradcheck", "--set", "seed=0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_stages_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out")
        cfg["stages"] = [
            {"name": "warm", "objective": "sft", "steps": 20, "eval_every": 10},
            {"name": "polish", "objective": "opd_k1", "steps": 20, "eval_every": 10,
             "horizon": 4},
        ]
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["distill", "--config", path]) == 0
        warm = (tmp_path / "out" / "metrics_warm.csv").read_text().splitlines()
        polish = (tmp_path / "out" / "metrics_polish.csv").read_text().splitlines()
        assert warm[2].split(",")[0] == "10"
        assert polish[-1].split(",")[0] == "40"
        assert (tmp_path / "out" / "student.json").exists()

    def test_sweep_writes_grid_of_csvs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out")
        cfg["train"] = dict(BASE["train"], steps=10, eval_every=10)
        cfg["sweep"] = {
            "objectives": ["sft", "fkld_dense", "rkld_off", "jsd_off", "hpd"],
            "seeds": [0, 1, 2, 3, 4],
        }
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", "--config", path]) == 0
        csvs = sorted((tmp_path / "out").glob("metrics_*_seed*.csv"))
        assert len(csvs) == 25
        for f in csvs:
            assert f.read_text().splitlines()[1] == METRICS_HEADER

    @pytest.mark.parametrize("mode", ["oracle_source", "mle_fit"])
    def test_sweep_samples_one_corpus_per_seed(self, tmp_path, monkeypatch, mode):
        # the cells of a seed share its ground truth, MLE teacher and tasks
        monkeypatch.chdir(tmp_path)
        calls = []
        for module, name in ((cli_mod.data_mod, "sample_corpus"), (cli_mod, "train_teacher_mle"),
                             (cli_mod, "make_completion_tasks")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **kw:
                                calls.append(name) or real(*a, **kw))
        cfg = dict(BASE, out_dir="out", teacher={"mode": mode}, tasks={"num_tasks": 5})
        cfg["train"] = dict(BASE["train"], steps=5, eval_every=5)
        cfg["sweep"] = {"objectives": ["sft", "rkld_off", "hpd"], "seeds": [0, 1]}
        assert main(["sweep", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        assert len(list((tmp_path / "out").glob("metrics_*_seed*.csv"))) == 6
        once = ["sample_corpus", "make_completion_tasks"]
        once += ["train_teacher_mle"] if mode == "mle_fit" else []
        assert sorted(calls) == sorted(once * 2)

    def test_sweep_with_a_repeated_cell_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out", sweep={"objectives": ["sft", "sft"], "seeds": [0, 0]})
        assert main(["sweep", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert "already an earlier entry" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_cells_match_single_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="sweep")
        cfg["train"] = dict(BASE["train"], steps=20, horizon=4)
        cfg["sweep"] = {"objectives": ["rkld_off", "opd_k1"], "seeds": [3]}
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", cfg)]) == 0
        for command, tag in (("distill", "rkld_off"), ("opd", "opd_k1")):
            single = dict(cfg, seed=3, out_dir=tag)
            del single["sweep"]
            single["train"] = dict(cfg["train"], objective=tag)
            path = write_config(tmp_path / f"{tag}.json", single)
            assert main([command, "--config", path]) == 0
            swept = (tmp_path / "sweep" / f"metrics_{tag}_seed3.csv").read_text()
            alone = (tmp_path / tag / "metrics.csv").read_text()
            assert swept.splitlines()[1:] == alone.splitlines()[1:]
            a = checkpoint_load(tmp_path / "sweep" / f"student_{tag}_seed3.json")
            b = checkpoint_load(tmp_path / tag / "student.json")
            assert np.array_equal(a.touched, b.touched)
            assert np.array_equal(a.table, b.table)

    @pytest.mark.parametrize("eval_from", ["teacher", "student"])
    def test_last_metrics_row_is_eval_of_the_saved_student(self, tmp_path, monkeypatch,
                                                           eval_from):
        # a run reads its plan at every eval_every-th step; eval plans once for one reading
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out", tasks={"num_tasks": 20})
        cfg["train"] = dict(BASE["train"], eval_from=eval_from)
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["distill", "--config", path]) == 0
        assert main(["eval", "--config", path, "--set", 'init_checkpoint="out/student.json"']) == 0
        row = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[-1].split(",")
        audit = (tmp_path / "out" / "audit.csv").read_text().splitlines()[-1].split(",")
        assert row[4:7] == audit[:2] + audit[3:] and row[6] != ""

    @pytest.mark.parametrize("eval_from", ["teacher", "student"])
    def test_eval_propagates_the_occupancy_once(self, tmp_path, monkeypatch, eval_from):
        # mean_entropy and both divergences read one occupancy
        monkeypatch.chdir(tmp_path)
        calls = []
        propagate = EvalPlan._propagate
        monkeypatch.setattr(EvalPlan, "_propagate",
                            lambda plan, drive: calls.append(1) or propagate(plan, drive))
        cfg = dict(BASE, out_dir="out")
        cfg["train"] = dict(BASE["train"], eval_from=eval_from)
        assert main(["eval", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        assert len(calls) == 1

    def test_eval_support_violation_writes_inf(self, tmp_path, monkeypatch):
        # a uniform student covers the cycle's one-hot rows, not the reverse
        monkeypatch.chdir(tmp_path)
        cfg = {"seed": 1, "out_dir": "out", "source": {"name": "deterministic_cycle"}}
        assert main(["eval", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        vals = (tmp_path / "out" / "audit.csv").read_text().splitlines()[2].split(",")
        assert math.isfinite(float(vals[0])) and float(vals[1]) == math.inf

    @pytest.mark.parametrize("command, sets, needle", [
        ("distill", ["train.steps=abc"], "train.steps"),
        ("distill", ["student_order=0"], "order"),
        ("opd", ["source.name=deterministic_cycle", "teacher.mode=mle_fit",
                 "teacher.smoothing=0", "train.objective=opd_k1", "train.horizon=4"],
         "outside teacher support"),
        ("distill", ["timing=42"], "timing"),
        ("distill", ["train.temperature=9"], "temperature"),
        ("distill", ["source=5"], "'source' must be an object"),
        ("distill", ["teacher=3"], "'teacher' must be an object"),
        ("distill", ["tasks=7"], "'tasks' must be an object"),
        ("distill", ["train=3"], "'train' must be an object"),
        ("sweep", ["sweep.objectives=5", "sweep.seeds=[0]"], "sweep.objectives"),
        ("distill", ["source.vocab_size=abc"], "source.vocab_size"),
        ("distill", ["source.eps=x"], "source.eps"),
        ("distill", ["teacher.mode=psychic"], "psychic"),
        # not JSON, so the value stays the string "False"
        ("distill", ["train.opd_baseline=False"], "train.opd_baseline"),
        ("distill", ['stages=[{"name": "a", "objective": "rkld_off", "sign_fidelity": "yes"}]'],
         "sign_fidelity"),
        ("sweep", ['sweep.objectives=["sft"]', 'sweep.seeds="12"'], "sweep.seeds"),
        ("eval", ["train.eval_from=elsewhere"], "eval_from"),
        # bimodal_gap has 6 tokens
        ("opd", ['init_checkpoint="s8.json"', "train.objective=opd_k1"],
         "teacher vocabulary size 6 != student vocabulary size 8"),
        ("opd", ['init_checkpoint="s4.json"', "train.objective=opd_k1"],
         "teacher vocabulary size 6 != student vocabulary size 4"),
        ("distill", ["student_order=12"], "V=6 and order k=12"),
        ("eval", ['init_checkpoint="ctx7.json"'], "context (7,) has out-of-range token ids"),
        ("gen-corpus", ['source_path="short_row.json"'], "probs must list 3 numbers"),
        ("distill", ["train.eval_len=-1"], "train.eval_len must be >= 1"),
        ("distill", ["train.eval_len=0"], "train.eval_len must be >= 1"),
        ("eval", ["train.eval_len=-1"], "train.eval_len must be >= 1"),
        ("eval", ["train.eval_len=0"], "train.eval_len must be >= 1"),
        ("distill", ["train.steps=5.7"], "train.steps: expected int, got 5.7"),
        ("distill", ["train.steps=true"], "train.steps: expected int, got True"),
        ("distill", ["train.lr=true"], "train.lr: expected float, got True"),
        ("distill", ["source.vocab_size=false"], "source.vocab_size: expected int, got False"),
        ("distill", ["corpus.num_seqs=Infinity"], "corpus.num_seqs: expected int, got inf"),
        ("distill", ["train.batch_size=NaN"], "train.batch_size: expected int, got nan"),
        ("distill", ["train.beta=false"], "train.beta: expected float, got False"),
        # a stage's name names its metrics file: one per stage, and a plain file name
        ("distill", ['stages=[{"name": "a", "objective": "sft"}, '
                     '{"name": "a", "objective": "rkld_off"}]'],
         "stages[1].name 'a' is already an earlier stage's name"),
        ("distill", ['stages=[{"objective": "sft"}, {"name": "stage0", "objective": "sft"}]'],
         "stages[1].name 'stage0' is already an earlier stage's name"),
        ("distill", ['stages=[{"name": 7, "objective": "sft"}]'],
         "stages[0].name must be a non-empty string, got 7"),
        ("distill", ['stages=[{"name": "", "objective": "sft"}]'],
         "stages[0].name must be a non-empty string, got ''"),
        ("distill", ['stages=[{"name": "../up", "objective": "sft"}]'],
         "stages[0].name '../up' contains a path separator"),
        ("distill", ['stages=[{"name": "a\\\\b", "objective": "sft"}]'],
         "contains a path separator"),
        # every typed key is checked, whether or not the command reads it
        ("opd", ["train.objective=opd_k1", "corpus.temperature=abc"],
         "corpus.temperature: expected float, got 'abc'"),
        ("opd", ["train.objective=opd_k1", "teacher.smoothing=abc"],
         "teacher.smoothing: expected float, got 'abc'"),
        ("opd", ["train.objective=opd_k1", "teacher.order=abc"],
         "teacher.order: expected int, got 'abc'"),
        ("opd", ["train.objective=opd_k1", "gradcheck.eps=abc"],
         "gradcheck.eps: expected float, got 'abc'"),
        ("opd", ["train.objective=opd_k1", "tasks.min_conf=abc"],
         "tasks.min_conf: expected float, got 'abc'"),
        ("gradcheck", ["corpus.num_seqs=2.5"], "corpus.num_seqs: expected int, got 2.5"),
        ("gen-source", ["train.n_eval_seqs=many"], "train.n_eval_seqs: expected int, got 'many'"),
        ("gen-source", ['stages=[{"objective": "sft", "lr": "fast"}]'],
         "stages[0].lr: expected float, got 'fast'"),
        # every enumerated value is checked, whether or not the command reads it
        ("gen-source", ["train.objective=bogus"], "unknown objective tag 'bogus'"),
        ("eval", ["train.objective=bogus"], "unknown objective tag 'bogus'"),
        ("gen-corpus", ["teacher.mode=bogus"], "unknown teacher.mode 'bogus'"),
        ("opd", ["train.objective=opd_k1", "corpus.regime=bogus"],
         "unknown corpus regime 'bogus'"),
        # a corpus file is read whatever the regime says, but the regime is still checked
        ("distill", ["corpus.regime=bogus", 'corpus_path="corpus.txt"'],
         "unknown corpus regime 'bogus'"),
        ("gen-source", ["train.opd_reward_mode=sideways"], "unknown opd_reward_mode 'sideways'"),
        ("gen-source", ["train.eval_from=elsewhere"], "unknown eval_from 'elsewhere'"),
        ("gen-source", ['stages=[{"objective": "bogus"}]'], "unknown objective tag 'bogus'"),
        ("gen-source", ['stages=[{"objective": "sft", "eval_from": "x"}]'],
         "unknown eval_from 'x'"),
        # NaN and infinities are not floats a run can use
        ("train-teacher", ["teacher.smoothing=NaN"], "teacher.smoothing: expected float, got nan"),
        ("train-teacher", ["teacher.smoothing=Infinity"],
         "teacher.smoothing: expected float, got inf"),
        ("distill", ["train.lr=NaN"], "train.lr: expected float, got nan"),
        ("distill", ["train.lr=-Infinity"], "train.lr: expected float, got -inf"),
        ("gen-source", ["tasks.min_conf=NaN"], "tasks.min_conf: expected float, got nan"),
        # the sweep lists are checked whichever command runs
        ("gen-source", ['sweep.objectives=["bogus"]', 'sweep.seeds="x"'],
         "sweep.seeds: expected a list of integers, got 'x'"),
        ("gen-source", ['sweep.objectives=["bogus"]'], "unknown objective tag 'bogus' in sweep"),
        ("eval", ['sweep.objectives="hpd"'], "sweep.objectives: expected a list, got 'hpd'"),
        ("distill", ["sweep.seeds=[0, true]"], "sweep.seeds: expected a list of integers"),
        # a sweep cell's objective and seed name its files: a repeat would overwrite one
        ("sweep", ['sweep.objectives=["sft", "sft"]', "sweep.seeds=[0, 0]"],
         "sweep.objectives[1] 'sft' is already an earlier entry"),
        ("sweep", ['sweep.objectives=["sft", "hpd"]', "sweep.seeds=[0, 1, 0]"],
         "sweep.seeds[2] 0 is already an earlier entry"),
        ("gen-source", ["sweep.seeds=[3, 3]"], "sweep.seeds[1] 3 is already an earlier entry"),
        # numpy seeds a generator with a non-negative integer only
        ("gen-corpus", ["seed=-5"], "seed must be >= 0, got -5"),
        ("distill", ["seed=-5"], "seed must be >= 0, got -5"),
        ("sweep", ['sweep.objectives=["sft"]', "sweep.seeds=[0]", "seed=-5"],
         "seed must be >= 0, got -5"),
        ("gen-source", ["source.name=random_dirichlet", "source.seed=-1"],
         "source.seed must be >= 0, got -1"),
        ("distill", ["source.seed=-1"], "source.seed must be >= 0, got -1"),
        ("gradcheck", ["gradcheck.model_seed=-3"], "gradcheck.model_seed must be >= 0, got -3"),
        ("sweep", ['sweep.objectives=["sft"]', "sweep.seeds=[0, -1]"],
         "sweep.seeds[1] must be >= 0, got -1"),
        ("eval", ["sweep.seeds=[-1]"], "sweep.seeds[0] must be >= 0, got -1"),
        # a gradient check of no tokens checks nothing
        ("gradcheck", ["gradcheck.n_tokens=-3"], "gradcheck.n_tokens must be >= 1, got -3"),
        ("gradcheck", ["gradcheck.n_tokens=0"], "gradcheck.n_tokens must be >= 1, got 0"),
        # each token is one set_row: 10**8 of them would run for most of an hour
        ("gradcheck", ["gradcheck.n_tokens=100000000"],
         "gradcheck.n_tokens must be <= 4194304, got 100000000"),
        # the MLE teacher's logits divided by the temperature leave the float range; a
        # numpy overflow warning before the error would fail the suite (filterwarnings)
        ("gen-corpus", ["corpus.regime=teacher_generated", "corpus.temperature=1e-308"],
         "temperature 1e-308 scales a teacher logit beyond the float range"),
    ])
    def test_user_errors_exit_two(self, tmp_path, monkeypatch, capsys, command, sets,
                                  needle):
        monkeypatch.chdir(tmp_path)
        _write_bad_inputs(tmp_path)
        path = write_config(tmp_path / "c.json", dict(BASE, out_dir="out"))
        argv = [command, "--config", path]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err

    def test_stage_only_distill_runs(self, tmp_path, monkeypatch):
        # every stage names its objective, so train.objective may be absent
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out")
        cfg["train"] = {k: v for k, v in BASE["train"].items() if k != "objective"}
        cfg["stages"] = [{"name": "warm", "objective": "sft", "steps": 10},
                         {"name": "polish", "objective": "opd_k1", "steps": 5, "horizon": 4}]
        assert main(["distill", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        for name in ("metrics_warm.csv", "metrics_polish.csv", "student.json"):
            assert (tmp_path / "out" / name).exists()

    def test_failed_stage_writes_no_metrics(self, tmp_path, monkeypatch, capsys):
        # the polish stage samples off the cycle's one-hot rows; every metrics file is
        # written once the last stage completes, so the warmup's is not written either
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE, out_dir="out", source={"name": "deterministic_cycle"})
        cfg["stages"] = [{"name": "warm", "objective": "sft", "steps": 10},
                         {"name": "polish", "objective": "opd_k1", "steps": 5, "horizon": 4}]
        assert main(["distill", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert "outside teacher support" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("metrics_*.csv"))

    def test_bad_later_stage_fails_before_the_first_runs(self, tmp_path, monkeypatch, capsys):
        # every stage's config is checked before any stage trains
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(distill_lab.training, "_train_loop", None)
        cfg = dict(BASE, out_dir="out")
        cfg["stages"] = [{"name": "warm", "objective": "sft", "steps": 10},
                         {"name": "polish", "objective": "opd_k1", "steps": 5, "horizon": 0}]
        assert main(["distill", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert capsys.readouterr().err == "error: horizon must be >= 1\n"
        assert not list((tmp_path / "out").glob("metrics_*.csv"))

    def test_user_error_exits_two_as_a_process(self, tmp_path):
        src = Path(distill_lab.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "distill_lab.cli", "distill", "--set", "seed=1",
             "--set", "source.name=bimodal_gap", "--set", "train.objective=sft",
             "--set", "train.steps=abc"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "train.steps" in proc.stderr

    def test_parser_is_built_once_and_keeps_no_overrides(self, tmp_path, monkeypatch, capsys):
        # every main call parses with one parser: one call's --set must not reach the next
        monkeypatch.chdir(tmp_path)
        assert build_parser() is build_parser()
        assert main(["distill", "--set", "seed=1", "--set", "wat=2"]) == 2
        assert capsys.readouterr().err == "error: unknown config key 'wat'\n"
        assert main(["distill", "--set", "seed=1"]) == 2
        assert capsys.readouterr().err == "error: train config needs an 'objective' tag\n"
        with pytest.raises(SystemExit) as info:
            main(["distill", "--bogus"])
        assert info.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, capsys):
        assert main(["distill", "--config", "/nonexistent/cfg.json"]) == 2

    def test_bad_config_key_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {"seed": 1, "wat": 2})
        assert main(["distill", "--config", str(path)]) == 2
