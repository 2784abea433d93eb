"""Command-line harness tests: file formats, determinism, exit codes."""

import argparse
import csv
import json
import os
import re
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from factored_sdp import cli, objective, solvers, stepsize
from factored_sdp.cli import (
    ALGORITHMS,
    CliError,
    TripletFormatError,
    _parse_algos,
    _per_algo_values,
    _resolve_steps,
    build_parser,
    main,
    read_triplets,
)
from factored_sdp.linalg import truncated_approx
from factored_sdp.objective import (
    EmptyTestSet,
    planted_triplets,
    sensing_generate,
    snapshot_threads,
    split_triplets,
)
from factored_sdp.objective import test_error as triplet_error


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def data_files(root):
    """Every output file of a run directory but its run.json, by name."""
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())
            if path.name != "run.json"}


def read_manifest(root):
    return json.loads(file_bytes(root / "run.json"))


def planted_instance(p=12, dim=2, n=300, seed=3):
    """Points, their Gram matrix, and triplets whose ordering is exact."""
    points, triplets = planted_triplets(p, dim, n, seed)
    return points, points @ points.T, triplets


class TestTestError:
    def test_identity_scores_one(self):
        """All pairwise distances tie under I, and ties count as violations."""
        T = np.array([[0, 1, 2], [3, 4, 1]])
        assert triplet_error(np.eye(5), T) == 1.0

    def test_planted_gram_scores_zero(self):
        """Triplets ordered by the true distances are all satisfied."""
        _, X, T = planted_instance()
        assert triplet_error(X, T) == 0.0

    def test_flipped_triplets_score_one(self):
        _, X, T = planted_instance()
        flipped = T[:, [0, 2, 1]]
        assert triplet_error(X, flipped) == 1.0

    def test_unrelated_gram_scores_near_half(self):
        """A Gram matrix independent of the triplets gets ~chance error."""
        _, _, T = planted_instance(p=40, n=10000, seed=7)
        rng = np.random.default_rng(11)
        V = rng.standard_normal((40, 6))
        err = triplet_error(V @ V.T, T)
        assert 0.4 < err < 0.6

    def test_empty_set_raises(self):
        with pytest.raises(EmptyTestSet):
            triplet_error(np.eye(4), np.zeros((0, 3), dtype=int))

    def test_bad_shape_raises(self):
        with pytest.raises(EmptyTestSet):
            triplet_error(np.eye(4), np.array([[0, 1], [2, 3]]))

    @pytest.mark.parametrize("index", [0.5, 1.2, np.nan, np.inf])
    def test_non_integer_index_raises(self, index):
        """An index is rejected, not truncated, unless it is an integer value."""
        with pytest.raises(ValueError, match="integer values"):
            triplet_error(np.eye(3), np.array([[index, 1.0, 2.0]]))

    def test_integer_valued_floats_score_as_indices(self):
        _, X, T = planted_instance()
        assert triplet_error(X, T.astype(float)) == triplet_error(X, T) == 0.0


class TestReadTriplets:
    def write(self, tmp_path, text):
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_roundtrip_with_comments(self, tmp_path):
        path = self.write(tmp_path, "# header\n0 1 2\n\n4 0 3\n# tail\n")
        T, p = read_triplets(path)
        np.testing.assert_array_equal(T, [[0, 1, 2], [4, 0, 3]])
        assert p == 5

    def test_explicit_p_kept(self, tmp_path):
        path = self.write(tmp_path, "0 1 2\n")
        _, p = read_triplets(path, p=9)
        assert p == 9

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = self.write(tmp_path, "0 1 2\n0 1\n")
        with pytest.raises(TripletFormatError, match="line 2"):
            read_triplets(path)

    def test_non_integer_reports_line(self, tmp_path):
        path = self.write(tmp_path, "# c\n0 one 2\n")
        with pytest.raises(TripletFormatError, match="line 2"):
            read_triplets(path)

    @pytest.mark.parametrize("token", ["1_0", "+4", "\u0663"])
    def test_only_plain_decimal_indices(self, tmp_path, token):
        """``int`` would read these as 10, 4 and 3 (an Arabic-Indic digit)."""
        path = self.write(tmp_path, f"0 1 2\n{token} 7 8\n")
        with pytest.raises(TripletFormatError, match="line 2: non-integer index"):
            read_triplets(path)

    def test_negative_index_rejected(self, tmp_path):
        path = self.write(tmp_path, "0 -1 2\n")
        with pytest.raises(TripletFormatError, match="negative"):
            read_triplets(path)

    def test_out_of_range_for_given_p(self, tmp_path):
        path = self.write(tmp_path, "0 1 2\n0 1 7\n")
        with pytest.raises(TripletFormatError, match="line 2.*p=5"):
            read_triplets(path, p=5)

    def test_repeated_index_rejected(self, tmp_path):
        path = self.write(tmp_path, "0 1 1\n")
        with pytest.raises(TripletFormatError, match="distinct"):
            read_triplets(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "# only comments\n")
        with pytest.raises(TripletFormatError, match="no triplets") as info:
            read_triplets(path)
        assert path in str(info.value)
        assert "line 0" not in str(info.value)

    def test_index_too_large_for_an_array_reports_line(self, tmp_path, capsys):
        path = self.write(tmp_path, "0 1 2\n0 1 100000000000000000000\n")
        with pytest.raises(TripletFormatError, match="line 2.*too large"):
            read_triplets(path)
        out = tmp_path / "o"
        rc = main(["embed", "--triplets", path, "--out", str(out), "--epochs", "1",
                   "--eta", "0.05"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2") and err.count("\n") == 1
        assert not out.exists()

    def test_malformed_file_exits_2_via_cli(self, tmp_path, capsys):
        path = self.write(tmp_path, "0 1 2\n0 1 2 3\n")
        rc = main(["embed", "--triplets", path, "--out", str(tmp_path / "o"),
                   "--epochs", "1", "--eta", "0.05"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_bytes(b"0 1 2\n\xff\xfe 1 2\n")
        with pytest.raises(TripletFormatError, match="not a UTF-8"):
            read_triplets(str(path))
        out = tmp_path / "o"
        rc = main(["embed", "--triplets", str(path), "--out", str(out),
                   "--epochs", "1", "--eta", "0.05"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not out.exists()


class TestParseHelpers:
    def test_parse_algos_passthrough(self):
        assert _parse_algos("fgd,svrg-sbb") == ["fgd", "svrg-sbb"]

    def test_parse_algos_unknown(self):
        with pytest.raises(argparse.ArgumentTypeError, match="unknown algorithm"):
            _parse_algos("fgd,newton")

    def test_parse_algos_duplicate(self):
        with pytest.raises(argparse.ArgumentTypeError, match="duplicates"):
            _parse_algos("fgd,fgd")

    def test_per_algo_broadcast(self):
        got = _per_algo_values([0.5], ["fgd", "sfgd"], "--eta")
        assert got == {"fgd": 0.5, "sfgd": 0.5}

    def test_per_algo_list_must_match(self):
        with pytest.raises(CliError, match="--eta"):
            _per_algo_values([0.5, 0.1], ["fgd", "sfgd", "projgd"], "--eta")

    def test_per_algo_non_numeric(self):
        """The parser reads --eta as a comma list of numbers."""
        parser = build_parser()
        args = parser.parse_args(["sensing", "--out", "o", "--eta", "0.5,1e-3"])
        assert args.eta == [0.5, 1e-3]
        with pytest.raises(CliError, match="argument --eta: invalid float value: '0.5,big'"):
            parser.parse_args(["sensing", "--out", "o", "--eta", "0.5,big"])

    def test_default_steps_cover_all_algorithms(self, tmp_path, monkeypatch):
        """Sensing hands _resolve_steps a default step for each of the six names."""
        seen = []
        monkeypatch.setattr(cli, "_resolve_steps", lambda args, defaults, n: (
            seen.append(defaults), _resolve_steps(args, defaults, n)))
        assert main(["sensing", "--p", "8", "--r", "2", "--n", "60", "--epochs", "1",
                     "--region-samples", "2", "--algos", "fgd",
                     "--out", str(tmp_path / "run")]) == 0
        [steps] = seen
        assert set(steps) == set(ALGORITHMS)
        assert steps["sfgd"] < steps["fgd"]
        assert steps["svrg-fixed"] == steps["sfgd"]

    def test_split_partitions_disjointly(self):
        T = np.arange(303).reshape(101, 3)
        train, test = split_triplets(T, 0.8, seed=4)
        assert train.shape[0] + test.shape[0] == 101
        assert abs(train.shape[0] - 0.8 * 101) <= 1.0
        merged = np.vstack([train, test])
        assert len({tuple(row) for row in merged}) == 101


class TestGenTriplets:
    def run(self, tmp_path, name, **kw):
        out = tmp_path / name
        argv = ["gen-triplets", "--out", str(out)]
        for flag, value in kw.items():
            argv.extend([f"--{flag}", str(value)])
        rc = main(argv)
        return rc, out

    def test_outputs_and_determinism(self, tmp_path):
        rc1, d1 = self.run(tmp_path, "a", p=15, count=200, seed=5)
        rc2, d2 = self.run(tmp_path, "b", p=15, count=200, seed=5)
        assert rc1 == rc2 == 0
        for name in ("triplets.txt", "points.csv", "run.json"):
            assert file_bytes(d1 / name) == file_bytes(d2 / name)

    def test_noiseless_triplets_match_points(self, tmp_path):
        _, out = self.run(tmp_path, "clean", p=15, count=300, seed=1)
        rows = read_rows(out / "points.csv")
        points = np.asarray(rows[1:], dtype=float)
        T, p = read_triplets(str(out / "triplets.txt"))
        assert p == 15
        assert T.shape == (300, 3)
        d2 = lambda a, b: np.sum((points[a] - points[b]) ** 2)
        assert all(d2(i, j) < d2(i, k) for i, j, k in T)

    def test_noise_flips_expected_fraction(self, tmp_path):
        _, out = self.run(tmp_path, "noisy", p=30, count=4000, noise=0.3,
                          seed=2)
        points = np.asarray(read_rows(out / "points.csv")[1:], dtype=float)
        T, _ = read_triplets(str(out / "triplets.txt"))
        d2 = lambda a, b: np.sum((points[a] - points[b]) ** 2)
        flipped = np.mean([d2(i, j) > d2(i, k) for i, j, k in T])
        np.testing.assert_allclose(flipped, 0.3, atol=0.03)

    def test_rejects_bad_parameters(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, "bad1", p=2)
        assert rc == 2
        rc, _ = self.run(tmp_path, "bad2", noise=1.5)
        assert rc == 2
        capsys.readouterr()

    def test_replay_reproduces_bytes(self, tmp_path):
        _, d1 = self.run(tmp_path, "orig", p=12, count=150, noise=0.1, seed=9)
        d2 = tmp_path / "replayed"
        rc = main(["replay", str(d1 / "run.json"), "--out", str(d2)])
        assert rc == 0
        assert file_bytes(d1 / "triplets.txt") == file_bytes(d2 / "triplets.txt")
        assert file_bytes(d1 / "points.csv") == file_bytes(d2 / "points.csv")


def run_sensing(out, **overrides):
    argv = ["sensing", "--out", str(out), "--p", "8", "--r", "2",
            "--n", "80", "--epochs", "3", "--seeds", "2",
            "--algos", "fgd,svrg-fixed"]
    for flag, value in overrides.items():
        argv.extend([f"--{flag.replace('_', '-')}", str(value)])
    return main(argv)


class TestSensingCommand:
    OUTPUTS = ("curves.csv", "summary.csv", "constants.csv", "plot.gp",
               "run.json")

    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run_sensing(out) == 0
        for name in self.OUTPUTS:
            assert (out / name).exists()

    def test_curve_shape_and_order(self, tmp_path):
        out = tmp_path / "run"
        run_sensing(out)
        rows = read_rows(out / "curves.csv")
        assert rows[0] == ["algorithm", "seed", "epoch", "eta", "f",
                           "error_X", "error_U", "sample_grads"]
        body = rows[1:]
        assert len(body) == 2 * 2 * 4  # algos x seeds x (epochs + 1)
        keys = [(r[0], int(r[1]), int(r[2])) for r in body]
        assert keys == sorted(keys)
        finals = [r for r in body if int(r[2]) == 3]
        assert all(float(r[3]) == 0.0 for r in finals)

    def test_eval_every_thins_rows(self, tmp_path):
        out = tmp_path / "run"
        run_sensing(out, epochs=6, eval_every=2, seeds=1, algos="fgd")
        rows = read_rows(out / "curves.csv")[1:]
        assert [int(r[2]) for r in rows] == [0, 2, 4, 6]

    def test_reruns_are_byte_identical(self, tmp_path):
        """Everything but run.json's measured trial seconds repeats exactly."""
        run_sensing(tmp_path / "a")
        run_sensing(tmp_path / "b")
        for name in self.OUTPUTS:
            if name != "run.json":
                assert file_bytes(tmp_path / "a" / name) == \
                    file_bytes(tmp_path / "b" / name)
        a, b = read_manifest(tmp_path / "a"), read_manifest(tmp_path / "b")
        for trial in a["timing"]["trials"] + b["timing"]["trials"]:
            trial.pop("solver_s")
        assert a == b

    def test_replay_reproduces_bytes(self, tmp_path):
        out = tmp_path / "orig"
        run_sensing(out)
        rep = tmp_path / "rep"
        rc = main(["replay", str(out / "run.json"), "--out", str(rep)])
        assert rc == 0
        for name in ("curves.csv", "summary.csv", "constants.csv", "plot.gp"):
            assert file_bytes(out / name) == file_bytes(rep / name)

    def test_manifest_resolves_defaults(self, tmp_path):
        out = tmp_path / "run"
        run_sensing(out)
        manifest = json.loads(file_bytes(out / "run.json"))
        argv = manifest["replay_argv"]
        assert manifest["command"] == "sensing"
        assert argv[0] == "sensing"
        assert "--eta" in argv and "--m" in argv and "--init-radius" in argv
        assert "--out" not in argv and "--jobs" not in argv

    def test_jobs_do_not_change_bytes(self, tmp_path):
        run_sensing(tmp_path / "serial")
        run_sensing(tmp_path / "parallel", jobs=3)
        assert data_files(tmp_path / "serial") == data_files(tmp_path / "parallel")

    def test_unknown_algorithm_exits_2(self, tmp_path, capsys):
        assert run_sensing(tmp_path / "run", algos="fgd,newton") == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_mismatched_eta_list_exits_2(self, tmp_path, capsys):
        assert run_sensing(tmp_path / "run", eta="0.1,0.2,0.3") == 2
        assert "--eta" in capsys.readouterr().err

    def test_divergence_exits_3_with_partial_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_sensing(out, algos="fgd", eta="1e6", seeds=1, epochs=20)
        assert rc == 3
        body = read_rows(out / "curves.csv")[1:]
        last = body[-1]
        assert last[3] == "0.0" and last[4] == "nan"
        assert int(last[2]) < 20
        assert capsys.readouterr().err == \
            f"diverged: fgd seed 0 at epoch {last[2]}, step 1000000.0\n"
        summary = read_rows(out / "summary.csv")
        assert summary[1][0] == "fgd"

    def test_default_algorithms_converge(self, tmp_path):
        """With only size flags given, every default algorithm converges.

        svrg-sbb0 stays selectable but is not a default: its plain secant
        step diverges by construction on these instances.
        """
        out = tmp_path / "run"
        assert main(["sensing", "--p", "20", "--r", "2", "--out", str(out)]) == 0
        summary = read_rows(out / "summary.csv")
        assert [row[:4] for row in summary[1:]] == [
            ["svrg-fixed", "3e-06", "1", "1"], ["svrg-sbb", "3e-06", "1", "1"]]

    def test_default_steps_read_the_constants_rows(self, tmp_path, monkeypatch):
        """The default steps read L and sigma_1 off the record constants.csv prints."""
        seen = []

        def recorded(args, defaults, n):
            seen.append(defaults)
            return _resolve_steps(args, defaults, n)

        monkeypatch.setattr(cli, "_resolve_steps", recorded)
        out = tmp_path / "run"
        assert main(["sensing", "--p", "20", "--r", "2", "--epochs", "1",
                     "--seeds", "1", "--algos", "fgd", "--out", str(out)]) == 0
        rows = dict(read_rows(out / "constants.csv")[1:])
        L, sigma1 = float(rows["L"]), float(rows["sigma_1_Xr"])
        [steps] = seen
        assert steps["fgd"] == 0.25 * (1.0 / (L * sigma1))
        assert steps["projgd"] == 0.5 / L

    def test_default_svrg_sbb_converges(self, tmp_path):
        """The default stabilizer caps svrg-sbb at the default svrg-fixed step."""
        out = tmp_path / "run"
        argv = ["sensing", "--p", "20", "--r", "2", "--epochs", "40",
                "--seeds", "1", "--algos", "svrg-sbb", "--out", str(out)]
        assert main(argv) == 0
        summary = read_rows(out / "summary.csv")
        assert summary[1][:4] == ["svrg-sbb", "3e-06", "1", "1"]

    @pytest.mark.parametrize("flag,value", [
        ("epochs", "0"), ("eval-every", "0"), ("m", "0"), ("seeds", "0"),
        ("seed-base", "-1"), ("eps", "-1"), ("eps", "nan"), ("eta", "-1"),
        ("eta", "nan"), ("eta", "inf"), ("eta", "0"), ("t0", "-1"),
        ("t0", "nan"), ("init-radius", "nan"), ("threshold", "nan"),
        ("region-samples", "-1"), ("n", "0"), ("r", "0"), ("r", "9"),
        ("jobs", "0"), ("instance-seed", "-1"),
    ])
    def test_bad_flag_value_exits_2_before_output(self, tmp_path, capsys,
                                                  flag, value):
        self.exits_2_before_output(tmp_path, capsys, ",".join(ALGORITHMS), flag, value)

    @pytest.mark.parametrize("algos,flag,value", [
        ("fgd", "eps", "-1"), ("fgd", "t0", "nan"), ("svrg-sbb0", "eps", "nan"),
    ])
    def test_flag_no_chosen_algorithm_reads_exits_2_before_output(
            self, tmp_path, capsys, algos, flag, value):
        """A flag value is rejected whichever algorithms are chosen."""
        self.exits_2_before_output(tmp_path, capsys, algos, flag, value)

    @staticmethod
    def exits_2_before_output(tmp_path, capsys, algos, flag, value):
        out = tmp_path / "run"
        flags = {"algos": algos, "epochs": 1, "seeds": 1, "region_samples": 2}
        flags[flag.replace("-", "_")] = value
        rc = run_sensing(out, **flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def exits_2_before_the_instance(monkeypatch, tmp_path, capsys, overrides, message):
        """``run_sensing(**overrides)`` exits 2 with ``message`` and never draws."""
        def no_instance(*args, **kwargs):
            raise AssertionError("sensing_generate was called")

        monkeypatch.setattr(cli, "sensing_generate", no_instance)
        out = tmp_path / "run"
        assert run_sensing(out, **overrides) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,least", [
        ("epochs", "0", 1), ("seeds", "0", 1), ("seed-base", "-1", 0),
        ("jobs", "0", 1), ("eval-every", "0", 1), ("m", "0", 1),
    ])
    def test_count_flag_exits_2_before_the_instance_is_built(
            self, monkeypatch, tmp_path, capsys, flag, value, least):
        self.exits_2_before_the_instance(
            monkeypatch, tmp_path, capsys, {flag: value},
            f"argument --{flag}: must be at least {least}")

    @pytest.mark.parametrize("flag,value,rule", [
        ("eps", "-1", "must be finite and at least 0"),
        ("eps", "nan", "must be finite and at least 0"),
        ("t0", "-1", "must be above 0"),
        ("t0", "nan", "must be above 0"),
        ("init-radius", "nan", "must be finite and at least 0"),
        ("region-samples", "-1", "must be at least 0"),
        ("threshold", "nan", "must be at least 0"),
        ("eta", "nan", "must be finite and above 0"),
        ("eta", "0.1,0.2,0.3", "needs one value or 2 comma-separated values"),
    ])
    def test_value_flag_exits_2_before_the_instance_is_built(
            self, monkeypatch, tmp_path, capsys, flag, value, rule):
        self.exits_2_before_the_instance(
            monkeypatch, tmp_path, capsys, {flag.replace("-", "_"): value},
            f"argument --{flag}: {rule}")

    def test_eta_is_the_initial_step_of_sfgd_and_svrg_sbb(self, tmp_path):
        out = tmp_path / "run"
        assert run_sensing(out, algos="sfgd,svrg-sbb", eta="1e-4", seeds=1) == 0
        first = {row[0]: row[3] for row in read_rows(out / "curves.csv")[1:]
                 if row[2] == "0"}
        assert first == {"sfgd": "0.0001", "svrg-sbb": "0.0001"}

    def test_rank_above_planted_rank_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["sensing", "--p", "5", "--r", "5", "--r-star", "1",
                   "--epochs", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --r 5 above --r-star 1") and err.count("\n") == 1
        assert "unsupported" in err
        assert not out.exists()

    def test_overflowing_init_radius_exits_2(self, tmp_path, capsys):
        # the range check passes 1e308, but the perturbed init overflows
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_sensing(out, init_radius="1e308", seeds=1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: radius") and err.count("\n") == 1
        assert not out.exists()

    def test_projgd_rows_have_no_factor_error(self, tmp_path):
        out = tmp_path / "run"
        assert run_sensing(out, algos="projgd") == 0
        rows = read_rows(out / "curves.csv")
        column = rows[0].index("error_U")
        assert len(rows) == 1 + 2 * 4
        assert all(row[column] == "" for row in rows[1:])

    def test_init_radius_falls_back_when_gamma_u_is_nan(self, tmp_path):
        """Rank 1 of a rank-3 optimum breaks Assumption 2, so gamma_u is NaN."""
        out = tmp_path / "run"
        assert main(["sensing", "--p", "12", "--r", "1", "--r-star", "3", "--n", "120",
                     "--region-samples", "4", "--epochs", "3", "--out", str(out)]) == 0
        argv = read_manifest(out)["replay_argv"]
        radius = float(argv[argv.index("--init-radius") + 1])
        _, U_ref = truncated_approx(sensing_generate(12, 3, 120, 0).Xstar, 1)
        assert radius == 0.05 * float(np.linalg.norm(U_ref))
        constants = read_rows(out / "constants.csv")
        assert dict(constants[1:])["gamma_u"] == "nan"

    def test_empty_algorithm_list_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_sensing(out, algos=",") == 2
        assert capsys.readouterr().err == \
            "error: argument --algos: needs at least one algorithm\n"
        assert not out.exists()

    def test_t0_inf_is_valid(self, tmp_path):
        assert run_sensing(tmp_path / "run", algos="sfgd", t0="inf", seeds=1) == 0

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["sensing"]) == 2
        assert capsys.readouterr().err == \
            "error: the following arguments are required: --out\n"


def run_embed(triplet_path, out, **overrides):
    argv = ["embed", "--triplets", str(triplet_path), "--out", str(out)]
    flags = {"dim": 2, "epochs": 3, "seeds": 2, "algos": "fgd,sfgd", "eta": 0.05,
             **overrides}
    for flag, value in flags.items():
        argv.extend([f"--{flag.replace('_', '-')}", str(value)])
    return main(argv)


@pytest.fixture
def triplet_file(tmp_path):
    out = tmp_path / "data"
    main(["gen-triplets", "--out", str(out), "--p", "12", "--count", "300",
          "--seed", "0"])
    return out / "triplets.txt"


@pytest.mark.parametrize("argv", [
    ["sensing", "--p", "8", "--r", "2", "--instance-seed", "-1"],
    ["constants", "--p", "8", "--r", "2", "--instance-seed", "-1"],
    ["gen-triplets", "--p", "8", "--count", "20", "--seed", "-1"],
])
def test_negative_seed_error_names_the_flag(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: argument {argv[-2]}: must be at least 0\n"
    assert not out.exists()


def plotted_column(out):
    """The curves.csv header name of the column plot.gp plots."""
    script = (out / "plot.gp").read_text(encoding="utf-8")
    index = int(script.split("column(", 1)[1].split(")", 1)[0])
    return read_rows(out / "curves.csv")[0][index - 1]


class TestPlotScript:
    """plot.gp plots the curves.csv column its y label names."""

    def test_sensing_plots_error_x(self, tmp_path):
        assert run_sensing(tmp_path / "run") == 0
        assert plotted_column(tmp_path / "run") == "error_X"

    def test_embed_plots_test_error(self, triplet_file, tmp_path):
        assert run_embed(triplet_file, tmp_path / "run") == 0
        assert plotted_column(tmp_path / "run") == "test_error"

    def test_embed_without_a_test_set_plots_f(self, triplet_file, tmp_path):
        out = tmp_path / "run"
        assert run_embed(triplet_file, out, split="1.0") == 0
        assert plotted_column(out) == "f"
        script = (out / "plot.gp").read_text(encoding="utf-8")
        assert 'set ylabel "training loss"' in script


class TestEmbedCommand:
    def test_curves_include_test_error_column(self, triplet_file, tmp_path):
        out = tmp_path / "run"
        assert run_embed(triplet_file, out) == 0
        rows = read_rows(out / "curves.csv")
        assert rows[0] == ["algorithm", "seed", "epoch", "eta", "f",
                           "test_error", "sample_grads"]
        body = rows[1:]
        assert len(body) == 2 * 2 * 4
        errs = [float(r[5]) for r in body]
        assert all(0.0 <= e <= 1.0 for e in errs)

    def test_full_split_drops_test_columns(self, triplet_file, tmp_path):
        out = tmp_path / "run"
        assert run_embed(triplet_file, out, split="1.0") == 0
        rows = read_rows(out / "curves.csv")
        assert rows[0] == ["algorithm", "seed", "epoch", "eta", "f",
                           "sample_grads"]
        summary = read_rows(out / "summary.csv")
        assert summary[0] == ["algorithm", "seed", "final_f"]

    def test_summary_lists_each_trial(self, triplet_file, tmp_path):
        out = tmp_path / "run"
        run_embed(triplet_file, out)
        rows = read_rows(out / "summary.csv")
        assert rows[0] == ["algorithm", "seed", "final_f", "final_test_error"]
        assert len(rows) == 1 + 2 * 2
        keys = [(r[0], int(r[1])) for r in rows[1:]]
        assert keys == sorted(keys)

    def test_replay_reproduces_bytes(self, triplet_file, tmp_path):
        out = tmp_path / "orig"
        run_embed(triplet_file, out)
        rep = tmp_path / "rep"
        rc = main(["replay", str(out / "run.json"), "--out", str(rep)])
        assert rc == 0
        for name in ("curves.csv", "summary.csv"):
            assert file_bytes(out / name) == file_bytes(rep / name)

    def test_jobs_do_not_change_bytes(self, triplet_file, tmp_path):
        assert run_embed(triplet_file, tmp_path / "serial") == 0
        assert run_embed(triplet_file, tmp_path / "parallel", jobs=2) == 0
        assert data_files(tmp_path / "serial") == data_files(tmp_path / "parallel")

    def test_index_beyond_p_exits_2(self, triplet_file, tmp_path, capsys):
        rc = run_embed(triplet_file, tmp_path / "run", p="5")
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_bad_split_exits_2(self, triplet_file, tmp_path, capsys):
        assert run_embed(triplet_file, tmp_path / "run", split="0.0") == 2
        assert "--split" in capsys.readouterr().err

    def test_split_leaving_no_test_triplet_exits_2(self, tmp_path, capsys):
        """With 5 triplets, --split 0.95 rounds the train part up to all 5."""
        path = tmp_path / "five.txt"
        path.write_text("0 1 2\n1 2 3\n2 3 4\n3 4 0\n4 0 1\n", encoding="utf-8")
        out = tmp_path / "run"
        rc = main(["embed", "--triplets", str(path), "--out", str(out),
                   "--split", "0.95", "--epochs", "2", "--eta", "0.05"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --split") and err.count("\n") == 1
        assert not out.exists()

    def test_stalled_secant_exits_2(self, tmp_path, capsys):
        """At this init scale every margin saturates, so at a small step the gradient
        does not change between snapshots and svrg-sbb0's secant denominator is 0."""
        data = tmp_path / "data"
        assert main(["gen-triplets", "--out", str(data), "--p", "20",
                     "--count", "600", "--noise", "0.1", "--seed", "3"]) == 0
        out = tmp_path / "run"
        rc = main(["embed", "--triplets", str(data / "triplets.txt"),
                   "--out", str(out), "--dim", "2", "--epochs", "3",
                   "--algos", "svrg-sbb0", "--init-scale", "1e3", "--eta", "1e-6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BB denominator is zero")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_readme_example_converges(self, tmp_path):
        """The README's gen-triplets and embed lines, cut to one seed and six epochs."""
        data = tmp_path / "data" / "t1"
        assert main(["gen-triplets", "--out", str(data), "--p", "50", "--dim", "2",
                     "--count", "4000", "--noise", "0.1"]) == 0
        assert main(["embed", "--out", str(tmp_path / "runs" / "e1"),
                     "--triplets", str(data / "triplets.txt"), "--dim", "2",
                     "--seeds", "1", "--eta", "0.5,0.5,40", "--epochs", "6"]) == 0

    def test_init_scale_too_large_to_square_exits_2(self, triplet_file, tmp_path,
                                                    capsys):
        out = tmp_path / "run"
        assert run_embed(triplet_file, out, init_scale="1e155") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --init-scale: must be above 0 with a "
                              "finite square")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_r_is_the_same_flag_as_dim(self, triplet_file, tmp_path):
        """--r and --dim write the same bytes and a replay_argv with --dim alone."""
        for flag in ("--r", "--dim"):
            assert main(["embed", "--triplets", str(triplet_file), "--epochs", "2",
                         "--eta", "0.05", "--out", str(tmp_path / flag), flag, "3"]) == 0
        assert data_files(tmp_path / "--r") == data_files(tmp_path / "--dim")
        argv = read_manifest(tmp_path / "--r")["replay_argv"]
        assert argv == read_manifest(tmp_path / "--dim")["replay_argv"]
        assert "--r" not in argv and argv.count("--dim") == 1
        assert argv[argv.index("--dim") + 1] == "3"

    def test_missing_eta_exits_2_before_reading_the_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["embed", "--triplets", str(tmp_path / "absent.txt"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --eta: ") and err.count("\n") == 1
        assert not out.exists()

    def test_no_run_probes_curvature(self, triplet_file, tmp_path, monkeypatch):
        """Every step comes from --eta: no embed run measures curvature."""
        def no_probes(*args, **kwargs):
            raise AssertionError("curvature probed")

        for name in ("estimate_smoothness", "probe_pairs"):
            monkeypatch.setattr(cli, name, no_probes)
            monkeypatch.setattr(objective, name, no_probes)
        assert run_embed(triplet_file, tmp_path / "all", algos=",".join(ALGORITHMS),
                         seeds=1, epochs=2) in (0, 3)
        assert run_embed(triplet_file, tmp_path / "sbb", algos="svrg-sbb,fgd",
                         eps="0.01") == 0

    def test_svrg_sbb_eps_defaults_to_its_step_cap(self, triplet_file, tmp_path):
        """Without --eps, svrg-sbb's cap 1/(m eps) is its own --eta; without svrg-sbb,
        --eps stays unset."""
        assert run_embed(triplet_file, tmp_path / "sbb", algos="fgd,svrg-sbb",
                         eta="0.05,0.5") == 0
        argv = read_manifest(tmp_path / "sbb")["replay_argv"]
        m = int(argv[argv.index("--m") + 1])
        assert argv[argv.index("--eps") + 1] == repr(1.0 / (m * 0.5))
        assert run_embed(triplet_file, tmp_path / "no-sbb", algos="svrg-fixed,svrg-sbb0") == 0
        assert "--eps" not in read_manifest(tmp_path / "no-sbb")["replay_argv"]

    def test_negative_lambda_exits_2(self, triplet_file, tmp_path, capsys):
        rc = main(["embed", "--triplets", str(triplet_file),
                   "--out", str(tmp_path / "run"), "--lambda", "-1.0",
                   "--epochs", "1", "--eta", "0.05"])
        assert rc == 2
        capsys.readouterr()


def reads(row, field):
    """Whether an ``ALGORITHMS`` row reads ``field`` of the CLI's step flags.

    ``eta`` is a fixed step, ``eta0`` an initial step and ``eps`` the
    stabilizer; a row reads each as a config field or through its step rule.
    """
    _, needs, _, rule = row
    kind = (rule or {}).get("kind")
    return {"eta": "eta" in needs or kind == stepsize.FIXED,
            "eta0": "eta0" in needs or kind == stepsize.SBB,
            "eps": kind == stepsize.SBB and "eps" not in rule}[field]


def named(text):
    """The algorithm names of an English list, "a, b and c"."""
    return set(re.split(r", | and ", text))


class TestAlgorithmRows:
    """Each trial's step fields and schedule come from its ``ALGORITHMS`` row."""

    @pytest.mark.parametrize("command", ["sensing", "embed"])
    def test_every_row_builds_a_config_of_its_rule(self, command, triplet_file,
                                                  tmp_path, monkeypatch):
        configs, real = [], cli.run

        def recorded(obj, config, *args):
            configs.append(config)
            return real(obj, config, *args)
        monkeypatch.setattr(cli, "run", recorded)
        algos = ",".join(ALGORITHMS)
        if command == "sensing":
            code = run_sensing(tmp_path, algos=algos, seeds=1, epochs=2)
        else:
            code = run_embed(triplet_file, tmp_path, algos=algos, seeds=1, epochs=2)
        assert code in (0, 3)
        argv = read_manifest(tmp_path)["replay_argv"]
        eps = float(argv[argv.index("--eps") + 1])
        assert [config.algorithm for config in configs] == list(ALGORITHMS)
        for config in configs:
            rule = ALGORITHMS[config.algorithm][3]
            assert (config.schedule is None) == (rule is None)
            if rule:
                assert config.schedule.kind == rule["kind"]
                if config.schedule.kind == stepsize.SBB:
                    assert config.schedule.eps == rule.get("eps", eps)

    def test_help_texts_name_the_rows_that_read_each_flag(self):
        subs = build_parser()._subparsers._group_actions[0].choices
        for command in ("sensing", "embed"):
            helps = {a.dest: a.help for a in subs[command]._actions}
            eta = re.fullmatch(r"step: the fixed step of (.*), the initial step of (.*?); "
                               r"one value .*", helps["eta"])
            eps = re.fullmatch(r"stabilizer for (.*?) \(default: .*", helps["eps"])
            for text, field in ((eta[1], "eta"), (eta[2], "eta0"), (eps[1], "eps")):
                assert named(text) == {a for a, row in ALGORITHMS.items() if reads(row, field)}


class TestTrialPool:
    """--jobs above 1 runs the trials in forked worker processes."""

    @staticmethod
    def log_fgd_pids(monkeypatch, path):
        """Patch ``cli.run_fgd`` to append the calling process id to ``path``."""
        original = cli.run_fgd

        def logged(*args, **kwargs):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)
        monkeypatch.setattr(cli, "run_fgd", logged)

    def test_jobs_run_trials_in_other_processes(self, tmp_path, monkeypatch):
        pids = tmp_path / "pids.txt"
        self.log_fgd_pids(monkeypatch, pids)
        assert run_sensing(tmp_path / "run", algos="fgd", jobs=2) == 0
        seen = [int(pid) for pid in pids.read_text(encoding="utf-8").split()]
        assert len(seen) == 2 and os.getpid() not in seen
        assert read_manifest(tmp_path / "run")["timing"]["pool"] == "fork"

    def test_forked_workers_split_snapshots_after_the_parent_did(self, tmp_path):
        """Forked workers split their snapshots after the parent split one.

        A forked child inherits no thread, so a helper thread that outlived
        the parent's snapshot would never run a worker's block.  Both
        processes split every snapshot, and the run goes in a subprocess
        whose timeout turns such a hang into a failure.
        """
        import factored_sdp

        script = (
            "import sys\n"
            "from factored_sdp import cli, objective\n"
            "objective.snapshot_threads = lambda nbytes: 2\n"
            "prob = objective.sensing_generate(8, 2, 80, 0)\n"
            "prob.snapshot(prob.Ustar)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        argv = ["sensing", "--out", str(tmp_path / "forked"), "--p", "8", "--r", "2",
                "--n", "80", "--epochs", "3", "--seeds", "2",
                "--algos", "fgd,svrg-fixed", "--jobs", "2"]
        src = os.path.dirname(os.path.dirname(factored_sdp.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the workers too
            proc.communicate()
            pytest.fail("sensing --jobs 2 after a snapshot still ran after 60 s")
        assert proc.returncode == 0, err
        assert run_sensing(tmp_path / "serial") == 0
        assert data_files(tmp_path / "forked") == data_files(tmp_path / "serial")

    def test_without_fork_the_trials_run_serially(self, tmp_path, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        pids = tmp_path / "pids.txt"
        self.log_fgd_pids(monkeypatch, pids)
        assert run_sensing(tmp_path / "run", algos="fgd", jobs=2) == 0
        seen = [int(pid) for pid in pids.read_text(encoding="utf-8").split()]
        assert seen == [os.getpid()] * 2
        assert read_manifest(tmp_path / "run")["timing"]["pool"] == "serial"

    def test_worker_stall_exits_2_with_one_line(self, tmp_path, capfd):
        data = tmp_path / "data"
        assert main(["gen-triplets", "--out", str(data), "--p", "20",
                     "--count", "600", "--noise", "0.1", "--seed", "3"]) == 0
        capfd.readouterr()
        out = tmp_path / "run"
        rc = main(["embed", "--triplets", str(data / "triplets.txt"),
                   "--out", str(out), "--dim", "2", "--epochs", "3",
                   "--algos", "svrg-sbb0,fgd", "--init-scale", "1e3",
                   "--eta", "1e-6", "--seeds", "2", "--jobs", "2"])
        assert rc == 2
        err = capfd.readouterr().err
        assert err.startswith("error: BB denominator is zero")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_allocation_too_large_exits_2_with_one_line(
            self, triplet_file, tmp_path, monkeypatch, capfd, jobs):
        """A MemoryError, here raised in place of the p-by-p Gram array, is one line.

        Nothing is allocated for real: where memory is overcommitted the
        allocation would succeed.
        """
        message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

        def too_large(U):
            raise MemoryError(message)
        monkeypatch.setattr(solvers, "gram", too_large)
        capfd.readouterr()
        out = tmp_path / "run"
        rc = main(["embed", "--triplets", str(triplet_file), "--out", str(out),
                   "--algos", "sfgd,fgd", "--eta", "0.05", "--epochs", "1",
                   "--seeds", "1", "--split", "1.0", "--jobs", str(jobs)])
        assert rc == 2
        assert capfd.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_dead_worker_exits_2_with_one_line(self, tmp_path, monkeypatch, capfd):
        """A forked worker that ends without a result is one error line, no output."""

        def die(*args, **kwargs):
            os._exit(1)
        monkeypatch.setattr(cli, "run_fgd", die)
        capfd.readouterr()
        out = tmp_path / "run"
        assert run_sensing(out, algos="fgd", jobs=2) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: trial worker died: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_worker_divergence_exits_3_with_the_serial_bytes(self, tmp_path):
        flags = dict(algos="fgd,svrg-fixed", eta="1e6,1e-3", epochs=10)
        assert run_sensing(tmp_path / "serial", **flags) == 3
        assert run_sensing(tmp_path / "parallel", jobs=2, **flags) == 3
        assert data_files(tmp_path / "serial") == data_files(tmp_path / "parallel")
        body = read_rows(tmp_path / "parallel" / "curves.csv")[1:]
        assert any(row[0] == "fgd" and row[4] == "nan" for row in body)
        assert all(row[4] != "nan" for row in body if row[0] == "svrg-fixed")

    def test_timing_lists_each_trial_and_leaves_replay_argv(self, tmp_path):
        assert run_sensing(tmp_path / "serial") == 0
        assert run_sensing(tmp_path / "parallel", jobs=2) == 0
        serial = read_manifest(tmp_path / "serial")
        parallel = read_manifest(tmp_path / "parallel")
        assert serial["replay_argv"] == parallel["replay_argv"]
        assert "--jobs" not in parallel["replay_argv"]
        for run, jobs, pool in ((serial, 1, "serial"), (parallel, 2, "fork")):
            timing = run["timing"]
            assert (timing["jobs"], timing["pool"]) == (jobs, pool)
            assert [(t["algorithm"], t["seed"]) for t in timing["trials"]] == [
                ("fgd", 0), ("fgd", 1), ("svrg-fixed", 0), ("svrg-fixed", 1)]
            assert all(t["solver_s"] > 0 for t in timing["trials"])

    def test_sensing_timing_records_its_snapshot_threads(self, tmp_path, monkeypatch,
                                                        triplet_file):
        """Once per sensing run, 1 below the split size; embed takes no snapshot."""
        assert run_sensing(tmp_path / "small", jobs=2) == 0
        monkeypatch.setattr(objective, "SPLIT_SNAPSHOT_BYTES", 0)
        assert run_sensing(tmp_path / "split", jobs=2) == 0
        assert run_embed(triplet_file, tmp_path / "embed") == 0
        assert read_manifest(tmp_path / "small")["timing"]["snapshot_threads"] == 1
        assert read_manifest(tmp_path / "split")["timing"]["snapshot_threads"] == (
            snapshot_threads(0))
        assert "snapshot_threads" not in read_manifest(tmp_path / "embed")["timing"]


class TestConstantsCommand:
    def test_report_on_stdout(self, capsys):
        rc = main(["constants", "--p", "8", "--r", "2", "--n", "60",
                   "--region-samples", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eta_max" in out and "kappa" in out

    @pytest.mark.parametrize("rank", [["--r", "0"], ["--r", "9"],
                                      ["--r", "2", "--r-star", "9"]])
    def test_bad_rank_exits_2(self, tmp_path, capsys, rank):
        out = tmp_path / "run"
        rc = main(["constants", "--p", "8", "--out", str(out), *rank])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: need 1 <= r")
        assert not out.exists()

    @pytest.mark.parametrize("r", ["2", "3"])
    def test_rank_above_planted_rank_exits_2(self, tmp_path, capsys, r):
        out = tmp_path / "run"
        rc = main(["constants", "--p", "5", "--r", r, "--r-star", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --r {r} above --r-star 1") and err.count("\n") == 1
        assert not out.exists()

    def test_grad_norm_at_optimum_reads_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["constants", "--p", "12", "--r", "2", "--region-samples", "4",
                   "--out", str(out)])
        assert rc == 0
        assert "round-off floor" in capsys.readouterr().out
        rows = dict(read_rows(out / "constants.csv")[1:])
        assert rows["grad_norm_at_Xr"] == "0.0"

    def test_optional_outputs_and_replay(self, tmp_path, capsys):
        out = tmp_path / "orig"
        rc = main(["constants", "--p", "8", "--r", "2", "--n", "60",
                   "--region-samples", "16", "--out", str(out)])
        assert rc == 0
        rep = tmp_path / "rep"
        rc = main(["replay", str(out / "run.json"), "--out", str(rep)])
        assert rc == 0
        capsys.readouterr()
        assert file_bytes(out / "constants.csv") == \
            file_bytes(rep / "constants.csv")


class TestManifest:
    @pytest.mark.parametrize("command", ["sensing", "embed", "gen-triplets",
                                         "constants"])
    def test_lists_every_parser_option_once(self, triplet_file, tmp_path,
                                            command, capsys):
        out = tmp_path / "run"
        argv = {
            "sensing": ["sensing", "--p", "8", "--r", "2", "--n", "60",
                        "--epochs", "1", "--region-samples", "2",
                        "--algos", "fgd,svrg-sbb"],
            "embed": ["embed", "--triplets", str(triplet_file), "--r", "2",
                      "--epochs", "1", "--algos", "fgd, svrg-sbb", "--eta", "0.05"],
            "gen-triplets": ["gen-triplets", "--p", "8", "--count", "20"],
            "constants": ["constants", "--p", "8", "--r", "2", "--n", "60",
                          "--region-samples", "2"],
        }[command] + ["--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        manifest = json.loads(file_bytes(out / "run.json"))
        replay = manifest["replay_argv"]
        assert manifest["command"] == replay[0] == command
        flags = replay[1::2]
        declared = [action.option_strings[0]
                    for action in build_parser().parse_args(argv).parser._actions
                    if action.dest not in ("help", "out", "jobs")]
        if command == "embed":
            assert "--r" not in flags
            assert replay[replay.index("--dim") + 1] == "2"
            assert replay[replay.index("--algos") + 1] == "fgd,svrg-sbb"
        assert flags == declared


class TestModuleEntrypoint:
    def test_python_dash_m_runs_the_cli(self):
        import factored_sdp

        src = os.path.dirname(os.path.dirname(factored_sdp.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "factored_sdp.cli", "constants", "--p", "8",
             "--r", "2", "--n", "60", "--region-samples", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "eta_max" in proc.stdout


class TestTracedNames:
    """An outside tracer replaces these module names of the CLI at run time;
    the CLI must look them up on each call rather than bind them once."""

    def test_patched_names_are_called(self, tmp_path, monkeypatch, capsys):
        calls = {}

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("run_svrg", "run_fgd", "StepSchedule", "compute_constants"):
            monkeypatch.setattr(cli, name, counting(name))
        assert run_sensing(tmp_path / "run", seeds=1, epochs=1,
                           algos="fgd,svrg-fixed") == 0
        assert calls == {"run_svrg": 1, "run_fgd": 1, "StepSchedule": 1,
                         "compute_constants": 1}
        assert main(["constants", "--p", "8", "--r", "2", "--n", "60",
                     "--region-samples", "2"]) == 0
        capsys.readouterr()
        assert calls["compute_constants"] == 2


class TestParserErrors:
    """argparse's usage errors are one ``error:`` line and exit 2, like every CliError."""

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["sensing", "--epochs", "1", "--eta0", "0.1"],
         "unrecognized arguments: --eta0 0.1"),
        (["sensing", "--p", "x"], "argument --p: invalid int value: 'x'"),
    ], ids=["no-command", "unknown-flag", "non-numeric"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run"
        if argv:
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad,message", [
        (["--eta0", "0.1"], "unrecognized arguments: --eta0 0.1"),
        (["--p", "x"], "argument --p: invalid int value: 'x'"),
    ], ids=["eta0", "non-numeric-p"])
    def test_replayed_usage_error_is_one_line(self, tmp_path, capsys, bad, message):
        manifest = tmp_path / "run.json"
        argv = ["sensing", "--r", "2", "--epochs", "1", *bad]
        manifest.write_text(json.dumps({"replay_argv": argv}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["replay", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestReplayValidation:
    def test_rejects_manifest_without_argv(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text(json.dumps({"command": "sensing"}), encoding="utf-8")
        rc = main(["replay", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "replay_argv" in capsys.readouterr().err

    def test_rejects_unknown_command(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text(json.dumps({"replay_argv": ["destroy", "--all"]}),
                       encoding="utf-8")
        rc = main(["replay", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        rc = main(["replay", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("content", [
        b"not json {",                                     # JSONDecodeError
        b'["sensing", "--p", "8"]',                        # a list, not an object
        b'{"replay_argv": ["sensing", "\xff"]}',          # not UTF-8
    ], ids=["not-json", "json-list", "not-utf8"])
    def test_malformed_manifest_exits_2_with_one_line(self, tmp_path, capsys,
                                                      content):
        bad = tmp_path / "run.json"
        bad.write_bytes(content)
        out = tmp_path / "o"
        rc = main(["replay", str(bad), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: manifest") and err.count("\n") == 1
        assert not out.exists()
