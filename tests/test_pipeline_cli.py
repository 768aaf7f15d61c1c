import argparse
import dataclasses
import logging
import math
import re
import textwrap
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import INCIDENT_TABLE, write_clockwise_obstacle, write_experiment_config
from polyscat import cli, forward, geometry, locator, maxima, minkowski, pipeline, sphgrid
from polyscat.cli import build_parser, main
from polyscat.forward import (
    NoiseModel,
    add_noise,
    load_far_field,
    sample_phaseless,
    save_far_field,
)
from polyscat.geometry import load_obstacle, save_obstacle
from polyscat.pipeline import PipelineError, parse_config, run_pipeline, synthesize_dataset
from polyscat.sphgrid import build_grid, sht_forward

FAST = dict(grid_shape=2000, grid_loc=500, cutoff=6, cluster_angle_deg=10.0)
# the shorter wavelength that criteria 8 and 9 recover at, on FAST's grids
SHORT = dict(FAST, lambda_shape=0.3, cutoff=9)
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def workspace(tmp_path, tetra):
    save_obstacle(tetra, tmp_path / "tetra.obs")
    return tmp_path


def with_line(plain: Path, line: str) -> str:
    """Text of the config ``plain`` with ``line`` in place of the line that
    sets the same key, or added when none does; ``incident`` lines add, and
    a bare ``key =`` removes the key."""
    key = line.split("=", 1)[0].strip()
    kept = [
        old
        for old in plain.read_text().splitlines()
        if key == "incident" or old.split("=", 1)[0].strip() != key
    ]
    return "\n".join(kept if line.endswith("=") else [*kept, line]) + "\n"


def assert_same_fields(a, b):
    """Field-by-field equality of (nested) dataclasses holding arrays."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            assert_same_fields(x, y)
        elif isinstance(x, tuple) and x and dataclasses.is_dataclass(x[0]):
            # dataclass == raises on array fields
            assert len(x) == len(y)
            for u, v in zip(x, y):
                assert_same_fields(u, v)
        elif isinstance(x, (np.ndarray, tuple)):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y, f.name


def noisy_first_shape_file(config) -> Path:
    """Synthesize every data file, then put noisy data (delta 0.2, seed 3) in
    ``shape_00.txt``: a file ``synth`` would not write."""
    synthesize_dataset(config)
    path = config.output_dir / "data" / "shape_00.txt"
    save_far_field(add_noise(load_far_field(path), NoiseModel(0.2, seed=3)), path)
    return path


def assert_missing_location_file_leaves_the_shape_files(workspace, verb):
    """A missing ``location.txt`` fails ``verb`` at [load] and is not
    written; the noisy shape file, which synth would not write, stays."""
    cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
    shape = noisy_first_shape_file(parse_config(cfg))
    noisy = shape.read_bytes()
    location = workspace / "out" / "data" / "location.txt"
    location.unlink()
    assert main([verb, str(cfg)]) == 2
    assert shape.read_bytes() == noisy
    assert not location.exists()


def read_tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfig:
    def test_parse_round_trip(self, workspace):
        cfg = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", noise_delta=0.5, **FAST
        )
        config = parse_config(cfg)
        assert config.obstacle == (workspace / "tetra.obs").resolve()
        assert len(config.shape_waves) == 6
        assert config.cutoff == 6
        assert config.noise.delta == 0.5
        assert config.grid_shape == 2000
        assert config.step3_oracle is True
        assert_allclose(config.location, [50.0, 50.0, 50.0])

    def test_rejects_unknown_keys(self, workspace, capsys):
        cfg = workspace / "bad.cfg"
        # merge_vertices, indicator_polarity and exclusion_radius are no
        # longer keys: a stale line fails every verb, it is not ignored
        for key in ("what", "merge_vertices", "indicator_polarity", "exclusion_radius"):
            cfg.write_text(f"obstacle = tetra.obs\nincident = 1 0 0 0 0 1\n{key} = 0.3\n")
            with pytest.raises(ValueError, match=f"unknown keys.*{key}"):
                parse_config(cfg)
            for verb in ("synth", "recover", "locate", "check"):
                assert main([verb, str(cfg)]) == 1
            assert capsys.readouterr().err == f"error: {cfg}: unknown keys ['{key}']\n" * 4
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("key, values", [("cutoff", (6, 10)), ("output_dir", "ab")])
    def test_rejects_repeated_key(self, workspace, key, values):
        # incident repeats; any other key given twice is an error, not "last wins"
        cfg = workspace / "twice.cfg"
        lines = ["obstacle = tetra.obs", "incident = 1 0 0  0 0 1"]
        cfg.write_text("\n".join(lines + [f"{key} = {v}" for v in values]) + "\n")
        with pytest.raises(ValueError, match=f"twice.cfg: line 4: '{key}' given twice"):
            parse_config(cfg)

    @pytest.mark.parametrize("value", ["-1", "-10"])
    def test_rejects_negative_cutoff(self, workspace, value):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(with_line(plain, f"cutoff = {value}"))
        with pytest.raises(ValueError, match=r"bad\.cfg: cutoff must be"):
            parse_config(bad)

    @pytest.mark.parametrize("value", ["-1", "inf", "nan"])
    @pytest.mark.parametrize("key", ["e_tol", "cluster_angle_deg", "cutoff"])
    def test_rejects_step1_setting_out_of_range(self, workspace, key, value):
        # each of step 1's settings is a number >= 0, and the error names
        # the key of the config, not the config's field (cluster_angle)
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(with_line(plain, f"{key} = {value}"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}: {key} must be "):
            parse_config(bad)
        assert main(["recover", str(bad)]) == 1

    @pytest.mark.parametrize(
        "line", ["grid_shape = 3", "grid_loc = 0", "grid_loc = 143", "grid_shape = 40"]
    )
    def test_rejects_small_grids(self, workspace, line):
        # rejected when parsed, naming the key, before synth creates out/data/;
        # 40 shape points are fewer than the 49 coefficients of FAST's cutoff
        # 6, and 143 location points than the 144 whose weights are exact to
        # degree 2
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(with_line(plain, line))
        with pytest.raises(ValueError, match=r"bad\.cfg: " + line.split(" = ")[0]):
            parse_config(bad)
        for verb in ("synth", "recover", "check"):
            assert main([verb, str(bad)]) == 1
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "cutoff = 2.5",
            "noise_seed = 1.5",
            "grid_shape = 2000.0",
        ],
    )
    def test_rejects_non_integer_values(self, workspace, line):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(with_line(plain, line))
        with pytest.raises(ValueError, match=f"bad.cfg: {line.split(' = ')[0]} "):
            parse_config(bad)

    @pytest.mark.parametrize("delta", [0.1, 0.0])
    def test_rejects_negative_noise_seed(self, workspace, delta):
        # rejected when parsed, whether or not the run draws noise
        cfg = write_experiment_config(
            workspace / "bad.cfg", "tetra.obs", noise_delta=delta, noise_seed=-3, **FAST
        )
        with pytest.raises(ValueError, match="seed"):
            parse_config(cfg)

    @pytest.mark.parametrize("source", ["README.md", "pipeline docstring"])
    def test_documented_sample_config_parses(self, tmp_path, source):
        if source == "README.md":
            text = README.read_text()
            block = text.split("```\nobstacle = ", 1)[1].split("```", 1)[0]
            block = "obstacle = " + block
        else:
            block = pipeline.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
            block = textwrap.dedent(block)
        cfg = tmp_path / "sample.cfg"
        cfg.write_text(block)
        config = parse_config(cfg)
        assert config.obstacle == (tmp_path / "tetrahedron.obs").resolve()
        assert config.cutoff == 10
        assert {wave.k for wave in config.shape_waves} == {2.0 * math.pi / 0.5}
        assert config.loc_wave.k == 2.0 * math.pi / 50.0

    def test_multistart_is_accepted_and_ignored(self, workspace, caplog):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        legacy = workspace / "legacy.cfg"
        legacy.write_text(plain.read_text() + "multistart = 3 4\n")
        with caplog.at_level(logging.WARNING, logger="polyscat"):
            config = parse_config(legacy)
        assert_same_fields(config, parse_config(plain))
        assert "multistart" in caplog.text and "ignored" in caplog.text

    def test_rejects_malformed_multistart(self, workspace):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        for value in ("3", "0 4", "3 4 5", "a b"):
            bad = workspace / "bad.cfg"
            bad.write_text(plain.read_text() + f"multistart = {value}\n")
            with pytest.raises(ValueError):
                parse_config(bad)

    @pytest.mark.parametrize(
        "line",
        [
            "lambda_shape = nan",
            "lambda_loc = inf",
            "e_tol = nan",
            "cluster_angle_deg = nan",
            "noise_delta = inf",
            "location = 50 nan 50",
            "region = 0 100 0 inf 0 100",
            "incident = 1 0 0  0 0 nan",
        ],
    )
    def test_rejects_non_finite_numbers(self, workspace, line):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(with_line(plain, line))
        # the message, not the test's directory name, must say "finite"
        with pytest.raises(ValueError, match=r"bad\.cfg: .*finite"):
            parse_config(bad)

    @pytest.mark.parametrize("key", ["lambda_shape", "lambda_loc"])
    @pytest.mark.parametrize("value", ["1e-320", "0"])
    def test_rejects_a_wavelength_of_no_finite_wavenumber(self, workspace, key, value):
        # 2 pi / 1e-320 overflows to k = inf: rejected when parsed, naming the
        # key and the incident line of the wave, before synth creates out/
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(with_line(plain, f"{key} = {value}"))
        message = (
            f"{bad}: line 2: incident at {key} = {float(value)!r}: "
            "wavenumber must be positive and finite"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(bad)
        for verb in ("synth", "recover", "check"):
            assert main([verb, str(bad)]) == 1
        assert not (workspace / "out").exists()

    def test_blank_and_comment_lines_are_skipped(self, workspace):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        lines = plain.read_text().splitlines()
        noted = workspace / "noted.cfg"
        noted.write_text(
            "\n".join(["# a note", "", *lines[:4], "   ", "  # indented", *lines[4:], ""])
        )
        assert_same_fields(parse_config(noted), parse_config(plain))

    def test_rejects_empty_incident(self, workspace):
        cfg = workspace / "bad.cfg"
        cfg.write_text("obstacle = tetra.obs\noutput_dir = out\n")
        with pytest.raises(ValueError):
            parse_config(cfg)

    def test_rejects_zero_incident_direction(self, workspace):
        cfg = workspace / "bad.cfg"
        cfg.write_text("obstacle = tetra.obs\nincident = 0 0 0  0 0 1\n")
        message = re.escape(f"{cfg}: line 2: incident direction has near-zero length")
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_config(cfg)

    def test_rejects_non_orthogonal_polarization(self, workspace):
        cfg = workspace / "bad.cfg"
        cfg.write_text("obstacle = tetra.obs\nincident = 1 0 0  1 0 0\n")
        with pytest.raises(ValueError):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "line",
        [
            "location = 1 2",
            "location = 1 2 3 4",
            "region = 100 0 0 100 0 100",
            "lambda_loc = 0.5",
            "region = 0 1e300 0 1e300 0 1e300",
            "noise_delta = -0.1",
            "e_tol = -1",
            "e_tol = abc",
            "lambda_shape = -0.5",
            "incident = 1 0 0  1 0 0",
            "step3_oracle = maybe",
            "obstacle: tetra.obs",
            "incident = 1 0 0  0 0",
            "cutoff = 6 7",
            "region = -1e308 1e308 0 1 0 1",
        ],
    )
    def test_errors_name_the_file_once(self, workspace, line):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(with_line(plain, line))
        with pytest.raises(ValueError, match=re.escape(f"{bad}: ")) as err:
            parse_config(bad)
        assert str(err.value).count(str(bad)) == 1
        reason = {
            "obstacle: tetra.obs": "expected 'key = value'",
            "incident = 1 0 0  0 0": "incident needs 6 numbers (d then p)",
            "cutoff = 6 7": "cutoff needs one integer",
        }.get(line, "")
        assert reason in str(err.value)
        if line.startswith(("location", "e_tol = abc")):
            assert line.split(" = ")[0] in str(err.value)
        if line.startswith("location"):
            # rejected when parsed, before synth writes any data
            assert main(["synth", str(bad)]) == 1
            assert not (workspace / "out" / "data").exists()
        over_budget = (
            "lambda_loc = 0.5", "region = 0 1e300 0 1e300 0 1e300", "region = -1e308 1e308 0 1 0 1"
        )
        if line in over_budget:
            # a scan over budget, rejected when parsed: the default region
            # is 200 wavelengths of 0.5 wide, 401^3 points, and a product of
            # counts or a width that overflows reads inf, without a warning
            assert "region" in str(err.value) and "lambda_loc" in str(err.value)
            for verb in ("synth", "recover", "locate", "check"):
                assert main([verb, str(bad)]) == 1
            assert not (workspace / "out").exists()

    @pytest.mark.parametrize("comment", ["", "  # no path"])
    @pytest.mark.parametrize("key", ["obstacle", "output_dir"])
    def test_rejects_an_empty_path(self, workspace, capsys, key, comment):
        # an empty path would name the config's own directory: as the obstacle
        # it cannot be read, and as output_dir a run writes and removes report
        # files beside the config
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(
            "".join(
                f"{key} ={comment}\n" if line.split("=", 1)[0].strip() == key else line
                for line in plain.read_text().splitlines(keepends=True)
            )
        )
        assert f"{key} ={comment}\n" in bad.read_text()
        message = f"{bad}: {key} has no value"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(bad)
        (workspace / "areas.csv").write_text("an earlier table\n")
        before = read_tree(workspace)
        for verb in ("synth", "recover", "locate", "check"):
            assert main([verb, str(bad)]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert read_tree(workspace) == before


    @pytest.mark.parametrize("value", [".", "./", "sub"])
    def test_rejects_an_obstacle_that_names_a_directory(self, workspace, capsys, value):
        # "." names the config's directory, as an empty value would
        (workspace / "sub").mkdir()
        bad = write_experiment_config(workspace / "bad.cfg", value, **FAST)
        message = f"{bad}: obstacle names a directory: {(workspace / value).resolve()}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(bad)
        before = read_tree(workspace), sorted(workspace.rglob("*"))
        for verb in ("synth", "recover", "locate", "check"):
            assert main([verb, str(bad)]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert (read_tree(workspace), sorted(workspace.rglob("*"))) == before


class TestSynth:
    def test_writes_expected_files(self, workspace):
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        written = synthesize_dataset(parse_config(cfg))
        names = sorted(p.name for p in written)
        assert names == sorted(
            [f"shape_{i:02d}.txt" for i in range(6)] + ["location.txt"]
        )

    def test_deterministic_bytes(self, workspace):
        for sub in ("a", "b"):
            cfg = write_experiment_config(
                workspace / f"{sub}.cfg",
                "tetra.obs",
                noise_delta=1.0,
                output_dir=sub,
                **FAST,
            )
            synthesize_dataset(parse_config(cfg))
        assert read_tree(workspace / "a") == read_tree(workspace / "b")

    @pytest.mark.parametrize(
        "key, value, name",
        [
            ("noise_delta", "1e308", "shape_00.txt"),
            ("lambda_shape", "1e-300", "shape_00.txt"),
            ("location", "1e308 1e308 1e308", "location.txt"),
        ],
    )
    def test_a_far_field_that_overflows_names_its_file_and_key(
        self, workspace, capsys, key, value, name
    ):
        # the noise factors 1 + 1e308 r, the wavevectors 2 pi / 1e-300 (d -
        # xhat) and the phases k (d - xhat) . z at z = 1e308 overflow: exit 1,
        # naming the data file and the key, and no RuntimeWarning, which
        # the suite's warning filter would raise
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(with_line(plain, f"{key} = {value}"))
        assert main(["synth", str(bad)]) == 1
        path = workspace / "out" / "data" / name
        shown = " ".join(repr(float(v)) for v in value.split())
        assert capsys.readouterr().err.startswith(
            f"error: {path}: {key} = {shown} gives a far field that is not finite ("
        )
        assert not path.exists()

    def test_missing_obstacle_exits_1(self, workspace, capsys):
        # an obstacle that cannot be loaded is a config error, as in check:
        # exit 1 naming the file, and no data file is written
        cfg = write_experiment_config(workspace / "exp.cfg", "nope.obs", **FAST)
        obstacle = parse_config(cfg).obstacle
        with pytest.raises(FileNotFoundError, match=re.escape(str(obstacle))):
            synthesize_dataset(parse_config(cfg))
        assert main(["synth", str(cfg)]) == 1
        message = f"error: [Errno 2] No such file or directory: '{obstacle}'\n"
        assert capsys.readouterr() == ("", message)
        assert not (workspace / "out").exists()

    def test_a_failed_synth_leaves_the_data_of_the_last_run(self, workspace, capsys):
        # the noisy moduli of the six shape files are computed, then the
        # phase of location.txt overflows: no file is written, so recover
        # reads the clean run's data and writes the clean run's report
        clean = write_experiment_config(workspace / "clean.cfg", "tetra.obs", **FAST)
        bad = write_experiment_config(
            workspace / "bad.cfg", "tetra.obs", noise_delta=0.5, location=(1e308,) * 3, **FAST
        )
        assert main(["synth", str(clean)]) == 0
        assert main(["recover", str(clean)]) == 0
        tree = read_tree(workspace / "out")
        assert main(["synth", str(bad)]) == 1
        location = workspace / "out" / "data" / "location.txt"
        assert capsys.readouterr().err.startswith(f"error: {location}: location = 1e+308 ")
        assert read_tree(workspace / "out") == tree
        assert main(["recover", str(bad)]) == 0
        assert read_tree(workspace / "out") == tree

    def test_a_failed_write_leaves_no_data_file(self, workspace, monkeypatch, capsys):
        # a write that fails (here the fourth, as on a full disk) removes
        # every data file, so recover fails at [load] and never reads a mix
        # of noisy and clean files
        clean = write_experiment_config(workspace / "clean.cfg", "tetra.obs", **FAST)
        noisy = write_experiment_config(
            workspace / "noisy.cfg", "tetra.obs", noise_delta=0.5, **FAST
        )
        assert main(["synth", str(clean)]) == 0
        save, paths = forward.save_far_field, []

        def full_disk(samples, path):
            paths.append(path)
            if len(paths) == 4:
                raise OSError(28, "No space left on device", str(path))
            return save(samples, path)

        monkeypatch.setattr(forward, "save_far_field", full_disk)
        assert main(["synth", str(noisy)]) == 1
        assert len(paths) == 4
        assert read_tree(workspace / "out") == {}
        capsys.readouterr()
        assert main(["recover", str(noisy)]) == 2
        shape = workspace / "out" / "data" / "shape_00.txt"
        message = f"error [load] {shape}: no such data file; polyscat synth writes it\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("noise_delta", [0.0, 1.0])
    def test_data_files_load_without_a_near_tie(self, workspace, noise_delta):
        # every value synth writes is printed from a double, so it lies far
        # from every midpoint between doubles: the exact conversion reads each
        # file's block to the whole-file parse's bits and hands no cell to float()
        cfg = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", noise_delta=noise_delta, **FAST
        )
        for path in synthesize_dataset(parse_config(cfg)):
            text = path.read_bytes()
            start = text.index(b"\n", text.index(b"\n") + 1) + 1  # past the two header lines
            with mock.patch.object(forward, "float", create=True, side_effect=float) as spy:
                values = forward._lattice_block(text, start)
            assert spy.call_count == 0
            assert values.tobytes() == np.loadtxt(path, comments="#")[:, 3:].tobytes()

    def test_rewrites_an_edited_data_file(self, workspace):
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        synthesized = read_tree(workspace / "out")
        noisy_first_shape_file(parse_config(cfg))
        (workspace / "out" / "data" / "location.txt").write_text("edited\n")
        assert main(["synth", str(cfg)]) == 0
        assert read_tree(workspace / "out") == synthesized


class TestRecover:
    def test_full_run_structure(self, workspace, tetra):
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        synthesize_dataset(config)
        report = run_pipeline(config)
        assert len(report.effective) == 4
        assert_allclose(report.location, 50.0, atol=1e-2)
        out = workspace / "out"
        for name in (
            "recovered_faces.csv",
            "effective_normals.csv",
            "offsets.csv",
            "areas.csv",
            "vertices.csv",
            "fit_report.txt",
            "location.csv",
            "indicator_scan.txt",
            "recovered.obs",
            "recovered_located.obs",
        ):
            assert (out / name).exists()
        lines = (out / "fit_report.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines] == [
            "residual",
            "iterations",
            "converged",
            "vanished_facets",
            "objective_history",
        ]
        history = ", ".join(f"{v:.9e}" for v in report.fit.history)
        assert lines[-1] == f"objective_history = [{history}]"
        # reconstructed obstacle passes all construction invariants
        rebuilt = load_obstacle(out / "recovered.obs")
        assert rebuilt.num_faces == 4
        located = load_obstacle(out / "recovered_located.obs")
        assert_allclose(located.centroid, report.location, atol=1e-6)

    @pytest.mark.parametrize(
        "verb, name", [("recover", "shape_00.txt"), ("locate", "location.txt")]
    )
    def test_a_missing_data_file_names_synth(self, workspace, capsys, verb, name):
        # only synth writes data: on an empty data/ the first file the verb
        # reads fails at [load], and no data or report file is written
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        (workspace / "out" / "data").mkdir(parents=True)
        assert main([verb, str(cfg)]) == 2
        path = workspace / "out" / "data" / name
        message = f"error [load] {path}: no such data file; polyscat synth writes it\n"
        assert capsys.readouterr().err == message
        assert read_tree(workspace / "out") == {}

    def test_a_recovery_needs_no_ground_truth(self, workspace, monkeypatch, capsys):
        # recover and locate read only the data: from a config without an
        # obstacle line, with every way to the answer made to raise, they
        # write the tree a run with the obstacle writes; synth and check,
        # which need the body, exit 1 naming the key
        truth, cfg = (
            write_experiment_config(workspace / f"{name}.cfg", "tetra.obs", output_dir=name, **FAST)
            for name in ("truth", "blind")
        )
        for verb, config in (("synth", truth), ("synth", cfg), ("recover", truth), ("locate", truth)):
            assert main([verb, str(config)]) == 0
        cfg.write_text(with_line(cfg, "obstacle ="))
        assert parse_config(cfg).obstacle is None

        def answer(*args, **kwargs):
            raise AssertionError("read the true obstacle")

        for module, name in ((geometry, "load_obstacle"), (forward, "sample_phaseless"),
                             (forward, "sample_complex"), (locator, "degree_one_oracle")):
            monkeypatch.setattr(module, name, answer)
        assert main(["recover", str(cfg)]) == 0
        assert main(["locate", str(cfg)]) == 0
        blind = read_tree(workspace / "blind")
        assert blind == read_tree(workspace / "truth")
        capsys.readouterr()
        for verb in ("synth", "check"):
            assert main([verb, str(cfg)]) == 1
            assert capsys.readouterr() == ("", f"error: {cfg}: missing 'obstacle'\n")
        assert read_tree(workspace / "blind") == blind

    def test_rewrites_longer_report_files_to_their_new_end(self, workspace):
        # every report path already holds 100 kB of junk: a rewrite that
        # missed the cut at its new end would leave a tail of it
        cfg = write_experiment_config(
            workspace / "fresh.cfg", "tetra.obs", output_dir="fresh", **FAST
        )
        config = parse_config(cfg)
        synthesize_dataset(config)
        files = run_pipeline(config).files
        assert len(files) == 10
        cfg = write_experiment_config(
            workspace / "stale.cfg", "tetra.obs", output_dir="stale", **FAST
        )
        config = parse_config(cfg)
        synthesize_dataset(config)
        for path in files:
            (workspace / "stale" / path.name).write_bytes(b"junk\n" * 20_000)
        run_pipeline(config)
        assert read_tree(workspace / "stale") == read_tree(workspace / "fresh")

    def test_missing_location_file_leaves_the_shape_files(self, workspace):
        assert_missing_location_file_leaves_the_shape_files(workspace, "recover")

    def test_locate_leaves_the_shape_files(self, workspace):
        assert_missing_location_file_leaves_the_shape_files(workspace, "locate")

    def test_missing_location_file_fails_after_the_shape_tables(self, workspace):
        # step 3 reads location.txt itself, so a missing one fails at [load]
        # with the step-1/2 tables on disk
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        synthesize_dataset(config)
        path = workspace / "out" / "data" / "location.txt"
        path.unlink()
        message = f"[load] {path}: no such data file; polyscat synth writes it"
        with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
            run_pipeline(config)
        for name in ("recovered_faces.csv", "offsets.csv", "fit_report.txt"):
            assert (workspace / "out" / name).exists()
        assert not (workspace / "out" / "location.csv").exists()

    def test_a_failed_step3_leaves_the_obs_of_the_new_tables(self, workspace):
        # recovered.obs is written with the step-2 tables, so a rerun that
        # fails at step 3 leaves it beside the vertices.csv of the same body
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        assert main(["synth", str(cfg)]) == 0
        assert main(["recover", str(cfg)]) == 0
        out = workspace / "out"
        first = (out / "vertices.csv").read_bytes()
        noisy_first_shape_file(config)
        (out / "data" / "location.txt").write_text("edited\n")
        assert main(["recover", str(cfg)]) == 2
        assert (out / "vertices.csv").read_bytes() != first
        table = np.loadtxt(out / "vertices.csv", delimiter=",", skiprows=1, ndmin=2)
        vertices = load_obstacle(out / "recovered.obs").vertices
        assert_allclose(vertices, table[:, 1:], rtol=0, atol=5e-10)

    def test_a_failed_rerun_leaves_no_report_file_of_the_first_run(self, workspace):
        # a rerun that fails keeps the report files it wrote and removes the
        # others, so none of the first run's stays beside them; data/ stays
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        out = workspace / "out"

        def report_names():
            return sorted(p.name for p in out.iterdir() if p.is_file())

        assert main(["synth", str(cfg)]) == 0
        assert main(["recover", str(cfg)]) == 0
        assert report_names() == sorted(pipeline._REPORT_FILES)
        first = (out / "vertices.csv").read_bytes()
        noisy_first_shape_file(config)
        (out / "data" / "location.txt").write_text("edited\n")
        data = read_tree(out / "data")
        # fails at the [load] of location.txt, after the step-1/2 tables
        assert main(["recover", str(cfg)]) == 2
        assert report_names() == sorted(pipeline._REPORT_FILES[:7])
        assert (out / "vertices.csv").read_bytes() != first
        # fails at [step1], after its two tables
        cfg.write_text(with_line(cfg, "e_tol = 100"))
        assert main(["recover", str(cfg)]) == 2
        assert report_names() == ["effective_normals.csv", "recovered_faces.csv"]
        assert read_tree(out / "data") == data

    def test_a_failed_locate_leaves_no_step3_table_of_the_last_run(self, workspace, capsys):
        # locate removes the two step-3 tables it did not write and touches
        # no other report file, recovered_located.obs included, nor data/
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        out = workspace / "out"
        assert main(["synth", str(cfg)]) == 0
        assert main(["recover", str(cfg)]) == 0
        (out / "data" / "location.txt").write_text("edited\n")
        before = read_tree(out)
        capsys.readouterr()
        assert main(["locate", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error [load] ")
        step3 = {"location.csv", "indicator_scan.txt"}
        report = {p.name for p in out.iterdir() if p.is_file()}
        assert report == set(pipeline._REPORT_FILES) - step3
        assert read_tree(out) == {k: v for k, v in before.items() if k not in step3}

    def test_lattice_text_and_whole_parse_give_one_report(self, workspace):
        # the same files with %.17e coordinates take the whole-file parse
        sizes = dict(grid_shape=500, grid_loc=200, cutoff=6, cluster_angle_deg=10.0)
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **sizes)
        config = parse_config(cfg)
        synthesize_dataset(config)
        run_pipeline(config)
        first = read_tree(workspace / "out")
        for path in sorted((workspace / "out" / "data").glob("*.txt")):
            lines = path.read_text().splitlines()
            rows = []
            for row in lines[2:]:
                tokens = row.split()
                coordinates = " ".join(f"{float(t):.17e}" for t in tokens[:3])
                rows.append(coordinates + "  " + " ".join(tokens[3:]))
            path.write_text("\n".join(lines[:2] + rows) + "\n")
        run_pipeline(config)
        second = read_tree(workspace / "out")
        reports = [
            {name: data for name, data in tree.items() if not name.startswith("data/")}
            for tree in (first, second)
        ]
        assert first["data/location.txt"] != second["data/location.txt"]
        assert reports[0] == reports[1]

    def test_data_in_the_earlier_row_format_recovers_the_same(self, workspace, monkeypatch):
        # data/ as an earlier synth wrote it, every number of a row %.17g:
        # each file takes the whole-file parse and loads the same values on
        # build_grid's own grid, and the recovery writes the same reports
        sizes = dict(grid_shape=500, grid_loc=200, cutoff=6, cluster_angle_deg=10.0)
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **sizes)
        config = parse_config(cfg)
        written = {path: load_far_field(path) for path in synthesize_dataset(config)}
        run_pipeline(config)
        first = read_tree(workspace / "out")
        for path, samples in written.items():
            values = np.ascontiguousarray(samples.values).reshape(samples.grid.size, -1)
            rows = np.column_stack([samples.grid.points, values.view(float)])
            line = "%.17g %.17g %.17g  " + " ".join(["%.17g"] * (rows.shape[1] - 3))
            header = path.read_text().splitlines()[:2]
            path.write_text("\n".join(header + [line % tuple(row) for row in rows]) + "\n")
        whole_file_parses = []
        grid_of = sphgrid.grid_of
        monkeypatch.setattr(
            sphgrid, "grid_of", lambda points: whole_file_parses.append(1) or grid_of(points)
        )
        for path, samples in written.items():
            loaded = load_far_field(path)
            assert loaded.values.tobytes() == samples.values.tobytes()
            assert loaded.grid is build_grid(samples.grid.size)
        assert len(whole_file_parses) == len(written)
        run_pipeline(config)
        second = read_tree(workspace / "out")
        data = {name for name in first if name.startswith("data/")}
        assert len(data) == len(written)
        assert all(first[name] != second[name] for name in data)
        assert {k: v for k, v in first.items() if k not in data} == {
            k: v for k, v in second.items() if k not in data
        }

    def test_po_location_data(self, workspace, tetra):
        # step 3 on the physical-optics field of the tetrahedron, not the
        # degree-1 oracle: front-face PO is not centred on the centroid, so
        # the location is off by about 0.2, inside the circumradius
        cfg = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", step3_oracle=False, **FAST
        )
        config = parse_config(cfg)
        synthesize_dataset(config)
        report = run_pipeline(config)
        assert (workspace / "out" / "location.csv").exists()
        circumradius = float(np.linalg.norm(tetra.vertices - tetra.centroid, axis=1).max())
        assert circumradius == pytest.approx(math.sqrt(6.0) / 4.0)
        assert np.linalg.norm(report.location - 50.0) < circumradius

    @pytest.mark.parametrize("k", [-40, 40])
    def test_a_recovery_scaled_by_two_to_the_k_is_the_recovery_scaled(self, workspace, tetra, k):
        # every threshold is relative to what it measures, so scaling the
        # body, both wavelengths, e_tol, location and region by s = 2^k
        # scales the answer by s, bit for bit; the returned arrays are
        # compared, as the report tables print at a fixed number of decimals
        def recover(s, name):
            save_obstacle(tetra.scaled(s), workspace / f"{name}.obs")
            plain = write_experiment_config(
                workspace / f"{name}.cfg", f"{name}.obs", lambda_shape=0.5 * s,
                lambda_loc=50.0 * s, e_tol=0.5 * s, output_dir=name, **FAST,
            )
            # the config writer rounds location and region to 6 digits
            for line in ("location = " + " ".join([repr(50.0 * s)] * 3),
                         "region = " + " ".join(["0", repr(100.0 * s)] * 3)):
                plain.write_text(with_line(plain, line))
            config = parse_config(plain)
            synthesize_dataset(config)
            return run_pipeline(config)

        s = 2.0**k
        base, scaled = recover(1.0, "base"), recover(s, "scaled")
        np.testing.assert_array_equal(scaled.effective.normals, base.effective.normals)
        np.testing.assert_array_equal(scaled.effective.areas / s**2, base.effective.areas)
        np.testing.assert_array_equal(scaled.fit.offsets / s, base.fit.offsets)
        np.testing.assert_array_equal(scaled.reconstructed.vertices / s, base.reconstructed.vertices)
        np.testing.assert_array_equal(scaled.location / s, base.location)

    def test_stage_tagged_failure(self, workspace):
        # a threshold nothing survives -> step1 failure with stage tag
        cfg = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", e_tol=100.0, **FAST
        )
        config = parse_config(cfg)
        synthesize_dataset(config)
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert "step1" in str(err.value)

    def test_flat_data_have_no_peaks(self, workspace, capsys):
        # a constant modulus has no local maxima: its rounding-level ripples
        # once gave hundreds of peaks and a body with exit 0
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        for path in synthesize_dataset(config)[:-1]:
            samples = load_far_field(path)
            flat = np.ones(samples.grid.size)
            save_far_field(forward.FarFieldSamples(samples.grid, flat, samples.wave), path)
        assert main(["recover", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error [step1] only 0 effective normals; need at least 4\n"

    def test_malformed_data_is_tagged_load(self, workspace):
        # a non-numeric token in a shape file, then in the location file
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        synthesize_dataset(config)
        for name in ("shape_00.txt", "location.txt"):
            path = workspace / "out" / "data" / name
            lines = path.read_text().splitlines()
            lines[5] = lines[5].replace(" ", " abc ", 1)
            path.write_text("\n".join(lines) + "\n")
            run = run_pipeline if name.startswith("shape") else pipeline.locate_obstacle
            with pytest.raises(PipelineError, match=r"^\[load\] " + re.escape(str(path))):
                run(config)

    def test_malformed_location_file_fails_after_the_shape_tables(self, workspace):
        # step 3 loads its own file: the step-1/2 tables are on disk by then
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        synthesize_dataset(config)
        path = workspace / "out" / "data" / "location.txt"
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(" ", " abc ", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PipelineError, match=r"^\[load\] " + re.escape(str(path))):
            run_pipeline(config)
        for name in ("recovered_faces.csv", "offsets.csv", "fit_report.txt"):
            assert (workspace / "out" / name).exists()
        assert not (workspace / "out" / "location.csv").exists()

    def test_empty_location_field_is_tagged_step3(self, workspace):
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        synthesize_dataset(config)
        path = workspace / "out" / "data" / "location.txt"
        lines = path.read_text().splitlines()
        rows = [" ".join(row.split()[:3] + ["0"] * 6) for row in lines[2:]]
        path.write_text("\n".join(lines[:2] + rows) + "\n")
        message = r"^\[step3\] far field is 0 at every sample$"
        with pytest.raises(PipelineError, match=message) as err:
            pipeline.locate_obstacle(config)
        assert err.value.stage == "step3"

    def test_stage_guard(self):
        # listed errors (default: any Exception) become tagged, chained
        # PipelineErrors; others, and a PipelineError, pass through untouched
        for errors, raised in (((), KeyError("k")), ((OSError, ValueError), OSError("o"))):
            with pytest.raises(PipelineError, match=f"^\\[load\\] {raised}$") as err:
                with pipeline._stage("load", *errors):
                    raise raised
            assert err.value.stage == "load" and err.value.__cause__ is raised
        with pytest.raises(TypeError):
            with pipeline._stage("load", OSError, ValueError):
                raise TypeError("t")
        inner = PipelineError("step1", "inner")
        with pytest.raises(PipelineError) as err:
            with pipeline._stage("step2"):
                raise inner
        assert err.value is inner

    def test_fit_failure_is_tagged_step2(self, workspace, monkeypatch):
        def span_deficient(normals, areas):
            raise geometry.GeometryError("normals do not span 3-space")

        monkeypatch.setattr(minkowski, "fit_offsets", span_deficient)
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        synthesize_dataset(config)
        with pytest.raises(PipelineError, match=r"^\[step2\] normals do not span 3-space$"):
            run_pipeline(config)

    def test_step2_polyhedron_comes_from_the_fit(self, workspace, monkeypatch):
        # the fit intersects through the name minkowski imported, which this
        # patch does not reach; any other intersection in step 2 fails the run
        def no_intersection(*args, **kwargs):
            raise AssertionError("step 2 intersected outside the offset fit")

        monkeypatch.setattr(geometry, "halfspace_intersection", no_intersection)
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        synthesize_dataset(config)
        report = run_pipeline(config)
        assert report.reconstructed is report.fit.polyhedron


class TestCli:
    def test_synth_and_recover_verbs(self, workspace, capsys):
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        assert main(["recover", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "effective normals: 4" in out

    def test_locate_verb(self, workspace, capsys):
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        assert main(["locate", str(cfg)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        vals = [float(t) for t in line.split()]
        assert_allclose(vals[:3], 50.0, atol=1e-2)
        # the report files locate writes are those it removes on failure
        written = sorted(p.name for p in (workspace / "out").iterdir() if p.is_file())
        assert written == sorted(pipeline._LOCATE_FILES)

    @pytest.mark.parametrize("sizes", [FAST, SHORT], ids=["lambda05", "lambda03"])
    @pytest.mark.parametrize("name", ["tetra", "cube", "prism"])
    def test_check_sees_the_faces_step1_finds(self, tmp_path, request, capsys, name, sizes):
        # the (direction, face) pairs check prints as seen are those whose
        # step-1 normals lie within 10 degrees of the face's; step-1 normals
        # near no face (the prism's sidelobes at lambda 0.3) are not compared
        poly = request.getfixturevalue(name)
        save_obstacle(poly, tmp_path / "body.obs")
        cfg = write_experiment_config(tmp_path / "exp.cfg", "body.obs", **sizes)
        assert main(["check", str(cfg)]) == 0
        seen = re.findall(r"^d(\d+) face (\d+): .*, seen$", capsys.readouterr().out, re.M)
        config = parse_config(cfg)
        samples = [load_far_field(path) for path in synthesize_dataset(config)[:-1]]
        peaks = maxima.find_local_maxima(
            [sht_forward(s.grid, s.values, config.cutoff) for s in samples]
        )
        raw = maxima.peaks_to_faces(
            peaks, [s.wave.d for s in samples], config.lambda_shape, config.e_tol
        )
        cos = raw.normals @ poly.normals.T
        near = cos.max(axis=1) >= math.cos(math.radians(10.0))
        found = zip(raw.source_indices[near], cos.argmax(axis=1)[near])
        assert {(int(i), int(j)) for i, j in seen} == {(int(i), int(j)) for i, j in found}

    def test_check_drops_a_peak_step1_cannot_invert(self, tmp_path, capsys, cube):
        # turned 1e-7 rad about z, face 3 of the cube is lit from d0 = +x at
        # nu . d = -1e-7 and peaks 2e-7 from d, where it does not invert; at
        # e_tol = 0 the exclusion radius drops it, as it drops every such peak
        c, s = math.cos(1e-7), math.sin(1e-7)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        turned = geometry.build_polyhedron(cube.vertices @ turn.T, cube.faces)
        save_obstacle(turned, tmp_path / "body.obs")
        cfg = write_experiment_config(tmp_path / "exp.cfg", "body.obs", e_tol=0.0, **FAST)
        assert main(["check", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "d0 face 3: peak 0.0000 at 0.00 deg from d, not seen" in lines
        assert "face 3: seen from d3" in lines

    def test_check_exits_3_naming_every_unseen_face(self, workspace, capsys):
        cfg = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", e_tol=100.0, **FAST
        )
        assert main(["check", str(cfg)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4:] == [f"face {j}: seen from no direction" for j in range(4)]
        assert all(line.endswith(", not seen") for line in lines[:-4])

    def test_check_config_and_obstacle_errors_exit_1(self, workspace, capsys):
        assert main(["check", str(workspace / "nope.cfg")]) == 1
        cfg = write_experiment_config(workspace / "exp.cfg", "nope.obs", **FAST)
        assert main(["check", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: ") == 2

    @pytest.mark.parametrize("verb", ["synth", "check"])
    def test_an_obstacle_of_no_body_exits_1_naming_its_file(
        self, workspace, tetra, capsys, verb
    ):
        cfg = write_experiment_config(workspace / "exp.cfg", "clockwise.obs", **FAST)
        obstacle = write_clockwise_obstacle(parse_config(cfg).obstacle, tetra, 2)
        assert main([verb, str(cfg)]) == 1
        out, err = capsys.readouterr()
        message = rf"error: {re.escape(str(obstacle))}: vertex protrudes \S+ beyond face 2 plane"
        assert out == "" and re.match(message + r" \(face cycle possibly clockwise\)\n$", err)
        assert not (workspace / "out").exists()

    def test_stage_failure_exits_2(self, workspace, capsys):
        cfg = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", e_tol=100.0, **FAST
        )
        assert main(["synth", str(cfg)]) == 0
        assert main(["recover", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error [step1] ")

    def test_data_of_another_wavelength_is_rejected(self, workspace, capsys):
        # shape files synthesized at lambda 0.5, recovered with lambda 0.3 on
        # the same output directory: step 1 would invert the areas at the
        # wrong wavelength and return a wrong body
        sizes = dict(grid_shape=2000, cutoff=8, cluster_angle_deg=10.0)
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **sizes)
        assert main(["synth", str(cfg)]) == 0
        stale = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", lambda_shape=0.3, **sizes
        )
        capsys.readouterr()
        assert main(["recover", str(stale)]) == 2
        path = workspace / "out" / "data" / "shape_00.txt"
        err = capsys.readouterr().err
        message = f"error [load] {path}: k = {4 * math.pi!r} does not match lambda_shape = 0.3\n"
        assert err == message
        assert not (workspace / "out" / "recovered_faces.csv").exists()

    @pytest.mark.parametrize(
        "name, old, new, message",
        [
            ("shape_00.txt", " d=1 0 0 ", " d=-1 0 0 ",
             "d = [-1.0, 0.0, 0.0], p = [0.0, 0.0, 1.0] do not match incident line 1"),
            ("shape_00.txt", " p=0 0 1", " p=0 1 0",
             "d = [1.0, 0.0, 0.0], p = [0.0, 1.0, 0.0] do not match incident line 1"),
            ("location.txt", f"k={2 * math.pi / 50!r} ", "k=1e-300 ",
             "k = 1e-300 does not match lambda_loc = 50.0"),
            ("location.txt", f"k={2 * math.pi / 50!r} ", f"k={2 * math.pi / 50 * 10!r} ",
             f"k = {2 * math.pi / 50 * 10!r} does not match lambda_loc = 50.0"),
        ],
        ids=["shape-flipped-d", "shape-other-p", "location-tiny-k", "location-k-times-10"],
    )
    def test_data_of_another_incident_wave_is_rejected(
        self, workspace, capsys, name, old, new, message
    ):
        # step 1 inverts each peak through its file's own d, and step 3
        # phase-translates by its file's k: read as they are, such headers
        # give a wrong body or location with exit 0
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        path = workspace / "out" / "data" / name
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["recover", str(cfg)]) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error [load] {path}: {message}\n"
        assert not (workspace / "out" / "location.csv").exists()

    def test_swapped_shape_files_are_rejected(self, workspace, capsys):
        # each file carries its own wave, so swapped files could still give
        # the body; a shape file belongs to its own incident line only
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        first, second = (workspace / "out" / "data" / f"shape_0{i}.txt" for i in (0, 1))
        texts = first.read_text(), second.read_text()
        first.write_text(texts[1])
        second.write_text(texts[0])
        capsys.readouterr()
        assert main(["recover", str(cfg)]) == 2
        message = "d = [-1.0, 0.0, 0.0], p = [0.0, 0.0, 1.0] do not match incident line 1"
        assert capsys.readouterr().err == f"error [load] {first}: {message}\n"
        assert not (workspace / "out" / "recovered_faces.csv").exists()

    def test_indented_wave_line_is_rejected(self, workspace, capsys):
        # the header is the lines that open with # at their first byte: an
        # indented wave line is a comment, and the file has no wave
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        path = workspace / "out" / "data" / "shape_00.txt"
        lines = path.read_text().splitlines()
        lines[1] = "  " + lines[1]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["recover", str(cfg)]) == 2
        message = "missing kind/wave header lines"
        assert capsys.readouterr().err == f"error [load] {path}: {message}\n"
        assert not (workspace / "out" / "recovered_faces.csv").exists()

    def test_an_infinite_location_value_fails_at_load_without_a_warning(
        self, workspace, capsys
    ):
        # 1j * inf is NaN: arithmetic on the values before their finiteness
        # check warns, and under an error filter escapes the load stage
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        path = workspace / "out" / "data" / "location.txt"
        lines = path.read_text().splitlines()
        coords, values = lines[5].split("  ")
        tokens = values.split()
        lines[5] = coords + "  " + " ".join([tokens[0], "inf", *tokens[2:]])  # an imaginary part
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["locate", str(cfg)]) == 2
        message = "far-field samples must be finite (no NaN or inf)"
        assert capsys.readouterr().err == f"error [load] {path}: {message}\n"
        assert not (workspace / "out" / "location.csv").exists()

    @pytest.mark.parametrize(
        "factor, exact",
        [(2.0**-60, True), (2.0**900, True), (1e-15, False), (1e155, False)],
        ids=["2^-60", "2^900", "1e-15", "1e155"],
    )
    def test_locate_reads_a_location_field_of_any_size(self, workspace, factor, exact):
        # the indicator is a ratio of the field to its own norm, computed in
        # the field's own unit: a power-of-two factor gives the same bytes,
        # any other factor the same tables to rounding
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        assert main(["locate", str(cfg)]) == 0
        out = workspace / "out"
        names = ("location.csv", "indicator_scan.txt")
        clean = {name: (out / name).read_bytes() for name in names}
        path = out / "data" / "location.txt"
        samples = load_far_field(path)
        save_far_field(dataclasses.replace(samples, values=samples.values * factor), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["locate", str(cfg)]) == 0
        for name, sep, skip in zip(names, (",", None), (1, 0)):
            if exact:
                assert (out / name).read_bytes() == clean[name], name
            got, want = (np.loadtxt(t, delimiter=sep, skiprows=skip)
                         for t in (out / name, clean[name].decode().splitlines()))
            assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=name)

    def test_reversed_data_rows_give_the_same_report(self, workspace):
        # reversed or shuffled rows are no lattice text: each file takes the
        # whole-file parse onto a grid of its own point order, and step 1's
        # transform and step 3's indicator sum over the points in that order
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        assert main(["recover", str(cfg)]) == 0
        names = ("effective_normals.csv", "vertices.csv", "location.csv")
        lattice = [np.loadtxt(workspace / "out" / n, delimiter=",", skiprows=1) for n in names]
        paths = sorted((workspace / "out" / "data").glob("*.txt"))
        texts = [path.read_text().splitlines() for path in paths]
        rng = np.random.default_rng(11)
        orders = {
            "reversed": lambda rows: rows[::-1],
            "shuffled": lambda rows: [rows[i] for i in rng.permutation(len(rows))],
        }
        for label, order in orders.items():
            for path, lines in zip(paths, texts):
                path.write_text("\n".join(lines[:2] + order(lines[2:])) + "\n")
                points = load_far_field(path).grid.points
                assert not np.array_equal(points, build_grid(len(points)).points)
            assert main(["recover", str(cfg)]) == 0
            for name, expected in zip(names, lattice):
                got = np.loadtxt(workspace / "out" / name, delimiter=",", skiprows=1)
                assert_allclose(got, expected, rtol=0, atol=1e-9, err_msg=f"{label} {name}")

    def test_reversed_incident_lines_give_the_same_body(self, workspace):
        # line i of a reordered table is line order[i] of the first, and so
        # are the faces of its direction; the clustered normals keep their
        # order (by peak value), so step 2 and step 3 read the same input:
        # equal to 1e-12, and in practice bit for bit
        n = len(INCIDENT_TABLE)
        orders = {"out": np.arange(n), "rev": np.arange(n)[::-1], "shift": np.roll(np.arange(n), 2)}
        tables = {}
        for name, order in orders.items():
            cfg = write_experiment_config(
                workspace / f"{name}.cfg", "tetra.obs", output_dir=name,
                incident=[INCIDENT_TABLE[i] for i in order], **FAST,
            )
            assert main(["synth", str(cfg)]) == 0
            assert main(["recover", str(cfg)]) == 0
            tables[name] = {
                p.name: np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
                for p in (workspace / name).glob("*.csv")
            }
            for csv in ("effective_normals.csv", "recovered_faces.csv"):
                tables[name][csv][:, 0] = order[tables[name][csv][:, 0].astype(int)]
        first = tables.pop("out")
        for label, table in tables.items():
            np.testing.assert_array_equal(
                table["effective_normals.csv"], first["effective_normals.csv"], err_msg=label
            )
            rows = [np.unique(t["recovered_faces.csv"], axis=0) for t in (table, first)]
            np.testing.assert_array_equal(*rows, err_msg=label)
            for name in ("offsets.csv", "areas.csv", "vertices.csv", "location.csv"):
                got, want = table[name], first[name]
                assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{label} {name}")

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_areas_beyond_the_fit_fail_step2(self, workspace, capsys, scale):
        # moduli scaled by 1e150 give a total area near 3e150, past the
        # largest the offset fit represents (5.16e123, where c a overflows);
        # the data are finite, so they pass the load stage
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        for path in sorted((workspace / "out" / "data").glob("shape_*.txt")):
            samples = load_far_field(path)
            save_far_field(dataclasses.replace(samples, values=samples.values * scale), path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["recover", str(cfg)]) == 2
        err = capsys.readouterr().err
        message = r"error \[step2\] total area \S+ is above the fit's limit 5\.16e\+123"
        assert re.fullmatch(message + "\n", err)
        assert not (workspace / "out" / "offsets.csv").exists()

    def test_data_at_an_infinite_wavenumber_is_not_read(self, workspace, capsys):
        # lambda_shape = 1e-320 overflows to k = inf, where a file check
        # |k_file - k| > 1e-12 k reads inf > inf and would pass any file
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        synthesized = read_tree(workspace / "out")
        write_experiment_config(workspace / "exp.cfg", "tetra.obs", lambda_shape=1e-320, **FAST)
        capsys.readouterr()
        assert main(["recover", str(cfg)]) == 1
        assert "lambda_shape = 1e-320: wavenumber must be" in capsys.readouterr().err
        assert read_tree(workspace / "out") == synthesized

    @pytest.mark.parametrize(
        "verb, slot, source, message",
        [
            ("recover", "shape_00.txt", "location.txt",
             "kind=complex-E; a shape file needs kind=modulus"),
            ("locate", "location.txt", "shape_01.txt",
             "kind=modulus; step 3 needs a complex kind"),
        ],
        ids=["complex-shape", "modulus-location"],
    )
    def test_data_of_the_wrong_kind_is_rejected(
        self, workspace, capsys, verb, slot, source, message
    ):
        # at lambda_loc = lambda_shape a file of either kind passes the
        # wavenumber check, and step 1 would cast complex fields to reals; a
        # region 4 wavelengths wide keeps step 3's scan within its budget
        sizes = dict(lambda_loc=0.5, region=(0, 2, 0, 2, 0, 2), **FAST)
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **sizes)
        assert main(["synth", str(cfg)]) == 0
        data = workspace / "out" / "data"
        (data / slot).write_bytes((data / source).read_bytes())
        capsys.readouterr()
        assert main([verb, str(cfg)]) == 2
        assert capsys.readouterr().err == f"error [load] {data / slot}: {message}\n"
        assert not any(p.suffix == ".csv" for p in (workspace / "out").iterdir())

    @pytest.mark.parametrize(
        "verb, name, header, message",
        [
            ("recover", "shape_00.txt", ["# kind=complex-E", "# kind=modulus", "{wave}",
                                         "# k=2 d=1 0 0 p=0 0 1"], "header repeats its kind= line"),
            ("recover", "shape_00.txt", ["# kind=modulus", "{wave}", "# k=2 d=1 0 0 p=0 0 1"],
             "header repeats its wave line"),
            ("locate", "location.txt", ["# kind=complex-H", "{wave}"],
             "unknown far-field kind 'complex-H'"),
        ],
        ids=["two-kinds", "two-waves", "magnetic-location"],
    )
    def test_a_data_file_of_no_one_reading_is_rejected(
        self, workspace, capsys, verb, name, header, message
    ):
        # a header that says two things, or names the magnetic far field,
        # which no file kind holds: the file is read neither way
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        path = workspace / "out" / "data" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join([row.format(wave=lines[1]) for row in header] + lines[2:]) + "\n")
        capsys.readouterr()
        assert main([verb, str(cfg)]) == 2
        assert capsys.readouterr().err == f"error [load] {path}: {message}\n"
        assert not any(p.suffix == ".csv" for p in (workspace / "out").iterdir())

    @pytest.mark.parametrize(
        "verb, name, rows, message",
        [
            ("recover", "shape_00.txt", 6, "a grid needs at least 12 points, got 6"),
            ("locate", "location.txt", 5, "a grid needs at least 12 points, got 5"),
            ("locate", "location.txt", 0, "a grid needs at least 12 points, got 0"),
        ],
        ids=["six-point-shape", "five-point-location", "header-only"],
    )
    def test_a_data_file_of_too_few_points_is_rejected(
        self, workspace, capsys, verb, name, rows, message
    ):
        # the first rows of a synthesized file: unit, distinct points
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        assert main(["synth", str(cfg)]) == 0
        path = workspace / "out" / "data" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: 2 + rows]) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([verb, str(cfg)]) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error [load] {path}: {message}\n"

    def test_a_shape_file_of_fewer_points_than_coefficients_is_rejected(
        self, workspace, capsys, tetra
    ):
        # 20 points cannot fix the 49 coefficients of cutoff 6; the config
        # cannot ask for them, so the file is written here
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        path = workspace / "out" / "data" / "shape_00.txt"
        path.parent.mkdir(parents=True)
        save_far_field(sample_phaseless(tetra, config.shape_waves[0], build_grid(20)), path)
        assert main(["recover", str(cfg)]) == 2
        message = "20 points are fewer than the 49 coefficients of cutoff 6"
        assert capsys.readouterr().err == f"error [load] {path}: {message}\n"

    def test_a_location_file_of_fewer_points_than_degree_two_needs_is_rejected(
        self, workspace, capsys
    ):
        # on 143 points the six degree-1 fields are not orthonormal and the
        # indicator can exceed 1; the config cannot ask for them, so the file
        # is written here
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        config = parse_config(cfg)
        path = workspace / "out" / "data" / "location.txt"
        path.parent.mkdir(parents=True)
        oracle = locator.degree_one_oracle(build_grid(143), config.loc_wave, config.location)
        save_far_field(oracle, path)
        assert main(["locate", str(cfg)]) == 2
        message = "143 points are fewer than the 144 whose weights are exact to degree 2"
        assert capsys.readouterr().err == f"error [load] {path}: {message}, as step 3 needs\n"
        assert not (workspace / "out" / "location.csv").exists()

    @pytest.mark.parametrize("source", ["README.md", "cli docstring"])
    def test_documented_verbs_match_the_parser(self, source):
        # every verb of build_parser(), each with its arguments in order:
        # a positional as <dest>, an option as [--name]
        parser = build_parser()
        [verbs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        usage = {
            verb: [
                f"[{a.option_strings[-1]}]" if a.option_strings else f"<{a.dest}>"
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            for verb, sub in verbs.choices.items()
        }
        if source == "README.md":
            text = README.read_text().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
        else:
            text = cli.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
        listed = {
            verb: args.split()
            for verb, args in re.findall(r"^ *polyscat (\w+)((?: [<\[]\S+[>\]])*)", text, re.M)
        }
        assert listed == usage

    def test_missing_config_is_error(self, workspace, capsys):
        assert main(["recover", str(workspace / "nope.cfg")]) != 0
        assert "error" in capsys.readouterr().err

    def test_recover_determinism(self, workspace):
        # two runs with the same config and seed are byte-identical
        trees = []
        for sub in ("r1", "r2"):
            cfg = write_experiment_config(
                workspace / f"{sub}.cfg",
                "tetra.obs",
                noise_delta=1.0,
                output_dir=sub,
                **FAST,
            )
            assert main(["synth", str(cfg)]) == 0
            assert main(["recover", str(cfg)]) == 0
            trees.append(read_tree(workspace / sub))
        assert trees[0] == trees[1]
