import dataclasses
import logging
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import INCIDENT_TABLE, make_tetrahedron, write_experiment_config
from polyscat import geometry, pipeline
from polyscat.cli import main
from polyscat.geometry import load_obstacle, save_obstacle
from polyscat.pipeline import PipelineError, parse_config, run_pipeline, synthesize_dataset

FAST = dict(grid_shape=2000, grid_loc=500, cutoff=6, cluster_angle_deg=10.0)
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def workspace(tmp_path, tetra):
    save_obstacle(tetra, tmp_path / "tetra.obs")
    return tmp_path


def assert_same_fields(a, b):
    """Field-by-field equality of (nested) dataclasses holding arrays."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            assert_same_fields(x, y)
        elif isinstance(x, (np.ndarray, tuple)):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y, f.name


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
        assert len(config.incident) == 6
        assert config.thresholds.cutoff == 6
        assert config.noise.delta == 0.5
        assert config.grid_shape == 2000
        assert config.step3_oracle is True
        assert_allclose(config.location, [50.0, 50.0, 50.0])

    def test_rejects_unknown_keys(self, workspace):
        cfg = workspace / "bad.cfg"
        # merge_vertices and indicator_polarity are no longer keys: a stale
        # line fails, it is not ignored
        for key in ("what", "merge_vertices", "indicator_polarity"):
            cfg.write_text(f"obstacle = tetra.obs\nincident = 1 0 0 0 0 1\n{key} = 0\n")
            with pytest.raises(ValueError, match=f"unknown keys.*{key}"):
                parse_config(cfg)

    @pytest.mark.parametrize(
        "line",
        [
            "region_resolution = 11 11",
            "region_resolution = 0 11 11",
            "region_resolution = -2 11 11",
            "region_resolution = 11 11 11 11",
        ],
    )
    def test_rejects_bad_region_resolution(self, workspace, line):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(plain.read_text() + line + "\n")
        with pytest.raises(ValueError, match="resolution"):
            parse_config(bad)

    @pytest.mark.parametrize("value", ["-1", "-10"])
    def test_rejects_negative_cutoff(self, workspace, value):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(plain.read_text() + f"cutoff = {value}\n")
        with pytest.raises(ValueError, match="cutoff"):
            parse_config(bad)

    @pytest.mark.parametrize("line", ["grid_shape = 3", "grid_loc = 0"])
    def test_rejects_small_grids(self, workspace, line):
        # rejected when parsed, naming the key, before synth creates out/data/
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(plain.read_text() + line + "\n")
        with pytest.raises(ValueError, match=line.split(" = ")[0]):
            parse_config(bad)
        assert main(["synth", str(bad)]) == 1
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "cutoff = 2.5",
            "noise_seed = 1.5",
            "grid_shape = 2000.0",
            "region_resolution = 11 11 2.5",
        ],
    )
    def test_rejects_non_integer_values(self, workspace, line):
        plain = write_experiment_config(workspace / "plain.cfg", "tetra.obs", **FAST)
        bad = workspace / "bad.cfg"
        bad.write_text(plain.read_text() + line + "\n")
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
        assert config.thresholds.cutoff == 10
        assert config.region.resolution == (11, 11, 11)

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
            "exclusion_radius = -inf",
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
        bad.write_text(plain.read_text() + line + "\n")
        with pytest.raises(ValueError, match="finite"):
            parse_config(bad)

    def test_rejects_empty_incident(self, workspace):
        cfg = workspace / "bad.cfg"
        cfg.write_text("obstacle = tetra.obs\noutput_dir = out\n")
        with pytest.raises(ValueError):
            parse_config(cfg)

    def test_rejects_non_orthogonal_polarization(self, workspace):
        cfg = workspace / "bad.cfg"
        cfg.write_text("obstacle = tetra.obs\nincident = 1 0 0  1 0 0\n")
        with pytest.raises(ValueError):
            parse_config(cfg)


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


class TestRecover:
    def test_full_run_structure(self, workspace, tetra):
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        report = run_pipeline(parse_config(cfg))
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

    def test_presynthesized_equals_one_shot(self, workspace):
        cfg_a = write_experiment_config(
            workspace / "a.cfg", "tetra.obs", output_dir="a", **FAST
        )
        config_a = parse_config(cfg_a)
        synthesize_dataset(config_a)
        run_pipeline(config_a)

        cfg_b = write_experiment_config(
            workspace / "b.cfg", "tetra.obs", output_dir="b", **FAST
        )
        run_pipeline(parse_config(cfg_b))
        assert read_tree(workspace / "a") == read_tree(workspace / "b")

    def test_po_location_data(self, workspace, tetra):
        # step 3 on the physical-optics field of the tetrahedron, not the
        # degree-1 oracle: front-face PO is not centred on the centroid, so
        # the location is off by about 0.2, inside the circumradius
        cfg = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", step3_oracle=False, **FAST
        )
        report = run_pipeline(parse_config(cfg))
        assert (workspace / "out" / "location.csv").exists()
        circumradius = float(np.linalg.norm(tetra.vertices - tetra.centroid, axis=1).max())
        assert circumradius == pytest.approx(math.sqrt(6.0) / 4.0)
        assert np.linalg.norm(report.location - 50.0) < circumradius

    def test_stage_tagged_failure(self, workspace):
        # a threshold nothing survives -> step1 failure with stage tag
        cfg = write_experiment_config(
            workspace / "exp.cfg", "tetra.obs", e_tol=100.0, **FAST
        )
        with pytest.raises(PipelineError) as err:
            run_pipeline(parse_config(cfg))
        assert "step1" in str(err.value)

    def test_step2_polyhedron_comes_from_the_fit(self, workspace, monkeypatch):
        # the fit intersects through the name minkowski imported, which this
        # patch does not reach; any other intersection in step 2 fails the run
        def no_intersection(*args, **kwargs):
            raise AssertionError("step 2 intersected outside the offset fit")

        monkeypatch.setattr(geometry, "halfspace_intersection", no_intersection)
        cfg = write_experiment_config(workspace / "exp.cfg", "tetra.obs", **FAST)
        report = run_pipeline(parse_config(cfg))
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
        assert main(["locate", str(cfg)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        vals = [float(t) for t in line.split()]
        assert_allclose(vals[:3], 50.0, atol=1e-2)

    def test_check_verb(self, workspace, capsys):
        assert main(["check", str(workspace / "tetra.obs")]) == 0
        assert "admissible" in capsys.readouterr().out
        # an impossible area bound fails with exit code 3
        assert main(["check", str(workspace / "tetra.obs"), "--h3", "5.0"]) == 3

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
            assert main(["recover", str(cfg)]) == 0
            trees.append(read_tree(workspace / sub))
        assert trees[0] == trees[1]
