"""CLI tests: config grammar, golden CSV headers, determinism, exit codes."""

import dataclasses
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from laminhom import cli, fields, stats
from laminhom.cell import SampleBlock, SolverOptions, assemble, solve_corrector
from laminhom.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SOLVER,
    GOLDEN_HEADERS,
    ConfigError,
    ExperimentConfig,
    _single_checks,
    fmt,
    load_config,
    main,
)
from laminhom.energy import NEO_HOOKEAN, EnergyDensity, rotation_from_angle
from laminhom.fields import sample_periodic_field
from laminhom.stats import cells_for

ROOT = Path(__file__).resolve().parents[1]


def write_config(path, **overrides):
    """Small d=2 config; overrides replace whole `key = value` lines."""
    base = {
        "family": "saint-venant-kirchhoff", "lambda": "1.2", "mu": "0.8",
        "modulation": "0.3", "dimension": "2",
        "kind": "triangle", "variance": "1.0", "correlation_length": "1.0",
        "spacing": "0.25",
        "mode": "matrix", "matrix": "1 0.05 ; 0.05 1",
        "lengths": "8", "samples": "1", "seed": "7", "order": "2",
        "extra_run": "",
    }
    base.update(overrides)
    text = textwrap.dedent("""\
        [material]
        family = {family}
        lambda = {lambda}
        mu = {mu}
        modulation = {modulation}
        dimension = {dimension}

        [covariance]
        kind = {kind}
        variance = {variance}
        correlation_length = {correlation_length}

        [discretization]
        spacing = {spacing}

        [deformation]
        mode = {mode}
        matrix = {matrix}

        [run]
        lengths = {lengths}
        samples = {samples}
        seed = {seed}
        order = {order}
        {extra_run}
        """).format(**base)
    path.write_text(text)
    return path


@pytest.fixture
def ensemble_calls(monkeypatch):
    """The lengths of every plan the commands pass to cli.run_ensemble."""
    import laminhom.cli as cli
    calls = []
    run_ensemble = cli.run_ensemble

    def counted(plan):
        calls.append(plan.lengths)
        return run_ensemble(plan)

    monkeypatch.setattr(cli, "run_ensemble", counted)
    return calls


def read_table(path):
    """(metadata dict, header, data rows as string lists)."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            meta[k] = v
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestConfigParsing:
    def test_shipped_configs_load(self):
        for name in ("single_small", "rates_small", "rates_medium", "mc_small"):
            config = load_config(f"configs/{name}.cfg")
            assert config.dimension == 2
            assert config.material().family == "saint-venant-kirchhoff"

    def test_matrix_mode(self, tmp_path):
        config = load_config(write_config(tmp_path / "a.cfg"))
        assert np.array_equal(config.F, np.array([[1.0, 0.05], [0.05, 1.0]]))

    def test_identity_plus_mode(self, tmp_path):
        path = tmp_path / "a.cfg"
        text = write_config(path).read_text().replace(
            "mode = matrix\nmatrix = 1 0.05 ; 0.05 1",
            "mode = identity_plus\nangle = 0.3\nstrain = 0 1 ; 1 0\nmagnitude = 0.05")
        path.write_text(text)
        config = load_config(path)
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = rotation_from_angle(0.3, 2) @ (np.eye(2) + 0.05 * S)
        assert np.allclose(config.F, expected, atol=1e-15)

    @pytest.mark.parametrize("overrides,fragment", [
        ({"mu": "-0.8"}, "positive"),
        ({"dimension": "4"}, "dimension"),
        ({"matrix": "1 0.9 ; 0.9 1"}, "rotations"),
        ({"spacing": "0.3"}, "divide"),
        ({"spacing": "0.6"}, "coarse"),
        ({"lengths": "2"}, "correlation"),
        ({"order": "5"}, "order"),
        ({"samples": "0"}, "samples"),
        ({"seed": "-1"}, "u64"),
        ({"matrix": "1 0.05 0 ; 0 1 0 ; 0 0 1"}, "rows"),
        ({"kind": "gaussian"}, "covariance"),
        ({"extra_run": "reference_strategy = median"}, "reference_strategy"),
        ({"extra_run": "mc_groups = 1"}, "mc_groups"),
        ({"lengths": "8 12 8"}, "distinct"),
        ({"lengths": "inf"}, "divide"),
        ({"spacing": "0"}, "positive"),
        ({"variance": "inf"}, "variance"),
    ])
    def test_rejects_bad_values(self, tmp_path, overrides, fragment):
        path = write_config(tmp_path / "bad.cfg", **overrides)
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_rejects_unknown_key_and_section(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", extra_run="typo_key = 3")
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(path)
        path.write_text(path.read_text().replace("typo_key = 3", "")
                        + "\n[plotting]\nstyle = fancy\n")
        with pytest.raises(ConfigError, match="plotting"):
            load_config(path)

    def test_rejects_mixed_deformation_keys(self, tmp_path):
        path = tmp_path / "a.cfg"
        write_config(path)
        path.write_text(path.read_text().replace(
            "mode = matrix", "mode = matrix\nangle = 0.1"))
        with pytest.raises(ConfigError, match="matrix mode"):
            load_config(path)

    def test_missing_file_and_missing_key(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")
        path = write_config(tmp_path / "a.cfg", seed="")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_inline_hash_comment_and_semicolon_rows(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", spacing="0.25  # quarter cell")
        config = load_config(path)
        assert config.spacing == 0.25
        assert config.F.shape == (2, 2)

    def test_nh_alias_is_neo_hookean(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", family="nh")
        assert load_config(cfg).material().family == NEO_HOOKEAN
        assert main(["single", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize("key,spellings", [
        ("family", ("svk", "saint-venant-kirchhoff")),
        ("kind", ("Cosine-Bump", "cosine-bump")),
    ])
    def test_equivalent_spellings_write_one_resolved_config(self, tmp_path, key, spellings):
        metas = []
        for i, spelling in enumerate(spellings):
            cfg = write_config(tmp_path / f"{i}.cfg", **{key: spelling})
            out = tmp_path / f"o{i}"
            assert main(["single", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            metas.append(read_table(out / "quantities.csv")[0])
        for name in ("config_sha256", "config.material.family", "config.covariance.kind"):
            assert metas[0][name] == metas[1][name], name
        assert metas[0]["config.material.family"] == "saint-venant-kirchhoff"

    def test_single_loads_through_load_config_once(self, tmp_path, monkeypatch):
        calls = []
        load = cli.load_config

        def counted(*args, **kwargs):
            calls.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(cli, "load_config", counted)
        cfg = write_config(tmp_path / "a.cfg")
        assert main(["single", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert calls == [(str(cfg),)]

    @pytest.mark.parametrize("dimension,strain,fragment", [
        ("3", "0 1 ; 1 0", "3x3"),
        ("1", "0.5", "dimension"),
    ])
    def test_identity_plus_strain_checked_against_dimension(self, tmp_path, dimension,
                                                            strain, fragment):
        path = tmp_path / "a.cfg"
        text = write_config(path, dimension=dimension).read_text().replace(
            "mode = matrix\nmatrix = 1 0.05 ; 0.05 1",
            f"mode = identity_plus\nstrain = {strain}\nmagnitude = 0.05")
        path.write_text(text)
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)

    def test_defaults_applied(self, tmp_path):
        config = load_config(write_config(tmp_path / "a.cfg"))
        assert config.tol_inner == 1e-12 and config.tol_outer == 1e-10
        assert config.reference_strategy == "largest_L_mean"
        assert config.reference_samples == config.samples
        assert config.mc_groups == 8 and config.mc_scale == 1.0

    @pytest.mark.parametrize("path,digest", [
        ("configs/single_small.cfg",
         "bfe21f2d26852a08657e83cad76187eff4c5199432d7e3b7682447da1c269396"),
        ("configs/rates_small.cfg",
         "abc067c7932db2ff1c3c914ab41a6863dc8591a9199f7adfab82f4b5783ca8fb"),
        ("configs/rates_medium.cfg",
         "42c682e70756100fba8a043e2fe16ba0e543d9703ac29416844f041537efe738"),
        ("configs/mc_small.cfg",
         "4fb44e19881e547d3d732853de0781c7b0e07c089f248976b2d1faa3617bcd1b"),
        ("perfbench/configs/mc_contrast_2w.cfg",
         "24e76fb9069c47d22b82f132c9b761406e681071c63434b6f0742d1b560eed64"),
        ("perfbench/configs/smoke.cfg",
         "0e8a5a9dbc84108ee00e9356aabb48f7540f97c5e093c33a741cec5c8af15d74"),
    ])
    def test_shipped_config_hash_is_pinned(self, path, digest):
        # config_sha256 is written into every CSV: the shipped configs keep theirs
        assert load_config(ROOT / path).sha256() == digest

    def test_readme_lists_every_key(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = text.split("## Config format", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
        keys, section = set(), None
        for line in block.splitlines():
            if m := re.match(r"\[(\w+)\]", line):
                section = m[1]
            elif m := re.match(r"#? ?(\w+) = ", line):
                keys.add((section, m[1]))
        assert keys == {(section, key) for section, key, _ in cli._KEYS}

    def test_sha_covers_resolved_config(self, tmp_path):
        a = load_config(write_config(tmp_path / "a.cfg"))
        b = load_config(write_config(tmp_path / "b.cfg"))
        c = load_config(write_config(tmp_path / "c.cfg", seed="8"))
        assert a.sha256() == b.sha256()
        assert a.sha256() != c.sha256()
        # seed override shifts the hash the same way as an edited file
        a.seed = 8
        assert a.sha256() == c.sha256()


class TestFormatting:
    def test_fmt_is_lossless_for_floats(self):
        for x in (1 / 3, 0.05, 1e-17, 123456.789, 6.02e23):
            assert float(fmt(x)) == x
        assert fmt(16.0) == "16"
        assert fmt(3) == "3"
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt("triangle") == "triangle"

    def test_golden_headers_frozen(self):
        assert GOLDEN_HEADERS == {
            "quantities": "quantity,component,value",
            "corrector": "cell,x,omega,component,value",
            "checks": "check,value,threshold,status",
            "field": "cell,x,omega",
            "fluctuations": "order,L,count,sd,ci_low,ci_high",
            "systematic": "order,L,count,bias,se,underpowered,excluded",
            "rates": "series,order,slope,intercept,ci_low,ci_high,points",
            "mc": "L,N,groups,total_error,fluctuation_part,bias_part,envelope,scaled_envelope,ratio",
        }


class TestSingle:
    def test_single_matches_library_and_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["single", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["single", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        for name in ("quantities.csv", "corrector.csv", "checks.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        config = load_config(cfg)
        n = cells_for(8.0, 0.25)
        sample = sample_periodic_field(config.covariance(), 8.0, n, 7, 0)
        quantities = assemble(config.material(), sample, config.F, order=2)
        meta, header, rows = read_table(out1 / "quantities.csv")
        assert header == GOLDEN_HEADERS["quantities"]
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("W", "")] == quantities.energy
        assert table[("DW", "12")] == quantities.stress[0, 1]
        assert table[("D2W", "1212")] == quantities.tangent[0, 1, 0, 1]
        assert len(rows) == 1 + 4 + 16

    def test_single_metadata_reproducibility_block(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg")
        out = tmp_path / "o"
        main(["single", "--config", str(cfg), "--out", str(out)])
        meta, _, _ = read_table(out / "quantities.csv")
        for key in ("schema_version", "version", "command", "prng", "config_sha256",
                    "config.run.seed", "config.deformation.F", "config.run.lengths"):
            assert key in meta, key
        assert meta["prng"] == "philox4x64(numpy)"
        assert meta["config.run.seed"] == "7"
        # nothing volatile: no timestamps, no worker counts
        assert not any("time" in k or "date" in k or "workers" in k for k in meta)

    def test_corrector_file_lists_every_cell(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg")
        out = tmp_path / "o"
        main(["single", "--config", str(cfg), "--out", str(out)])
        _, header, rows = read_table(out / "corrector.csv")
        assert header == GOLDEN_HEADERS["corrector"]
        n = cells_for(8.0, 0.25)
        assert len(rows) == 2 * n
        config = load_config(cfg)
        sample = sample_periodic_field(config.covariance(), 8.0, n, 7, 0)
        sol = solve_corrector(config.material(), sample, config.F)
        assert float(rows[0][4]) == sol.p[0, 0]
        assert float(rows[2 * n - 1][4]) == sol.p[n - 1, 1]

    def test_all_checks_pass_on_healthy_config(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg")
        out = tmp_path / "o"
        assert main(["single", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        _, header, rows = read_table(out / "checks.csv")
        assert header == GOLDEN_HEADERS["checks"]
        names = {r[0] for r in rows}
        assert names == {"fd_stress", "fd_tangent", "det_identity",
                         "frame_indifference", "rank_one_min", "flux_residual",
                         "mean_residual"}
        assert all(r[3] == "pass" for r in rows)

    def test_failed_check_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("laminhom.cli.FD_STRESS_TOL", 0.0)
        cfg = write_config(tmp_path / "a.cfg")
        out = tmp_path / "o"
        assert main(["single", "--config", str(cfg), "--out", str(out)]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "laminhom-error code=1 kind=invariant" in err and "fd_stress" in err
        _, _, rows = read_table(out / "checks.csv")
        assert ("fd_stress", "fail") in {(r[0], r[3]) for r in rows}

    def test_loose_outer_solve_trips_flux_check(self, tmp_path):
        # the checks must detect a solution whose flux is not constant
        config = load_config(write_config(tmp_path / "a.cfg"))
        w = config.material()
        n = cells_for(8.0, 0.25)
        sample = sample_periodic_field(config.covariance(), 8.0, n, 7, 0)
        # a loose flux tolerance ends the Newton iteration one step after it
        # is met, well above the threshold of the default tolerance
        loose = SolverOptions(tol_inner=1e-2)
        block = SampleBlock(w, [sample], config.F, loose)
        sol = solve_corrector(w, sample, config.F, loose, block=block)
        quantities = assemble(w, sample, config.F, order=2, opts=loose, block=block)
        rows = _single_checks(w, sample, config.F, SolverOptions(), sol, quantities, 7)
        status = {r[0]: r[3] for r in rows}
        assert status["flux_residual"] == "fail"


class TestExitCodes:
    def test_config_error_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", mu="-1")
        out = tmp_path / "o"
        assert main(["single", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("laminhom-error code=3 kind=config")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("overrides", [{"family": "neo_hookean"},
                                           {"kind": "truncated-cosine-bump"}])
    def test_undocumented_spelling_exits_three(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "a.cfg", **overrides)
        out = tmp_path / "o"
        assert main(["single", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("laminhom-error code=3 kind=config")
        assert err.count("\n") == 1 and "unknown" in err
        assert not (out / "quantities.csv").exists()

    def test_missing_config_exits_three(self, tmp_path):
        code = main(["single", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_unreachable_tolerance_exits_two(self, tmp_path, capsys, monkeypatch):
        # only an exactly zero flux residual in every cell meets this tolerance
        cfg = write_config(tmp_path / "a.cfg", extra_run="tol_inner = 1e-30")
        out = tmp_path / "o"
        calls = []
        flux_cells = EnergyDensity.flux_cells

        def counted(self, *args, **kwargs):
            calls.append(1)
            return flux_cells(self, *args, **kwargs)

        monkeypatch.setattr(EnergyDensity, "flux_cells", counted)
        assert main(["single", "--config", str(cfg), "--out", str(out)]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "laminhom-error code=2 kind=solver" in err
        # candidates at the rounding floor pass the line search: the sample
        # takes every step, and fails for the right reason
        max_outer = SolverOptions().max_outer
        assert f"not converged after {max_outer} steps" in err
        assert len(calls) <= max_outer + 5
        assert not (out / "quantities.csv").exists()

    @pytest.mark.parametrize("command,overrides,fragment", [
        ("rates", {"extra_run": "reference_length = 0"}, "correlation"),
        ("mc", {"correlation_length": "0.25", "spacing": "0.0625", "lengths": "1"}, "L > 1"),
        ("rates", {"lengths": "4 8 12 16", "extra_run": "reference_strategy = extrapolated"},
         "ratio 2"),
        ("mc", {"lengths": "4 8 12 16", "extra_run": "reference_strategy = extrapolated"},
         "ratio 2"),
    ], ids=["zero_reference_length", "mc_length_one", "rates_extrapolated_ratio",
            "mc_extrapolated_ratio"])
    def test_unrunnable_config_exits_three_before_any_ensemble(
            self, tmp_path, capsys, ensemble_calls, command, overrides, fragment):
        cfg = write_config(tmp_path / "a.cfg", samples="8", order="0", **overrides)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("laminhom-error code=3 kind=config")
        assert err.count("\n") == 1 and fragment in err
        assert ensemble_calls == []
        assert not any(out.glob("*.csv"))

    def test_bad_workers_env_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LAMINHOM_WORKERS", "many")
        cfg = write_config(tmp_path / "a.cfg")
        assert main(["single", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestSeedAndWorkers:
    @pytest.mark.parametrize("flags,env,message", [
        (["--workers", "0"], None, "workers must be >= 1"),
        (["--workers", "-5"], None, "workers must be >= 1"),
        ([], "0", "workers must be >= 1"),
        (["--seed", "-1"], None, "seed must fit in a u64"),
    ])
    def test_bad_override_exits_three(self, tmp_path, monkeypatch, capsys, flags, env, message):
        if env is not None:
            monkeypatch.setenv("LAMINHOM_WORKERS", env)
        cfg = write_config(tmp_path / "a.cfg")
        out = tmp_path / "o"
        assert main(["single", "--config", str(cfg), "--out", str(out), *flags]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "quantities.csv").exists()

    def test_overrides_are_validated_with_one_periodization_per_period(self, tmp_path,
                                                                       monkeypatch):
        # every periodization, counted where it happens, from a cold spectral cache
        periodized = []
        periodize = fields.periodize_covariance

        def counted(cov, L, n):
            periodized.append(L)
            return periodize(cov, L, n)

        monkeypatch.setattr(fields, "periodize_covariance", counted)
        fields._spectral_root.cache_clear()
        monkeypatch.setenv("LAMINHOM_WORKERS", "3")
        cfg = write_config(tmp_path / "a.cfg", lengths="8 12")
        args = cli.build_parser().parse_args(
            ["rates", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "o")])
        config, _ = cli._prepare(args)
        assert (config.seed, config.workers) == (9, 3)
        assert periodized == [8.0, 12.0]
        # the ensemble checks its grids and draws its samples from the same cache
        stats.run_ensemble(dataclasses.replace(config.plan(), workers=1))
        assert periodized == [8.0, 12.0]

    def test_seed_override_changes_data_and_metadata(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["single", "--config", str(cfg), "--out", str(out1)])
        main(["single", "--config", str(cfg), "--seed", "8", "--out", str(out2)])
        meta1, _, rows1 = read_table(out1 / "quantities.csv")
        meta2, _, rows2 = read_table(out2 / "quantities.csv")
        assert meta1["config.run.seed"] == "7" and meta2["config.run.seed"] == "8"
        assert meta1["config_sha256"] != meta2["config_sha256"]
        assert rows1 != rows2

    def test_worker_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "a.cfg", lengths="8 12",
                           samples="8", order="1")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["rates", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        monkeypatch.setenv("LAMINHOM_WORKERS", "3")
        assert main(["rates", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        for name in ("fluctuations.csv", "systematic.csv", "rates.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestRates:
    def test_synthetic_powerlaw_recovers_exact_slope(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", lengths="8 16 32 64", samples="4")
        out = tmp_path / "o"
        code = main(["rates", "--config", str(cfg), "--out", str(out),
                     "--synthetic", "powerlaw:-0.5"])
        assert code == EXIT_OK
        meta, header, rows = read_table(out / "rates.csv")
        assert header == GOLDEN_HEADERS["rates"]
        assert meta["synthetic"] == "powerlaw:-0.5"
        assert len(rows) == 6  # two series, orders 0..2
        for r in rows:
            assert abs(float(r[2]) + 0.5) <= 1e-12
            assert abs(float(r[4]) + 0.5) <= 1e-12 and abs(float(r[5]) + 0.5) <= 1e-12
            assert r[6] == "4"

    def test_synthetic_rejects_unknown_form(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg")
        code = main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--synthetic", "cubic:3"])
        assert code == EXIT_CONFIG

    def test_real_rates_tables_are_consistent(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", lengths="8 12 16", samples="8",
                           order="0", extra_run="reference_length = 24")
        out = tmp_path / "o"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        _, header_f, rows_f = read_table(out / "fluctuations.csv")
        _, header_s, rows_s = read_table(out / "systematic.csv")
        assert header_f == GOLDEN_HEADERS["fluctuations"]
        assert header_s == GOLDEN_HEADERS["systematic"]
        assert [r[1] for r in rows_f] == ["8", "12", "16"]
        assert all(r[2] == "8" for r in rows_f)
        assert all(float(r[3]) > 0 for r in rows_f)
        assert all(float(r[3]) <= float(r[5]) + 1e-12 for r in rows_f)  # sd <= ci_high
        # external reference excludes nothing
        assert all(r[6] == "0" for r in rows_s)
        # rates.csv has a fluctuation fit only if >= 4 lengths; here 3 -> none
        _, _, rows_r = read_table(out / "rates.csv")
        assert rows_r == []

    @pytest.mark.filterwarnings("error")
    def test_one_sample_per_length_is_underpowered(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", lengths="8 16 32", samples="1", order="0",
                           extra_run="reference_strategy = extrapolated")
        out = tmp_path / "o"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        _, _, rows = read_table(out / "systematic.csv")
        assert len(rows) == 3
        assert all(r[4] == "nan" and r[5] == "1" for r in rows)

    def test_tolerated_failure_is_warned_on_stderr(self, tmp_path, monkeypatch, capsys):
        # the 1% budget is per period: 1 failure among L = 8's 200 samples is tolerated
        cfg = write_config(tmp_path / "a.cfg", lengths="8 12", samples="200", order="0")
        healthy = tmp_path / "healthy"
        assert main(["rates", "--config", str(cfg), "--out", str(healthy)]) == EXIT_OK
        assert "sample failed" not in capsys.readouterr().err
        draw = stats.sample_periodic_field

        def one_nan_field(cov, period, n, seed, index):
            # sample 3 at L = 8 fails: 1 of 200 samples, below the budget
            sample = draw(cov, period, n, seed, index)
            if period == 8.0 and index == 3:
                return dataclasses.replace(sample, values=np.full(n, np.nan))
            return sample

        monkeypatch.setattr(stats, "sample_periodic_field", one_nan_field)
        out = tmp_path / "o"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "sample failed" in line] == [
            "warning: sample failed seed=7 L=8 index=3: "
            "SingularityError: acoustic tensor singular or not finite"]
        for name in ("fluctuations.csv", "systematic.csv", "rates.csv"):
            _, header, rows = read_table(out / name)
            _, header0, rows0 = read_table(healthy / name)
            assert header == header0
            assert [r[:2] for r in rows] == [r[:2] for r in rows0]
        _, _, rows = read_table(out / "fluctuations.csv")
        assert [r[2] for r in rows] == ["199", "200"]

    def test_interrupt_writes_partial_tables(self, tmp_path, interrupt_at):
        cfg = write_config(tmp_path / "a.cfg", lengths="8 12 16", samples="8",
                           order="0")
        interrupt_at(16.0)
        out = tmp_path / "o"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == 130
        meta, _, rows = read_table(out / "fluctuations.csv")
        assert meta["interrupted"] == "1"
        assert [r[1] for r in rows] == ["8", "12"]

    @pytest.mark.parametrize("extra_run,planned", [
        ("", [(8.0, 12.0)]),
        ("reference_length = 24", [(8.0, 12.0), (24.0,)]),
    ], ids=["no_reference", "reference"])
    def test_one_ensemble_per_command(self, tmp_path, ensemble_calls, extra_run, planned):
        # every length in one ensemble, in increasing order, and one for the reference
        cfg = write_config(tmp_path / "a.cfg", lengths="12 8", samples="8", order="0",
                           extra_run=extra_run)
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert ensemble_calls == planned


class TestMcAndField:
    def test_mc_table_schema_and_identity(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", lengths="8 16", samples="1",
                           order="0", extra_run="mc_groups = 4\nmc_scale = 4")
        out = tmp_path / "o"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        meta, header, rows = read_table(out / "mc.csv")
        assert header == GOLDEN_HEADERS["mc"]
        scale = float(meta["envelope_scale"])
        assert scale > 0
        for r in rows:
            total, envelope, scaled, ratio = (float(r[3]), float(r[6]),
                                              float(r[7]), float(r[8]))
            assert r[2] == "4"
            assert scaled == pytest.approx(scale * envelope, rel=1e-15)
            assert ratio == pytest.approx(total / scaled, rel=1e-15)

    def test_interrupted_mc_runs_no_reference_ensemble(self, tmp_path, interrupt_at,
                                                        ensemble_calls):
        cfg = write_config(tmp_path / "a.cfg", lengths="8 16", samples="1", order="0",
                           extra_run="mc_groups = 4\nmc_scale = 4\nreference_length = 24")
        interrupt_at(16.0)
        out = tmp_path / "o"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 130
        assert ensemble_calls == [(8.0, 16.0)]
        meta, _, rows = read_table(out / "mc.csv")
        assert meta["interrupted"] == "1"
        assert [r[0] for r in rows] == ["8"]

    def test_dump_field_rows_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["dump-field", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["dump-field", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
        _, header, rows = read_table(out1 / "field.csv")
        assert header == GOLDEN_HEADERS["field"]
        n = cells_for(8.0, 0.25)
        assert len(rows) == n
        assert float(rows[1][1]) == 0.25

    def test_zero_variance_single_equals_homogeneous_material(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", variance="0.0")
        out = tmp_path / "o"
        assert main(["single", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        config = load_config(cfg)
        w = config.material()
        expected = float(w.energy_cells(np.zeros(1), config.F[:, :, None])[0])
        _, _, rows = read_table(out / "quantities.csv")
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("W", "")] == pytest.approx(expected, rel=1e-14)
        _, _, crows = read_table(out / "corrector.csv")
        assert all(abs(float(r[4])) <= 1e-14 for r in crows)


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "negative_control_loose_tolerance: pass" in out
        assert "golden_headers: pass" in out
        assert "FAIL" not in out

    def test_spectral_mass_fails_validate(self, monkeypatch, capsys):
        # mass added to every spectral value breaks C_L(0) = C(0), though none is negative
        periodize = cli.periodize_covariance

        def heavier(cov, period, n):
            per = periodize(cov, period, n)
            return dataclasses.replace(per, spectrum=per.spectrum + 1e-3 * cov.variance)

        monkeypatch.setattr(cli, "periodize_covariance", heavier)
        assert main(["validate"]) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert "covariance_spectra: FAIL" in out and out.count("FAIL") == 1
        errors = [line for line in err.splitlines() if "laminhom-error" in line]
        assert len(errors) == 1
        assert errors[0].startswith("laminhom-error code=1 kind=invariant")
        assert "covariance_spectra" in errors[0]

    def test_failing_command_fails_golden_headers(self, monkeypatch):
        single = cli.cmd_single

        def failing(config, out_dir):
            # writes every file with its golden header, then reports a failure
            single(config, out_dir)
            return EXIT_INVARIANT

        monkeypatch.setattr(cli, "cmd_single", failing)
        ok, detail = cli._check_golden_headers()
        assert not ok and detail == f"single exited {EXIT_INVARIANT}"


class TestBuiltinConfigGuard:
    def test_experiment_config_validates_directly(self):
        with pytest.raises(ConfigError, match="rotations"):
            ExperimentConfig(family="svk", lam=1.2, mu=0.8, modulation=0.0,
                             dimension=2, kind="triangle", variance=1.0,
                             correlation_length=1.0, spacing=0.25,
                             F=1.5 * np.eye(2), lengths=(8.0,), samples=1, seed=0)
