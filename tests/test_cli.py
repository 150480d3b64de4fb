"""End-to-end checks of the command-line front end."""

import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from gridhfk import chains, cli, reducer
from gridhfk.chains import SparseComplex
from gridhfk.cli import (
    RunConfig,
    alexander_genus_violation,
    emit_report,
    main,
    parse_braid_word,
    parse_machine,
    run,
    symmetry_violation,
)
from gridhfk.gridkit import (
    GridDiagram,
    LaurentPoly,
    parse_braid,
)
from gridhfk.reducer import HomologyResult, PipelineReport, make_table
from gridhfk.simplifier import minimize

from conftest import BRAIDS, cyclic_col_shift, format_grid_text


class TestWordParsing:
    def test_spaces(self):
        assert parse_braid_word("1 1 1") == (1, 1, 1)

    def test_commas_and_negatives(self):
        assert parse_braid_word("1,-2, 1 -2") == (1, -2, 1, -2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_braid_word("   ")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            parse_braid_word("1 x 2")


class TestConfigValidation:
    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            RunConfig().validate()
        with pytest.raises(ValueError):
            RunConfig(braid=(1,), grid_path="f").validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("coeff", "q"),
            ("mode", "signature"),
            ("skip", "always"),
            ("fmt", "json"),
        ],
    )
    def test_rejects_unknown_choice(self, field, value):
        cfg = RunConfig(braid=(1,), **{field: value})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            RunConfig(braid=(1,), simplify_budget=-1).validate()

    def test_torsion_mode_needs_integers(self):
        with pytest.raises(ValueError):
            RunConfig(braid=(1,), mode="torsion", coeff="z2").validate()


class TestUnknotExample:
    def test_single_free_generator(self):
        result = run(RunConfig(braid=(1,)))
        assert result.table.groups == {(0, 0): (1, ())}
        assert result.genus == 0
        assert result.fibered is True
        assert result.torsion_free is True

    def test_text_report_row(self):
        result = run(RunConfig(braid=(1,)))
        out = emit_report(result)
        assert "(0, 0): Z" in out
        assert "total rank: 1" in out
        assert "genus: 0" in out


class TestDerivedInvariantModes:
    def test_genus_mode_matches_full_run(self):
        fast = run(RunConfig(braid=(1, 1, 1), mode="genus"))
        full = run(RunConfig(braid=(1, 1, 1)))
        assert fast.genus == full.genus == 1
        assert fast.pipeline == "ovals-top-slice"
        assert fast.table is None

    def test_fibered_mode(self):
        result = run(RunConfig(braid=(1, 1, 1), mode="fibered"))
        assert result.fibered is True
        assert "fibered: yes" in emit_report(result)

    def test_torsion_mode(self):
        result = run(RunConfig(braid=(1, 1, 1), mode="torsion"))
        assert result.torsion_free is True
        assert "torsion-free: yes" in emit_report(result)


class TestSymmetryCheck:
    # trefoil, and the same groups with the top one moved up two Maslov
    # degrees: the Euler characteristic is unchanged, the symmetry is not
    SYMMETRIC = {(2, 0): (1, ()), (0, -1): (1, ()), (-2, -2): (1, ())}
    SHIFTED = {(2, 2): (1, ()), (0, -1): (1, ()), (-2, -2): (1, ())}

    def test_helper(self):
        assert symmetry_violation(make_table(self.SYMMETRIC, "Z")) is None
        assert symmetry_violation(make_table(self.SHIFTED, "Z")) in ((1, 2), (-1, -2))

    def test_helper_compares_torsion(self):
        table = make_table({(0, 0): (1, ()), (2, 1): (1, (2,)), (-2, -1): (1, ())}, "Z")
        assert symmetry_violation(table) in ((1, 1), (-1, -1))

    def test_reported_on_success(self):
        for mode in ("hfk", "torsion"):
            result = run(RunConfig(braid=(1, 1, 1), mode=mode))
            assert any("symmetry" in c for c in result.checks)

    @pytest.mark.parametrize("mode", ["hfk", "torsion"])
    def test_asymmetric_table_fails_the_run(self, mode, monkeypatch, capsys):
        def wrong(g, ring, skip="none"):
            return PipelineReport(make_table(self.SHIFTED, ring), None, "ovals-paths")

        monkeypatch.setattr(cli, "hfk_paths", wrong)
        argv = ["--braid", "1 1 1", "--strategy", "paths", "--crosscheck", "off"]
        assert main(argv + ["--mode", mode]) == 1
        assert "symmetry" in capsys.readouterr().err


class TestAlexanderGenusCheck:
    # 5_2: 2t - 3 + 2/t, genus 1, not fibered
    FIVE_TWO = LaurentPoly({1: 2, 0: -3, -1: 2})

    def test_helper(self):
        assert alexander_genus_violation(self.FIVE_TWO, 1, False) is None
        assert "below" in alexander_genus_violation(self.FIVE_TWO, 0, False)
        assert "leading coefficient 2" in alexander_genus_violation(
            self.FIVE_TWO, 1, True
        )
        # fibered needs the degree to reach the genus
        assert alexander_genus_violation(LaurentPoly({0: 1}), 1, True) is not None
        assert alexander_genus_violation(LaurentPoly({0: 1}), 1, False) is None

    @pytest.mark.parametrize(
        "word", [BRAIDS[k] for k in sorted(BRAIDS)] + [[1] * 7],
        ids=sorted(BRAIDS) + ["7_1"],
    )
    def test_real_runs_pass(self, word):
        # the knot and its mirror, over both rings
        for braid in (tuple(word), tuple(-a for a in word)):
            for mode, coeff in product(("genus", "fibered"), ("z", "z2")):
                cfg = RunConfig(braid=braid, mode=mode, coeff=coeff, crosscheck=False)
                result = run(cfg)
                assert "Alexander polynomial against genus: ok" in result.checks
                assert "lowest nonzero slice mirrors the highest: ok" in result.checks

    @pytest.mark.parametrize("name", ["8_20", "5_2"])
    def test_contradicting_answer_fails_the_run(self, name, monkeypatch, capsys):
        # 8_20 has Alexander degree 2; 5_2 has leading coefficient 2
        monkeypatch.setattr(cli, "top_invariants", lambda g, ring: (1, True))
        word = " ".join(map(str, BRAIDS[name]))
        assert main(["--braid", word, "--mode", "fibered", "--crosscheck", "off"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Alexander" in err
        assert "Traceback" not in err

    def test_machine_output_unchanged(self):
        result = run(RunConfig(braid=(1, 1, 1), mode="genus", fmt="machine"))
        assert "Alexander" not in emit_report(result)
        assert "mirror" not in emit_report(result)

    def test_unmirrored_slices_fail_the_run(
        self, monkeypatch, capsys, tmp_path, unmirrored_bottom_slice
    ):
        # an unknot grid whose interior omission (2, 2) gave a wrong table
        path = tmp_path / "unknot.txt"
        path.write_text(format_grid_text(GridDiagram((3, 2, 1, 0), (1, 0, 2, 3))))
        argv = ["--grid", str(path), "--crosscheck", "off", "--simplify-budget", "0"]
        # a bottom slice that does not mirror the top one fails the run
        assert main(argv + ["--mode", "genus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mirror" in err
        assert "Traceback" not in err
        # the run cannot be steered to the interior omission either
        top = reducer.top_invariants
        monkeypatch.setattr(
            cli, "top_invariants", lambda g, ring: top(g, ring, omit=(2, 2))
        )
        assert main(argv + ["--mode", "genus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: omitting (2, 2)")
        assert "Traceback" not in err


class TestTorusKnotPins:
    """Genus and fiberedness past the rectangle crosscheck (n > 8), where
    only the built-in checks run: T(p, q) is fibered with genus
    (p-1)(q-1)/2, and so is its mirror."""

    @pytest.mark.parametrize(
        "word,n,genus", [([1, 2] * 7, 10, 6), ([1] * 9, 11, 4)], ids=["T(3,7)", "T(2,9)"]
    )
    def test_genus_and_fibered(self, word, n, genus, capsys):
        checks = (
            "check: lowest nonzero slice mirrors the highest: ok",
            "check: Alexander polynomial against genus: ok",
        )
        for braid in (word, [-a for a in word]):
            for coeff in ("z", "z2"):
                argv = ["--braid", " ".join(map(str, braid)), "--coeff", coeff]
                for mode, answer in (("genus", f"genus: {genus}"), ("fibered", "fibered: yes")):
                    assert main(argv + ["--mode", mode]) == 0
                    lines = capsys.readouterr().out.splitlines()
                    assert f"grid size: {n} (input {n}), pipeline ovals-top-slice" in lines[1]
                    assert answer in lines
                    assert all(check in lines for check in checks)


class TestUniversalCoefficientsCheck:
    def test_reported_on_paths_z_runs(self):
        for skip in ("none", "auto"):
            result = run(RunConfig(braid=(1, 1, 1), skip=skip))
            assert "universal coefficients Z vs Z/2: ok" in result.checks
        result = run(RunConfig(braid=(1, 1, 1), coeff="z2"))
        assert not any("universal" in c for c in result.checks)

    def test_wrong_mod2_homology_fails_the_run(self, monkeypatch, capsys):
        mod2 = SparseComplex.mod2

        def extra_generator(self):
            other = mod2(self)
            other.add_generator(("extra",), 0, 0)
            return other

        monkeypatch.setattr(SparseComplex, "mod2", extra_generator)
        argv = ["--braid", "1 1 1", "--strategy", "paths", "--crosscheck", "off"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "universal coefficient" in err
        assert "Traceback" not in err


class TestMachineFormat:
    def test_trefoil_has_three_bare_records(self):
        result = run(RunConfig(braid=(1, 1, 1), fmt="machine"))
        out = emit_report(result)
        records = [
            line
            for line in out.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(records) == 3
        # no torsion anywhere, so every record is exactly "a m rank"
        assert all(len(line.split()) == 3 for line in records)

    def test_header_names_run_parameters(self):
        result = run(RunConfig(braid=(1, 1, 1), fmt="machine"))
        out = emit_report(result)
        assert "# input: braid 1 1 1" in out
        assert "# n: 5" in out
        assert "# pipeline: ovals-paths" in out
        assert "# ring: Z" in out

    @pytest.mark.parametrize("coeff", ["z", "z2"])
    def test_round_trip(self, coeff):
        for braid in [(1,), (1, 1, 1), (1, -2, 1, -2)]:
            result = run(RunConfig(braid=braid, coeff=coeff, fmt="machine"))
            assert parse_machine(emit_report(result)) == result.table

    def test_parser_rejects_missing_ring(self):
        with pytest.raises(ValueError):
            parse_machine("0 0 1\n")

    def test_parser_rejects_duplicate_grading(self):
        with pytest.raises(ValueError):
            parse_machine("# ring: Z\n0 0 1\n0 0 2\n")

    def test_parser_rejects_malformed_record(self):
        records = [
            "# ring: Z\n0 0\n",
            "# ring: Z\n0 0 -1\n",  # negative rank
            "# ring: Z\n0 0 1 1\n",  # Z/1
            "# ring: Z\n0 0 1 0\n",  # Z/0
            "# ring: Z2\n0 0 1 2\n",  # torsion over Z/2
            "# ring: Z\n0 0 0 4 2\n",  # factors out of divisibility order
        ]
        for text in records:
            with pytest.raises(ValueError):
                parse_machine(text)

    def test_parser_rejects_non_table_modes(self):
        result = run(RunConfig(braid=(1, 1, 1), mode="genus", fmt="machine"))
        with pytest.raises(ValueError):
            parse_machine(emit_report(result))


class TestCrosscheckPolicy:
    def test_default_on_for_small_grids(self):
        result = run(RunConfig(braid=(1, 1, 1)))
        assert any("crosscheck" in c for c in result.checks)

    def test_explicit_off(self):
        result = run(RunConfig(braid=(1, 1, 1), crosscheck=False))
        assert not any("crosscheck" in c for c in result.checks)

    def test_default_on_at_size_limit(self):
        result = run(RunConfig(braid=BRAIDS["8_20"], mode="genus"))
        assert result.grid.n == cli.CROSSCHECK_SIZE_LIMIT == 8
        assert any("crosscheck" in c for c in result.checks)

    def test_default_off_above_size_limit(self):
        result = run(RunConfig(braid=(1,) * 7, mode="genus"))
        assert result.grid.n == 9
        assert not any("crosscheck" in c for c in result.checks)

    def test_explicit_on_above_size_limit(self):
        result = run(
            RunConfig(braid=BRAIDS["8_20"], mode="genus", crosscheck=True)
        )
        assert result.genus == 2
        assert any("crosscheck" in c for c in result.checks)


class TestStrategiesAgree:
    def test_trefoil_same_table_every_way(self):
        tables = []
        for skip in ("none", "auto"):
            for crosscheck in (True, False):
                result = run(
                    RunConfig(braid=(1, 1, 1), skip=skip, crosscheck=crosscheck)
                )
                tables.append(result.table)
        tables.append(reducer.hfk_cells(result.grid).table)
        assert all(t == tables[0] for t in tables)

    @pytest.mark.parametrize("mode", ["hfk", "genus", "fibered", "torsion"])
    def test_rectangle_disagreement_fails_the_run(self, mode, monkeypatch, capsys):
        # genus 2 and not fibered: the trefoil's table and answers all differ
        wrong = make_table({(4, 0): (2, ())}, "Z")
        monkeypatch.setattr(
            cli, "hfk_cells", lambda g, ring: PipelineReport(wrong, None, "cells")
        )
        assert main(["--braid", "1 1 1", "--mode", mode, "--crosscheck", "on"]) == 1
        err = capsys.readouterr().err
        assert "rectangle pipelines disagree" in err and "Traceback" not in err


class TestStrategyFlag:
    @pytest.mark.parametrize("strategy", ["fast", "faithful"])
    def test_removed_strategies_are_usage_errors(self, strategy, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--braid", "1 1 1", "--strategy", strategy])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err

    def test_benchmark_flag_set(self, capsys):
        argv = ["--braid", "1 1 1", "--strategy", "paths", "--skip", "none",
                "--crosscheck", "off", "--format", "machine"]
        assert main(argv) == 0
        assert "# pipeline: ovals-paths" in capsys.readouterr().out

    def test_default_run_uses_paths(self, capsys):
        assert main(["--braid", "1 1 1", "--format", "machine"]) == 0
        assert "# pipeline: ovals-paths" in capsys.readouterr().out


class TestGridFileInput:
    def test_grid_file_matches_braid(self, tmp_path):
        g = minimize(parse_braid([1, 1, 1]))
        path = tmp_path / "trefoil.grid"
        path.write_text("# comment line\n" + format_grid_text(g))
        from_file = run(RunConfig(grid_path=str(path)))
        from_braid = run(RunConfig(braid=(1, 1, 1)))
        assert from_file.table == from_braid.table
        # a zero search budget runs the grid of the file as it is
        shifted = cyclic_col_shift(g)
        path.write_text(format_grid_text(shifted))
        as_given = run(RunConfig(grid_path=str(path), simplify_budget=0))
        assert as_given.grid == shifted != g
        assert as_given.table == from_braid.table

    def test_multi_component_grid_rejected(self, tmp_path, capsys):
        path = tmp_path / "link.grid"
        path.write_text("4\nX: 1 0 3 2\nO: 0 1 2 3\n")
        code = main(["--grid", str(path)])
        assert code == 1
        assert "closed curves" in capsys.readouterr().err


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["--braid", "1"]) == 0
        out = capsys.readouterr().out
        assert "(0, 0): Z" in out

    def test_multi_component_closure(self, capsys):
        assert main(["--braid", "2"]) == 1
        assert "components" in capsys.readouterr().err

    def test_bad_mode_combination(self, capsys):
        code = main(["--braid", "1", "--mode", "torsion", "--coeff", "z2"])
        assert code == 1
        assert "integer coefficients" in capsys.readouterr().err

    def test_missing_grid_file(self, capsys):
        assert main(["--grid", "/no/such/file"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_sign_table_is_a_typed_failure(self, monkeypatch, capsys):
        # Tripling every odd-degree monomial changes the ratio of the lifts
        # along every edge (each transposition changes the parity) by 3.
        lifts = chains._spin_lifts

        def corrupt(n):
            table = lifts(n).astype(np.int64)
            odd = np.array([m.bit_count() % 2 for m in range(1 << n)], dtype=bool)
            table[:, odd] *= 3
            return table

        monkeypatch.setattr(chains, "_spin_lifts", corrupt)
        argv = ["--braid", "1 1 1", "--strategy", "paths", "--crosscheck", "on"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "power of two" in err
        assert "Traceback" not in err

    def test_spin_lift_overflow_is_a_typed_failure(self, monkeypatch, capsys):
        # 5_2 sits on a grid of size 7, whose largest lift coefficient (512)
        # does not fit int8.  The per-size tables are cached, so they are
        # built afresh with the narrow type, and dropped again afterwards.
        caches = (chains._spin_lifts, chains._gamma_action)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(chains, "_lift_dtypes", lambda n: (np.int8, np.int32))
        try:
            argv = ["--braid", "1 1 1 2 -1 2", "--crosscheck", "on", "--format", "machine"]
            assert main(argv) == 1
        finally:
            for cache in caches:
                cache.cache_clear()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lift exceeds int8" in err
        assert "Traceback" not in err

    def test_zero_homology_is_a_typed_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(
            reducer, "homology", lambda cx: HomologyResult(cx.ring, {})
        )
        assert main(["--braid", "1 1 1", "--mode", "genus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "zero homology" in err
        assert "Traceback" not in err

    def test_missing_input_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--braid", "1", "--frobnicate"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gridhfk.cli", "--braid", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "(0, 0): Z" in proc.stdout
