"""Tests for the repository tools under tools/; only the exit-status test
runs a README command (se-curve, well under a second)."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


readme_csvs = _load("readme_csvs")


class TestReadmeCsvsDiff:
    OLD = "# {}\nalpha,q_hat\n0.1,2.5\n0.2,9918.963876476015\n0.3,inf\n"

    def test_identical_texts_have_no_rows(self):
        assert readme_csvs.diff_rows("se.csv", self.OLD, self.OLD) == []

    def test_changed_row_shows_old_and_new(self):
        new = self.OLD.replace("9918.963876476015", "9918.963876629428")
        assert readme_csvs.diff_rows("se.csv", self.OLD, new) == [
            "se.csv:4 0.2,9918.963876476015 -> 0.2,9918.963876629428"
        ]

    def test_rows_only_one_side_has(self):
        new = self.OLD + "0.4,inf\n"
        assert readme_csvs.diff_rows("se.csv", self.OLD, new) == ["se.csv:6 - -> 0.4,inf"]
        assert readme_csvs.diff_rows("se.csv", new, self.OLD) == ["se.csv:6 0.4,inf -> -"]
        assert len(readme_csvs.diff_rows("se.csv", "", self.OLD)) == 5

    def test_readme_commands_are_found(self):
        text = "```sh\n# a comment\nquadnet se-curve --kappas 0.5 \\\n    --out se.csv\n```\n"
        assert readme_csvs.readme_commands(text) == [["se-curve", "--kappas", "0.5", "--out", "se.csv"]]


class TestReadmeCsvsDiffSummary:
    OLD = (
        '# {"config": {}}\n'
        "alpha,kappa,mmse,q_hat,status,converged\n"
        "0.1,0.5,0.25,2.5,converged,1\n"
        "0.2,0.5,0.125,9918.963876476015,converged,1\n"
        "0.3,0.5,0,inf,supercritical,0\n"
        "0.4,0.5,nan,nan,failed,0\n"
    )

    def test_identical_texts(self):
        assert readme_csvs.diff_summary("pd.csv", self.OLD, self.OLD) == "pd.csv: 0 of 4 rows changed"

    def test_largest_change_per_column_and_flips(self):
        new = (self.OLD.replace("0.125,9918.963876476015", "0.12500000125,9918.963876629428")
               .replace("0.25,2.5", "0.2500000001,2.5"))
        assert readme_csvs.diff_summary("pd.csv", self.OLD, new) == (
            "pd.csv: 2 of 4 rows changed; largest relative change "
            "mmse 1e-08 (line 4), q_hat 1.5e-11 (line 4)"
        )
        new = self.OLD.replace("0,inf,supercritical,0", "0,1000000.0,converged,1")
        assert readme_csvs.diff_summary("pd.csv", self.OLD, new) == (
            "pd.csv: 1 of 4 rows changed; largest relative change q_hat inf (line 5); "
            "flips status supercritical->converged (line 5), converged 0->1 (line 5)"
        )

    def test_descent_counts_flip(self):
        old = ('# {"config": {"alpha_t_abs": 0.45, "alpha_t_rel": null}}\n'
               "alpha,dispersion,below_abs,below_rel,final_loss,steps\n"
               "0.3,0.5,0,0,0.004,20000\n"
               "0.45,0.005,1,1,1e-09,20000\n")
        new = (old.replace("0.004,20000", "0.0040000001,19999")
               .replace("0.005,1,1", "0.0051,1,0"))
        assert readme_csvs.diff_summary("scan.csv", old, new) == (
            "scan.csv: 2 of 2 rows changed; largest relative change "
            "final_loss 2.5e-08 (line 3), dispersion 0.02 (line 4); "
            "flips steps 20000->19999 (line 3), below_rel 1->0 (line 4)"
        )

    def test_header_thresholds_change(self):
        old = '# {"config": {"alpha_t_abs": 0.45, "alpha_t_rel": null, "d": 30}}\nalpha\n0.3\n'
        new = old.replace('"alpha_t_rel": null', '"alpha_t_rel": 0.55')
        assert readme_csvs.diff_summary("scan.csv", old, new) == (
            "scan.csv: 0 of 1 rows changed; flips alpha_t_rel null->0.55 (line 1)"
        )
        assert readme_csvs.diff_summary("scan.csv", old, old.replace('"d": 30', '"d": 40')) == (
            "scan.csv: 0 of 1 rows changed"
        )
        assert readme_csvs.diff_summary("scan.csv", "", old) == (
            "scan.csv: 1 of 1 rows changed; flips alpha_t_abs null->0.45 (line 1)"
        )

    def test_rows_only_one_side_has(self):
        new = self.OLD + "0.5,0.5,0,inf,supercritical,0\n"
        assert readme_csvs.diff_summary("pd.csv", self.OLD, new) == "pd.csv: 1 of 5 rows changed"
        assert readme_csvs.diff_summary("pd.csv", "", self.OLD) == "pd.csv: 4 of 4 rows changed"


class TestReadmeCsvsLineCounts:
    def test_counts_lines_per_module(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
        (tmp_path / "pkg" / "sub" / "b.py").write_text("z = 3")  # no final newline
        (tmp_path / "pkg" / "notes.txt").write_text("not a module\n")
        assert readme_csvs.line_counts(tmp_path) == {
            "pkg.__init__": 0, "pkg.a": 3, "pkg.sub.b": 1,
        }


class TestReadmeCsvsLineDelta:
    def test_delta_per_module_and_total(self):
        old = {"pkg.a": 10, "pkg.b": 5, "pkg.gone": 3}
        new = {"pkg.a": 7, "pkg.b": 5, "pkg.new": 2}
        assert readme_csvs.line_delta(old, new) == [
            "src lines pkg.a 10 -> 7 (-3)",
            "src lines pkg.b 5 -> 5 (+0)",
            "src lines pkg.gone 3 -> 0 (-3)",
            "src lines pkg.new 0 -> 2 (+2)",
            "src lines total 18 -> 14 (-4)",
        ]


class TestReadmeCsvsExitStatus:
    def test_diff_exits_one_when_a_csv_differs(self, tmp_path, capsys):
        saved = tmp_path / "before"
        assert readme_csvs.main(["--save", str(saved), "se-curve"]) == 0
        assert readme_csvs.main(["--diff", str(saved), "se-curve"]) == 0
        capsys.readouterr()
        csv, = saved.glob("*.csv")
        lines = csv.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(",", ",9", 1)
        csv.write_text("".join(lines))
        assert readme_csvs.main(["--diff", str(saved), "se-curve"]) == 1
        assert f"{csv.name}: 1 of " in capsys.readouterr().out
        csv.unlink()
        assert readme_csvs.main(["--diff", str(saved), "se-curve"]) == 1
