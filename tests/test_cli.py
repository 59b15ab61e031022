import json

import pytest

from edsm.cli import main

EXAMPLE_TEXT = "ATGTA{A,T}C{G,T}CG{TA,TATA,}{TATGC,TTTTA}"


@pytest.fixture
def example_files(tmp_path):
    eds = tmp_path / "ex.eds"
    eds.write_text(EXAMPLE_TEXT + "\n")
    pat = tmp_path / "pat.txt"
    pat.write_text("GTAT\n")
    return pat, eds


class TestSearch:
    def test_text_output_and_exit_code(self, example_files, capsys):
        pat, eds = example_files
        assert main(["search", "-p", "GTAT", "-t", str(eds)]) == 0
        assert capsys.readouterr().out == "2\n6\n7\n"

    def test_pattern_from_file(self, example_files, capsys):
        pat, eds = example_files
        assert main(["search", "-p", f"@{pat}", "-t", str(eds)]) == 0
        assert capsys.readouterr().out == "2\n6\n7\n"

    def test_json_schema(self, example_files, capsys):
        _, eds = example_files
        assert main(["search", "-p", "GTAT", "-t", str(eds), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "pattern_length": 4,
            "segments": 7,
            "size": 28,
            "matches": [2, 6, 7],
        }

    def test_no_match_exits_1(self, tmp_path, capsys):
        eds = tmp_path / "t.eds"
        eds.write_text("AAAA")
        assert main(["search", "-p", "GT", "-t", str(eds)]) == 1
        assert capsys.readouterr().out == ""

    def test_parse_error_exits_2_with_offset(self, tmp_path, capsys):
        eds = tmp_path / "bad.eds"
        eds.write_text("{AC,A")
        assert main(["search", "-p", "A", "-t", str(eds)]) == 2
        assert "byte offset" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["search", "-p", "A", "-t", str(tmp_path / "nope.eds")]) == 2

    def test_oracle_algo_agrees(self, example_files, capsys):
        _, eds = example_files
        assert main(["search", "-p", "GTAT", "-t", str(eds),
                     "--algo", "naive-oracle"]) == 0
        assert capsys.readouterr().out == "2\n6\n7\n"

    def test_oracle_budget_exits_2(self, example_files, capsys, monkeypatch):
        _, eds = example_files
        monkeypatch.setenv("EDSM_ORACLE_BUDGET", "5")
        assert main(["search", "-p", "GTAT", "-t", str(eds),
                     "--algo", "naive-oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: oracle budget 5 exceeded")


class TestGenerateVerify:
    def test_td_round_trip(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert main(["generate", "td", "--n", "4", "--s", "2", "--plant",
                     "--seed", "7", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "inst.json").read_text())
        assert sidecar["kind"] == "td" and sidecar["triangle"] is True
        capsys.readouterr()
        assert main(["verify", "--instance", str(out)]) == 0

    def test_td_requires_size(self, tmp_path):
        assert main(["generate", "td", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flags", [
        ["td", "--n", "4", "--density", "2"],
        ["td", "--n", "4", "--density", "-0.5"],
        ["bmm", "--n", "4", "--l", "2", "--density", "nan"],
        ["td", "--n", "6", "--paper-example"],
        ["td", "--n", "4", "--l", "2"],
        ["bmm", "--n", "4", "--l", "2", "--plant"],
        ["bmm", "--paper-example", "--s", "3"],
        ["bmm", "--paper-example", "--density", "0.9"],
        ["bmm", "--paper-example", "--seed", "5"],
        ["bmm", "--paper-example", "--density", "0.2", "--seed", "0"],
    ])
    def test_bad_flags_exit_2_before_writing(self, tmp_path, capsys, flags):
        assert main(["generate", *flags, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bmm_demo_instance(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["generate", "bmm", "--paper-example", "--out", str(out)]) == 0
        instance = json.loads((tmp_path / "demo.ap.json").read_text())
        assert len(instance["blocks"]) == 4
        block11 = next(b for b in instance["blocks"] if (b["k"], b["j"]) == (1, 1))
        assert block11["strings"] == ["aba", "baaa"]
        # The demo matrices are fixed, so the sidecar names no seed.
        assert "seed" not in json.loads((tmp_path / "demo.json").read_text())
        capsys.readouterr()
        assert main(["verify", "--instance", str(out)]) == 0

    def test_bmm_random_round_trip(self, tmp_path):
        out = tmp_path / "bm"
        assert main(["generate", "bmm", "--n", "8", "--l", "4", "--seed", "3",
                     "--out", str(out)]) == 0
        assert json.loads((tmp_path / "bm.json").read_text())["seed"] == 3
        assert main(["verify", "--instance", str(out)]) == 0

    def test_corrupt_sidecar_exits_3(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(["generate", "td", "--n", "4", "--s", "2", "--seed", "1",
              "--out", str(out)])
        sidecar_path = tmp_path / "inst.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["triangle"] = not sidecar["triangle"]
        sidecar_path.write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert main(["verify", "--instance", str(out)]) == 3
        assert "disagreement" in capsys.readouterr().err

    def test_empty_sidecar_matrix_exits_3(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(["generate", "td", "--n", "4", "--s", "2", "--seed", "1",
              "--out", str(out)])
        sidecar_path = tmp_path / "inst.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["a"] = []
        sidecar_path.write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert main(["verify", "--instance", str(out)]) == 3
        assert "disagreement" in capsys.readouterr().err

    def test_non_boolean_sidecar_cells_exit_3(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(["generate", "td", "--n", "4", "--s", "2", "--seed", "1",
              "--out", str(out)])
        sidecar_path = tmp_path / "inst.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["a"] = [["x"] * len(row) for row in sidecar["a"]]
        sidecar_path.write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert main(["verify", "--instance", str(out)]) == 3
        assert "disagreement" in capsys.readouterr().err

    def test_unreadable_sidecar_exits_3(self, tmp_path):
        bad = tmp_path / "broken"
        (tmp_path / "broken.json").write_text("{not json")
        assert main(["verify", "--instance", str(bad)]) == 3

    def test_seeded_generation_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["generate", "td", "--n", "4", "--s", "2", "--seed", "9",
                  "--out", str(out)])
        for ext in (".pattern.txt", ".eds", ".json"):
            ta = (tmp_path / ("a" + ext)).read_bytes()
            tb = (tmp_path / ("b" + ext)).read_bytes()
            # Sidecars embed no path, so all three artifacts must agree.
            assert ta == tb


class TestSubcommands:
    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_help_lists_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{search,generate,verify}" in capsys.readouterr().out.split()
