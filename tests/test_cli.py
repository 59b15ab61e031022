import json
import random

import pytest

from edsm import cli
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

    def test_bmm_demo_instance(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["generate", "bmm", "--paper-example", "--out", str(out)]) == 0
        instance = json.loads((tmp_path / "demo.ap.json").read_text())
        assert len(instance["blocks"]) == 4
        block11 = next(b for b in instance["blocks"] if (b["k"], b["j"]) == (1, 1))
        assert block11["strings"] == ["aba", "baaa"]
        capsys.readouterr()
        assert main(["verify", "--instance", str(out)]) == 0

    def test_bmm_random_round_trip(self, tmp_path):
        out = tmp_path / "bm"
        assert main(["generate", "bmm", "--n", "8", "--l", "4", "--seed", "3",
                     "--out", str(out)]) == 0
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


class TestBench:
    def test_csv_rows_per_size_and_algo(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "200,400", "--m", "64",
                     "--algos", "ap-fast,naive-oracle", "--seed", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,n,N,algo,seconds"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            m, n, size, algo, seconds = line.split(",")
            assert (m, n) == ("64", "1")
            assert algo in ("ap-fast", "naive-oracle")
            assert float(seconds) >= 0

    def test_ap_instance_strings_are_shorter_than_m(self):
        # Strings of length m or more extend no prefix, so a row built from
        # them would time an empty solve.
        for m in (2, 64, 129, 1024):
            inst = cli._random_ap(random.Random(m), m, 2000)
            assert inst.strings and all(len(s) < m for s in inst.strings)

    def test_paper_route_row_agrees(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "20000",
                     "--algos", "ap-fast,ap-paper,naive-oracle",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == [
            "ap-fast", "ap-paper", "naive-oracle"]

    @pytest.mark.parametrize("bad", [
        ["--algos", "ap-fsat,naive-oracle"],
        ["--m", "1"],
    ])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, bad):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "300", *bad, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_disagreement_exits_3(self, monkeypatch, capsys):
        solve_ap = cli.solve_ap

        def flip_first_bit(inst, naive_cutoff=None):
            v = solve_ap(inst, naive_cutoff)
            return cli.BitVector(v.len, v.mask ^ 1)

        monkeypatch.setattr(cli, "solve_ap", flip_first_bit)
        assert main(["bench", "--sizes", "400", "--m", "64",
                     "--algos", "naive-oracle,ap-fast"]) == 3
        assert "disagreement" in capsys.readouterr().err
