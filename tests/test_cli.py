import json

import pytest

from simplicial_tc.cli import main

BOUNDARY = "a b\nb c\na c\n"
CONE = "a b x\nb c x\na c x\n"
TWO_POINTS = "a\nb\n"


@pytest.fixture
def boundary_file(tmp_path):
    p = tmp_path / "boundary.txt"
    p.write_text(BOUNDARY)
    return str(p)


class TestTcCommand:
    def test_exact_output_and_exit(self, boundary_file, capsys):
        code = main(["tc", boundary_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "TC = 2 (exact)" in out
        assert "cover (3 admissible subcomplexes)" in out

    def test_json_output(self, boundary_file, capsys):
        code = main(["tc", boundary_file, "--json"])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["kind"] == "tc"
        assert cert["value"] == 2
        assert cert["status"] == "exact"

    def test_json_deterministic(self, boundary_file, capsys):
        main(["tc", boundary_file, "--json"])
        a = capsys.readouterr().out
        main(["tc", boundary_file, "--json"])
        b = capsys.readouterr().out
        assert a == b

    def test_not_coverable_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "two.txt"
        p.write_text(TWO_POINTS)
        code = main(["tc", str(p)])
        out = capsys.readouterr().out
        assert code == 0
        assert "not coverable" in out

    def test_collapsible_zero(self, tmp_path, capsys):
        p = tmp_path / "cone.txt"
        p.write_text(CONE)
        assert main(["tc", str(p)]) == 0
        assert "TC = 0 (exact)" in capsys.readouterr().out


class TestScatCommand:
    def test_boundary(self, boundary_file, capsys):
        code = main(["scat", boundary_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "scat = 1 (exact)" in out

    def test_budget_exhaustion_exit_two(self, tmp_path, capsys):
        # scat of the 9-facet square genuinely needs searches; budget 1 starves them
        import simplicial_tc as stc

        K = stc.parse_complex(BOUNDARY)
        P = stc.categorical_square(K)
        # pair labels are outputs, not inputs, so rebuild an isomorphic copy
        relabeled = [
            [lab.replace("|", "_") for lab in facet]
            for facet in P.product.facet_label_sets()
        ]
        p = tmp_path / "square.txt"
        p.write_text("\n".join(" ".join(f) for f in relabeled) + "\n")
        code = main(["scat", str(p), "--budget", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "budget-exhausted" in out


class TestCoreCommand:
    def test_collapse_sequence_printed(self, tmp_path, capsys):
        p = tmp_path / "simplex.txt"
        p.write_text("a b c d\n")
        code = main(["core", str(p)])
        out = capsys.readouterr().out
        assert code == 0
        assert "core: 1 vertex(es)" in out
        assert out.count("delete") == 3

    def test_minimal_complex(self, boundary_file, capsys):
        main(["core", boundary_file])
        assert "its own core" in capsys.readouterr().out


class TestProductCommand:
    def test_text_output(self, boundary_file, capsys):
        code = main(["product", boundary_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "a|a a|b b|a b|b" in out
        assert len(out.strip().splitlines()) == 9

    def test_json_output(self, boundary_file, capsys):
        main(["product", boundary_file, "--json"])
        data = json.loads(capsys.readouterr().out)
        assert len(data["facets"]) == 9


class TestMembershipCommands:
    def test_is_farber_yes(self, boundary_file, capsys):
        code = main(["is-farber", boundary_file, "--omega", "a|a a|b b|a b|b"])
        out = capsys.readouterr().out
        assert code == 0
        assert "farber: yes" in out

    def test_is_farber_no(self, boundary_file, capsys):
        omega = ";".join(
            " ".join(f"{u}|{v}" for u in e1 for v in e2)
            for e1 in ("ab", "bc", "ac")
            for e2 in ("ab", "bc", "ac")
        )
        code = main(["is-farber", boundary_file, "--omega", omega])
        assert code == 0
        assert "farber: no" in capsys.readouterr().out

    def test_is_categorical(self, boundary_file, capsys):
        code = main(["is-categorical", boundary_file, "--sub", "a b; b c"])
        assert code == 0
        assert "categorical: yes" in capsys.readouterr().out

    def test_bad_omega_label_errors(self, boundary_file, capsys):
        code = main(["is-farber", boundary_file, "--omega", "a|z"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_verdict_exit_two(self, tmp_path, capsys):
        # a minimal square complex forces a real search; budget 1 starves it
        import simplicial_tc as stc

        K = stc.parse_complex(BOUNDARY)
        P = stc.categorical_square(K)
        relabeled = [
            [lab.replace("|", "_") for lab in facet]
            for facet in P.product.facet_label_sets()
        ]
        p = tmp_path / "square.txt"
        p.write_text("\n".join(" ".join(f) for f in relabeled) + "\n")
        sub = ";".join(" ".join(f) for f in relabeled[:3])
        code = main(["is-categorical", str(p), "--sub", sub, "--budget", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "categorical: unknown" in out


class TestPlanCommand:
    def test_plan_output(self, boundary_file, capsys):
        code = main(["plan", boundary_file, "--from", "a", "--to", "c"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("path: a")
        assert out.splitlines()[0].endswith("c")

    def test_plan_unknown_vertex(self, boundary_file, capsys):
        assert main(["plan", boundary_file, "--from", "a", "--to", "z"]) == 1


class TestVerifyCommand:
    def test_round_trip(self, boundary_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["tc", boundary_file, "-o", str(cert_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cert_path)]) == 0
        assert "certificate OK" in capsys.readouterr().out

    def test_mutated_certificate_rejected(self, boundary_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["tc", boundary_file, "-o", str(cert_path)])
        cert = json.loads(cert_path.read_text())
        step = cert["cover"][0]["witness"][0]
        step[0] = next(lab for lab in cert["cover"][0]["vertices"] if lab != step[0])
        cert_path.write_text(json.dumps(cert))
        capsys.readouterr()
        assert main(["verify", str(cert_path)]) == 1
        assert "REJECTED" in capsys.readouterr().err

    def test_non_json_input_rejected(self, boundary_file, capsys):
        assert main(["verify", boundary_file]) == 1
        assert "certificate REJECTED: malformed JSON" in capsys.readouterr().err

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200000 + "]" * 200000)
        assert main(["verify", str(p)]) == 1
        err = capsys.readouterr().err
        assert "certificate REJECTED: malformed JSON" in err
        assert "Traceback" not in err

    def test_inconsistent_membership_verdict_rejected(self, boundary_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["is-categorical", boundary_file, "--sub", "a b", "-o", str(cert_path)]) == 0
        cert = json.loads(cert_path.read_text())
        for verdict in ("maybe", "no"):
            cert_path.write_text(json.dumps({**cert, "verdict": verdict}))
            capsys.readouterr()
            assert main(["verify", str(cert_path)]) == 1
            assert "certificate REJECTED" in capsys.readouterr().err

    def test_recompute_flag(self, boundary_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["scat", boundary_file, "-o", str(cert_path)])
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--recompute"]) == 0


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["tc", "/nonexistent/thing.txt"]) == 1

    @pytest.mark.parametrize("verb", ["tc", "verify"])
    def test_directory_is_a_clean_error(self, verb, tmp_path, capsys):
        assert main([verb, str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["tc", "verify"])
    def test_non_utf8_file_is_a_clean_error(self, verb, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes("a b\nb c\n\xe9 a\n".encode("latin-1"))
        assert main([verb, str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "codec can't decode" in err

    def test_deeply_nested_json_complex_is_a_clean_error(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text('{"facets": ' + "[" * 200000 + "]" * 200000 + "}")
        assert main(["tc", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "nested too deeply" in err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("a b\nc d|e\n")
        assert main(["tc", str(p)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["tc", "scat"])
    def test_budget_must_be_positive(self, verb, boundary_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main([verb, boundary_file, "--budget", "0", "-o", str(cert_path)]) == 1
        assert "budget must be a positive integer" in capsys.readouterr().err
        assert not cert_path.exists()
