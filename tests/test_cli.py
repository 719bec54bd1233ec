import json

from metacode.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_field_show_modulus(capsys):
    rc, out, _ = run(capsys, "field", "--p", "3", "--e", "2", "--show-modulus")
    assert rc == 0
    assert out.strip() == "1 0 1"


def test_field_rejects_nonprime(capsys):
    rc, _, err = run(capsys, "field", "--p", "6")
    assert rc == 1 and "prime" in err


def test_group_info(tmp_path, capsys):
    spec = tmp_path / "d14.json"
    spec.write_text(json.dumps({"N": 7, "M": 2, "r": 6, "s": 0, "name": "D14"}))
    rc, out, _ = run(capsys, "group", "info", "--spec", str(spec))
    info = json.loads(out)
    assert rc == 0
    assert info["order"] == 14 and info["center_order"] == 1


def test_group_info_named(capsys):
    rc, out, _ = run(capsys, "group", "info", "--spec", "Q:16")
    assert rc == 0
    assert json.loads(out)["order"] == 16


def test_invalid_presentation_is_rejected(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"N": 4, "M": 2, "r": 2, "s": 0}))
    rc, _, err = run(capsys, "group", "info", "--spec", str(spec))
    assert rc == 1 and "r=2" in err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_ssp_list_verify(capsys):
    rc, out, _ = run(capsys, "ssp", "list", "--spec", "D:16", "--verify")
    rows = json.loads(out)
    assert rc == 0 and len(rows) == 6
    assert all(r["verified"] is True for r in rows)


def test_pci_list_json(capsys):
    rc, out, _ = run(capsys, "pci", "list", "--spec", "D:16", "--q", "3", "--json")
    rows = json.loads(out)
    assert rc == 0 and len(rows) == 6
    # sparse serialisation lines are "i j coeff"
    first = rows[0]["coeffs"][0].split()
    assert len(first) == 3


def test_unit_command(capsys):
    rc, out, _ = run(
        capsys, "unit", "--kind", "alt", "--spec",
        '{"N": 13, "M": 3, "r": 9}', "--q", "2", "--k", "3",
    )
    # inline JSON is not a path; named specs only, so this must fail cleanly
    assert rc == 1


def test_unit_command_named(tmp_path, capsys):
    spec = tmp_path / "g39.json"
    spec.write_text(json.dumps({"N": 13, "M": 3, "r": 9}))
    rc, out, _ = run(capsys, "unit", "--kind", "alt", "--spec", str(spec),
                     "--q", "2", "--k", "3")
    assert rc == 0 and "True" in out


def test_code_build_and_genmat(tmp_path, capsys):
    spec = tmp_path / "g39.json"
    spec.write_text(json.dumps({"N": 13, "M": 3, "r": 9}))
    rc, out, _ = run(capsys, "code", "build", "--spec", str(spec), "--q", "2",
                     "--pci", "2", "--beta", "1")
    res = json.loads(out)
    assert rc == 0
    assert (res["n"], res["k"], res["d_lo"], res["d_hi"]) == (39, 12, 6, 6)
    out_path = tmp_path / "genmat.txt"
    rc, _, _ = run(capsys, "code", "genmat", "--spec", str(spec), "--q", "2",
                   "--pci", "2", "--beta", "1", "--out", str(out_path))
    assert rc == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "2 39 12"
    # genmat computes no distance, so it takes no distance options
    rc, _, err = run(capsys, "code", "genmat", "--spec", str(spec), "--q", "2",
                     "--pci", "2", "--budget", "5")
    assert rc == 1 and "unrecognized arguments: --budget" in err


def test_budget_floor(tmp_path, capsys):
    spec = tmp_path / "g39.json"
    spec.write_text(json.dumps({"N": 13, "M": 3, "r": 9}))
    rc, _, err = run(capsys, "code", "build", "--spec", str(spec), "--q", "2",
                     "--pci", "0", "--budget", "10")
    assert rc == 1 and "budget" in err


def test_algebra_commands(capsys):
    rc, out, _ = run(capsys, "algebra", "wedderburn", "--spec", "D:16", "--q", "3")
    rep = json.loads(out)
    assert rc == 0 and rep["total_dim"] == 16
    rc, out, _ = run(capsys, "algebra", "isocheck", "--spec1", "D:16",
                     "--spec2", "SD:16", "--q", "7")
    assert rc == 0 and json.loads(out)["isomorphic"] is False


def test_verify_examples_subset(capsys):
    rc, out, _ = run(capsys, "verify", "examples", "--only", "f2-g39-left")
    assert rc == 0
    assert "PASS" in out and "[39, 12, 6]" in out


def test_verify_examples_deterministic(capsys):
    runs = []
    for _ in range(2):
        rc, out, _ = run(capsys, "verify", "examples", "--only", "f3-g20")
        assert rc == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_json_outputs_validate_against_schema(tmp_path, capsys):
    import jsonschema
    from importlib import resources

    schema = json.loads(
        resources.files("metacode").joinpath("data/output.schema.json").read_text()
    )
    spec = tmp_path / "g39.json"
    spec.write_text(json.dumps({"N": 13, "M": 3, "r": 9, "name": "G39"}))
    outputs = []
    for argv in (
        ["group", "info", "--spec", str(spec)],
        ["ssp", "list", "--spec", "D:16", "--verify"],
        ["pci", "list", "--spec", "D:16", "--q", "3", "--json"],
        ["code", "build", "--spec", str(spec), "--q", "2", "--pci", "2", "--beta", "1"],
        ["algebra", "wedderburn", "--spec", "D:16", "--q", "3"],
        ["algebra", "isocheck", "--spec1", "D:16", "--spec2", "SD:16", "--q", "7"],
    ):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0, argv
        outputs.append(json.loads(out))
    for doc in outputs:
        jsonschema.validate(doc, schema)
