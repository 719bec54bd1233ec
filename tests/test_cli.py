import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metacode import cli, groups as gr, idem as id_
from metacode.cli import UsageError, _unit_spec, main
from helpers import sum_idempotents


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


@pytest.mark.parametrize("e", ["0", "-1"])
def test_field_rejects_a_degree_below_one(capsys, e):
    rc, out, err = run(capsys, "field", "--p", "2", "--e", e)
    assert rc == 1 and out == "" and err == f"error: extension degree must be >= 1, got {e}\n"


def test_closed_stdout_is_no_traceback():
    # a reader that is gone before the child writes, as `| head` is once it
    # has read its lines: the write fails with EPIPE, and the command exits 1
    # without a traceback from its print or from the interpreter's exit flush
    src = str(Path(id_.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "metacode.cli", "algebra", "wedderburn", "--spec", "D:16", "--q", "3"],
            env=dict(os.environ, PYTHONPATH=src), stdout=write, stderr=subprocess.PIPE, text=True,
            timeout=60,
        )
    finally:
        os.close(write)
    assert out.returncode == 1 and "Traceback" not in out.stderr, out.stderr


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


def test_ssp_list_takes_a_product_whose_factors_share_a_prime(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"product": [{"N": 7, "M": 3, "r": 2}, {"N": 7, "M": 3, "r": 2}]}))
    rc, out, _ = run(capsys, "ssp", "list", "--spec", str(path), "--verify")
    rows = json.loads(out)
    assert rc == 0 and len(rows) == 11 and all(r["verified"] is True for r in rows)


def test_unreadable_spec_file_is_an_error(tmp_path, capsys):
    rc, out, err = run(capsys, "group", "info", "--spec", str(tmp_path))
    assert rc == 1 and out == "" and err.startswith(f"error: {tmp_path}: cannot read")


@pytest.mark.parametrize("spec", [{"N": 2, "M": 2, "r": 1, "s": 0}, {"N": 9, "M": 3, "r": 4, "s": 3}])
def test_ssp_list_and_wedderburn_take_any_presentation(tmp_path, capsys, spec):
    # C2 x C2 and a non-split group of order 27, outside every hand table
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, "ssp", "list", "--spec", str(path), "--verify")
    rows = json.loads(out)
    assert rc == 0 and rows and all(r["verified"] is True for r in rows)
    rc, out, _ = run(capsys, "algebra", "wedderburn", "--spec", str(path), "--q", "5")
    rep = json.loads(out)
    dims = sum(c["matrix_size"] ** 2 * c["field_degree"] * c["multiplicity"] for c in rep["components"])
    assert rc == 0 and dims == rep["total_dim"] == spec["N"] * spec["M"]


def test_pci_list_json(capsys):
    rc, out, _ = run(capsys, "pci", "list", "--spec", "D:16", "--q", "3", "--json")
    rows = json.loads(out)
    assert rc == 0 and len(rows) == 6
    # sparse serialisation lines are "i j coeff"
    first = rows[0]["coeffs"][0].split()
    assert len(first) == 3


def test_pci_list_at_a_large_prime_q_finishes():
    # over GF(1000003), q = 3 mod 8, GF(q^2) is GF(q)[y]/(y^2 + 1) and every
    # c y in the first block of xi_8's counter order has the square norm c^2:
    # taking that block one power per c did not finish in 25 s.  Run in a
    # child so that a hang fails at the bound.
    q = 1_000_003
    src = str(Path(id_.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "metacode.cli", "pci", "list", "--spec", "D:8", "--q", str(q), "--json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
    )
    assert out.returncode == 0, out.stderr
    rows = json.loads(out.stdout)
    alg = id_.GroupAlgebra(gr.group_from_spec("D:8"), q)
    idems = id_.pcis_for_group(alg)
    assert [(r["pair"], r["k"]) for r in rows] == [(e.pair.label(), e.k) for e in idems]
    assert all(e.value.is_idempotent() for e in idems)
    assert all((e.value * f.value).weight() == 0 for i, e in enumerate(idems) for f in idems[i + 1:])
    assert sum_idempotents(alg, idems) == alg.one()


def test_code_build_of_the_binary_qr_code_of_c71_finishes():
    # the [71, 35] code of C71 over GF(2) is past the exact route's budget,
    # so its d_lo comes from Brouwer-Zimmermann rounds 1..4 on the pivot set
    # (at most C(35, 4) messages a round), where the parity-check search it
    # replaced took about a minute over all C(71, 4) supports.  Its d_hi
    # rounds stop before round 6 at the group bound ceil(71 * 6 / 35) = 13
    # >= 12: about 0.5 s in all on a 2-core Xeon, where rounds 6 and 7 took
    # 3.4 s more.  Run in a child so that a hang fails at the bound
    src = str(Path(id_.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "metacode.cli", "code", "build", "--spec", "C:71", "--q", "2", "--pci", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert (got["n"], got["k"], got["d_lo"], got["d_hi"], got["witness_weight"]) == (71, 35, 5, 12, 12)


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


def test_unit_errors_reach_the_error_path(capsys):
    # alternating units need characteristic 2; 2^2 != 1 mod 7 for a Bass unit
    rc, _, err = run(capsys, "code", "build", "--spec", "D:14", "--q", "3", "--pci", "1",
                     "--unit", "alt:3")
    assert rc == 1 and err.startswith("error: ") and "characteristic 2" in err
    rc, _, err = run(capsys, "unit", "--kind", "bass", "--spec", "D:14", "--q", "3", "--k", "2")
    assert rc == 1 and err.startswith("error: ") and "!= 1 mod 7" in err
    # units, --beta and --left need the generators a, b of a metacyclic spec
    for kind in ("alt", "bass", "bicyclic", "constructed"):
        rc, _, err = run(capsys, "unit", "--kind", kind, "--spec", "C2xQ8", "--q", "3")
        assert rc == 1 and err.startswith("error: ") and "metacyclic --spec" in err, kind
    for extra in (["--unit", "alt:3"], ["--beta", "1"], ["--left"]):
        rc, _, err = run(capsys, "code", "build", "--spec", "C2xQ8", "--q", "3", "--pci", "1", *extra)
        assert rc == 1 and err.startswith("error: ") and "metacyclic --spec" in err, extra
    rc, out, err = run(capsys, "pci", "list", "--spec", "C2xQ8", "--q", "3", "--left")
    assert rc == 1 and out == "" and err.startswith("error: ") and "metacyclic --spec" in err
    # a constructed unit takes its corner from a pair with H != G
    rc, _, err = run(capsys, "unit", "--kind", "constructed", "--spec", "C:5", "--q", "2")
    assert rc == 1 and err.startswith("error: ") and "H != G" in err


@pytest.mark.parametrize("spec", ["bass", "constructed:1", "alt:", "alt:x", "bass:1:2:3",
                                  "bicyclic:1:0"])
def test_malformed_unit_spec_is_a_usage_error(capsys, spec):
    with pytest.raises(UsageError, match=r"kind:int\[:int\]"):
        _unit_spec(spec)
    rc, _, err = run(capsys, "code", "build", "--spec", "D:14", "--q", "3", "--pci", "1",
                     "--unit", spec)
    assert rc == 1 and "expected kind:int[:int]" in err


def test_bicyclic_units_on_the_command_line(capsys):
    # the default bicyclic unit is b(a, b~); b(b, a~) is 1, as <a> is normal
    rc, out, _ = run(capsys, "unit", "--kind", "bicyclic", "--spec", "D:14", "--q", "5")
    assert rc == 0 and out.startswith("bicyclic unit: wt(u) = 5,") and "True" in out
    rc, out, _ = run(capsys, "code", "build", "--spec", "D:14", "--q", "3", "--pci", "2",
                     "--beta", "1", "--unit", "bicyclic:1:0:0:1")
    res = json.loads(out)
    assert rc == 0 and [res["n"], res["k"], res["d_lo"], res["d_hi"]] == [14, 6, 4, 4]


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


def test_budget_floor(tmp_path, capsys, monkeypatch):
    # a budget below the floor is refused before any code is built
    spec = tmp_path / "g39.json"
    spec.write_text(json.dumps({"N": 13, "M": 3, "r": 9}))
    built = []
    monkeypatch.setattr(cli, "_build_code", built.append)
    rc, _, err = run(capsys, "code", "build", "--spec", str(spec), "--q", "2",
                     "--pci", "0", "--budget", "10")
    assert rc == 1 and "budget" in err and not built


def test_algebra_commands(capsys):
    rc, out, _ = run(capsys, "algebra", "wedderburn", "--spec", "D:16", "--q", "3")
    rep = json.loads(out)
    assert rc == 0 and rep["total_dim"] == 16
    rc, out, _ = run(capsys, "algebra", "isocheck", "--spec1", "D:16",
                     "--spec2", "SD:16", "--q", "7")
    assert rc == 0 and json.loads(out)["isomorphic"] is False


@pytest.mark.parametrize("q", ["15", "1", "-1"])
def test_algebra_commands_refuse_a_q_that_is_no_prime_power(capsys, q):
    # coprime to |D14| = 14, but GF(q) does not exist
    for argv in (("wedderburn", "--spec", "D:14"), ("isocheck", "--spec1", "D:14", "--spec2", "C:14")):
        rc, out, err = run(capsys, "algebra", *argv, "--q", q)
        assert rc == 1 and out == "" and err == f"error: q={q} is not a prime power\n", argv


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
