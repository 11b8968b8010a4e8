"""Container round trips and the command-line surface (determinism, exit codes)."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsmat import ContainerError, GSClassSpec, GSMatrix, load_container, save_container
from gsmat.blockdiag import BlockDiagonal
from gsmat.chain import GSChain
from gsmat.cli import EXIT_IO, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main
from gsmat.perm import Permutation, identity_perm

from oracles import random_member, random_perm, random_spec


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------- container


def _objects_of_each_kind(rng):
    spec = random_spec(rng)
    gsm = random_member(spec, rng)
    chain = GSChain(
        (
            (BlockDiagonal(tuple(rng.standard_normal((2, 2)) for _ in range(3))), identity_perm(6)),
            (BlockDiagonal(tuple(rng.standard_normal((3, 3)) for _ in range(2))), random_perm(6, rng)),
        ),
        random_perm(6, rng),
    )
    return {
        "dense": rng.standard_normal((5, 7)),
        "perm": random_perm(9, rng),
        "blockdiag": BlockDiagonal(tuple(rng.standard_normal((2, 3)) for _ in range(4))),
        "gs": gsm,
        "chain": chain,
    }


def test_container_roundtrip_all_kinds(tmp_path):
    for name, obj in _objects_of_each_kind(np.random.default_rng(0)).items():
        p1 = str(tmp_path / f"{name}_1.gsm")
        p2 = str(tmp_path / f"{name}_2.gsm")
        save_container(obj, p1)
        loaded = load_container(p1)
        save_container(loaded, p2)
        # Save -> load -> save is bit-identical.
        assert _sha(p1) == _sha(p2), name
        # A GSMatrix is also a GSChain, and must still be saved and loaded as kind "gs".
        data = Path(p1).read_bytes()
        header = json.loads(data[8 : 8 + int.from_bytes(data[4:8], "little")])
        assert header["kind"] == {"perm": "permutation"}.get(name, name)
        assert type(loaded) is type(obj), name
        if isinstance(obj, np.ndarray):
            np.testing.assert_array_equal(loaded, obj)
        elif isinstance(obj, Permutation):
            np.testing.assert_array_equal(loaded.sigma, obj.sigma)
        else:
            np.testing.assert_array_equal(loaded.as_dense(), obj.as_dense())


def test_container_layout_starts_with_magic_and_header(tmp_path):
    path = str(tmp_path / "x.gsm")
    save_container(np.zeros((2, 2)), path)
    with open(path, "rb") as fh:
        data = fh.read()
    assert data[:4] == b"GSM1"
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8 : 8 + hlen])
    assert header["format"] == "GSM1"
    assert header["kind"] == "dense"
    assert header["dtype"] == "f64le"
    assert len(data) == 8 + hlen + 4 * 8


def test_container_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.gsm"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ContainerError, match="magic"):
        load_container(str(bad))
    trunc = tmp_path / "trunc.gsm"
    save_container(np.ones((4, 4)), str(trunc))
    trunc.write_bytes(trunc.read_bytes()[:-8])
    with pytest.raises(ContainerError, match="truncated"):
        load_container(str(trunc))
    with pytest.raises(ContainerError):
        load_container(str(tmp_path / "missing.gsm"))


def _gsm1(header, payload=b"", header_overrun=0):
    raw = json.dumps({"format": "GSM1", "dtype": "f64le", **header}).encode()
    return b"GSM1" + (len(raw) + header_overrun).to_bytes(4, "little") + raw + payload


def _dense_bytes(n):
    return np.arange(n, dtype="<f8").tobytes()


MALFORMED_CONTAINERS = {
    "six-bytes": b"GSM1\x10\x00",
    "header-past-eof": _gsm1({"kind": "permutation", "shape": [1, 1], "sigma": [0]}, header_overrun=1),
    "list-header": b"GSM1\x02\x00\x00\x00[]",
    "fractional-shape": _gsm1({"kind": "dense", "shape": [1.5, 2]}, _dense_bytes(3)),
    "negative-shape": _gsm1({"kind": "dense", "shape": [-1, 2]}),
    "string-shape": _gsm1({"kind": "dense", "shape": "ab"}),
    "trailing-bytes": _gsm1({"kind": "dense", "shape": [2, 2]}, _dense_bytes(5)),
    "perm-with-payload": _gsm1({"kind": "permutation", "shape": [2, 2], "sigma": [1, 0]}, _dense_bytes(1)),
    "fractional-sigma": _gsm1({"kind": "permutation", "shape": [2, 2], "sigma": [0.5, 1]}),
    "blockdiag-shape-mismatch": _gsm1(
        {"kind": "blockdiag", "shape": [5, 5], "block_shapes": [[1, 1]]}, _dense_bytes(1)
    ),
    "blockdiag-ragged": _gsm1(
        {"kind": "blockdiag", "shape": [3, 3], "block_shapes": [[1, 1], [2, 2]]}, _dense_bytes(5)
    ),
    "chain-factor-not-object": _gsm1({"kind": "chain", "shape": [1, 1], "factors": [3], "p_out": [0]}),
    "gs-spec-perm-n": _gsm1(
        {
            "kind": "gs",
            "shape": [1, 1],
            "spec": {
                **dict.fromkeys(["k_L", "b_L1", "b_L2", "k_R", "b_R1", "b_R2"], 1),
                **{k: {"n": 99 if k == "P" else 1, "sigma": [0]} for k in ("P_L", "P", "P_R")},
            },
        },
        _dense_bytes(2),
    ),
}


@pytest.mark.parametrize("blob", MALFORMED_CONTAINERS.values(), ids=MALFORMED_CONTAINERS.keys())
def test_container_rejects_malformed(capsys, tmp_path, blob):
    bad = tmp_path / "bad.gsm"
    bad.write_bytes(blob)
    with pytest.raises(ContainerError):
        load_container(str(bad))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(GSClassSpec.make(1, 2, 1, 1, 1, 2).to_json())
    code, _, err = _run(
        capsys, ["project", "--input", str(bad), "--spec", str(spec_path), "--output", str(tmp_path / "o.gsm")]
    )
    assert code == EXIT_IO and "error" in err


def _valid_container_bytes():
    with tempfile.TemporaryDirectory() as d:
        out = []
        for name, obj in _objects_of_each_kind(np.random.default_rng(1)).items():
            save_container(obj, f"{d}/{name}.gsm")
            out.append(Path(f"{d}/{name}.gsm").read_bytes())
        return out


_VALID_CONTAINERS = _valid_container_bytes()


@st.composite
def _container_inputs(draw):
    valid = draw(st.sampled_from(_VALID_CONTAINERS))
    pos = draw(st.integers(0, len(valid) - 1))
    return draw(
        st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=64).map(lambda tail: b"GSM1" + tail),
            st.just(valid[:pos]),
            st.binary(min_size=1, max_size=16).map(lambda tail: valid + tail),
            st.integers(0, 255).map(lambda byte: valid[:pos] + bytes([byte]) + valid[pos + 1 :]),
        )
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_container_inputs())
def test_load_container_yields_object_or_container_error(blob):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.gsm"
        path.write_bytes(blob)
        try:
            obj = load_container(str(path))
        except ContainerError:
            return
    assert isinstance(obj, (np.ndarray, Permutation, BlockDiagonal, GSMatrix, GSChain))


# ---------------------------------------------------------------------- CLI


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_and_count_reports(capsys):
    code, out, _ = _run(capsys, ["density", "--b", "2", "--r", "8", "--m", "4"])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["dense"] is True and rep["min_m"] == 4 and rep["butterfly_m"] == 4

    code, out, _ = _run(capsys, ["count", "--b", "32", "--r", "32", "--m", "2"])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["params"] == 65536 and rep["butterfly_params"] == 196608


def test_cli_determinism_under_seed(capsys, monkeypatch):
    argv = ["demo-conv", "--channels", "4", "--groups", "2", "--terms", "8", "--size", "3", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    # GS_SEED provides the default seed.
    monkeypatch.setenv("GS_SEED", "7")
    import importlib

    from gsmat import cli as cli_mod

    importlib.reload(cli_mod)
    code3, out3, _ = _run(capsys, argv[:-2])  # drop explicit --seed
    # build_parser reads the env default at construction time.
    code3 = cli_mod.main(["demo-conv", "--channels", "4", "--groups", "2", "--terms", "8", "--size", "3"])
    out3 = capsys.readouterr().out
    assert code3 == EXIT_OK
    assert json.loads(out3)["seed"] == 7
    monkeypatch.delenv("GS_SEED")
    importlib.reload(cli_mod)


def test_project_roundtrip(capsys, tmp_path):
    rng = np.random.default_rng(3)
    spec = GSClassSpec.make(4, 2, 2, 4, 2, 2)
    member = random_member(spec, rng)
    inp = str(tmp_path / "a.gsm")
    out_path = str(tmp_path / "b.gsm")
    spec_path = str(tmp_path / "spec.json")
    save_container(member.as_dense(), inp)
    with open(spec_path, "w") as fh:
        fh.write(spec.to_json())
    code, out, _ = _run(capsys, ["project", "--input", inp, "--spec", spec_path, "--output", out_path])
    assert code == EXIT_OK
    assert json.loads(out)["error_norm"] < 1e-10
    loaded = load_container(out_path)
    assert isinstance(loaded, GSMatrix)
    np.testing.assert_allclose(loaded.as_dense(), member.as_dense(), atol=1e-10)


MALFORMED_SPECS = {
    "json-list": lambda doc: [1, 2, 3],
    "string-k_L": lambda doc: {**doc, "k_L": "4"},
    "null-sigma": lambda doc: {**doc, "P": {"n": 8, "sigma": None}},
    "perm-n-mismatch": lambda doc: {**doc, "P": {**doc["P"], "n": 99}},
}


@pytest.mark.parametrize("edit", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_project_rejects_malformed_spec(capsys, tmp_path, edit):
    text = json.dumps(edit(json.loads(GSClassSpec.make(4, 2, 2, 4, 2, 2).to_json())))
    with pytest.raises(ValueError):
        GSClassSpec.from_json(text)
    inp = str(tmp_path / "a.gsm")
    save_container(np.zeros((8, 8)), inp)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    code, _, err = _run(
        capsys, ["project", "--input", inp, "--spec", str(spec_path), "--output", str(tmp_path / "b.gsm")]
    )
    assert code == EXIT_IO and "spec" in err


def test_bench_emits_csv(capsys):
    code, out, _ = _run(capsys, ["bench", "--d", "16", "--b", "4", "--m", "2", "--reps", "3"])
    assert code == EXIT_OK
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0].split(",")[:3] == ["method", "d", "b"]
    assert lines[1].startswith("gs_chain,16,4,2,128,128,")
    assert lines[2].startswith("dense,16,4,0,256,256,")


def test_demo_gsoft_report(capsys):
    code, out, _ = _run(
        capsys,
        ["demo-gsoft", "--d", "8", "--b", "2", "--steps", "400", "--lr", "0.05", "--seed", "1"],
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["final_loss"] < rep["loss_trace"][0]
    assert rep["max_ortho_residual"] < 1e-11 * 8


def test_exit_code_usage(capsys):
    # argparse errors exit with SystemExit(2).
    with pytest.raises(SystemExit) as exc:
        main(["density", "--b", "2"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    # Domain errors map to usage as well.
    code, _, err = _run(capsys, ["density", "--b", "1", "--r", "4", "--m", "2"])
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "--d", "16", "--b", "0"], "--b"),
        (["bench", "--d", "16", "--b", "4", "--reps", "0"], "--reps"),
        (["demo-gsoft", "--steps", "0"], "--steps"),
        (["demo-gsoft", "--steps", "-3"], "--steps"),
        (["demo-gsoft", "--steps", "3", "--lr", "nan"], "--lr"),
        (["demo-gsoft", "--steps", "3", "--tol", "nan"], "--tol"),
        (["demo-conv", "--size", "0"], "--size"),
        (["demo-conv", "--groups", "0"], "--groups"),
        (["count", "--b", "x", "--r", "2", "--m", "2"], "--b"),
    ],
)
def test_out_of_range_numeric_flags_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}:" in err


def test_non_integer_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GS_SEED", "abc")
    code, _, err = _run(capsys, ["info"])
    assert code == EXIT_USAGE
    assert "GS_SEED" in err


def test_exit_code_io(capsys, tmp_path):
    code, _, err = _run(
        capsys,
        ["project", "--input", str(tmp_path / "no.gsm"), "--spec", "s.json", "--output", "o.gsm"],
    )
    assert code == EXIT_IO
    assert "error" in err


def test_exit_code_tolerance(capsys):
    code, out, _ = _run(
        capsys,
        ["demo-conv", "--channels", "4", "--groups", "2", "--terms", "1", "--size", "3",
         "--seed", "0", "--tol", "1e-9"],
    )
    assert code == EXIT_TOLERANCE
    assert json.loads(out)["ortho_residual"] > 1e-9


def test_info(capsys):
    code, out, _ = _run(capsys, ["info"])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["name"] == "gsmat"
    assert rep["seed_env"] == "GS_SEED"
    assert set(rep["container_kinds"]) == {"dense", "permutation", "blockdiag", "gs", "chain"}


# ------------------------------------------------------------ report contract


def _one_error_line(err, prefix="error: "):
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err


def test_project_shape_mismatch_is_one_usage_error_line(capsys, tmp_path):
    inp = str(tmp_path / "a.gsm")
    save_container(np.zeros((6, 6)), inp)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(GSClassSpec.make(4, 2, 2, 4, 2, 2).to_json())
    out_path = tmp_path / "b.gsm"
    code, out, err = _run(
        capsys, ["project", "--input", inp, "--spec", str(spec_path), "--output", str(out_path)]
    )
    assert code == EXIT_USAGE and out == ""
    _one_error_line(err, "error: input shape")
    assert not out_path.exists()


def test_bench_rejects_b_not_dividing_d(capsys):
    code, out, err = _run(capsys, ["bench", "--d", "10", "--b", "4"])
    assert code == EXIT_USAGE and out == ""
    _one_error_line(err)


def _report_argvs(tmp_path):
    spec = GSClassSpec.make(4, 2, 2, 4, 2, 2)
    inp, spec_path = str(tmp_path / "a.gsm"), tmp_path / "spec.json"
    save_container(random_member(spec, np.random.default_rng(4)).as_dense(), inp)
    spec_path.write_text(spec.to_json())
    return {
        "density": ["density", "--b", "2", "--r", "4", "--m", "3"],
        "count": ["count", "--b", "4", "--r", "4", "--m", "2"],
        "project": ["project", "--input", inp, "--spec", str(spec_path), "--output", str(tmp_path / "b.gsm")],
        "demo-gsoft": ["demo-gsoft", "--d", "8", "--b", "2", "--steps", "20", "--seed", "2"],
        "demo-conv": ["demo-conv", "--channels", "4", "--groups", "2", "--terms", "4", "--size", "3"],
        "info": ["info"],
    }


@pytest.mark.parametrize("command", ["density", "count", "project", "demo-gsoft", "demo-conv", "info"])
def test_report_is_one_json_document_and_silent_stderr(capsys, tmp_path, command):
    code, out, err = _run(capsys, _report_argvs(tmp_path)[command])
    assert code == EXIT_OK and err == ""
    report, end = json.JSONDecoder().raw_decode(out)
    assert isinstance(report, dict) and out[end:] == "\n"
