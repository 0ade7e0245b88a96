import hashlib
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vknots.cli import main
from vknots.diagram import parse_gauss, random_diagram, serialize
from vknots.laurent import LaurentPoly

from conftest import TREFOIL, TREFOIL_MIRROR, VIRTUAL_TREFOIL_MIRROR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fpoly_inline(capsys):
    code, out, _ = run(capsys, "fpoly", "-c", TREFOIL)
    assert code == 0
    assert out.strip() == "A^4 + A^12 - A^16"


def test_fpoly_file(tmp_path, capsys):
    path = tmp_path / "trefoil.gauss"
    path.write_text(TREFOIL + "\n")
    code, out, _ = run(capsys, "fpoly", str(path))
    assert code == 0
    assert out.strip() == "A^4 + A^12 - A^16"


def test_fpoly_multi_diagram_file(tmp_path, capsys):
    path = tmp_path / "both.gauss"
    path.write_text(TREFOIL + "\n\n()\n")
    code, out, _ = run(capsys, "fpoly", str(path))
    assert code == 0
    assert out.strip().splitlines() == ["A^4 + A^12 - A^16", "1"]


def test_fpoly_json_round_trip(capsys):
    code, out, _ = run(capsys, "fpoly", "--json", "-c", TREFOIL)
    assert code == 0
    blob = json.loads(out)
    assert LaurentPoly.from_pairs(blob[0]["f"]) == LaurentPoly({4: 1, 12: 1, 16: -1})


def test_fpoly_pd_input(tmp_path, capsys):
    path = tmp_path / "fig8.pd"
    path.write_text("X[4,2,5,1]+ X[8,6,1,5]+ X[6,3,7,4]- X[2,7,3,8]-\n")
    code, out, _ = run(capsys, "fpoly", str(path))
    assert code == 0
    assert out.strip() == "A^-8 - A^-4 + 1 - A^4 + A^8"


def test_bracket_command(capsys):
    code, out, _ = run(capsys, "bracket", "-c", "O1+U1+")
    assert code == 0
    assert out.strip() == "-A^3"


def test_check_not_colorable(capsys):
    code, out, _ = run(capsys, "check", "-c", VIRTUAL_TREFOIL_MIRROR)
    assert code == 0
    assert "colorable=False" in out
    assert "congruence=mixed" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--json", "-c", TREFOIL)
    blob = json.loads(out)[0]
    assert code == 0
    assert blob["colorable"] is True
    assert blob["congruence"] == 0
    assert blob["congruence_verdict"] is True


def test_check_max_crossings(capsys):
    code, _, err = run(capsys, "check", "--max-crossings", "2", "-c", TREFOIL)
    assert code == 2
    assert "exceeds" in err


def test_check_json_coloring_iff_colorable(tmp_path, capsys):
    path = tmp_path / "mixed.gauss"
    path.write_text("\n\n".join([TREFOIL, VIRTUAL_TREFOIL_MIRROR, "O1+\nU1+", "()\n()"]) + "\n")
    code, out, _ = run(capsys, "check", "--json", str(path))
    assert code == 0
    rows = json.loads(out)
    assert [r["colorable"] for r in rows] == [True, False, False, True]
    for r in rows:
        assert (r["coloring"] is not None) == r["colorable"]


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "-c", TREFOIL)
    assert code == 0
    assert "ok" in out


def test_verify_json_crossing_free_has_recursion(capsys):
    code, out, _ = run(capsys, "verify", "-c", "()", "--json")
    assert code == 0
    blob = json.loads(out)[0]
    assert blob["skein"] == [] and blob["recursion"] == []


# sha256 of the runs hashed in test_verify_output_pinned, as printed
# when the verdict still came from a function of its own
VERIFY_OUTPUT_DIGEST = "444f791f9cb8820539311f5e0f34f0ec70029d43461dc73ae96ad285c4f19b3f"


def test_verify_output_pinned(capsys, monkeypatch):
    """``vknots verify`` stdout, stderr and exit code, byte for byte, over
    seeded diagrams (0-7 crossings, 1-3 components) in text, JSON and
    size-limited JSON form."""
    monkeypatch.delenv("VKNOTS_MAX_CROSSINGS", raising=False)
    rng = random.Random(13)
    digest = hashlib.sha256()
    for _ in range(60):
        code = serialize(random_diagram(rng, rng.randrange(0, 8), components=rng.randrange(1, 4)))
        for flags in ([], ["--json"], ["--json", "--max-crossings", "3"]):
            blob = run(capsys, "verify", "-c", code, *flags)
            digest.update(json.dumps(blob).encode() + b"\n")
    assert digest.hexdigest() == VERIFY_OUTPUT_DIGEST


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "--max-crossings", "2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True and blob["total"] == 53
    # one state sum per signed word: 1 + 2 + 12 words with c <= 2
    assert blob["state_sums"] == 15
    code, out, _ = run(capsys, "sweep", "--max-crossings", "2")
    assert code == 0 and "15 state sums" in out


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--max-crossings", "3")
    assert code == 0
    assert "no witness" in out


def test_witness_is_non_split(capsys):
    # the split unlink () / () has f = -A^2 - A^-2, not of alternating
    # form, but the classical statement is for non-split links only
    code, out, _ = run(capsys, "witness", "--components", "2")
    assert code == 0
    d = parse_gauss("\n".join(out.splitlines()[:2]))
    assert serialize(d) == "O1-U2+\nO2+U1-"
    first, second = ({p.crossing for p in comp} for comp in d.components)
    assert first & second


def test_fuzz_command(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "20", "--seed", "3", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_bad_input_exit_2(capsys):
    code, _, err = run(capsys, "fpoly", "-c", "O1+U2+O1-")
    assert code == 2
    assert "error" in err


def test_comment_only_diagram_exit_2(capsys):
    # a comment-only block parses to the diagram without components,
    # which is not a link
    for command in ("check", "verify"):
        code, out, err = run(capsys, command, "-c", "# only a comment")
        assert code == 2, command
        assert "error:" in err and "ok" not in out


@pytest.mark.parametrize(
    "env, argv",
    [
        ({"VKNOTS_MAX_CROSSINGS": "abc"}, ["fpoly", "-c", TREFOIL_MIRROR]),
        ({}, ["fpoly", "-c", "()", "--max-crossings", "-1"]),
        ({"VKNOTS_MAX_CROSSINGS": "-1"}, ["fpoly", "-c", "()"]),
        ({}, ["fpoly", "--workers", "2", "-c", TREFOIL_MIRROR]),
        ({}, ["bracket", "--workers", "2", "-c", TREFOIL_MIRROR]),
        ({}, ["check", "--workers", "2", "-c", TREFOIL_MIRROR]),
        ({}, ["verify", "--workers", "2", "-c", TREFOIL_MIRROR]),
        ({}, ["fuzz", "--trials", "-3"]),
        ({}, ["fuzz", "--max-moves", "-1"]),
    ],
    ids=[
        "env-limit-not-int",
        "fpoly-negative-limit",
        "env-negative-limit",
        "fpoly-takes-no-workers",
        "bracket-takes-no-workers",
        "check-takes-no-workers",
        "verify-takes-no-workers",
        "fuzz-negative-trials",
        "fuzz-negative-max-moves",
    ],
)
def test_bad_option_exit_2(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "fpoly", str(tmp_path / "nope.gauss"))
    assert code == 2


def test_no_input_exit_2(capsys):
    code, _, err = run(capsys, "fpoly")
    assert code == 2


@pytest.mark.parametrize("command", ["fpoly", "bracket", "check", "verify"])
def test_no_diagram_exit_2(capsys, tmp_path, command):
    empty = tmp_path / "empty.gauss"
    empty.write_text("")
    for argv in (["-c", ""], ["-c", " \n\t "], [str(empty)]):
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, ""), argv
        assert "error: no diagram" in err


@pytest.mark.parametrize("command", ["fpoly", "bracket", "check", "verify"])
def test_non_utf8_file_exit_2(capsys, tmp_path, command):
    path = tmp_path / "bom.gauss"
    path.write_bytes(b"\xff\xfeO1+")
    code, _, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error:") and "UTF-8" in err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=80) | st.text("OUXV0123456789+-[],()# \n").map(str.encode))
def test_arbitrary_file_bytes_end_in_an_exit_code(capsys, tmp_path, raw):
    # any file ends in 0, 1 or 2, never in a traceback; 2 always says why
    path = tmp_path / "input"
    path.write_bytes(raw)
    for command in ("fpoly", "bracket", "check", "verify"):
        code, _, err = run(capsys, command, "--max-crossings", "8", str(path))
        assert code in (0, 1, 2), command
        if code == 2:
            assert "error:" in err, command


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_max_crossings_env(capsys, monkeypatch):
    monkeypatch.setenv("VKNOTS_MAX_CROSSINGS", "2")
    code, _, err = run(capsys, "fpoly", "-c", TREFOIL)
    assert code == 2
    assert "exceeds" in err
