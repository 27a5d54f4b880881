import hashlib
import json
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import jsonschema
import pytest

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "schemas" / "output.v1.json").read_text())


def run_cli(*args, env_extra=None, text=True, timeout=None):
    env = dict(os.environ)
    env.pop("POLARGLUE_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "polarglue.cli", *args],
        capture_output=True, text=text, env=env, timeout=timeout,
    )


def validate(record):
    jsonschema.validate(record, SCHEMA)


def test_check_exists():
    res = run_cli("check", "--q", "2", "--a1", "1", "--a2", "1", "--b", "0")
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    validate(rec)
    assert rec["verdict"]["kind"] == "irreducible_pp_exists"
    assert rec["verdict"]["witness_ell"] == 3
    assert "or its quadratic twist" in rec["verdict"]["jacobian_text"]
    assert rec["provenance"]["generated_at"] is not None


def test_check_no_pp():
    res = run_cli("check", "--q", "2", "--a1", "1", "--a2", "1", "--b", "1")
    assert res.returncode == 1
    rec = json.loads(res.stdout)
    validate(rec)
    assert rec["verdict"]["reason"] == "hb_unit"


def test_check_inconclusive():
    res = run_cli("check", "--q", "7", "--a1", "-2", "--a2", "2", "--b", "5")
    assert res.returncode == 2
    rec = json.loads(res.stdout)
    validate(rec)
    assert rec["verdict"]["failures"][0]["ell"] == 3


def test_check_lists_exceptional_primes():
    res = run_cli("check", "--q", "11", "--a1", "-2", "--a2", "5", "--b", "4")
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    validate(rec)
    assert (rec["verdict"]["branch"], rec["verdict"]["witness_ell"]) == ("exceptional", 3)
    assert rec["flags"]["exceptional_primes"] == "3"


def test_check_record_matches_scan_row():
    """check and scan reach the same row, so their records agree."""
    import polarglue as pg
    from polarglue import cli, gluing

    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        for row in chain.from_iterable(pg.scan_pairs(pg.field_param(q))):
            scanned = cli._row_record("scan-row", row, deterministic=True)
            checked = cli._row_record(
                "check", gluing.decide_pair(row.surface, row.elliptic),
                deterministic=False,
            )
            for key in ("h_b", "flags", "verdict"):
                assert checked[key] == scanned[key], (q, key, row)


def test_check_flags_split_surface():
    # t^4 - 2t^3 + 2t^2 - 4t + 4 splits over F_8; with
    # nothing asserted the verdict stands, flagged as not simple
    res = run_cli("check", "--q", "2", "--a1", "-2", "--a2", "2", "--b", "0")
    assert res.returncode == 2
    rec = json.loads(res.stdout)
    validate(rec)
    assert rec["flags"]["geometrically_simple"] == "false"


def test_check_split_surface_with_zero_real_discriminant():
    # h = t^2 - 0 t + 0 has disc(h) = 0: no exceptional prime can be looked
    # for, and the lone prime of h(2) = 4 fails the p-branch
    res = run_cli("check", "--q", "2", "--a1", "0", "--a2", "4", "--b", "2")
    assert res.returncode == 2
    rec = json.loads(res.stdout)
    validate(rec)
    assert rec["flags"]["geometrically_simple"] == "false"
    assert rec["verdict"]["failures"] == [{"ell": 2, "reasons": [
        "p-branch needs an ordinary elliptic curve, or a supersingular one "
        "against a mixed surface"]}]


def test_check_rejects_split_surface_with_square_real_discriminant():
    # disc(h) = 0 with h(1) = 1, and disc(h) = 9: a verdict that asserts
    # something on a split surface exits 65; so does h(b) = h(0) = 0
    for args in (("--a1", "0", "--a2", "4", "--b", "1"),
                 ("--a1", "1", "--a2", "2", "--b", "0"),
                 ("--a1", "0", "--a2", "4", "--b", "0")):
        res = run_cli("check", "--q", "2", *args)
        assert res.returncode == 65, args
        assert res.stdout == ""
        assert "NotGeometricallySimple" in res.stderr
        assert "Traceback" not in res.stderr


def test_check_validation_error():
    res = run_cli("check", "--q", "2", "--a1", "9", "--a2", "0", "--b", "0")
    assert res.returncode == 65
    assert "OutOfWeilBounds" in res.stderr


def test_check_rejects_reducible_elliptic():
    res = run_cli("check", "--q", "4", "--a1", "1", "--a2", "1", "--b", "4")
    assert res.returncode == 65
    assert "ReducibleEllipticInput" in res.stderr


def test_check_pretty():
    res = run_cli("check", "--q", "2", "--a1", "1", "--a2", "1", "--b", "0", "--pretty")
    assert res.returncode == 0
    assert "witness ell = 3" in res.stdout


def test_usage_error_exit_code():
    assert run_cli("nosuchcommand").returncode == 64
    assert run_cli("check", "--q", "2").returncode == 64


def test_scan_csv_shape_and_determinism():
    first = run_cli("scan", "--q", "2", "--format", "csv")
    second = run_cli("scan", "--q", "2", "--format", "csv")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines[0] == "a1,a2,b,h_b,verdict,witness_ell,branch,flags"
    import polarglue as pg
    field = pg.field_param(2)
    expected = len(pg.enumerate_surfaces(field, geometrically_simple=True)) * len(
        pg.enumerate_elliptics(field, irreducible=True))
    assert len(lines) == 1 + expected


def test_scan_json_validates_and_matches_csv():
    js = run_cli("scan", "--q", "2", "--format", "json")
    csv_out = run_cli("scan", "--q", "2", "--format", "csv")
    records = json.loads(js.stdout)
    for rec in records:
        validate(rec)
        assert rec["provenance"]["generated_at"] is None
    rows = csv_out.stdout.splitlines()[1:]
    assert len(rows) == len(records)
    for line, rec in zip(rows, records):
        a1, a2, b, h_b, verdict, ell, branch, _ = line.split(",")
        assert [int(a1), int(a2), int(b)] == [
            rec["query"]["a1"], rec["query"]["a2"], rec["query"]["b"]]
        assert int(h_b) == rec["h_b"]
        assert verdict == rec["verdict"]["kind"]


# SHA-256 of the stdout of `scan --q Q --format F`.  Scan bytes are part of
# the v1 output contract, so any change to them needs a schema version bump.
SCAN_DIGESTS = {
    (2, "csv"): "24cd638a6970ae46fc3aca10591727ec9bc1f66cbb7a402c718f9485e3cbc1cd",
    (2, "json"): "912142a23623924f2db5b6c887cdbd31f990a499899adb3f77ae419d6cc54e96",
    (3, "csv"): "e730a525207ea306169edbf54e14535c4f34992011cf30dfa0fdb42b351f5b90",
    (3, "json"): "adcc131a7d81a9ca48e70621a33cddae3c12dbcc66992a6735a764bb71ce262f",
    (4, "csv"): "e07476c2b9c22122b7bdd3696d61baf3c9ced5b909d10a6e19e005d309847ba2",
    (4, "json"): "e0c59094bb65cc547cc1b9f83c597993b6aa933f0a42c6c10cf34e573c849f47",
    (5, "csv"): "9661be45109082073eb5b6b324093e1d8dcc432c4eb889794b149e25cc9a97f5",
    (5, "json"): "7c21ace66534804a46043e7e2d6b269f873df763fa048d7106b73bdc418ceff7",
    (7, "csv"): "ddc55dfb1dd4af3137cc467eb2e3a48849232f75445fe21d8e372b7486b8901b",
    (7, "json"): "5a21a90ed21512d8ecd4a9efe9dc728c13241d5cd89d111de1732c8147c8f7b9",
    (8, "csv"): "09d74cd1cccbc58567677917a2e8ba0b2e200bb4bcfa9a96ee11b3e9b4c6fb7f",
    (8, "json"): "a2cf80502c3511e1f8a3dabafa8a54d0cda6613df90945c5f5d79d9d20a5f83a",
    (9, "csv"): "5a07b9ec75d91fdb4de60d8484aa13a43f485315f9c44b8059d660295f8522d1",
    (9, "json"): "67ebf9d26d61ed2e5695bbc34c131b3b290ad10f472878ec817b8d4d8607b3c6",
    (25, "json"): "00144356d2c2ac1e7d46bdd7382812dd5f8a0f5f9f5385363b9b850b4ad449ad",
    (27, "json"): "0159358c9ccad5e8b17efddcf8d966d5a5f075174322b1611240f7668e33cdc5",
    (49, "csv"): "87d31a2d2f3a5fd3b603b951907e1844e233a0178cf63f05977d2057edf93442",
}


def test_scan_bytes_match_recorded_digests():
    for (q, fmt), digest in SCAN_DIGESTS.items():
        res = run_cli("scan", "--q", str(q), "--format", fmt, text=False)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout).hexdigest() == digest, (q, fmt)


def test_json_writer_matches_one_dump():
    """The template writer writes the bytes of one indented dump of all
    records, for the engine's blocks of rows and for hand-built rows whose
    verdict text needs escaping, whose flags differ, or whose conclusive
    verdicts are equal but distinct objects, in blocks of any length.  A
    scan has one q, so each write covers one field."""
    import io

    import polarglue as pg
    from polarglue import cli, gluing

    exists = dict(kind=gluing.VerdictKind.IRREDUCIBLE_PP_EXISTS, witness_ell=5,
                  branch=gluing.Branch.GENERIC, jacobian_text="glued at ell = 5")
    for q in (7, 9):
        blocks = list(pg.scan_pairs(pg.field_param(q)))
        rows = list(chain.from_iterable(blocks))
        base = rows[0]
        hand_built = [
            base._replace(verdict=gluing._HB_UNIT),
            base._replace(verdict=gluing.GluingVerdict(
                kind=gluing.VerdictKind.INCONCLUSIVE,
                failures=(gluing.PrimeFailure(
                    ell=3, reasons=('a "quoted" \\ {brace} }{', "line\nbreak, ell \u2113")),
                    gluing.PrimeFailure(ell=7, reasons=())))),
            base._replace(geometrically_simple=False),
            base._replace(exceptional_primes=(3, 5)),
            base._replace(verdict=gluing.GluingVerdict(**exists)),
            base._replace(verdict=gluing.GluingVerdict(**exists)),
        ]
        assert hand_built[-1].verdict is not hand_built[-2].verdict
        with pytest.raises(AttributeError):
            base.verdict = gluing._HB_UNIT
        cases = [[], [[]], [rows[:1]], [rows[:2]], blocks, [hand_built],
                 [hand_built[::-1], [], rows[:3]]]
        for case in cases:
            buf = io.StringIO()
            cli._write_scan(case, buf, "json")
            records = [cli._row_record("scan-row", r, deterministic=True)
                       for r in chain.from_iterable(case)]
            assert buf.getvalue() == json.dumps(records, indent=2, sort_keys=True) + "\n"


def test_csv_writer_matches_csv_module():
    """The scan writer's csv equals csv.writer's, for no blocks (the header
    alone), the engine's blocks and a block of hand-built rows whose
    verdicts, flags, or equal but distinct conclusive verdict objects
    differ."""
    import csv
    import io

    import polarglue as pg
    from polarglue import cli, gluing

    blocks = [block for q in (7, 9) for block in pg.scan_pairs(pg.field_param(q))]
    base = blocks[0][0]
    exists = dict(kind=gluing.VerdictKind.IRREDUCIBLE_PP_EXISTS, witness_ell=5,
                  branch=gluing.Branch.GENERIC, jacobian_text="glued at ell = 5")
    hand_built = [
        base._replace(verdict=gluing.GluingVerdict(
            kind=gluing.VerdictKind.NO_IRREDUCIBLE_PP, reason=gluing.NoPPReason.HB_UNIT)),
        base._replace(verdict=gluing.GluingVerdict(
            kind=gluing.VerdictKind.INCONCLUSIVE,
            failures=(gluing.PrimeFailure(ell=3, reasons=("a reason",)),))),
        base._replace(geometrically_simple=False),
        base._replace(exceptional_primes=(3, 5)),
        base._replace(verdict=gluing.GluingVerdict(**exists)),
        base._replace(verdict=gluing.GluingVerdict(**exists)),
    ]
    assert hand_built[-1].verdict is not hand_built[-2].verdict
    for case in ([], blocks + [hand_built]):
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["a1", "a2", "b", "h_b", "verdict", "witness_ell", "branch", "flags"])
        for row in chain.from_iterable(case):
            v = row.verdict
            writer.writerow(
                [row.surface.a1, row.surface.a2, row.elliptic.b, row.h_b, v.kind.value,
                 "" if v.witness_ell is None else v.witness_ell,
                 v.branch.value if v.branch else "",
                 ";".join(f"{k}={x}" for k, x in cli._row_flags(row).items())]
            )
        got = io.StringIO()
        cli._write_scan(case, got, "csv")
        assert got.getvalue() == want.getvalue()
    assert "exceptional_primes=3|5" in got.getvalue()


def test_scan_hashes_no_enum(monkeypatch):
    """Deciding and writing a scan hashes no Enum member: Enum.__hash__
    runs Python code, so the shared verdicts and the writer's caches are
    keyed on the members' ids."""
    import enum
    import io

    import polarglue as pg
    from polarglue import cli

    calls = []
    enum_hash = enum.Enum.__hash__

    def counting(self):
        calls.append(self)
        return enum_hash(self)

    for fmt in ("csv", "json"):
        monkeypatch.setattr(enum.Enum, "__hash__", counting)
        cli._write_scan(pg.scan_pairs(pg.field_param(13)), io.StringIO(), fmt)
        monkeypatch.undo()
        assert calls == [], (fmt, len(calls))


def test_scan_streams_rows():
    """Peak RSS of a q = 27 json scan (24,066 rows, about 190 MB when the
    whole output was built before writing) is about 16.3 MB."""
    env = dict(os.environ)
    env.pop("POLARGLUE_CONFIG", None)
    res = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-m", "polarglue",
         "scan", "--q", "27", "--format", "json"],
        capture_output=True, text=True, env=env, check=True,
    )
    code, maxrss_kib = map(int, res.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 24


# Starts the child and prints its ru_maxrss (KiB on Linux) from os.wait4.
# On exec the kernel folds the peak RSS of the process that forked the
# child into the child's ru_maxrss, so the child is forked from this small
# launcher, not from the test process, whose own peak would dominate.
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_closed_stdout_exits_66_without_traceback():
    """A reader that stops early, as in `scan --q 7 --format csv | head -1`,
    leaves partial output: exit 66 (output I/O error), no traceback.  The
    160 kB of csv outgrow the pipe buffer, so the child is still writing
    when the pipe closes."""
    env = dict(os.environ)
    env.pop("POLARGLUE_CONFIG", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "polarglue", "scan", "--q", "7", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"a1,a2,b,h_b,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 66
    assert b"Traceback" not in stderr


def test_scan_csv_peak_rss_stays_flat():
    """Peak RSS of a q = 49 csv scan is about 17.1 MB, with the verdict
    columns (one list of 20q + 1 slots per p-rank and elliptic curve).  A
    verdict memo per (b, h(b), p-rank, exceptional primes) raised it to
    22-33 MB, so the 24 MB bound keeps such a memo out."""
    env = dict(os.environ)
    env.pop("POLARGLUE_CONFIG", None)
    res = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-m", "polarglue",
         "scan", "--q", "49", "--format", "csv"],
        capture_output=True, text=True, env=env, check=True,
    )
    code, maxrss_kib = map(int, res.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 24


def test_scan_to_file(tmp_path):
    out = tmp_path / "scan.json"
    res = run_cli("scan", "--q", "2", "--out", str(out))
    assert res.returncode == 0
    records = json.loads(out.read_text())
    assert records and all(r["schema_version"] == "1" for r in records)


def test_scan_io_error():
    res = run_cli("scan", "--q", "2", "--out", "/nonexistent-dir/scan.json")
    assert res.returncode == 66


def test_local_report():
    res = run_cli("local", "--q", "11", "--a1", "-2", "--a2", "5", "--ell", "3")
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    validate(rec)
    report = rec["local_report"]
    assert report["exceptional"] is True
    assert report["ideals"][0]["maximal_at"] is False
    res2 = run_cli("local", "--q", "2", "--a1", "1", "--a2", "1", "--ell", "3")
    rec2 = json.loads(res2.stdout)
    validate(rec2)
    assert len(rec2["local_report"]["ideals"]) == 3


def test_local_rejects_characteristic():
    res = run_cli("local", "--q", "2", "--a1", "1", "--a2", "1", "--ell", "2")
    assert res.returncode == 65


def test_local_rejects_non_prime_ell():
    for ell in ("0", "1", "4", "9"):
        res = run_cli("local", "--q", "11", "--a1", "-2", "--a2", "5", "--ell", ell)
        assert res.returncode == 65, (ell, res.stderr)
        assert f"NotPrime: ell = {ell} is not prime" in res.stderr
        assert "Traceback" not in res.stderr


def test_obstruct_hl():
    res = run_cli("obstruct", "--q", "4", "--a1", "1", "--a2", "1", "--s", "2", "--n", "1")
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    validate(rec)
    assert rec["obstruction"]["status"] == "obstructed"
    assert "irreducible principal polarization" in rec["obstruction"]["statement"]
    res2 = run_cli("obstruct", "--q", "4", "--a1", "1", "--a2", "-3", "--s", "2", "--n", "1")
    assert res2.returncode == 2


def test_obstruct_hl2():
    res = run_cli("obstruct", "--q", "2", "--a1", "1", "--a2", "1", "--ss-surface")
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    validate(rec)
    assert rec["obstruction"]["mode"] == "hl2"
    strict = run_cli("obstruct", "--q", "2", "--a1", "1", "--a2", "1",
                     "--ss-surface", "--hl2-strict")
    assert strict.returncode == 2


def test_obstruct_hl2_large_prime_in_norm():
    # the norm of h(2s) is 13 * 307694153849; a square-root search mod the
    # large prime did not finish in 15 s, the norm test takes well under 1 s
    res = run_cli("obstruct", "--q", "1000003", "--a1", "1", "--a2", "1", "--ss-surface",
                  timeout=10)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["obstruction"]["status"] == "obstructed"


def test_obstruct_mode_mismatch():
    # hl2 on a square field
    res = run_cli("obstruct", "--q", "4", "--a1", "1", "--a2", "1", "--ss-surface")
    assert res.returncode == 65
    # hl on a non-square field
    res2 = run_cli("obstruct", "--q", "2", "--a1", "1", "--a2", "1", "--s", "1", "--n", "1")
    assert res2.returncode == 65
    # exactly one of --s and --ss-surface, and --n only with --s: a usage
    # error from obstruct's parser, whatever the field
    for extra, message in (
        ((), "one of the arguments --s --ss-surface is required"),
        (("--ss-surface", "--s", "1"), "argument --s: not allowed with argument --ss-surface"),
        (("--ss-surface", "--n", "2"), "argument --n: not allowed with argument --ss-surface"),
        (("--s", "2", "--hl2-strict"), "argument --hl2-strict: not allowed with argument --s"),
    ):
        res3 = run_cli("obstruct", "--q", "2", "--a1", "1", "--a2", "1", *extra)
        assert res3.returncode == 64, (extra, res3.stderr)
        assert res3.stdout == ""
        assert f"polarglue obstruct: error: {message}" in res3.stderr
        assert "Traceback" not in res3.stderr


def test_config_file(tmp_path):
    cfg = tmp_path / "polarglue.conf"
    cfg.write_text("format=csv\njobs=1\n")
    res = run_cli("scan", "--q", "2", env_extra={"POLARGLUE_CONFIG": str(cfg)})
    assert res.stdout.startswith("a1,a2,b,")
    # command line overrides the config
    res2 = run_cli("scan", "--q", "2", "--format", "json",
                   env_extra={"POLARGLUE_CONFIG": str(cfg)})
    json.loads(res2.stdout)
    # hl2_strict sets the --ss-surface default and leaves --s runs alone
    cfg.write_text("hl2_strict=true\n")
    env = {"POLARGLUE_CONFIG": str(cfg)}
    res3 = run_cli("obstruct", "--q", "2", "--a1", "1", "--a2", "1", "--ss-surface",
                   env_extra=env)
    assert res3.returncode == 2, res3.stderr
    assert json.loads(res3.stdout)["obstruction"]["status"] == "no_conclusion"
    res4 = run_cli("obstruct", "--q", "4", "--a1", "1", "--a2", "1", "--s", "2", env_extra=env)
    assert res4.returncode == 0, res4.stderr


def test_bad_config_values_exit_64_naming_the_key(tmp_path):
    cfg = tmp_path / "polarglue.conf"
    cases = [
        ("format=xml", ("scan", "--q", "2")),
        ("format=CSV", ("scan", "--q", "2")),
        ("pretty=yes", ("check", "--q", "2", "--a1", "1", "--a2", "1", "--b", "0")),
        ("hl2_strict=1", ("obstruct", "--q", "2", "--a1", "1", "--a2", "1")),
    ]
    for line, args in cases:
        cfg.write_text(line + "\n")
        res = run_cli(*args, env_extra={"POLARGLUE_CONFIG": str(cfg)})
        assert res.returncode == 64, (line, res.stderr)
        assert f"config key {line.split('=')[0]}" in res.stderr, (line, res.stderr)
        assert res.stdout == ""
    # booleans are case-insensitive, as before
    cfg.write_text("pretty=TRUE\nhl2_strict=False\n")
    res = run_cli("check", "--q", "2", "--a1", "1", "--a2", "1", "--b", "0",
                  env_extra={"POLARGLUE_CONFIG": str(cfg)})
    assert res.returncode == 0 and res.stdout.startswith("h(b) = -3\n")


def test_unreadable_config_file_exits_64_naming_the_file(tmp_path):
    """A directory or a non-UTF-8 file is a usage error, not a traceback
    under the 'no irreducible pp' exit code 1; a missing file is ignored."""
    binary = tmp_path / "binary.conf"
    binary.write_bytes(b"format=csv\n\xff\xfe\n")
    for path in (tmp_path, binary):
        res = run_cli("scan", "--q", "2", env_extra={"POLARGLUE_CONFIG": str(path)})
        assert res.returncode == 64, (path, res.stderr)
        assert f"config file {path}: " in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
    res = run_cli("scan", "--q", "2", "--format", "csv",
                  env_extra={"POLARGLUE_CONFIG": str(tmp_path / "missing.conf")})
    assert res.returncode == 0 and res.stdout.startswith("a1,a2,b,")


def test_user_errors_exit_65_with_named_class():
    cases = [
        (("check", "--q", "12", "--a1", "0", "--a2", "0", "--b", "0"), "NotPrimePower"),
        (("scan", "--q", "0"), "NotPrimePower"),
        (("scan", "--q", "1"), "NotPrimePower"),
        (("check", "--q", "-5", "--a1", "0", "--a2", "0", "--b", "0"), "NotPrimePower"),
        (("obstruct", "--q", "4", "--a1", "1", "--a2", "1", "--s", "2", "--n", "0"),
         "NonPositivePower"),
    ]
    for args, name in cases:
        res = run_cli(*args)
        assert res.returncode == 65, (args, res.stderr)
        assert f"polarglue: {name}: " in res.stderr, (args, res.stderr)
        assert "ValueError:" not in res.stderr
        assert "Traceback" not in res.stderr


def test_internal_error_exits_70_not_as_a_verdict(monkeypatch, capsys):
    from polarglue import cli, gluing

    def broken(A, B):
        raise ValueError("simulated bug")

    monkeypatch.setattr(gluing, "decide_pair", broken)
    code = cli.main(["check", "--q", "2", "--a1", "1", "--a2", "1", "--b", "0"])
    assert code == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: simulated bug" in err
