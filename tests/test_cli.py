"""Command line interface: exit codes, output formats, caching."""

import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import nilzeta
from nilzeta import cli, zeta
from nilzeta.cli import heartbeat, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(tmp_path, capsys, monkeypatch):
    assert run(capsys, "compute")[0] == 64
    assert run(capsys, "compute", "--d", "1")[0] == 64
    assert run(capsys, "compute", "--d", "2", "--kind", "nonsense")[0] == 64
    assert run(capsys, "compute", "--d", "2", "--kind", "overlap")[0] == 64
    assert run(capsys, "verify", "--d", "2", "--suite", "bogus")[0] == 64
    assert run(capsys, "compute", "--d", "2", "--jobs", "2")[0] == 64
    assert run(capsys, "verify", "--d", "2", "--output", "x")[0] == 64
    assert run(capsys, "verify", "--d", "2", "--format", "json")[0] == 64
    assert run(capsys, "report", "--d", "2", "--format", "latex")[0] == 64
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys)[0] == 64
    # values that parse but name no computation: one line, nothing cached
    monkeypatch.chdir(tmp_path)
    for argv in [
        ("compute", "--d", "2", "--kind", "overlap", "--word", "0110"),
        ("compute", "--d", "2", "--kind", "overlap", "--word", "0x"),
        ("compute", "--d", "2", "--kind", "overlap", "--word", "0101"),
        ("compute", "--d", "2", "--kind", "overlap", "--word", "10"),
        ("compute", "--d", "2", "--word", "01"),
        ("compute", "--d", "2", "--kind", "padic", "--route", "via_G"),
        ("compute", "--d", "2", "--kind", "overlap", "--word", "01",
         "--route", "via_H"),
        ("compute", "--d", "2", "--route", "via_G"),
        ("verify", "--d", "2", "--suite", "oracle", "--order", "-1"),
        ("verify", "--d", "2", "--suite", "oracle", "--p", "1"),
        ("verify", "--d", "2", "--suite", "oracle", "--p", "4"),
        ("oracle", "--d", "2", "--p", "0", "--n", "2"),
        ("oracle", "--d", "2", "--p", "1", "--n", "2"),
        ("oracle", "--d", "2", "--p", "-3", "--n", "2"),
        ("oracle", "--d", "2", "--p", "2", "--n", "-1"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, ""), argv
        assert len(err.splitlines()) == 1, (argv, err)
    assert not os.listdir(tmp_path)


def test_d_the_engine_cannot_finish_is_a_usage_error(tmp_path, capsys,
                                                     monkeypatch):
    # compute, verify and report refuse it before any sweep or cache
    # access; oracle keeps its own capacity guard
    def no_sweep(d):
        raise AssertionError("enumerate_Wd called")

    monkeypatch.setattr(zeta, "enumerate_Wd", no_sweep)
    monkeypatch.delenv("NILZETA_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    for argv in [("compute", "--d", "5"), ("verify", "--d", "9"),
                 ("report", "--d", "5")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, ""), argv
        assert len(err.splitlines()) == 1, (argv, err)
    assert not os.listdir(tmp_path)
    assert run(capsys, "oracle", "--d", "5", "--p", "2", "--n", "40")[0] == 3


def test_compute_formats(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "compute", "--d", "2", "--format", "json",
                       "--cache-dir", cache)
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 2
    assert obj["kind"] == "padic"

    code, out, _ = run(capsys, "compute", "--d", "2", "--format", "latex",
                       "--cache-dir", cache)
    assert code == 0
    assert "\\frac" in out or "1-q" in out

    code, out, _ = run(capsys, "compute", "--d", "2", "--format", "text",
                       "--cache-dir", cache)
    assert code == 0
    assert "q" in out and "t" in out


# the LaTeX of compute --format latex, each with its trailing newline:
# exact for the short ones, by sha256 for the long ones
LATEX = {
    (2, "padic"):
        r"\frac{1 + t + q t + q t^{2} + 2q^{2} t^{2} + 2q^{2} t^{3} + q^{3} "
        r"t^{3} + q^{3} t^{4} + q^{4} t^{4} + q^{4} t^{5}}"
        r"{(1 - q^{4} t^{4})(1 - q^{3} t^{2})(1 - t^{2})}",
    (2, "reduced"):
        r"\frac{1 + 2t + 3t^{2} + 3t^{3} + 2t^{4} + t^{5}}"
        r"{(1 - t^{4})(1 - t^{2})^{2}}",
    (2, "topological"): r"\frac{12}{(2 s)(2 s - 3)(4 s - 4)}",
    (3, "padic"):
        "89d4ee70d94d8a45ca230cadb80950a3864e19b61f06f384be4902c318f6e84c",
    (3, "reduced"):
        "d2491b74e9d39d2e06277e3752584ee9e5ea155a33d8c599441b02a2d8a117d7",
    (3, "topological"):
        r"\frac{60480 - 67680s + 18000s^{2}}{(2 s - 2)(2 s - 6)(3 s)"
        r"(3 s - 8)(4 s - 10)(5 s - 10)(6 s - 14)(9 s - 18)}",
}


@pytest.mark.parametrize("d, kind", sorted(LATEX))
def test_compute_latex_is_pinned(tmp_path, capsys, d, kind):
    code, out, _ = run(capsys, "compute", "--d", str(d), "--kind", kind,
                       "--format", "latex", "--cache-dir", str(tmp_path))
    assert code == 0
    want = LATEX[d, kind]
    if want.startswith("\\frac"):
        assert out == want + "\n"
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == want


def test_compute_all_kinds(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    for kind in ("padic", "no-overlap", "reduced", "topological"):
        code, out, _ = run(capsys, "compute", "--d", "2", "--kind", kind,
                           "--format", "json", "--cache-dir", cache)
        assert code == 0, kind
        assert json.loads(out)["kind"].replace("_", "-").startswith(kind[:7])
    code, out, _ = run(capsys, "compute", "--d", "2", "--kind", "overlap",
                       "--word", "01", "--format", "json",
                       "--cache-dir", cache)
    assert code == 0
    assert json.loads(out)["d"] == 2


def test_cache_round_trip_and_determinism(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ("compute", "--d", "2", "--format", "json", "--cache-dir", cache)
    code1, out1, _ = run(capsys, *args)
    files = sorted(os.listdir(cache))
    assert files and all(f.startswith("v1_d2_") for f in files)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_no_overlap_routes_keep_their_own_cache_entries(tmp_path, capsys):
    """A via_G request after a via_H one runs the via_G route (it prints
    progress) and caches it under its own key; a repeated one hits."""
    cache = str(tmp_path / "cache")
    base = ("compute", "--d", "3", "--kind", "no-overlap", "--format", "json",
            "--cache-dir", cache)
    code, out_h, err = run(capsys, *base, "--route", "via_H")
    assert code == 0 and "progress:" in err
    assert json.loads(out_h)["kind"] == "no_overlap"
    code, out_g, err = run(capsys, *base, "--route", "via_G")
    assert code == 0 and "progress:" in err
    assert json.loads(out_g)["kind"] == "no_overlap:via_G"
    assert json.loads(out_g)["value"] == json.loads(out_h)["value"]
    assert sorted(os.listdir(cache)) == ["v1_d3_no_overlap.json",
                                         "v1_d3_no_overlap_via_G.json"]
    assert run(capsys, *base, "--route", "via_G") == (0, out_g, "")
    assert run(capsys, *base) == (0, out_h, "")


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("NILZETA_CACHE", str(cache))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "compute", "--d", "2", "--format", "json")
    assert code == 0
    assert any(f.startswith("v1_d2_") for f in os.listdir(cache))


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "compute", "--d", "2", "--format", "json",
                       "--cache-dir", str(tmp_path / "c"),
                       "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["d"] == 2


@pytest.mark.parametrize("verb", ["compute", "report"])
def test_output_that_cannot_be_written(tmp_path, capsys, verb):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, verb, "--d", "2", "--cache-dir",
                         str(tmp_path / "c"), "--output", str(target))
    assert (code, out) == (73, "")
    [line] = [x for x in err.splitlines() if x.startswith("output:")]
    assert line == f"output: cannot write {target}: No such file or directory"
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "2", "--p", "2", "--n", "2")
    assert code == 0
    assert "19" in out
    code, _, err = run(capsys, "oracle", "--d", "4", "--p", "2", "--n", "9")
    assert code == 3


def test_oracle_at_index_one_in_a_large_rank(capsys):
    # rank 45 + 990 = 1,035 has one lattice of index p^0; its diagonal's
    # parts are listed without a call per part
    code, out, err = run(capsys, "oracle", "--d", "45", "--p", "2",
                         "--n", "0")
    assert (code, out, err) == (0, "1\n", "")


def test_oracle_guard_answers_at_once(capsys):
    # 400 has about 9 * 10^10 compositions into 6 parts; the guard must
    # count the forms without listing them
    code, out, err = run(capsys, "oracle", "--d", "3", "--p", "2",
                         "--n", "400")
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("capacity exceeded: ")


@pytest.mark.parametrize("d, n", [(300, 1), (4, 20000)])
def test_oracle_guard_refuses_huge_counts_in_one_line(capsys, d, n):
    # the counts run to thousands of digits (2^45150 - 1 at d=300): the
    # guard refuses them from a lower bound, without building or printing
    # the exact count
    code, out, err = run(capsys, "oracle", "--d", str(d), "--p", "2",
                         "--n", str(n))
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("capacity exceeded: ") and len(line) < 200


@pytest.mark.parametrize("suite", ["oracle", "all"])
def test_verify_oracle_guard_runs_before_the_sweep(capsys, monkeypatch,
                                                   suite):
    def no_sweep(d):
        raise AssertionError("enumerate_Wd called")

    monkeypatch.setattr(zeta, "enumerate_Wd", no_sweep)
    code, out, err = run(capsys, "verify", "--d", "4", "--suite", suite,
                         "--order", "9")
    assert code == 3
    assert out == ""
    assert err.startswith("oracle capacity exceeded:")


def test_verify_suites(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    for suite in ("golden", "funeq", "pole", "oracle"):
        code, out, _ = run(capsys, "verify", "--d", "2", "--suite", suite,
                           "--cache-dir", cache)
        assert code == 0, (suite, out)
        assert "PASS" in out
        assert "FAIL" not in out


def test_verify_reports_progress_on_stderr(capsys):
    code, out, err = run(capsys, "verify", "--d", "2", "--suite", "pole")
    assert code == 0
    # the report's repr follows the check
    assert out == (
        "PASS  pole report d=2 self-consistent  PoleReport(d=2, "
        "reduced_order_at_1=3, reduced_residue_at_1=Fraction(-3, 4), "
        "top_degree=-3, top_residue_at_0=Fraction(1, 2), "
        "top_limit_at_infinity=Fraction(3, 4), c_d=Fraction(3, 4))\n")
    [line] = err.splitlines()
    assert line.startswith("progress: ")


def test_verify_golden_checks_the_padic_denominator(capsys, monkeypatch):
    """Without a closed form, the golden suite writes the p-adic function
    over the known denominator multiset and checks its value at s=0; a
    wrong multiset fails."""
    from nilzeta import golden

    # the d=3 multiset is read off the closed form, so keep it first
    den = golden.padic_denominator_multiset(3)
    monkeypatch.setattr(golden, "golden_padic", lambda d: None)
    monkeypatch.setattr(golden, "padic_denominator_multiset", lambda d: den)
    code, out, _ = run(capsys, "verify", "--d", "3", "--suite", "golden")
    assert code == 0
    assert "PASS  padic d=3 over the 9-factor denominator, constant term 1" \
        in out.splitlines()
    assert "PASS  padic d=3 value at s=0 is 1" in out.splitlines()
    assert "FAIL" not in out

    del den[(8, 3)]
    code, out, _ = run(capsys, "verify", "--d", "3", "--suite", "golden")
    assert code == 1
    assert "FAIL  padic d=3 over the 8-factor denominator, constant term 1" \
        in out.splitlines()


def test_report_command(capsys):
    code, out, _ = run(capsys, "report", "--d", "2", "--format", "json")
    assert (code, out) == (0, REPORT_D2_JSON)
    assert list(json.loads(out)) == sorted(json.loads(out))


REPORT_D2_JSON = (
    '{"c_d": "3/4", "consistent": true, "d": 2, "reduced_order_at_1": 3, '
    '"reduced_residue_at_1": "-3/4", "top_degree": -3, '
    '"top_limit_at_infinity": "3/4", "top_residue_at_0": "1/2"}\n')


REPORT_D3 = """\
d: 3
reduced_order_at_1: 6
reduced_residue_at_1: 25/54
top_degree: -6
top_residue_at_0: -1/120
top_limit_at_infinity: 25/54
c_d: 25/54
consistent: True
"""

REPORT_D3_JSON = (
    '{"c_d": "25/54", "consistent": true, "d": 3, "reduced_order_at_1": 6, '
    '"reduced_residue_at_1": "25/54", "top_degree": -6, '
    '"top_limit_at_infinity": "25/54", "top_residue_at_0": "-1/120"}\n')


def test_report_lines_are_pinned(capsys):
    """The exact d=3 report, as text (the PoleReport fields in order, then
    consistent) and as JSON."""
    assert run(capsys, "report", "--d", "3")[:2] == (0, REPORT_D3)
    assert run(capsys, "report", "--d", "3", "--format", "json")[:2] == \
        (0, REPORT_D3_JSON)


def test_truncated_cache_file_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("compute", "--d", "2", "--format", "text", "--cache-dir",
            str(cache))
    code, clean, _ = run(capsys, *args)
    assert code == 0
    path = cache / "v1_d2_padic.json"
    path.write_bytes(path.read_bytes()[:40])
    code, out, err = run(capsys, *args)
    assert (code, out) == (0, clean)
    reasons = [line for line in err.splitlines() if line.startswith("cache:")]
    assert len(reasons) == 1 and "v1_d2_padic.json" in reasons[0]
    assert json.loads(path.read_text())["kind"] == "padic"
    assert sorted(os.listdir(cache)) == ["v1_d2_padic.json"]
    assert run(capsys, *args)[1:] == (clean, "")


def test_cache_dir_that_is_a_file_still_prints_the_result(tmp_path,
                                                          capsys):
    args = ("compute", "--d", "2", "--format", "text")
    code, clean, _ = run(capsys, *args, "--cache-dir",
                         str(tmp_path / "cache"))
    assert code == 0
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code, out, err = run(capsys, *args, "--cache-dir", str(blocker))
    assert (code, out) == (0, clean)
    [line] = [x for x in err.splitlines() if x.startswith("cache:")]
    assert line.startswith("cache: cannot write ")
    assert blocker.read_text() == "not a directory"


def test_cache_entry_that_is_a_directory_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("compute", "--d", "2", "--format", "text", "--cache-dir",
            str(cache))
    code, clean, _ = run(capsys, *args)
    assert code == 0
    entry = cache / "v1_d2_padic.json"
    entry.unlink()
    entry.mkdir()
    code, out, err = run(capsys, *args)
    assert (code, out) == (0, clean)
    lines = [x for x in err.splitlines() if x.startswith("cache:")]
    assert len(lines) == 2, err
    assert lines[0].startswith(f"cache: ignoring {entry}: unreadable")
    assert lines[1].startswith(f"cache: cannot write {entry}")
    assert entry.is_dir() and sorted(os.listdir(cache)) == [entry.name]


def test_concurrent_writers_share_one_cache(tmp_path, capsys):
    """Two processes that miss on the same entry both write it; the rename
    into place leaves one whole file and no temporary one."""
    cache = tmp_path / "cache"
    src = os.path.dirname(os.path.dirname(nilzeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "nilzeta.cli", "compute", "--d", "2",
            "--kind", "padic", "--cache-dir", str(cache)]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] == outs[1] != ""
    cached = zeta.load_result(str(cache), 2, "padic")
    assert cached is not None and cached.kind == "padic"
    assert "cache:" not in capsys.readouterr().err
    assert sorted(os.listdir(cache)) == ["v1_d2_padic.json"]


def _bump_coefficient(value):
    coeff = value["num"][0]
    coeff[0] = str(int(coeff[0]) + 1)


def _bump_denominator(value):
    # one more denominator factor lowers the degree
    value["den"][0][0] += 1


def _degenerate_factor(value):
    # s times the numerator over s times the denominator, written as the
    # factor (0 s - 0): the degree is unchanged
    for row in value["num"]:
        row[2] += 1
    value["num"].insert(0, ["0", "1", 0])
    value["den"].append([1, 0, 0])


def _change_numerator(value):
    # the d=2 numerator is the constant 12: the degree is unchanged, the
    # residue at s=0 is not
    assert value["num"] == [["12", "1", 0]]
    value["num"][0][0] = "5"


def _negative_degree_row(value):
    # decoded naively, it would be written over the top coefficient
    value["num"].append(["9", "1", -1])


def _zero(value):
    value["num"] = []


@pytest.mark.parametrize("kind, tamper", [
    (["padic"], _bump_coefficient),
    (["overlap", "--word", "01"], _bump_coefficient),
    (["reduced"], _bump_coefficient),
    (["topological"], _bump_denominator),
    (["topological"], _degenerate_factor),
    (["topological"], _change_numerator),
    (["topological"], _negative_degree_row),
], ids=["padic", "overlap", "reduced", "topological",
        "topological-degenerate", "topological-numerator",
        "topological-negative-degree"])
def test_cache_file_failing_revalidation_is_a_miss(tmp_path, capsys, kind,
                                                   tamper):
    """A tampered entry, and a zeroed one, of every kind: one cache: line,
    then the clean output from a recomputation, which a third request
    reads back as a hit."""
    cache = tmp_path / "cache"
    args = ("compute", "--d", "2", "--kind", *kind, "--format", "text",
            "--cache-dir", str(cache))
    code, clean, _ = run(capsys, *args)
    assert code == 0
    [name] = os.listdir(cache)
    path = cache / name
    for change in (tamper, _zero):
        obj = json.loads(path.read_text())
        change(obj["value"])
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *args)
        assert (code, out) == (0, clean), change.__name__
        reasons = [line for line in err.splitlines()
                   if line.startswith("cache:")]
        assert len(reasons) == 1 and name in reasons[0], err
        if change is _zero:
            assert reasons[0].endswith(": zero function")
        if change in (_degenerate_factor, _negative_degree_row):
            assert ": unreadable (ValueError: " in reasons[0]
        if change is _change_numerator:
            assert reasons[0].endswith(": residue 5/24 at s=0, expected 1/2")
        assert run(capsys, *args)[1:] == (clean, "")


def test_cache_file_key_order(tmp_path, capsys):
    """A cache file holds d, kind, value and provenance, in that order,
    as json.dump writes them."""
    cache = tmp_path / "cache"
    assert run(capsys, "compute", "--d", "2", "--cache-dir", str(cache))[0] \
        == 0
    [name] = os.listdir(cache)
    text = (cache / name).read_text()
    obj = json.loads(text)
    assert list(obj) == ["d", "kind", "value", "provenance"]
    assert text == json.dumps(obj)


@pytest.mark.parametrize("argv", [
    ("report",),
    ("verify", "--suite", "pole"),
    ("verify", "--suite", "golden"),
    ("verify", "--suite", "funeq"),
    ("verify", "--suite", "all"),
], ids=["report", "pole", "golden", "funeq", "all"])
def test_requests_share_one_sweep(capsys, monkeypatch, argv):
    """Each request walks the 44 pairs of d=3 at most once.

    Every suite reads the one sweep: funeq its overlap summands, the
    oracle route comparison its p-adic function.
    """
    visits = []
    original = zeta.region_of_wpair

    def counted(wp):
        visits.append(wp)
        return original(wp)

    monkeypatch.setattr(zeta, "region_of_wpair", counted)
    code, _, err = run(capsys, argv[0], "--d", "3", *argv[1:])
    assert code == 0
    assert len(visits) <= 44
    if argv[0] == "report":
        assert err.count("progress:") == 1


def _fake_clock(monkeypatch, *ticks):
    ticks = iter(ticks)
    monkeypatch.setattr(cli, "time", SimpleNamespace(
        monotonic=lambda: next(ticks)))


def test_heartbeat_reports_rate_and_eta(capsys, monkeypatch):
    """Every `every` pairs and at the last, one progress line with the
    rate since the callback was made and the time left at that rate."""
    _fake_clock(monkeypatch, 100.0, 105.0, 110.0, 112.5)
    cb = heartbeat(every=200)
    for k in range(1, 451):
        cb(k, 450)
    assert capsys.readouterr().err.splitlines() == [
        "progress: 200/450 pairs, 40.0 pairs/s, eta 6 s",
        "progress: 400/450 pairs, 40.0 pairs/s, eta 1 s",
        "progress: 450/450 pairs, 36.0 pairs/s, eta 0 s",
    ]


def test_heartbeat_without_elapsed_time_keeps_the_count(capsys, monkeypatch):
    # a coarse clock (about 15 ms a tick on some systems) can read the
    # same time at the start and at the last pair of a small sweep
    _fake_clock(monkeypatch, 7.0, 7.0)
    cb = heartbeat(every=2)
    cb(2, 3)
    assert capsys.readouterr().err == "progress: 2/3 pairs\n"
