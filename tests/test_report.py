"""Classification reports, serialization, caching, table verification."""

import hashlib
import json
import os
import re
import shutil
import sys

import pytest

import p2qbrace.core as core
import p2qbrace.families as families
import p2qbrace.report as report_mod
from p2qbrace.expected import ExpectedType, expected_tables, expected_totals
from p2qbrace.families import all_labels
from p2qbrace.report import (
    CacheError,
    cache_path,
    classify,
    conjecture,
    export,
    import_cache,
    verify_tables,
    write_cache,
)
from helpers import (
    SMALL_PAIRS,
    cache_text_oracle,
    classes_of,
    enumerate_stratified,
    hol_of,
    label_keys,
    report_of,
)


def write_family_cache(cache_dir, p, q, key):
    """``write_cache`` for one family at the first choice, from its
    holomorph and orbit classes."""
    return write_cache(str(cache_dir), p, q, key, "first",
                       hol=hol_of(p, q, key), classes=classes_of(p, q, key))


def test_classify_order28_totals_and_consistency():
    rep = report_of(2, 7)
    assert (rep.s_total, rep.a_total, rep.b_total) == (29, 9, 20)
    assert rep.complete and not rep.skipped
    assert rep.n == 28
    assert set(rep.rows) == {"CyclicP2Q", "PxPQ", "QbyP2_ordP", "PxQbyP"}
    assert rep.rows["CyclicP2Q"]["abelian"]
    assert not rep.rows["QbyP2_ordP"]["abelian"]
    # the totals are sums over the rows; check each row against the classes
    for key, row in rep.rows.items():
        assert row["total"] == sum(row["cells"].values()) == len(classes_of(2, 7, key))


def test_classify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        classify(4, 7)
    with pytest.raises(TypeError):
        classify(2, 7, strategy="stratified")
    with pytest.raises(ValueError):
        classify(2, 7, additive="NoSuchType")
    with pytest.raises(ValueError):
        classify(2, 7, budget="huge")


@pytest.mark.parametrize("jobs", [0, -3])
def test_classify_rejects_fewer_than_one_job(jobs):
    # checked like the budget, before any family is built
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        classify(2, 7, jobs=jobs)


def test_classify_single_family():
    rep = classify(2, 7, additive="QbyP2_ordP")
    assert list(rep.rows) == ["QbyP2_ordP"]
    assert rep.rows["QbyP2_ordP"]["total"] == 10
    # partial reports are marked incomplete about the other families
    full = report_of(2, 7)
    assert full.rows["QbyP2_ordP"] == rep.rows["QbyP2_ordP"]


def test_parallel_jobs_give_the_same_report():
    seq = report_of(2, 5)
    par = classify(2, 5, jobs=2)
    assert par.rows == seq.rows
    assert (par.a_total, par.b_total) == (seq.a_total, seq.b_total)


def test_budget_skips_oversized_holomorphs(monkeypatch):
    # |Hol(A)| at order 20: CyclicP2Q 160, PxPQ 480, QbyP2_ordP 800,
    # QbyP2_ordP2 400, PxQbyP 800
    monkeypatch.setattr(report_mod, "NORMAL_HOL_LIMIT", 500)
    built = []
    build_group = families.build_group

    def counting_build_group(label, params):
        built.append(label.key())
        return build_group(label, params)

    monkeypatch.setattr(families, "build_group", counting_build_group)
    rep = classify(2, 5)
    assert not rep.complete
    assert rep.skipped == ["QbyP2_ordP", "PxQbyP"]
    assert built == list(rep.rows) == ["CyclicP2Q", "PxPQ", "QbyP2_ordP2"]
    with pytest.raises(ValueError):
        conjecture(2, 5)


def test_budget_refuses_order98_in_closed_form():
    # brute force would search Gk(1)'s 98 784 automorphisms before refusing it
    rep = classify(7, 2)
    assert rep.skipped == ["PxPQ", "P2SemidirectQ", "Gk(1)"]
    assert {key: row["total"] for key, row in rep.rows.items()} == {
        "CyclicP2Q": 3,
        "Gk(0)": 12,
    }


def test_pipeline_never_searches_for_automorphisms(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("brute-force homomorphism search")

    monkeypatch.setattr(core, "_hom_images", refuse)
    cold = classify(2, 7, cache_dir=str(tmp_path))
    warm = classify(2, 7, cache_dir=str(tmp_path))
    assert warm.rows == cold.rows
    assert (cold.a_total, cold.b_total) == (9, 20)
    direct = str(tmp_path / "direct")
    classify(2, 7, additive="PxQbyP", cache_dir=direct)
    with open(cache_path(direct, 2, 7, "PxQbyP", "first")) as fh:
        with open(cache_path(str(tmp_path), 2, 7, "PxQbyP", "first")) as whole:
            assert fh.read() == whole.read()


def test_export_json_round_trips():
    rep = report_of(2, 7)
    data = json.loads(export(rep, "json"))
    assert data["totals"] == {"A": 9, "B": 20, "s": 29}
    assert data["p"] == 2 and data["q"] == 7 and data["n"] == 28
    assert data["complete"] is True
    cells = {r["mul"]: r["count"] for r in data["rows"]["QbyP2_ordP"]["cells"]}


def test_export_csv_shape():
    rep = report_of(2, 7)
    lines = export(rep, "csv").strip().splitlines()
    assert lines[0] == "additive,multiplicative,kernel_size,count"
    assert len(lines) - 1 == sum(len(r["cells"]) for r in rep.rows.values())
    total = sum(int(ln.rsplit(",", 1)[1]) for ln in lines[1:])
    assert total == 29


def test_export_md_contains_the_tables():
    rep = report_of(2, 7)
    text = export(rep, "md")
    assert "s(28) = 29" in text or "29" in text
    assert "QbyP2_ordP" in text or "Z7:Z4" in text
    with pytest.raises(ValueError):
        export(rep, "xml")


def test_export_writes_file(tmp_path):
    rep = report_of(2, 7)
    out = tmp_path / "r.json"
    text = export(rep, "json", path=str(out))
    assert out.read_text() == text


@pytest.mark.parametrize("writer", ["atomic", "export", "cache"])
def test_a_failed_write_removes_its_temporary_file(tmp_path, writer):
    # the target is a directory, so the write fails at os.replace, after the
    # temporary file beside it is written; that file once stayed behind
    if writer == "cache":
        target = cache_path(str(tmp_path), 2, 7, "QbyP2_ordP", "first")
    else:
        target = str(tmp_path / "target")
    os.mkdir(target)
    with pytest.raises(IsADirectoryError):
        if writer == "atomic":
            report_mod._atomic_write(target, "x")
        elif writer == "export":
            export(report_of(2, 7), "json", path=target)
        else:
            write_family_cache(tmp_path, 2, 7, "QbyP2_ordP")
    assert os.listdir(tmp_path) == [os.path.basename(target)]
    assert os.listdir(target) == []


def test_cache_round_trip(tmp_path):
    path = write_family_cache(tmp_path, 2, 7, "QbyP2_ordP")
    assert path == cache_path(str(tmp_path), 2, 7, "QbyP2_ordP", "first")
    data = import_cache(path)
    assert data["additive"] == "QbyP2_ordP"
    assert len(data["classes"]) == 10
    labels = sorted(c.mul_label.key() for c in data["classes"])
    assert labels.count("PxQbyP") == 4


def test_cached_classes_carry_no_orbit_size(tmp_path):
    # a cache file stores representatives only; the enumerated classes of
    # the same family still add up to every regular subgroup
    key = "QbyP2_ordP"
    classes = import_cache(write_family_cache(tmp_path, 2, 7, key))["classes"]
    assert [c.rep for c in classes] == [c.rep for c in classes_of(2, 7, key)]
    assert all(c.orbit_size is None for c in classes)
    enumerated = sum(c.orbit_size for c in classes_of(2, 7, key))
    assert enumerated == len(enumerate_stratified(hol_of(2, 7, key)))


def test_cache_rejects_tampered_reps(tmp_path):
    path = write_family_cache(tmp_path, 2, 7, "QbyP2_ordP")
    data = json.loads(open(path).read())
    # swap a stored multiplicative label: revalidation must notice
    data["orbits"][0]["mul_label"] = (
        "PxPQ" if data["orbits"][0]["mul_label"] != "PxPQ" else "CyclicP2Q"
    )
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError):
        import_cache(path)


def test_cache_rejects_edited_elements(tmp_path):
    path = write_family_cache(tmp_path, 2, 7, "CyclicP2Q")
    data = json.loads(open(path).read())
    data["orbits"][0]["rep"][3][0] = (data["orbits"][0]["rep"][3][0] + 1) % 28
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError):
        import_cache(path)


def test_cache_rejects_swapped_lambda_entries(tmp_path):
    # pi1 stays a bijection and the labels stay as written; only the closure
    # check of the circle group can notice
    path = write_family_cache(tmp_path, 2, 7, "QbyP2_ordP")
    data = json.loads(open(path).read())
    rep = data["orbits"][3]["rep"]
    assert [a for a, _ in rep] == list(range(28))
    assert rep[4][1] != rep[5][1]
    rep[4][1], rep[5][1] = rep[5][1], rep[4][1]
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError, match="lambda table is not closed"):
        import_cache(path)


@pytest.mark.parametrize("index", range(10))
def test_cache_rejects_a_flipped_biskew_flag(tmp_path, index):
    path = write_family_cache(tmp_path, 2, 7, "QbyP2_ordP")
    data = json.loads(open(path).read())
    assert len(data["orbits"]) == 10
    flag = data["orbits"][index]["biskew"]
    data["orbits"][index]["biskew"] = not flag
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError, match=f"cached biskew flag {not flag} != recomputed {flag}"):
        import_cache(path)


def _swap_lambda(orbit):
    # pi1 stays a bijection and the label stays as written
    rep = orbit["rep"]
    assert rep[4][1] != rep[5][1]
    rep[4][1], rep[5][1] = rep[5][1], rep[4][1]
    return "cached element set is not a subgroup: lambda table is not closed under multiplication"


def _relabel(orbit):
    good = orbit["mul_label"]
    orbit["mul_label"] = bad = "PxPQ" if good != "PxPQ" else "CyclicP2Q"
    return f"cached label {bad} != recomputed {good}"


def _flip_biskew(orbit):
    flag = orbit["biskew"]
    orbit["biskew"] = not flag
    return f"cached biskew flag {not flag} != recomputed {flag}"


def _out_of_range(orbit):
    orbit["rep"][3][1] = 10**6
    return "cached element out of range"


@pytest.mark.parametrize("index", [3, 6, 9])
@pytest.mark.parametrize("corrupt", [_swap_lambda, _relabel, _flip_biskew])
def test_cache_names_a_fault_past_the_first_entry(tmp_path, index, corrupt):
    # the tables are checked as one stack; a fault in a later entry still
    # raises its own message
    path = write_family_cache(tmp_path, 2, 7, "QbyP2_ordP")
    data = json.loads(open(path).read())
    assert len(data["orbits"]) == 10
    message = corrupt(data["orbits"][index])
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError, match=f"^{re.escape(message)}$"):
        import_cache(path)


@pytest.mark.parametrize(
    "faults, raised",
    [
        # phase one, the structure of every entry, comes before phase two
        (((2, _swap_lambda), (7, _out_of_range)), 1),
        (((1, _relabel), (8, _out_of_range)), 1),
        # within phase two, the first fault in file order
        (((1, _relabel), (5, _swap_lambda)), 0),
        (((2, _swap_lambda), (4, _relabel)), 0),
        (((3, _flip_biskew), (6, _swap_lambda)), 0),
    ],
    ids=["closure then range", "label then range", "label then closure",
         "closure then label", "biskew then closure"],
)
def test_cache_faults_are_raised_in_the_documented_order(tmp_path, faults, raised):
    path = write_family_cache(tmp_path, 2, 7, "QbyP2_ordP")
    data = json.loads(open(path).read())
    messages = [corrupt(data["orbits"][index]) for index, corrupt in faults]
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError, match=f"^{re.escape(messages[raised])}$"):
        import_cache(path)


@pytest.mark.parametrize(
    "pair, keys",
    [(pair, label_keys(*pair)) for pair in SMALL_PAIRS]
    # (5,2) has label keys with parentheses; Gk(1) needs the large budget
    + [((5, 2), [key for key in label_keys(5, 2) if key != "Gk(1)"])],
    ids=[f"{p}x{q}" for p, q in SMALL_PAIRS + ((5, 2),)],
)
def test_cache_text_is_the_json_dump(tmp_path, pair, keys):
    for key in keys:
        hol, classes = hol_of(*pair, key), classes_of(*pair, key)
        with open(write_family_cache(tmp_path, *pair, key)) as fh:
            assert fh.read() == cache_text_oracle(*pair, key, "first", hol, classes), key


def test_cache_text_without_classes_is_the_json_dump(tmp_path):
    hol = hol_of(2, 7, "CyclicP2Q")
    with open(write_cache(str(tmp_path), 2, 7, "CyclicP2Q", "first", hol=hol, classes=[])) as fh:
        assert fh.read() == cache_text_oracle(2, 7, "CyclicP2Q", "first", hol, [])


def test_write_cache_builds_no_brace_and_no_circle_group(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("write_cache rebuilt what the enumeration had")

    keys = label_keys(3, 7)
    expected = [cache_text_oracle(3, 7, key, "first", hol_of(3, 7, key), classes_of(3, 7, key))
                for key in keys]
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "p2qbrace":
            for attr in ("circle_group", "brace_from_regular", "is_bi_skew"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    for key, text in zip(keys, expected):
        with open(write_family_cache(tmp_path, 3, 7, key)) as fh:
            assert fh.read() == text, key


def test_classify_rejects_the_cache_of_another_family(tmp_path):
    classify(2, 5, cache_dir=str(tmp_path))
    shutil.copy(
        cache_path(str(tmp_path), 2, 5, "PxPQ", "first"),
        cache_path(str(tmp_path), 2, 5, "QbyP2_ordP2", "first"),
    )
    with pytest.raises(CacheError, match=r"holds .*'PxPQ'.* looked up .*'QbyP2_ordP2'"):
        classify(2, 5, cache_dir=str(tmp_path))


def test_parallel_jobs_read_the_cache_like_one_job(tmp_path):
    # the workers read every family's file (a process pool runs cache hits
    # too) and the rows come back in label order, as from one job
    cold = classify(2, 5, cache_dir=str(tmp_path))
    warm = classify(2, 5, cache_dir=str(tmp_path), jobs=2)
    assert list(warm.rows) == list(cold.rows) == [lb.key() for lb in all_labels(2, 5)]
    assert warm.rows == cold.rows == report_of(2, 5).rows
    # a mismatched header raises the same CacheError from a worker
    shutil.copy(
        cache_path(str(tmp_path), 2, 5, "PxPQ", "first"),
        cache_path(str(tmp_path), 2, 5, "QbyP2_ordP2", "first"),
    )
    messages = []
    for jobs in (1, 2):
        with pytest.raises(CacheError) as err:
            classify(2, 5, cache_dir=str(tmp_path), jobs=jobs)
        messages.append(str(err.value))
    path = cache_path(str(tmp_path), 2, 5, "QbyP2_ordP2", "first")
    assert messages == [
        f"cache file {path} holds (p, q, additive, choice) = (2, 5, 'PxPQ', 'first'), "
        "looked up (2, 5, 'QbyP2_ordP2', 'first')"
    ] * 2


def test_cache_rejects_wrong_version(tmp_path):
    path = write_family_cache(tmp_path, 2, 7, "CyclicP2Q")
    data = json.loads(open(path).read())
    data["version"] = 999
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError):
        import_cache(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("additive", "GF", "have: CyclicP2Q, PxPQ, QbyP2_ordP, PxQbyP"),
        ("choice", "third", "choice must be"),
        ("p", 4, "need distinct primes"),
    ],
)
def test_cache_rejects_a_family_that_does_not_exist(tmp_path, field, value, message):
    path = write_family_cache(tmp_path, 2, 7, "CyclicP2Q")
    data = json.loads(open(path).read())
    data[field] = value
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError, match=message):
        import_cache(path)


def _set_rep_pair(i, value):
    def edit(data):
        data["orbits"][0]["rep"][i] = value
    return edit


def _set_element(i, j, value):
    # ``value`` maps the stored element to its replacement
    def edit(data):
        pair = data["orbits"][0]["rep"][i]
        pair[j] = value(pair[j])
    return edit


def _drop(name):
    def edit(data):
        del data["orbits"][0][name]
    return edit


def _set_entry(name, value):
    def edit(data):
        data["orbits"][0][name] = value
    return edit


def _set_field(name, value):
    def edit(data):
        data[name] = value
    return edit


def _set_orbit(value):
    def edit(data):
        data["orbits"][0] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_rep_pair(1, [1, 0, 0]),
        _set_rep_pair(1, [1]),
        _set_rep_pair(1, 1),
        _drop("rep"),
        _drop("mul_label"),
        _drop("pi2_size"),
        _set_entry("pi2_size", True),  # orbit 0 has pi2 of size 1, and true == 1
        _set_entry("biskew", "garbage"),
        _set_element(0, 0, str),
        _set_element(1, 1, lambda f: f + 0.5),  # would truncate back to f
        _set_element(1, 0, bool),  # a = 1 as true
        _set_element(1, 0, lambda a: 10**30),
        _set_field("p", "2"),
        _set_field("q", 7.0),
        _set_field("orbits", 5),
        _set_field("params", []),
        _set_orbit(5),
        _set_orbit(["rep"]),
    ],
    ids=[
        "3-element pair", "1-element pair", "pair not a list", "no rep",
        "no mul_label", "no pi2_size", "pi2_size true", "biskew 'garbage'",
        "element '0'", "element f + 0.5", "element true", "huge element", "p '2'", "q 7.0", "orbits 5",
        "params a list", "orbit 5", "orbit a list",
    ],
)
def test_cache_refuses_every_malformed_entry(tmp_path, edit):
    path = write_family_cache(tmp_path, 2, 7, "CyclicP2Q")
    data = json.loads(open(path).read())
    edit(data)
    open(path, "w").write(json.dumps(data))
    with pytest.raises(CacheError):
        import_cache(path)


@pytest.mark.parametrize(
    "pair, digest",
    [
        ((2, 5), "7ebfcfb88132e5fc5686da4c02898ec84fd85d4086e03383c3503d707faab9c5"),
        ((3, 7), "37de245fb5f533019f4c4d3bab0adf73f0b8edc3cd1b776d86b634ea53771c4f"),
    ],
)
def test_cache_files_are_pinned_byte_for_byte(tmp_path, pair, digest):
    # the cache files store lambda as automorphism indices, so this pins the
    # index order of Aut(A) as well as the file layout
    sha = hashlib.sha256()
    for label in all_labels(*pair):
        with open(write_family_cache(tmp_path, *pair, label.key()), "rb") as fh:
            sha.update(fh.read())
    assert sha.hexdigest() == digest


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{not json")
    with pytest.raises(CacheError):
        import_cache(str(path))


def test_classify_uses_the_cache(tmp_path):
    first = classify(2, 5, cache_dir=str(tmp_path))
    second = classify(2, 5, cache_dir=str(tmp_path))
    assert first.rows == second.rows
    assert (second.a_total, second.b_total) == (11, 32)


def test_verify_tables_order28():
    ok, diffs = verify_tables(2, 7)
    assert ok, diffs
    assert diffs == []


def test_verify_tables_order363_gf():
    # the second prime pair of the gf regime, (5, 3) being the first
    assert verify_tables(11, 3) == (True, [])


@pytest.mark.parametrize("pair", [(3, 19), (3, 37)])
def test_verify_tables_q1_modp2(pair):
    # orders 171 and 333, the q = 1 mod p^2 regime at both of its encoded
    # prime pairs; stretch criteria 10 and 11 run the same check
    assert verify_tables(*pair) == (True, [])


@pytest.mark.parametrize("pair", [
    (2, 11), (3, 5), (2, 17), (2, 19), (2, 23), (3, 11), (2, 29), (3, 13), (2, 31), (3, 17), (5, 7),
    (5, 11), (2, 37), (2, 41), (2, 43), (3, 23), (2, 47), (2, 53), (3, 29), (5, 13), (7, 5), (7, 11),
], ids=lambda pair: "{}x{}".format(*pair))
def test_verify_tables_sweep(pair):
    # orders 44-539 in four regimes, among them the only pairs of the
    # independent regime that any test reaches
    assert verify_tables(*pair) == (True, [])


def test_verify_tables_names_every_corrupted_cell(monkeypatch):
    exp, totals = expected_tables(2, 5), dict(expected_totals(2, 5))
    first = min(exp)
    cross, by_kernel = dict(exp[first].cross), dict(exp[first].by_kernel)
    cross[min(cross)] += 1
    del by_kernel[min(by_kernel)]
    exp[first] = ExpectedType(cross=cross, by_kernel=by_kernel)
    exp["Bogus"] = ExpectedType(cross={"PxPQ": 1}, by_kernel=None)
    totals["B"] += 1
    totals["s"] = 7
    monkeypatch.setattr(report_mod, "expected_tables", lambda p, q: exp)
    monkeypatch.setattr(report_mod, "expected_totals", lambda p, q: totals)
    assert verify_tables(2, 5) == (False, [
        "Bogus: additive type missing from computation",
        "PxQbyP x CyclicP2Q: expected 3, got 2",
        "PxQbyP x QbyP2_ordP2 | ker 1: expected 0, got 1",
        "B(20): expected 33, got 32",
        "s(20): expected 7, got 43",
    ])


@pytest.mark.parametrize(
    "pair, digest",
    [
        ((2, 5), "a0c2ab7ab6af15971fe5d6f2494f4799e209da433b0b164f4f14d4117dfbcf1b"),
        ((3, 7), "2196ca5b652e8c5f8dab9e108ca836153e391d782116f6e64526e36650797c04"),
    ],
)
def test_exports_are_pinned_byte_for_byte(pair, digest):
    rep = classify(*pair)
    rep.timings = dict.fromkeys(rep.timings, 0.0)
    text = "".join(export(rep, fmt) for fmt in ("json", "csv", "md"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_tables_rejects_order12():
    with pytest.raises(ValueError):
        verify_tables(2, 3)


def test_conjecture_order28():
    out = conjecture(2, 7)
    assert out["match"] is True
    assert out["s_computed"] == out["s_formula"] == 29


def test_conjecture_without_closed_form():
    out = conjecture(5, 3)
    assert out["match"] is None
    assert out["s_formula"] is None
    assert out["B_computed"] == 9
