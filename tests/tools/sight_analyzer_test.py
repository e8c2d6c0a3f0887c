#!/usr/bin/env python3
"""Self-test for tools/sight_analyzer.py.

Points the analyzer at the seeded-violation fixtures under
tests/tools/fixtures/analyzer/ (each semantic rule must fire on its BAD
cases and stay silent on the GOOD ones), exercises the suppression and
baseline flows, drives the negative paths (missing/stale
compile_commands.json, unresolvable include after a header rename,
unparseable TU) and asserts they produce actionable exit-2 diagnostics,
and finally proves the acceptance criterion: stripping a
mutation_epoch_ bump from the real SocialGraph makes epoch-discipline
fail.

Run directly or via ctest (registered as sight_analyzer_selftest).
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[2]
ANALYZER = REPO / "tools" / "sight_analyzer.py"
FIXTURES = REPO / "tests" / "tools" / "fixtures" / "analyzer"

PASSED = 0
FAILED = []


def expect(name, cond, detail=""):
    global PASSED
    if cond:
        PASSED += 1
        print(f"  ok  {name}")
    else:
        FAILED.append(name)
        print(f"FAIL  {name}  {detail}")


def make_tree(tmp, rel_sources):
    """Copies fixture files into tmp/src/... and writes a matching
    compile_commands.json under tmp/build/."""
    root = pathlib.Path(tmp)
    entries = []
    for rel in rel_sources:
        dst = root / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / rel, dst)
        if rel.endswith(".cc"):
            entries.append(compile_entry(root, dst))
    write_compile_commands(root, entries)
    return root


def compile_entry(root, path):
    return {
        "directory": str(root),
        "command": f"/usr/bin/c++ -I{root}/src -I{REPO}/src -std=c++20 "
                   f"-c {path}",
        "file": str(path),
    }


def write_compile_commands(root, entries):
    build = root / "build"
    build.mkdir(exist_ok=True)
    (build / "compile_commands.json").write_text(
        json.dumps(entries, indent=2))


def run_analyzer(root, *extra):
    return subprocess.run(
        [sys.executable, str(ANALYZER), "--root", str(root),
         "--build-dir", str(pathlib.Path(root) / "build"),
         "--frontend", "internal", *extra],
        capture_output=True, text=True)


def serving_walk(root):
    """The hot-path-rebuild walk over a fixture tree: {function: caller}
    for every function the serving entry points reach."""
    sys.path.insert(0, str(ANALYZER.parent))
    import sight_analyzer
    root = pathlib.Path(root).resolve()
    entries, cc_path = sight_analyzer.load_compile_commands(root / "build")
    tus = sight_analyzer.gather_tus(entries, cc_path, root, root / "src")
    model, _ = sight_analyzer.build_model(tus, root, root / "src",
                                          "internal")
    return sight_analyzer.call_graph_walk(
        model, sight_analyzer.HOT_PATH_ENTRIES)


def check_rule_case(name, fixture_rel, rule, must_flag, must_not_flag,
                    min_findings):
    """Runs one fixture tree; asserts each `must_flag` function appears
    in a finding of `rule` and no `must_not_flag` function does."""
    with tempfile.TemporaryDirectory() as tmp:
        root = make_tree(tmp, [fixture_rel])
        proc = run_analyzer(root, "--rule", rule)
        findings = [ln for ln in proc.stdout.splitlines()
                    if f"[{rule}]" in ln]
        expect(f"{name}: exits 1 with findings", proc.returncode == 1,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")
        expect(f"{name}: >= {min_findings} findings",
               len(findings) >= min_findings,
               f"got {len(findings)}:\n{proc.stdout}")
        for fn in must_flag:
            expect(f"{name}: flags {fn}",
                   any(fn in ln for ln in findings), proc.stdout)
        for fn in must_not_flag:
            expect(f"{name}: does not flag {fn}",
                   not any(fn in ln for ln in findings), proc.stdout)
        return proc


def main():
    # --- each rule fires on its seeded fixture ---------------------------
    check_rule_case(
        "epoch", "src/graph/epoch_fixture.cc", "epoch-discipline",
        must_flag=["AddUserBad", "AddEdgeBad", "SetBad"],
        must_not_flag=["AddGood", "AddManyGood", "NumUsersGood",
                       "ReserveSuppressed", "ScratchBuffer"],
        min_findings=3)

    proc = check_rule_case(
        "lock", "src/service/lock_fixture.cc", "lock-discipline",
        must_flag=["DirectBad", "SubmitBad", "TransitiveBad",
                   "CvTwoLocksBad"],
        must_not_flag=["ScopedOk", "CvOk", "UnlockOk", "SuppressedBad"],
        min_findings=5)
    expect("lock: reports the ABBA inversion",
           "inconsistent lock order" in proc.stdout and
           "OrderAB" in proc.stdout or "OrderBA" in proc.stdout,
           proc.stdout)
    expect("lock: transitive finding shows a witness chain",
           re.search(r"TransitiveBad.*Helper.*->", proc.stdout) is not None,
           proc.stdout)

    check_rule_case(
        "hot-path", "src/service/hot_fixture.cc", "hot-path-rebuild",
        must_flag=["EncodedProfileTable::Build", "Compact()",
                   "ProfileCodec construction",
                   "graph.Compact() is reachable from the serving path "
                   "(RiskService::DrainShard -> Helper)"],
        must_not_flag=["Refresh", "OfflineRebuild"],
        min_findings=5)

    check_rule_case(
        "status", "src/core/status_fixture.cc", "status-discipline",
        must_flag=["CloseBad", "TickBad", "MaybeBad", "ParseBad"],
        must_not_flag=["CloseOk", "TickOk", "ForwardOk", "CountOk",
                       "SuppressedOk"],
        min_findings=4)

    with tempfile.TemporaryDirectory() as tmp:
        root = make_tree(tmp, ["src/core/round_fixture.cc",
                               "src/service/round_collision_fixture.cc"])
        proc = run_analyzer(root, "--rule", "round-path-hash")
        findings = [ln for ln in proc.stdout.splitlines()
                    if "[round-path-hash]" in ln]
        expect("round-path: exits 1 with findings", proc.returncode == 1,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")
        expect("round-path: exactly 2 findings", len(findings) == 2,
               proc.stdout)
        expect("round-path: flags the hash set of a transitive callee",
               any("CheckIndices declares a std::unordered_set"
                   in ln and "PoolLearner::RunRound -> "
                   "PoolLearner::Repredict -> CheckIndices" in ln
                   for ln in findings), proc.stdout)
        expect("round-path: flags the map of a direct callee",
               any("PoolLearner::Repredict declares a std::unordered_map"
                   in ln for ln in findings), proc.stdout)
        for fn in ["CheckIndicesDense", "CreateLearners", "Service::Submit"]:
            expect(f"round-path: does not flag {fn}",
                   not any(fn in ln for ln in findings), proc.stdout)

    # A util-layer pool->Submit() resolves within util/ and below, never to
    # the service method of the same name, whose Compact() the drain path
    # therefore does not reach; the walk still enters the util pool.
    with tempfile.TemporaryDirectory() as tmp:
        root = make_tree(tmp, ["src/util/pool_fixture.cc",
                               "src/service/submit_collision_fixture.cc"])
        proc = run_analyzer(root, "--rule", "hot-path-rebuild")
        expect("submit-collision: exits 0 with no findings",
               proc.returncode == 0 and
               "[hot-path-rebuild]" not in proc.stdout,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")
        walk = serving_walk(root)
        expect("submit-collision: the drain path reaches ThreadPool::Submit",
               walk.get("ThreadPool::Submit") == "ParallelFor", str(walk))
        expect("submit-collision: ... and not RiskService::Submit",
               "RiskService::Submit" not in walk, str(walk))

    # --- suppressed findings are visible under --verbose -----------------
    with tempfile.TemporaryDirectory() as tmp:
        root = make_tree(tmp, ["src/core/status_fixture.cc"])
        proc = run_analyzer(root, "--rule", "status-discipline",
                            "--verbose")
        expect("verbose lists the suppressed finding",
               "suppressed:" in proc.stdout and
               "SuppressedOk" in proc.stdout, proc.stdout)

    # --- clean tree exits 0 ----------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        f = root / "src" / "core" / "clean.cc"
        f.parent.mkdir(parents=True)
        f.write_text("namespace sight {\n"
                     "int Add(int a, int b) { return a + b; }\n"
                     "}  // namespace sight\n")
        write_compile_commands(root, [compile_entry(root, f)])
        proc = run_analyzer(root)
        expect("clean tree exits 0", proc.returncode == 0,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")

    # --- baseline flow: write, then re-run clean -------------------------
    with tempfile.TemporaryDirectory() as tmp:
        root = make_tree(tmp, ["src/core/status_fixture.cc"])
        baseline = root / "baseline.json"
        proc = run_analyzer(root, "--baseline", str(baseline),
                            "--write-baseline")
        expect("--write-baseline exits 0", proc.returncode == 0,
               proc.stderr)
        data = json.loads(baseline.read_text())
        expect("baseline records the findings",
               len(data["findings"]) >= 4, baseline.read_text())
        proc = run_analyzer(root, "--baseline", str(baseline))
        expect("baselined tree exits 0", proc.returncode == 0,
               f"rc={proc.returncode}\n{proc.stdout}")
        expect("summary counts baselined findings",
               "baselined" in proc.stderr, proc.stderr)

    # --- negative path: missing compile_commands.json --------------------
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        proc = run_analyzer(root)
        expect("missing compile_commands exits 2", proc.returncode == 2,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")
        expect("missing compile_commands names the fix",
               "cmake -B build" in proc.stderr, proc.stderr)

    # --- negative path: stale entry (source deleted/renamed) -------------
    with tempfile.TemporaryDirectory() as tmp:
        root = make_tree(tmp, ["src/core/status_fixture.cc"])
        gone = root / "src" / "core" / "renamed_away.cc"
        entries = json.loads(
            (root / "build" / "compile_commands.json").read_text())
        entries.append(compile_entry(root, gone))
        write_compile_commands(root, entries)
        proc = run_analyzer(root)
        expect("stale compile commands exit 2", proc.returncode == 2,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")
        expect("stale diagnostic says to re-configure",
               "stale" in proc.stderr and "configure" in proc.stderr,
               proc.stderr)

    # --- negative path: header renamed after configure -------------------
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        f = root / "src" / "core" / "uses_header.cc"
        f.parent.mkdir(parents=True)
        f.write_text('#include "core/renamed_header.h"\n'
                     "namespace sight {\nvoid F() {}\n}\n")
        write_compile_commands(root, [compile_entry(root, f)])
        proc = run_analyzer(root)
        expect("unresolvable include exits 2", proc.returncode == 2,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")
        expect("include diagnostic names the header",
               "renamed_header.h" in proc.stderr and
               "renamed or removed" in proc.stderr, proc.stderr)

    # --- negative path: unparseable TU -----------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        dst = root / "src" / "broken" / "unbalanced.cc"
        dst.parent.mkdir(parents=True)
        shutil.copy(FIXTURES / "broken" / "unbalanced.cc", dst)
        write_compile_commands(root, [compile_entry(root, dst)])
        proc = run_analyzer(root)
        expect("unparseable TU exits 2 (no crash)", proc.returncode == 2,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")
        expect("parse diagnostic is actionable",
               "failed to parse" in proc.stderr or
               "unterminated" in proc.stderr, proc.stderr)

    # --- CLI: --list-rules ------------------------------------------------
    proc = subprocess.run(
        [sys.executable, str(ANALYZER), "--list-rules"],
        capture_output=True, text=True)
    expect("--list-rules names all five rules",
           proc.returncode == 0 and all(
               r in proc.stdout for r in
               ["epoch-discipline", "lock-discipline", "hot-path-rebuild",
                "status-discipline", "round-path-hash"]), proc.stdout)

    # --- acceptance criterion: stripping a real bump fails the build -----
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        graph_dir = root / "src" / "graph"
        graph_dir.mkdir(parents=True)
        shutil.copy(REPO / "src" / "graph" / "social_graph.h", graph_dir)
        cc_text = (REPO / "src" / "graph" /
                   "social_graph.cc").read_text()
        assert "++mutation_epoch_;" in cc_text
        idx = cc_text.rfind("++mutation_epoch_;")
        stripped = cc_text[:idx] + cc_text[idx + len("++mutation_epoch_;"):]
        (graph_dir / "social_graph.cc").write_text(stripped)
        write_compile_commands(root, [
            compile_entry(root, graph_dir / "social_graph.cc")])
        proc = run_analyzer(root, "--rule", "epoch-discipline")
        expect("stripping a real SocialGraph bump fails epoch-discipline",
               proc.returncode == 1 and
               "[epoch-discipline]" in proc.stdout and
               "SocialGraph" in proc.stdout,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")
        # ... and the pristine sources pass.
        shutil.copy(REPO / "src" / "graph" / "social_graph.cc", graph_dir)
        proc = run_analyzer(root, "--rule", "epoch-discipline")
        expect("pristine SocialGraph passes epoch-discipline",
               proc.returncode == 0,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")

    print(f"\n{PASSED} passed, {len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
