#!/usr/bin/env python3
"""Self-test for tools/sight_lint.py.

Seeds a violation of every lint rule in a scratch src/ tree and asserts the
linter reports exactly the expected rule, then checks the clean-idiom cases
(ok()-guarded .value(), thread_pool allowlist) are NOT flagged. Finally it
proves the compiler side of status discipline: a dropped [[nodiscard]]
Status fails to compile under -Werror=unused-result against the real
util/status.h, and the sanctioned escape hatch (IgnoreError) passes.

Run directly or via ctest (registered as sight_lint_selftest).
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[2]
LINT = REPO / "tools" / "sight_lint.py"

PASSED = 0
FAILED = []


def run_lint(root):
    return subprocess.run(
        [sys.executable, str(LINT), "--root", str(root)],
        capture_output=True, text=True)


def expect(name, cond, detail=""):
    global PASSED
    if cond:
        PASSED += 1
        print(f"  ok  {name}")
    else:
        FAILED.append(name)
        print(f"FAIL  {name}  {detail}")


def lint_case(name, rel_path, content, want_rule, tree="src"):
    """Lints a one-file src/ (or tests/) tree; asserts `want_rule` fires
    (or, when want_rule is None, that the tree is clean)."""
    with tempfile.TemporaryDirectory() as tmp:
        if tree != "src":
            # The linter requires src/ to exist even for tests/-only runs.
            (pathlib.Path(tmp) / "src").mkdir()
        f = pathlib.Path(tmp) / tree / rel_path
        f.parent.mkdir(parents=True)
        f.write_text(content)
        proc = run_lint(tmp)
        if want_rule is None:
            expect(name, proc.returncode == 0,
                   f"expected clean, got:\n{proc.stdout}")
        else:
            expect(name,
                   proc.returncode == 1 and f"[{want_rule}]" in proc.stdout,
                   f"expected [{want_rule}], got rc={proc.returncode}:\n"
                   f"{proc.stdout}")


def main():
    # --- seeded violations: one per rule ---------------------------------
    lint_case("missing [[nodiscard]] on Status function", "core/foo.h",
              "Status DoThing(int x);\n", "nodiscard-status")
    lint_case("missing [[nodiscard]] on Result function", "core/foo.h",
              "static Result<double> Compute(int x);\n", "nodiscard-status")
    lint_case("raw throw", "core/foo.cc",
              "void F() { throw 42; }\n", "no-exceptions")
    lint_case("try/catch block", "core/foo.cc",
              "void F() {\n  try {\n    G();\n  } catch (...) {\n  }\n}\n",
              "no-exceptions")
    lint_case("std::cout in library code", "core/foo.cc",
              '#include <iostream>\nvoid F() { std::cout << "x"; }\n',
              "no-raw-stdio")
    lint_case("std::cerr in library code", "core/foo.cc",
              '#include <iostream>\nvoid F() { std::cerr << "x"; }\n',
              "no-raw-stdio")
    lint_case("naked .value() without ok() check", "core/foo.cc",
              "double F() {\n"
              "  auto r = Compute(3);\n"
              "  return r.value();\n"
              "}\n", "checked-value")
    lint_case("naked .value() on moved temporary", "core/foo.cc",
              "double F() {\n"
              "  auto r = Compute(3);\n"
              "  return std::move(r).value();\n"
              "}\n", "checked-value")
    lint_case("std::thread outside thread_pool", "core/foo.cc",
              "#include <thread>\n"
              "void F() { std::thread t([] {}); t.join(); }\n",
              "no-raw-thread")
    lint_case("std::async outside thread_pool", "core/foo.cc",
              "#include <future>\n"
              "void F() { auto f = std::async([] {}); }\n",
              "no-raw-thread")
    lint_case("direct RiskEngine::Create outside src/service", "core/foo.cc",
              "void F() {\n"
              "  auto engine = RiskEngine::Create(RiskEngineConfig{});\n"
              "  SIGHT_CHECK(engine.ok());\n"
              "}\n", "no-direct-engine")
    lint_case("EncodedProfileTable::Build inside src/service",
              "service/foo.cc",
              "void F(const ProfileTable& profiles,\n"
              "       const std::vector<UserId>& members) {\n"
              "  auto enc = EncodedProfileTable::Build(profiles, members);\n"
              "}\n", "no-hot-rebuild")

    lint_case("x < lo || x > hi interval test", "core/foo.cc",
              "Status F(double v) {\n"
              "  if (v < kMin || v > kMax) return Status::OutOfRange(\"v\");\n"
              "  return Status::OK();\n"
              "}\n", "nan-interval")
    lint_case("x > hi || x < lo interval test (either order)", "core/foo.cc",
              "Status F(const Labels& labels) {\n"
              "  for (const auto& [user, value] : labels) {\n"
              "    if (value >= kMax ||\n"
              "        value <= kMin) {\n"
              "      return Status::OutOfRange(\"v\");\n"
              "    }\n"
              "  }\n"
              "  return Status::OK();\n"
              "}\n", "nan-interval")

    lint_case("upward include is flagged", "graph/foo.cc",
              '#include "util/status.h"\n'
              '#include "core/risk_engine.h"\n', "layering")
    lint_case("same-layer include is flagged", "learning/foo.cc",
              '#include "clustering/squeezer.h"\n', "layering")
    lint_case("a module outside the layers is flagged", "extras/foo.cc",
              '#include "util/status.h"\n', "layering")
    lint_case("const_cast in library code", "graph/foo.cc",
              "const Profile& Table::Get(UserId u) const {\n"
              "  const_cast<Table*>(this)->missing_.values.resize(n_);\n"
              "  return missing_;\n"
              "}\n", "no-const-cast")

    # --- multiline + commented-out hardening -----------------------------
    lint_case("multiline RiskEngine::Create is caught", "core/foo.cc",
              "void F() {\n"
              "  auto engine = RiskEngine::\n"
              "      Create(RiskEngineConfig{});\n"
              "}\n", "no-direct-engine")
    lint_case("multiline EncodedProfileTable::Build is caught",
              "service/foo.cc",
              "void F(const ProfileTable& profiles) {\n"
              "  auto enc = EncodedProfileTable\n"
              "      ::Build(profiles, members);\n"
              "}\n", "no-hot-rebuild")
    lint_case("commented-out RiskEngine::Create is clean", "core/foo.cc",
              "// auto engine = RiskEngine::Create(RiskEngineConfig{});\n"
              "/* RiskEngine::\n"
              "   Create(config) */\n"
              "void F();\n", None)
    lint_case("commented-out Build in service is clean", "service/foo.cc",
              "// auto enc = EncodedProfileTable::Build(profiles, m);\n"
              "void F();\n", None)
    lint_case("Build in a string literal is clean", "service/foo.cc",
              'const char* kHelp = "EncodedProfileTable::Build";\n', None)

    # --- no-sleep-in-tests -----------------------------------------------
    lint_case("sleep_for in tests is flagged", "service/foo_test.cc",
              "#include <thread>\n"
              "void F() {\n"
              "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
              "}\n", "no-sleep-in-tests", tree="tests")
    lint_case("sleep_until in tests is flagged", "service/foo_test.cc",
              "#include <thread>\n"
              "void F(std::chrono::steady_clock::time_point t) {\n"
              "  std::this_thread::sleep_until(t);\n"
              "}\n", "no-sleep-in-tests", tree="tests")
    lint_case("wrapped sleep_for in tests is flagged", "service/foo_test.cc",
              "void F() {\n"
              "  std::this_thread::\n"
              "      sleep_for(std::chrono::seconds(1));\n"
              "}\n", "no-sleep-in-tests", tree="tests")
    lint_case("condition-based wait in tests is clean", "service/foo_test.cc",
              "void F(sight::RiskService* service) {\n"
              "  auto snapshot = service->WaitFor(kOwner, 1);\n"
              "}\n", None, tree="tests")
    lint_case("commented-out sleep in tests is clean", "service/foo_test.cc",
              "// std::this_thread::sleep_for(kTick);  // was flaky\n"
              "void F();\n", None, tree="tests")
    lint_case("src/ rules do not fire in tests/", "core/foo_test.cc",
              "#include <thread>\n"
              "void F() { std::thread t([] {}); t.join(); }\n",
              None, tree="tests")

    # --- tool errors are exit 2, not findings ----------------------------
    with tempfile.TemporaryDirectory() as tmp:
        f = pathlib.Path(tmp) / "src" / "core" / "bad.cc"
        f.parent.mkdir(parents=True)
        f.write_bytes(b"\xff\xfe invalid utf-8 \xff void F();\n")
        proc = run_lint(tmp)
        expect("undecodable file exits 2 (tool error, not findings)",
               proc.returncode == 2 and "cannot lint" in proc.stderr,
               f"rc={proc.returncode}\n{proc.stdout}{proc.stderr}")

    lint_case("NaN-safe interval test is clean", "core/foo.cc",
              "Status F(double v) {\n"
              "  if (!(v >= kMin && v <= kMax)) {\n"
              "    return Status::OutOfRange(\"v\");\n"
              "  }\n"
              "  return Status::OK();\n"
              "}\n", None)
    lint_case("bounds on different operands are clean", "core/foo.cc",
              "bool F(size_t i, size_t j, size_t n) {\n"
              "  return i < first || j > last || n == 0;\n"
              "}\n", None)

    # --- clean idioms must NOT be flagged --------------------------------
    lint_case("[[nodiscard]] declaration is clean", "core/foo.h",
              "[[nodiscard]] Status DoThing(int x);\n"
              "[[nodiscard]] static Result<double> Compute(int x);\n", None)
    lint_case("ok()-guarded .value() is clean", "core/foo.cc",
              "double F() {\n"
              "  auto r = Compute(3);\n"
              "  if (!r.ok()) return 0.0;\n"
              "  return r.value();\n"
              "}\n", None)
    lint_case("SIGHT_CHECK(ok()) then moved .value() is clean",
              "core/foo.cc",
              "Schema F() {\n"
              "  auto schema = Schema::Create({});\n"
              "  SIGHT_CHECK(schema.ok());\n"
              "  return std::move(schema).value();\n"
              "}\n", None)
    lint_case("ok() check does not leak across functions", "core/foo.cc",
              "double G() {\n"
              "  auto a = Compute(1);\n"
              "  if (!a.ok()) return 0.0;\n"
              "  return a.value();\n"
              "}\n"
              "double F() {\n"
              "  auto a = Compute(3);\n"
              "  return a.value();\n"
              "}\n", "checked-value")
    lint_case("std::thread inside util/thread_pool is allowed",
              "util/thread_pool.cc",
              "#include <thread>\n"
              "void Pool() { std::thread t([] {}); t.join(); }\n", None)
    lint_case("RiskEngine::Create inside src/service is allowed",
              "service/risk_service.cc",
              "Status F() {\n"
              "  SIGHT_ASSIGN_OR_RETURN(RiskEngine engine,\n"
              "                         RiskEngine::Create(config.engine));\n"
              "  return Status::OK();\n"
              "}\n", None)
    lint_case("EncodedProfileTable::Build outside src/service is allowed",
              "graph/profile_codec.cc",
              "void F(const ProfileTable& profiles,\n"
              "       const std::vector<UserId>& members) {\n"
              "  auto enc = EncodedProfileTable::Build(profiles, members);\n"
              "}\n", None)
    lint_case("own-module and downward includes are clean", "core/foo.cc",
              '#include "core/nsg.h"\n'
              '#include "similarity/ps_kernels.h"\n'
              '#include "util/status.h"\n'
              "#include <vector>\n", None)
    lint_case("commented-out upward include is clean", "graph/foo.cc",
              '// #include "core/risk_engine.h"\n'
              'const char* k = "#include \\"io/labels_io.h\\"";\n', None)
    lint_case("const_cast in a comment or a string is clean", "graph/foo.cc",
              "// No const_cast<Table*>(this) here: reads never write.\n"
              'const char* kWhy = "const_cast is not allowed";\n', None)
    lint_case("comments and strings are ignored", "core/foo.cc",
              "// try to throw std::cout at a std::thread\n"
              'const char* k = "throw try std::cerr";\n', None)
    lint_case("ProfileTable::value(attr) with args is not a Result access",
              "core/foo.cc",
              "std::string F(const Profile& p, AttributeId a) {\n"
              "  return p.value(a);\n"
              "}\n", None)

    # --- the whole repo must be clean ------------------------------------
    proc = run_lint(REPO)
    expect("repository src/ is lint-clean", proc.returncode == 0,
           proc.stdout)

    # --- compiler side: dropped Status is a hard error -------------------
    gxx = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
    if gxx:
        def compiles(body):
            with tempfile.TemporaryDirectory() as tmp:
                cc = pathlib.Path(tmp) / "drop.cc"
                cc.write_text(
                    '#include "util/status.h"\n'
                    "using sight::Status;\n"
                    "Status Step() { return Status::OK(); }\n"
                    f"void Run() {{ {body} }}\n")
                return subprocess.run(
                    [gxx, "-std=c++20", "-fsyntax-only", "-Wall",
                     "-Werror=unused-result", "-I", str(REPO / "src"),
                     str(cc)],
                    capture_output=True, text=True).returncode == 0

        expect("dropped Status fails to compile", not compiles("Step();"))
        expect("checked Status compiles",
               compiles("if (!Step().ok()) return;"))
        expect("IgnoreError() escape hatch compiles",
               compiles("Step().IgnoreError();"))
    else:
        print("  skip  compiler checks (no C++ compiler on PATH)")

    print(f"\n{PASSED} passed, {len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
