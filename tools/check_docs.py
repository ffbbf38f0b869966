#!/usr/bin/env python3
"""Doc-drift gate: fails when the code and the documentation disagree.

Checks the fast CI lane enforces:
  1. Every --flag defined in tools/snowboard_cli.cc appears somewhere in README.md.
  2. Every tests/*_test.cc file is registered in tests/CMakeLists.txt (a test file that
     exists but never builds is silently dead coverage).
  3. Every bench/bench_*.cc file is registered in bench/CMakeLists.txt (same dead-coverage
     hazard as tests: an unregistered bench silently stops building).
  4. Every seeded issue in the IssueCatalog has a repro test: detector-tier issues
     (deadlock / lost-wakeup / livelock) need a named Issue<id> test in
     tests/detector_bug_repro_test.cc; fuzz-tier issues must fall inside the id bound the
     catalog-driven campaign test in tests/bug_repro_test.cc asserts over.
  5. Every detector kind name emitted by FindingKindName() appears (backtick-quoted) in
     README.md's detector table.
  6. Every fleet API endpoint (the kRoutes table in src/snowboard/serve_http.cc) appears
     backtick-quoted as `METHOD /path` in docs/OPERATIONS.md — the dispatcher and the
     operator guide share one source of truth.
  7. Every --flag defined in tools/snowboard_serve.cc appears in README.md AND in
     docs/OPERATIONS.md (the daemon is operated from the guide, not the README).
  8. Every docs/*.md file is referenced from README.md (an unlinked guide is dead docs).
  9. The "Every key" list in docs/OPERATIONS.md names exactly the campaign-spec keys
     SerializeCampaignSpec (src/snowboard/serve.cc) emits — operators author spec.txt
     bodies from the guide, so an undocumented key is an unusable knob and a listed key
     the serializer no longer writes is a dead one.
 10. Every pattern in a tests/CMakeLists.txt label filter (SB_*_TEST_FILTER) matches at
     least one TEST in tests/*.cc — a stale pattern silently empties or shrinks a lane.
 11. Every row of EXPERIMENTS.md's Summary table names, in backticks, at least one test
     that checks its claim — a bench binary registered with sb_bench(...) (the `paper`
     ctest label) or a Suite.Name gtest — and no stale one; every sb_bench binary appears
     in some row. A claim no test checks belongs in the text as a record, not in the table.

Usage: check_docs.py [repo_root]   (default: parent of this script's directory)
"""

import fnmatch
import pathlib
import re
import sys


def cli_flags(cli_source: str) -> set:
    """Flags the CLI accepts: entries of the per-command FlagInfo tables.

    Matching the table entries (rather than every "--word" in the file) keeps prose like
    "--key value" in comments from being treated as a flag definition.
    """
    # A FlagInfo row is {"name", VALUE_NAME, "help"} where VALUE_NAME is nullptr or an
    # all-caps placeholder ("FILE", "[N]"); CommandInfo rows carry a lowercase summary
    # there and StrategyTable names are uppercase, so neither matches.
    return set(re.findall(r'^\s*\{"([a-z][a-z0-9-]*)",\s*(?:nullptr|"\[?[A-Z]+\]?")',
                          cli_source, re.MULTILINE))


def serve_routes(http_source: str) -> list:
    """(method, path) for every kRoutes row in serve_http.cc.

    A route row is `{"METHOD", "/path", "summary"}`; anchoring on the leading slash of
    the second field keeps other brace-initialized string pairs out.
    """
    match = re.search(r"kRoutes\[\]\s*=\s*\{(.*?)\n\};", http_source, re.DOTALL)
    return re.findall(r'\{"(GET|POST|PUT|DELETE)",\s*"(/[^"]*)"',
                      match.group(1) if match else "")


# Issue types seeded for the hang-gated detectors: found only by handcrafted concurrent
# tests (the fuzzer's syscall vocabulary is frozen), so each needs a named reproducer.
DETECTOR_ISSUE_TYPES = {"Deadlock", "LostWakeup", "Livelock"}


def catalog_issues(report_source: str) -> list:
    """(id, type) for every IssueCatalog entry.

    Catalog rows are `{<id>, "<summary>", IssueType::k<Type>, ...}`; the classifier
    pattern tables in the same file also open with `{<id>, "` but never mention
    IssueType, so anchoring on it keeps them out.
    """
    return [(int(issue_id), issue_type) for issue_id, issue_type in
            re.findall(r"\{(\d+),[^{}]*?IssueType::k(\w+)", report_source, re.DOTALL)]


def campaign_spec_keys(serve_source: str) -> list:
    """The keys SerializeCampaignSpec writes, one `StrAppendf(&out, "key ...")` each."""
    match = re.search(r"SerializeCampaignSpec\(const CampaignSpec& spec\) \{(.*?)\n\}",
                      serve_source, re.DOTALL)
    return re.findall(r'StrAppendf\(&out, "([a-z][a-z0-9-]*) ',
                      match.group(1) if match else "")


def documented_spec_keys(operations: str) -> list:
    """The backtick-quoted keys of OPERATIONS.md's "Every key, for grepping:" paragraph."""
    match = re.search(r"Every key, for grepping:(.*?)\n\n", operations, re.DOTALL)
    return re.findall(r"`([a-z][a-z0-9-]*)`", match.group(1) if match else "")


def label_filter_patterns(tests_cmake: str) -> dict:
    """Lane variable -> its gtest filter patterns, from set(SB_<LANE>_TEST_FILTER "...")."""
    return {name: value.split(":") for name, value in
            re.findall(r'set\((SB_\w+_TEST_FILTER)\s+"([^"]*)"\)', tests_cmake)}


def gtest_names(test_sources: list) -> list:
    """Full names as gtest prints them: Suite.Name, or Prefix/Suite.Name/0 for TEST_P."""
    names = []
    for source in test_sources:
        for macro, suite, name in re.findall(r"^(TEST(?:_F|_P)?)\((\w+),\s*(\w+)\)",
                                             source, re.MULTILINE):
            names.append(f"Prefix/{suite}.{name}/0" if macro == "TEST_P" else
                         f"{suite}.{name}")
    return names


def summary_rows(experiments: str) -> list:
    """The body rows of the table under EXPERIMENTS.md's "## Summary" heading."""
    match = re.search(r"^## Summary\n(.*?)(?=^## |\Z)", experiments, re.MULTILINE | re.DOTALL)
    rows = [line for line in (match.group(1) if match else "").splitlines()
            if line.startswith("|")]
    return rows[2:]  # Drop the header and its |---| separator.


def test_like_names(row: str) -> list:
    """Backticked names in a table row that look like a bench binary or a gtest Suite.Name."""
    return [name for name in re.findall(r"`([^`]+)`", row)
            if re.fullmatch(r"bench_\w+|[A-Z]\w*\.[A-Z]\w*", name)]


def detector_kind_names(detectors_source: str) -> list:
    """The strings FindingKindName() can return, minus the unreachable fallback."""
    match = re.search(r"FindingKindName\(FindingKind kind\) \{(.*?)\n\}",
                      detectors_source, re.DOTALL)
    names = re.findall(r'return "([a-z-]+)";', match.group(1) if match else "")
    return [name for name in names if name != "unknown"]


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    errors = []

    cli = (root / "tools" / "snowboard_cli.cc").read_text()
    readme = (root / "README.md").read_text()
    for flag in sorted(cli_flags(cli)):
        if f"--{flag}" not in readme:
            errors.append(f"README.md does not document snowboard_cli flag --{flag}")

    tests_cmake = (root / "tests" / "CMakeLists.txt").read_text()
    for test_file in sorted((root / "tests").glob("*_test.cc")):
        if test_file.name not in tests_cmake:
            errors.append(f"tests/CMakeLists.txt does not register {test_file.name}")

    bench_cmake = (root / "bench" / "CMakeLists.txt").read_text()
    for bench_file in sorted((root / "bench").glob("bench_*.cc")):
        if f"sb_bench({bench_file.stem})" not in bench_cmake:
            errors.append(f"bench/CMakeLists.txt does not register {bench_file.name}")

    report = (root / "src" / "snowboard" / "report.cc").read_text()
    issues = catalog_issues(report)
    if not issues:
        errors.append("could not parse any IssueCatalog entries from report.cc")
    detector_repro = (root / "tests" / "detector_bug_repro_test.cc").read_text()
    campaign_repro = (root / "tests" / "bug_repro_test.cc").read_text()
    # The campaign repro test walks IssueCatalog() and asserts every id up to its bound is
    # rediscovered by the fuzzed campaign; ids above the bound are detector prey.
    bound_match = re.search(r"issue\.id <= (\d+)", campaign_repro)
    fuzz_bound = int(bound_match.group(1)) if bound_match else 0
    for issue_id, issue_type in issues:
        if issue_type in DETECTOR_ISSUE_TYPES:
            if f"Issue{issue_id}" not in detector_repro:
                errors.append(f"detector_bug_repro_test.cc has no Issue{issue_id} repro "
                              f"test for catalog issue #{issue_id} ({issue_type})")
        elif issue_id > fuzz_bound:
            errors.append(f"bug_repro_test.cc's campaign bound ({fuzz_bound}) does not "
                          f"cover fuzz-tier catalog issue #{issue_id}")

    detectors_src = (root / "src" / "snowboard" / "detectors.cc").read_text()
    kinds = detector_kind_names(detectors_src)
    if not kinds:
        errors.append("could not parse any kind names from FindingKindName()")
    for kind in kinds:
        if f"`{kind}`" not in readme:
            errors.append(f"README.md's detector table does not mention kind `{kind}`")

    operations = (root / "docs" / "OPERATIONS.md").read_text()
    serve_http = (root / "src" / "snowboard" / "serve_http.cc").read_text()
    routes = serve_routes(serve_http)
    if not routes:
        errors.append("could not parse any kRoutes entries from serve_http.cc")
    for method, path in routes:
        if f"`{method} {path}`" not in operations:
            errors.append(f"docs/OPERATIONS.md does not document fleet endpoint "
                          f"`{method} {path}`")

    serve = (root / "tools" / "snowboard_serve.cc").read_text()
    for flag in sorted(cli_flags(serve)):
        if f"--{flag}" not in readme:
            errors.append(f"README.md does not document snowboard_serve flag --{flag}")
        if f"--{flag}" not in operations:
            errors.append(f"docs/OPERATIONS.md does not document snowboard_serve "
                          f"flag --{flag}")

    serve_core = (root / "src" / "snowboard" / "serve.cc").read_text()
    spec_keys = campaign_spec_keys(serve_core)
    if not spec_keys:
        errors.append("could not parse any SerializeCampaignSpec keys from serve.cc")
    documented_keys = documented_spec_keys(operations)
    for key in sorted(set(spec_keys) - set(documented_keys)):
        errors.append(f"docs/OPERATIONS.md's key list does not document campaign-spec key "
                      f"`{key}`")
    for key in sorted(set(documented_keys) - set(spec_keys)):
        errors.append(f"docs/OPERATIONS.md's key list names `{key}`, which "
                      f"SerializeCampaignSpec does not write")

    lanes = label_filter_patterns(tests_cmake)
    if not lanes:
        errors.append("could not parse any SB_*_TEST_FILTER from tests/CMakeLists.txt")
    tests = gtest_names([f.read_text() for f in sorted((root / "tests").glob("*.cc"))])
    for lane, patterns in sorted(lanes.items()):
        for pattern in patterns:
            if not any(fnmatch.fnmatchcase(test, pattern) for test in tests):
                errors.append(f"tests/CMakeLists.txt {lane} pattern {pattern!r} matches "
                              f"no TEST in tests/*.cc")

    benches = re.findall(r"^sb_bench\((\w+)\)", bench_cmake, re.MULTILINE)
    rows = summary_rows((root / "EXPERIMENTS.md").read_text())
    if not rows:
        errors.append("could not parse EXPERIMENTS.md's Summary table")
    known = set(benches) | set(tests)
    for row in rows:
        names = test_like_names(row)
        experiment = row.split("|")[1].strip()
        for name in names:
            if name not in known:
                errors.append(f"EXPERIMENTS.md Summary row {experiment!r} names `{name}`, "
                              f"which is neither an sb_bench binary nor a TEST")
        if not any(name in known for name in names):
            errors.append(f"EXPERIMENTS.md Summary row {experiment!r} names no test that "
                          f"checks its claim")
    for bench in benches:
        if not any(f"`{bench}`" in row for row in rows):
            errors.append(f"EXPERIMENTS.md's Summary table has no row checked by `{bench}`")

    for doc_file in sorted((root / "docs").glob("*.md")):
        if f"docs/{doc_file.name}" not in readme:
            errors.append(f"README.md does not reference docs/{doc_file.name}")

    if errors:
        for error in errors:
            print(f"check_docs: {error}", file=sys.stderr)
        print(f"check_docs: {len(errors)} doc-drift error(s)", file=sys.stderr)
        return 1
    print("check_docs: CLI and serve flags documented, test and bench files registered, "
          "issues repro-covered, detector kinds documented, fleet endpoints and "
          "campaign-spec keys covered, lane filters live, paper claims tested; no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
