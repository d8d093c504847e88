/**
 * @file
 * dynaspam-analyze driver.
 *
 *   dynaspam-analyze [--root DIR] [--check NAME]... [--json]
 *   dynaspam-analyze --selftest DIR
 *   dynaspam-analyze --list-checks
 *
 * Default mode scans every .cc/.hh under <root>/src with the token
 * engine and prints findings as `file:line: [check] message`. Exit
 * codes: 0 clean, 1 findings, 2 usage/environment error.
 *
 * --selftest runs each fixture in DIR against the check named by its
 * file-name prefix (`<check>__description.cc`) and fails unless every
 * fixture's seeded violation is detected — the proof that each check
 * actually fires. Fixture file names may also carry a `clean` marker
 * (`<check>__clean_*.cc`) asserting the check does NOT fire, pinning
 * the escape-comment conventions.
 */

#include "analysis.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

namespace analyze = dynaspam::analyze;
namespace fs = std::filesystem;

namespace
{

struct Options
{
    std::string root = ".";
    std::vector<std::string> only;   ///< empty = every check
    std::string selftestDir;
    bool json = false;
    bool listChecks = false;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--root DIR] [--check NAME]... [--json]\n"
        "       %s --selftest FIXTURE_DIR\n"
        "       %s --list-checks\n",
        argv0, argv0, argv0);
    return 2;
}

bool
checkEnabled(const Options &opt, const std::string &name)
{
    return opt.only.empty() ||
           std::find(opt.only.begin(), opt.only.end(), name) !=
               opt.only.end();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
printFindings(const std::vector<analyze::Finding> &findings, bool json)
{
    if (!json) {
        for (const auto &f : findings)
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                        f.check.c_str(), f.message.c_str());
        return;
    }
    std::printf("[");
    for (std::size_t i = 0; i < findings.size(); i++) {
        const auto &f = findings[i];
        std::printf(
            "%s\n  {\"check\": \"%s\", \"file\": \"%s\", "
            "\"line\": %d, \"message\": \"%s\"}",
            i ? "," : "", f.check.c_str(), jsonEscape(f.file).c_str(),
            f.line, jsonEscape(f.message).c_str());
    }
    std::printf("\n]\n");
}

/** Every .cc/.hh under root/src, sorted for deterministic output. */
std::vector<fs::path>
collectSources(const fs::path &root)
{
    std::vector<fs::path> files;
    const fs::path src = root / "src";
    if (!fs::is_directory(src))
        return files;
    for (const auto &entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file())
            continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".cc" || ext == ".hh")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

int
runScan(const Options &opt)
{
    const fs::path root(opt.root);
    const std::vector<fs::path> files = collectSources(root);
    if (files.empty()) {
        std::fprintf(stderr,
                     "dynaspam-analyze: no sources under %s/src\n",
                     opt.root.c_str());
        return 2;
    }

    std::vector<analyze::Finding> findings;
    for (const fs::path &path : files) {
        const std::string rel =
            fs::relative(path, root).generic_string();
        analyze::SourceFile file;
        if (!analyze::loadSource(path.string(), rel, file)) {
            std::fprintf(stderr, "dynaspam-analyze: cannot read %s\n",
                         path.string().c_str());
            return 2;
        }
        for (const analyze::Check &check : analyze::allChecks())
            if (checkEnabled(opt, check.name) && check.inDomain(rel))
                check.run(file, findings);
    }

    printFindings(findings, opt.json);
    if (!opt.json)
        std::printf("dynaspam-analyze: %zu finding(s) in %zu file(s) "
                    "scanned\n",
                    findings.size(), files.size());
    return findings.empty() ? 0 : 1;
}

/**
 * Fixture protocol: `<check>__<description>.<cc|hh>` must trip
 * <check>; `<check>__clean_<description>` must not. Each check
 * declares where its fixtures pretend to live (selftestRelPath) so
 * they land inside the check's path domain.
 */
int
runSelftest(const Options &opt)
{
    std::vector<fs::path> fixtures;
    for (const auto &entry : fs::directory_iterator(opt.selftestDir)) {
        const std::string ext = entry.path().extension().string();
        if (entry.is_regular_file() && (ext == ".cc" || ext == ".hh"))
            fixtures.push_back(entry.path());
    }
    std::sort(fixtures.begin(), fixtures.end());
    if (fixtures.empty()) {
        std::fprintf(stderr,
                     "dynaspam-analyze: no fixtures in %s\n",
                     opt.selftestDir.c_str());
        return 2;
    }

    int failures = 0;
    std::set<std::string> exercised;
    for (const fs::path &path : fixtures) {
        const std::string name = path.filename().string();
        const std::size_t sep = name.find("__");
        if (sep == std::string::npos) {
            std::fprintf(stderr,
                         "selftest: %s: no '<check>__' prefix\n",
                         name.c_str());
            failures++;
            continue;
        }
        const std::string checkName = name.substr(0, sep);
        const bool wantClean = name.compare(sep + 2, 6, "clean_") == 0;

        const analyze::Check *check = nullptr;
        for (const analyze::Check &c : analyze::allChecks())
            if (checkName == c.name)
                check = &c;
        if (!check) {
            std::fprintf(stderr, "selftest: %s: unknown check '%s'\n",
                         name.c_str(), checkName.c_str());
            failures++;
            continue;
        }

        // Pretend the fixture lives inside the check's domain.
        std::string rel = check->selftestRelPath;
        const std::size_t hole = rel.find("{}");
        if (hole != std::string::npos)
            rel.replace(hole, 2, name);

        analyze::SourceFile file;
        if (!analyze::loadSource(path.string(), rel, file)) {
            std::fprintf(stderr, "selftest: cannot read %s\n",
                         path.string().c_str());
            failures++;
            continue;
        }
        if (!check->inDomain(rel)) {
            std::fprintf(stderr,
                         "selftest: %s: selftestRelPath %s escapes "
                         "the check's own domain\n",
                         name.c_str(), rel.c_str());
            failures++;
            continue;
        }

        std::vector<analyze::Finding> findings;
        check->run(file, findings);
        const bool fired = !findings.empty();
        const bool ok = wantClean ? !fired : fired;
        std::printf("selftest: %-12s %s (%zu finding(s) from %s)\n",
                    ok ? "ok" : "FAIL", name.c_str(), findings.size(),
                    checkName.c_str());
        if (!ok) {
            for (const auto &f : findings)
                std::printf("    %s:%d: %s\n", f.file.c_str(), f.line,
                            f.message.c_str());
            failures++;
        }
        exercised.insert(checkName);
    }

    // Every registered check must have at least one firing fixture —
    // a check with no fixture is a check nobody has proven works.
    for (const analyze::Check &check : analyze::allChecks())
        if (!exercised.count(check.name)) {
            std::fprintf(stderr,
                         "selftest: FAIL: check '%s' has no fixture\n",
                         check.name);
            failures++;
        }

    std::printf("selftest: %d failure(s), %zu fixture(s), %zu "
                "check(s)\n",
                failures, fixtures.size(),
                analyze::allChecks().size());
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--root") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.root = v;
        } else if (arg == "--check") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.only.push_back(v);
        } else if (arg == "--selftest") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.selftestDir = v;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--list-checks") {
            opt.listChecks = true;
        } else {
            return usage(argv[0]);
        }
    }

    for (const std::string &name : opt.only) {
        bool known = false;
        for (const analyze::Check &c : analyze::allChecks())
            known = known || name == c.name;
        if (!known) {
            std::fprintf(stderr,
                         "dynaspam-analyze: unknown check '%s' "
                         "(--list-checks)\n",
                         name.c_str());
            return 2;
        }
    }

    if (opt.listChecks) {
        for (const analyze::Check &c : analyze::allChecks())
            std::printf("%-20s %s\n", c.name, c.description);
        return 0;
    }
    if (!opt.selftestDir.empty())
        return runSelftest(opt);
    return runScan(opt);
}
