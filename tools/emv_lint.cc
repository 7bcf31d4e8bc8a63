/**
 * @file
 * emv_lint — project-specific static checks for the emv source tree.
 *
 * The general-purpose toolchain (-Wall -Wextra, sanitizers,
 * clang-tidy) cannot express *project* conventions, so this small
 * scanner enforces the ones that keep the simulator deterministic
 * and its output machine-parseable:
 *
 *   raw-rng        no rand()/srand()/std::random_device/time(...)
 *                  seeding outside common/rng — all randomness must
 *                  flow through the seeded SplitMix64/Xoshiro RNG so
 *                  runs are reproducible.
 *   raw-output     no std::cout/std::cerr/printf in src/ outside the
 *                  designated report/trace/logging translation
 *                  units — simulation results must go through the
 *                  stat registry or report layer, not ad-hoc prints.
 *   pragma-once    every header in src/ uses #pragma once.
 *   test-coverage  every .cc in src/ has a matching test file under
 *                  tests/ (with a small alias table for aggregate
 *                  suites).
 *   stat-names     string literals passed to counter()/scalar()/
 *                  distribution()/StatGroup() are lower_snake_case
 *                  dotted paths, matching the exported
 *                  "machine.mmu.*" naming convention.
 *   no-fatal-recovery
 *                  no emv_fatal in recovery-path code (src/fault/
 *                  and sim/machine.cc) — faults there must degrade
 *                  gracefully or produce a structured FaultReport,
 *                  never abort the process.
 *   ckpt-round-trip
 *                  every class exposing a checkpoint serialize()
 *                  must declare the matching deserialize(), and the
 *                  translation unit's test file under tests/ must
 *                  exercise deserialization (a save/restore
 *                  round-trip) — state that can be saved but not
 *                  restored, or restored but never tested, silently
 *                  breaks crash-safe resume.
 *   hot-path-stat-lookup
 *                  no string-keyed StatRegistry lookups (counter(
 *                  "name") and friends) inside the Mmu::translate
 *                  call tree: core/mmu.cc, the TLB, walk-cache and
 *                  line-cache probes in tlb/, EscapeFilter::
 *                  mayContain, and PhysMemory::read64/write64 (every
 *                  page table access) — every translation pays for them,
 *                  so the constructor caches the pointers once and
 *                  the hot path bumps them directly; a map lookup
 *                  per op also skews the telemetry throughput meter
 *                  it feeds.
 *
 * Concurrency-safety rules (see DESIGN.md §12), ahead of the
 * in-process parallel engine:
 *
 *   shared-mutable-state
 *                  namespace-scope variables, mutable static locals
 *                  and static data members must be const/constexpr,
 *                  atomic, a Mutex, thread_local, or carry an
 *                  EMV_GUARDED_BY annotation; anything else is a
 *                  data race waiting for the threaded runner.
 *                  Audited singletons live in an explicit
 *                  "file:name" allowlist.
 *   unguarded-member
 *                  a class that owns a Mutex declares its locking
 *                  story for *every* mutable member: EMV_GUARDED_BY
 *                  / EMV_PT_GUARDED_BY for lock-protected state,
 *                  EMV_THREAD_CONFINED for owner-thread state, or a
 *                  const/atomic type.
 *   nondeterministic-source
 *                  no wall-clock reads (std::chrono clocks, time(),
 *                  clock_gettime, gettimeofday), std::random_device,
 *                  or address-as-hash (std::hash over pointers,
 *                  pointer-to-uintptr casts) inside the
 *                  deterministic sim layers — any of these makes
 *                  emv-ckpt-v1 resume schedule-dependent.  Only the
 *                  injected TelemetryRecorder clock and the
 *                  explicitly wall-clock translation units
 *                  (telemetry, profiling, experiment timing) may
 *                  read real time.
 *
 * Usage: emv_lint <repo-root> [--rules=rule1,rule2,...]
 * With --rules only the named rules report (used by the fixture
 * self-tests under tests/tools/lint_fixtures/ to point one rule at
 * one known-bad mini-tree).
 * Exits 0 when clean; prints "file:line: [rule] message" per
 * violation and exits 1 otherwise.  Registered as a CTest so a
 * convention regression fails the build's test stage.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation
{
    std::string file;
    int line;
    std::string rule;
    std::string message;
};

std::vector<Violation> violations;

/** --rules= filter; empty means every rule reports. */
std::set<std::string> rulesFilter;

bool
ruleEnabled(const std::string &rule)
{
    return rulesFilter.empty() || rulesFilter.count(rule) != 0;
}

void
report(const fs::path &file, int line, const std::string &rule,
       const std::string &message)
{
    if (!ruleEnabled(rule))
        return;
    violations.push_back({file.string(), line, rule, message});
}

/** Strip // and /star star/ comments plus string/char literals so the
 *  pattern rules only see real code.  Line structure is preserved. */
std::string
stripCommentsAndStrings(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    enum class State { Code, Line, Block, Str, Chr } state = State::Code;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
        case State::Code:
            if (c == '/' && next == '/') {
                state = State::Line;
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::Block;
                ++i;
            } else if (c == '"') {
                state = State::Str;
                out += '"';
            } else if (c == '\'') {
                state = State::Chr;
                out += '\'';
            } else {
                out += c;
            }
            break;
        case State::Line:
            if (c == '\n') {
                state = State::Code;
                out += '\n';
            }
            break;
        case State::Block:
            if (c == '*' && next == '/') {
                state = State::Code;
                ++i;
            } else if (c == '\n') {
                out += '\n';
            }
            break;
        case State::Str:
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                state = State::Code;
                out += '"';
            } else if (c == '\n') {
                out += '\n';  // Unterminated; keep line counts sane.
                state = State::Code;
            }
            break;
        case State::Chr:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                state = State::Code;
                out += '\'';
            } else if (c == '\n') {
                out += '\n';
                state = State::Code;
            }
            break;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Relative path with '/' separators, e.g. "common/rng.cc". */
std::string
relName(const fs::path &file, const fs::path &root)
{
    std::string rel = fs::relative(file, root).generic_string();
    return rel;
}

bool
matchesAny(const std::string &rel,
           const std::vector<std::string> &prefixes)
{
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string &p) {
                           return rel.rfind(p, 0) == 0;
                       });
}

// ---------------------------------------------------------------------
// Rule: raw-rng
// ---------------------------------------------------------------------

void
checkRawRng(const fs::path &file, const std::string &rel,
            const std::vector<std::string> &lines)
{
    if (rel.rfind("common/rng", 0) == 0)
        return;  // The one blessed home of raw entropy.
    static const std::regex forbidden(
        R"(std::random_device|[^_[:alnum:]](s?rand)\s*\(|[^_[:alnum:]]time\s*\(\s*(NULL|nullptr|0)?\s*\))");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (std::regex_search(lines[i], forbidden)) {
            report(file, static_cast<int>(i + 1), "raw-rng",
                   "unseeded randomness or wall-clock seeding; use "
                   "common/rng (deterministic, run-seeded) instead");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: raw-output
// ---------------------------------------------------------------------

void
checkRawOutput(const fs::path &file, const std::string &rel,
               const std::vector<std::string> &lines)
{
    // Translation units whose whole job is producing output.
    static const std::vector<std::string> allowed = {
        "common/logging.",   // emv_warn/emv_info/panic plumbing
        "common/trace.",     // EMV_TRACE sink
        "common/json.",      // serializers write to caller streams
        "common/profile.",   // prof::report
        "common/audit.",     // audit failure records
        "sim/report.",       // human-readable result tables
        "sim/experiment.",   // CLI usage/error reporting
    };
    if (matchesAny(rel, allowed))
        return;
    static const std::regex forbidden(
        R"(std::cout|std::cerr|[^_[:alnum:]](f|v|s|sn|vsn)?printf\s*\()");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::smatch m;
        if (std::regex_search(lines[i], m, forbidden)) {
            // Formatting into buffers is fine; writing is not.
            const std::string tok = m.str();
            if (tok.find("snprintf") != std::string::npos ||
                tok.find("vsnprintf") != std::string::npos ||
                tok.find("sprintf") != std::string::npos) {
                continue;
            }
            report(file, static_cast<int>(i + 1), "raw-output",
                   "direct console output in the simulator core; "
                   "route through stats/report/trace layers");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-fatal-recovery
// ---------------------------------------------------------------------

void
checkNoFatalRecovery(const fs::path &file, const std::string &rel,
                     const std::vector<std::string> &lines)
{
    // Recovery-path translation units: the fault subsystem and the
    // machine layer that owns downgrade/retry/offline handling.
    static const std::vector<std::string> recovery_paths = {
        "fault/",
        "sim/machine.cc",
    };
    if (!matchesAny(rel, recovery_paths))
        return;
    static const std::regex forbidden(
        R"((^|[^_[:alnum:]])emv_fatal\s*\()");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (std::regex_search(lines[i], forbidden)) {
            report(file, static_cast<int>(i + 1),
                   "no-fatal-recovery",
                   "emv_fatal in recovery-path code; degrade "
                   "gracefully (downgrade/retry/offline) or record "
                   "a structured FaultReport instead of aborting");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: ckpt-round-trip
// ---------------------------------------------------------------------

/** Test files (relative to tests/) that must contain a round-trip,
 *  keyed by the source file (relative to src/) that demanded one. */
std::map<std::string, std::string> ckptTestsWanted;

/** tests/ file covering @p rel for checkpoint round-trip purposes. */
std::string
ckptTestFor(const std::string &rel)
{
    // Aggregate suites mirroring the test-coverage alias table: the
    // workload generators share one suite, Process is covered by the
    // guest-OS suite, and the whole-Machine round trip lives with
    // the checkpoint tests rather than the machine behavior tests.
    if (rel.rfind("workload/", 0) == 0)
        return "workload/test_workloads.cc";
    if (rel.rfind("os/process.", 0) == 0)
        return "os/test_guest_os.cc";
    if (rel.rfind("sim/machine.", 0) == 0)
        return "sim/test_checkpoint.cc";
    const fs::path p(rel);
    return (p.parent_path() /
            ("test_" + p.stem().string() + ".cc")).generic_string();
}

void
checkCkptRoundTrip(const fs::path &file, const std::string &rel,
                   const std::string &stripped)
{
    // Checkpoint entry points: declarations or definitions taking a
    // ckpt:: stream type.  Call sites pass variables, not qualified
    // types, so they do not match.
    static const std::regex method(
        R"((?:([A-Za-z_][A-Za-z0-9_]*)\s*::\s*)?(de)?serialize\s*\()"
        R"(\s*(?:const\s+)?(?:emv::)?ckpt::(Encoder|Decoder|Writer|Reader))");
    static const std::regex classDecl(
        R"((?:class|struct)\s+([A-Za-z_][A-Za-z0-9_]*))");

    // Class/struct name positions, for attributing in-class
    // declarations to their owner.
    std::vector<std::pair<std::size_t, std::string>> owners;
    for (auto it = std::sregex_iterator(stripped.begin(),
                                        stripped.end(), classDecl);
         it != std::sregex_iterator(); ++it) {
        owners.emplace_back(static_cast<std::size_t>(it->position()),
                            (*it)[1].str());
    }

    struct Halves { bool ser = false; bool deser = false; int line = 0; };
    std::map<std::string, Halves> classes;
    for (auto it = std::sregex_iterator(stripped.begin(),
                                        stripped.end(), method);
         it != std::sregex_iterator(); ++it) {
        const auto pos = static_cast<std::size_t>(it->position());
        std::string owner = (*it)[1].str();
        if (owner.empty()) {
            // In-class declaration: nearest preceding class name.
            for (const auto &[at, name] : owners) {
                if (at > pos)
                    break;
                owner = name;
            }
            if (owner.empty())
                continue;  // Free function; not a class contract.
        }
        Halves &h = classes[owner];
        if ((*it)[2].matched)
            h.deser = true;
        else
            h.ser = true;
        if (h.line == 0) {
            h.line = 1 + static_cast<int>(std::count(
                stripped.begin(), stripped.begin() + pos, '\n'));
        }
    }

    bool any_serialize = false;
    for (const auto &[name, h] : classes) {
        any_serialize |= h.ser;
        if (h.ser && !h.deser) {
            report(file, h.line, "ckpt-round-trip",
                   "class " + name + " exposes serialize() without "
                   "a matching deserialize(); checkpoints it writes "
                   "could never be restored");
        } else if (h.deser && !h.ser) {
            report(file, h.line, "ckpt-round-trip",
                   "class " + name + " exposes deserialize() "
                   "without a matching serialize()");
        }
    }
    if (any_serialize)
        ckptTestsWanted.emplace(ckptTestFor(rel), rel);
}

/** After the scan: every demanded test file must restore state. */
void
finalizeCkptRoundTrip(const fs::path &root)
{
    for (const auto &[test_rel, src_rel] : ckptTestsWanted) {
        const fs::path test = root / "tests" / test_rel;
        bool restores = false;
        if (fs::exists(test)) {
            const std::string text = readFile(test);
            // Either a direct deserialize() call or the shared
            // test_support.hh ckptRestore() helper counts.
            restores =
                text.find("deserialize") != std::string::npos ||
                text.find("ckptRestore") != std::string::npos ||
                text.find("restoreMachine") != std::string::npos;
        }
        if (!restores) {
            report(root / "src" / src_rel, 1, "ckpt-round-trip",
                   "serializable state with no save/restore "
                   "round-trip test; " + test.string() +
                       " must exercise deserialize()");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: hot-path-stat-lookup
// ---------------------------------------------------------------------

void
checkHotPathStatLookup(const fs::path &file, const std::string &rel,
                       const std::string &stripped)
{
    // Per file and class, the hot methods: everything a single
    // translation can execute (the Mmu::translate call tree, the
    // TLB, paging-structure and PTE-line caches it probes, the
    // escape-filter probe, and the PhysMemory word accesses every
    // page-table read and write goes through).  Cold control-plane
    // methods (set*/flush*/fraction*) may look stats up by name;
    // these may not.
    struct HotMethods
    {
        const char *rel;
        const char *cls;
        std::vector<const char *> methods;
    };
    static const HotMethods hot[] = {
        {"core/mmu.cc", "Mmu",
         {"translate", "translateImpl", "doWalk", "nestedToHost",
          "segmentToHost", "priceTrace"}},
        {"mem/phys_memory.cc", "PhysMemory", {"read64", "write64"}},
        {"segment/escape_filter.cc", "EscapeFilter", {"mayContain"}},
        {"tlb/tlb.cc", "Tlb", {"lookup", "lookupAny", "insert"}},
        {"tlb/walk_cache.cc", "WalkCache", {"lookup", "insert"}},
        {"tlb/walk_cache.cc", "LineCache", {"access"}},
    };
    static const std::regex lookup(
        R"((counter|scalar|distribution|counterValue|scalarValue)\s*\(\s*")");
    for (const HotMethods &entry : hot) {
        if (rel != entry.rel)
            continue;
        const std::string cls = entry.cls;
        for (const char *name : entry.methods) {
            const std::regex def(cls + "::" + std::string(name) +
                                 R"(\s*\()");
            auto from = stripped.cbegin();
            std::smatch m;
            while (std::regex_search(from, stripped.cend(), m, def)) {
                auto it = m[0].second;
                // Find the body; a ';' first would mean a declaration.
                while (it != stripped.cend() && *it != '{' && *it != ';')
                    ++it;
                if (it == stripped.cend() || *it == ';') {
                    from = it;
                    continue;
                }
                int depth = 0;
                const auto body_begin = it;
                for (; it != stripped.cend(); ++it) {
                    if (*it == '{')
                        ++depth;
                    else if (*it == '}' && --depth == 0)
                        break;
                }
                const std::string body(body_begin, it);
                std::smatch hit;
                if (std::regex_search(body, hit, lookup)) {
                    const auto off = static_cast<std::size_t>(
                        (body_begin - stripped.cbegin()) +
                        hit.position());
                    const int line = 1 + static_cast<int>(std::count(
                        stripped.begin(), stripped.begin() + off, '\n'));
                    report(file, line, "hot-path-stat-lookup",
                           "string-keyed stat lookup inside " + cls +
                               "::" + std::string(name) +
                               "; cache the counter/scalar pointer in "
                               "the constructor and bump it directly");
                }
                from = it;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scope-aware declaration scan, shared by shared-mutable-state and
// unguarded-member.
// ---------------------------------------------------------------------

struct Stmt
{
    std::string text;
    int line;
};

struct TypeScope
{
    std::string name;
    int line;
    std::vector<Stmt> members;
};

enum class ScopeKind { Namespace, Type, Other };

/**
 * Split the stripped text into namespace-scope statements, per-type
 * member statements, and function-local `static` statements by
 * classifying what each `{` opens.  An `{` whose header names no
 * namespace/class/struct/union/enum is Other — a function body,
 * control block, or brace initializer; its pending header is kept
 * only when the matching `}` is followed by `;` (a declaration whose
 * initializer we just skipped).
 */
void
collectScopes(const std::string &stripped,
              std::vector<Stmt> &nsStmts,
              std::vector<TypeScope> &types,
              std::vector<Stmt> &fnStmts)
{
    static const std::regex nsRe(R"(\bnamespace\b)");
    static const std::regex typeRe(R"(\b(class|struct|union|enum)\b)");
    static const std::regex typeNameRe(
        R"((?:class|struct|union|enum)(?:\s+class)?)"
        R"((?:\s+EMV_[A-Z_]+\s*\([^()]*\))?\s+([A-Za-z_][A-Za-z0-9_]*))");
    static const std::regex tmplParams(R"(template\s*<[^<>]*>)");

    std::vector<ScopeKind> stack;
    std::vector<int> typeOf;          // Index into types; -1 if not.
    std::vector<std::string> pending; // Saved headers of Other scopes.
    std::vector<int> pendingLine;

    std::string cur;
    int line = 1;
    int stmtLine = 1;

    auto trimmed = [](const std::string &s) {
        const auto b = s.find_first_not_of(" \t");
        if (b == std::string::npos)
            return std::string();
        const auto e = s.find_last_not_of(" \t");
        return s.substr(b, e - b + 1);
    };
    auto record = [&]() {
        const std::string text = trimmed(cur);
        cur.clear();
        if (text.empty())
            return;
        const ScopeKind kind =
            stack.empty() ? ScopeKind::Namespace : stack.back();
        switch (kind) {
        case ScopeKind::Namespace:
            nsStmts.push_back({text, stmtLine});
            break;
        case ScopeKind::Type:
            if (typeOf.back() >= 0)
                types[static_cast<std::size_t>(typeOf.back())]
                    .members.push_back({text, stmtLine});
            break;
        case ScopeKind::Other:
            // Function bodies: only static locals are interesting.
            if (text.rfind("static ", 0) == 0)
                fnStmts.push_back({text, stmtLine});
            break;
        }
    };

    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const char c = stripped[i];
        if (c == '\n') {
            ++line;
            cur += ' ';
            continue;
        }
        if (c == ';') {
            record();
            stmtLine = line;
            continue;
        }
        if (c == '{') {
            // Strip template parameter lists so `template <class T>`
            // does not read as a type definition.
            const std::string head =
                std::regex_replace(trimmed(cur), tmplParams, "");
            ScopeKind kind = ScopeKind::Other;
            if (std::regex_search(head, nsRe))
                kind = ScopeKind::Namespace;
            else if (std::regex_search(head, typeRe))
                kind = ScopeKind::Type;
            stack.push_back(kind);
            if (kind == ScopeKind::Type) {
                std::smatch m;
                std::string name = "<anonymous>";
                if (std::regex_search(head, m, typeNameRe))
                    name = m[1].str();
                typeOf.push_back(static_cast<int>(types.size()));
                types.push_back({name, stmtLine, {}});
            } else {
                typeOf.push_back(-1);
            }
            pending.push_back(kind == ScopeKind::Other ? cur : "");
            pendingLine.push_back(stmtLine);
            cur.clear();
            stmtLine = line;
            continue;
        }
        if (c == '}') {
            if (stack.empty())
                continue;
            const ScopeKind kind = stack.back();
            const std::string saved = pending.back();
            const int savedLine = pendingLine.back();
            stack.pop_back();
            typeOf.pop_back();
            pending.pop_back();
            pendingLine.pop_back();
            cur.clear();
            if (kind == ScopeKind::Other) {
                // Brace initializer?  Restore the declaration header
                // so the upcoming ';' records it.
                std::size_t j = i + 1;
                while (j < stripped.size() &&
                       (stripped[j] == ' ' || stripped[j] == '\t' ||
                        stripped[j] == '\n')) {
                    ++j;
                }
                if (j < stripped.size() && stripped[j] == ';') {
                    cur = saved;
                    stmtLine = savedLine;
                }
            }
            continue;
        }
        if (cur.empty() || trimmed(cur).empty())
            stmtLine = line;
        cur += c;
    }
}

/** EMV_*(...) attribute macros (and the bare EMV_THREAD_CONFINED)
 *  removed, so leftover parentheses mean "function-like". */
std::string
stripEmvAttrs(const std::string &s)
{
    static const std::regex attr(R"(EMV_[A-Z_]+\s*\([^()]*\))");
    static const std::regex bare(R"(EMV_THREAD_CONFINED)");
    return std::regex_replace(std::regex_replace(s, attr, ""), bare,
                              "");
}

/** Types/annotations under which shared state is race-free. */
bool
allowedSharedDecl(const std::string &s)
{
    static const std::regex allowed(
        R"(^(extern\s+)?(static\s+)?(inline\s+)?(mutable\s+)?const(expr)?\b)"
        R"(|\bconstexpr\b|thread_local|std::atomic|\bAtomic[A-Za-z0-9_]*)"
        R"(|\bMutex\b|std::mutex|std::once_flag)"
        R"(|EMV_GUARDED_BY|EMV_PT_GUARDED_BY)");
    return std::regex_search(s, allowed);
}

/** Last identifier of the declarator (initializer stripped). */
std::string
declaredName(const std::string &stmt)
{
    std::string head = stmt;
    const auto eq = head.find('=');
    if (eq != std::string::npos)
        head = head.substr(0, eq);
    const auto br = head.find('[');
    if (br != std::string::npos)
        head = head.substr(0, br);
    static const std::regex ident(R"(([A-Za-z_][A-Za-z0-9_]*)\s*$)");
    std::smatch m;
    if (std::regex_search(head, m, ident))
        return m[1].str();
    return "<unknown>";
}

/** Statements that are not object declarations at all. */
bool
isNonVariableStmt(const std::string &s)
{
    static const std::regex nonVar(
        R"(^(using|typedef|template|friend|public|private|protected)\b)"
        R"(|^#|\b(class|struct|union|enum)\b|^static_assert\b)");
    return std::regex_search(s, nonVar);
}

// ---------------------------------------------------------------------
// Rule: shared-mutable-state
// ---------------------------------------------------------------------

void
checkSharedMutableState(const fs::path &file, const std::string &rel,
                        const std::vector<Stmt> &nsStmts,
                        const std::vector<TypeScope> &types,
                        const std::vector<Stmt> &fnStmts)
{
    // Audited process-wide singletons ("file:name"), each with an
    // internally-synchronized implementation (DESIGN.md §12).
    static const std::set<std::string> allowlist = {
        // Leaked singleton; its entry list is Mutex-guarded.
        "common/stat_registry.cc:registry",
        // Function-local audit counters behind AuditStats::mutex.
        "common/audit.cc:stats",
    };
    auto flag = [&](const Stmt &stmt, const char *what) {
        const std::string bare = stripEmvAttrs(stmt.text);
        if (isNonVariableStmt(bare) ||
            bare.find('(') != std::string::npos) {
            return;  // Function/type/alias declaration, not state.
        }
        if (allowedSharedDecl(stmt.text))
            return;
        const std::string name = declaredName(bare);
        if (allowlist.count(rel + ":" + name))
            return;
        report(file, stmt.line, "shared-mutable-state",
               std::string(what) + " '" + name +
                   "' is mutable and unsynchronized; make it "
                   "const/atomic, guard it with a Mutex + "
                   "EMV_GUARDED_BY, or add it to the audited "
                   "allowlist in emv_lint");
    };
    for (const Stmt &stmt : nsStmts)
        flag(stmt, "namespace-scope variable");
    for (const Stmt &stmt : fnStmts)
        flag(stmt, "static local");
    for (const TypeScope &type : types) {
        for (const Stmt &stmt : type.members) {
            if (stmt.text.rfind("static ", 0) == 0)
                flag(stmt, "static data member");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: unguarded-member
// ---------------------------------------------------------------------

void
checkUnguardedMember(const fs::path &file, const std::string &rel,
                     const std::vector<TypeScope> &types)
{
    (void)rel;
    static const std::regex ownsMutex(
        R"((^|\s)(mutable\s+)?Mutex\s+[A-Za-z_][A-Za-z0-9_]*\s*$)");
    static const std::regex annotated(
        R"(EMV_GUARDED_BY|EMV_PT_GUARDED_BY|EMV_THREAD_CONFINED)");
    for (const TypeScope &type : types) {
        const bool owner = std::any_of(
            type.members.begin(), type.members.end(),
            [](const Stmt &m) {
                return std::regex_search(stripEmvAttrs(m.text),
                                         ownsMutex);
            });
        if (!owner)
            continue;
        for (const Stmt &member : type.members) {
            if (std::regex_search(member.text, annotated))
                continue;
            const std::string bare = stripEmvAttrs(member.text);
            if (std::regex_search(bare, ownsMutex))
                continue;  // The lock itself.
            if (isNonVariableStmt(bare) ||
                bare.find('(') != std::string::npos) {
                continue;  // Methods, nested types, aliases.
            }
            if (bare.rfind("static ", 0) == 0)
                continue;  // shared-mutable-state's business.
            if (allowedSharedDecl(member.text))
                continue;
            report(file, member.line, "unguarded-member",
                   "class " + type.name +
                       " owns a Mutex but member '" +
                       declaredName(bare) +
                       "' declares no locking story; annotate it "
                       "EMV_GUARDED_BY(mutex), EMV_THREAD_CONFINED, "
                       "or make it const/atomic");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: nondeterministic-source
// ---------------------------------------------------------------------

void
checkNondeterministicSource(const fs::path &file,
                            const std::string &rel,
                            const std::vector<std::string> &lines)
{
    // Translation units allowed to read real time: telemetry wall_ms
    // (presentation-only, excluded from checkpoint identity),
    // simulator self-profiling, and the experiment driver's elapsed
    // clock.  Everything else in src/ must be schedule-independent
    // or emv-ckpt-v1 resume breaks.
    static const std::vector<std::string> allowed = {
        "common/telemetry.",
        "common/profile.",
        "sim/experiment.",
    };
    if (matchesAny(rel, allowed))
        return;
    static const std::regex forbidden(
        R"(std::chrono::(steady_clock|system_clock|high_resolution_clock))"
        R"(|std::random_device)"
        R"(|[^_[:alnum:]](time|clock_gettime|gettimeofday|clock)\s*\(\s*(NULL|nullptr|0)?\s*\))"
        R"(|std::hash<[^>]*\*)"
        R"(|reinterpret_cast<\s*std::u?intptr_t)");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (std::regex_search(lines[i], forbidden)) {
            report(file, static_cast<int>(i + 1),
                   "nondeterministic-source",
                   "wall-clock / entropy / address-dependent value "
                   "in a deterministic sim layer; inject the "
                   "TelemetryRecorder clock or use the seeded Rng "
                   "so checkpointed runs replay byte-identically");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: pragma-once
// ---------------------------------------------------------------------

void
checkPragmaOnce(const fs::path &file, const std::string &stripped)
{
    const auto lines = splitLines(stripped);
    for (const std::string &line : lines) {
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        if (line.compare(first, 12, "#pragma once") == 0)
            return;
        // First non-blank, non-comment token is not the pragma.
        break;
    }
    report(file, 1, "pragma-once",
           "header must open with #pragma once (after the file "
           "comment), not a classic include guard");
}

// ---------------------------------------------------------------------
// Rule: test-coverage
// ---------------------------------------------------------------------

void
checkTestCoverage(const fs::path &root)
{
    // Aggregate suites that intentionally cover several sources.
    static const std::map<std::string, std::string> aliases = {
        {"common/stat_registry.cc", "common/test_stat_export.cc"},
        {"common/audit.cc", "common/test_audit.cc"},
        {"core/differential_auditor.cc",
         "core/test_differential_audit.cc"},
        {"os/process.cc", "os/test_guest_os.cc"},
        {"os/hotplug.cc", "os/test_kernel_pool.cc"},
        {"workload/workload.cc", "workload/test_workloads.cc"},
        {"workload/gups.cc", "workload/test_workloads.cc"},
        {"workload/graph500.cc", "workload/test_workloads.cc"},
        {"workload/memcached.cc", "workload/test_workloads.cc"},
        {"workload/npb_cg.cc", "workload/test_workloads.cc"},
        {"workload/spec.cc", "workload/test_workloads.cc"},
        {"workload/parsec.cc", "workload/test_workloads.cc"},
    };
    const fs::path src = root / "src";
    const fs::path tests = root / "tests";
    for (const auto &entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".cc") {
            continue;
        }
        const std::string rel = relName(entry.path(), src);
        fs::path expected;
        auto alias = aliases.find(rel);
        if (alias != aliases.end()) {
            expected = tests / alias->second;
        } else {
            fs::path p(rel);
            expected = tests / p.parent_path() /
                       ("test_" + p.filename().string());
        }
        if (!fs::exists(expected)) {
            report(entry.path(), 1, "test-coverage",
                   "no test file " + expected.string() +
                       " for this translation unit");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: stat-names
// ---------------------------------------------------------------------

void
checkStatNames(const fs::path &file, const std::string &text)
{
    // Stat identifiers become "machine.mmu.walk_cycles"-style dotted
    // paths in the JSON export; enforce lower_snake_case components.
    static const std::regex call(
        R"((?:\.|->)(counter|scalar|distribution)\s*\(\s*"([^"]*)\")"
        R"(|StatGroup\s*(?:[A-Za-z_][A-Za-z0-9_]*\s*)?[({]\s*"([^"]*)\")");
    static const std::regex good(
        R"([a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*)");
    auto begin = std::sregex_iterator(text.begin(), text.end(), call);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string name =
            (*it)[2].matched ? (*it)[2].str() : (*it)[3].str();
        if (name.empty())
            continue;  // Dynamic names checked at runtime.
        if (!std::regex_match(name, good)) {
            const auto off = static_cast<std::size_t>(it->position());
            const int line = 1 + static_cast<int>(std::count(
                text.begin(), text.begin() + off, '\n'));
            report(file, line, "stat-names",
                   "stat name \"" + name +
                       "\" is not a lower_snake_case dotted path "
                       "(convention: machine.mmu.*)");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const char *rootArg = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--rules=", 0) == 0) {
            std::string csv = arg.substr(8);
            std::size_t pos = 0;
            while (pos <= csv.size()) {
                std::size_t comma = csv.find(',', pos);
                if (comma == std::string::npos)
                    comma = csv.size();
                const std::string rule = csv.substr(pos, comma - pos);
                if (!rule.empty())
                    rulesFilter.insert(rule);
                pos = comma + 1;
            }
        } else if (!rootArg) {
            rootArg = argv[i];
        } else {
            rootArg = nullptr;
            break;
        }
    }
    if (!rootArg) {
        std::fprintf(stderr,
                     "usage: %s <repo-root> [--rules=r1,r2,...]\n",
                     argv[0]);
        return 2;
    }
    const fs::path root(rootArg);
    const fs::path src = root / "src";
    if (!fs::is_directory(src)) {
        std::fprintf(stderr, "emv_lint: %s is not a repo root\n",
                     rootArg);
        return 2;
    }

    int scanned = 0;
    for (const auto &entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file())
            continue;
        const fs::path &path = entry.path();
        const std::string ext = path.extension().string();
        if (ext != ".cc" && ext != ".hh")
            continue;
        ++scanned;
        const std::string rel = relName(path, src);
        const std::string text = readFile(path);
        const std::string stripped = stripCommentsAndStrings(text);
        const auto lines = splitLines(stripped);

        checkRawRng(path, rel, lines);
        checkRawOutput(path, rel, lines);
        checkNoFatalRecovery(path, rel, lines);
        checkCkptRoundTrip(path, rel, stripped);
        checkHotPathStatLookup(path, rel, stripped);
        if (ext == ".hh")
            checkPragmaOnce(path, stripped);
        checkStatNames(path, text);
        checkNondeterministicSource(path, rel, lines);

        std::vector<Stmt> nsStmts, fnStmts;
        std::vector<TypeScope> types;
        collectScopes(stripped, nsStmts, types, fnStmts);
        checkSharedMutableState(path, rel, nsStmts, types, fnStmts);
        checkUnguardedMember(path, rel, types);
    }
    checkTestCoverage(root);
    finalizeCkptRoundTrip(root);

    std::sort(violations.begin(), violations.end(),
              [](const Violation &a, const Violation &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    for (const auto &v : violations) {
        std::fprintf(stderr, "%s:%d: [%s] %s\n", v.file.c_str(),
                     v.line, v.rule.c_str(), v.message.c_str());
    }
    std::fprintf(stderr, "emv_lint: %d files scanned, %zu violations\n",
                 scanned, violations.size());
    return violations.empty() ? 0 : 1;
}
