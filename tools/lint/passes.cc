#include "passes.h"

#include <algorithm>
#include <cctype>
#include <regex>

namespace oslint {

namespace {

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
containsWord(const std::string &text, const std::string &word)
{
    std::size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
        bool left_ok = pos == 0 || !isWordChar(text[pos - 1]);
        std::size_t end = pos + word.size();
        bool right_ok = end >= text.size() || !isWordChar(text[end]);
        if (left_ok && right_ok)
            return true;
        pos = end;
    }
    return false;
}

// ---------------------------------------------------------------------
// randomness: banned randomness / wall-clock sources.

struct BannedToken
{
    std::regex re;
    const char *what;
    /** Wall-clock (not randomness) token: exempted in the threaded
     *  runtime backend, which legitimately runs on real time. */
    bool wallClock = false;
};

const std::vector<BannedToken> &
bannedTokens()
{
    static const std::vector<BannedToken> tokens = {
        {std::regex(R"(\brand\s*\()"), "rand()", false},
        {std::regex(R"(\bsrand\s*\()"), "srand()", false},
        {std::regex(R"(\brandom_device\b)"), "std::random_device",
         false},
        {std::regex(R"(\bmt19937(_64)?\b)"), "std::mt19937", false},
        {std::regex(R"(\btime\s*\()"), "time()", true},
        {std::regex(R"(\bsystem_clock\b)"), "std::chrono::system_clock",
         true},
        {std::regex(R"(\bsteady_clock\b)"), "std::chrono::steady_clock",
         true},
        {std::regex(R"(\bhigh_resolution_clock\b)"),
         "std::chrono::high_resolution_clock", true},
    };
    return tokens;
}

void
passRandomness(const PassContext &ctx, std::vector<Finding> &out)
{
    for (const auto &f : *ctx.files) {
        // The seeded facade itself is the one legitimate home.
        if (f.rel.find("util/random") != std::string::npos)
            continue;
        // The threaded runtime is the one module that *is* wall
        // time: its clock reads are the backend, not a leak.  Seeded
        // randomness stays banned there like everywhere else.
        bool wall_ok =
            f.rel.find("runtime/threaded") != std::string::npos;
        for (const auto &tok : bannedTokens()) {
            if (tok.wallClock && wall_ok)
                continue;
            for (auto it = std::sregex_iterator(f.code.begin(),
                                                f.code.end(), tok.re);
                 it != std::sregex_iterator(); ++it) {
                out.push_back(
                    {f.rel,
                     f.lineOf(static_cast<std::size_t>(it->position())),
                     "randomness",
                     std::string(tok.what) +
                         " is nondeterministic; route through "
                         "src/util/random.h (Rng)"});
            }
        }
    }
}

// ---------------------------------------------------------------------
// unordered-iteration: hash-order loops, anywhere in the tree.

/**
 * Collect the names of variables and members declared with an
 * unordered container type.  Handles nested template arguments by
 * balancing angle brackets, then takes the first identifier after the
 * closing '>'.
 */
void
collectUnorderedNames(const std::string &code,
                      std::set<std::string> &names)
{
    static const std::regex decl(R"(\bunordered_(?:map|set)\s*<)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), decl);
         it != std::sregex_iterator(); ++it) {
        std::size_t i = static_cast<std::size_t>(it->position()) +
                        it->length();
        int depth = 1;
        while (i < code.size() && depth > 0) {
            if (code[i] == '<')
                depth++;
            else if (code[i] == '>')
                depth--;
            i++;
        }
        while (i < code.size() &&
               std::isspace(static_cast<unsigned char>(code[i])))
            i++;
        while (i < code.size() && (code[i] == '&' || code[i] == '*'))
            i++;
        while (i < code.size() &&
               std::isspace(static_cast<unsigned char>(code[i])))
            i++;
        std::size_t start = i;
        while (i < code.size() && isWordChar(code[i]))
            i++;
        if (i > start)
            names.insert(code.substr(start, i - start));
    }
}

void
passUnorderedIteration(const PassContext &ctx,
                       std::vector<Finding> &out)
{
    for (const auto &f : *ctx.files) {
        auto mit = ctx.unorderedByModule.find(f.module);
        if (mit == ctx.unorderedByModule.end() || mit->second.empty())
            continue;
        const auto &module_names = mit->second;
        const std::string &code = f.code;

        // Range-based for: `for (decl : expr)` where expr mentions a
        // name declared with an unordered type in this module.
        static const std::regex range_for(R"(\bfor\s*\()");
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            range_for);
             it != std::sregex_iterator(); ++it) {
            std::size_t open =
                static_cast<std::size_t>(it->position()) +
                it->length() - 1;
            int depth = 0;
            std::size_t close = open;
            while (close < code.size()) {
                if (code[close] == '(')
                    depth++;
                else if (code[close] == ')' && --depth == 0)
                    break;
                close++;
            }
            if (close >= code.size())
                continue;
            std::string head = code.substr(open + 1, close - open - 1);
            auto colon = head.find(':');
            while (colon != std::string::npos &&
                   colon + 1 < head.size() && head[colon + 1] == ':')
                colon = head.find(':', colon + 2);
            if (colon == std::string::npos)
                continue;
            std::string range_expr = head.substr(colon + 1);
            for (const auto &name : module_names) {
                if (containsWord(range_expr, name)) {
                    out.push_back(
                        {f.rel, f.lineOf(open), "unordered-iteration",
                         "range-for over unordered container '" + name +
                             "'; hash order is outside the determinism "
                             "contract - use std::map/std::set"});
                    break;
                }
            }
        }

        // Iterator-style loops: `name.begin()` / `name.cbegin()`.
        static const std::regex begin_call(
            R"((\w+)\s*\.\s*c?begin\s*\()");
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            begin_call);
             it != std::sregex_iterator(); ++it) {
            std::string name = (*it)[1].str();
            if (module_names.count(name)) {
                out.push_back(
                    {f.rel,
                     f.lineOf(static_cast<std::size_t>(it->position())),
                     "unordered-iteration",
                     "iterator over unordered container '" + name +
                         "'; hash order is outside the determinism "
                         "contract - use std::map/std::set"});
            }
        }
    }
}

// ---------------------------------------------------------------------
// pointer-key: ordered or hashed containers keyed by pointers.  The
// iteration order of such a container is allocation order - i.e.
// nondeterministic across runs even for std::map.

void
passPointerKey(const PassContext &ctx, std::vector<Finding> &out)
{
    static const std::regex ptr_key(
        R"(\b(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?[A-Za-z_][A-Za-z0-9_:]*\s*\*)");
    for (const auto &f : *ctx.files) {
        for (auto it = std::sregex_iterator(f.code.begin(),
                                            f.code.end(), ptr_key);
             it != std::sregex_iterator(); ++it) {
            out.push_back(
                {f.rel,
                 f.lineOf(static_cast<std::size_t>(it->position())),
                 "pointer-key",
                 "container keyed by a pointer; address order varies "
                 "across runs - key by a stable id instead"});
        }
    }
}

// ---------------------------------------------------------------------
// address-hash: hashing object addresses.

void
passAddressHash(const PassContext &ctx, std::vector<Finding> &out)
{
    static const std::regex addr_hash(
        R"(\bhash\s*<\s*(?:const\s+)?[A-Za-z_][A-Za-z0-9_:]*\s*\*\s*>|\breinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\s*>)");
    for (const auto &f : *ctx.files) {
        for (auto it = std::sregex_iterator(f.code.begin(),
                                            f.code.end(), addr_hash);
             it != std::sregex_iterator(); ++it) {
            out.push_back(
                {f.rel,
                 f.lineOf(static_cast<std::size_t>(it->position())),
                 "address-hash",
                 "hashing an object address; the value differs every "
                 "run - hash a stable id instead"});
        }
    }
}

// ---------------------------------------------------------------------
// header-guard: OCEANSTORE_<DIR>_<FILE>_H naming.

std::string
expectedGuard(const std::string &rel)
{
    std::filesystem::path p(rel);
    std::string guard = "OCEANSTORE";
    for (const auto &part : p) {
        std::string s = part.string();
        if (s == p.filename().string())
            s = p.stem().string();
        guard += "_";
        for (char c : s) {
            guard += std::isalnum(static_cast<unsigned char>(c))
                         ? static_cast<char>(std::toupper(
                               static_cast<unsigned char>(c)))
                         : '_';
        }
    }
    return guard + "_H";
}

void
passHeaderGuard(const PassContext &ctx, std::vector<Finding> &out)
{
    static const std::regex ifndef(
        R"(#\s*ifndef\s+([A-Za-z_][A-Za-z0-9_]*))");
    for (const auto &f : *ctx.files) {
        if (!f.isHeader)
            continue;
        std::string want = expectedGuard(f.rel);
        std::smatch m;
        if (!std::regex_search(f.code, m, ifndef)) {
            out.push_back({f.rel, 1, "header-guard",
                           "missing include guard; expected " + want});
            continue;
        }
        std::string got = m[1].str();
        std::size_t line =
            f.lineOf(static_cast<std::size_t>(m.position(1)));
        if (got != want) {
            out.push_back({f.rel, line, "header-guard",
                           "guard '" + got + "' should be '" + want +
                               "'"});
            continue;
        }
        std::regex define(R"(#\s*define\s+)" + want + R"(\b)");
        if (!std::regex_search(f.code, define)) {
            out.push_back(
                {f.rel, line, "header-guard",
                 "#ifndef " + want +
                     " is not followed by a matching #define"});
        }
    }
}

// ---------------------------------------------------------------------
// adhoc-print: console output in library code.

void
passAdhocPrint(const PassContext &ctx, std::vector<Finding> &out)
{
    static const std::regex print_re(
        R"(\bf?printf\s*\(|\b(cout|cerr|clog)\b)");
    for (const auto &f : *ctx.files) {
        // The exporters are the one sanctioned serialization point;
        // the logger and the check reporter are the stderr channel.
        if (f.rel.find("obs/export") != std::string::npos ||
            f.rel == "util/logging.cc" || f.rel == "util/check.cc")
            continue;
        for (auto it = std::sregex_iterator(f.code.begin(),
                                            f.code.end(), print_re);
             it != std::sregex_iterator(); ++it) {
            out.push_back(
                {f.rel,
                 f.lineOf(static_cast<std::size_t>(it->position())),
                 "adhoc-print",
                 "ad-hoc console output in library code; report "
                 "through the logger, metrics or spans (only "
                 "obs/export* may serialize to streams)"});
        }
    }
}

// ---------------------------------------------------------------------
// lifetime: a lambda capturing `this` or by reference handed to
// schedule()/scheduleAt() with the returned EventId discarded.  The
// closure then outlives any way to cancel it: if the captured object
// dies before the event fires, the callback dereferences freed
// memory.  Storing the EventId (assignment or return) counts as
// keeping a cancellation handle.

void
passLifetime(const PassContext &ctx, std::vector<Finding> &out)
{
    static const std::regex sched_call(R"(\bschedule(?:At)?\s*\()");
    for (const auto &f : *ctx.files) {
        const std::string &code = f.code;
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            sched_call);
             it != std::sregex_iterator(); ++it) {
            std::size_t pos = static_cast<std::size_t>(it->position());
            std::size_t callOpen = pos + it->length() - 1;

            // Skip declarations/definitions of schedule itself: the
            // token is preceded by '.', '->' or an identifier
            // qualifier when it is a call on an object; a definition
            // line is followed by a '{' before any ';'.  Cheap
            // discriminator: require the call to sit inside a
            // function body.
            CaptureList cl = lambdaCaptures(code, callOpen);
            if (!cl.found ||
                (!cl.capturesThis && !cl.byRefDefault &&
                 !cl.byRefNamed))
                continue;

            FunctionScope scope = enclosingFunction(code, pos);
            if (scope.kind == FunctionScope::Kind::None)
                continue; // not a call site

            // Mitigation: the statement stores or returns the
            // EventId, keeping a cancellation handle.  An unbalanced
            // '(' before the call means the id is consumed by an
            // enclosing expression (push_back, insert, ...), which
            // also counts as keeping it.
            std::size_t stmt = statementStart(code, pos);
            std::string head = code.substr(stmt, pos - stmt);
            int open = 0;
            for (char hc : head)
                open += hc == '(' ? 1 : hc == ')' ? -1 : 0;
            bool stored = head.find('=') != std::string::npos ||
                          containsWord(head, "return") || open > 0;
            if (stored)
                continue;

            std::string what = cl.capturesThis ? "captures `this`"
                               : cl.byRefDefault
                                   ? "captures by reference (&)"
                                   : "captures locals by reference";
            out.push_back(
                {f.rel, f.lineOf(pos), "lifetime",
                 "scheduled lambda " + what +
                     " but the EventId is discarded; keep it (and "
                     "cancel on teardown) or capture owning state"});
        }
    }
}

// ---------------------------------------------------------------------
// tracescope: protocol-layer transmissions with no span evidence.
// Figures in the paper are cut from traces; a protocol send that can
// run outside any span produces orphan records the analyzers drop
// silently.  Static approximation of "a TraceScope is active": the
// call is inside a lambda (the ambient context was captured when the
// closure was armed), the enclosing function handles a Message (the
// delivery path installed the message's context), or the function
// opened a ScopedSpan earlier in its body.

const std::set<std::string> &
protocolModules()
{
    static const std::set<std::string> dirs = {
        "plaxton", "bloom", "consistency", "naming",
        "archive", "access", "core"};
    return dirs;
}

void
passTraceScope(const PassContext &ctx, std::vector<Finding> &out)
{
    static const std::regex send_call(
        R"([.>]\s*(send|multicast)\s*\()");
    for (const auto &f : *ctx.files) {
        if (!protocolModules().count(f.module))
            continue;
        const std::string &code = f.code;
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            send_call);
             it != std::sregex_iterator(); ++it) {
            std::size_t pos = static_cast<std::size_t>(it->position());
            FunctionScope scope = enclosingFunction(code, pos);
            if (scope.kind == FunctionScope::Kind::None)
                continue;
            if (scope.kind == FunctionScope::Kind::Lambda)
                continue; // ambient context captured at arming time
            std::string params =
                code.substr(scope.paramOpen,
                            scope.paramClose - scope.paramOpen + 1);
            if (containsWord(params, "Message"))
                continue; // delivery handler: context is installed
            std::string body = code.substr(scope.bodyOpen,
                                           pos - scope.bodyOpen);
            if (body.find("ScopedSpan") != std::string::npos)
                continue; // span opened earlier in this function
            out.push_back(
                {f.rel, f.lineOf(pos), "tracescope",
                 "protocol " + (*it)[1].str() +
                     " with no span evidence in scope; open a "
                     "ScopedSpan at the protocol entry point (or "
                     "take the triggering Message as a parameter)"});
        }
    }
}

// ---------------------------------------------------------------------
// layering: the include graph vs. the declared DAG, plus cycles.

void
passLayering(const PassContext &ctx, std::vector<Finding> &out)
{
    if (ctx.layers == nullptr || ctx.graph == nullptr)
        return;
    const Layers &L = *ctx.layers;

    // Modules in the tree but missing from layers.txt: report at the
    // first file of the module.
    std::set<std::string> reported;
    for (const auto &f : *ctx.files) {
        if (!L.contains(f.module) && reported.insert(f.module).second) {
            out.push_back(
                {f.rel, 1, "layering",
                 "module '" + f.module + "' is not declared in " +
                     ctx.layersFile});
        }
    }

    // Declared modules that no longer exist.
    for (const auto &[mod, tier] : L.tierOf) {
        (void)tier;
        if (!ctx.graph->modules.count(mod)) {
            out.push_back(
                {ctx.layersFile, L.declLine.at(mod), "layering",
                 "module '" + mod +
                     "' is declared here but has no files in the "
                     "tree"});
        }
    }

    // Per-include direction checks.
    for (const auto &f : *ctx.files) {
        if (!L.contains(f.module))
            continue;
        std::size_t fromTier = L.tierOf.at(f.module);
        for (const auto &inc : f.includes) {
            auto slash = inc.path.find('/');
            if (slash == std::string::npos)
                continue;
            std::string to = inc.path.substr(0, slash);
            if (to == f.module || !L.contains(to))
                continue;
            std::size_t toTier = L.tierOf.at(to);
            if (toTier > fromTier) {
                out.push_back(
                    {f.rel, inc.line, "layering",
                     "upward include: '" + f.module + "' (layer " +
                         std::to_string(fromTier) + ") -> '" + to +
                         "' (layer " + std::to_string(toTier) +
                         "); dependencies must point down the DAG"});
            } else if (toTier == fromTier) {
                out.push_back(
                    {f.rel, inc.line, "layering",
                     "same-layer include: '" + f.module + "' -> '" +
                         to + "' (both layer " +
                         std::to_string(fromTier) +
                         "); modules in one layer must be "
                         "independent"});
            }
        }
    }

    // File-level include cycles (layering cannot see them when they
    // stay inside one module).
    for (const auto &cycle : findIncludeCycles(*ctx.files)) {
        std::string path;
        for (const auto &p : cycle)
            path += (path.empty() ? "" : " -> ") + p;
        out.push_back({cycle.front(), 1, "layering",
                       "include cycle: " + path + " -> " +
                           cycle.front()});
    }
}

// ---------------------------------------------------------------------
// metrics-manifest: every metric name literal registered in code must
// appear in the manifest, and every manifest entry must still be
// registered somewhere.  Keeps dashboards and the paper's figure
// scripts from silently drifting off the code.

void
passMetricsManifest(const PassContext &ctx, std::vector<Finding> &out)
{
    if (ctx.manifest == nullptr)
        return;
    static const std::regex reg_call(
        R"(\b(counter|gauge|histogram)\s*\(\s*"([^"\n]+)\")");
    std::set<std::string> registered;
    for (const auto &f : *ctx.files) {
        for (auto it = std::sregex_iterator(f.codeStrings.begin(),
                                            f.codeStrings.end(),
                                            reg_call);
             it != std::sregex_iterator(); ++it) {
            std::string name = (*it)[2].str();
            registered.insert(name);
            if (!ctx.manifest->count(name)) {
                out.push_back(
                    {f.rel,
                     f.lineOf(static_cast<std::size_t>(it->position())),
                     "metrics-manifest",
                     "metric '" + name + "' is not listed in " +
                         ctx.manifestFile +
                         "; add it so dashboards track it"});
            }
        }
    }
    for (const auto &[name, line] : *ctx.manifest) {
        if (!registered.count(name)) {
            out.push_back(
                {ctx.manifestFile, line, "metrics-manifest",
                 "metric '" + name +
                     "' is declared here but never registered in the "
                     "tree"});
        }
    }
}

} // namespace

std::map<std::string, std::set<std::string>>
collectUnorderedByModule(const std::vector<SourceFile> &files)
{
    std::map<std::string, std::set<std::string>> byModule;
    for (const auto &f : files)
        collectUnorderedNames(f.code, byModule[f.module]);
    return byModule;
}

const std::vector<Pass> &
allPasses()
{
    static const std::vector<Pass> passes = {
        {"randomness", passRandomness},
        {"unordered-iteration", passUnorderedIteration},
        {"pointer-key", passPointerKey},
        {"address-hash", passAddressHash},
        {"header-guard", passHeaderGuard},
        {"adhoc-print", passAdhocPrint},
        {"lifetime", passLifetime},
        {"tracescope", passTraceScope},
        {"layering", passLayering},
        {"metrics-manifest", passMetricsManifest},
    };
    return passes;
}

} // namespace oslint
