/**
 * @file
 * tracecat: offline analyzer for observability span dumps.
 *
 * Consumes the JSONL trace format written by obs/export.cc (one span
 * object per line) and reconstructs what the simulation did:
 *
 *   tracecat dump.jsonl                 summary (traces, spans, names)
 *   tracecat --paths dump.jsonl         per-trace critical paths
 *   tracecat --hops dump.jsonl          hop histogram of message spans
 *   tracecat --retries dump.jsonl       retry trees (repeated sends
 *                                       under one parent span)
 *   tracecat --trace N ...              restrict to one trace id
 *   tracecat --expect-chain a,b,c f     exit 0 iff some trace contains
 *                                       spans named a, b, c in
 *                                       ancestor order (used by tests
 *                                       to assert the causal chain of
 *                                       a committed update)
 *
 * The parser is deliberately minimal: it understands exactly the
 * exporter's fixed field order and formatting, which is part of the
 * byte-determinism contract (DESIGN.md section 11).
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Span
{
    std::uint64_t trace = 0;
    std::uint32_t span = 0;
    std::uint32_t parent = 0;
    std::string component;
    std::string name;
    long node = -1;
    long peer = -1;
    std::uint32_t hop = 0;
    std::uint64_t bytes = 0;
    double start = 0.0;
    double end = 0.0;
    std::string kind;
    std::string status;
};

/** Extract `"key": <number>` from a JSONL line; @p fallback when
 *  absent. */
double
numField(const std::string &line, const std::string &key, double fallback)
{
    std::string needle = "\"" + key + "\": ";
    auto pos = line.find(needle);
    if (pos == std::string::npos)
        return fallback;
    return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/** Extract `"key": "<string>"` from a JSONL line. */
std::string
strField(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\": \"";
    auto pos = line.find(needle);
    if (pos == std::string::npos)
        return "";
    auto begin = pos + needle.size();
    auto end = line.find('"', begin);
    if (end == std::string::npos)
        return "";
    return line.substr(begin, end - begin);
}

bool
parseLine(const std::string &line, Span &s)
{
    if (line.empty() || line[0] != '{')
        return false;
    s.trace = static_cast<std::uint64_t>(numField(line, "trace", 0));
    s.span = static_cast<std::uint32_t>(numField(line, "span", 0));
    if (s.trace == 0 || s.span == 0)
        return false;
    s.parent = static_cast<std::uint32_t>(numField(line, "parent", 0));
    s.component = strField(line, "component");
    s.name = strField(line, "name");
    s.node = static_cast<long>(numField(line, "node", -1));
    s.peer = static_cast<long>(numField(line, "peer", -1));
    s.hop = static_cast<std::uint32_t>(numField(line, "hop", 0));
    s.bytes = static_cast<std::uint64_t>(numField(line, "bytes", 0));
    s.start = numField(line, "start", 0.0);
    s.end = numField(line, "end", 0.0);
    s.kind = strField(line, "kind");
    s.status = strField(line, "status");
    return true;
}

struct Dump
{
    std::vector<Span> spans;
    /** From an optional `{"meta": ...}` header line (flight dumps):
     *  what produced the file and which clock its times use ("wall"
     *  for threaded runs, "sim" otherwise). */
    std::string metaKind;
    std::string metaClock;
    double metaRecorded = -1.0;
    std::map<std::uint32_t, std::size_t> bySpanId;
    /** Children of each span id (0 = trace roots), per trace. */
    std::map<std::uint64_t, std::map<std::uint32_t,
                                     std::vector<std::uint32_t>>>
        children;

    void
    index()
    {
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            bySpanId[s.span] = i;
            children[s.trace][s.parent].push_back(s.span);
        }
    }

    const Span &bySpan(std::uint32_t id) const
    {
        return spans[bySpanId.at(id)];
    }
};

void
printSummary(const Dump &d)
{
    std::map<std::uint64_t, std::size_t> perTrace;
    std::map<std::string, std::size_t> perName;
    std::size_t dropped = 0;
    for (const Span &s : d.spans) {
        perTrace[s.trace]++;
        perName[s.name]++;
        if (s.status == "dropped")
            dropped++;
    }
    if (!d.metaKind.empty()) {
        std::cout << "dump:    " << d.metaKind << " ("
                  << (d.metaClock.empty() ? "sim" : d.metaClock)
                  << " clock)";
        if (d.metaRecorded >= 0)
            std::cout << ", " << static_cast<std::uint64_t>(
                                     d.metaRecorded)
                      << " recorded";
        std::cout << "\n";
    }
    std::cout << "spans:   " << d.spans.size() << "\n"
              << "traces:  " << perTrace.size() << "\n"
              << "dropped: " << dropped << "\n\nspans by name:\n";
    std::vector<std::pair<std::string, std::size_t>> rows(
        perName.begin(), perName.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    for (const auto &[name, count] : rows)
        std::cout << "  " << count << "\t" << name << "\n";
}

void
printHops(const Dump &d)
{
    std::map<std::uint32_t, std::size_t> hist;
    for (const Span &s : d.spans) {
        if (s.kind == "send" || s.kind == "multicast")
            hist[s.hop]++;
    }
    std::cout << "hop histogram (message spans):\n";
    for (const auto &[hop, count] : hist)
        std::cout << "  hop " << hop << ": " << count << "\n";
}

/** The trace's critical path: the ancestor chain of its
 *  latest-finishing span. */
void
printPaths(const Dump &d)
{
    std::map<std::uint64_t, std::uint32_t> deepest;
    for (const Span &s : d.spans) {
        auto it = deepest.find(s.trace);
        if (it == deepest.end() || s.end > d.bySpan(it->second).end)
            deepest[s.trace] = s.span;
    }
    for (const auto &[trace, leaf] : deepest) {
        std::vector<std::uint32_t> chain;
        std::uint32_t cur = leaf;
        while (cur != 0 && d.bySpanId.count(cur)) {
            chain.push_back(cur);
            cur = d.bySpan(cur).parent;
        }
        std::reverse(chain.begin(), chain.end());
        const Span &root = d.bySpan(chain.front());
        const Span &last = d.bySpan(chain.back());
        std::ostringstream head;
        head << "trace " << trace << "  ("
             << (last.end - root.start) * 1e3 << " ms, "
             << chain.size() << " spans on critical path)";
        std::cout << head.str() << "\n";
        for (std::uint32_t id : chain) {
            const Span &s = d.bySpan(id);
            std::cout << "  t=" << s.start << "  +"
                      << (s.end - s.start) * 1e3 << "ms  hop=" << s.hop
                      << "  " << s.name;
            if (s.node >= 0) {
                std::cout << "  [" << s.node;
                if (s.peer >= 0 && s.kind == "send")
                    std::cout << " -> " << s.peer;
                else if (s.kind == "multicast")
                    std::cout << " -> x" << s.peer;
                std::cout << "]";
            }
            if (s.status == "dropped")
                std::cout << "  DROPPED";
            std::cout << "\n";
        }
        std::cout << "\n";
    }
}

/** Retry trees: a parent span with several same-named message
 *  children is a retransmission burst; print each such group. */
void
printRetries(const Dump &d)
{
    bool any = false;
    for (const auto &[trace, byParent] : d.children) {
        for (const auto &[parent, kids] : byParent) {
            std::map<std::string, std::vector<std::uint32_t>> byName;
            for (std::uint32_t id : kids) {
                const Span &s = d.bySpan(id);
                if (s.kind == "send" || s.kind == "multicast")
                    byName[s.name].push_back(id);
            }
            for (const auto &[name, group] : byName) {
                if (group.size() < 2)
                    continue;
                any = true;
                std::cout << "trace " << trace << "  parent span "
                          << parent;
                if (parent != 0 && d.bySpanId.count(parent))
                    std::cout << " (" << d.bySpan(parent).name << ")";
                std::cout << ": " << group.size() << "x " << name
                          << "\n";
                for (std::uint32_t id : group) {
                    const Span &s = d.bySpan(id);
                    std::cout << "    t=" << s.start << "  " << s.status
                              << "\n";
                }
            }
        }
    }
    if (!any)
        std::cout << "no retransmission groups found\n";
}

/** DFS: does some root-to-leaf path of @p trace contain the expected
 *  names as a subsequence in ancestor order? */
bool
chainFrom(const Dump &d, std::uint64_t trace, std::uint32_t span,
          const std::vector<std::string> &expect, std::size_t matched)
{
    const Span &s = d.bySpan(span);
    if (matched < expect.size() && s.name == expect[matched])
        matched++;
    if (matched == expect.size())
        return true;
    auto tit = d.children.find(trace);
    if (tit == d.children.end())
        return false;
    auto cit = tit->second.find(span);
    if (cit == tit->second.end())
        return false;
    for (std::uint32_t child : cit->second) {
        if (chainFrom(d, trace, child, expect, matched))
            return true;
    }
    return false;
}

bool
expectChain(const Dump &d, const std::vector<std::string> &expect)
{
    for (const auto &[trace, byParent] : d.children) {
        auto rit = byParent.find(0);
        if (rit == byParent.end())
            continue;
        for (std::uint32_t root : rit->second) {
            if (chainFrom(d, trace, root, expect, 0))
                return true;
        }
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    bool hops = false, paths = false, retries = false;
    std::uint64_t only_trace = 0;
    std::vector<std::string> expect;
    std::string file;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--hops") {
            hops = true;
        } else if (arg == "--paths") {
            paths = true;
        } else if (arg == "--retries") {
            retries = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            only_trace = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--expect-chain" && i + 1 < argc) {
            std::stringstream ss(argv[++i]);
            std::string name;
            while (std::getline(ss, name, ','))
                expect.push_back(name);
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: tracecat [--paths] [--hops] [--retries]\n"
                << "                [--trace N]\n"
                << "                [--expect-chain n1,n2,...] FILE\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "tracecat: unknown option " << arg << "\n";
            return 2;
        } else {
            file = arg;
        }
    }
    if (file.empty()) {
        std::cerr << "tracecat: no input file\n";
        return 2;
    }

    std::ifstream in(file);
    if (!in) {
        std::cerr << "tracecat: cannot open " << file << "\n";
        return 2;
    }

    Dump dump;
    std::string line;
    while (std::getline(in, line)) {
        // Flight dumps lead with a meta header describing
        // the producer and clock domain; it carries no span fields,
        // so it must be recognized before the span parse skips it.
        if (dump.metaKind.empty() &&
            line.find("\"meta\": ") != std::string::npos) {
            dump.metaKind = strField(line, "meta");
            dump.metaClock = strField(line, "clock");
            dump.metaRecorded = numField(line, "recorded", -1.0);
            continue;
        }
        Span s;
        if (!parseLine(line, s))
            continue;
        if (only_trace != 0 && s.trace != only_trace)
            continue;
        dump.spans.push_back(std::move(s));
    }
    dump.index();

    if (!expect.empty()) {
        if (expectChain(dump, expect)) {
            std::cout << "chain found: ";
            for (std::size_t i = 0; i < expect.size(); i++)
                std::cout << (i ? " -> " : "") << expect[i];
            std::cout << "\n";
            return 0;
        }
        std::cout << "chain NOT found\n";
        return 1;
    }

    bool any_mode = hops || paths || retries;
    if (!any_mode)
        printSummary(dump);
    if (hops)
        printHops(dump);
    if (paths)
        printPaths(dump);
    if (retries)
        printRetries(dump);
    return 0;
}
