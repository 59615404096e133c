#include "introspect/dsl.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace oceanstore {

namespace {

std::vector<std::string>
splitTokens(const std::string &line)
{
    std::vector<std::string> toks;
    std::istringstream is(line);
    std::string t;
    while (is >> t)
        toks.push_back(t);
    return toks;
}

[[noreturn]] void
bad(const std::string &line, const std::string &why)
{
    throw std::invalid_argument("EventHandler: " + why + " in \"" +
                                line + "\"");
}

} // namespace

EventHandler
EventHandler::parse(const std::string &program)
{
    EventHandler h;
    std::istringstream is(program);
    std::string line;
    std::size_t ops = 0;

    while (std::getline(is, line)) {
        auto toks = splitTokens(line);
        if (toks.empty() || toks[0].starts_with("#"))
            continue;
        if (++ops > maxOps)
            throw std::invalid_argument(
                "EventHandler: program exceeds op budget");

        const std::string &op = toks[0];
        if (op == "filter") {
            // filter <field> <cmp> <value>
            if (toks.size() != 4)
                bad(line, "filter needs: field cmp value");
            FilterOp f;
            f.field = toks[1];
            f.cmp = toks[2];
            if (f.cmp != "==" && f.cmp != "!=" && f.cmp != "<" &&
                f.cmp != "<=" && f.cmp != ">" && f.cmp != ">=") {
                bad(line, "unknown comparator");
            }
            if (f.field == "type") {
                if (f.cmp != "==" && f.cmp != "!=")
                    bad(line, "type only supports == and !=");
                f.isText = true;
                f.text = toks[3];
            } else {
                const std::string &v = toks[3];
                const char *end = v.data() + v.size();
                if (std::from_chars(v.data(), end, f.number).ec != std::errc())
                    bad(line, "non-numeric filter value");
            }
            h.filters_.push_back(std::move(f));
        } else if (op == "avg") {
            // avg <field> window <N> as <name>
            if (toks.size() != 6 || toks[2] != "window" ||
                toks[4] != "as") {
                bad(line, "avg needs: field window N as name");
            }
            AvgOp a;
            a.field = toks[1];
            a.window = std::stoul(toks[3]);
            if (a.window == 0)
                bad(line, "zero window");
            a.name = toks[5];
            h.avgs_.push_back(std::move(a));
        } else if (op == "sum") {
            // sum <field> as <name>
            if (toks.size() != 4 || toks[2] != "as")
                bad(line, "sum needs: field as name");
            h.sums_.push_back(SumOp{toks[1], toks[3], 0.0});
        } else if (op == "count") {
            // count as <name>
            if (toks.size() != 3 || toks[1] != "as")
                bad(line, "count needs: as name");
            h.counts_.push_back(CountOp{toks[2], 0});
        } else if (op == "max" || op == "min") {
            // max <field> as <name>
            if (toks.size() != 4 || toks[2] != "as")
                bad(line, op + " needs: field as name");
            ExtremeOp e;
            e.field = toks[1];
            e.name = toks[3];
            e.isMax = (op == "max");
            h.extremes_.push_back(std::move(e));
        } else if (op == "emit") {
            // emit every <N>
            if (toks.size() != 3 || toks[1] != "every")
                bad(line, "emit needs: every N");
            EmitOp e;
            e.every = std::stoull(toks[2]);
            if (e.every == 0)
                bad(line, "emit every 0");
            h.emits_.push_back(e);
        } else {
            // Anything else — including for/while/goto — is rejected:
            // the language explicitly prohibits loops.
            bad(line, "unknown operation '" + op + "'");
        }
    }
    return h;
}

void
EventHandler::onEvent(const Event &e)
{
    for (const FilterOp &f : filters_) {
        if (f.isText) {
            bool eq = (e.type == f.text);
            if ((f.cmp == "==" && !eq) || (f.cmp == "!=" && eq))
                return;
            continue;
        }
        auto it = e.fields.find(f.field);
        if (it == e.fields.end())
            return; // missing field fails the filter
        double v = it->second;
        bool pass = (f.cmp == "==")   ? v == f.number
                    : (f.cmp == "!=") ? v != f.number
                    : (f.cmp == "<")  ? v < f.number
                    : (f.cmp == "<=") ? v <= f.number
                    : (f.cmp == ">")  ? v > f.number
                                      : v >= f.number;
        if (!pass)
            return;
    }

    matched_++;

    for (AvgOp &a : avgs_) {
        auto it = e.fields.find(a.field);
        if (it == e.fields.end())
            continue;
        a.ring.push_back(it->second);
        a.windowSum += it->second;
        if (a.ring.size() > a.window) {
            a.windowSum -= a.ring.front();
            a.ring.pop_front();
        }
    }
    for (SumOp &s : sums_) {
        auto it = e.fields.find(s.field);
        if (it != e.fields.end())
            s.total += it->second;
    }
    for (CountOp &c : counts_)
        c.n++;
    for (ExtremeOp &x : extremes_) {
        auto it = e.fields.find(x.field);
        if (it == e.fields.end())
            continue;
        if (!x.seen || (x.isMax ? it->second > x.value
                               : it->second < x.value)) {
            x.value = it->second;
            x.seen = true;
        }
    }
    for (EmitOp &em : emits_) {
        if (++em.sinceLast >= em.every) {
            em.sinceLast = 0;
            summaries_.push_back(current());
        }
    }
}

Summary
EventHandler::current() const
{
    Summary s;
    for (const AvgOp &a : avgs_) {
        s[a.name] = a.ring.empty()
                        ? 0.0
                        : a.windowSum /
                              static_cast<double>(a.ring.size());
    }
    for (const SumOp &sm : sums_)
        s[sm.name] = sm.total;
    for (const CountOp &c : counts_)
        s[c.name] = static_cast<double>(c.n);
    for (const ExtremeOp &x : extremes_)
        s[x.name] = x.seen ? x.value : 0.0;
    return s;
}

} // namespace oceanstore
