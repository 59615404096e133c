/* Fixture: ad-hoc console output in library code, plus an
 * unordered-container iteration (obs is order-sensitive: trace and
 * metric dumps must be byte-identical across runs).  Lines without an
 * EXPECT-LINT marker must stay clean. */
#include <cstdio>
#include <iostream>
#include <unordered_map>

void
chatty(int n)
{
    std::printf("n=%d\n", n); // EXPECT-LINT: adhoc-print
    std::cout << n << "\n"; // EXPECT-LINT: adhoc-print
    std::fprintf(stderr, "diagnostic: %d\n", n); // EXPECT-LINT: adhoc-print
    std::cerr << n << "\n"; // EXPECT-LINT: adhoc-print
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", n); // snprintf is legal
    (void)buf;
}

int
sumValues(const std::unordered_map<int, int> &m)
{
    int sum = 0;
    for (const auto &kv : m) // EXPECT-LINT: unordered-iteration
        sum += kv.second;
    return sum;
}
