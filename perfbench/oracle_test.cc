/**
 * @file
 * Unit test of the benchmark's correctness oracle (Model::matchPrefix):
 * recovered images that keep every acknowledged write plus a prefix of
 * the unacknowledged tail pass; anything else fails.
 */

#include <cstdio>

#include "oracle.h"

using perfbench::Model;
using asymnvm::Value;

namespace {

int failures = 0;

void
expect(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "oracle_test: FAIL: %s\n", what);
        ++failures;
    }
}

Value
val(uint64_t x)
{
    return Value::ofU64(x);
}

/**
 * One table {1: 10, 2: 20} and one list [7]; request 1 (acknowledged by
 * the commit in request 2) sets key 1 to 11; requests 2 and 3 form the
 * unacknowledged tail: key 2 to 21, then push 8.
 */
Model
scenario()
{
    Model m(1, 1);
    m.table(0)[1] = val(10);
    m.table(0)[2] = val(20);
    m.list(0).push_back(val(7));
    m.put(0, 1, val(11), 1);
    m.put(0, 2, val(21), 2);
    m.pushBack(0, val(8), 3);
    m.ack(2);
    return m;
}

Model::Image
image(uint64_t k1, uint64_t k2, std::vector<uint64_t> list)
{
    Model::Image img;
    img.tables.resize(1);
    img.lists.resize(1);
    img.tables[0][1] = val(k1);
    img.tables[0][2] = val(k2);
    for (uint64_t x : list)
        img.lists[0].push_back(val(x));
    return img;
}

} // namespace

int
main()
{
    {
        Model m = scenario();
        expect(m.matchPrefix(image(11, 21, {7, 8})), "whole tail kept");
        expect(m.pending() == 2, "whole tail counted as kept");
    }
    {
        Model m = scenario();
        expect(m.matchPrefix(image(11, 21, {7})), "tail prefix kept");
        expect(m.pending() == 1, "tail prefix counted");
    }
    {
        Model m = scenario();
        expect(m.matchPrefix(image(11, 20, {7})), "whole tail lost");
        expect(m.pending() == 0, "lost tail counted");
    }
    {
        Model m = scenario();
        expect(!m.matchPrefix(image(10, 20, {7})),
               "acknowledged write lost must fail");
    }
    {
        Model m = scenario();
        expect(!m.matchPrefix(image(11, 20, {7, 8})),
               "tail kept out of order must fail");
    }
    {
        Model m = scenario();
        expect(!m.matchPrefix(image(11, 21, {8})),
               "acknowledged list element lost must fail");
    }
    {
        Model m = scenario();
        expect(!m.matchPrefix(image(11, 22, {7, 8})),
               "foreign value must fail");
    }
    if (failures == 0)
        std::printf("oracle_test: ok\n");
    return failures == 0 ? 0 : 1;
}
