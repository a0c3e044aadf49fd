/**
 * @file
 * Golden plan keys: every pinned input keys and canonicalizes exactly
 * as recorded in golden_plan_keys.txt.
 *
 * Plan keys are the cache's external contract (the journal and every
 * response carry them), so they may change only on purpose, at most
 * once per key encoding. A change to the parser, the canonicalizer or
 * the renderer that moves any key or canonical text fails here.
 *
 * To regenerate the file after an intended key change:
 *   ANC_WRITE_GOLDEN=tests/svc/golden_plan_keys.txt \
 *       build/tests/svc/golden_keys_test
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "golden_inputs.h"

namespace anc::golden {
namespace {

const char *const kGoldenFile =
    ANC_SOURCE_DIR "/tests/svc/golden_plan_keys.txt";

TEST(GoldenPlanKeys, EveryInputKeysAsRecorded)
{
    std::vector<std::string> now = lines();
    if (const char *path = std::getenv("ANC_WRITE_GOLDEN")) {
        std::ofstream out(path);
        for (const std::string &l : now)
            out << l << "\n";
        GTEST_SKIP() << "wrote " << now.size() << " lines to " << path;
    }
    std::ifstream in(kGoldenFile);
    ASSERT_TRUE(in) << kGoldenFile;
    std::vector<std::string> want;
    for (std::string l; std::getline(in, l);)
        want.push_back(l);
    ASSERT_EQ(now.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(now[i], want[i]) << "line " << i + 1;
}

} // namespace
} // namespace anc::golden
