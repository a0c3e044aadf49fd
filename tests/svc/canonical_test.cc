/**
 * @file
 * Property tests for svc::canonicalize and svc::planKey: the
 * canonicalizer is idempotent, access-equivalent disguises of the
 * gallery kernels (renamed, shifted, reversed, scale-rendered) produce
 * byte-identical canonical text and identical plan keys, and the key is
 * sensitive to everything the compilation actually depends on (machine
 * parameters, compile options) and nothing else.
 */

#include <gtest/gtest.h>

#include "dsl/parser.h"
#include "ir/gallery.h"
#include "svc/canonical.h"
#include "svc/workload.h"

namespace anc::svc {
namespace {

std::vector<std::pair<const char *, ir::Program>>
galleryKernels()
{
    return {
        {"figure1", ir::gallery::figure1()},
        {"section3", ir::gallery::section3Example()},
        {"scaling", ir::gallery::scalingExample()},
        {"section5", ir::gallery::section5Example()},
        {"gemm", ir::gallery::gemm()},
        {"gemv", ir::gallery::gemv()},
        {"ger", ir::gallery::ger()},
        {"jacobi2d", ir::gallery::jacobi2d()},
        {"gaussSeidel", ir::gallery::gaussSeidel()},
        {"syr2kBanded", ir::gallery::syr2kBanded()},
    };
}

PlanKey
keyOf(const ir::Program &prog)
{
    core::CompileOptions opts;
    return planKey(canonicalize(prog),
                   numa::MachineParams::butterflyGP1000(), opts);
}

TEST(CanonicalTest, IdempotentOnEveryGalleryKernel)
{
    for (const auto &[name, prog] : galleryKernels()) {
        CanonicalForm once = canonicalize(prog);
        CanonicalForm twice = canonicalize(once.program);
        EXPECT_EQ(once.text, twice.text) << name;
        // The second pass finds nothing left to do.
        EXPECT_EQ(twice.shiftedLevels, 0u) << name;
        EXPECT_EQ(twice.reversedLevels, 0u) << name;
        EXPECT_FALSE(twice.renamed) << name;
    }
}

TEST(CanonicalTest, RenamedVariantsFoldOntoOneForm)
{
    for (const auto &[name, prog] : galleryKernels()) {
        CanonicalForm base = canonicalize(prog);
        for (const char *prefix : {"t", "idx", "zz"}) {
            ir::Program variant = renamedVariant(prog, prefix);
            CanonicalForm c = canonicalize(variant);
            EXPECT_EQ(c.text, base.text) << name << " prefix " << prefix;
            EXPECT_EQ(keyOf(variant), keyOf(prog)) << name;
        }
    }
}

TEST(CanonicalTest, ShiftedVariantsFoldOntoOneForm)
{
    for (const auto &[name, prog] : galleryKernels()) {
        CanonicalForm base = canonicalize(prog);
        for (Int delta : {Int(1), Int(7), Int(-3)}) {
            ir::Program variant = shiftedVariant(prog, delta);
            CanonicalForm c = canonicalize(variant);
            EXPECT_EQ(c.text, base.text)
                << name << " delta " << delta;
            EXPECT_EQ(keyOf(variant), keyOf(prog)) << name;
        }
    }
}

TEST(CanonicalTest, ReversedVariantsFoldOntoOneForm)
{
    for (const auto &[name, prog] : galleryKernels()) {
        CanonicalForm base = canonicalize(prog);
        for (size_t level = 0; level < prog.nest.depth(); ++level) {
            ir::Program variant = reversedVariant(prog, level);
            CanonicalForm c = canonicalize(variant);
            EXPECT_EQ(c.text, base.text)
                << name << " level " << level;
            EXPECT_EQ(keyOf(variant), keyOf(prog)) << name;
        }
    }
}

TEST(CanonicalTest, ScaleRenderedSourceFoldsOntoOneForm)
{
    // Bounds rendered as (f*(e))/f parse back to the exact same
    // rational coefficients, so the canonical form -- and therefore the
    // key -- is untouched by the rendering.
    for (const auto &[name, prog] : galleryKernels()) {
        CanonicalForm base = canonicalize(prog);
        for (Int factor : {Int(2), Int(5)}) {
            ir::Program parsed =
                dsl::parseProgram(rescaledSource(prog, factor));
            CanonicalForm c = canonicalize(parsed);
            EXPECT_EQ(c.text, base.text)
                << name << " factor " << factor;
            EXPECT_EQ(keyOf(parsed), keyOf(prog)) << name;
        }
    }
}

TEST(CanonicalTest, StackedDisguisesStillFold)
{
    // Rename, then shift, then reverse the outer level, then render
    // with scaled bounds: four disguises deep, still one key.
    ir::Program gemm = ir::gallery::gemm();
    ir::Program stacked =
        reversedVariant(shiftedVariant(renamedVariant(gemm, "u"), 4), 0);
    ir::Program parsed = dsl::parseProgram(rescaledSource(stacked, 3));
    EXPECT_EQ(canonicalize(parsed).text, canonicalize(gemm).text);
    EXPECT_EQ(keyOf(parsed), keyOf(gemm));
}

TEST(CanonicalTest, CanonicalTextMatchesProgramRendering)
{
    // `text` is exactly the DSL rendering of `program`: parsing it back
    // and canonicalizing again is a fixed point end to end.
    ir::Program jacobi = ir::gallery::jacobi2d();
    CanonicalForm c = canonicalize(jacobi);
    ir::Program reparsed = dsl::parseProgram(c.text);
    EXPECT_EQ(canonicalize(reparsed).text, c.text);
}

TEST(CanonicalTest, DistinctKernelsGetDistinctKeys)
{
    std::vector<PlanKey> keys;
    for (const auto &[name, prog] : galleryKernels())
        keys.push_back(keyOf(prog));
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

TEST(CanonicalTest, KeyDependsOnMachineParameters)
{
    CanonicalForm c = canonicalize(ir::gallery::gemm());
    core::CompileOptions opts;
    PlanKey gp =
        planKey(c, numa::MachineParams::butterflyGP1000(), opts);
    PlanKey ipsc = planKey(c, numa::MachineParams::ipsc860(), opts);
    EXPECT_NE(gp, ipsc);

    numa::MachineParams tweaked = numa::MachineParams::butterflyGP1000();
    tweaked.elementSize += 4;
    EXPECT_NE(planKey(c, tweaked, opts), gp);
}

TEST(CanonicalTest, KeyDependsOnCompileOptions)
{
    CanonicalForm c = canonicalize(ir::gallery::gemm());
    numa::MachineParams m = numa::MachineParams::butterflyGP1000();
    core::CompileOptions base;
    PlanKey k0 = planKey(c, m, base);

    core::CompileOptions identity = base;
    identity.identityTransform = true;
    EXPECT_NE(planKey(c, m, identity), k0);

    core::CompileOptions validate = base;
    validate.validate = true;
    EXPECT_NE(planKey(c, m, validate), k0);
}

TEST(CanonicalTest, KeyIgnoresObservabilityKnobs)
{
    // Tracing and cancellation change nothing about the produced plan,
    // so they must not split the cache.
    CanonicalForm c = canonicalize(ir::gallery::gemm());
    numa::MachineParams m = numa::MachineParams::butterflyGP1000();
    core::CompileOptions base;
    core::CompileOptions traced = base;
    obs::Trace trace;
    traced.trace = &trace;
    traced.tracePid = 42;
    EXPECT_EQ(planKey(c, m, traced), planKey(c, m, base));
}

TEST(CanonicalTest, HexKeyIsStableAnd32Digits)
{
    PlanKey k = keyOf(ir::gallery::gemm());
    EXPECT_EQ(k.hex().size(), 32u);
    EXPECT_EQ(k.hex(), keyOf(ir::gallery::gemm()).hex());
}

TEST(CanonicalTest, RejectsInvalidProgram)
{
    ir::Program bad = ir::gallery::gemm();
    bad.arrays[0].extents.clear();
    EXPECT_THROW(canonicalize(bad), UserError);
}

TEST(CanonicalTest, KeyCoversEverySemanticsAffectingOptionField)
{
    // Key-completeness: flip every CompileOptions field that can change
    // the produced plan, one at a time, and require a fresh key each
    // time. A field missing from planKey shows up here as a cache-
    // poisoning collision.
    CanonicalForm c = canonicalize(ir::gallery::gemm());
    numa::MachineParams m = numa::MachineParams::butterflyGP1000();
    using Mutator = void (*)(core::CompileOptions &);
    struct Field
    {
        const char *name;
        Mutator flip;
    };
    const Field fields[] = {
        {"identityTransform",
         [](core::CompileOptions &o) { o.identityTransform = true; }},
        {"validate", [](core::CompileOptions &o) { o.validate = true; }},
        {"normalize.enforceLegality",
         [](core::CompileOptions &o) {
             o.normalize.enforceLegality = false;
         }},
        {"normalize.useDistributionHint",
         [](core::CompileOptions &o) {
             o.normalize.useDistributionHint = false;
         }},
        {"search.enabled",
         [](core::CompileOptions &o) { o.search.enabled = true; }},
        {"search.budget",
         [](core::CompileOptions &o) { o.search.budget = 7; }},
        {"search.paramValue",
         [](core::CompileOptions &o) { o.search.paramValue = 17; }},
        {"search.maxEnumerated",
         [](core::CompileOptions &o) { o.search.maxEnumerated = 99; }},
        {"search.processorSweep size",
         [](core::CompileOptions &o) {
             o.search.processorSweep = {4, 32};
         }},
        {"search.processorSweep element",
         [](core::CompileOptions &o) {
             o.search.processorSweep = {4, 32, 4095};
         }},
        {"search.machine preset",
         [](core::CompileOptions &o) {
             o.search.machine = numa::MachineParams::ipsc860();
         }},
        {"search.machine.name",
         [](core::CompileOptions &o) {
             o.search.machine.name = "renamed";
         }},
        {"search.machine.localAccessTime",
         [](core::CompileOptions &o) {
             o.search.machine.localAccessTime += 0.125;
         }},
        {"search.machine.remoteAccessTime",
         [](core::CompileOptions &o) {
             o.search.machine.remoteAccessTime += 0.125;
         }},
        {"search.machine.blockStartupTime",
         [](core::CompileOptions &o) {
             o.search.machine.blockStartupTime += 0.125;
         }},
        {"search.machine.blockPerByteTime",
         [](core::CompileOptions &o) {
             o.search.machine.blockPerByteTime += 0.125;
         }},
        {"search.machine.flopTime",
         [](core::CompileOptions &o) {
             o.search.machine.flopTime += 0.125;
         }},
        {"search.machine.loopOverheadTime",
         [](core::CompileOptions &o) {
             o.search.machine.loopOverheadTime += 0.125;
         }},
        {"search.machine.guardTime",
         [](core::CompileOptions &o) {
             o.search.machine.guardTime += 0.125;
         }},
        {"search.machine.syncTime",
         [](core::CompileOptions &o) {
             o.search.machine.syncTime += 0.125;
         }},
        {"search.machine.retryBackoffTime",
         [](core::CompileOptions &o) {
             o.search.machine.retryBackoffTime += 0.125;
         }},
        {"search.machine.restartTime",
         [](core::CompileOptions &o) {
             o.search.machine.restartTime += 0.125;
         }},
        {"search.machine.elementSize",
         [](core::CompileOptions &o) {
             o.search.machine.elementSize = 4;
         }},
        {"search.machine.contentionFactor",
         [](core::CompileOptions &o) {
             o.search.machine.contentionFactor = 0.5;
         }},
    };

    core::CompileOptions base;
    PlanKey k0 = planKey(c, m, base);
    std::vector<std::pair<std::string, PlanKey>> keys;
    keys.emplace_back("base", k0);
    for (const Field &f : fields) {
        core::CompileOptions flipped;
        f.flip(flipped);
        PlanKey k = planKey(c, m, flipped);
        EXPECT_NE(k, k0) << f.name
                         << " does not reach planKey: flipping it kept "
                            "the cache key";
        keys.emplace_back(f.name, k);
    }
    // And no two single-field flips may collide with each other.
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i].second, keys[j].second)
                << keys[i].first << " collides with " << keys[j].first;
}

TEST(CanonicalTest, KeyIgnoresSearchHostThreads)
{
    // SimStats are bit-identical for every hostThreads value, so the
    // knob cannot change the searched winner and must not split the
    // plan cache.
    CanonicalForm c = canonicalize(ir::gallery::gemm());
    numa::MachineParams m = numa::MachineParams::butterflyGP1000();
    core::CompileOptions base;
    base.search.enabled = true;
    core::CompileOptions threaded = base;
    threaded.search.hostThreads = 4;
    EXPECT_EQ(planKey(c, m, threaded), planKey(c, m, base));
}

} // namespace
} // namespace anc::svc
