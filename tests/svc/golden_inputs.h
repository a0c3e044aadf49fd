/**
 * @file
 * The inputs whose plan keys are pinned in golden_plan_keys.txt, and
 * the line format of that file.
 *
 * Fixed inputs: the gallery kernels, every request of the samples
 * (.an files and the .anb batch), the examples and the fuzz corpus
 * seeds. Streams: the clustered request streams bench_service draws
 * (its default 240 requests and its full-scale 1000) and the ones the
 * perfbench serve_hot workload draws for seeds 1-3 (1024 clusters,
 * 30000 requests). Every input is keyed under default service options.
 */

#ifndef ANC_TESTS_SVC_GOLDEN_INPUTS_H
#define ANC_TESTS_SVC_GOLDEN_INPUTS_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsl/parser.h"
#include "ir/gallery.h"
#include "svc/canonical.h"
#include "svc/service.h"
#include "svc/workload.h"

#ifndef ANC_SOURCE_DIR
#define ANC_SOURCE_DIR "."
#endif

namespace anc::golden {

/** One input: a gallery program or a DSL source. */
struct Input
{
    std::string name;
    std::optional<ir::Program> program; //!< gallery kernels only
    std::string source;                 //!< everything else
};

inline std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Gallery, samples (with every request of each batch), examples and
 * corpus seeds, in a fixed order. */
inline std::vector<Input>
fixedInputs()
{
    std::vector<Input> out = {
        {"gallery/figure1", ir::gallery::figure1(), ""},
        {"gallery/section3", ir::gallery::section3Example(), ""},
        {"gallery/scaling", ir::gallery::scalingExample(), ""},
        {"gallery/section5", ir::gallery::section5Example(), ""},
        {"gallery/gemm", ir::gallery::gemm(), ""},
        {"gallery/gemv", ir::gallery::gemv(), ""},
        {"gallery/ger", ir::gallery::ger(), ""},
        {"gallery/jacobi2d", ir::gallery::jacobi2d(), ""},
        {"gallery/gaussSeidel", ir::gallery::gaussSeidel(), ""},
        {"gallery/syr2kBanded", ir::gallery::syr2kBanded(), ""},
        {"gallery/skewedScatter", ir::gallery::skewedScatter(), ""},
    };
    namespace fs = std::filesystem;
    for (const char *dir :
         {"tools/samples", "examples", "tests/integration/corpus"}) {
        std::vector<fs::path> files;
        for (const fs::directory_entry &ent :
             fs::directory_iterator(fs::path(ANC_SOURCE_DIR) / dir))
            if (ent.path().extension() == ".an" ||
                ent.path().extension() == ".anb")
                files.push_back(ent.path());
        std::sort(files.begin(), files.end());
        for (const fs::path &file : files) {
            std::string name =
                std::string(dir) + "/" + file.filename().string();
            std::string text = readFile(file);
            if (file.extension() == ".an") {
                out.push_back({name, std::nullopt, text});
                continue;
            }
            for (const svc::BatchRequest &q : svc::parseBatch(text))
                out.push_back({name + "#" + q.id, std::nullopt, q.source});
        }
    }
    return out;
}

/** A named request stream, pinned in blocks of kBlock requests. */
struct Stream
{
    std::string name;
    svc::WorkloadOptions options;
};

constexpr size_t kBlock = 250;

inline std::vector<Stream>
streams()
{
    std::vector<Stream> out = {
        {"bench_service/240", {20260808, 8, 240}},
        {"bench_service/1000", {20260808, 8, 1000}},
    };
    // perfbench serve_hot: clusteredWorkload(seed, 2 * 512, 3 * 10000).
    for (uint64_t seed = 1; seed <= 3; ++seed)
        out.push_back({"serve_hot/seed" + std::to_string(seed),
                       {seed, 1024, 30000}});
    return out;
}

/** Fletcher-64 over the bytes of a string (32-bit halves mod 2^32-1). */
inline uint64_t
fletcher64(const std::string &s)
{
    uint64_t a = 0, b = 0;
    for (unsigned char c : s) {
        a = (a + c) % 0xffffffffu;
        b = (b + a) % 0xffffffffu;
    }
    return b << 32 | a;
}

inline std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** What keying one input produced: the plan key's hex and the
 * canonical text, or "shed" and the empty text when the input does not
 * parse or canonicalize. */
struct Keyed
{
    std::string key;
    std::string text;
};

inline Keyed
keyOf(ir::Program prog)
{
    svc::ServiceOptions o;
    o.compile.base.search.machine = o.machine; // as svc::Service does
    try {
        svc::CanonicalForm c = svc::canonicalize(std::move(prog));
        return {svc::planKey(c, o.machine, o.compile.base).hex(), c.text};
    } catch (const Error &) {
        return {"shed", ""};
    }
}

inline Keyed
keyOf(const Input &in)
{
    if (in.program)
        return keyOf(*in.program);
    dsl::ParseResult parsed;
    try {
        parsed = dsl::parseProgramRecovering(in.source);
    } catch (const std::exception &) {
        return {"shed", ""};
    }
    if (!parsed.program)
        return {"shed", ""};
    return keyOf(std::move(*parsed.program));
}

/**
 * Every line of golden_plan_keys.txt, "<name> <key> <fletcher64>".
 * A fixed input's line holds its plan key and the fletcher64 of its
 * canonical text. A stream block's line holds the 128-bit hash of its
 * requests' key spellings, in order, and the fletcher64 of their
 * canonical texts concatenated.
 */
inline std::vector<std::string>
lines()
{
    std::vector<std::string> out;
    for (const Input &in : fixedInputs()) {
        Keyed k = keyOf(in);
        out.push_back(in.name + " " + k.key + " " +
                      hex16(fletcher64(k.text)));
    }
    // Streams repeat sources (a cluster's disguises recur), so each
    // distinct source is keyed once.
    std::unordered_map<std::string, Keyed> seen;
    for (const Stream &s : streams()) {
        std::vector<svc::BatchRequest> reqs =
            svc::clusteredWorkload(s.options);
        for (size_t b = 0; b < reqs.size(); b += kBlock) {
            size_t e = std::min(reqs.size(), b + kBlock);
            Hasher128 keys;
            std::string texts;
            for (size_t i = b; i < e; ++i) {
                auto [it, fresh] = seen.try_emplace(reqs[i].source);
                if (fresh)
                    it->second = keyOf(
                        Input{reqs[i].id, std::nullopt, reqs[i].source});
                keys.update(it->second.key);
                texts += it->second.text;
            }
            out.push_back(s.name + "/" + std::to_string(b) + "-" +
                          std::to_string(e) + " " + keys.digest().hex() +
                          " " + hex16(fletcher64(texts)));
        }
    }
    return out;
}

} // namespace anc::golden

#endif // ANC_TESTS_SVC_GOLDEN_INPUTS_H
