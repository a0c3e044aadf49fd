#include "dsl/printer.h"

#include "ir/printer.h"

namespace anc::dsl {

namespace {

void
appendNames(std::string &out, const std::vector<std::string> &names,
            const char *kw)
{
    if (names.empty())
        return;
    out += kw;
    for (size_t i = 0; i < names.size(); ++i)
        out.append(i ? ", " : " ").append(names[i]);
    out += '\n';
}

} // namespace

std::string
printDsl(const ir::Program &prog)
{
    prog.validate();
    // Render into a per-thread buffer and return an exactly-sized copy:
    // callers keep many rendered sources alive, and a string grown by
    // appending holds up to twice its length.
    thread_local std::string out;
    out.clear();
    appendNames(out, prog.params, "param");
    appendNames(out, prog.scalars, "scalar");

    ir::NameTable ext_names{{}, prog.params};
    for (const ir::ArrayDecl &a : prog.arrays)
        ir::appendArrayDecl(out, a, ext_names, /*dsl=*/true);
    ir::appendNest(out, prog.nest, prog, prog.names());
    return std::string(out);
}

} // namespace anc::dsl
