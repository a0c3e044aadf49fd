#include "codegen/emit_c.h"

#include <sstream>

#include "ir/printer.h"

namespace anc::codegen {

namespace {

using ir::AffineExpr;

std::string
boundList(const std::vector<AffineExpr> &bounds, const char *comb,
          const char *round, const ir::NameTable &names)
{
    std::string out;
    ir::appendBoundList(out, bounds, comb, names, round);
    return out;
}

} // namespace

std::string
emitNodeProgram(const ir::Program &prog,
                const xform::TransformedNest &nest,
                const numa::ExecutionPlan &plan,
                const std::vector<InductionPlan> *sr)
{
    ir::NameTable names;
    for (const auto &l : nest.loops())
        names.vars.push_back(l.var);
    names.params = prog.params;

    std::ostringstream os;
    os << "/* SPMD node program: processor p of P */\n";
    std::string indent;
    for (size_t k = 0; k < nest.depth(); ++k) {
        const xform::TransformedLoop &l = nest.loops()[k];
        std::string lo = boundList(l.lower, "max", "ceil", names);
        std::string hi = boundList(l.upper, "min", "floor", names);
        os << indent << "for " << l.var << " = ";
        if (k == 0) {
            switch (plan.scheme) {
              case numa::PartitionScheme::OwnerWrapped:
                // Paper Section 7(a): first value >= lb congruent to p
                // (composed with the lattice stride when not 1).
                if (l.stride == 1) {
                    os << "ceil((" << lo << " - p)/P)*P + p, " << hi
                       << ", step P";
                } else {
                    os << "align(" << lo << ", p mod P, anchor mod "
                       << l.stride << "), " << hi << ", step lcm("
                       << l.stride << ", P)";
                }
                break;
              case numa::PartitionScheme::OwnerBlocked:
                os << "max(" << lo << ", p*S), min(" << hi
                   << ", (p+1)*S - 1)";
                if (l.stride != 1)
                    os << ", step " << l.stride;
                break;
              case numa::PartitionScheme::OwnerBlock2D:
                os << "max(" << lo << ", pr*S0), min(" << hi
                   << ", (pr+1)*S0 - 1)";
                if (l.stride != 1)
                    os << ", step " << l.stride;
                break;
              case numa::PartitionScheme::RoundRobin:
                os << lo << " + p*" << l.stride << ", " << hi << ", step "
                   << l.stride << "*P";
                break;
            }
        } else if (k == 1 &&
                   plan.scheme == numa::PartitionScheme::OwnerBlock2D) {
            os << "max(" << lo << ", pc*S1), min(" << hi
               << ", (pc+1)*S1 - 1)";
            if (l.stride != 1)
                os << ", step " << l.stride;
        } else {
            os << lo << ", " << hi;
            if (l.stride != 1)
                os << ", step " << l.stride;
        }
        os << "\n";
        indent += "  ";

        // Strength-reduced induction variables initialized here.
        if (sr) {
            for (const InductionPlan &p : *sr) {
                if (p.level != k)
                    continue;
                os << indent << p.name << " = " << p.expr.str(names)
                   << ";  /* once per entry; " << p.name
                   << " += " << p.increment
                   << " per iteration (strength-reduced) */\n";
            }
        }

        // Hoisted block transfers that become valid at this level.
        for (const numa::BlockHoist &h : plan.hoists) {
            if (h.level != int(k))
                continue;
            size_t idx = 0;
            const ir::Statement &stmt = nest.body()[h.stmt];
            stmt.rhs.forEachRef([&](const ir::ArrayRef &r) {
                if (idx++ != h.readIdx)
                    return;
                const ir::ArrayDecl &a = prog.arrays[r.arrayId];
                os << indent << "read " << a.name << "[";
                for (size_t d = 0; d < r.subscripts.size(); ++d) {
                    if (d)
                        os << ", ";
                    if (a.dist.isDistributionDim(d))
                        os << r.subscripts[d].str(names);
                    else
                        os << "*";
                }
                os << "];  /* block transfer */\n";
            });
        }
    }
    for (const ir::Statement &s : nest.body()) {
        std::string line;
        ir::appendStatement(line, s, prog, names);
        if (sr) {
            // Replace each tracked expression's rendering with its
            // induction variable name.
            for (const InductionPlan &p : *sr) {
                std::string needle = p.expr.str(names);
                size_t pos;
                while ((pos = line.find(needle)) != std::string::npos)
                    line.replace(pos, needle.size(), p.name);
            }
        }
        os << indent << line << "\n";
    }
    if (!plan.outerParallel)
        os << "/* outer loop carries a dependence: synchronize between "
              "outer iterations */\n";
    return os.str();
}

std::string
emitOwnershipProgram(const ir::Program &prog)
{
    ir::NameTable names = prog.names();
    std::ostringstream os;
    os << "/* ownership-rule node program: processor p of P */\n";
    std::string indent;
    for (const ir::Loop &l : prog.nest.loops()) {
        os << indent << "for " << l.var << " = "
           << boundList(l.lower, "max", "ceil", names) << ", "
           << boundList(l.upper, "min", "floor", names) << "\n";
        indent += "  ";
    }
    for (const ir::Statement &s : prog.nest.body()) {
        const ir::ArrayDecl &a = prog.arrays[s.lhs.arrayId];
        os << indent << "if (owner(" << a.name << "[";
        for (size_t d = 0; d < s.lhs.subscripts.size(); ++d) {
            if (d)
                os << ", ";
            os << s.lhs.subscripts[d].str(names);
        }
        os << "]) == p)  /* looking for work to do */\n";
        std::string stmt;
        ir::appendStatement(stmt, s, prog, names);
        os << indent << "  " << stmt << "\n";
    }
    return os.str();
}

} // namespace anc::codegen
