/**
 * @file
 * Test oracle: the exact-rational interpreter for Program IR.
 *
 * This is how the library executed the IR before its integer executor
 * (ir/interp.h): every loop bound, subscript and index value is
 * evaluated as an exact rational at every point, and each rhs by
 * recursion over its expression tree. It shares no evaluation code
 * with the executor, so tests hold the executor to it: identical
 * iteration counts, access traces, stored values, and error classes.
 */

#ifndef ANC_TESTS_IR_INTERP_ORACLE_H
#define ANC_TESTS_IR_INTERP_ORACLE_H

#include <functional>

#include "ir/interp.h"

namespace anc::testutil {

/** Concrete lower bound of a loop: ceil of the max, in rationals. */
inline Int
loopLowerBound(const ir::Loop &l, const IntVec &vars, const IntVec &params)
{
    bool first = true;
    Int best = 0;
    for (const ir::AffineExpr &e : l.lower) {
        Int v = e.evaluate(vars, params).ceil();
        if (first || v > best)
            best = v;
        first = false;
    }
    if (first)
        throw InternalError("loop without lower bounds");
    return best;
}

/** Concrete upper bound of a loop: floor of the min, in rationals. */
inline Int
loopUpperBound(const ir::Loop &l, const IntVec &vars, const IntVec &params)
{
    bool first = true;
    Int best = 0;
    for (const ir::AffineExpr &e : l.upper) {
        Int v = e.evaluate(vars, params).floor();
        if (first || v < best)
            best = v;
        first = false;
    }
    if (first)
        throw InternalError("loop without upper bounds");
    return best;
}

/** Walk the source nest in lexicographic order with rational bounds;
 * returns the number of iterations visited. */
inline uint64_t
forEachIteration(const ir::LoopNest &nest, const IntVec &params,
                 const std::function<void(const IntVec &)> &fn)
{
    IntVec vars(nest.depth(), 0);
    std::function<uint64_t(size_t)> walk = [&](size_t level) -> uint64_t {
        if (level == nest.depth()) {
            fn(vars);
            return 1;
        }
        const ir::Loop &l = nest.loops()[level];
        Int lo = loopLowerBound(l, vars, params);
        Int hi = loopUpperBound(l, vars, params);
        uint64_t count = 0;
        for (Int i = lo; i <= hi; ++i) {
            vars[level] = i;
            count += walk(level + 1);
        }
        vars[level] = 0;
        return count;
    };
    return walk(0);
}

/** Evaluate an rhs expression at one iteration point. */
inline double
evalExpr(const ir::Expr &e, const IntVec &vars, const ir::Bindings &binds,
         const ir::ArrayStorage &store, const ir::TraceFn &trace)
{
    switch (e.kind) {
      case ir::Expr::Kind::Number:
        return e.number;
      case ir::Expr::Kind::Scalar:
        return binds.scalarValues.at(e.scalarId);
      case ir::Expr::Kind::Index:
        return double(e.index.evaluateInt(vars, binds.paramValues));
      case ir::Expr::Kind::Ref: {
        IntVec subs;
        for (const ir::AffineExpr &s : e.ref.subscripts)
            subs.push_back(s.evaluateInt(vars, binds.paramValues));
        double v = store.at(e.ref.arrayId, subs);
        if (trace)
            trace({e.ref.arrayId, std::move(subs), false});
        return v;
      }
      case ir::Expr::Kind::Binary: {
        double a = evalExpr(e.kids[0], vars, binds, store, trace);
        double b = evalExpr(e.kids[1], vars, binds, store, trace);
        switch (e.op) {
          case '+':
            return a + b;
          case '-':
            return a - b;
          case '*':
            return a * b;
          case '/':
            return a / b;
          default:
            throw InternalError("unknown binary operator");
        }
      }
    }
    throw InternalError("unknown expression kind");
}

/** Execute one statement at one iteration point. */
inline void
execStatement(const ir::Statement &s, const IntVec &vars,
              const ir::Bindings &binds, ir::ArrayStorage &store,
              const ir::TraceFn &trace)
{
    double v = evalExpr(s.rhs, vars, binds, store, trace);
    IntVec subs;
    for (const ir::AffineExpr &sub : s.lhs.subscripts)
        subs.push_back(sub.evaluateInt(vars, binds.paramValues));
    store.at(s.lhs.arrayId, subs) = v;
    if (trace)
        trace({s.lhs.arrayId, std::move(subs), true});
}

/** Run a whole program sequentially; returns the iteration count. */
inline uint64_t
run(const ir::Program &prog, const ir::Bindings &binds,
    ir::ArrayStorage &store, const ir::TraceFn &trace = nullptr)
{
    if (binds.paramValues.size() != prog.params.size())
        throw UserError("wrong number of parameter values");
    if (binds.scalarValues.size() != prog.scalars.size())
        throw UserError("wrong number of scalar values");
    return forEachIteration(
        prog.nest, binds.paramValues, [&](const IntVec &vars) {
            for (const ir::Statement &s : prog.nest.body())
                execStatement(s, vars, binds, store, trace);
        });
}

} // namespace anc::testutil

#endif // ANC_TESTS_IR_INTERP_ORACLE_H
