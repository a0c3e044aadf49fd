/**
 * @file
 * Right-hand-side expression trees for loop-body statements.
 *
 * Statements have the shape  lhs[subs] = rhs  where rhs is an arithmetic
 * expression over array references, scalar symbols (the alpha/beta of
 * SYR2K), affine index expressions (so "A[2i] = i" is expressible), and
 * double literals.
 */

#ifndef ANC_IR_EXPR_H
#define ANC_IR_EXPR_H

#include <vector>

#include "ir/array.h"

namespace anc::ir {

/** An arithmetic expression tree (value semantics). */
struct Expr
{
    enum class Kind
    {
        Number, //!< double literal
        Scalar, //!< named runtime scalar (e.g. alpha)
        Index,  //!< value of an affine expression of the loop indices
        Ref,    //!< array element read
        Binary, //!< op applied to kids[0], kids[1]
    };

    Kind kind = Kind::Number;
    double number = 0.0;
    size_t scalarId = 0;    //!< index into Program::scalars (Kind::Scalar)
    AffineExpr index;       //!< Kind::Index
    ArrayRef ref;           //!< Kind::Ref
    char op = '+';          //!< one of + - * / (Kind::Binary)
    std::vector<Expr> kids; //!< two children for Kind::Binary

    static Expr
    number_(double v)
    {
        Expr e;
        e.kind = Kind::Number;
        e.number = v;
        return e;
    }

    static Expr
    scalar(size_t id)
    {
        Expr e;
        e.kind = Kind::Scalar;
        e.scalarId = id;
        return e;
    }

    static Expr
    indexValue(AffineExpr a)
    {
        Expr e;
        e.kind = Kind::Index;
        e.index = std::move(a);
        return e;
    }

    static Expr
    arrayRead(ArrayRef r)
    {
        Expr e;
        e.kind = Kind::Ref;
        e.ref = std::move(r);
        return e;
    }

    static Expr
    binary(char op, Expr lhs, Expr rhs)
    {
        Expr e;
        e.kind = Kind::Binary;
        e.op = op;
        e.kids.push_back(std::move(lhs));
        e.kids.push_back(std::move(rhs));
        return e;
    }

    /** Visit every array reference in the tree (reads only). */
    template <typename Fn>
    void
    forEachRef(Fn &&fn) const
    {
        if (kind == Kind::Ref)
            fn(ref);
        for (const Expr &k : kids)
            k.forEachRef(fn);
    }

    /** Mutable visit over every array reference in the tree. */
    template <typename Fn>
    void
    forEachRefMut(Fn &&fn)
    {
        if (kind == Kind::Ref)
            fn(ref);
        for (Expr &k : kids)
            k.forEachRefMut(fn);
    }

    /** Visit every affine expression (subscripts and index values) in
     * the tree. */
    template <typename Fn>
    void
    forEachAffine(Fn &&fn) const
    {
        if (kind == Kind::Index)
            fn(index);
        if (kind == Kind::Ref)
            for (const AffineExpr &s : ref.subscripts)
                fn(s);
        for (const Expr &k : kids)
            k.forEachAffine(fn);
    }

    /** Mutable visit over every affine expression (subscripts and index
     * values) in the tree. */
    template <typename Fn>
    void
    forEachAffineMut(Fn &&fn)
    {
        if (kind == Kind::Index)
            fn(index);
        if (kind == Kind::Ref)
            for (AffineExpr &s : ref.subscripts)
                fn(s);
        for (Expr &k : kids)
            k.forEachAffineMut(fn);
    }
};

/** A single assignment statement lhs[subs] = rhs. */
struct Statement
{
    ArrayRef lhs;
    Expr rhs;

    /** Visit every array reference: the write first, then all reads. */
    template <typename Fn>
    void
    forEachRef(Fn &&fn) const
    {
        fn(lhs, /*is_write=*/true);
        rhs.forEachRef([&](const ArrayRef &r) { fn(r, false); });
    }

    /** Visit every affine expression in the statement. */
    template <typename Fn>
    void
    forEachAffine(Fn &&fn) const
    {
        for (const AffineExpr &s : lhs.subscripts)
            fn(s);
        rhs.forEachAffine(fn);
    }

    /** Mutable visit over every affine expression in the statement. */
    template <typename Fn>
    void
    forEachAffineMut(Fn &&fn)
    {
        for (AffineExpr &s : lhs.subscripts)
            fn(s);
        rhs.forEachAffineMut(fn);
    }

    /** Count of arithmetic operations in the rhs (for the cost model). */
    size_t
    flopCount() const
    {
        size_t n = 0;
        countOps(rhs, n);
        return n;
    }

  private:
    static void
    countOps(const Expr &e, size_t &n)
    {
        if (e.kind == Expr::Kind::Binary)
            ++n;
        for (const Expr &k : e.kids)
            countOps(k, n);
    }
};

} // namespace anc::ir

#endif // ANC_IR_EXPR_H
