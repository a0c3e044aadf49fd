/**
 * @file
 * The point-by-point enumeration oracle for translation validation.
 *
 * verify::validate decides symbolically, for every parameter value.
 * This oracle decides the same three questions the slow way, at one
 * small concrete binding, through code the prover never touches:
 *
 *  - lattice: the emitted loops, walked as written (declared strides,
 *    congruence anchors), visit exactly T * (source points), each once;
 *  - order: the visits are strictly lexicographic, and no loop's
 *    bounds change with its own or an inner coordinate;
 *  - differential: the source program and the transformed nest leave
 *    identical fletcher64 footprints from identical random inputs.
 *
 * It may be infeasible (no small binding fits under its caps); that is
 * reported in `feasible`/`reason`, never as a verdict. Tests run it
 * beside the prover and require the two to agree, on clean and on
 * deliberately miscompiled plans.
 */

#ifndef ANC_TESTS_ORACLE_ENUMERATION_ORACLE_H
#define ANC_TESTS_ORACLE_ENUMERATION_ORACLE_H

#include <cstdint>
#include <string>

#include "xform/transform.h"

namespace anc::oracle {

/**
 * The source nest's iteration count, or limit + 1 once it exceeds
 * limit. The innermost level is counted in closed form and the walk
 * stops as soon as the limit is passed, so probing a huge space costs
 * little.
 */
uint64_t countIterations(const ir::LoopNest &nest, const IntVec &params,
                         uint64_t limit);

/** The same for a transformed nest, walked with its declared strides. */
uint64_t countIterations(const xform::TransformedNest &nest,
                         const IntVec &params, uint64_t limit);

/** The oracle's verdict on one (program, nest) pair. */
struct EnumerationOracle
{
    bool feasible = false;  //!< a binding under the caps was found
    std::string reason;     //!< why not, when !feasible
    IntVec params;          //!< the binding used
    bool latticeOk = false; //!< emitted points == T*(source points)
    std::string latticeDetail;
    bool orderOk = false; //!< emitted scan well-defined, strictly lex
    std::string orderDetail;
    /** The concrete differential run happened (it additionally needs
     * the arrays to fit under the element cap at the binding). */
    bool differentialRan = false;
    bool differentialOk = false; //!< concrete footprints identical
    std::string differentialDetail;

    bool
    allOk() const
    {
        return latticeOk && orderOk && (!differentialRan || differentialOk);
    }
};

/**
 * Run the oracle. Bindings are tried from a fixed candidate list
 * {4, 3, 2, 6, 1, 8} (every parameter set to the same value), with at
 * most 2^18 source points, 2^16 elements per array and 3 seeded
 * differential trials.
 */
EnumerationOracle enumerationOracle(const ir::Program &prog,
                                    const xform::TransformedNest &nest);

} // namespace anc::oracle

#endif // ANC_TESTS_ORACLE_ENUMERATION_ORACLE_H
