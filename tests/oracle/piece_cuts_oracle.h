/**
 * @file
 * The rational piece-cut planner, kept as the oracle of
 * numa::findPieceCuts.
 *
 * It finds the same cuts and slopes (see numa/piece_cuts.h) the direct
 * way: every bound, event and crossing is an exact rational in 128
 * bits, reduced after each operation, and each pair of events is
 * tested in full -- the crossing, the middle range there and both
 * events' active tests -- before the crossing is checked against the
 * outer range.
 */

#ifndef ANC_TESTS_ORACLE_PIECE_CUTS_ORACLE_H
#define ANC_TESTS_ORACLE_PIECE_CUTS_ORACLE_H

#include <string>

#include "numa/piece_cuts.h"
#include "xform/transform.h"

namespace anc::oracle {

/** numa::findPieceCuts in exact rationals: the same contract. */
bool rationalPieceCuts(const ir::LoopBounds &bounds, Int outerLo,
                       Int outerHi, numa::PieceCuts &out);

/**
 * Both planners on a nest at least three deep, bound to params, over
 * its outer range at the origin: "" when they agree (cuts, slopes and
 * whether they decline), else what differs. A nest of another depth,
 * or whose bounds or outer range leave 64 bits under params, compares
 * nothing.
 */
std::string pieceCutsDifferential(const xform::TransformedNest &nest,
                                  const IntVec &params);

} // namespace anc::oracle

#endif // ANC_TESTS_ORACLE_PIECE_CUTS_ORACLE_H
