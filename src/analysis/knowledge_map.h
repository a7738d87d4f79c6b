/**
 * @file
 * Knowledge-map emitter: lowers the `KnowledgeAnalysis` fixpoint
 * into the serialized `KnowledgeMap` artifact (core/knowledge_map.h,
 * DESIGN.md §13) that `spt_lint` writes and the differential
 * harness checks against the dynamic engine at commit.
 *
 * Only kRobust facts are emitted. A per-pc mask bit is set for arch
 * register r iff r is kRobust-known in the in-state of that pc —
 * i.e. on *every* architectural path to the instruction, r's value
 * has been declassified by a program-order-older visibility-point
 * event by the time the instruction executes. kWindowed facts are
 * deliberately dropped: their justifier can be younger than the
 * value's producer, so they carry no retire-time guarantee.
 */

#ifndef SPT_ANALYSIS_KNOWLEDGE_MAP_H
#define SPT_ANALYSIS_KNOWLEDGE_MAP_H

#include "analysis/knowledge_analysis.h"
#include "core/knowledge_map.h"

namespace spt {

/** Builds the map over @p analysis (itself built over a CFG whose
 *  program the map is fingerprinted against). @p vp_model stamps
 *  the header; the analysis's robust facts are VP-model-independent
 *  (they only use transmitter-operand declassifications valid under
 *  both models), so kAny is the natural stamp — a narrower one just
 *  restricts which runs accept the artifact. */
KnowledgeMap
emitKnowledgeMap(const KnowledgeAnalysis &analysis,
                 KnowledgeVpModel vp_model = KnowledgeVpModel::kAny);

} // namespace spt

#endif // SPT_ANALYSIS_KNOWLEDGE_MAP_H
