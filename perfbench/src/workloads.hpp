// The benchmark's workloads. Each runs set-up (timed kSetupRepeats times),
// then measures for cfg.seconds, checks every output it produced, and fills
// `out` with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). README.md says why each workload exists.
#pragma once

#include "common.hpp"

namespace perfbench {

/// serve_uniform (cache off, uniform picks) and serve_zipf_cache (cache on,
/// zipf picks): an in-process serve::Server under open-loop load.
void run_serve(const RunConfig& cfg, bool zipf_cache, Outcome& out);

/// advise: the source -> graph -> predict -> argmin variant decision.
void run_advise(const RunConfig& cfg, Outcome& out);

/// train_stream: out-of-core training from an mmapped .pgds corpus.
void run_train_stream(const RunConfig& cfg, Outcome& out);

}  // namespace perfbench
