// The figure-style spec kinds, ported verbatim from the bench drivers so
// a spec run writes byte-identical artifacts:
//
//  * goodput_surface — bench/bench_fig8/9/10 (one Table-I run per sender,
//    per-second goodput CSV + stripped RunManifest);
//  * fundamental_diagram — bench/bench_fig4 (density ladder per slowdown
//    probability, flow/stddev CSV).
//
// The benches are now thin wrappers that load a spec from
// examples/specs/ and land here; the golden-equivalence tests pin the
// byte compatibility.
#ifndef CAVENET_SPEC_FIGURES_H
#define CAVENET_SPEC_FIGURES_H

#include "spec/spec.h"

namespace cavenet::spec {

/// Runs the goodput surface `spec` describes (kind "goodput_surface"):
/// one run per sender first_sender..last_sender fanned over `jobs`
/// ensemble workers, the aggregate table on stdout, the full per-second
/// surface to outputs.csv and the stripped manifest to outputs.manifest
/// (both paths prefixed with `output_dir` when non-empty). Throws
/// std::runtime_error naming the path when an output cannot be written.
void run_goodput_surface(const CampaignSpec& spec, int jobs,
                         const std::string& output_dir = "");

/// Runs the fundamental-diagram sweep (kind "fundamental_diagram"): one
/// density ladder per slowdown probability, the Fig. 4 table on stdout
/// and outputs.csv, plus a stripped manifest to outputs.manifest.
/// Throws std::runtime_error naming the path when an output cannot be
/// written.
void run_fundamental_diagram(const CampaignSpec& spec, int jobs,
                             const std::string& output_dir = "");

/// `output_dir.empty() ? path : output_dir + "/" + path`.
std::string join_output_path(const std::string& output_dir,
                             const std::string& path);

/// "out/goodput_AODV.manifest.json" -> "goodput_AODV": the manifest
/// `name` a given output path implies (so spec runs serialize the same
/// name the hardcoded benches did).
std::string manifest_stem(const std::string& path);

}  // namespace cavenet::spec

#endif  // CAVENET_SPEC_FIGURES_H
